"""Framework-level tests: suppressions, scoping, rule selection, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Finding, run_lint
from repro.analysis.__main__ import main
from repro.analysis.core import (
    module_in_scope,
    module_name_for,
    parse_suppressions,
)

FIXTURES = Path(__file__).parent / "fixtures"


# -- suppression grammar ---------------------------------------------------------------


def test_line_suppression_parsing() -> None:
    sup = parse_suppressions(
        [
            "x = 1",
            "y = 2  # repro-lint: disable=tolerance (division guard)",
            "z = 3  # repro-lint: disable=tolerance, determinism (both guards)",
        ]
    )
    assert sup.by_line == {2: {"tolerance"}, 3: {"tolerance", "determinism"}}
    assert sup.unjustified == []
    assert sup.is_suppressed(Finding("determinism", "f.py", 3, 0, "msg"))
    assert not sup.is_suppressed(Finding("determinism", "f.py", 2, 0, "msg"))


@pytest.mark.parametrize(
    "comment",
    [
        "# repro-lint: disable=tolerance",
        "# repro-lint: disable=tolerance ()",
        "# repro-lint: disable=tolerance (   )",
        "# repro-lint: disable=tolerance, determinism",
    ],
    ids=["bare", "empty", "blank", "two_rules"],
)
def test_suppression_without_a_reason_is_unjustified(comment: str) -> None:
    sup = parse_suppressions(["x = 1", f"y = 2  {comment}"])
    assert sup.unjustified == [2]
    assert "tolerance" in sup.by_line[2]


def test_only_the_named_rule_is_suppressed() -> None:
    """``all`` is a rule name like any other, not a wildcard."""
    sup = parse_suppressions(["x = 1  # repro-lint: disable=all (everything)"])
    assert sup.by_line == {1: {"all"}}
    assert not sup.is_suppressed(Finding("tolerance", "f.py", 1, 0, "msg"))


def test_unjustified_suppression_is_a_finding(tmp_path: Path) -> None:
    target = tmp_path / "guard.py"
    target.write_text(
        "def ratio(numerator, denominator):\n"
        "    if denominator == 0:  # repro-lint: disable=tolerance\n"
        "        return 1.0\n"
        "    return numerator / denominator\n"
    )
    report = run_lint([target], rules=["tolerance"], options={"tolerance": {"scope": []}})
    # The comparison itself stays suppressed; the missing reason is the finding.
    assert report.suppressed == 1
    assert [(f.rule, f.line) for f in report.findings] == [("suppression", 2)]
    assert not report.ok

    target.write_text(
        target.read_text().replace("disable=tolerance", "disable=tolerance (division guard)")
    )
    report = run_lint([target], rules=["tolerance"], options={"tolerance": {"scope": []}})
    assert report.ok and report.suppressed == 1


def test_suppression_quoted_in_a_docstring_is_not_read(tmp_path: Path) -> None:
    """A docstring that quotes the grammar is prose, not an unjustified suppression."""
    target = tmp_path / "doc.py"
    target.write_text(
        'def f():\n'
        '    """Silence a line with ``# repro-lint: disable=tolerance``."""\n'
        '    return 1\n'
    )
    report = run_lint([target], rules=["tolerance"], options={"tolerance": {"scope": []}})
    assert report.findings == [] and report.suppressed == 0


def test_suppression_inside_a_string_does_not_silence_the_line(tmp_path: Path) -> None:
    target = tmp_path / "quoted.py"
    target.write_text(
        "def f(a):\n"
        '    s = "# repro-lint: disable=tolerance (x)"; return a == 0.5\n'
    )
    report = run_lint([target], rules=["tolerance"], options={"tolerance": {"scope": []}})
    assert report.suppressed == 0
    assert [(f.rule, f.line) for f in report.findings] == [("tolerance", 2)]


# -- module naming + scoping -----------------------------------------------------------


def test_module_name_anchors_at_repro_package() -> None:
    assert module_name_for(Path("src/repro/ilp/model.py")) == "repro.ilp.model"
    assert module_name_for(Path("src/repro/ilp/__init__.py")) == "repro.ilp"
    assert module_name_for(Path("tests/analysis/fixtures/x.py")) == "x"


def test_module_name_anchors_at_the_nearest_repro_directory() -> None:
    """A checkout that itself sits under a directory named ``repro``."""
    path = Path("/home/u/repro/src/repro/core/sketchrefine.py")
    assert module_name_for(path) == "repro.core.sketchrefine"
    assert module_name_for(Path("/home/u/repro/src/repro/__init__.py")) == "repro"


def test_scoped_rule_sees_a_checkout_under_a_repro_directory(tmp_path: Path) -> None:
    package = tmp_path / "repro" / "src" / "repro" / "core"
    package.mkdir(parents=True)
    (package / "sketchrefine.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n"
    )
    report = run_lint([tmp_path / "repro" / "src" / "repro"], rules=["determinism"])
    assert [f.line for f in report.findings] == [5]
    assert "time.time" in report.findings[0].message


def test_module_in_scope_prefix_semantics() -> None:
    assert module_in_scope("repro.ilp.model", ["repro.ilp"])
    assert module_in_scope("repro.core.sketchrefine", ["repro.core.sketchrefine"])
    assert not module_in_scope("repro.core.sketchy", ["repro.core.sketchrefine"])
    assert module_in_scope("anything", [])  # empty scope = everywhere


# -- rule selection ------------------------------------------------------------------


def test_options_merge_over_defaults() -> None:
    fixture = FIXTURES / "tolerance_violation.py"
    # The default scope (repro.ilp, repro.core.validation) misses a fixture.
    assert run_lint([fixture], rules=["tolerance"]).findings == []
    report = run_lint([fixture], rules=["tolerance"], options={"tolerance": {"scope": []}})
    assert report.rules_run == ["tolerance"]
    assert report.findings


def test_unknown_rule_is_rejected() -> None:
    with pytest.raises(ValueError, match="unknown lint rule"):
        run_lint([FIXTURES], rules=["no-such-rule"])


# -- CLI -------------------------------------------------------------------------------


def test_cli_list_rules(capsys: pytest.CaptureFixture) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    rules = [line.split(":")[0] for line in out.splitlines()]
    assert rules == ["determinism", "env-access", "stats-drift", "tolerance"]


def test_cli_text_and_exit_code_on_violations(capsys: pytest.CaptureFixture) -> None:
    fixture = str(FIXTURES / "env_access_violation.py")
    code = main([fixture, "--rules", "env-access"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[env-access]" in out


def test_cli_json_output_is_machine_readable(capsys: pytest.CaptureFixture) -> None:
    fixture = str(FIXTURES / "env_access_violation.py")
    code = main([fixture, "--rules", "env-access", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["ok"] is False
    assert payload["findings"]
    assert {f["rule"] for f in payload["findings"]} == {"env-access"}
    assert set(payload) == {
        "ok", "files_checked", "rules_run", "suppressed", "findings", "parse_errors",
    }


def test_cli_clean_run_exits_zero(capsys: pytest.CaptureFixture) -> None:
    fixture = str(FIXTURES / "env_access_clean.py")
    assert main([fixture, "--rules", "env-access"]) == 0


@pytest.mark.parametrize("flag", ["--config=lint.json", "--baseline=lint.json", "--verbose"])
def test_cli_takes_no_config_or_exemption_file(flag: str, capsys: pytest.CaptureFixture) -> None:
    with pytest.raises(SystemExit) as exit_info:
        main([str(FIXTURES / "env_access_clean.py"), flag])
    assert exit_info.value.code == 2


def test_cli_missing_path_is_usage_error(capsys: pytest.CaptureFixture) -> None:
    assert main(["definitely/not/a/path.py"]) == 2
