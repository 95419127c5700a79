"""Framework-level tests: suppressions, scoping, baseline, config, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Baseline, BaselineEntry, Finding, LintConfig, run_lint
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
            "z = 3  # repro-lint: disable=tolerance, determinism",
        ]
    )
    assert sup.by_line[2] == {"tolerance"}
    assert sup.by_line[3] == {"tolerance", "determinism"}
    assert sup.file_level == set()


def test_file_level_suppression_parsing() -> None:
    sup = parse_suppressions(["# repro-lint: disable-file=pickle-safety (fixture)"])
    assert sup.file_level == {"pickle-safety"}
    finding = Finding("pickle-safety", "f.py", 99, 0, "msg")
    assert sup.is_suppressed(finding)


def test_disable_all_matches_any_rule() -> None:
    sup = parse_suppressions(["x = 1  # repro-lint: disable=all"])
    assert sup.is_suppressed(Finding("tolerance", "f.py", 1, 0, "msg"))
    assert sup.is_suppressed(Finding("determinism", "f.py", 1, 0, "msg"))


# -- module naming + scoping -----------------------------------------------------------


def test_module_name_anchors_at_repro_package() -> None:
    assert module_name_for(Path("src/repro/ilp/model.py")) == "repro.ilp.model"
    assert module_name_for(Path("src/repro/ilp/__init__.py")) == "repro.ilp"
    assert module_name_for(Path("tests/analysis/fixtures/x.py")) == "x"


def test_module_in_scope_prefix_semantics() -> None:
    assert module_in_scope("repro.ilp.model", ["repro.ilp"])
    assert module_in_scope("repro.core.sketchrefine", ["repro.core.sketchrefine"])
    assert not module_in_scope("repro.core.sketchy", ["repro.core.sketchrefine"])
    assert module_in_scope("anything", [])  # empty scope = everywhere


# -- baseline --------------------------------------------------------------------------


def _finding(message: str = "msg", symbol: str = "f") -> Finding:
    return Finding("tolerance", "pkg/mod.py", 10, 2, message, symbol=symbol)


def test_baseline_split_new_grandfathered_stale() -> None:
    grandfathered = _finding("old violation")
    fresh = _finding("new violation")
    baseline = Baseline(
        entries=[
            BaselineEntry("tolerance", "pkg/mod.py", "f", "old violation", "why"),
            BaselineEntry("tolerance", "pkg/mod.py", "f", "long gone", "why"),
        ]
    )
    new, matched, stale = baseline.split([grandfathered, fresh])
    assert new == [fresh]
    assert matched == [grandfathered]
    assert [e.message for e in stale] == ["long gone"]


def test_baseline_matching_ignores_line_numbers() -> None:
    baseline = Baseline(
        entries=[BaselineEntry("tolerance", "pkg/mod.py", "f", "msg", "why")]
    )
    drifted = Finding("tolerance", "pkg/mod.py", 999, 0, "msg", symbol="f")
    new, matched, stale = baseline.split([drifted])
    assert new == [] and len(matched) == 1 and stale == []


def test_baseline_roundtrips_through_disk(tmp_path: Path) -> None:
    path = tmp_path / "baseline.json"
    original = Baseline(
        entries=[BaselineEntry("tolerance", "a.py", "f", "m", "justified")],
        path=path,
    )
    original.save()
    loaded = Baseline.load(path)
    assert loaded.entries == original.entries


def test_unjustified_baseline_entry_is_itself_a_finding(tmp_path: Path) -> None:
    fixture = FIXTURES / "tolerance_violation.py"
    report_raw = run_lint(
        [fixture],
        LintConfig(rules=["tolerance"], options={"tolerance": {"scope": []}},
                   use_baseline=False),
    )
    baseline_path = tmp_path / "baseline.json"
    Baseline.from_findings(report_raw.findings, path=baseline_path).save()

    config = LintConfig(
        rules=["tolerance"], options={"tolerance": {"scope": []}},
        baseline_path=baseline_path,
    )
    report = run_lint([fixture], config)
    # Every violation is grandfathered, but the TODO justifications flag.
    assert len(report.grandfathered) == len(report_raw.findings)
    assert report.findings and all(f.rule == "baseline" for f in report.findings)
    assert not report.ok

    # Filling in justifications makes the run clean.
    justified = Baseline.load(baseline_path)
    justified.entries = [
        BaselineEntry(e.rule, e.path, e.symbol, e.message, "fixture: intended")
        for e in justified.entries
    ]
    justified.save()
    assert run_lint([fixture], config).ok


# -- config ----------------------------------------------------------------------------


def test_config_from_file_merges_over_defaults(tmp_path: Path) -> None:
    config_path = tmp_path / "lint.json"
    config_path.write_text(
        json.dumps(
            {"rules": ["tolerance"], "options": {"tolerance": {"scope": []}}}
        )
    )
    config = LintConfig.from_file(config_path)
    report = run_lint([FIXTURES / "tolerance_violation.py"], config)
    assert report.rules_run == ["tolerance"]
    assert report.findings


def test_unknown_rule_is_rejected() -> None:
    with pytest.raises(ValueError, match="unknown lint rule"):
        run_lint([FIXTURES], LintConfig(rules=["no-such-rule"]))


# -- CLI -------------------------------------------------------------------------------


def test_cli_list_rules(capsys: pytest.CaptureFixture) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("pickle-safety", "determinism", "tolerance", "stats-drift",
                 "env-access", "api-boundary"):
        assert rule in out


def test_cli_text_and_exit_code_on_violations(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    config_path = tmp_path / "lint.json"
    config_path.write_text(
        json.dumps({"rules": ["env-access"], "options": {}})
    )
    fixture = str(FIXTURES / "env_access_violation.py")
    code = main([fixture, "--config", str(config_path), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[env-access]" in out


def test_cli_json_output_is_machine_readable(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    config_path = tmp_path / "lint.json"
    config_path.write_text(
        json.dumps({"rules": ["env-access"], "options": {}})
    )
    fixture = str(FIXTURES / "env_access_violation.py")
    code = main([fixture, "--config", str(config_path), "--no-baseline",
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["ok"] is False
    assert payload["findings"]
    assert {f["rule"] for f in payload["findings"]} == {"env-access"}


def test_cli_clean_run_exits_zero(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    config_path = tmp_path / "lint.json"
    config_path.write_text(json.dumps({"rules": ["env-access"]}))
    fixture = str(FIXTURES / "env_access_clean.py")
    assert main([fixture, "--config", str(config_path), "--no-baseline"]) == 0


def test_cli_update_baseline_then_enforce(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    config_path = tmp_path / "lint.json"
    config_path.write_text(
        json.dumps({"rules": ["env-access"], "options": {}})
    )
    baseline_path = tmp_path / "baseline.json"
    fixture = str(FIXTURES / "env_access_violation.py")

    assert main([fixture, "--config", str(config_path),
                 "--baseline", str(baseline_path), "--update-baseline"]) == 0
    capsys.readouterr()

    # The TODO placeholders keep the gate failing until justified.
    assert main([fixture, "--config", str(config_path),
                 "--baseline", str(baseline_path)]) == 1
    capsys.readouterr()

    baseline = Baseline.load(baseline_path)
    baseline.entries = [
        BaselineEntry(e.rule, e.path, e.symbol, e.message, "fixture: sanctioned")
        for e in baseline.entries
    ]
    baseline.save()
    assert main([fixture, "--config", str(config_path),
                 "--baseline", str(baseline_path)]) == 0


def test_cli_missing_path_is_usage_error(capsys: pytest.CaptureFixture) -> None:
    assert main(["definitely/not/a/path.py"]) == 2
