"""Per-checker fixture tests: positive hit, suppressed hit, clean file.

Each rule is exercised against three committed fixture files under
``fixtures/`` (parsed, never imported).  The violation fixture must produce
at least the expected number of findings — all under the rule's own name —
the suppressed fixture must produce zero findings *via* inline suppressions
(the suppressed counter proves the violations were actually seen), and the
clean fixture must be silent.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import run_lint

FIXTURES = Path(__file__).parent / "fixtures"

#: rule → (per-rule option overrides for fixture files, min violation count,
#: min suppressed count in the suppressed fixture)
CASES: dict[str, tuple[dict[str, object], int, int]] = {
    "determinism": (
        {"time_scope": [], "rng_scope": [], "set_iteration_scope": []},
        7,  # time.time x2, random.random, np.random.rand, shuffle, 3 set-iters
        2,
    ),
    "tolerance": (
        {"scope": []},
        4,  # name-pattern ==, literal !=, division ==, float() ==
        1,
    ),
    "stats-drift": (
        {},
        2,  # undeclared write (typo_hits) + never-written field
        2,
    ),
    "env-access": (
        {},
        5,  # os.environ.get, os.environ[], os.getenv, environ.get, getenv
        1,
    ),
}


def _lint(rule: str, fixture: Path, options: dict[str, object]):
    return run_lint([fixture], rules=[rule], options={rule: options})


def _fixture(rule: str, kind: str) -> Path:
    path = FIXTURES / f"{rule.replace('-', '_')}_{kind}.py"
    assert path.exists(), f"missing fixture {path}"
    return path


@pytest.mark.parametrize("rule", sorted(CASES))
def test_violation_fixture_is_caught(rule: str) -> None:
    options, min_findings, _ = CASES[rule]
    report = _lint(rule, _fixture(rule, "violation"), options)
    assert len(report.findings) >= min_findings, report.format_text()
    assert {f.rule for f in report.findings} == {rule}
    # Every finding points into the fixture with a real location and scope.
    for finding in report.findings:
        assert finding.line > 0
        assert finding.message


@pytest.mark.parametrize("rule", sorted(CASES))
def test_suppressed_fixture_is_silent_but_seen(rule: str) -> None:
    options, _, min_suppressed = CASES[rule]
    report = _lint(rule, _fixture(rule, "suppressed"), options)
    assert report.findings == [], report.format_text()
    assert report.suppressed >= min_suppressed


@pytest.mark.parametrize("rule", sorted(CASES))
def test_clean_fixture_is_silent(rule: str) -> None:
    options, _, _ = CASES[rule]
    report = _lint(rule, _fixture(rule, "clean"), options)
    assert report.findings == [], report.format_text()
    assert report.suppressed == 0


def test_every_registered_rule_has_a_case() -> None:
    from repro.analysis import all_checkers

    assert set(CASES) == set(all_checkers())
