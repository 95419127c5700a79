"""Self-check: ``src/repro`` stays clean modulo the committed baseline.

Also "mutation-style" regressions: un-fixing the violations this PR fixed
(re-shipping the model's memoized matrix export, dropping the justified
suppression comments in validation.py) must make the lint fail again, which
proves the checkers actually guard those sites.
"""

from __future__ import annotations

import ast
import re
import shutil
from pathlib import Path

import pytest

from repro.analysis import LintConfig, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_src_repro_is_clean_modulo_baseline(monkeypatch: pytest.MonkeyPatch) -> None:
    # Finding paths (and the committed baseline's entries) are repo-relative.
    monkeypatch.chdir(REPO_ROOT)
    report = run_lint([Path("src/repro")])
    assert report.ok, "\n" + report.format_text()
    assert report.files_checked > 60
    assert len(report.rules_run) >= 6
    # The committed baseline stays minimal and fully live: every entry still
    # matches a real finding (no stale residue) and none exceed the budget.
    assert report.stale_baseline == []
    assert len(report.grandfathered) <= 5


def test_no_module_imports_scipy_sparse() -> None:
    """Constraint coefficients have one storage, dense arrays (docs/simplex.md,
    "Storage"): a second one comes back with a PR that says so, not an import."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == "scipy.sparse" or name.startswith("scipy.sparse.") for name in names):
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert offenders == []


def test_baseline_file_entries_are_justified() -> None:
    import json

    data = json.loads((REPO_ROOT / "repro-lint-baseline.json").read_text())
    assert len(data["entries"]) <= 5
    for entry in data["entries"]:
        assert len(entry["justification"].strip()) > 20


# -- mutation-style guards: un-fixing a fixed violation must fail the lint ------------


def _lint_single(path: Path, rule: str, options: dict[str, object]):
    config = LintConfig(rules=[rule], options={rule: options}, use_baseline=False)
    return run_lint([path], config)


def test_unfixing_coefficient_memo_pickling_fails_lint(tmp_path: Path) -> None:
    """Deleting the _matrix_cache reset (the one memo of the coefficients left)
    from __getstate__ re-flags the model."""
    source = (SRC / "ilp" / "model.py").read_text()
    mutated = source.replace('state["_matrix_cache"] = None', "pass")
    assert mutated != source  # the fix is present in the tree
    target = tmp_path / "model.py"
    target.write_text(mutated)

    report = _lint_single(target, "pickle-safety", {})
    assert any("IlpModel._matrix_cache" in f.message for f in report.findings), (
        report.format_text()
    )

    # And the real, fixed file is clean.
    assert _lint_single(SRC / "ilp" / "model.py", "pickle-safety", {}).grandfathered == []


def test_unsuppressing_validation_guards_fails_lint(tmp_path: Path) -> None:
    """Stripping the justified inline suppressions re-flags the exact-zero guards."""
    source = (SRC / "core" / "validation.py").read_text()
    mutated = re.sub(r"#\s*repro-lint:[^\n]*", "", source)
    assert mutated != source
    target = tmp_path / "validation.py"
    target.write_text(mutated)

    report = _lint_single(target, "tolerance", {"scope": []})
    assert len(report.findings) >= 2, report.format_text()

    # The committed file passes purely via suppressions (same scope, no baseline).
    clean = _lint_single(SRC / "core" / "validation.py", "tolerance", {"scope": []})
    assert clean.findings == []
    assert clean.suppressed >= 2


def test_reintroducing_wall_clock_fails_lint(tmp_path: Path) -> None:
    """A stray time.time() in the exec layer is caught (the PR 6 invariant)."""
    source = (SRC / "exec" / "tasks.py").read_text()
    mutated = source.replace("time.perf_counter()", "time.time()")
    assert mutated != source
    target = tmp_path / "tasks.py"
    target.write_text(mutated)

    report = _lint_single(target, "determinism", {"time_scope": []})
    assert any("time.time" in f.message for f in report.findings), report.format_text()


def test_new_cache_attribute_on_payload_class_flags(tmp_path: Path) -> None:
    """Growing a payload class a new memo attribute flags until handled."""
    source = (SRC / "ilp" / "matrix_form.py").read_text()
    mutated = source.replace(
        "def __getstate__(self) -> dict:",
        "def _grow(self):\n"
        "        self._row_memo = {}\n\n"
        "    def __getstate__(self) -> dict:",
        1,
    )
    assert mutated != source
    target = tmp_path / "matrix_form.py"
    target.write_text(mutated)

    report = _lint_single(target, "pickle-safety", {})
    assert any("_row_memo" in f.message for f in report.findings), report.format_text()
