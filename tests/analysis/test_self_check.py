"""Self-check: ``src/repro`` stays clean modulo the committed baseline.

Also "mutation-style" regressions: un-fixing a guarded site (pickling a
snapshot handle together with its live manager, dropping the justified
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


def test_catalog_reference_on_snapshot_handle_fails_lint(tmp_path: Path) -> None:
    """A private attribute outside the allowlist — say, a reference back to
    the live catalog — on SnapshotHandle (a pickled payload class with no
    __getstate__) is flagged: it would ship inside every pickled handle."""
    source = (SRC / "db" / "snapshot.py").read_text()
    mutated = source.replace(
        "self._released = False", "self._released = False\n        self._catalog = None"
    )
    assert mutated != source  # the anchor is present in the tree
    target = tmp_path / "snapshot.py"
    target.write_text(mutated)

    report = _lint_single(target, "pickle-safety", {})
    assert any(
        "SnapshotHandle._catalog is a private/derived attribute" in f.message
        for f in report.findings
    ), report.format_text()

    # And the real, fixed file is clean.
    assert _lint_single(SRC / "db" / "snapshot.py", "pickle-safety", {}).findings == []


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
    """A stray time.time() on the SKETCHREFINE path is caught."""
    source = (SRC / "core" / "sketchrefine.py").read_text()
    mutated = source.replace("time.perf_counter()", "time.time()")
    assert mutated != source
    target = tmp_path / "sketchrefine.py"
    target.write_text(mutated)

    report = _lint_single(target, "determinism", {"time_scope": []})
    assert any("time.time" in f.message for f in report.findings), report.format_text()


def test_new_cache_attribute_on_payload_class_flags(tmp_path: Path) -> None:
    """Growing a payload class a new memo attribute flags until handled."""
    source = (SRC / "db" / "snapshot.py").read_text()
    mutated = source.replace(
        "def release(self) -> None:",
        "def _grow(self):\n"
        "        self._row_memo = {}\n\n"
        "    def release(self) -> None:",
        1,
    )
    assert mutated != source
    target = tmp_path / "snapshot.py"
    target.write_text(mutated)

    report = _lint_single(target, "pickle-safety", {})
    assert any("_row_memo" in f.message for f in report.findings), report.format_text()


def test_reading_the_environment_fails_lint(tmp_path: Path) -> None:
    """No module may read the environment: a worker-count read on the
    SKETCHREFINE path is flagged."""
    source = (SRC / "core" / "sketchrefine.py").read_text()
    mutated = source.replace(
        "import time\n",
        'import os\nimport time\n\nWORKERS = os.environ.get("REPRO_WORKERS", "1")\n',
        1,
    )
    assert mutated != source
    target = tmp_path / "sketchrefine.py"
    target.write_text(mutated)

    report = _lint_single(target, "env-access", {})
    assert any("os.environ" in f.message for f in report.findings), report.format_text()

    # And the real file is clean.
    assert _lint_single(SRC / "core" / "sketchrefine.py", "env-access", {}).findings == []
