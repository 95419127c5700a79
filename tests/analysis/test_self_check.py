"""Self-check: ``src/repro`` stays clean.

Also "mutation-style" regressions: un-fixing a guarded site (dropping the
justified suppression comments in validation.py, a wall-clock read or an
environment read on the SKETCHREFINE path) must make the lint fail again,
which proves the checkers actually guard those sites.
"""

from __future__ import annotations

import ast
import re
import shutil
from pathlib import Path

import pytest

from repro.analysis import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_src_repro_is_clean(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.chdir(REPO_ROOT)
    report = run_lint([Path("src/repro")])
    assert report.ok, "\n" + report.format_text()
    assert report.files_checked > 60
    assert len(report.rules_run) == 4
    # The two division guards in core/validation.py, each with its reason.
    assert report.suppressed == 2


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


# -- mutation-style guards: un-fixing a fixed violation must fail the lint ------------


def _lint_single(path: Path, rule: str, options: dict[str, object]):
    return run_lint([path], rules=[rule], options={rule: options})


def test_unsuppressing_validation_guards_fails_lint(tmp_path: Path) -> None:
    """Stripping the justified inline suppressions re-flags the exact-zero guards."""
    source = (SRC / "core" / "validation.py").read_text()
    mutated = re.sub(r"#\s*repro-lint:[^\n]*", "", source)
    assert mutated != source
    target = tmp_path / "validation.py"
    target.write_text(mutated)

    report = _lint_single(target, "tolerance", {"scope": []})
    assert len(report.findings) >= 2, report.format_text()

    # The committed file passes purely via its suppressions (same scope).
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
