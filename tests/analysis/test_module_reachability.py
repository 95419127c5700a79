"""Every module under ``src/repro`` is reached from a program entry point.

The ``repro.*`` import graph is built with :mod:`ast`.  The roots are the
engine (``repro.core.engine``), the lint CLI (``python -m repro.analysis``),
and every ``repro.*`` import of a script under ``benchmarks/`` or
``examples/``.  A package ``__init__``'s own imports are re-exports, not uses,
so its edges are not followed; a name imported *through* a package is followed
to the module that defines it.  The one exception is
``repro.analysis.checkers``, whose ``__init__`` imports each checker module to
register it.

A module only its own tests import is dead code: delete it, or add it to
:data:`ALLOWLIST` with the reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

ROOT_MODULES = ("repro.core.engine", "repro.analysis.__main__")
REGISTRATION_PACKAGES = ("repro.analysis.checkers",)
SCRIPT_DIRS = ("benchmarks", "examples")

ALLOWLIST = {
    "repro.exec.pool": "the serial SolvePool stub that benchmarks/e2e/tracing.py traces by name",
}


def _module_files() -> dict[str, Path]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _imports(path: Path, package: str | None) -> list[tuple[str, str | None]]:
    """``(module, imported name or None)`` for each ``repro`` import in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = (package or "").rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            found.extend((base, alias.name) for alias in node.names)
    return [(module, name) for module, name in found if module.split(".")[0] == "repro"]


def _package_of(name: str) -> str:
    return name if _is_package(name) else name.rpartition(".")[0]


def _targets(module: str, name: str | None, seen: frozenset = frozenset()) -> set[str]:
    """The modules an import of ``name`` from ``module`` uses.

    ``from pkg import sub`` uses the submodule; ``from pkg import symbol``
    uses the module ``pkg/__init__.py`` re-exports ``symbol`` from.
    """
    if module not in MODULES:
        return set()
    if name is None or name == "*":
        return {module}
    if f"{module}.{name}" in MODULES:
        return {f"{module}.{name}"}
    if not _is_package(module) or module in seen:
        return {module}
    for source, imported in _imports(MODULES[module], module):
        if imported == name:
            return _targets(source, imported, seen | {module})
    return {module}


def _uses(module: str) -> set[str]:
    if _is_package(module) and module not in REGISTRATION_PACKAGES:
        return set()
    used = set()
    for source, name in _imports(MODULES[module], _package_of(module)):
        used |= _targets(source, name)
    return used


def _script_roots() -> set[str]:
    roots = set()
    for directory in SCRIPT_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            for source, name in _imports(path, None):
                roots |= _targets(source, name)
    return roots


def unreached_modules() -> set[str]:
    reached: set[str] = set()
    frontier = [*ROOT_MODULES, *_script_roots()]
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        frontier.extend(_uses(module) - reached)
    return set(MODULES) - reached - {m for m in MODULES if _is_package(m)}


def test_every_module_is_reached_or_allowlisted() -> None:
    stray = sorted(unreached_modules() - set(ALLOWLIST))
    assert not stray, (
        f"nothing under src/, benchmarks/ or examples/ reaches {stray}; "
        "delete them or allowlist them with a reason"
    )


def test_the_allowlist_names_only_live_unreached_modules() -> None:
    """A stale entry (the module was deleted, or is now reached) comes out."""
    assert set(ALLOWLIST) <= unreached_modules()


def test_a_name_imported_through_a_package_reaches_its_defining_module() -> None:
    assert _targets("repro", "PackageQueryEngine") == {"repro.core.engine"}
    assert _targets("repro.analysis", "checkers") == {"repro.analysis.checkers"}
    assert _uses("repro.db") == set()


def test_every_root_module_exists() -> None:
    for module in (*ROOT_MODULES, *REGISTRATION_PACKAGES):
        assert module in MODULES, module


def test_scripts_import_the_engine() -> None:
    """The examples reach the engine through ``repro``'s re-export."""
    assert "repro.core.engine" in _script_roots()


def test_relative_imports_resolve_against_the_package(tmp_path: Path) -> None:
    source = tmp_path / "module.py"
    source.write_text(
        "from . import sibling\n"
        "from .sub import name\n"
        "from ..other import thing\n"
        "import numpy\n"
        "import repro.core.engine\n"
    )
    assert _imports(source, "repro.pkg") == [
        ("repro.pkg", "sibling"),
        ("repro.pkg.sub", "name"),
        ("repro.other", "thing"),
        ("repro.core.engine", None),
    ]


def test_a_registration_package_uses_what_it_imports() -> None:
    """``repro.analysis.checkers`` registers its checkers by importing them;
    any other package ``__init__`` uses nothing."""
    (package,) = REGISTRATION_PACKAGES
    used = _uses(package)
    assert used
    assert all(module.startswith(f"{package}.") for module in used)
    assert _uses("repro.analysis") == set()


def test_an_import_of_a_missing_module_uses_nothing() -> None:
    assert _targets("repro.no_such_module", "anything") == set()
    assert _targets("repro.core", "*") == {"repro.core"}
