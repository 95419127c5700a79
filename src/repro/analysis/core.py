"""Core object model of the repro-lint static-analysis framework.

The framework walks Python ASTs and reports :class:`Finding`\\ s — violations
of the repo's *reproducibility invariants* (determinism, picklability,
tolerance discipline, ...).  The moving parts:

* :class:`ModuleInfo` — one parsed source file (AST + raw lines + the dotted
  module name used for scoping rules to subtrees of the package).
* :class:`ProjectInfo` — every module of one lint run, for checkers that need
  a whole-project view (e.g. stats-drift matches attribute *writes* in one
  module against field *declarations* in another).
* :class:`Checker` — base class; subclasses register themselves under a rule
  name via :func:`register` and implement :meth:`check_module` (per file)
  and/or :meth:`finalize` (once, after every module was visited).
* suppressions — ``# repro-lint: disable=<rule>[,<rule>...]`` on the
  offending line silences that line; ``# repro-lint: disable-file=<rule>``
  anywhere silences the whole file for the listed rules.

Line-level suppression matches the *reported* line of the finding (the AST
node's ``lineno``), so for a multi-line statement the comment goes on the
first line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: Suppression comment grammar: ``# repro-lint: disable=a,b`` (line) and
#: ``# repro-lint: disable-file=a,b`` (whole file).  ``all`` matches any rule.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\-\s]+)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    """Path as given to the runner (repo-relative POSIX form preferred)."""
    line: int
    column: int
    message: str
    symbol: str = "<module>"
    """Dotted enclosing scope (``Class.method``), used for baseline matching
    so entries survive unrelated line drift."""

    def fingerprint(self) -> str:
        """Location-independent identity used by the baseline file."""
        return f"{self.rule}::{self.path}::{self.symbol}::{self.message}"

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: [{self.rule}] {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "symbol": self.symbol,
            "message": self.message,
        }


@dataclass
class Suppressions:
    """Parsed suppression comments of one file."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    file_level: set[str] = field(default_factory=set)

    def is_suppressed(self, finding: Finding) -> bool:
        for rules in (self.file_level, self.by_line.get(finding.line, set())):
            if "all" in rules or finding.rule in rules:
                return True
        return False


def parse_suppressions(lines: list[str]) -> Suppressions:
    """Extract ``# repro-lint: disable`` comments from raw source lines."""
    result = Suppressions()
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = {r.strip() for r in match.group("rules").split(",") if r.strip()}
        if match.group("kind") == "disable-file":
            result.file_level.update(rules)
        else:
            result.by_line.setdefault(lineno, set()).update(rules)
    return result


def module_name_for(path: Path) -> str:
    """Dotted module name used for rule scoping.

    The name is anchored at the nearest ``repro`` package ancestor
    (``.../src/repro/ilp/model.py`` → ``repro.ilp.model``); files outside the
    package (test fixtures) fall back to their bare stem, so fixture tests
    scope rules with single-segment module names.
    """
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def module_in_scope(module: str, prefixes: Iterable[str]) -> bool:
    """Whether ``module`` falls under any dotted ``prefixes``.

    An empty prefix list means *everywhere* — fixture tests use it to point a
    path-scoped rule at arbitrary files.
    """
    prefix_list = list(prefixes)
    if not prefix_list:
        return True
    return any(module == p or module.startswith(p + ".") for p in prefix_list)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path
    rel_path: str
    module: str
    tree: ast.Module
    lines: list[str]
    suppressions: Suppressions
    _scope_map: dict[int, str] | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def parse(cls, path: Path, rel_path: str | None = None) -> "ModuleInfo":
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        return cls(
            path=path,
            rel_path=rel_path if rel_path is not None else path.as_posix(),
            module=module_name_for(path),
            tree=ast.parse(source, filename=str(path)),
            lines=lines,
            suppressions=parse_suppressions(lines),
        )

    def scope_of(self, node: ast.AST) -> str:
        """Dotted enclosing class/function scope of ``node`` (lazy, cached)."""
        if self._scope_map is None:
            self._scope_map = _build_scope_map(self.tree)
        return self._scope_map.get(id(node), "<module>")

    def finding(
        self, rule: str, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=rule,
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            message=message,
            symbol=self.scope_of(node),
        )


def _build_scope_map(tree: ast.Module) -> dict[int, str]:
    """Map ``id(node)`` → dotted enclosing scope for every node in the tree."""
    scopes: dict[int, str] = {}

    def visit(node: ast.AST, scope: str) -> None:
        scopes[id(node)] = scope
        child_scope = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            child_scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
            scopes[id(node)] = child_scope
        for child in ast.iter_child_nodes(node):
            visit(child, child_scope)

    for top in ast.iter_child_nodes(tree):
        visit(top, "<module>")
    return scopes


@dataclass
class ProjectInfo:
    """Every module of one lint run, in deterministic (sorted-path) order."""

    modules: list[ModuleInfo] = field(default_factory=list)


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; ``None`` for anything else."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


class Checker:
    """Base class for one lint rule.

    Subclasses set :attr:`name` / :attr:`description` / :attr:`default_config`
    and are instantiated once per run with the merged per-rule options.
    """

    name: str = ""
    description: str = ""
    #: Per-rule options (documented per checker); merged with any user config.
    default_config: dict[str, object] = {}

    def __init__(self, options: dict[str, object] | None = None) -> None:
        merged = dict(self.default_config)
        if options:
            merged.update(options)
        self.options = merged

    def option(self, key: str) -> object:
        return self.options[key]

    def str_list(self, key: str) -> list[str]:
        value = self.options.get(key, [])
        return [str(v) for v in value] if isinstance(value, (list, tuple)) else []

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield findings for one file (default: none)."""
        return iter(())

    def finalize(self, project: ProjectInfo) -> Iterator[Finding]:
        """Yield cross-module findings after every file was visited."""
        return iter(())


#: Rule name → checker class.  Populated by :func:`register` at import time
#: (``repro.analysis.checkers`` imports every built-in checker module).
REGISTRY: dict[str, type[Checker]] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.name:
        raise ValueError(f"checker {cls.__name__} has no rule name")
    if cls.name in REGISTRY:
        raise ValueError(f"duplicate checker rule name {cls.name!r}")
    REGISTRY[cls.name] = cls
    return cls


def all_checkers() -> dict[str, type[Checker]]:
    """The registry, with the built-in checkers guaranteed to be loaded."""
    # Imported lazily to avoid a cycle (checker modules import this module).
    from repro.analysis import checkers as _builtin  # noqa: F401

    return dict(REGISTRY)
