"""Core object model of the repro-lint static-analysis framework.

The framework walks Python ASTs and reports :class:`Finding`\\ s — violations
of the repo's *reproducibility invariants* (determinism, tolerance
discipline, ...).  The moving parts:

* :class:`ModuleInfo` — one parsed source file (AST + raw lines + the dotted
  module name used for scoping rules to subtrees of the package).
* :class:`ProjectInfo` — every module of one lint run, for checkers that need
  a whole-project view (e.g. stats-drift matches attribute *writes* in one
  module against field *declarations* in another).
* :class:`Checker` — base class; subclasses register themselves under a rule
  name via :func:`register` and implement :meth:`check_module` (per file)
  and/or :meth:`finalize` (once, after every module was visited).
* suppressions — ``# repro-lint: disable=<rule>[,<rule>...] (<reason>)`` on
  the offending line silences that line for the listed rules.  It is the only
  exemption there is, and the parenthesised reason is required: a
  suppression without one is reported as a finding of its own.

Line-level suppression matches the *reported* line of the finding (the AST
node's ``lineno``), so for a multi-line statement the comment goes on the
first line.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: Suppression comment grammar: ``# repro-lint: disable=a,b (reason)``.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable\s*=\s*(?P<rules>[A-Za-z0-9_,\-\s]+)"
    r"(?:\((?P<reason>[^)]*)\))?"
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

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: [{self.rule}] {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }


@dataclass
class Suppressions:
    """Parsed suppression comments of one file."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    unjustified: list[int] = field(default_factory=list)
    """Lines whose suppression gives no parenthesised reason."""

    def is_suppressed(self, finding: Finding) -> bool:
        return finding.rule in self.by_line.get(finding.line, set())


def parse_suppressions(lines: list[str]) -> Suppressions:
    """Extract ``# repro-lint: disable`` comments from source lines.

    Only comment tokens are read: the same text quoted in a string or a
    docstring neither suppresses nor counts as an unjustified suppression.
    """
    result = Suppressions()
    readline = io.StringIO("".join(line + "\n" for line in lines)).readline
    for token in tokenize.generate_tokens(readline):
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        lineno = token.start[0]
        rules = {r.strip() for r in match.group("rules").split(",") if r.strip()}
        result.by_line.setdefault(lineno, set()).update(rules)
        if not (match.group("reason") or "").strip():
            result.unjustified.append(lineno)
    return result


def module_name_for(path: Path) -> str:
    """Dotted module name used for rule scoping.

    The name is anchored at the nearest ``repro`` package ancestor, the last
    ``repro`` directory on the path (``.../repro/src/repro/ilp/model.py`` →
    ``repro.ilp.model``, whatever the checkout is called); files outside the
    package (test fixtures) fall back to their bare stem, so fixture tests
    scope rules with single-segment module names.
    """
    parts = list(path.with_suffix("").parts)
    anchors = [i for i, part in enumerate(parts[:-1]) if part == "repro"]
    parts = parts[anchors[-1]:] if anchors else parts[-1:]
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

    def finding(
        self, rule: str, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=rule,
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            message=message,
        )


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
    #: Per-rule options (documented per checker); merged with the run's options.
    default_config: dict[str, object] = {}

    def __init__(self, options: dict[str, object] | None = None) -> None:
        merged = dict(self.default_config)
        if options:
            merged.update(options)
        self.options = merged

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
