"""stats-drift — stats dataclasses and the code writing them must agree.

The engine's observability rests on its stats dataclasses (``SolveStats``,
``SketchRefineStats``, ``CacheStats``, ...).  Two failure modes drift in
silently:

* code assigns ``stats.some_field = ...`` for a field the class never
  declared — Python happily creates it, benchmarks/JSON reports silently
  miss it, and ``as_dict()``-style exports drop it;
* a field is declared (and documented) on the class but nothing ever writes
  it, so dashboards read a default forever.

This is a *project-wide* rule: declarations are collected from every linted
module (classes whose names match ``stats_class_patterns``), writes are
attribute stores whose receiver *looks like* a stats object
(``stats.x = ...``, ``self.last_stats.x += ...``) plus constructor keyword /
positional arguments of a stats class.  Both directions are reported in
:meth:`finalize` once the whole project was visited.

Options:
    stats_class_patterns: fnmatch patterns naming stats classes.
    receiver_patterns: fnmatch patterns over the receiver's terminal name.
    never_written_ok: fields exempt from the declared-but-never-written rule
        (``Class.field`` form) — e.g. fields only external callers populate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Iterator

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleInfo,
    ProjectInfo,
    register,
)


@dataclass
class _StatsClass:
    name: str
    module: ModuleInfo
    node: ast.ClassDef
    fields: list[str] = field(default_factory=list)
    field_nodes: dict[str, ast.AST] = field(default_factory=dict)


@dataclass
class _Write:
    attr: str
    module: ModuleInfo
    node: ast.AST


@register
class StatsDriftChecker(Checker):
    name = "stats-drift"
    description = (
        "attributes written on stats objects must be declared on a stats "
        "class, and declared fields must be written somewhere"
    )
    default_config: dict[str, object] = {
        "stats_class_patterns": ["*Stats"],
        "receiver_patterns": ["stats", "*_stats"],
        # Refine solves run in-process and there is no presolve, so these
        # read their defaults (1, 0 and 0) forever; benchmarks/e2e/run.py
        # still reports the first two and its tracer reads the third.  They
        # go when the trace moves into the engine (ROADMAP item 4).
        "never_written_ok": [
            "SketchRefineStats.refine_workers",
            "SketchRefineStats.refine_parallel_tasks",
            "SolveStats.vars_fixed",
        ],
    }

    def __init__(self, options: dict[str, object] | None = None) -> None:
        super().__init__(options)
        self._classes: list[_StatsClass] = []
        self._writes: list[_Write] = []
        self._constructed: set[str] = set()

    # -- per-module collection ---------------------------------------------------

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        class_patterns = self.str_list("stats_class_patterns")
        receiver_patterns = self.str_list("receiver_patterns")
        known_names = {c.name for c in self._classes}

        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and any(
                fnmatch(node.name, p) for p in class_patterns
            ):
                self._collect_class(module, node)
                known_names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Attribute) and self._receiver_matches(
                        target.value, receiver_patterns
                    ):
                        self._writes.append(_Write(target.attr, module, target))
            elif isinstance(node, ast.Call):
                callee = node.func
                callee_name = (
                    callee.id
                    if isinstance(callee, ast.Name)
                    else callee.attr if isinstance(callee, ast.Attribute) else None
                )
                if callee_name is not None and any(
                    fnmatch(callee_name, p) for p in class_patterns
                ):
                    for kw in node.keywords:
                        if kw.arg is not None:
                            self._constructed.add(f"{callee_name}.{kw.arg}")
                    for position, _ in enumerate(node.args):
                        self._constructed.add(f"{callee_name}[{position}]")
        return iter(())

    def _collect_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        cls = _StatsClass(name=node.name, module=module, node=node)
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                cls.fields.append(stmt.target.id)
                cls.field_nodes[stmt.target.id] = stmt
        self._classes.append(cls)

    @staticmethod
    def _receiver_matches(receiver: ast.AST, patterns: list[str]) -> bool:
        terminal: str | None = None
        if isinstance(receiver, ast.Name):
            terminal = receiver.id
        elif isinstance(receiver, ast.Attribute):
            terminal = receiver.attr
        if terminal is None:
            return False
        return any(fnmatch(terminal, p) for p in patterns)

    # -- project-wide reconciliation ---------------------------------------------

    def finalize(self, project: ProjectInfo) -> Iterator[Finding]:
        declared: set[str] = set()
        for cls in self._classes:
            declared.update(cls.fields)

        # Writes to fields no stats class declares.
        if self._classes:  # without declarations there is nothing to check
            for write in self._writes:
                if write.attr not in declared:
                    yield write.module.finding(
                        self.name,
                        write.node,
                        f"stats attribute {write.attr!r} is assigned but "
                        f"declared on no stats class — declare it (with a "
                        f"docstring) or rename the write",
                    )

        # Declared fields nothing ever writes.
        written = {w.attr for w in self._writes}
        exempt = set(self.str_list("never_written_ok"))
        for cls in self._classes:
            for position, name in enumerate(cls.fields):
                if name in written:
                    continue
                if f"{cls.name}.{name}" in self._constructed:
                    continue
                if f"{cls.name}[{position}]" in self._constructed:
                    continue
                if f"{cls.name}.{name}" in exempt:
                    continue
                yield cls.module.finding(
                    self.name,
                    cls.field_nodes[name],
                    f"{cls.name}.{name} is declared but never assigned "
                    f"anywhere — dead telemetry reads its default forever; "
                    f"wire it up or remove the field",
                )
