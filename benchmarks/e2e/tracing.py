"""Spans around the engine's layer boundaries, recorded from outside.

``Tracer.install`` replaces a declared table of public callables with wrappers
that record one span per call; ``uninstall`` puts the originals back.  Class
methods are wrapped on the class, module functions at the site that imported
them (``from x import f`` binds ``f`` in the importer, so that is the name the
caller looks up).  Nothing under ``src/`` knows about any of this.

A span is ``[name, start, end, parent, op, counts]``: ``parent`` is the index
of the span that was open when this one started (-1 for none), ``op`` the id
the benchmark gave the current operation, ``counts`` whatever the target's
``counts`` function read off the public return value.  Spans stay in memory
until ``write_jsonl``.  Self time of a span is its duration minus the duration
of its direct children; with one thread the children never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, OP, COUNTS = range(6)


@dataclass(frozen=True)
class Target:
    span: str
    module: str
    owner: str | None
    attribute: str
    counts: Callable | None = None

    def holder(self):
        """The class or module whose attribute the wrapper replaces."""
        module = importlib.import_module(self.module)
        return module if self.owner is None else getattr(module, self.owner)


def _solve_counts(solution) -> dict:
    stats = solution.stats
    return {"nodes": stats.nodes_explored, "vars_fixed": stats.vars_fixed}


def _recover_counts(database) -> dict:
    return {"records": len(database.wal.records()) if database.wal is not None else 0}


TARGETS = (
    Target("engine.execute", "repro.core.engine", "PackageQueryEngine", "execute"),
    Target("engine.update_table", "repro.core.engine", "PackageQueryEngine", "update_table"),
    Target("partition.build", "repro.core.engine", "PackageQueryEngine", "build_partitioning"),
    Target("paql.parse", "repro.core.engine", None, "parse_paql"),
    Target("paql.validate", "repro.core.engine", None, "validate_query"),
    Target("paql.fingerprint", "repro.core.engine", None, "query_fingerprint"),
    Target("validation.check", "repro.core.engine", None, "check_package"),
    Target("validation.objective", "repro.core.engine", None, "objective_value"),
    Target("cache.lookup", "repro.core.cache", "PackageCache", "lookup"),
    Target("cache.store", "repro.core.cache", "PackageCache", "store"),
    Target("cache.notify", "repro.core.cache", "PackageCache", "notify_update"),
    Target("direct.evaluate", "repro.core.direct", "DirectEvaluator", "evaluate"),
    Target("translator.translate", "repro.core.direct", None, "translate_query"),
    Target("sketchrefine.evaluate", "repro.core.sketchrefine", "SketchRefineEvaluator", "evaluate"),
    Target("exec.task", "repro.core.sketchrefine", None, "run_solve_task"),
    Target("exec.pool_map", "repro.exec.pool", "SolvePool", "map"),
    Target("ilp.solve", "repro.ilp.branch_and_bound", "BranchAndBoundSolver", "solve", _solve_counts),
    Target("ilp.presolve", "repro.ilp.branch_and_bound", None, "presolve_form"),
    Target("ilp.lp", "repro.ilp.branch_and_bound", None, "solve_lp_form"),
    Target("partition.maintain", "repro.partition.maintenance", "PartitionMaintainer", "maintain"),
    Target("dataset.make_delta", "repro.dataset.table", "Table", "make_delta"),
    Target("dataset.apply_delta", "repro.dataset.table", "Table", "apply_delta"),
    Target("db.update_table", "repro.db.catalog", "Database", "update_table"),
    Target("db.checkpoint", "repro.db.catalog", "Database", "checkpoint"),
    Target("db.recover", "repro.db.catalog", "Database", "recover", _recover_counts),
    Target("db.wal_append", "repro.db.wal", "WriteAheadLog", "append"),
    Target("db.wal_fsync", "repro.db.wal", "FileLogStorage", "sync"),
)


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, function: Callable) -> Callable:
        spans, opened, name, counts = self.spans, self._open, target.span, target.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, opened[-1] if opened else -1, self.op, None])
            opened.append(index)
            spans[index][START] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                spans[index][END] = time.perf_counter()
                opened.pop()
            if counts is not None:
                spans[index][COUNTS] = counts(result)
            return result

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for target in TARGETS:
            holder = target.holder()
            original = vars(holder)[target.attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(target, original.__func__))
            else:
                replacement = self._wrap(target, original)
            self._originals.append((holder, target.attribute, original))
            setattr(holder, target.attribute, replacement)

    def uninstall(self) -> None:
        while self._originals:
            holder, attribute, original = self._originals.pop()
            setattr(holder, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index, "name": span[NAME], "start": span[START], "end": span[END],
                    "parent": span[PARENT], "op": span[OP],
                }
                if span[COUNTS]:
                    record["counts"] = span[COUNTS]
                handle.write(json.dumps(record) + "\n")


def installed_targets() -> list[str]:
    """Span names of targets that are wrapped right now (empty when clean)."""
    wrapped = []
    for target in TARGETS:
        current = vars(target.holder())[target.attribute]
        if hasattr(getattr(current, "__func__", current), "__wrapped__"):
            wrapped.append(target.span)
    return wrapped


class SpanSummary:
    """Totals, in milliseconds, over ``spans[first:last]``."""

    def __init__(self, spans: list[list], first: int, last: int) -> None:
        self.total_ms: dict[str, float] = defaultdict(float)
        self.self_ms: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Time of spans named ``a`` whose direct parent is named ``b``.
        self.under_ms: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        for index in range(first, last):
            name, start, end, parent, _, counts = spans[index]
            duration = (end - start) * 1000.0
            self.total_ms[name] += duration
            self.self_ms[name] += duration
            self.calls[name] += 1
            if parent >= first:
                parent_name = spans[parent][NAME]
                self.self_ms[parent_name] -= duration
                self.under_ms[(name, parent_name)] += duration
            for key, value in (counts or {}).items():
                self.counts[(name, key)] += value
