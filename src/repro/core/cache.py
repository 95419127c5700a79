"""Delta-aware caching of package-query results.

Package queries are expensive to answer but, on an update-heavy workload,
most deltas leave most cached answers untouched.  :class:`PackageCache`
exploits that: it remembers, per *canonical query fingerprint* (see
:mod:`repro.paql.fingerprint`) and table, the package an evaluator produced,
and invalidates it no more aggressively than the update stream requires:

* **DIRECT / NAIVE entries** are exact optima over the whole relation, so any
  version bump invalidates them (one new tuple can change the optimum).
* **SKETCHREFINE entries** are approximate answers whose quality story is
  per-group.  The update stream reports, through
  :class:`~repro.partition.maintenance.MaintenanceStats`, exactly which
  groups each delta touched.  A cached package whose tuples all live in
  *untouched* groups survives: its rows are remapped through the delta and
  the entry is marked for **revalidation** — a cheap
  :func:`~repro.core.validation.check_package` feasibility + objective
  re-check at the next lookup — instead of a re-solve.  If the gid space was
  renumbered (groups retired, re-split or rebuilt), the entry is dropped
  conservatively; registering a new partitioning under the entry's label
  drops it too (:meth:`PackageCache.invalidate_partitioning`).

Update notifications are **deferred**: :meth:`notify_update` keeps, per
table, each :class:`~repro.dataset.table.TableDelta`'s sorted deleted row
indices and unions the touched-group sets, so an update costs O(delta) no
matter how large the table, and the entries are remapped only at the next
lookup — a few rows each, one ``searchsorted`` per pending delta.

The cache is data-structure-only: it never solves anything.  The engine
decides when to consult it (``execute(..., cache="use"|"bypass"|"refresh")``)
and the catalog feeds it deltas (:meth:`repro.db.catalog.Database
.register_cache`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.package import Package
from repro.core.validation import check_package, objective_value
from repro.dataset.table import Table, TableDelta
from repro.errors import CacheError, EvaluationError
from repro.paql.ast import PackageQuery
from repro.partition.partitioning import Partitioning

#: Cache interaction modes accepted by ``PackageQueryEngine.execute``.
CACHE_MODES = ("use", "bypass", "refresh")


@dataclass
class CacheStats:
    """Cumulative effectiveness counters for one :class:`PackageCache`."""

    hits: int = 0
    """Lookups answered from an entry that needed no re-check."""
    revalidations: int = 0
    """Lookups answered from an entry after a cheap feasibility/objective
    re-check (the delta-missed-my-groups path)."""
    misses: int = 0
    """Lookups that found no usable entry."""
    stores: int = 0
    """Entries written after a solve."""
    invalidations: int = 0
    """Entries dropped by updates, rebuilt partitionings or failed revalidation."""
    evictions: int = 0
    """Entries dropped by the capacity bound (LRU)."""
    saved_solve_seconds: float = 0.0
    """Sum of the recorded solve times of every hit/revalidated lookup — the
    wall time the cache spared the solver."""

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "revalidations": self.revalidations,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "saved_solve_seconds": self.saved_solve_seconds,
        }


@dataclass
class CacheEntry:
    """One cached package-query answer."""

    fingerprint: str
    table_name: str
    method: str
    partitioning_label: str | None
    table_version: int
    partitioning_version: int | None
    multiplicities: dict[int, int]
    groups: frozenset
    """Gids (current partitioning gid space) holding the package's tuples —
    empty for DIRECT/NAIVE entries, which do not reason per group."""
    objective: float
    feasible: bool
    solve_seconds: float
    """What producing this answer cost, credited to ``saved_solve_seconds``
    every time the entry spares a re-solve."""
    needs_revalidation: bool = False


@dataclass
class CacheLookup:
    """Outcome of one :meth:`PackageCache.lookup`."""

    status: str
    """``"hit"``, ``"revalidated"`` or ``"miss"``."""
    package: Package | None = None
    objective: float = float("nan")
    feasible: bool = False
    saved_solve_seconds: float = 0.0
    method: str | None = None
    """The method of the entry that answered (``None`` on a miss)."""

    @property
    def found(self) -> bool:
        return self.status in ("hit", "revalidated")


@dataclass
class _PendingUpdates:
    """Not-yet-applied update stream for one table: version and row count
    before the first and after the last pending delta, and each delta's
    deleted row indices (ascending)."""

    base_version: int
    base_rows: int
    version: int
    num_rows: int
    deletions: list = field(default_factory=list)
    touched: dict = field(default_factory=dict)
    """Per partitioning label: union of touched gids since the last flush
    (valid while the label's gid space is stable over the window)."""
    dropped_labels: set = field(default_factory=set)
    """Labels whose entries cannot survive the window (gid space renumbered)."""

    def remap(self, rows) -> list[int] | None:
        """``rows`` (at :attr:`base_version`) as row indices at
        :attr:`version`, or ``None`` when one of them was deleted or lies
        outside the base table.  Each delta shifts a surviving row down by
        the number of rows it deleted below it."""
        remapped = np.array(rows, dtype=np.int64)
        if len(remapped) and (remapped.min() < 0 or remapped.max() >= self.base_rows):
            return None
        for deleted in self.deletions:
            if len(deleted):
                shift = np.searchsorted(deleted, remapped)
                if (deleted[np.minimum(shift, len(deleted) - 1)] == remapped).any():
                    return None
                remapped -= shift
        return remapped.tolist()


class PackageCache:
    """Query-result cache keyed on (fingerprint, table, method, partitioning).

    Args:
        max_entries: Capacity bound; least-recently-used entries are evicted
            beyond it.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise CacheError("max_entries must be at least 1")
        self.max_entries = int(max_entries)
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self._pending: dict[str, _PendingUpdates] = {}

    # -- bookkeeping --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and all pending update state (counters persist)."""
        self.stats.invalidations += len(self._entries)
        self._entries.clear()
        self._pending.clear()

    def invalidate_table(self, table_name: str) -> None:
        """Drop every entry for ``table_name`` (e.g. table replaced/dropped)."""
        keys = [k for k, e in self._entries.items() if e.table_name == table_name]
        for key in keys:
            del self._entries[key]
        self.stats.invalidations += len(keys)
        self._pending.pop(table_name, None)

    def invalidate_partitioning(self, table_name: str, label: str) -> None:
        """Drop the SKETCHREFINE entries solved over ``table_name``'s
        partitioning ``label`` (it was rebuilt or replaced: their groups name
        gids of a gid space that is gone).  Other entries stay."""
        keys = [
            k
            for k, e in self._entries.items()
            if e.table_name == table_name
            and e.method == "sketchrefine"
            and e.partitioning_label == label
        ]
        for key in keys:
            del self._entries[key]
        self.stats.invalidations += len(keys)

    def stats_snapshot(self) -> dict:
        """The counters as a plain dict (for ``EvaluationResult.details``)."""
        return self.stats.as_dict()

    def entries_snapshot(self) -> list[dict]:
        """A comparable summary of every entry (LRU order, oldest first).

        Used by the crash-recovery and differential suites to assert cache
        *contents* — not just hit/miss counters — across scenarios: two
        caches that went through equivalent histories must summarise
        identically, and an entry surviving a recovery with the wrong
        version anchor shows up here immediately.
        """
        return [
            {
                "fingerprint": entry.fingerprint,
                "table_name": entry.table_name,
                "method": entry.method,
                "partitioning_label": entry.partitioning_label,
                "table_version": entry.table_version,
                "partitioning_version": entry.partitioning_version,
                "multiplicities": dict(entry.multiplicities),
                "groups": entry.groups,
                "objective": entry.objective,
                "feasible": entry.feasible,
                "needs_revalidation": entry.needs_revalidation,
            }
            for entry in self._entries.values()
        ]

    @staticmethod
    def _key(
        fingerprint: str, table_name: str, method: str, label: str | None
    ) -> tuple:
        return (fingerprint, table_name, method, label or "")

    # -- update notifications ------------------------------------------------------------

    def notify_update(
        self,
        table_name: str,
        delta: TableDelta,
        maintained: Mapping[str, object] | None = None,
    ) -> None:
        """Absorb one committed table update into the pending state.

        ``maintained`` maps partitioning labels to their
        :class:`~repro.partition.maintenance.MaintenanceStats`.  This is O(delta),
        independent of how many rows the table and how many entries the
        cache holds — entries are only walked when the table is next looked
        up (:meth:`_flush`).
        """
        if not self._has_entries(table_name):
            # Nothing cached for this table: a later store anchors afresh at
            # the then-current version, so don't accumulate deltas.
            self._pending.pop(table_name, None)
            return
        num_rows = len(delta.deleted_mask)
        state = self._pending.get(table_name)
        if state is None:
            state = self._pending[table_name] = _PendingUpdates(
                delta.base_version, num_rows, delta.base_version, num_rows
            )
        elif (delta.base_version, num_rows) != (state.version, state.num_rows):
            # The stream skipped versions (table replaced out-of-band);
            # nothing cached can be trusted to remap.
            self.invalidate_table(table_name)
            return
        deleted = delta.deleted_rows()
        state.deletions.append(deleted)
        state.version = delta.new_version
        state.num_rows = num_rows - len(deleted) + delta.num_inserted
        for label, label_stats in (maintained or {}).items():
            if getattr(label_stats, "groups_renumbered", True):
                state.dropped_labels.add(label)
            elif label not in state.dropped_labels:
                state.touched.setdefault(label, set()).update(
                    getattr(label_stats, "touched_groups", frozenset())
                )

    def _has_entries(self, table_name: str) -> bool:
        return any(e.table_name == table_name for e in self._entries.values())

    def _flush(self, table_name: str) -> None:
        """Apply the pending deltas to every entry of ``table_name``.

        DIRECT/NAIVE entries are dropped (any version bump changes the ground
        truth they claim to be optimal over).  A SKETCHREFINE entry survives
        iff its partitioning kept a stable gid space *and* no pending delta
        touched any of the groups its tuples live in; it is then remapped to
        the new row space and marked for revalidation.
        """
        state = self._pending.pop(table_name, None)
        if state is None:
            return
        for key in [k for k, e in self._entries.items() if e.table_name == table_name]:
            entry = self._entries[key]
            survives = (
                entry.method == "sketchrefine"
                and entry.table_version == state.base_version
                and entry.partitioning_label not in state.dropped_labels
                and not (entry.groups & state.touched.get(entry.partitioning_label, set()))
            )
            if survives:
                rows = state.remap(list(entry.multiplicities))
                # Untouched groups lose no rows, so ``rows`` is never None
                # here unless the entry's rows were out of range.
                if rows is not None:
                    entry.multiplicities = dict(zip(rows, entry.multiplicities.values()))
                    entry.table_version = state.version
                    entry.partitioning_version = state.version
                    entry.needs_revalidation = True
                    continue
            del self._entries[key]
            self.stats.invalidations += 1

    # -- lookup / store ---------------------------------------------------------------------

    def lookup(
        self,
        query: PackageQuery,
        fingerprint: str,
        table: Table,
        table_name: str,
        method: str,
        partitioning: Partitioning | None = None,
        partitioning_label: str | None = None,
        fallback_method: str | None = None,
    ) -> CacheLookup:
        """Try to answer ``query`` over the current ``table`` from the cache.

        Pending deltas for the table are applied first.  An entry
        marked for revalidation is re-checked against the query semantics
        (:func:`check_package`) before being served; failing the check drops
        it and reports a miss — a stale answer is never returned.  When no
        entry is stored under ``method``, one stored under ``fallback_method``
        (without a partitioning) may answer; the lookup still counts once.
        """
        self._flush(table_name)
        key = self._key(fingerprint, table_name, method, partitioning_label)
        entry = self._entries.get(key)
        if entry is None and fallback_method is not None:
            method, key = fallback_method, self._key(fingerprint, table_name, fallback_method, None)
            entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return CacheLookup(status="miss")
        if entry.table_version != table.version or (
            method == "sketchrefine"
            and (partitioning is None or partitioning.version != entry.partitioning_version)
        ):
            # The world moved without a notification we could track.
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return CacheLookup(status="miss")
        try:
            package = Package.from_multiplicity_map(table, entry.multiplicities)
        except EvaluationError:  # pragma: no cover - row-range guard
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return CacheLookup(status="miss")
        if entry.needs_revalidation:
            report = check_package(package, query)
            if not report.feasible:
                del self._entries[key]
                self.stats.invalidations += 1
                self.stats.misses += 1
                return CacheLookup(status="miss")
            entry.objective = objective_value(package, query)
            entry.feasible = True
            entry.needs_revalidation = False
            self._entries.move_to_end(key)
            self.stats.revalidations += 1
            self.stats.saved_solve_seconds += entry.solve_seconds
            return CacheLookup(
                status="revalidated",
                package=package,
                objective=entry.objective,
                feasible=True,
                saved_solve_seconds=entry.solve_seconds,
                method=method,
            )
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self.stats.saved_solve_seconds += entry.solve_seconds
        return CacheLookup(
            status="hit",
            package=package,
            objective=entry.objective,
            feasible=entry.feasible,
            saved_solve_seconds=entry.solve_seconds,
            method=method,
        )

    def store(
        self,
        query: PackageQuery,
        fingerprint: str,
        table: Table,
        table_name: str,
        method: str,
        package: Package,
        objective: float,
        feasible: bool,
        solve_seconds: float,
        partitioning: Partitioning | None = None,
        partitioning_label: str | None = None,
    ) -> CacheEntry:
        """Record a freshly solved answer (overwriting any previous entry)."""
        self._flush(table_name)
        groups: frozenset = frozenset()
        partitioning_version: int | None = None
        if method == "sketchrefine":
            if partitioning is None:
                raise CacheError(
                    "caching a SKETCHREFINE answer requires its partitioning"
                )
            groups = frozenset(partitioning.group_ids[package.indices].tolist())
            partitioning_version = partitioning.version
        key = self._key(fingerprint, table_name, method, partitioning_label)
        entry = CacheEntry(
            fingerprint=fingerprint,
            table_name=table_name,
            method=method,
            partitioning_label=partitioning_label if method == "sketchrefine" else None,
            table_version=table.version,
            partitioning_version=partitioning_version,
            multiplicities=package.as_multiplicity_map(),
            groups=groups,
            objective=float(objective),
            feasible=bool(feasible),
            solve_seconds=float(solve_seconds),
        )
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self.stats.stores += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return entry
