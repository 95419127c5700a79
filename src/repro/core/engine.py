"""The user-facing package-query engine facade.

:class:`PackageQueryEngine` ties everything together the way the paper's
prototype sits on top of PostgreSQL + CPLEX:

* tables live in a :class:`~repro.db.catalog.Database` catalog,
* offline partitionings are built once per table and registered in the catalog,
* the base relations are *dynamic*: :meth:`PackageQueryEngine.update_table`
  absorbs inserts/deletes as one versioned
  :class:`~repro.dataset.table.TableDelta`, and every registered partitioning
  is either maintained through the delta incrementally (the default
  ``"maintain"`` policy — τ/ω guarantees preserved, no full re-partition) or
  left stale (``"stale"`` policy) until rebuilt; AUTO refuses stale
  partitionings and falls back to DIRECT, while an explicit SKETCHREFINE
  request over a stale partitioning raises
  :class:`~repro.errors.StalePartitioningError`,
* queries arrive either as PaQL text or as :class:`~repro.paql.ast.PackageQuery`
  objects built with the fluent builder,
* evaluation picks DIRECT, SKETCHREFINE or the naïve baseline, and the result
  is returned with timing, feasibility and objective metadata,
* repeated traffic is served from a delta-aware
  :class:`~repro.core.cache.PackageCache`: answers are keyed on a canonical
  query fingerprint, DIRECT/NAIVE entries invalidate on any table version
  bump, and a SKETCHREFINE package whose groups an update burst missed is
  revalidated with a cheap feasibility check instead of re-solved
  (``execute(..., cache="use"|"bypass"|"refresh")``).

Example::

    engine = PackageQueryEngine()
    engine.register_table(recipes)
    engine.build_partitioning("recipes", ["kcal", "saturated_fat"], size_threshold=50)
    result = engine.execute(PAQL_TEXT, method="sketchrefine")
    print(result.package.materialize())

    # The data plane stays live: updates flow in, partitionings follow.
    engine.update_table("recipes", insert=new_recipes)      # version + 1
    engine.update_table("recipes", delete=stale_row_ids)    # version + 2
    result = engine.execute(PAQL_TEXT, method="sketchrefine")  # still valid
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.cache import CACHE_MODES, PackageCache
from repro.core.direct import DirectEvaluator
from repro.core.naive import NaiveSelfJoinEvaluator
from repro.core.package import Package
from repro.core.sketchrefine import SketchRefineConfig, SketchRefineEvaluator
from repro.core.validation import check_package, objective_value
from repro.dataset.table import Table, TableDelta
from repro.db.catalog import MAINTENANCE_POLICIES, Database, TableUpdateResult
from repro.db.snapshot import SnapshotHandle
from repro.errors import CatalogError, EvaluationError, SnapshotError, StalePartitioningError
from repro.paql.ast import PackageQuery
from repro.paql.fingerprint import query_fingerprint
from repro.paql.parser import parse_paql
from repro.paql.validator import validate_query
from repro.partition.maintenance import is_known_method, make_partitioner
from repro.partition.partitioning import Partitioning


class EvaluationMethod(enum.Enum):
    """Which evaluation strategy to use."""

    AUTO = "auto"
    DIRECT = "direct"
    SKETCH_REFINE = "sketchrefine"
    NAIVE = "naive"


@dataclass
class EvaluationResult:
    """Outcome of evaluating one package query."""

    package: Package
    query: PackageQuery
    method: EvaluationMethod
    objective: float
    wall_seconds: float
    feasible: bool
    details: dict = field(default_factory=dict)

    def materialize(self, name: str = "package") -> Table:
        """Materialise the answer package as a relational table."""
        return self.package.materialize(name)


class PackageQueryEngine:
    """Facade over the catalog, the PaQL front-end and the evaluators.

    Args:
        database: Catalog to use (default: a fresh empty one).
        solver: Black-box ILP solver shared by the evaluators.
        sketchrefine_config: Tuning knobs for SKETCHREFINE.
        auto_direct_threshold: SKETCHREFINE needs a partitioning; at or below
            this many tuples AUTO uses DIRECT regardless, because the whole
            problem comfortably fits the solver.
        cache: Result cache consulted by :meth:`execute` (default: a fresh
            :class:`~repro.core.cache.PackageCache`).  It is registered with
            the catalog so every :meth:`update_table` feeds it the delta and
            its touched-group sets for delta-aware invalidation.
    """

    def __init__(
        self,
        database: Database | None = None,
        solver=None,
        sketchrefine_config: SketchRefineConfig | None = None,
        auto_direct_threshold: int = 2_000,
        cache: PackageCache | None = None,
    ):
        # `database or ...` would discard a passed-in *empty* catalog
        # (Database.__len__ makes it falsy) along with its configuration.
        self.database = database if database is not None else Database()
        self.auto_direct_threshold = int(auto_direct_threshold)
        self.cache = cache if cache is not None else PackageCache()
        self.database.register_cache(self.cache)
        self._solver = solver
        self._direct = DirectEvaluator(solver=solver)
        self._sketchrefine = SketchRefineEvaluator(solver=solver, config=sketchrefine_config)
        self._naive = NaiveSelfJoinEvaluator()

    # -- catalog management ---------------------------------------------------------------

    def register_table(self, table: Table, name: str | None = None, replace: bool = False) -> Table:
        """Add a table to the engine's catalog."""
        return self.database.create_table(table, name=name, replace=replace)

    def table(self, name: str) -> Table:
        """Fetch a table from the catalog."""
        return self.database.table(name)

    def build_partitioning(
        self,
        table_name: str,
        attributes: list[str],
        size_threshold: int,
        radius_limit: float | None = None,
        method: str = "quadtree",
        label: str = "default",
    ) -> Partitioning:
        """Build and register an offline partitioning for ``table_name``.

        Args:
            table_name: Catalog name of the table to partition.
            attributes: Numeric partitioning attributes (ideally a superset of
                the workload's query attributes, per Section 5.2.3).
            size_threshold: τ — the per-group size cap.
            radius_limit: ω — optional per-group radius cap (Equation 1).
            method: ``"quadtree"`` (the paper's method), ``"kdtree"`` or
                ``"kmeans"``.
            label: Name under which the partitioning is registered, so several
                partitionings of the same table can coexist.
        """
        table = self.database.table(table_name)
        if not is_known_method(method):
            raise EvaluationError(f"unknown partitioning method {method!r}")
        # Invalid parameters (e.g. size_threshold < 1) propagate as the
        # partitioner constructors' own PartitioningError.
        partitioner = make_partitioner(method, size_threshold, radius_limit)
        partitioning = partitioner.partition(table, attributes)
        self.database.register_partitioning(table_name, partitioning, label=label)
        return partitioning

    def register_partitioning(
        self, table_name: str, partitioning: Partitioning, label: str = "default"
    ) -> None:
        """Register a partitioning built elsewhere (e.g. loaded from disk)."""
        self.database.register_partitioning(table_name, partitioning, label=label)

    def update_table(
        self,
        table_name: str,
        delta: TableDelta | None = None,
        *,
        insert: Table | Iterable[Sequence | Mapping[str, object]] | None = None,
        delete: np.ndarray | Sequence[int] | None = None,
        policy: str | None = None,
    ) -> TableUpdateResult:
        """Absorb inserts/deletes into a registered table as one version bump.

        Either pass a pre-built :class:`TableDelta`, or describe the change
        with ``insert`` (a table or iterable of rows to append) and/or
        ``delete`` (a boolean mask over the current rows, or row indices);
        both applied together still count as a single new version.

        Every partitioning registered for the table follows the
        ``policy`` — ``"maintain"`` carries it through the delta
        incrementally with its τ/ω guarantees intact, ``"stale"`` leaves it
        at the old version, where AUTO refuses it until it is rebuilt, and
        ``None`` defers to the catalog's ``maintenance_policy`` (which is
        ``"maintain"`` for a default-constructed :class:`Database`).
        Returns the catalog's :class:`TableUpdateResult` with the new table
        and the per-label maintenance statistics.  The engine's result cache
        is notified with the delta and each partitioning's touched-group set,
        so cached answers are invalidated no more than the change requires.
        """
        if delta is not None and (insert is not None or delete is not None):
            raise EvaluationError("pass either a delta or insert/delete rows, not both")
        if policy is not None and policy not in MAINTENANCE_POLICIES:
            raise EvaluationError(
                f"unknown maintenance policy {policy!r} "
                f"(expected one of {MAINTENANCE_POLICIES})"
            )
        if delta is None:
            if insert is None and delete is None:
                raise EvaluationError("update_table needs a delta, insert rows or delete rows")
            table = self.database.table(table_name)
            delta = table.make_delta(insert=insert, delete=delete)
        return self.database.update_table(table_name, delta, policy=policy)

    # -- snapshot reads -------------------------------------------------------------------

    def snapshot(self, names: Iterable[str] | None = None) -> SnapshotHandle:
        """Pin a consistent read view of the catalog's current committed state.

        Queries executed with ``execute(..., snapshot=handle)`` keep seeing
        exactly this moment's ``(table version, partitioning version)`` pairs
        while :meth:`update_table` commits new versions underneath.  Release
        the handle (or use it as a context manager) when done; pinned
        versions are retained until then.
        """
        return self.database.snapshot(names)

    # -- query execution -----------------------------------------------------------------------

    def parse(self, text: str) -> PackageQuery:
        """Parse PaQL text (without validating it against a table)."""
        return parse_paql(text)

    def execute(
        self,
        query: str | PackageQuery,
        method: EvaluationMethod | str = EvaluationMethod.AUTO,
        partitioning_label: str = "default",
        cache: str = "use",
        snapshot: SnapshotHandle | None = None,
    ) -> EvaluationResult:
        """Evaluate a package query and return the answer package with metadata.

        Args:
            query: PaQL text or an already-built :class:`PackageQuery`.
            method: Evaluation strategy; AUTO picks SKETCHREFINE when a
                partitioning is registered and the table is large, otherwise
                DIRECT.
            partitioning_label: Which registered partitioning SKETCHREFINE uses.
            cache: How to interact with the result cache.  ``"use"`` (default)
                answers from a cached entry when the canonical query
                fingerprint, table version and (for SKETCHREFINE) partitioning
                state still match — entries whose groups every update since
                they were stored missed are *revalidated* with a cheap
                feasibility check instead of re-solved — and stores the
                answer on a miss.
                ``"bypass"`` never reads or writes the cache; ``"refresh"``
                re-solves unconditionally and overwrites the entry.
                ``details["cache"]`` reports the per-call status
                (hit/revalidated/miss/bypass), the fingerprint, the solve
                seconds this call spared (0 unless it was served from the
                cache), and — under ``"totals"`` — the cache's cumulative
                counters.
            snapshot: Execute against this pinned
                :class:`~repro.db.snapshot.SnapshotHandle` instead of the
                catalog's current state: the query sees exactly the
                ``(table version, partitioning version)`` pair the snapshot
                pinned, no matter how many updates committed since.  The
                result cache is bypassed (its entries are keyed on *current*
                versions; answering an old view from it, or polluting it
                with one, would both be stale-serving bugs) — see
                ``details["cache"]["reason"]``.
        """
        if isinstance(query, str):
            query = parse_paql(query)
        if isinstance(method, str):
            method = EvaluationMethod(method)
        if cache not in CACHE_MODES:
            raise EvaluationError(
                f"unknown cache mode {cache!r} (expected one of {CACHE_MODES})"
            )
        if snapshot is not None:
            if snapshot.released:
                raise SnapshotError(
                    "cannot execute against a released snapshot; acquire a new one"
                )
            cache = "bypass"

        table = (
            snapshot.table(query.relation)
            if snapshot is not None
            else self.database.table(query.relation)
        )
        validate_query(query, table.schema)
        method, auto_note = self._resolve_method(
            method, query, partitioning_label, snapshot
        )
        # Staleness is an error even when a cached answer exists: serving it
        # would silently mask the stale partitioning the caller asked about.
        partitioning = (
            self._partitioning_for(query, partitioning_label, snapshot)
            if method is EvaluationMethod.SKETCH_REFINE
            else None
        )

        details: dict = {}
        if auto_note is not None:
            details["auto"] = auto_note
        if snapshot is not None:
            details["snapshot"] = {
                "id": snapshot.snapshot_id,
                "table_version": table.version,
            }

        fingerprint = query_fingerprint(query) if cache != "bypass" else None
        label = partitioning_label if method is EvaluationMethod.SKETCH_REFINE else None
        if cache == "use":
            start = time.perf_counter()
            found = self.cache.lookup(
                query,
                fingerprint,
                table,
                query.relation,
                method.value,
                partitioning=partitioning,
                partitioning_label=label,
            )
            if found.found:
                details["cache"] = {
                    "status": found.status,
                    "fingerprint": fingerprint,
                    "saved_solve_seconds": found.saved_solve_seconds,
                    "totals": self.cache.stats_snapshot(),
                }
                wall_seconds = time.perf_counter() - start
                details["timing"] = {"total_ms": wall_seconds * 1000.0}
                return EvaluationResult(
                    package=found.package,
                    query=query,
                    method=method,
                    objective=found.objective,
                    wall_seconds=wall_seconds,
                    feasible=found.feasible,
                    details=details,
                )

        start = time.perf_counter()
        if method is EvaluationMethod.DIRECT:
            package = self._direct.evaluate(table, query)
            details["direct_stats"] = self._direct.last_stats
        elif method is EvaluationMethod.SKETCH_REFINE:
            package = self._sketchrefine.evaluate(table, query, partitioning)
            details["sketchrefine_stats"] = self._sketchrefine.last_stats
        elif method is EvaluationMethod.NAIVE:
            package = self._naive.evaluate(table, query)
            details["naive_stats"] = self._naive.last_stats
        else:  # pragma: no cover - AUTO is resolved above
            raise EvaluationError(f"unresolved evaluation method {method}")
        wall_seconds = time.perf_counter() - start
        details["timing"] = {"total_ms": wall_seconds * 1000.0}

        report = check_package(package, query)
        objective = objective_value(package, query)
        if cache != "bypass":
            self.cache.store(
                query,
                fingerprint,
                table,
                query.relation,
                method.value,
                package,
                objective,
                report.feasible,
                wall_seconds,
                partitioning=partitioning,
                partitioning_label=label,
            )
            details["cache"] = {
                "status": "miss" if cache == "use" else "refresh",
                "fingerprint": fingerprint,
                "saved_solve_seconds": 0.0,
                "totals": self.cache.stats_snapshot(),
            }
        else:
            details["cache"] = {"status": "bypass"}
            if snapshot is not None:
                details["cache"]["reason"] = "snapshot-pinned view"
        return EvaluationResult(
            package=package,
            query=query,
            method=method,
            objective=objective,
            wall_seconds=wall_seconds,
            feasible=report.feasible,
            details=details,
        )

    # -- internals ----------------------------------------------------------------------------------

    def _resolve_method(
        self,
        method: EvaluationMethod,
        query: PackageQuery,
        partitioning_label: str,
        snapshot: SnapshotHandle | None = None,
    ) -> tuple[EvaluationMethod, str | None]:
        """Resolve AUTO to a concrete method, with an explanatory note when it
        has to fall back to DIRECT (missing or stale partitioning)."""
        if method is not EvaluationMethod.AUTO:
            return method, None
        name = query.relation
        if snapshot is not None:
            # A snapshot's pinned partitionings are consistent with the pinned
            # table by construction, so staleness cannot arise — only absence.
            table = snapshot.table(name)
            if table.num_rows <= self.auto_direct_threshold:
                return EvaluationMethod.DIRECT, None
            if not snapshot.has_partitioning(name, partitioning_label):
                return EvaluationMethod.DIRECT, (
                    f"no partitioning {partitioning_label!r} pinned for table "
                    f"{name!r} in snapshot {snapshot.snapshot_id}; falling back "
                    "to DIRECT"
                )
            return EvaluationMethod.SKETCH_REFINE, None
        table = self.database.table(name)
        if table.num_rows <= self.auto_direct_threshold:
            return EvaluationMethod.DIRECT, None
        if not self.database.has_partitioning(name, partitioning_label):
            return EvaluationMethod.DIRECT, (
                f"no partitioning {partitioning_label!r} registered for table "
                f"{name!r} ({table.num_rows} rows); falling back to DIRECT — "
                "call build_partitioning() to enable SKETCHREFINE"
            )
        if self.database.is_partitioning_stale(name, partitioning_label):
            partitioning = self.database.partitioning(name, partitioning_label)
            return EvaluationMethod.DIRECT, (
                f"partitioning {partitioning_label!r} for table {name!r} is stale "
                f"(built for version {partitioning.version}, table is at version "
                f"{table.version}); falling back to DIRECT — rebuild it with "
                "build_partitioning()"
            )
        return EvaluationMethod.SKETCH_REFINE, None

    def _partitioning_for(
        self,
        query: PackageQuery,
        label: str,
        snapshot: SnapshotHandle | None = None,
    ) -> Partitioning:
        if snapshot is not None:
            try:
                return snapshot.partitioning(query.relation, label)
            except SnapshotError as exc:
                raise EvaluationError(
                    f"SKETCHREFINE over snapshot {snapshot.snapshot_id} needs a "
                    f"partitioning {label!r} pinned for table {query.relation!r}; "
                    "it was missing or stale when the snapshot was acquired"
                ) from exc
        try:
            partitioning = self.database.partitioning(query.relation, label)
        except CatalogError as exc:
            raise EvaluationError(
                f"SKETCHREFINE needs an offline partitioning for table {query.relation!r}; "
                "call build_partitioning() first"
            ) from exc
        if self.database.is_partitioning_stale(query.relation, label):
            table = self.database.table(query.relation)
            raise StalePartitioningError(
                f"partitioning {label!r} for table {query.relation!r} is stale: it "
                f"describes version {partitioning.version} but the table is at "
                f"version {table.version}; rebuild it with build_partitioning()"
            )
        return partitioning
