"""Tests for the delta-aware package result cache.

Covers the :class:`~repro.core.cache.PackageCache` data structure, its wiring
through ``PackageQueryEngine.execute(cache=...)`` and
``Database.update_table``, and the correctness property the cache must never
violate: a served answer is always exactly what a fresh recompute would
certify on the *current* data — never a stale hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import CacheEntry, PackageCache
from repro.core.engine import PackageQueryEngine
from repro.core.validation import check_package, objective_value
from repro.dataset.schema import Schema
from repro.dataset.table import Table, TableDelta
from repro.errors import EvaluationError, TableError
from repro.paql.builder import query_over
from repro.paql.fingerprint import query_fingerprint


def _two_cluster_table(num_per_cluster: int = 12, seed: int = 0) -> Table:
    """Two well-separated numeric clusters: A near x=0, B near x=100.

    Partitioning on ``x`` puts them in different groups, so updates aimed at
    one cluster provably miss packages drawn from the other.
    """
    rng = np.random.default_rng(seed)
    x = np.concatenate(
        [
            np.round(rng.uniform(0.0, 1.0, num_per_cluster), 3),
            np.round(rng.uniform(100.0, 101.0, num_per_cluster), 3),
        ]
    )
    value = np.arange(len(x), dtype=np.float64)
    schema = Schema.numeric(["x", "value"])
    return Table(schema, {"x": x, "value": value}, name="clusters")


def _cluster_a_query():
    from repro.db.expressions import col

    return (
        query_over("clusters", name="qa")
        .no_repetition()
        .where(col("x") < 50.0)
        .count_equals(3)
        .minimize_sum("value")
        .build()
    )


def _cluster_engine(tau: int = 16):
    # τ=16 over 12+12 rows forces the quadtree to split the clusters into
    # separate groups while leaving insert headroom before any re-split.
    engine = PackageQueryEngine()
    engine.register_table(_two_cluster_table(), name="clusters")
    engine.build_partitioning("clusters", ["x"], size_threshold=tau)
    return engine


def _b_row(x: float = 100.5) -> tuple[float, float]:
    return (x, 999.0)


class TestEngineCacheModes:
    def test_hit_returns_identical_answer(self, recipes):
        engine = PackageQueryEngine()
        engine.register_table(recipes, name="recipes")
        query = (
            query_over("recipes")
            .no_repetition()
            .count_equals(3)
            .minimize_sum("kcal")
            .build()
        )
        first = engine.execute(query, method="direct")
        second = engine.execute(query, method="direct")
        assert first.details["cache"]["status"] == "miss"
        assert second.details["cache"]["status"] == "hit"
        assert second.objective == first.objective
        assert second.package.same_contents(first.package)
        # Per-call metric: exactly the solve time the hit spared, not the
        # cache's running total (which lives under "totals").
        assert second.details["cache"]["saved_solve_seconds"] == first.wall_seconds
        assert second.details["cache"]["totals"]["hits"] == 1
        other = (
            query_over("recipes").no_repetition().count_equals(4).minimize_sum("kcal").build()
        )
        missed = engine.execute(other, method="direct")
        assert missed.details["cache"]["status"] == "miss"
        assert missed.details["cache"]["saved_solve_seconds"] == 0.0
        assert missed.details["cache"]["totals"]["saved_solve_seconds"] == first.wall_seconds

    def test_textual_variant_hits_the_same_entry(self, recipes):
        engine = PackageQueryEngine()
        engine.register_table(recipes, name="recipes")
        text = (
            "SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0 "
            "SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) <= 5000 "
            "MINIMIZE SUM(P.kcal)"
        )
        variant = (
            "select package(rel) as pkg from recipes rel repeat 0 "
            "such that sum(pkg.kcal) <= 5000.0 and count(pkg.*) = 3 "
            "minimize sum(pkg.kcal)"
        )
        first = engine.execute(text, method="direct")
        second = engine.execute(variant, method="direct")
        assert second.details["cache"]["status"] == "hit"
        assert second.objective == first.objective

    def test_bypass_never_reads_or_writes(self, recipes):
        engine = PackageQueryEngine()
        engine.register_table(recipes, name="recipes")
        query = (
            query_over("recipes").no_repetition().count_equals(2).minimize_sum("kcal").build()
        )
        first = engine.execute(query, method="direct", cache="bypass")
        assert first.details["cache"] == {"status": "bypass"}
        assert len(engine.cache) == 0
        engine.execute(query, method="direct")  # populate
        bypassed = engine.execute(query, method="direct", cache="bypass")
        assert bypassed.details["cache"] == {"status": "bypass"}
        assert engine.cache.stats.hits == 0

    def test_refresh_resolves_and_overwrites(self, recipes):
        engine = PackageQueryEngine()
        engine.register_table(recipes, name="recipes")
        query = (
            query_over("recipes").no_repetition().count_equals(2).minimize_sum("kcal").build()
        )
        engine.execute(query, method="direct")
        refreshed = engine.execute(query, method="direct", cache="refresh")
        assert refreshed.details["cache"]["status"] == "refresh"
        assert engine.cache.stats.stores == 2
        assert engine.cache.stats.hits == 0

    def test_unknown_cache_mode_rejected(self, recipes):
        engine = PackageQueryEngine()
        engine.register_table(recipes, name="recipes")
        query = query_over("recipes").count_equals(2).build()
        with pytest.raises(EvaluationError, match="cache mode"):
            engine.execute(query, method="direct", cache="yolo")

    def test_methods_do_not_share_entries(self, recipes):
        engine = PackageQueryEngine()
        engine.register_table(recipes, name="recipes")
        query = (
            query_over("recipes").no_repetition().count_equals(2).minimize_sum("kcal").build()
        )
        direct = engine.execute(query, method="direct")
        naive = engine.execute(query, method="naive")
        assert naive.details["cache"]["status"] == "miss"
        assert naive.objective == direct.objective
        assert engine.execute(query, method="naive").details["cache"]["status"] == "hit"


class TestDeltaInvalidation:
    def test_direct_entry_invalidates_on_any_version_bump(self, recipes):
        engine = PackageQueryEngine()
        engine.register_table(recipes, name="recipes")
        query = (
            query_over("recipes").no_repetition().count_equals(2).minimize_sum("kcal").build()
        )
        engine.execute(query, method="direct")
        engine.update_table("recipes", delete=[recipes.num_rows - 1])
        result = engine.execute(query, method="direct")
        assert result.details["cache"]["status"] == "miss"
        assert engine.cache.stats.invalidations >= 1

    def test_sketchrefine_revalidates_when_delta_misses_its_groups(self):
        engine = _cluster_engine()
        query = _cluster_a_query()
        first = engine.execute(query, method="sketchrefine")
        assert first.details["cache"]["status"] == "miss"
        update = engine.update_table("clusters", insert=[_b_row()])
        stats = update.maintained["default"]
        assert not stats.groups_renumbered
        result = engine.execute(query, method="sketchrefine")
        assert result.details["cache"]["status"] == "revalidated"
        assert result.objective == first.objective
        assert result.feasible
        # The served package must be valid against the *current* table.
        assert check_package(result.package, query).feasible
        assert result.package.table is engine.table("clusters")

    def test_sketchrefine_invalidates_when_delta_touches_its_groups(self):
        engine = _cluster_engine()
        query = _cluster_a_query()
        first = engine.execute(query, method="sketchrefine")
        # Insert into cluster A — the group the package lives in.
        engine.update_table("clusters", insert=[(0.5, 999.0)])
        result = engine.execute(query, method="sketchrefine")
        assert result.details["cache"]["status"] == "miss"

    def test_sketchrefine_invalidates_when_a_package_row_is_deleted(self):
        engine = _cluster_engine()
        query = _cluster_a_query()
        first = engine.execute(query, method="sketchrefine")
        victim = int(first.package.indices[0])
        engine.update_table("clusters", delete=[victim])
        result = engine.execute(query, method="sketchrefine")
        assert result.details["cache"]["status"] == "miss"
        # The fresh solve ran over the post-delete table, not the stale one.
        assert result.package.table is engine.table("clusters")
        assert check_package(result.package, query).feasible

    def test_coalesced_update_burst_needs_one_revalidation(self):
        engine = _cluster_engine()
        query = _cluster_a_query()
        first = engine.execute(query, method="sketchrefine")
        # Three updates, all confined to cluster B, before the next lookup.
        engine.update_table("clusters", insert=[_b_row(100.2)])
        engine.update_table("clusters", insert=[_b_row(100.8)])
        b_rows = np.nonzero(engine.table("clusters").numeric_column("x") > 50.0)[0]
        engine.update_table("clusters", delete=[int(b_rows[0])])
        result = engine.execute(query, method="sketchrefine")
        assert result.details["cache"]["status"] == "revalidated"
        assert result.objective == first.objective
        assert engine.cache.stats.revalidations == 1

    def test_group_renumbering_invalidates_conservatively(self):
        engine = _cluster_engine()
        query = _cluster_a_query()
        engine.execute(query, method="sketchrefine")
        # Deleting all of cluster B retires its group: the gid space is
        # renumbered, so even a package in untouched groups is dropped.
        b_rows = np.nonzero(engine.table("clusters").numeric_column("x") > 50.0)[0]
        update = engine.update_table("clusters", delete=b_rows)
        assert update.maintained["default"].groups_renumbered
        result = engine.execute(query, method="sketchrefine")
        assert result.details["cache"]["status"] == "miss"

    def test_table_replacement_invalidates(self, recipes):
        engine = PackageQueryEngine()
        engine.register_table(recipes, name="recipes")
        query = (
            query_over("recipes").no_repetition().count_equals(2).minimize_sum("kcal").build()
        )
        engine.execute(query, method="direct")
        engine.register_table(recipes, name="recipes", replace=True)
        assert len(engine.cache) == 0
        assert engine.execute(query, method="direct").details["cache"]["status"] == "miss"


class TestAutoFallbackWithCache:
    """PR 4's AUTO fallback notes must survive — and explain — cached paths."""

    def test_auto_fallback_note_present_on_cached_answers(self):
        engine = PackageQueryEngine(auto_direct_threshold=5)
        engine.register_table(_two_cluster_table(), name="clusters")
        query = _cluster_a_query()
        first = engine.execute(query)  # AUTO, no partitioning -> DIRECT + note
        assert "no partitioning" in first.details["auto"]
        second = engine.execute(query)
        assert second.details["cache"]["status"] == "hit"
        assert "no partitioning" in second.details["auto"]

    def test_auto_and_explicit_direct_share_an_entry(self):
        engine = PackageQueryEngine(auto_direct_threshold=1000)
        engine.register_table(_two_cluster_table(), name="clusters")
        query = _cluster_a_query()
        engine.execute(query)  # AUTO -> DIRECT (small table)
        explicit = engine.execute(query, method="direct")
        assert explicit.details["cache"]["status"] == "hit"


class TestPartitioningRebuild:
    """Registering a partitioning under a label replaces the one the label's
    cached SKETCHREFINE answers were solved over: those answers go."""

    @staticmethod
    def _galaxy_engine(tau: int) -> PackageQueryEngine:
        from repro.workloads.galaxy import galaxy_table

        engine = PackageQueryEngine(auto_direct_threshold=100)
        engine.register_table(galaxy_table(1_200, seed=42), name="galaxy")
        engine.build_partitioning("galaxy", ["petroMag_r", "redshift"], size_threshold=tau)
        return engine

    QUERY = (
        query_over("galaxy")
        .no_repetition()
        .count_equals(10)
        .sum_at_least("redshift", 1.0)
        .minimize_sum("petroMag_r")
        .build()
    )

    def test_rebuild_drops_the_sketchrefine_answer(self):
        engine = self._galaxy_engine(tau=200)
        first = engine.execute(self.QUERY)
        assert first.method.value == "sketchrefine"
        assert engine.execute(self.QUERY).details["cache"]["status"] == "hit"
        rebuilt = engine.build_partitioning(
            "galaxy", ["petroMag_r", "redshift"], size_threshold=20
        )
        assert engine.cache.stats.invalidations == 1
        repeat = engine.execute(self.QUERY)
        fresh = engine.execute(self.QUERY, cache="bypass")
        assert repeat.details["cache"]["status"] == "miss"
        assert repeat.objective == fresh.objective
        assert repeat.package.as_multiplicity_map() == fresh.package.as_multiplicity_map()
        # The stored entry names groups of the registered gid space.
        (entry,) = engine.cache.entries_snapshot()
        assert entry["groups"] == frozenset(
            rebuilt.group_ids[repeat.package.indices].tolist()
        )

    def test_rebuild_keeps_direct_entries_and_other_labels(self):
        engine = self._galaxy_engine(tau=200)
        engine.build_partitioning(
            "galaxy", ["petroMag_r", "redshift"], size_threshold=100, label="coarse"
        )
        engine.execute(self.QUERY, method="direct")
        engine.execute(self.QUERY, method="sketchrefine")
        engine.execute(self.QUERY, method="sketchrefine", partitioning_label="coarse")
        assert len(engine.cache) == 3
        engine.build_partitioning("galaxy", ["petroMag_r", "redshift"], size_threshold=20)
        assert engine.cache.stats.invalidations == 1
        statuses = [
            engine.execute(self.QUERY, method="direct").details["cache"]["status"],
            engine.execute(
                self.QUERY, method="sketchrefine", partitioning_label="coarse"
            ).details["cache"]["status"],
            engine.execute(self.QUERY, method="sketchrefine").details["cache"]["status"],
        ]
        assert statuses == ["hit", "hit", "miss"]


class TestCacheUnit:
    def test_lru_eviction(self, recipes):
        engine = PackageQueryEngine(cache=PackageCache(max_entries=2))
        engine.register_table(recipes, name="recipes")
        queries = [
            query_over("recipes").no_repetition().count_equals(k).minimize_sum("kcal").build()
            for k in (1, 2, 3)
        ]
        for query in queries:
            engine.execute(query, method="direct")
        assert len(engine.cache) == 2
        assert engine.cache.stats.evictions == 1
        # The oldest entry (k=1) was evicted; k=3 is still warm.
        assert engine.execute(queries[0], method="direct").details["cache"]["status"] == "miss"
        assert engine.execute(queries[2], method="direct").details["cache"]["status"] == "hit"

    def test_version_drift_without_notification_is_a_safe_miss(self, recipes):
        # A cache not registered with the catalog sees version changes only
        # at lookup time — it must drop the entry, never serve it.
        cache = PackageCache()
        engine = PackageQueryEngine(cache=cache)
        engine.register_table(recipes, name="recipes")
        query = (
            query_over("recipes").no_repetition().count_equals(2).minimize_sum("kcal").build()
        )
        engine.execute(query, method="direct")
        engine.database.unregister_cache(cache)
        engine.update_table("recipes", delete=[0])
        result = engine.execute(query, method="direct")
        assert result.details["cache"]["status"] == "miss"

    def test_store_requires_partitioning_for_sketchrefine(self, recipes):
        cache = PackageCache()
        query = query_over("recipes").count_equals(1).build()
        from repro.core.package import Package

        with pytest.raises(EvaluationError, match="partitioning"):
            cache.store(
                query,
                query_fingerprint(query),
                recipes,
                "recipes",
                "sketchrefine",
                Package.empty(recipes),
                0.0,
                True,
                1.0,
            )

    def test_invalid_capacity_rejected(self):
        with pytest.raises(EvaluationError):
            PackageCache(max_entries=0)

    def test_clear_and_invalidate_table(self, recipes):
        engine = PackageQueryEngine()
        engine.register_table(recipes, name="recipes")
        query = (
            query_over("recipes").no_repetition().count_equals(2).minimize_sum("kcal").build()
        )
        engine.execute(query, method="direct")
        engine.cache.invalidate_table("other")
        assert len(engine.cache) == 1
        engine.cache.invalidate_table("recipes")
        assert len(engine.cache) == 0
        engine.execute(query, method="direct")
        engine.cache.clear()
        assert len(engine.cache) == 0


class TestCacheCorrectnessProperty:
    """After arbitrary insert/delete streams, a served answer always equals
    what a fresh ``cache="bypass"`` recompute certifies — never a stale hit."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_direct_answers_match_fresh_recompute_exactly(self, seed):
        rng = np.random.default_rng(seed)
        engine = PackageQueryEngine()
        schema = Schema.numeric(["a", "b"])
        table = Table(
            schema,
            {
                "a": rng.integers(0, 30, 12).astype(np.float64),
                "b": rng.integers(0, 30, 12).astype(np.float64),
            },
            name="stream",
        )
        engine.register_table(table, name="stream")
        query = (
            query_over("stream")
            .no_repetition()
            .count_equals(3)
            .sum_at_most("b", 90.0)
            .minimize_sum("a")
            .build()
        )
        for step in range(8):
            if rng.random() < 0.5:
                current = engine.table("stream")
                insert = [
                    (float(rng.integers(0, 30)), float(rng.integers(0, 30)))
                    for _ in range(int(rng.integers(0, 3)))
                ]
                deletable = max(0, current.num_rows - 8)
                delete = rng.choice(
                    current.num_rows,
                    size=int(rng.integers(0, min(3, deletable + 1))),
                    replace=False,
                )
                if insert or len(delete):
                    engine.update_table(
                        "stream", insert=insert or None, delete=delete if len(delete) else None
                    )
            cached = engine.execute(query, method="direct")
            fresh = engine.execute(query, method="direct", cache="bypass")
            status = cached.details["cache"]["status"]
            assert cached.objective == fresh.objective, (
                f"seed={seed} step={step} status={status}: cached objective "
                f"{cached.objective} != fresh {fresh.objective}"
            )
            assert cached.feasible == fresh.feasible

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sketchrefine_never_serves_a_stale_package(self, seed):
        rng = np.random.default_rng(seed)
        engine = _cluster_engine()
        query = _cluster_a_query()
        for step in range(8):
            action = rng.random()
            if action < 0.4:  # update confined to cluster B
                engine.update_table(
                    "clusters", insert=[_b_row(float(100.0 + rng.random()))]
                )
            elif action < 0.6:  # update touching cluster A
                engine.update_table(
                    "clusters", insert=[(float(rng.random()), 999.0)]
                )
            elif action < 0.75:  # delete a cluster-B row
                b_rows = np.nonzero(engine.table("clusters").numeric_column("x") > 50.0)[0]
                if len(b_rows):
                    engine.update_table("clusters", delete=[int(rng.choice(b_rows))])
            current = engine.table("clusters")
            # Every update maintained every registered partitioning.
            for label in engine.database.partitioning_labels("clusters"):
                partitioning = engine.database.partitioning("clusters", label)
                assert partitioning.version == current.version, f"seed={seed} step={step}"
                assert len(partitioning.group_ids) == current.num_rows
            result = engine.execute(query, method="sketchrefine")
            status = result.details["cache"]["status"]
            # Whatever the status, the answer must be internally consistent
            # with the *current* table: indices valid, feasibility certified
            # by the independent checker, objective reproducible.
            assert result.package.table is current, f"seed={seed} step={step}"
            report = check_package(result.package, query)
            assert report.feasible, f"seed={seed} step={step} status={status}"
            assert result.objective == objective_value(result.package, query), (
                f"seed={seed} step={step} status={status}"
            )


# -- the coalescing merge the cache used before it kept deltas as deleted rows --------------
#
# ``merge`` is the former ``TableDelta.merge`` verbatim, and ``MergedDelta``
# the ``spans`` field and the row remap that went with it.  The deferred remap
# of ``notify_update`` / ``_flush`` is held to ``merge(...).row_remap()``.


def surviving_rows(delta: TableDelta) -> np.ndarray:
    """Base-table row indices that survive ``delta``, in order."""
    return np.nonzero(~delta.deleted_mask)[0]


@dataclass(frozen=True, repr=False)
class MergedDelta(TableDelta):
    """A delta covering ``spans`` consecutive version bumps."""

    spans: int = 1

    @property
    def new_version(self) -> int:
        return self.base_version + self.spans

    def row_remap(self) -> np.ndarray:
        """Map old row index → new row index (−1 for deleted rows)."""
        remap = np.full(len(self.deleted_mask), -1, dtype=np.int64)
        survivors = surviving_rows(self)
        remap[survivors] = np.arange(len(survivors), dtype=np.int64)
        return remap


def merge(first: TableDelta, later: TableDelta) -> MergedDelta:
    """Coalesce ``first`` with the delta that followed it."""
    first_spans, later_spans = getattr(first, "spans", 1), getattr(later, "spans", 1)
    if later.base_version != first.new_version:
        raise TableError(
            f"cannot merge: later delta targets version {later.base_version}, "
            f"this delta produces version {first.new_version}"
        )
    num_survivors = len(first.deleted_mask) - first.num_deleted
    expected = num_survivors + first.num_inserted
    if later.deleted_mask.shape != (expected,):
        raise TableError(
            f"later delta's delete mask has shape {later.deleted_mask.shape}, "
            f"expected ({expected},)"
        )
    merged_mask = first.deleted_mask.copy()
    merged_mask[surviving_rows(first)] |= later.deleted_mask[:num_survivors]
    surviving_inserts = first.inserted.filter(~later.deleted_mask[num_survivors:])
    inserted = (
        surviving_inserts.concat(later.inserted) if later.num_inserted else surviving_inserts
    )
    return MergedDelta(
        base_version=first.base_version,
        inserted=inserted,
        deleted_mask=merged_mask,
        spans=first_spans + later_spans,
    )


def merge_all(deltas: list[TableDelta]) -> MergedDelta:
    """One delta for a whole stream (a stream of one included)."""
    first = deltas[0]
    anchored = MergedDelta(first.base_version, first.inserted, first.deleted_mask)
    return reduce(merge, deltas[1:], anchored)


class TestReferenceMerge:
    """The reference itself: merging composes deltas exactly."""

    def _random_delta(self, table, rng):
        """A random combined insert/delete change for ``table``."""
        num_insert = int(rng.integers(0, 4))
        insert = [
            (float(rng.integers(0, 100)), float(rng.integers(0, 100)), int(rng.integers(0, 2)))
            for _ in range(num_insert)
        ]
        mask = rng.random(table.num_rows) < 0.25
        return table.update_rows(insert=insert or None, delete=mask)

    def test_merge_equals_sequential_application(self, small_numeric_table):
        base = small_numeric_table
        mid, first = base.update_rows(insert=[(6.0, 60.0, 0)], delete=[1])
        final, second = mid.update_rows(insert=[(7.0, 70.0, 1)], delete=[0, 4])
        merged = merge(first, second)
        assert merged.base_version == 0
        assert merged.spans == 2
        assert merged.new_version == final.version == 2
        replayed = base.apply_delta(merged)
        assert replayed.version == final.version
        assert replayed.equals(final)

    def test_merge_drops_inserts_deleted_by_the_later_delta(self, small_numeric_table):
        base = small_numeric_table
        mid, first = base.append_rows([(6.0, 60.0, 0), (7.0, 70.0, 1)])
        # Delete the first of the two freshly inserted rows (index 5 of mid).
        final, second = mid.delete_rows([5])
        merged = merge(first, second)
        assert merged.num_inserted == 1
        assert merged.inserted.column("a").tolist() == [7.0]
        assert base.apply_delta(merged).equals(final)

    def test_merge_version_mismatch_rejected(self, small_numeric_table):
        _, first = small_numeric_table.append_rows([(6.0, 60.0, 0)])
        with pytest.raises(TableError, match="merge"):
            merge(first, first)

    def test_merge_mask_shape_mismatch_rejected(self, small_numeric_table):
        _, first = small_numeric_table.append_rows([(6.0, 60.0, 0)])
        bad = TableDelta(1, Table.empty(small_numeric_table.schema), np.zeros(3, dtype=bool))
        with pytest.raises(TableError, match="shape"):
            merge(first, bad)

    def test_row_remap_of_merged_delta_composes(self, small_numeric_table):
        base = small_numeric_table
        mid, first = base.update_rows(insert=[(6.0, 60.0, 0)], delete=[2])
        final, second = mid.delete_rows([0])
        remap = merge(first, second).row_remap()
        # Row 0 deleted second, row 2 deleted first; survivors keep order.
        assert remap.tolist() == [-1, 0, -1, 1, 2]
        for row in np.nonzero(remap >= 0)[0]:
            assert final.row(int(remap[row])) == base.row(int(row))

    def test_merged_chain_matches_random_stream(self, small_numeric_table, rng):
        expected, deltas = small_numeric_table, []
        for _ in range(6):
            expected, delta = self._random_delta(expected, rng)
            deltas.append(delta)
        merged = merge_all(deltas)
        replayed = small_numeric_table.apply_delta(merged)
        assert merged.spans == 6
        assert replayed.version == expected.version == 6
        assert replayed.equals(expected)

    def test_merge_with_empty_delta_is_identity_up_to_spans(self, small_numeric_table):
        base = small_numeric_table
        mid, first = base.update_rows(insert=[(6.0, 60.0, 0)], delete=[1])
        noop_mid, empty = mid.update_rows(delete=[])
        assert (empty.num_inserted, empty.num_deleted) == (0, 0)
        # Empty-after: the change is first's, only the version window widens.
        merged = merge(first, empty)
        assert merged.spans == 2
        assert base.apply_delta(merged).equals(noop_mid)
        # Empty-before: same, anchored one version earlier.
        noop_base, leading = base.update_rows(delete=[])
        _, change = noop_base.update_rows(insert=[(6.0, 60.0, 0)], delete=[1])
        merged = merge(leading, change)
        assert merged.spans == 2
        rows = base.apply_delta(merged)
        assert rows.num_rows == mid.num_rows
        assert rows.column("a").tolist() == mid.column("a").tolist()

    def test_merge_after_delete_everything(self, small_numeric_table):
        # The first delta empties the table entirely; the later delta's mask
        # covers zero rows (shape (0,)) and only inserts.
        base = small_numeric_table
        emptied, wipe = base.delete_rows(np.arange(base.num_rows))
        assert emptied.num_rows == 0
        final, refill = emptied.append_rows([(8.0, 80.0, 1), (9.0, 90.0, 0)])
        merged = merge(wipe, refill)
        assert merged.deleted_mask.all()
        assert merged.num_inserted == 2
        assert base.apply_delta(merged).equals(final)
        assert (merged.row_remap() == -1).all()

    def test_merge_where_the_later_delta_deletes_everything(self, small_numeric_table):
        # Every base row and every row the first delta inserted dies: the
        # merged delta must be a full wipe with no surviving inserts.
        base = small_numeric_table
        mid, first = base.update_rows(insert=[(6.0, 60.0, 0)], delete=[2])
        final, wipe = mid.delete_rows(np.arange(mid.num_rows))
        merged = merge(first, wipe)
        assert merged.deleted_mask.all()
        assert merged.num_inserted == 0
        replayed = base.apply_delta(merged)
        assert replayed.num_rows == 0
        assert replayed.equals(final)

    def test_merge_chain_that_renumbers_the_row_space(self, small_numeric_table):
        # Each step deletes the current head row and inserts a new tail row,
        # so every surviving row's index shifts at every step.  The merged
        # remap must compose all the shifts at once.
        base = small_numeric_table
        expected, deltas = base, []
        for step in range(4):
            expected, delta = expected.update_rows(
                insert=[(100.0 + step, 0.0, step % 2)], delete=[0]
            )
            deltas.append(delta)
        merged = merge_all(deltas)
        replayed = base.apply_delta(merged)
        assert replayed.equals(expected)
        # Base rows 0-3 were consumed head-first; only row 4 survives, and it
        # slid to the front of the new row space.
        assert merged.row_remap().tolist() == [-1, -1, -1, -1, 0]
        assert replayed.row(0) == base.row(4)
        # Inserts land at the tail while deletes eat the head, so all four
        # inserted rows survive, in insertion order after the one survivor.
        assert merged.num_inserted == 4
        assert replayed.column("a").tolist()[1:] == [100.0, 101.0, 102.0, 103.0]


def _store_sketch_entry(cache: PackageCache, rows: list[int], version: int) -> CacheEntry:
    """Plant a SKETCHREFINE entry over ``rows`` of table ``t`` at ``version``."""
    entry = CacheEntry(
        fingerprint="f",
        table_name="t",
        method="sketchrefine",
        partitioning_label="default",
        table_version=version,
        partitioning_version=version,
        multiplicities={row: 1 + position for position, row in enumerate(rows)},
        groups=frozenset(),
        objective=0.0,
        feasible=True,
        solve_seconds=0.0,
    )
    cache._entries[cache._key("f", "t", "sketchrefine", "default")] = entry
    return entry


class TestDeferredRemapAgainstMerge:
    """``notify_update`` keeps each delta's deleted rows and ``_flush`` shifts
    an entry's rows past them: the result must be what the merged delta's
    ``row_remap()`` gave, row for row — including rows outside the table and
    a stream that skips a version."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_remap_equals_the_merged_row_remap(self, data):
        num_rows = data.draw(st.integers(0, 12), label="num_rows")
        table = Table(
            Schema.numeric(["a"]), {"a": np.arange(num_rows, dtype=np.float64)}, name="t"
        )
        rows = data.draw(
            st.lists(st.integers(-2, num_rows + 1), unique=True, max_size=5), label="rows"
        )
        num_deltas = data.draw(st.integers(1, 5), label="num_deltas")
        skip = data.draw(
            st.one_of(st.none(), st.tuples(st.integers(1, 4), st.sampled_from(["version", "rows"]))),
            label="skip",
        )
        cache = PackageCache()
        entry = _store_sketch_entry(cache, rows, table.version)
        original = dict(entry.multiplicities)

        deltas = []
        for step in range(num_deltas):
            mask = data.draw(
                st.lists(st.booleans(), min_size=table.num_rows, max_size=table.num_rows)
            )
            inserts = [(float(k),) for k in range(data.draw(st.integers(0, 3)))]
            new_table, delta = table.update_rows(
                insert=inserts or None, delete=np.array(mask, dtype=bool)
            )
            if skip is not None and skip[0] == step:
                if skip[1] == "version":
                    delta = TableDelta(delta.base_version + 1, delta.inserted, delta.deleted_mask)
                else:
                    delta = TableDelta(
                        delta.base_version, delta.inserted, np.append(delta.deleted_mask, False)
                    )
            deltas.append(delta)
            cache.notify_update("t", delta, {})
            table = new_table
        cache._flush("t")

        try:
            merged = merge_all(deltas)
        except TableError:
            assert len(cache) == 0, "a skipped version must drop the table's entries"
            return
        remap = merged.row_remap()
        expected = [int(remap[row]) if 0 <= row < len(remap) else -1 for row in original]
        if any(row < 0 for row in expected):
            assert len(cache) == 0
            return
        assert len(cache) == 1
        assert list(entry.multiplicities.items()) == list(zip(expected, original.values()))
        assert entry.table_version == entry.partitioning_version == merged.new_version
        assert entry.needs_revalidation

    def test_an_entry_anchored_elsewhere_is_dropped(self, small_numeric_table):
        cache = PackageCache()
        _store_sketch_entry(cache, [0, 1], version=7)
        _, delta = small_numeric_table.update_rows(insert=[(6.0, 60.0, 0)], delete=[4])
        cache.notify_update("t", delta, {})
        cache._flush("t")
        assert len(cache) == 0
