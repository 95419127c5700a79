"""Tests for the PackageQueryEngine facade."""

import pytest

from repro import PackageQueryEngine
from repro.core.engine import EvaluationMethod
from repro.dataset.schema import Column, DataType, Schema
from repro.dataset.table import Table
from repro.errors import (
    CatalogError,
    EvaluationError,
    InfeasiblePackageQueryError,
    PaQLValidationError,
)
from repro.paql.builder import query_over
from repro.workloads.recipes import MEAL_PLANNER_PAQL, meal_planner_query, recipes_table


@pytest.fixture
def engine():
    engine = PackageQueryEngine()
    engine.register_table(recipes_table(num_rows=120, seed=7))
    return engine


class TestCatalogManagement:
    def test_register_and_fetch(self, engine):
        assert engine.table("recipes").num_rows == 120

    def test_missing_table(self, engine):
        with pytest.raises(CatalogError):
            engine.table("nope")

    def test_build_partitioning_methods(self, engine):
        for method in ("quadtree", "kdtree", "kmeans"):
            partitioning = engine.build_partitioning(
                "recipes", ["kcal", "saturated_fat"], size_threshold=30,
                method=method, label=method,
            )
            assert partitioning.num_groups >= 1
            assert engine.database.has_partitioning("recipes", method)

    def test_unknown_partitioning_method(self, engine):
        with pytest.raises(EvaluationError):
            engine.build_partitioning("recipes", ["kcal"], 10, method="voronoi")


class TestExecution:
    def test_paql_text_direct(self, engine):
        result = engine.execute(MEAL_PLANNER_PAQL, method="direct")
        assert result.method is EvaluationMethod.DIRECT
        assert result.feasible
        assert result.package.cardinality == 3
        assert result.wall_seconds > 0
        assert "direct_stats" in result.details

    def test_builder_query(self, engine):
        result = engine.execute(meal_planner_query(), method="direct")
        assert result.feasible

    def test_sketchrefine_requires_partitioning(self, engine):
        with pytest.raises(EvaluationError, match="partitioning"):
            engine.execute(MEAL_PLANNER_PAQL, method="sketchrefine")

    def test_sketchrefine_with_partitioning(self, engine):
        engine.build_partitioning("recipes", ["kcal", "saturated_fat"], size_threshold=30)
        result = engine.execute(MEAL_PLANNER_PAQL, method="sketchrefine")
        assert result.method is EvaluationMethod.SKETCH_REFINE
        assert result.feasible
        assert "sketchrefine_stats" in result.details

    def test_naive_method(self, engine):
        result = engine.execute(MEAL_PLANNER_PAQL, method="naive")
        assert result.method is EvaluationMethod.NAIVE
        assert result.feasible

    def test_all_methods_agree_on_objective(self, engine):
        engine.build_partitioning("recipes", ["kcal", "saturated_fat"], size_threshold=20)
        direct = engine.execute(MEAL_PLANNER_PAQL, method="direct")
        naive = engine.execute(MEAL_PLANNER_PAQL, method="naive")
        assert direct.objective == pytest.approx(naive.objective, rel=1e-6)

    def test_validation_error_for_bad_column(self, engine):
        query = query_over("recipes").sum_at_most("no_such_column", 1).build()
        with pytest.raises(PaQLValidationError):
            engine.execute(query, method="direct")

    def test_null_string_row_fails_an_ordering_predicate(self):
        """SQL drops a row whose string is NULL under ``<``; so does the engine."""
        schema = Schema([Column("c", DataType.STRING, nullable=True), Column("v", DataType.FLOAT)])
        engine = PackageQueryEngine()
        engine.register_table(Table(schema, {"c": ["x", None, "z"], "v": [1.0, 5.0, 3.0]}, name="r"))
        result = engine.execute(
            "SELECT PACKAGE(R) FROM r R WHERE R.c < 'y' SUCH THAT COUNT(*) = 1 MAXIMIZE SUM(R.v)"
        )
        assert result.package.indices.tolist() == [0]
        assert result.objective == 1.0

    def test_materialize_result(self, engine):
        result = engine.execute(MEAL_PLANNER_PAQL, method="direct")
        table = result.materialize("meal_plan")
        assert table.num_rows == 3
        assert table.name == "meal_plan"
        assert set(table.schema.names) == set(engine.table("recipes").schema.names)


class TestAutoMethod:
    def test_auto_uses_direct_for_small_tables(self, engine):
        result = engine.execute(MEAL_PLANNER_PAQL)  # default AUTO
        assert result.method is EvaluationMethod.DIRECT

    def test_auto_uses_sketchrefine_for_large_partitioned_tables(self):
        engine = PackageQueryEngine()
        engine.register_table(recipes_table(num_rows=2_500, seed=7))
        engine.build_partitioning("recipes", ["kcal", "saturated_fat"], size_threshold=250)
        result = engine.execute(MEAL_PLANNER_PAQL, method=EvaluationMethod.AUTO)
        assert result.method is EvaluationMethod.SKETCH_REFINE
        assert result.feasible

    def test_auto_without_partitioning_stays_direct(self):
        engine = PackageQueryEngine()
        engine.register_table(recipes_table(num_rows=2_500, seed=7))
        result = engine.execute(MEAL_PLANNER_PAQL)
        assert result.method is EvaluationMethod.DIRECT

    def test_method_accepts_string_or_enum(self, engine):
        as_string = engine.execute(MEAL_PLANNER_PAQL, method="direct")
        as_enum = engine.execute(MEAL_PLANNER_PAQL, method=EvaluationMethod.DIRECT)
        assert as_string.objective == pytest.approx(as_enum.objective)


class TestDynamicData:
    @pytest.fixture
    def live_engine(self):
        from repro.workloads.galaxy import galaxy_table

        engine = PackageQueryEngine(auto_direct_threshold=500)
        engine.register_table(galaxy_table(1000, seed=13))
        engine.build_partitioning(
            "galaxy", ["petroMag_r", "redshift", "petroFlux_r"], size_threshold=80
        )
        return engine

    @staticmethod
    def _galaxy_query(engine):
        from repro.workloads.galaxy import galaxy_workload

        return galaxy_workload(engine.table("galaxy")).query("Q5").query

    def test_update_table_maintains_partitioning(self, live_engine):
        table = live_engine.table("galaxy")
        result = live_engine.update_table("galaxy", insert=table.head(50))
        assert result.table.version == 1
        assert "default" in result.maintained
        assert live_engine.database.partitioning("galaxy").version == 1
        query = self._galaxy_query(live_engine)
        evaluation = live_engine.execute(query)
        assert evaluation.method is EvaluationMethod.SKETCH_REFINE
        stats = evaluation.details["sketchrefine_stats"]
        assert stats.partitioning_version == 1
        assert stats.partitioning_maintenance["deltas_applied"] == 1

    def test_update_table_with_delete_and_combined(self, live_engine):
        live_engine.update_table("galaxy", delete=list(range(10)))
        table = live_engine.table("galaxy")
        assert table.version == 1 and table.num_rows == 990
        result = live_engine.update_table("galaxy", insert=table.head(5), delete=[0])
        assert result.table.version == 2
        assert result.table.num_rows == 994

    def test_update_table_argument_validation(self, live_engine):
        from repro.errors import EvaluationError as EvalError

        with pytest.raises(EvalError, match="needs a delta"):
            live_engine.update_table("galaxy")
        table = live_engine.table("galaxy")
        delta = table.make_delta(delete=[0])
        with pytest.raises(EvalError, match="not both"):
            live_engine.update_table("galaxy", delta, delete=[0])
        # The plain delta form works.
        result = live_engine.update_table("galaxy", delta)
        assert result.table.version == 1

    def test_auto_without_partitioning_notes_fallback(self):
        from repro.workloads.galaxy import galaxy_table, galaxy_workload

        engine = PackageQueryEngine(auto_direct_threshold=500)
        engine.register_table(galaxy_table(1000, seed=13))
        query = galaxy_workload(engine.table("galaxy")).query("Q5").query
        evaluation = engine.execute(query)
        assert evaluation.method is EvaluationMethod.DIRECT
        assert "no partitioning" in evaluation.details["auto"]

    def test_auto_direct_threshold_is_configurable(self):
        engine = PackageQueryEngine(auto_direct_threshold=50)
        engine.register_table(recipes_table(num_rows=120, seed=7))
        engine.build_partitioning("recipes", ["kcal", "saturated_fat"], size_threshold=30)
        result = engine.execute(MEAL_PLANNER_PAQL)
        assert result.method is EvaluationMethod.SKETCH_REFINE
        relaxed = PackageQueryEngine(auto_direct_threshold=10_000)
        relaxed.register_table(recipes_table(num_rows=120, seed=7))
        relaxed.build_partitioning("recipes", ["kcal", "saturated_fat"], size_threshold=30)
        assert relaxed.execute(MEAL_PLANNER_PAQL).method is EvaluationMethod.DIRECT

    def test_update_table_rejects_unknown_policy(self, live_engine):
        from repro.errors import EvaluationError as EvalError

        # Only "maintain" (or None) is accepted: "stale" is gone too.
        for policy in ("yolo", "stale"):
            with pytest.raises(EvalError, match=f"policy '{policy}'"):
                live_engine.update_table("galaxy", delete=[0], policy=policy)
        assert live_engine.table("galaxy").version == 0
        live_engine.update_table("galaxy", delete=[0], policy="maintain")
        live_engine.update_table("galaxy", delete=[0], policy=None)
        assert live_engine.table("galaxy").version == 2
        assert live_engine.database.partitioning("galaxy").version == 2

    def test_register_refuses_a_partitioning_built_before_an_update(self, live_engine):
        from repro.errors import CatalogError
        from repro.partition.quadtree import QuadTreePartitioner

        before = QuadTreePartitioner(80).partition(live_engine.table("galaxy"), ["petroMag_r"])
        live_engine.update_table("galaxy", delete=[0, 1, 2])
        with pytest.raises(CatalogError, match="1000 rows.*997 rows"):
            live_engine.register_partitioning("galaxy", before, label="late")
        assert not live_engine.database.has_partitioning("galaxy", "late")

    def test_build_partitioning_refuses_a_radius_limit_for_kmeans(self, live_engine):
        from repro.errors import PartitioningError

        with pytest.raises(PartitioningError, match="'kmeans'"):
            live_engine.build_partitioning(
                "galaxy", ["petroMag_r"], size_threshold=200, radius_limit=0.5,
                method="kmeans", label="km",
            )
        assert not live_engine.database.has_partitioning("galaxy", "km")

    def test_build_partitioning_invalid_threshold_keeps_error_type(self, live_engine):
        from repro.errors import PartitioningError

        with pytest.raises(PartitioningError, match="size threshold"):
            live_engine.build_partitioning("galaxy", ["petroMag_r"], size_threshold=0)

    def test_engine_keeps_passed_empty_database(self):
        from repro import Database

        database = Database("mine")
        engine = PackageQueryEngine(database=database)
        assert engine.database is database


#: Quadtree with tau = 2 splits ``v`` into the groups {0, 10} and {100, 110}.
FOUR_ROWS = [0.0, 10.0, 100.0, 110.0]
#: Every sketch misses [99.5, 100.5]: two centroids sum to 10, 110 or 210,
#: and a hybrid sketch's one centroid and one tuple to 5 + 100, 5 + 110,
#: 105 + 0 or 105 + 10.  DIRECT picks {0, 100}.
SKETCH_INFEASIBLE = (
    "SELECT PACKAGE(R) FROM r R SUCH THAT COUNT(*) = 2 "
    "AND SUM(R.v) BETWEEN 99.5 AND 100.5 MAXIMIZE SUM(R.v)"
)
#: The sketch 5 + 105 hits [109.5, 110.5], but no single tuple of either
#: group refines its centroid there.  DIRECT picks {0, 110} or {10, 100}.
REFINE_INFEASIBLE = (
    "SELECT PACKAGE(R) FROM r R SUCH THAT COUNT(*) = 2 "
    "AND SUM(R.v) BETWEEN 109.5 AND 110.5 MAXIMIZE SUM(R.v)"
)


class TestFalseInfeasibilityFallback:
    """AUTO answers a possibly-false SKETCHREFINE infeasibility with DIRECT."""

    @pytest.fixture
    def four_rows(self):
        engine = PackageQueryEngine(auto_direct_threshold=1)
        engine.register_table(Table.from_dict({"v": FOUR_ROWS}, name="r"))
        partitioning = engine.build_partitioning("r", ["v"], size_threshold=2)
        assert sorted(sorted(partitioning.group_rows(g).tolist()) for g in range(2)) == [
            [0, 1], [2, 3]
        ]
        return engine

    def test_sketch_infeasible_falls_back_to_direct(self, four_rows):
        result = four_rows.execute(SKETCH_INFEASIBLE)
        assert result.method is EvaluationMethod.DIRECT
        assert result.objective == 100.0
        assert result.feasible
        assert result.package.indices.tolist() == [0, 2]
        assert "direct_stats" in result.details
        assert "sketchrefine_stats" not in result.details
        note = result.details["auto"]
        assert note.startswith("falling back to DIRECT")
        assert "every hybrid sketch" in note

    def test_refine_exhausted_falls_back_to_direct(self, four_rows):
        with pytest.raises(InfeasiblePackageQueryError, match="every group ordering"):
            four_rows.execute(REFINE_INFEASIBLE, method="sketchrefine")
        result = four_rows.execute(REFINE_INFEASIBLE)
        assert result.method is EvaluationMethod.DIRECT
        assert result.objective == 110.0
        assert "every group ordering" in result.details["auto"]

    def test_direct_infeasibility_still_raises(self, four_rows):
        query = (
            "SELECT PACKAGE(R) FROM r R SUCH THAT COUNT(*) = 2 "
            "AND SUM(R.v) BETWEEN 1000 AND 2000 MAXIMIZE SUM(R.v)"
        )
        with pytest.raises(InfeasiblePackageQueryError) as raised:
            four_rows.execute(query)
        assert not raised.value.false_negative_possible

    def test_explicit_sketchrefine_still_raises(self, four_rows):
        with pytest.raises(InfeasiblePackageQueryError, match='method="auto"') as raised:
            four_rows.execute(SKETCH_INFEASIBLE, method="sketchrefine")
        assert raised.value.false_negative_possible

    def test_fallback_is_cached_as_direct_and_dropped_by_an_update(self, four_rows):
        first = four_rows.execute(SKETCH_INFEASIBLE, cache="use")
        assert first.details["cache"]["status"] == "miss"
        [entry] = four_rows.cache.entries_snapshot()
        assert entry["method"] == "direct"
        assert entry["partitioning_label"] is None
        served = four_rows.execute(SKETCH_INFEASIBLE, method="direct", cache="use")
        assert served.details["cache"]["status"] == "hit"
        assert served.objective == 100.0
        four_rows.update_table("r", insert=[{"v": 100.25}])
        after = four_rows.execute(SKETCH_INFEASIBLE, method="direct", cache="use")
        assert after.details["cache"]["status"] == "miss"
        assert after.objective == 100.25

    def test_a_repeated_auto_call_reads_the_fallback_entry(self, four_rows):
        first = four_rows.execute(SKETCH_INFEASIBLE, cache="use")
        assert first.details["cache"]["status"] == "miss"
        second = four_rows.execute(SKETCH_INFEASIBLE, cache="use")
        assert second.details["cache"]["status"] == "hit"
        assert second.method is EvaluationMethod.DIRECT
        assert second.objective == 100.0
        assert second.package.indices.tolist() == [0, 2]
        assert "DIRECT" in second.details["auto"]
        totals = second.details["cache"]["totals"]
        assert (totals["hits"], totals["misses"], totals["stores"]) == (1, 1, 1)
        four_rows.update_table("r", insert=[{"v": 100.25}])
        after = four_rows.execute(SKETCH_INFEASIBLE, cache="use")
        assert after.details["cache"]["status"] == "miss"
        totals = after.details["cache"]["totals"]
        assert (totals["invalidations"], totals["misses"]) == (1, 2)

    def test_explicit_sketchrefine_does_not_read_the_fallback_entry(self, four_rows):
        four_rows.execute(SKETCH_INFEASIBLE, cache="use")
        with pytest.raises(InfeasiblePackageQueryError):
            four_rows.execute(SKETCH_INFEASIBLE, method="sketchrefine", cache="use")

    def test_fallback_reads_the_snapshot(self, four_rows):
        with four_rows.snapshot() as snapshot:
            four_rows.update_table("r", insert=[{"v": 100.25}])
            result = four_rows.execute(SKETCH_INFEASIBLE, snapshot=snapshot)
        assert result.method is EvaluationMethod.DIRECT
        assert result.objective == 100.0
        assert result.details["snapshot"]["table_version"] == 0
        assert "falling back to DIRECT" in result.details["auto"]
