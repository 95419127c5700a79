"""Tests for incremental partition maintenance (PartitionMaintainer).

The load-bearing guarantee: a maintained partitioning satisfies the same τ
(and ω, when configured) conditions as a fresh build, and its per-group
statistics match a from-scratch recompute of the same group assignment
(untouched groups bit-identically, touched groups within floating-point
accumulation tolerance) — so SKETCHREFINE's approximation story is unchanged
under insert/delete streams.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset.table import Table
from repro.errors import PartitioningError
from repro.partition.kdtree import KdTreePartitioner
from repro.partition.kmeans import KMeansPartitioner
from repro.partition.maintenance import (
    MaintenanceStats,
    PartitionMaintainer,
    make_partitioner,
)
from repro.partition.quadtree import QuadTreePartitioner
from repro.partition.representatives import compute_centroids, group_radii
from repro.workloads.galaxy import galaxy_table

ATTRIBUTES = ["petroMag_r", "redshift", "petroFlux_r"]


def _assert_stats_match_recompute(partitioning) -> None:
    """The carried per-group stats must equal a from-scratch recompute."""
    table, gids = partitioning.table, partitioning.group_ids
    assert np.array_equal(
        partitioning.group_sizes(),
        np.bincount(gids, minlength=partitioning.num_groups),
    )
    fresh_centroids = compute_centroids(table, gids, partitioning.attributes)
    assert np.allclose(partitioning.group_centroids(), fresh_centroids)
    fresh_radii = group_radii(table, gids, partitioning.attributes, centroids=fresh_centroids)
    assert np.allclose(partitioning.group_radii_array(), fresh_radii)
    assert partitioning.stats.num_groups == partitioning.num_groups
    assert partitioning.stats.max_group_size == int(partitioning.group_sizes().max())
    assert partitioning.stats.max_radius == pytest.approx(partitioning.max_radius())
    # Dense gid space: every group has at least one member.
    assert (partitioning.group_sizes() > 0).all()


class TestMakePartitioner:
    def test_known_methods(self):
        assert isinstance(make_partitioner("quadtree", 10, None), QuadTreePartitioner)
        assert isinstance(make_partitioner("kdtree", 10, 1.0), KdTreePartitioner)
        assert isinstance(make_partitioner("kmeans", 10, None), KMeansPartitioner)

    def test_derived_method_string(self):
        assert isinstance(make_partitioner("quadtree(restricted)", 10, None), QuadTreePartitioner)

    def test_unknown_method_rejected(self):
        with pytest.raises(PartitioningError):
            make_partitioner("voronoi", 10, None)


class TestSingleDelta:
    @pytest.fixture
    def built(self):
        table = galaxy_table(800, seed=11)
        partitioning = QuadTreePartitioner(size_threshold=60).partition(table, ATTRIBUTES)
        return table, partitioning

    def test_insert_joins_nearest_group(self, built):
        table, partitioning = built
        # Re-inserting copies of existing tuples must land them in groups that
        # already enclose them (distance 0 to their own group's members).
        block = table.take(np.arange(10))
        new_table, delta = table.append_rows(block)
        maintained, stats = PartitionMaintainer().maintain(partitioning, new_table, delta)
        assert maintained.version == 1
        assert maintained.table is new_table
        assert stats.rows_inserted == 10
        _assert_stats_match_recompute(maintained)

    def test_delete_shrinks_and_retires_groups(self, built):
        table, partitioning = built
        victim = int(np.argmin(partitioning.group_sizes()))
        mask = partitioning.group_ids == victim
        new_table, delta = table.delete_rows(mask)
        maintained, stats = PartitionMaintainer().maintain(partitioning, new_table, delta)
        assert maintained.num_groups == partitioning.num_groups - 1
        assert stats.groups_retired == 1
        assert maintained.maintenance.groups_retired == 1
        _assert_stats_match_recompute(maintained)

    def test_overflowing_group_is_resplit_locally(self, built):
        table, partitioning = built
        tau = partitioning.stats.size_threshold
        centroid = partitioning.group_centroids()[0]
        rng = np.random.default_rng(5)
        columns = {
            name: np.zeros(2 * tau) for name in table.schema.names
        }
        for j, attribute in enumerate(ATTRIBUTES):
            columns[attribute] = np.round(rng.normal(centroid[j], 1e-3, 2 * tau), 6)
        blob = Table(table.schema, columns, name=table.name)
        new_table, delta = table.append_rows(blob)
        maintained, stats = PartitionMaintainer().maintain(partitioning, new_table, delta)
        assert stats.groups_resplit >= 1
        assert stats.groups_created >= 2
        assert maintained.satisfies_size_threshold(tau)
        _assert_stats_match_recompute(maintained)

    def test_radius_limit_maintained(self):
        table = galaxy_table(600, seed=21)
        attributes = ["petroMag_r", "redshift"]
        partitioning = QuadTreePartitioner(size_threshold=400, radius_limit=1.5).partition(
            table, attributes
        )
        assert partitioning.satisfies_radius_limit(1.5)
        centroid = partitioning.group_centroids()[0]
        columns = {name: np.zeros(20) for name in table.schema.names}
        for j, attribute in enumerate(attributes):
            columns[attribute] = np.full(20, centroid[j] + 6.0)
        outliers = Table(table.schema, columns, name=table.name)
        new_table, delta = table.append_rows(outliers)
        maintained, stats = PartitionMaintainer().maintain(partitioning, new_table, delta)
        assert stats.groups_resplit >= 1
        assert maintained.satisfies_radius_limit(1.5)
        _assert_stats_match_recompute(maintained)

    def test_empty_partitioning_rebuilds(self, built):
        table, partitioning = built
        emptied, delta = table.delete_rows(np.ones(table.num_rows, dtype=bool))
        maintainer = PartitionMaintainer()
        empty_p, _ = maintainer.maintain(partitioning, emptied, delta)
        assert empty_p.num_groups == 0
        refilled, delta2 = emptied.append_rows(table.take(np.arange(100)))
        rebuilt, stats = maintainer.maintain(empty_p, refilled, delta2)
        assert stats.rebuilt
        assert rebuilt.version == 2
        assert rebuilt.satisfies_size_threshold(60)
        assert rebuilt.maintenance.deltas_applied == 2
        _assert_stats_match_recompute(rebuilt)

    def test_version_mismatch_rejected(self, built):
        table, partitioning = built
        new_table, delta = table.append_rows(table.take(np.arange(5)))
        newer, _ = new_table.append_rows(table.take(np.arange(5)))
        with pytest.raises(PartitioningError, match="version"):
            partitioning.with_delta(newer, delta, np.zeros(5, dtype=np.int64))
        maintained, _ = PartitionMaintainer().maintain(partitioning, new_table, delta)
        with pytest.raises(PartitioningError, match="version"):
            PartitionMaintainer().maintain(maintained, new_table, delta)

    def test_inserted_assignment_must_name_existing_groups(self, built):
        table, partitioning = built
        new_table, delta = table.append_rows(table.take(np.arange(3)))
        bad = np.array([0, 1, partitioning.num_groups], dtype=np.int64)
        with pytest.raises(PartitioningError, match="existing groups"):
            partitioning.with_delta(new_table, delta, bad)

    def test_maintenance_stats_shape(self, built):
        table, partitioning = built
        new_table, delta = table.append_rows(table.take(np.arange(7)))
        _, stats = PartitionMaintainer().maintain(partitioning, new_table, delta)
        assert isinstance(stats, MaintenanceStats)
        assert stats.groups_before == partitioning.num_groups
        assert stats.rows_inserted == 7
        assert stats.rows_deleted == 0
        assert stats.maintain_seconds > 0


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "tau,omega", [(80, None), (300, 2.0)], ids=["tau-only", "tau-and-omega"]
)
def test_property_random_delta_stream(seed, tau, omega):
    """Acceptance property: after ≥20 mixed insert/delete deltas the maintained
    partitioning still satisfies τ (and ω), and its stats are exact."""
    table = galaxy_table(1200, seed=3)
    pool = galaxy_table(2500, seed=1000 + seed)
    partitioning = QuadTreePartitioner(size_threshold=tau, radius_limit=omega).partition(
        table, ATTRIBUTES
    )
    maintainer = PartitionMaintainer()
    rng = np.random.default_rng(seed)

    for _ in range(22):
        choice = rng.random()
        insert = delete = None
        if choice < 0.45 or table.num_rows < 200:
            count = int(rng.integers(10, 60))
            insert = pool.take(rng.choice(pool.num_rows, count, replace=False))
        elif choice < 0.9:
            count = int(rng.integers(5, 40))
            delete = rng.choice(table.num_rows, count, replace=False)
        else:  # mixed delta: delete and insert in one version bump
            insert = pool.take(rng.choice(pool.num_rows, 15, replace=False))
            delete = rng.choice(table.num_rows, 10, replace=False)
        new_table, delta = table.update_rows(insert=insert, delete=delete)
        partitioning, _ = maintainer.maintain(partitioning, new_table, delta)
        table = new_table

    assert partitioning.version == table.version == 22
    assert partitioning.maintenance.deltas_applied == 22
    assert partitioning.satisfies_size_threshold(tau)
    if omega is not None:
        assert partitioning.satisfies_radius_limit(omega)
    _assert_stats_match_recompute(partitioning)


def test_property_sketchrefine_quality_after_maintenance():
    """SKETCHREFINE over a maintained partitioning stays feasible and close in
    objective to SKETCHREFINE over a full rebuild of the final table."""
    from repro.core.sketchrefine import SketchRefineEvaluator
    from repro.core.validation import check_package, objective_value
    from repro.workloads.galaxy import galaxy_workload

    table = galaxy_table(1200, seed=3)
    pool = galaxy_table(2500, seed=17)
    tau = 80
    partitioning = QuadTreePartitioner(size_threshold=tau).partition(table, ATTRIBUTES)
    maintainer = PartitionMaintainer()
    rng = np.random.default_rng(4)
    for _ in range(20):
        if rng.random() < 0.5:
            insert, delete = pool.take(rng.choice(pool.num_rows, 30, replace=False)), None
        else:
            insert, delete = None, rng.choice(table.num_rows, 20, replace=False)
        new_table, delta = table.update_rows(insert=insert, delete=delete)
        partitioning, _ = maintainer.maintain(partitioning, new_table, delta)
        table = new_table

    rebuilt = QuadTreePartitioner(size_threshold=tau).partition(table, ATTRIBUTES)
    workload = galaxy_workload(table)
    query = workload.query("Q5").query

    evaluator = SketchRefineEvaluator()
    maintained_package = evaluator.evaluate(table, query, partitioning)
    assert evaluator.last_stats.partitioning_version == 20
    assert evaluator.last_stats.partitioning_maintenance["deltas_applied"] == 20
    rebuilt_package = evaluator.evaluate(table, query, rebuilt)
    # A fresh rebuild also describes version 20 — but with no maintenance history.
    assert evaluator.last_stats.partitioning_version == 20
    assert evaluator.last_stats.partitioning_maintenance["deltas_applied"] == 0

    assert check_package(maintained_package, query).feasible
    assert check_package(rebuilt_package, query).feasible
    maintained_objective = objective_value(maintained_package, query)
    rebuilt_objective = objective_value(rebuilt_package, query)
    # Both partitionings satisfy the same τ condition, so both evaluations
    # carry the paper's approximation argument; empirically they land within
    # a tight band of each other (Q5 maximises total flux).
    assert maintained_objective == pytest.approx(rebuilt_objective, rel=0.25)


def test_null_attributes_radius_metric_consistent():
    """NULL (NaN) partitioning attributes are zero-filled by the same rule at
    build time, in group_radii, and in the maintenance rescan, so the ω check
    a maintainer enforces equals the one the fresh build enforced."""
    rng = np.random.default_rng(3)
    values = rng.normal(10.0, 2.0, 120)
    values[rng.choice(120, 15, replace=False)] = np.nan
    table = Table.from_dict({"x": values.tolist(), "y": rng.normal(0, 1, 120).tolist()})
    partitioning = QuadTreePartitioner(size_threshold=25).partition(table, ["x", "y"])
    block = Table.from_dict(
        {"x": [11.0, None, 9.5], "y": [0.1, -0.2, 0.0]}
    )
    new_table, delta = table.update_rows(insert=block, delete=[0, 5])
    maintained, _ = PartitionMaintainer().maintain(partitioning, new_table, delta)
    assert maintained.satisfies_size_threshold(25)
    fresh_radii = group_radii(
        new_table, maintained.group_ids, maintained.attributes,
        centroids=maintained.group_centroids(),
    )
    assert np.allclose(maintained.group_radii_array(), fresh_radii)
    assert not np.isnan(maintained.group_radii_array()).any()


def test_build_and_maintenance_omega_metric_agree_on_nulls():
    """A group the ω-limited builder accepts must also pass the published
    radius check, so the first benign maintain() never spuriously re-splits
    groups on NULL data (the builders use the same NULL-excluding centroid)."""
    table = Table.from_dict({"x": [10.0, None, 10.5, None]})
    partitioning = QuadTreePartitioner(size_threshold=10, radius_limit=11.0).partition(
        table, ["x"]
    )
    # Published metric: NULLs measured as 0 against the NULL-excluding
    # centroid (~10.25), radius ~10.25 <= 11 — and build-time acceptance
    # now agrees with it.
    assert partitioning.satisfies_radius_limit(11.0)
    assert partitioning.stats.max_radius <= 11.0
    new_table, delta = table.append_rows([(10.2,)])
    maintained, stats = PartitionMaintainer().maintain(partitioning, new_table, delta)
    assert stats.groups_resplit == 0
    assert maintained.satisfies_radius_limit(11.0)
    _assert_stats_match_recompute(maintained)


def test_partitioning_rejects_bad_attributes_at_construction():
    from repro.errors import SchemaError
    from repro.partition.partitioning import Partitioning, PartitioningStats

    table = galaxy_table(10, seed=1)
    stats = PartitioningStats(1, 10, 0.0, 0.0, 10, None, "manual")
    with pytest.raises(SchemaError):
        Partitioning(table, np.zeros(10, dtype=np.int64), ["no_such_column"], stats)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_carried_sizes_equal_a_bincount_after_every_delta(seed):
    """``with_delta`` and the re-split carry group sizes from the deltas'
    bincounts instead of recounting the gids; after every delta of a stream
    that inserts, deletes, retires whole groups and overflows groups into a
    re-split, they must equal the recount, read-only."""
    table = galaxy_table(900, seed=5)
    pool = galaxy_table(2000, seed=50 + seed)
    partitioning = QuadTreePartitioner(size_threshold=70).partition(table, ATTRIBUTES)
    maintainer = PartitionMaintainer()
    rng = np.random.default_rng(seed)
    seen = {"retired": 0, "resplit": 0}
    for step in range(24):
        kind = ("insert", "delete", "mixed", "retire", "overflow")[step % 5]
        insert = delete = None
        if kind in ("insert", "mixed"):
            insert = pool.take(rng.choice(pool.num_rows, int(rng.integers(5, 30)), replace=False))
        if kind in ("delete", "mixed"):
            delete = rng.choice(table.num_rows, int(rng.integers(5, 30)), replace=False)
        if kind == "retire":
            victim = int(np.argmin(partitioning.group_sizes()))
            delete = np.nonzero(partitioning.group_ids == victim)[0]
        if kind == "overflow":
            # A tight blob at one group's centroid pushes it past tau.
            centroid = partitioning.group_centroids()[int(rng.integers(partitioning.num_groups))]
            insert = pool.take(np.arange(71))
            columns = {name: insert.column(name) for name in insert.schema.names}
            for j, attribute in enumerate(ATTRIBUTES):
                columns[attribute] = rng.normal(centroid[j], 1e-3, 71)
            insert = Table(insert.schema, columns, name=insert.name)
        new_table, delta = table.update_rows(insert=insert, delete=delete)
        partitioning, stats = maintainer.maintain(partitioning, new_table, delta)
        table = new_table
        seen["retired"] += stats.groups_retired
        seen["resplit"] += stats.groups_resplit
        sizes = partitioning.group_sizes()
        assert not sizes.flags.writeable
        assert sizes.dtype == np.int64
        assert np.array_equal(
            sizes, np.bincount(partitioning.group_ids, minlength=partitioning.num_groups)
        ), f"seed={seed} step={step} ({kind})"
        assert partitioning.stats.max_group_size == int(sizes.max())
    assert seen["retired"] > 0 and seen["resplit"] > 0


def reference_segmented_radii(radii, member_gids, per_row):
    """The dirty-group radius block ``with_delta`` ran before the scatter:
    sort members by gid, then ``maximum.reduceat`` each run."""
    radii = radii.copy()
    order = np.argsort(member_gids, kind="stable")
    sorted_gids = member_gids[order]
    starts = np.nonzero(np.diff(sorted_gids, prepend=sorted_gids[0] - 1))[0]
    radii[sorted_gids[starts]] = np.maximum.reduceat(per_row[order], starts)
    return radii


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_scattered_radii_equal_the_sorted_reduceat(data):
    num_groups = data.draw(st.integers(1, 12), label="num_groups")
    dirty = np.array(
        sorted(data.draw(st.sets(st.integers(0, num_groups - 1), min_size=1), label="dirty")),
        dtype=np.int64,
    )
    # Every dirty group has a member (the caller only rescans kept groups).
    extra = data.draw(st.lists(st.sampled_from(dirty.tolist()), max_size=40), label="extra")
    member_gids = np.array(dirty.tolist() + extra, dtype=np.int64)
    member_gids = member_gids[np.random.default_rng(len(extra)).permutation(len(member_gids))]
    per_row = np.abs(
        np.array(
            data.draw(
                st.lists(
                    st.one_of(st.floats(-1e6, 1e6), st.just(np.nan), st.just(-0.0)),
                    min_size=len(member_gids),
                    max_size=len(member_gids),
                ),
                label="per_row",
            ),
            dtype=np.float64,
        )
    )
    radii = np.linspace(0.5, 3.0, num_groups)
    radii[dirty] = 0.0
    with np.errstate(invalid="ignore"):
        expected = reference_segmented_radii(radii, member_gids, per_row)
        np.maximum.at(radii, member_gids, per_row)
    assert radii.tobytes() == expected.tobytes()


def _reference_assign(partitioning, rows):
    """Nearest centroid the way ``_assign_inserted`` found it with a tree."""
    from scipy.spatial import cKDTree

    matrix = np.nan_to_num(rows.numeric_matrix(partitioning.attributes))
    _, assigned = cKDTree(partitioning.group_centroids()).query(matrix, k=1, p=np.inf)
    return np.asarray(assigned, dtype=np.int64)


def test_assignment_equals_the_tree_on_tie_free_rows():
    table = galaxy_table(3000, seed=9)
    partitioning = QuadTreePartitioner(size_threshold=60).partition(table, ATTRIBUTES)
    rows = galaxy_table(2500, seed=10)
    assert partitioning.num_groups >= 8
    assigned = PartitionMaintainer().assign_rows(partitioning, rows)
    assert np.array_equal(assigned, _reference_assign(partitioning, rows))


def test_assignment_ties_go_to_the_lowest_gid():
    from repro.partition.partitioning import Partitioning, PartitioningStats

    # Centroids at x = 4, 0, 2, 6 (gids 0..3).  1, 3 and 5 each sit halfway
    # between two centroids, and the lower of the two gids takes the row.
    table = Table.from_dict({"x": [4.0, 0.0, 2.0, 6.0]})
    stats = PartitioningStats(4, 1, 0.0, 0.0, 10, None, "manual")
    partitioning = Partitioning(table, np.arange(4), ["x"], stats)
    rows = Table.from_dict({"x": [1.0, 3.0, 5.0, 2.0]})
    assigned = PartitionMaintainer().assign_rows(partitioning, rows)
    assert assigned.tolist() == [1, 0, 0, 2]
