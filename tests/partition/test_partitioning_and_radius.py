"""Tests for the Partitioning object, representatives, and the radius/epsilon machinery."""

import numpy as np
import pytest

from repro.dataset.table import Table
from repro.errors import PartitioningError
from repro.paql.ast import ObjectiveDirection
from repro.partition.partitioning import Partitioning, PartitioningStats
from repro.partition.quadtree import QuadTreePartitioner
from repro.partition.radius import (
    approximation_factor,
    epsilon_for_omega,
    gamma_for_epsilon,
    omega_for_epsilon,
)
from repro.partition.representatives import build_representative_table, compute_centroids, group_radii
from repro.workloads.galaxy import galaxy_table


@pytest.fixture(scope="module")
def partitioned_galaxy():
    table = galaxy_table(400, seed=5)
    attributes = ["petroMag_r", "redshift", "petroFlux_r"]
    partitioning = QuadTreePartitioner(size_threshold=50).partition(table, attributes)
    return table, attributes, partitioning


class TestRepresentatives:
    def test_centroids_are_group_means(self):
        table = Table.from_dict({"x": [0.0, 2.0, 10.0, 14.0], "y": [1.0, 3.0, 5.0, 7.0]})
        group_ids = np.array([0, 0, 1, 1])
        centroids = compute_centroids(table, group_ids, ["x", "y"])
        assert centroids.tolist() == [[1.0, 2.0], [12.0, 6.0]]

    def test_centroids_ignore_nans(self):
        table = Table.from_dict({"x": [1.0, None, 5.0]})
        centroids = compute_centroids(table, np.array([0, 0, 0]), ["x"])
        assert centroids[0, 0] == pytest.approx(3.0)

    def test_representative_table_schema(self, partitioned_galaxy):
        table, attributes, partitioning = partitioned_galaxy
        representatives = build_representative_table(table, partitioning.group_ids, attributes)
        assert representatives.schema.names == ("gid",) + tuple(attributes)
        assert representatives.num_rows == partitioning.num_groups

    def test_group_radii_bound_member_distances(self):
        table = Table.from_dict({"x": [0.0, 4.0, 100.0]})
        group_ids = np.array([0, 0, 1])
        radii = group_radii(table, group_ids, ["x"])
        assert radii[0] == pytest.approx(2.0)
        assert radii[1] == pytest.approx(0.0)


class TestPartitioningObject:
    def test_group_rows_partition_the_table(self, partitioned_galaxy):
        _, _, partitioning = partitioned_galaxy
        all_rows = np.concatenate(
            [partitioning.group_rows(g) for g in range(partitioning.num_groups)]
        )
        assert sorted(all_rows.tolist()) == list(range(partitioning.table.num_rows))

    def test_group_size_and_radius(self, partitioned_galaxy):
        _, _, partitioning = partitioned_galaxy
        for gid in range(partitioning.num_groups):
            assert partitioning.group_size(gid) == len(partitioning.group_rows(gid))
            assert partitioning.group_radius(gid) >= 0.0
        assert partitioning.max_radius() == max(
            partitioning.group_radius(g) for g in range(partitioning.num_groups)
        )

    def test_unknown_group_rejected(self, partitioned_galaxy):
        _, _, partitioning = partitioned_galaxy
        with pytest.raises(PartitioningError):
            partitioning.group_rows(9999)
        for gid in (-1, partitioning.num_groups):
            with pytest.raises(PartitioningError):
                partitioning.group_rows(gid)

    def test_rows_by_group_is_the_stable_argsort(self, partitioned_galaxy):
        _, _, partitioning = partitioned_galaxy
        order, boundaries = partitioning.rows_by_group()
        assert np.array_equal(order, np.argsort(partitioning.group_ids, kind="stable"))
        assert np.array_equal(np.diff(boundaries), partitioning.group_sizes())
        assert not order.flags.writeable and not boundaries.flags.writeable
        for gid in range(partitioning.num_groups):
            assert np.array_equal(
                partitioning.group_rows(gid), np.flatnonzero(partitioning.group_ids == gid)
            )
        # Group counts at the edges of the uint8 / uint16 / uint32 sort keys.
        rng = np.random.default_rng(0)
        for num_groups in (256, 257, 65_536, 65_537):
            group_ids = np.concatenate(
                [np.arange(num_groups), rng.integers(0, num_groups, num_groups)]
            )
            rng.shuffle(group_ids)
            table = Table.from_dict({"x": np.zeros(len(group_ids))}, name="t")
            stats = PartitioningStats(num_groups, 0, 0.0, 0.0, 0, None, "manual")
            edge = Partitioning(table, group_ids, ["x"], stats)
            order, boundaries = edge.rows_by_group()
            expected = np.argsort(group_ids, kind="stable")
            assert np.array_equal(order, expected)
            assert np.array_equal(
                boundaries, np.searchsorted(group_ids[expected], np.arange(num_groups + 1))
            )

    def test_maintained_partitioning_orders_rows_like_a_fresh_one(self):
        from repro.partition.maintenance import PartitionMaintainer

        table = galaxy_table(300, seed=6)
        partitioning = QuadTreePartitioner(size_threshold=40).partition(
            table, ["petroMag_r", "redshift"]
        )
        partitioning.rows_by_group()  # cached before the deltas
        maintainer = PartitionMaintainer()
        for step in range(3):
            delete = np.arange(step, table.num_rows, 7)
            delta = table.make_delta(insert=table.head(30), delete=delete)
            new_table = table.apply_delta(delta)
            partitioning, _ = maintainer.maintain(partitioning, new_table, delta)
            table = new_table
            order, boundaries = partitioning.rows_by_group()
            fresh = np.argsort(partitioning.group_ids, kind="stable")
            assert np.array_equal(order, fresh)
            assert np.array_equal(
                boundaries,
                np.searchsorted(partitioning.group_ids[fresh], np.arange(partitioning.num_groups + 1)),
            )

    def test_mismatched_group_ids_rejected(self, small_numeric_table):
        stats = PartitioningStats(1, 5, 0.0, 0.0, 5, None, "manual")
        with pytest.raises(PartitioningError):
            Partitioning(small_numeric_table, np.zeros(3, dtype=np.int64), ["a"], stats)

    def test_table_with_gid_column(self, partitioned_galaxy):
        _, _, partitioning = partitioned_galaxy
        augmented = partitioning.table_with_gid()
        assert "gid" in augmented.schema
        assert augmented.column("gid").tolist() == partitioning.group_ids.tolist()

    def test_restricted_to_rows_preserves_size_condition(self, partitioned_galaxy):
        _, _, partitioning = partitioned_galaxy
        rng = np.random.default_rng(0)
        subset = np.sort(rng.choice(partitioning.table.num_rows, 150, replace=False))
        restricted = partitioning.restricted_to_rows(subset)
        assert restricted.table.num_rows == 150
        # Removing tuples can only shrink groups, never grow them.
        assert restricted.group_sizes().max() <= partitioning.group_sizes().max()
        # Group ids are densified.
        assert set(np.unique(restricted.group_ids)) == set(range(restricted.num_groups))

    def test_save_and_load_round_trip(self, partitioned_galaxy, tmp_path):
        table, _, partitioning = partitioned_galaxy
        partitioning.save(tmp_path / "part")
        loaded = Partitioning.load(tmp_path / "part", table)
        assert loaded.num_groups == partitioning.num_groups
        assert np.array_equal(loaded.group_ids, partitioning.group_ids)
        assert loaded.attributes == partitioning.attributes

    def test_load_with_wrong_table_rejected(self, partitioned_galaxy, tmp_path):
        table, attributes, partitioning = partitioned_galaxy
        partitioning.save(tmp_path / "part2")
        smaller = table.head(50)
        with pytest.raises(PartitioningError):
            Partitioning.load(tmp_path / "part2", smaller)


class TestRadiusFormula:
    def test_gamma_for_maximisation(self):
        assert gamma_for_epsilon(0.2, ObjectiveDirection.MAXIMIZE) == 0.2
        with pytest.raises(PartitioningError):
            gamma_for_epsilon(1.5, ObjectiveDirection.MAXIMIZE)

    def test_gamma_for_minimisation(self):
        assert gamma_for_epsilon(1.0, ObjectiveDirection.MINIMIZE) == pytest.approx(0.5)
        with pytest.raises(PartitioningError):
            gamma_for_epsilon(-0.1, ObjectiveDirection.MINIMIZE)

    def test_omega_uses_smallest_representative_magnitude(self, partitioned_galaxy):
        _, attributes, partitioning = partitioned_galaxy
        omega = omega_for_epsilon(
            partitioning.representatives, attributes, 0.5, ObjectiveDirection.MAXIMIZE
        )
        magnitudes = np.abs(partitioning.representatives.numeric_matrix(attributes))
        assert omega == pytest.approx(0.5 * magnitudes.min())

    def test_epsilon_omega_inverse_relationship(self, partitioned_galaxy):
        _, attributes, partitioning = partitioned_galaxy
        epsilon = 0.3
        omega = omega_for_epsilon(
            partitioning.representatives, attributes, epsilon, ObjectiveDirection.MAXIMIZE
        )
        recovered = epsilon_for_omega(
            partitioning.representatives, attributes, omega, ObjectiveDirection.MAXIMIZE
        )
        assert recovered == pytest.approx(epsilon)

    def test_epsilon_for_omega_minimisation_saturates(self, partitioned_galaxy):
        _, attributes, partitioning = partitioned_galaxy
        huge_omega = 1e12
        assert epsilon_for_omega(
            partitioning.representatives, attributes, huge_omega, ObjectiveDirection.MINIMIZE
        ) == float("inf")

    def test_approximation_factor(self):
        assert approximation_factor(0.0, ObjectiveDirection.MAXIMIZE) == 1.0
        assert approximation_factor(0.1, ObjectiveDirection.MAXIMIZE) == pytest.approx(0.9 ** 6)
        assert approximation_factor(0.1, ObjectiveDirection.MINIMIZE) == pytest.approx(1.1 ** 6)


class TestSaveLoadRoundTrip:
    """Satellite coverage for Partitioning.save/load (metadata, derivation, errors)."""

    def test_metadata_and_stats_equality(self, partitioned_galaxy, tmp_path):
        table, _, partitioning = partitioned_galaxy
        partitioning.save(tmp_path / "part")
        loaded = Partitioning.load(tmp_path / "part", table)
        assert loaded.stats == partitioning.stats
        assert loaded.attributes == partitioning.attributes
        assert loaded.version == partitioning.version
        assert loaded.maintenance == partitioning.maintenance
        assert np.allclose(
            loaded.representatives.numeric_matrix(loaded.attributes),
            partitioning.representatives.numeric_matrix(partitioning.attributes),
        )

    def test_restricted_to_rows_of_loaded_partitioning(self, partitioned_galaxy, tmp_path):
        table, _, partitioning = partitioned_galaxy
        partitioning.save(tmp_path / "part")
        loaded = Partitioning.load(tmp_path / "part", table)
        rng = np.random.default_rng(9)
        subset = np.sort(rng.choice(table.num_rows, 120, replace=False))
        restricted = loaded.restricted_to_rows(subset)
        expected = partitioning.restricted_to_rows(subset)
        assert restricted.table.num_rows == 120
        assert np.array_equal(restricted.group_ids, expected.group_ids)
        assert restricted.group_sizes().max() <= partitioning.group_sizes().max()

    def test_representatives_mismatch_rejected(self, partitioned_galaxy, tmp_path):
        table, attributes, partitioning = partitioned_galaxy
        directory = tmp_path / "part"
        partitioning.save(directory)
        # Corrupt the persisted representatives: drop half the groups.
        from repro.dataset.io import load_table, save_table

        persisted = load_table(directory / "representatives.npz")
        truncated = persisted.head(max(1, persisted.num_rows // 2))
        save_table(truncated, directory / "representatives.npz")
        with pytest.raises(PartitioningError, match="does not match"):
            Partitioning.load(directory, table)

    def test_maintained_partitioning_round_trips_version(self, tmp_path):
        from repro.partition.maintenance import PartitionMaintainer

        table = galaxy_table(300, seed=6)
        attributes = ["petroMag_r", "redshift"]
        partitioning = QuadTreePartitioner(size_threshold=40).partition(table, attributes)
        new_table, delta = table.append_rows(table.head(25))
        maintained, _ = PartitionMaintainer().maintain(partitioning, new_table, delta)
        maintained.save(tmp_path / "part")
        loaded = Partitioning.load(tmp_path / "part", new_table)
        assert loaded.version == 1
        assert loaded.maintenance.deltas_applied == 1
        assert loaded.maintenance.rows_inserted == 25
        assert np.array_equal(loaded.group_ids, maintained.group_ids)
