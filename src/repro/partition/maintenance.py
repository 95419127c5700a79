"""Incremental (online) maintenance of offline partitionings.

The paper treats partitioning as a one-time offline cost; this module makes
it survive a changing base relation without ever paying a full re-partition
on the hot path.  Given a :class:`~repro.dataset.table.TableDelta`,
:class:`PartitionMaintainer` produces a partitioning of the new table version
that satisfies the *same* τ (and ω, when configured) guarantees as a fresh
build:

* inserted tuples are assigned to the enclosing/nearest existing group —
  vectorised nearest-centroid under the Chebyshev (max-abs) metric, the same
  metric the radius condition uses, so a tuple landing inside a group's ball
  joins that group;
* deletions shrink groups; groups emptied entirely are retired and the gid
  space re-densified;
* centroids and radii are updated from delta statistics (carried sum/count
  moments; only groups touched by the delta are rescanned) rather than
  recomputed from scratch;
* any group pushed over τ — or past ω — by the delta is re-split *locally*
  by the partitioner the partitioning was originally built with, exactly as
  a fresh build would split it.

Because every group in the result satisfies the build conditions, the
SKETCHREFINE approximation story (Section 4.2's false-infeasibility and
ω-approximation guarantees) is unchanged under maintenance; the property
tests assert the maintained statistics match a from-scratch recompute under
random insert/delete streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.dataset.table import Table, TableDelta
from repro.errors import PartitioningError
from repro.partition.kdtree import KdTreePartitioner
from repro.partition.kmeans import KMeansPartitioner
from repro.partition.partitioning import (
    BUILD_RADIUS_TOLERANCE,
    MaintenanceProfile,
    Partitioning,
    PartitioningStats,
    densify_group_ids,
)
from repro.partition.quadtree import QuadTreePartitioner

#: Insert blocks are matched against centroids in chunks of this many rows so
#: the (rows × groups × attributes) distance tensor stays cache-sized.
_ASSIGN_CHUNK = 1024


def _base_method(method: str) -> str:
    """Strip derivation suffixes: ``"quadtree(restricted)"`` → ``"quadtree"``."""
    return method.split("(")[0].strip().lower()


def is_known_method(method: str) -> bool:
    """Whether :func:`make_partitioner` can resolve this method string."""
    return _base_method(method) in ("quadtree", "kdtree", "kmeans")


def make_partitioner(method: str, size_threshold: int, radius_limit: float | None):
    """Instantiate the partitioner class named by a ``PartitioningStats.method``.

    Derived method strings (``"quadtree(restricted)"``) resolve to their base
    method; unknown methods raise :class:`PartitioningError`, as do invalid
    parameters (propagated from the partitioner constructors) and a radius
    limit ω for k-means, which has no radius condition to honour it with.
    """
    base = _base_method(method)
    if base == "quadtree":
        return QuadTreePartitioner(size_threshold, radius_limit)
    if base == "kdtree":
        return KdTreePartitioner(size_threshold, radius_limit)
    if base == "kmeans":
        if radius_limit is not None:
            raise PartitioningError(
                f"partitioning method {method!r} takes no radius limit "
                f"(got {radius_limit!r}); use 'quadtree' or 'kdtree' for ω"
            )
        return KMeansPartitioner(size_threshold)
    raise PartitioningError(f"unknown partitioning method {method!r}")


@dataclass
class MaintenanceStats:
    """What one maintained delta did to a partitioning."""

    rows_inserted: int = 0
    rows_deleted: int = 0
    groups_before: int = 0
    groups_after: int = 0
    groups_retired: int = 0
    groups_resplit: int = 0
    groups_created: int = 0
    rebuilt: bool = False
    maintain_seconds: float = 0.0
    touched_groups: frozenset = frozenset()
    """Group ids (in the *pre-delta* gid space) that received inserts or lost
    rows to deletions.  Delta-aware result caches use this to decide whether a
    cached package — whose tuples all live in other groups — can survive the
    update without a re-solve."""
    groups_renumbered: bool = False
    """Whether the gid space changed (groups retired, re-split or rebuilt), in
    which case pre-delta group ids no longer name the same groups."""


class PartitionMaintainer:
    """Applies :class:`TableDelta` streams to partitionings online.

    Local re-splits use the partitioning's original method (via
    :func:`make_partitioner`), falling back to a quad-tree when the method
    string is unknown.
    """

    def maintain(
        self, partitioning: Partitioning, new_table: Table, delta: TableDelta
    ) -> tuple[Partitioning, MaintenanceStats]:
        """Carry ``partitioning`` through ``delta`` onto ``new_table``.

        Returns the maintained partitioning (at ``delta.new_version``,
        satisfying the original τ/ω conditions) and the maintenance profile
        of this single delta.
        """
        start = time.perf_counter()
        stats = MaintenanceStats(
            rows_inserted=delta.num_inserted,
            rows_deleted=delta.num_deleted,
            groups_before=partitioning.num_groups,
        )

        if partitioning.num_groups == 0:
            # Nothing to maintain incrementally: an empty partitioning has no
            # groups to receive inserts, so (re)build from the new table.
            maintained = self._rebuild(partitioning, new_table, delta)
            stats.rebuilt = True
            stats.groups_created = maintained.num_groups
            stats.groups_renumbered = True
        else:
            inserted_gids = self._assign_inserted(partitioning, delta.inserted)
            maintained = partitioning.with_delta(new_table, delta, inserted_gids)
            # Computed only after with_delta validated the delta's shape and
            # version against the partitioning.
            deleted_gids = partitioning.group_ids[delta.deleted_rows()]
            stats.touched_groups = frozenset(
                np.union1d(np.unique(deleted_gids), np.unique(inserted_gids)).tolist()
            )
            stats.groups_retired = partitioning.num_groups - (
                maintained.num_groups
            )
            maintained, resplit, created = self._resplit_violators(maintained)
            stats.groups_resplit = resplit
            stats.groups_created = created
            stats.groups_renumbered = bool(stats.groups_retired or resplit)

        stats.groups_after = maintained.num_groups
        stats.maintain_seconds = time.perf_counter() - start
        maintained.maintenance.maintain_seconds += stats.maintain_seconds
        return maintained, stats

    def assign_rows(self, partitioning: Partitioning, rows: Table) -> np.ndarray:
        """Preview which group each row of ``rows`` would join on insert.

        This is exactly the nearest-centroid assignment :meth:`maintain`
        applies to a delta's inserted block, exposed so callers (benchmarks,
        cache-aware load shapers) can predict a delta's touched groups
        without committing it.
        """
        return self._assign_inserted(partitioning, rows)

    # -- internals -------------------------------------------------------------------------

    def _partitioner_for(self, stats: PartitioningStats):
        try:
            return make_partitioner(stats.method, stats.size_threshold, stats.radius_limit)
        except PartitioningError:
            # Externally built partitionings with exotic method strings still
            # get their τ/ω restored — by the paper's default partitioner.
            return QuadTreePartitioner(stats.size_threshold, stats.radius_limit)

    def _rebuild(
        self, partitioning: Partitioning, new_table: Table, delta: TableDelta
    ) -> Partitioning:
        if delta.base_version != partitioning.version:
            raise PartitioningError(
                f"delta targets table version {delta.base_version}, "
                f"partitioning is at version {partitioning.version}"
            )
        if new_table.version != delta.new_version:
            raise PartitioningError(
                f"new table is at version {new_table.version}, "
                f"expected {delta.new_version}"
            )
        partitioner = self._partitioner_for(partitioning.stats)
        rebuilt = partitioner.partition(new_table, partitioning.attributes)
        rebuilt.version = delta.new_version
        rebuilt.maintenance = replace(
            partitioning.maintenance,
            deltas_applied=partitioning.maintenance.deltas_applied + 1,
            rows_inserted=partitioning.maintenance.rows_inserted + delta.num_inserted,
            rows_deleted=partitioning.maintenance.rows_deleted + delta.num_deleted,
            groups_created=partitioning.maintenance.groups_created + rebuilt.num_groups,
        )
        return rebuilt

    @staticmethod
    def _assign_inserted(partitioning: Partitioning, inserted: Table) -> np.ndarray:
        """Nearest-centroid group assignment for an inserted row block.

        Uses the Chebyshev (max-abs) distance over the partitioning
        attributes — the metric of the radius condition — so a tuple inside
        some group's radius ball is assigned to (one of) its enclosing
        group(s), and an outlier to the group whose ball needs the least
        inflation to take it.  A row equally near several centroids joins
        the lowest gid among them.  A delta inserts a few rows against a few
        hundred centroids, so one brute-force pass beats building a tree.
        """
        if inserted.num_rows == 0:
            return np.empty(0, dtype=np.int64)
        centroids = partitioning.group_centroids()
        matrix = np.nan_to_num(inserted.numeric_matrix(partitioning.attributes))
        assigned = np.empty(inserted.num_rows, dtype=np.int64)
        num_attributes = matrix.shape[1]
        columns = [np.ascontiguousarray(centroids[:, j]) for j in range(num_attributes)]
        for begin in range(0, inserted.num_rows, _ASSIGN_CHUNK):
            block = matrix[begin : begin + _ASSIGN_CHUNK]
            # Accumulate the Chebyshev distance one attribute at a time: 2-D
            # contiguous ops beat one (rows × groups × k) broadcast by a lot.
            distances = np.abs(block[:, 0:1] - columns[0][None, :])
            for j in range(1, num_attributes):
                np.maximum(
                    distances,
                    np.abs(block[:, j : j + 1] - columns[j][None, :]),
                    out=distances,
                )
            assigned[begin : begin + _ASSIGN_CHUNK] = distances.argmin(axis=1)
        return assigned

    def _resplit_violators(
        self, maintained: Partitioning
    ) -> tuple[Partitioning, int, int]:
        """Locally re-split every group violating τ (or ω) after the remap."""
        tau = maintained.stats.size_threshold
        omega = maintained.stats.radius_limit
        sizes = maintained.group_sizes()
        violating = sizes > tau
        if omega is not None:
            violating |= maintained.group_radii_array() > omega + BUILD_RADIUS_TOLERANCE
        violator_gids = np.nonzero(violating)[0]
        if not len(violator_gids):
            return maintained, 0, 0

        partitioner = self._partitioner_for(maintained.stats)
        table = maintained.table
        new_gids = maintained.group_ids.copy()
        sums, counts = maintained.group_centroid_moments()
        # The re-split groups' old slots empty out; their rows move to the
        # sub-partitionings' slots appended after them.
        size_blocks = [np.where(violating, 0, sizes)]
        sum_blocks, count_blocks = [sums], [counts]
        radius_blocks = [maintained.group_radii_array()]
        next_gid = maintained.num_groups
        created = 0
        for gid in violator_gids:
            # A direct scan beats materialising every group's row list (that
            # argsorts the whole assignment) when only a few groups overflow.
            rows = np.nonzero(maintained.group_ids == gid)[0]
            sub = partitioner.partition(
                table.take(rows, name=table.name), maintained.attributes
            )
            new_gids[rows] = next_gid + sub.group_ids
            sub_sums, sub_counts = sub.group_centroid_moments()
            size_blocks.append(sub.group_sizes())
            sum_blocks.append(sub_sums)
            count_blocks.append(sub_counts)
            radius_blocks.append(sub.group_radii_array())
            created += sub.num_groups
            next_gid += sub.num_groups

        all_sizes = np.concatenate(size_blocks)
        dense_ids, kept_slots, _ = densify_group_ids(new_gids, all_sizes)
        all_sizes = all_sizes[kept_slots]
        all_sums = np.vstack(sum_blocks)[kept_slots]
        all_counts = np.vstack(count_blocks)[kept_slots]
        all_radii = np.concatenate(radius_blocks)[kept_slots]
        maintenance = replace(
            maintained.maintenance,
            groups_resplit=maintained.maintenance.groups_resplit + len(violator_gids),
            groups_created=maintained.maintenance.groups_created + created,
        )
        result = Partitioning._finalize_maintained(
            table,
            dense_ids,
            maintained.attributes,
            maintained.stats,
            sizes=all_sizes,
            moments=(all_sums, all_counts),
            radii=all_radii,
            version=maintained.version,
            maintenance=maintenance,
        )
        return result, int(len(violator_gids)), created


def partitioning_signature(partitioning: Partitioning) -> dict:
    """A complete, comparable fingerprint of a partitioning's maintained state.

    Maintenance is deterministic: carrying the same partitioning through the
    same delta stream — whether live or during write-ahead-log replay after a
    crash — must land on *identical* state.  This helper makes that claim
    checkable with one ``==``: it captures the gid assignment, the per-group
    centroid moments and radii (as raw bytes, so the comparison is bitwise,
    not tolerance-based), the version, the build stats and the cumulative
    maintenance profile.
    """
    sums, counts = partitioning.group_centroid_moments()
    timeless = replace(partitioning.maintenance, maintain_seconds=0.0)
    return {
        "version": partitioning.version,
        "num_groups": partitioning.num_groups,
        "group_ids": partitioning.group_ids.tobytes(),
        "centroid_sums": sums.tobytes(),
        "centroid_counts": counts.tobytes(),
        "radii": partitioning.group_radii_array().tobytes(),
        "attributes": tuple(partitioning.attributes),
        "stats": replace(partitioning.stats, build_seconds=0.0),
        "maintenance": timeless,
    }
