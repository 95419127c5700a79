"""The Partitioning object shared by all partitioners and SKETCHREFINE.

A partitioning of relation ``R`` assigns every row a group id ``gid`` and
stores one representative tuple (the group centroid over the partitioning
attributes) per group.  The paper stores the gid in an extra column of the
input table and the representatives in a separate relation
``R̃(gid, attr₁, …, attr_k)``; this class mirrors that design while also
keeping the rows ordered by group (one stable order plus group boundaries),
which is how SKETCHREFINE finds each group's tuples.

A partitioning is *versioned*: it records the :attr:`~repro.dataset.table
.Table.version` of the table it describes.  When the base relation changes,
:meth:`with_delta` carries the partitioning to the next table version without
a rebuild — surviving rows keep their groups, inserted rows arrive with a
caller-chosen group assignment, emptied groups are retired, and the per-group
statistics (sizes, centroid moments and radii) are updated from the delta
alone: only groups actually touched by the change are rescanned.  Enforcing
the τ/ω guarantees on top of that remap (re-splitting overflowing groups) is
the job of :class:`repro.partition.maintenance.PartitionMaintainer`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from repro.dataset.io import load_table, save_table
from repro.dataset.schema import Column, DataType
from repro.dataset.table import Table, TableDelta, survivor_runs, without_rows
from repro.errors import PartitioningError
from repro.partition.representatives import (
    centroid_moments,
    centroids_from_moments,
    group_radii,
    representative_table_from_centroids,
)


#: Float slack applied when the partitioners (and the maintainer's re-split
#: check) compare a group radius against the ω limit — one constant so a
#: maintained partitioning enforces exactly the bound a fresh build does.
BUILD_RADIUS_TOLERANCE = 1e-12


@dataclass
class PartitioningStats:
    """Metadata recorded while building a partitioning."""

    num_groups: int
    max_group_size: int
    max_radius: float
    build_seconds: float
    size_threshold: int
    radius_limit: float | None
    method: str


@dataclass
class MaintenanceProfile:
    """Cumulative record of the incremental maintenance a partitioning absorbed.

    Starts all-zero for a fresh build; every maintained delta increments it.
    Surfaced through ``SketchRefineStats`` so a query result names exactly
    which state of the data plane it ran against.
    """

    deltas_applied: int = 0
    rows_inserted: int = 0
    rows_deleted: int = 0
    groups_created: int = 0
    groups_retired: int = 0
    groups_resplit: int = 0
    maintain_seconds: float = 0.0


def densify_group_ids(
    group_ids: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact a gid assignment with holes into dense ids ``0..G-1``.

    ``sizes[g]`` is the number of rows of ``group_ids`` in slot ``g``.
    Returns ``(dense_ids, kept_slots_mask, remap)`` where ``kept_slots_mask``
    marks the old slots that still have members (use it to slice per-group
    stat arrays) and ``remap[old_gid]`` is the new gid (−1 for retired slots).
    When no slot is empty, ``group_ids`` itself comes back.
    """
    num_slots = len(sizes)
    occupied = sizes > 0
    if occupied.all():
        return group_ids, occupied, np.arange(num_slots, dtype=np.int64)
    remap = np.full(num_slots, -1, dtype=np.int64)
    remap[occupied] = np.arange(int(occupied.sum()), dtype=np.int64)
    dense = remap[group_ids] if len(group_ids) else group_ids.copy()
    return dense, occupied, remap


class Partitioning:
    """Group assignment + representative relation for one input table."""

    def __init__(
        self,
        table: Table,
        group_ids: np.ndarray,
        attributes: list[str],
        stats: PartitioningStats,
        *,
        version: int | None = None,
        maintenance: MaintenanceProfile | None = None,
    ):
        group_ids = np.asarray(group_ids, dtype=np.int64)
        if group_ids.shape != (table.num_rows,):
            raise PartitioningError(
                f"group_ids has shape {group_ids.shape}, expected ({table.num_rows},)"
            )
        if len(group_ids) and group_ids.min() < 0:
            raise PartitioningError("group ids must be non-negative")
        # The per-group caches are lazy, but a bad attribute list should
        # still fail here, not mid-query on first representatives access.
        table.schema.require_numeric(attributes)
        self.table = table
        self.group_ids = group_ids
        self.attributes = list(attributes)
        self.stats = stats
        self.version = table.version if version is None else int(version)
        self.maintenance = maintenance or MaintenanceProfile()

        self._num_groups = int(group_ids.max()) + 1 if len(group_ids) else 0
        # Per-group caches, all lazy so a delta-maintained partitioning can
        # install exact carried-over values instead of recomputing O(n):
        self._rows_by_group: tuple[np.ndarray, np.ndarray] | None = None
        self._sizes: np.ndarray | None = None
        self._moments: tuple[np.ndarray, np.ndarray] | None = None  # (sums, counts)
        self._radii: np.ndarray | None = None
        self._representatives: Table | None = None

    @classmethod
    def _finalize_maintained(
        cls,
        table: Table,
        group_ids: np.ndarray,
        attributes: list[str],
        stats: PartitioningStats,
        *,
        sizes: np.ndarray,
        moments: tuple[np.ndarray, np.ndarray],
        radii: np.ndarray,
        version: int,
        maintenance: MaintenanceProfile,
    ) -> "Partitioning":
        """Shared tail of every maintenance path: derive the size/radius
        aggregates of ``stats`` and build a partitioning whose per-group
        caches are installed from the carried components (the caller
        guarantees ``sizes``, ``moments`` and ``radii`` describe exactly the
        dense ids in ``group_ids``)."""
        num_groups = moments[0].shape[0]
        stats = replace(
            stats,
            num_groups=num_groups,
            max_group_size=int(sizes.max()) if len(sizes) else 0,
            max_radius=float(radii.max()) if len(radii) else 0.0,
            build_seconds=0.0,
        )
        partitioning = cls(
            table, group_ids, attributes, stats, version=version, maintenance=maintenance
        )
        sizes.setflags(write=False)
        partitioning._sizes = sizes
        partitioning._moments = moments
        partitioning._radii = radii
        return partitioning

    # -- group access ------------------------------------------------------------------

    @property
    def num_groups(self) -> int:
        return self._num_groups

    def rows_by_group(self) -> tuple[np.ndarray, np.ndarray]:
        """Every table row ordered by group: ``(order, boundaries)``.

        ``order`` is the stable argsort of :attr:`group_ids`, so
        ``order[boundaries[g] : boundaries[g + 1]]`` are the rows of group
        ``g`` in ascending order.  Both arrays are read-only.  The sort runs
        on the narrowest unsigned type that holds the ids: the same stable
        order, and numpy radix-sorts keys of up to 16 bits.
        """
        if self._rows_by_group is None:
            keys = self.group_ids.astype(np.min_scalar_type(self.num_groups - 1))
            order = np.argsort(keys, kind="stable")
            boundaries = np.searchsorted(keys[order], np.arange(self.num_groups + 1))
            order.setflags(write=False)
            boundaries.setflags(write=False)
            self._rows_by_group = (order, boundaries)
        return self._rows_by_group

    def group_rows(self, gid: int) -> np.ndarray:
        """Row indices of the original table belonging to group ``gid``."""
        if not 0 <= gid < self.num_groups:
            raise PartitioningError(f"group {gid} does not exist")
        order, boundaries = self.rows_by_group()
        return order[boundaries[gid] : boundaries[gid + 1]]

    def group_size(self, gid: int) -> int:
        return len(self.group_rows(gid))

    def group_sizes(self) -> np.ndarray:
        """Array of group sizes indexed by gid (read-only)."""
        if self._sizes is None:
            sizes = np.bincount(self.group_ids, minlength=self.num_groups).astype(np.int64)
            sizes.setflags(write=False)
            self._sizes = sizes
        return self._sizes

    def group_centroid_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-group ``(sums, counts)`` of valid attribute values (do not mutate)."""
        if self._moments is None:
            self._moments = centroid_moments(
                self.table, self.group_ids, self.attributes, self.num_groups
            )
        return self._moments

    def group_centroids(self) -> np.ndarray:
        """The ``(num_groups, k)`` centroid matrix over the partitioning attributes."""
        sums, counts = self.group_centroid_moments()
        return centroids_from_moments(sums, counts)

    @property
    def representatives(self) -> Table:
        """The representative relation ``R̃(gid, attr₁, …, attr_k)``."""
        if self._representatives is None:
            self._representatives = representative_table_from_centroids(
                self.group_centroids(), self.attributes, self.table.name
            )
        return self._representatives

    def group_radii_array(self) -> np.ndarray:
        """Per-group radii indexed by gid (do not mutate)."""
        if self._radii is None:
            self._radii = group_radii(
                self.table, self.group_ids, self.attributes, centroids=self.group_centroids()
            )
        return self._radii

    def group_radius(self, gid: int) -> float:
        """The radius of group ``gid``: max |centroid.attr − tuple.attr| over attributes."""
        if not 0 <= gid < self.num_groups:
            raise PartitioningError(f"group {gid} does not exist")
        return float(self.group_radii_array()[gid])

    def max_radius(self) -> float:
        """Largest group radius in the partitioning."""
        if self.num_groups == 0:
            return 0.0
        return float(self.group_radii_array().max())

    def satisfies_size_threshold(self, tau: int) -> bool:
        """Whether every group has at most ``tau`` tuples."""
        return bool((self.group_sizes() <= tau).all())

    def satisfies_radius_limit(self, omega: float) -> bool:
        """Whether every group radius is at most ``omega``."""
        return self.max_radius() <= omega + 1e-9

    # -- derivation --------------------------------------------------------------------------

    def table_with_gid(self, column_name: str = "gid") -> Table:
        """Return the input table augmented with the group-id column.

        This is the paper's physical design (the gid lives in the relation);
        exposed mainly for examples and persistence.
        """
        return self.table.with_column(Column(column_name, DataType.INT), self.group_ids)

    def restricted_to_rows(self, rows: np.ndarray) -> "Partitioning":
        """Return a partitioning of the sub-table containing only ``rows``.

        The paper derives partitionings for smaller data fractions by removing
        tuples from the 100 % partitioning, which preserves the size condition
        (Section 5.2.1); this method implements that derivation.  Group ids
        are re-densified and empty groups dropped.
        """
        rows = np.asarray(rows, dtype=np.int64)
        sub_table = self.table.take(rows, name=self.table.name)
        old_ids = self.group_ids[rows]
        unique_ids, new_ids = np.unique(old_ids, return_inverse=True)
        stats = PartitioningStats(
            num_groups=len(unique_ids),
            max_group_size=int(np.bincount(new_ids).max()) if len(new_ids) else 0,
            max_radius=self.stats.max_radius,
            build_seconds=0.0,
            size_threshold=self.stats.size_threshold,
            radius_limit=self.stats.radius_limit,
            method=f"{self.stats.method}(restricted)",
        )
        return Partitioning(sub_table, new_ids, self.attributes, stats)

    def with_delta(
        self,
        new_table: Table,
        delta: TableDelta,
        inserted_group_ids: np.ndarray,
    ) -> "Partitioning":
        """Carry this partitioning to ``new_table`` through ``delta``.

        Surviving rows keep their groups, inserted rows join the (existing)
        groups named by ``inserted_group_ids``, groups emptied by deletions
        are retired, and centroid moments are updated from the delta alone —
        only groups actually touched by the change get their radius rescanned.

        The result matches a from-scratch recompute of the same assignment
        (untouched groups bit-identically; touched groups within
        floating-point accumulation tolerance, since their moments are
        updated by subtract/add rather than re-summed) but makes no τ/ω
        promise: groups may overflow the size threshold.  :class:`~repro.partition.maintenance
        .PartitionMaintainer` restores the build guarantees on top.
        """
        if delta.base_version != self.version:
            raise PartitioningError(
                f"delta targets table version {delta.base_version}, "
                f"partitioning is at version {self.version}"
            )
        if new_table.version != delta.new_version:
            raise PartitioningError(
                f"new table is at version {new_table.version}, "
                f"expected {delta.new_version}"
            )
        if delta.deleted_mask.shape != (self.table.num_rows,):
            raise PartitioningError("delta delete mask does not match the base table")
        inserted_group_ids = np.asarray(inserted_group_ids, dtype=np.int64)
        if inserted_group_ids.shape != (delta.num_inserted,):
            raise PartitioningError(
                f"inserted_group_ids has shape {inserted_group_ids.shape}, "
                f"expected ({delta.num_inserted},)"
            )
        num_slots = self.num_groups
        if len(inserted_group_ids) and (
            inserted_group_ids.min() < 0 or inserted_group_ids.max() >= num_slots
        ):
            raise PartitioningError("inserted rows must be assigned to existing groups")

        deleted = delta.deleted_rows()
        deleted_gids = self.group_ids[deleted]
        raw_ids = without_rows(
            self.group_ids, survivor_runs(deleted, len(self.group_ids)), inserted_group_ids
        )

        # Delta-update the sizes and centroid moments: subtract the deleted
        # tuples' contributions, add the inserted ones.
        sizes = (
            self.group_sizes()
            - np.bincount(deleted_gids, minlength=num_slots)
            + np.bincount(inserted_group_ids, minlength=num_slots)
        )
        sums, counts = self.group_centroid_moments()
        sums, counts = sums.copy(), counts.copy()
        dirty = np.union1d(np.unique(deleted_gids), np.unique(inserted_group_ids))
        for j, attribute in enumerate(self.attributes):
            if len(deleted):
                values = self.table.numeric_column(attribute)[deleted]
                valid = ~np.isnan(values)
                sums[:, j] -= np.bincount(
                    deleted_gids[valid], weights=values[valid], minlength=num_slots
                )
                counts[:, j] -= np.bincount(deleted_gids[valid], minlength=num_slots)
            if delta.num_inserted:
                values = delta.inserted.numeric_column(attribute)
                valid = ~np.isnan(values)
                sums[:, j] += np.bincount(
                    inserted_group_ids[valid], weights=values[valid], minlength=num_slots
                )
                counts[:, j] += np.bincount(inserted_group_ids[valid], minlength=num_slots)

        new_ids, kept_slots, remap = densify_group_ids(raw_ids, sizes)
        sizes, sums, counts = sizes[kept_slots], sums[kept_slots], counts[kept_slots]
        centroids = centroids_from_moments(sums, counts)

        # Radii: untouched groups keep their cached value (their centroid is
        # bit-identical); touched groups are rescanned over their members only.
        radii = self.group_radii_array()[kept_slots]
        dirty_remapped = remap[dirty] if len(dirty) else dirty
        dirty_dense = dirty_remapped[dirty_remapped >= 0]
        if len(dirty_dense):
            radii[dirty_dense] = 0.0
            dirty_lookup = np.zeros(len(radii), dtype=bool)
            dirty_lookup[dirty_dense] = True
            member_rows = np.nonzero(dirty_lookup[new_ids])[0]
            if len(member_rows) and self.attributes:
                member_gids = new_ids[member_rows]
                # NULL (NaN) values are zero-filled, matching group_radii and
                # the partitioners' build-time radius metric.  One row per
                # attribute: a max across a few long rows is far cheaper than
                # one along a few-wide axis, and max is exact either way.
                member_matrix = np.nan_to_num(
                    np.stack([new_table.numeric_column(a)[member_rows] for a in self.attributes])
                )
                per_row = np.abs(member_matrix - centroids[member_gids].T).max(axis=0)
                # Segmented max per dirty group, scattered from the zeroed
                # radii: max is exact and order-free (NaN propagates either
                # way), so this equals a sorted reduceat bit for bit.
                np.maximum.at(radii, member_gids, per_row)

        maintenance = replace(
            self.maintenance,
            deltas_applied=self.maintenance.deltas_applied + 1,
            rows_inserted=self.maintenance.rows_inserted + delta.num_inserted,
            rows_deleted=self.maintenance.rows_deleted + len(deleted),
            groups_retired=self.maintenance.groups_retired
            + int(num_slots - kept_slots.sum()),
        )
        return Partitioning._finalize_maintained(
            new_table,
            new_ids,
            self.attributes,
            self.stats,
            sizes=sizes,
            moments=(sums, counts),
            radii=radii,
            version=delta.new_version,
            maintenance=maintenance,
        )

    # -- persistence -----------------------------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Persist the partitioning (gid assignment, representatives, metadata)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        np.save(directory / "group_ids.npy", self.group_ids)
        save_table(self.representatives, directory / "representatives.npz")
        # Persist the maintained per-group state verbatim.  Recomputing it
        # from the table at load time is *almost* the same — but incremental
        # maintenance accumulates centroid sums in a different order (ulp
        # drift) and keeps conservative radii after deletes, so a recompute
        # would silently break the bitwise save/load ↔ live equivalence the
        # crash-recovery suite asserts across checkpoints.
        sums, counts = self.group_centroid_moments()
        np.savez(
            directory / "maintained_state.npz",
            centroid_sums=sums,
            centroid_counts=counts,
            radii=self.group_radii_array(),
        )
        metadata = {
            "attributes": self.attributes,
            "version": self.version,
            "maintenance": asdict(self.maintenance),
            "stats": asdict(self.stats),
        }
        (directory / "metadata.json").write_text(json.dumps(metadata, indent=2))

    @classmethod
    def load(cls, directory: str | Path, table: Table) -> "Partitioning":
        """Load a partitioning previously written with :meth:`save`.

        The original ``table`` must be supplied by the caller (only the group
        assignment and representatives are persisted).
        """
        directory = Path(directory)
        group_ids = np.load(directory / "group_ids.npy")
        metadata = json.loads((directory / "metadata.json").read_text())
        stats = PartitioningStats(**metadata["stats"])
        maintenance = MaintenanceProfile(**metadata.get("maintenance", {}))
        partitioning = cls(
            table,
            group_ids,
            metadata["attributes"],
            stats,
            version=metadata.get("version", table.version),
            maintenance=maintenance,
        )
        state_path = directory / "maintained_state.npz"
        if state_path.is_file():
            state = np.load(state_path)
            partitioning._moments = (state["centroid_sums"], state["centroid_counts"])
            partitioning._radii = state["radii"]
        # Representatives are recomputed deterministically from the data, so
        # the persisted copy is only used as a consistency check.
        persisted = load_table(directory / "representatives.npz")
        if persisted.num_rows != partitioning.representatives.num_rows:
            raise PartitioningError(
                "persisted partitioning does not match the supplied table "
                f"({persisted.num_rows} groups vs {partitioning.representatives.num_rows})"
            )
        return partitioning

    def __repr__(self) -> str:
        return (
            f"Partitioning(groups={self.num_groups}, attributes={self.attributes}, "
            f"method={self.stats.method!r}, version={self.version})"
        )
