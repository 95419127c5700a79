"""Offline data partitioning (Section 4.1 of the paper).

SKETCHREFINE relies on an offline partitioning of the input relation into
groups of similar tuples, each represented by its centroid.  This subpackage
provides:

* :class:`~repro.partition.partitioning.Partitioning` — the partitioning
  object (group assignments, representative relation, metadata, persistence),
* :class:`~repro.partition.quadtree.QuadTreePartitioner` — the paper's
  k-dimensional quad-tree method honouring a size threshold τ and an optional
  radius limit ω,
* :class:`~repro.partition.kdtree.KdTreePartitioner` and
  :class:`~repro.partition.kmeans.KMeansPartitioner` — the alternative
  clustering approaches the paper discusses (median-split k-d trees and
  Lloyd's k-means, which caps size τ only and takes no radius limit ω), kept
  for the ablation benchmarks,
* :mod:`~repro.partition.radius` — Equation (1): the radius limit ω required
  for a desired approximation parameter ε,
* :mod:`~repro.partition.representatives` — centroid computation and the
  representative relation ``R̃(gid, attr₁, …, attr_k)``,
* :mod:`~repro.partition.maintenance` —
  :class:`~repro.partition.maintenance.PartitionMaintainer`, which carries a
  partitioning through :class:`~repro.dataset.table.TableDelta` streams
  online (nearest-group insert assignment, local re-splits past τ/ω,
  delta-updated centroids and radii) instead of rebuilding; the catalog runs
  it on every update, so a registered partitioning always describes its
  table's current version.
"""

from repro.partition.partitioning import (
    MaintenanceProfile,
    Partitioning,
    PartitioningStats,
)
from repro.partition.quadtree import QuadTreePartitioner
from repro.partition.kdtree import KdTreePartitioner
from repro.partition.kmeans import KMeansPartitioner
from repro.partition.maintenance import (
    MaintenanceStats,
    PartitionMaintainer,
    make_partitioner,
)
from repro.partition.radius import omega_for_epsilon, epsilon_for_omega
from repro.partition.representatives import build_representative_table, compute_centroids

__all__ = [
    "Partitioning",
    "PartitioningStats",
    "MaintenanceProfile",
    "MaintenanceStats",
    "PartitionMaintainer",
    "make_partitioner",
    "QuadTreePartitioner",
    "KdTreePartitioner",
    "KMeansPartitioner",
    "omega_for_epsilon",
    "epsilon_for_omega",
    "build_representative_table",
    "compute_centroids",
]
