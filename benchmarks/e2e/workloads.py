"""Workloads of the e2e benchmark: tables, op lists and engine set-up.

The dataset is fixed: ``galaxy_table(rows, seed=DATA_SEED)``.  Branch-and-bound
cost on a Galaxy table varies by two orders of magnitude from one data seed to
the next (Q1 at 2 000 rows: 0.14 s at seed 4, 10.6 s at seed 1), so a dataset
that followed ``--seed`` could not be compared from run to run.  ``--seed``
drives what a client of a fixed database varies: the order of the ops in every
pass and, on the update workload, which rows each delta inserts and deletes.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]

#: The dataset.  The alternates were vetted at this commit: every op of every
#: workload finishes well under the deadline on them (see METRICS.md).
DATA_SEED = 42
VETTED_DATA_SEEDS = (42, 2024, 12)

#: Per-solve time limit handed to the engine's solver: the op deadline.
DEADLINE_S = 15.0

PARTITION_ATTRIBUTES = ["petroMag_r", "redshift", "petroFlux_r"]
#: One iteration of the update workload: a burst of deltas, each inserting
#: and deleting this many rows, then the hot set.
UPDATES_PER_ITERATION = 4
UPDATE_ROWS = 10
SMALL, LARGE = "galaxy_small", "galaxy_large"


def ensure_repro_importable() -> None:
    """Put the checkout's ``src`` on the path; exit when there is none."""
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2e benchmark: no engine to measure under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


@dataclass(frozen=True)
class Sizes:
    """Row counts of the two tables, the group size cap and the pass shape."""

    small_rows: int
    large_rows: int
    tau: int
    refine_cardinalities: tuple[int, ...]
    update_iterations: int
    label: str

    @classmethod
    def full(cls) -> "Sizes":
        return cls(1_600, 20_000, 250, (200, 500, 1000), 50, "")

    @classmethod
    def smoke(cls) -> "Sizes":
        # 2 400, not 2 000: AUTO only leaves DIRECT above 2 000 rows.
        return cls(300, 2_400, 100, (300, 600), 2, "smoke")

    def key(self, data_seed: int) -> str:
        return f"{data_seed}-{self.label}" if self.label else str(data_seed)


@dataclass(frozen=True)
class Op:
    """One query op: PaQL text against one catalog table."""

    name: str
    table: str
    text: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tables: tuple[str, ...]
    partitioned: bool
    cache: str
    updates: bool
    galaxy_queries: tuple[tuple[str, tuple[str, ...]], ...] = ()
    refine_shape: bool = False

    def make_tables(self, data_seed: int, sizes: Sizes) -> dict:
        from repro.workloads.galaxy import galaxy_table

        rows = {SMALL: sizes.small_rows, LARGE: sizes.large_rows}
        return {name: galaxy_table(rows[name], seed=data_seed) for name in self.tables}

    def make_ops(self, tables: dict, sizes: Sizes) -> list[Op]:
        from repro.paql.pretty import format_paql
        from repro.workloads.galaxy import galaxy_workload

        ops: list[Op] = []
        for table_name, wanted in self.galaxy_queries:
            queries = {q.name: q.query for q in galaxy_workload(tables[table_name]).queries}
            for query_name in wanted:
                query = dataclasses.replace(queries[query_name], relation=table_name)
                short = "small" if table_name == SMALL else "large"
                ops.append(Op(f"{short}.{query_name}", table_name, format_paql(query)))
        if self.refine_shape:
            for cardinality in sizes.refine_cardinalities:
                query = _refine_query(tables[LARGE], cardinality)
                ops.append(Op(f"large.c{cardinality}", LARGE, format_paql(query)))
        return ops


def _refine_query(table, cardinality: int):
    """The ``benchmarks/parallel_refine.py`` shape: the answer must straddle
    at least ``cardinality / tau`` groups, so refine has many ILPs to solve."""
    from repro.paql.builder import query_over

    mean_z = float(np.mean(table.numeric_column("redshift")))
    mean_mag = float(np.mean(table.numeric_column("petroMag_r")))
    return (
        query_over(LARGE, name=f"refine_c{cardinality}")
        .no_repetition()
        .count_equals(cardinality)
        .sum_between("redshift", 0.7 * mean_z * cardinality, 1.3 * mean_z * cardinality)
        .sum_between("petroMag_r", 0.9 * mean_mag * cardinality, 1.1 * mean_mag * cardinality)
        .maximize_sum("petroFlux_r")
        .build()
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "direct_mix",
            "AUTO resolves to DIRECT: branch-and-bound over HiGHS LPs on 1 600 rows, "
            "translate and one wide LP on 20 000 unpartitioned rows; cache bypassed",
            (SMALL, LARGE), False, "bypass", False,
            galaxy_queries=((SMALL, ("Q1", "Q3", "Q4", "Q5", "Q6")), (LARGE, ("Q3", "Q5"))),
        ),
        Workload(
            "sketch_20k",
            "AUTO resolves to SKETCHREFINE over 288 groups: the sketch ILP dominates "
            "and refine is a few tiny solves; cache bypassed",
            (LARGE,), True, "bypass", False,
            galaxy_queries=((LARGE, ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")),),
        ),
        Workload(
            "refine_20k",
            "packages of 200 to 1 000 tuples straddle many groups: refine rounds, "
            "merges and deferrals are nearly all the time; cache bypassed",
            (LARGE,), True, "bypass", False,
            refine_shape=True,
        ),
        Workload(
            "update_requery_20k",
            "writes beside reads: each delta is logged, fsynced and maintained, then "
            "the hot set is re-asked through the cache (served, revalidated or re-solved)",
            (LARGE,), True, "use", True,
            galaxy_queries=((LARGE, ("Q3", "Q5")),),
        ),
    )
}


class Session:
    """One engine built the way a user builds it, plus the update stream."""

    def __init__(self, workload: Workload, tables: dict, sizes: Sizes, seed: int, wal_path):
        from repro.core.engine import PackageQueryEngine
        from repro.db.catalog import Database
        from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits

        self.sizes = sizes
        self.wal_path = Path(wal_path) if workload.updates else None
        database = Database(wal=self.wal_path) if workload.updates else None
        self.engine = PackageQueryEngine(
            database=database,
            solver=BranchAndBoundSolver(limits=SolverLimits(time_limit_seconds=DEADLINE_S)),
        )
        for name in workload.tables:
            self.engine.register_table(tables[name], name=name)
        self.partition_groups = 0
        if workload.partitioned:
            self.partition_groups = self.engine.build_partitioning(
                LARGE, PARTITION_ATTRIBUTES, size_threshold=sizes.tau
            ).num_groups
        self._pristine = tables.get(LARGE)
        self._delta_rng = np.random.default_rng([seed, 1])

    def next_update_arguments(self) -> dict:
        """Seeded delta: rows to insert and live rows to delete.

        Inserts are copies of rows of the table as it was registered, not of
        the live one: copying live rows thins the table's variety with every
        generation, and how many generations a run sees depends on how fast
        it runs.
        """
        inserts = self._delta_rng.choice(self._pristine.num_rows, UPDATE_ROWS, replace=False)
        deletes = self._delta_rng.choice(self.engine.table(LARGE).num_rows, UPDATE_ROWS, replace=False)
        return {
            "insert": self._pristine.take(inserts), "delete": np.sort(deletes), "policy": "maintain",
        }

    def close(self) -> None:
        wal = self.engine.database.wal
        if wal is not None:
            wal.close()
        if self.wal_path is not None and self.wal_path.exists():
            self.wal_path.unlink()


def delta_payload_bytes(arguments: dict) -> int:
    """Bytes a client must hand over to describe one update."""
    inserted = arguments["insert"]
    columns = sum(inserted.column(name).nbytes for name in inserted.schema.names)
    return int(columns + np.asarray(arguments["delete"]).nbytes)
