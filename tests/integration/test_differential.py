"""Randomized differential test harness for the three evaluation strategies.

Every instance is generated from a single integer seed: a small random table
(integer-valued floats, so objective arithmetic is exact in float64) and a
random PaQL query with a strict COUNT, optional SUM bounds and a MIN/MAX
objective.  On each instance the harness asserts:

* NAIVE (exhaustive self-join enumeration) and DIRECT (ILP) agree exactly —
  same infeasibility verdict, and bitwise-equal optimal objectives;
* SKETCHREFINE, when it returns a package, returns a *feasible* one (checked
  by the independent :func:`check_package` oracle); a reported infeasibility
  must either be real (NAIVE agrees) or carry the paper's
  ``false_negative_possible`` flag;
* all of the above still holds after interleaved ``update_table`` deltas, and
  answers served by the result cache equal a ``cache="bypass"`` recompute;
* a crash-and-recover in the middle of an interleaved update/query stream
  (``test_differential_across_crash_recovery``) lands the catalog bitwise on
  the last committed version, never serves a stale cached answer, and the
  full differential keeps holding on the recovered catalog;
* SKETCHREFINE's outcome is reproducible: reruns and a disturbed global NumPy
  RNG leave its package, objective and search shape unchanged, and it never
  moves the global RNG itself (``test_sketchrefine_outcome_is_reproducible``).

A failure is reprintable from its seed alone: the assertion message embeds
the seed and the generated PaQL text, and
``pytest "tests/integration/test_differential.py::test_differential[<seed>]"``
re-runs exactly that instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import PackageQueryEngine
from repro.core.validation import check_package
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.db.catalog import Database
from repro.db.wal import MemoryLogStorage, WalRecord, WriteAheadLog, encode_record
from repro.errors import InfeasiblePackageQueryError
from repro.paql.ast import PackageQuery
from repro.paql.builder import query_over
from repro.paql.pretty import format_paql
from repro.partition.maintenance import partitioning_signature

#: Number of seeded random instances exercised in CI.
NUM_INSTANCES = 55


def _random_table(rng: np.random.Generator) -> Table:
    num_rows = int(rng.integers(8, 13))
    schema = Schema.numeric(["a", "b"])
    return Table(
        schema,
        {
            "a": rng.integers(0, 21, num_rows).astype(np.float64),
            "b": rng.integers(0, 21, num_rows).astype(np.float64),
        },
        name="diff",
    )


def _random_query(rng: np.random.Generator, table: Table) -> PackageQuery:
    cardinality = int(rng.integers(2, 4))
    builder = query_over("diff").no_repetition().count_equals(cardinality)
    b_values = np.sort(table.numeric_column("b"))
    # Bound anchored to the data: the sum of k mid-range b values, widened or
    # tightened at random so both feasible and infeasible instances occur.
    anchor = float(b_values[: cardinality + 2].sum())
    kind = rng.random()
    if kind < 0.3:
        builder = builder.sum_at_most("b", anchor * float(rng.uniform(0.6, 1.6)))
    elif kind < 0.6:
        builder = builder.sum_at_least("b", anchor * float(rng.uniform(0.4, 1.2)))
    elif kind < 0.8:
        low = anchor * float(rng.uniform(0.3, 0.8))
        builder = builder.sum_between("b", low, low + anchor * float(rng.uniform(0.2, 1.0)))
    if rng.random() < 0.5:
        builder = builder.minimize_sum("a")
    else:
        builder = builder.maximize_sum("a")
    return builder.build()


def _random_delta(rng: np.random.Generator, table: Table):
    insert = [
        (float(rng.integers(0, 21)), float(rng.integers(0, 21)))
        for _ in range(int(rng.integers(1, 3)))
    ]
    num_delete = int(rng.integers(0, min(3, table.num_rows - 7) + 1))
    delete = rng.choice(table.num_rows, size=num_delete, replace=False)
    return insert, (delete if num_delete else None)


def _objective_or_infeasible(engine: PackageQueryEngine, query, method: str):
    """Evaluate and return ``(objective, feasible, exception)``."""
    try:
        result = engine.execute(query, method=method, cache="bypass")
    except InfeasiblePackageQueryError as exc:
        return float("nan"), False, exc
    return result.objective, True, None


def _context(seed: int, query, phase: str, test: str = "test_differential") -> str:
    return (
        f"[seed={seed}, {phase}] reproduce with: "
        f"pytest 'tests/integration/test_differential.py::{test}[{seed}]'\n"
        f"{format_paql(query)}"
    )


def _check_instance(
    engine: PackageQueryEngine,
    query,
    seed: int,
    phase: str,
    test: str = "test_differential",
) -> None:
    context = _context(seed, query, phase, test)

    naive_objective, naive_feasible, _ = _objective_or_infeasible(engine, query, "naive")
    direct_objective, direct_feasible, _ = _objective_or_infeasible(engine, query, "direct")

    assert naive_feasible == direct_feasible, (
        f"{context}\nNAIVE feasible={naive_feasible} but DIRECT feasible={direct_feasible}"
    )
    if naive_feasible:
        assert naive_objective == direct_objective, (
            f"{context}\nNAIVE objective {naive_objective!r} != DIRECT {direct_objective!r}"
        )

    # SKETCHREFINE: any returned package must pass the independent checker; a
    # claimed infeasibility must be real or flagged as possibly false.
    try:
        sketch = engine.execute(query, method="sketchrefine", cache="bypass")
    except InfeasiblePackageQueryError as exc:
        assert (not naive_feasible) or exc.false_negative_possible, (
            f"{context}\nSKETCHREFINE claimed a hard infeasibility on a feasible instance"
        )
    else:
        assert check_package(sketch.package, query).feasible, (
            f"{context}\nSKETCHREFINE returned an infeasible package"
        )

    # Cache differential: a served answer equals the bypass recompute.
    engine.execute(query, method="direct", cache="refresh")
    cached = engine.execute(query, method="direct")
    assert cached.details["cache"]["status"] == "hit", context
    if direct_feasible:
        assert cached.objective == direct_objective, (
            f"{context}\ncached DIRECT objective {cached.objective!r} "
            f"!= fresh {direct_objective!r}"
        )


#: Seeds for the reproducibility sweep (a strided subset of the full
#: differential population — each instance is evaluated four times per
#: table version, so the sweep is deliberately smaller).
REPRODUCIBILITY_SEEDS = tuple(range(0, NUM_INSTANCES, 5))


def _sketchrefine_outcome(engine: PackageQueryEngine, query):
    """SKETCHREFINE's full observable outcome for one evaluation.

    Captures everything the determinism contract covers: the exact package
    (row → multiplicity), the exact objective, the search-shape statistics,
    or — on infeasibility — the exception's identity-relevant fields.
    """
    try:
        result = engine.execute(query, method="sketchrefine", cache="bypass")
    except InfeasiblePackageQueryError as exc:
        return ("infeasible", str(exc), exc.false_negative_possible)
    stats = engine._sketchrefine.last_stats
    package = tuple(sorted(result.package.as_multiplicity_map().items()))
    return (
        "package",
        package,
        result.objective,
        stats.refine_queries,
        stats.refine_rounds,
        stats.merge_deferrals,
        stats.backtracks,
        stats.groups_in_sketch,
        stats.used_hybrid_sketch,
    )


@pytest.mark.parametrize("seed", REPRODUCIBILITY_SEEDS)
def test_sketchrefine_outcome_is_reproducible(seed: int):
    """SKETCHREFINE's outcome depends on the query and the data alone.

    For each seeded instance the same query runs twice on a fresh engine,
    then twice more on a second fresh engine after the process-global NumPy
    RNG has been drawn from: identical packages, identical objectives,
    identical search shape (rounds, merge deferrals, backtracks) — or
    identical infeasibility verdicts — are required, before and after a
    table delta.  None of the runs moves the global RNG.
    """
    rng = np.random.default_rng(1_000_003 * (seed + 1))
    table = _random_table(rng)
    query = _random_query(rng, table)
    insert, delete = _random_delta(np.random.default_rng(seed + 77), table)

    outcomes: list[list] = []
    for global_draws in (0, 1000):
        np.random.seed(seed)
        np.random.random(global_draws)
        expected_draws = np.random.random(3)
        np.random.seed(seed)
        np.random.random(global_draws)

        engine = PackageQueryEngine()
        engine.register_table(table, name="diff")
        engine.build_partitioning("diff", ["a", "b"], size_threshold=4)
        phases = [_sketchrefine_outcome(engine, query), _sketchrefine_outcome(engine, query)]
        engine.update_table("diff", insert=insert, delete=delete)
        phases += [_sketchrefine_outcome(engine, query), _sketchrefine_outcome(engine, query)]

        context = f"[seed={seed}, {global_draws} global draws]"
        assert np.array_equal(np.random.random(3), expected_draws), (
            f"{context} SKETCHREFINE moved the global NumPy RNG\n{format_paql(query)}"
        )
        for first, rerun, phase in ((0, 1, "initial"), (2, 3, "after delta")):
            assert phases[rerun] == phases[first], (
                f"{context} SKETCHREFINE outcome diverged on a rerun ({phase}):\n"
                f"first: {phases[first]}\nrerun: {phases[rerun]}\n{format_paql(query)}"
            )
        outcomes.append(phases)

    assert outcomes[1] == outcomes[0], (
        f"[seed={seed}] SKETCHREFINE outcome moved with the global NumPy RNG:\n"
        f"0 draws:    {outcomes[0]}\n1000 draws: {outcomes[1]}\n{format_paql(query)}"
    )


@pytest.mark.parametrize("seed", range(NUM_INSTANCES))
def test_differential(seed: int):
    rng = np.random.default_rng(1_000_003 * (seed + 1))
    engine = PackageQueryEngine()
    table = _random_table(rng)
    engine.register_table(table, name="diff")
    engine.build_partitioning("diff", ["a", "b"], size_threshold=4)
    query = _random_query(rng, table)

    _check_instance(engine, query, seed, phase="initial")

    # Interleave one or two versioned deltas and re-run the whole comparison
    # on each new table version.
    for round_number in range(int(rng.integers(1, 3))):
        insert, delete = _random_delta(rng, engine.table("diff"))
        engine.update_table("diff", insert=insert, delete=delete)
        _check_instance(engine, query, seed, phase=f"after delta {round_number + 1}")


#: Seeds for the crash-recovery differential (a strided subset — each
#: instance runs the full three-method comparison twice plus a recovery).
CRASH_RECOVERY_SEEDS = tuple(range(0, NUM_INSTANCES, 3))


def _serve_or_infeasible(engine: PackageQueryEngine, query, cache: str):
    """``(objective, feasible, package_map)`` under the given cache mode."""
    try:
        result = engine.execute(query, method="direct", cache=cache)
    except InfeasiblePackageQueryError:
        return float("nan"), False, None
    return result.objective, True, tuple(sorted(result.package.as_multiplicity_map().items()))


@pytest.mark.parametrize("seed", CRASH_RECOVERY_SEEDS)
def test_differential_across_crash_recovery(seed: int):
    """Interleaved update/query, crash, recover, re-query — never stale.

    The catalog runs on a write-ahead log; the cache is warmed between
    updates.  The crash keeps only the log's durable bytes — in half the
    instances with a torn tail of an in-flight, never-fsynced commit
    appended — and recovery must (a) land tables and partitionings bitwise
    on the last committed version, (b) serve post-recovery cached answers
    that equal a bypass recompute, and (c) keep the full NAIVE/DIRECT/
    SKETCHREFINE differential holding on the recovered catalog.
    """
    rng = np.random.default_rng(1_000_003 * (seed + 1) + 13)
    storage = MemoryLogStorage()
    engine = PackageQueryEngine(database=Database(wal=WriteAheadLog(storage)))
    engine.register_table(_random_table(rng), name="diff")
    engine.build_partitioning("diff", ["a", "b"], size_threshold=4)
    query = _random_query(rng, engine.table("diff"))
    context = _context(seed, query, "crash-recover", "test_differential_across_crash_recovery")

    # Interleaved update/query stream, warming the cache along the way.
    for _ in range(int(rng.integers(1, 3))):
        insert, delete = _random_delta(rng, engine.table("diff"))
        engine.update_table("diff", insert=insert, delete=delete)
        _serve_or_infeasible(engine, query, cache="use")

    # Crash.  Durable log bytes survive; sometimes the crash cut an
    # in-flight commit short, leaving a torn tail replay must discard.
    durable = storage.durable
    if rng.random() < 0.5:
        in_flight = engine.table("diff").make_delta(insert=[(1.0, 2.0)])
        frame = encode_record(WalRecord.update("diff", in_flight, "maintain"))
        durable += frame[: int(rng.integers(1, len(frame)))]
    surviving_cache = engine.cache
    recovered = Database.recover(
        WriteAheadLog(MemoryLogStorage(durable)), caches=[surviving_cache]
    )

    # (a) Bitwise-exact recovery of the last committed version.
    assert recovered.table("diff").version == engine.table("diff").version, context
    assert recovered.table("diff").equals(engine.table("diff")), context
    assert partitioning_signature(recovered.partitioning("diff")) == (
        partitioning_signature(engine.database.partitioning("diff"))
    ), context

    # (b) Whatever the surviving cache serves equals a bypass recompute.
    restarted = PackageQueryEngine(database=recovered, cache=surviving_cache)
    served = _serve_or_infeasible(restarted, query, cache="use")
    fresh = _serve_or_infeasible(restarted, query, cache="bypass")
    assert served == fresh, (
        f"{context}\ncache served {served!r} after recovery but bypass says {fresh!r}"
    )

    # (c) The differential itself still holds, including after further
    # updates committed by the recovered catalog.
    _check_instance(
        restarted, query, seed, phase="post-recovery",
        test="test_differential_across_crash_recovery",
    )
    insert, delete = _random_delta(rng, restarted.table("diff"))
    restarted.update_table("diff", insert=insert, delete=delete)
    _check_instance(
        restarted, query, seed, phase="post-recovery delta",
        test="test_differential_across_crash_recovery",
    )


def test_harness_runs_enough_instances():
    """The acceptance criterion pins a floor on the differential coverage."""
    assert NUM_INSTANCES >= 50
