#!/usr/bin/env python3
"""What the engine answers on every op of the e2e benchmark, as one digest line each.

A change that claims "same program output" shows it with two files of this
script, one per checkout, and ``diff``: every op of every workload of
``benchmarks/e2e/workloads.py`` runs once, on a fresh session of its workload
(tables, partitioning, solver limits as the benchmark builds them), cache
bypassed, at each data seed.  One JSON line per (data seed, workload, op)::

    {"data_seed": 42, "workload": "direct_mix", "op": "small.Q1",
     "method": "direct", "package": "<sha256 of indices + multiplicities>",
     "objective": "<repr of the float>", "lp_solves": ..,
     "simplex_iterations": .., "vars_fixed": .., "nodes": ..}

The counters are the ones ``execute`` already reports in ``details``: LP
solves, simplex iterations, columns fixed by root presolve and
branch-and-bound nodes (for SKETCHREFINE summed over the sketch and every
refine ILP; ``null`` for a checkout whose stats do not count them).  Equal files mean equal packages, objectives to
the last bit and the same search.  Nothing is timed.

Then the update leg: per data seed, one ``update_requery_20k`` session runs
10 iterations of its delta burst plus its hot set, through the cache, as the
benchmark does.  After each iteration one line records sha256 digests of the
table (version and column bytes), of ``partitioning_signature`` and of the
cache's ``entries_snapshot()``, and per hot-set op its cache status, package
and objective.  A last line says whether ``Database.recover`` over the
session's log rebuilds the live table and partitioning bit for bit.

    python3 benchmarks/output_digest.py --out head.jsonl
    python3 benchmarks/output_digest.py --repo ../base --out base.jsonl
    diff base.jsonl head.jsonl

``--repo`` points the script at another checkout: its ``src`` and its
``benchmarks/e2e`` are imported (read only) in place of this one's, so a
merge base that predates this file can still be digested.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA_SEEDS = (42, 2024, 12)
UPDATE_WORKLOAD = "update_requery_20k"
UPDATE_ITERATIONS = 10
# As benchmarks/e2e/run.py: one BLAS thread (a threaded reduction may sum in
# another order).
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def package_digest(package) -> str:
    import numpy as np

    digest = hashlib.sha256()
    digest.update(np.asarray(package.indices, dtype=np.int64).tobytes())
    digest.update(np.asarray(package.multiplicities, dtype=np.int64).tobytes())
    return digest.hexdigest()


def counters(details: dict) -> dict:
    direct = details.get("direct_stats")
    if direct is not None:
        stats = direct.solve_stats
        return {
            "lp_solves": stats.lp_solves,
            "simplex_iterations": stats.simplex_iterations,
            "vars_fixed": direct.vars_fixed,
            "nodes": stats.nodes_explored,
        }
    sketch = details["sketchrefine_stats"]
    return {
        "lp_solves": sketch.solver_lp_solves,
        "simplex_iterations": sketch.solver_simplex_iterations,
        "vars_fixed": sketch.vars_fixed,
        # A merge base may predate the field (``--repo``).
        "nodes": getattr(sketch, "solver_nodes_explored", None),
    }


def digest_lines(scratch: Path):
    from workloads import WORKLOADS, Session, Sizes

    sizes = Sizes.full()
    for data_seed in DATA_SEEDS:
        for workload in WORKLOADS.values():
            tables = workload.make_tables(data_seed, sizes)
            ops = workload.make_ops(tables, sizes)
            for op in ops:
                session = Session(workload, tables, sizes, 0, scratch / "digest.wal")
                try:
                    result = session.engine.execute(op.text, cache="bypass")
                finally:
                    session.close()
                yield {
                    "data_seed": data_seed,
                    "workload": workload.name,
                    "op": op.name,
                    "method": result.method.value,
                    "package": package_digest(result.package),
                    "objective": repr(float(result.objective)),
                    **counters(result.details),
                }


def sha256_of(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def table_digest(table) -> str:
    columns = (table.column(name) for name in table.schema.names)
    return sha256_of(
        repr(table.version).encode(),
        *(c.tobytes() if c.dtype != object else repr(c.tolist()).encode() for c in columns),
    )


def entries_digest(entries: list[dict]) -> str:
    comparable = [
        {
            **entry,
            "multiplicities": sorted(entry["multiplicities"].items()),
            "groups": sorted(entry["groups"]),
            "objective": repr(entry["objective"]),
        }
        for entry in entries
    ]
    return sha256_of(json.dumps(comparable, sort_keys=True).encode())


def update_lines(scratch: Path):
    from repro.db.catalog import Database
    from repro.partition.maintenance import partitioning_signature
    from workloads import LARGE, UPDATES_PER_ITERATION, WORKLOADS, Session, Sizes

    sizes = Sizes.full()
    workload = WORKLOADS[UPDATE_WORKLOAD]
    for data_seed in DATA_SEEDS:
        tables = workload.make_tables(data_seed, sizes)
        ops = workload.make_ops(tables, sizes)
        wal_path = scratch / "update.wal"
        session = Session(workload, tables, sizes, 0, wal_path)
        engine = session.engine
        try:
            for iteration in range(UPDATE_ITERATIONS):
                for _ in range(UPDATES_PER_ITERATION):
                    engine.update_table(LARGE, **session.next_update_arguments())
                answers = []
                for op in ops:
                    result = engine.execute(op.text, cache=workload.cache)
                    answers.append({
                        "op": op.name,
                        "cache": result.details["cache"]["status"],
                        "package": package_digest(result.package),
                        "objective": repr(float(result.objective)),
                    })
                yield {
                    "data_seed": data_seed,
                    "workload": workload.name,
                    "op": f"update.{iteration}",
                    "table": table_digest(engine.table(LARGE)),
                    "partitioning": sha256_of(
                        repr(partitioning_signature(engine.database.partitioning(LARGE))).encode()
                    ),
                    "answers": answers,
                    "cache_entries": entries_digest(engine.cache.entries_snapshot()),
                }
            recovered = Database.recover(wal_path)
            try:
                equal = table_digest(recovered.table(LARGE)) == table_digest(
                    engine.table(LARGE)
                ) and partitioning_signature(
                    recovered.partitioning(LARGE)
                ) == partitioning_signature(engine.database.partitioning(LARGE))
            finally:
                recovered.wal.storage.close()
            yield {
                "data_seed": data_seed,
                "workload": workload.name,
                "op": "update.recovered",
                "recovered_equals_live": bool(equal),
            }
        finally:
            session.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", default=str(HERE.parent), help="checkout to digest (default: this one)")
    parser.add_argument("--out", required=True, help="JSON-lines file to write")
    args = parser.parse_args(argv)

    os.environ.update(THREAD_PINS)
    repo = Path(args.repo).resolve()
    sys.path[:0] = [str(repo / "src"), str(repo / "benchmarks" / "e2e")]

    out = Path(args.out)
    with tempfile.TemporaryDirectory() as scratch, out.open("w") as handle:
        for line in itertools.chain(digest_lines(Path(scratch)), update_lines(Path(scratch))):
            handle.write(json.dumps(line) + "\n")
            handle.flush()
            summary = line.get("objective", line.get("table", line.get("recovered_equals_live")))
            print(f"{line['data_seed']:>5} {line['workload']:<20} {line['op']:<16} {summary}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
