#!/usr/bin/env python3
"""Reference optima and an outside feasibility check for the e2e benchmark.

Everything here is built from raw table columns and the PaQL AST alone: the
query is linearised by this file, not by ``repro.core.translator``, and solved
by ``scipy.optimize.milp``, not by ``repro.ilp``.  A bug in the engine's
translation or solver therefore cannot hide behind an oracle that shares it.

The optima are committed in ``oracle.json`` keyed by ``<data_seed>/<workload>/
<op>`` so that a benchmark run does not pay the seconds a 20 000-row MILP
costs.  Regenerate with::

    python benchmarks/e2e/oracle.py                 # every vetted data seed
    python benchmarks/e2e/oracle.py --data-seed 42  # one of them

The default data seed is covered at the smoke test's sizes as well.

An entry the MILP could not close within its limit is written with
``"resolved": false`` and listed on stdout; it is never dropped.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ORACLE_PATH = HERE / "oracle.json"

#: Relative feasibility slack, the same 1e-6 the engine's own checker uses,
#: scaled by the magnitude of the row's value and bounds.
FEASIBILITY_TOLERANCE = 1e-6
MILP_REL_GAP = 1e-6
MILP_TIME_LIMIT_S = 120.0


class UnsupportedQuery(ValueError):
    """The query uses a PaQL feature this reference linearisation omits."""


def linearise(query, columns, num_rows):
    """Return ``(objective, maximise, rows)`` for ``query`` over raw columns.

    ``objective`` is one coefficient per tuple; ``rows`` is a list of
    ``(coefficients, lower, upper)`` with infinite bounds where a side is
    open.  ``columns`` maps an attribute name to its float array.
    """
    if query.base_predicate is not None:
        raise UnsupportedQuery("base predicates are not used by the benchmark")

    def term_vector(aggregate):
        if aggregate.filter is not None:
            raise UnsupportedQuery("filtered aggregates are not used by the benchmark")
        function = aggregate.function.value
        if function == "COUNT":
            return np.ones(num_rows)
        if function == "SUM":
            return np.asarray(columns(aggregate.column), dtype=np.float64)
        raise UnsupportedQuery(f"{function} inside a linear combination")

    rows = []
    for constraint in query.global_constraints:
        expression = constraint.expression
        sense = constraint.sense.value
        lower = float(constraint.lower)
        upper = float(constraint.upper) if constraint.upper is not None else None
        averages = [a for _, a in expression.terms if a.function.value == "AVG"]
        if averages:
            # c*AVG(x) + k <= b  <=>  SUM(c*x - (b - k)) <= 0 on a non-empty
            # package; only the single-term one-sided form is linear.
            if len(expression.terms) != 1 or sense not in ("<=", ">=") or averages[0].filter:
                raise UnsupportedQuery("AVG is supported as a lone one-sided term only")
            coefficient = expression.terms[0][0]
            values = np.asarray(columns(averages[0].column), dtype=np.float64)
            vector = coefficient * values - (lower - expression.constant)
            lower, upper = (-np.inf, 0.0) if sense == "<=" else (0.0, np.inf)
            rows.append((vector, lower, upper))
            continue
        vector = np.zeros(num_rows)
        for coefficient, aggregate in expression.terms:
            vector = vector + coefficient * term_vector(aggregate)
        shift = expression.constant
        if sense == "<=":
            bounds = (-np.inf, lower - shift)
        elif sense == ">=":
            bounds = (lower - shift, np.inf)
        elif sense == "=":
            bounds = (lower - shift, lower - shift)
        else:
            bounds = (lower - shift, upper - shift)
        rows.append((vector, *bounds))

    if query.objective is None:
        raise UnsupportedQuery("the benchmark's queries all carry an objective")
    objective = np.zeros(num_rows)
    for coefficient, aggregate in query.objective.expression.terms:
        objective = objective + coefficient * term_vector(aggregate)
    maximise = query.objective.direction.value == "MAXIMIZE"
    return objective, maximise, rows


def solve_optimum(table, query, time_limit=MILP_TIME_LIMIT_S):
    """Solve ``query`` over ``table`` to ``MILP_REL_GAP`` with scipy's MILP."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = table.num_rows
    objective, maximise, rows = linearise(query, table.numeric_column, n)
    upper = np.inf if query.max_multiplicity is None else float(query.max_multiplicity)
    started = time.perf_counter()
    result = milp(
        c=-objective if maximise else objective,
        constraints=LinearConstraint(
            np.vstack([r[0] for r in rows]),
            [r[1] for r in rows],
            [r[2] for r in rows],
        ),
        integrality=np.ones(n),
        bounds=Bounds(0.0, upper),
        # HiGHS presolve is quadratic in the columns of these few-row models
        # (minutes at 20 000 columns, and deaf to the time limit); the
        # branch-and-cut proper closes them in seconds without it.
        options={"mip_rel_gap": MILP_REL_GAP, "time_limit": time_limit, "presolve": False},
    )
    seconds = time.perf_counter() - started
    resolved = result.status == 0 and result.x is not None
    entry = {"resolved": bool(resolved), "maximise": maximise, "seconds": round(seconds, 3)}
    if result.x is not None:
        multiplicities = np.rint(result.x)
        entry["optimum"] = float(objective @ multiplicities)
    if not resolved:
        entry["status"] = str(result.message)
    return entry


def check_answer(table, query, indices, multiplicities):
    """Outside check of one answer package against ``table`` as it is now.

    Returns ``(feasible, objective)``; ``indices`` are row positions in
    ``table`` and ``multiplicities`` how often each is taken.
    """
    n = table.num_rows
    indices = np.asarray(indices, dtype=np.int64)
    multiplicities = np.asarray(multiplicities, dtype=np.float64)
    if len(indices) and (indices.min() < 0 or indices.max() >= n):
        return False, float("nan")
    if len(np.unique(indices)) != len(indices) or (multiplicities < 1).any():
        return False, float("nan")
    limit = query.max_multiplicity
    if limit is not None and len(multiplicities) and multiplicities.max() > limit:
        return False, float("nan")

    def picked(name):
        return np.asarray(table.numeric_column(name), dtype=np.float64)[indices]

    objective, _, rows = linearise(query, picked, len(indices))
    feasible = True
    for vector, lower, upper in rows:
        value = float(vector @ multiplicities)
        finite = [abs(b) for b in (lower, upper) if np.isfinite(b)]
        slack = FEASIBILITY_TOLERANCE * max(1.0, abs(value), *finite)
        if value < lower - slack or value > upper + slack:
            feasible = False
    return feasible, float(objective @ multiplicities)


def objective_ratio(objective, entry):
    """Answer objective over the optimum, oriented so that 1.0 is optimal."""
    optimum = entry["optimum"]
    if entry["maximise"]:
        return objective / optimum
    return optimum / objective


def load_oracle(path=ORACLE_PATH):
    return json.loads(Path(path).read_text())["entries"]


def oracle_key(data_seed, workload, op_name):
    return f"{data_seed}/{workload}/{op_name}"


def main(argv=None):
    sys.path.insert(0, str(HERE))
    from workloads import DATA_SEED, VETTED_DATA_SEEDS, WORKLOADS, Sizes, ensure_repro_importable

    ensure_repro_importable()
    from repro.paql.parser import parse_paql

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--data-seed", type=int, action="append", default=None)
    args = parser.parse_args(argv)
    seeds = args.data_seed or list(VETTED_DATA_SEEDS)
    cases = [(Sizes.full(), seed) for seed in seeds]
    if DATA_SEED in seeds:
        cases.append((Sizes.smoke(), DATA_SEED))

    document = {"entries": {}}
    if ORACLE_PATH.exists():
        document = json.loads(ORACLE_PATH.read_text())
    entries = document["entries"]
    unresolved = []
    for sizes, data_seed in cases:
        for workload in WORKLOADS.values():
            tables = workload.make_tables(data_seed, sizes)
            for op in workload.make_ops(tables, sizes):
                key = oracle_key(sizes.key(data_seed), workload.name, op.name)
                entry = solve_optimum(tables[op.table], parse_paql(op.text))
                entries[key] = entry
                print(f"{key}: {entry}", flush=True)
                if not entry["resolved"]:
                    unresolved.append(key)
    document["milp"] = {"mip_rel_gap": MILP_REL_GAP, "time_limit_s": MILP_TIME_LIMIT_S}
    ORACLE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {ORACLE_PATH} ({len(entries)} entries)")
    for key in unresolved:
        print(f"UNRESOLVED {key}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
