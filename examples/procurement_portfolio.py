#!/usr/bin/env python3
"""Procurement portfolio selection over a TPC-H-style table.

A purchasing department must pick a bundle of part-supplier offers: bounded
total availability, a cap on total part size, minimising total supply cost —
the paper's TPC-H Q2-style workload.  The script demonstrates:

* the per-query NULL projection of the pre-joined table (Figure 3),
* writing the query in raw PaQL and validating it against the schema,
* false infeasibility (Section 4.4): an over-constrained query that the plain
  sketch cannot satisfy is rescued by the hybrid sketch, and a query that
  every sketch misses is answered by AUTO with DIRECT.

Run with::

    python examples/procurement_portfolio.py
"""

import numpy as np

from repro import PackageQueryEngine, parse_paql
from repro.core.validation import check_package
from repro.dataset.table import Table
from repro.errors import InfeasiblePackageQueryError
from repro.paql import validate_query
from repro.workloads.tpch import query_projection, tpch_table, tpch_workload


def main() -> None:
    prejoined = tpch_table(num_rows=3_000, seed=5)
    workload = tpch_workload(prejoined, seed=5)
    print(f"Pre-joined TPC-H table: {prejoined.num_rows} tuples, {prejoined.num_columns} columns")

    # ----------------------------------------------------- per-query NULL projection
    print("\nPer-query projections (Figure 3 of the paper):")
    for workload_query in workload.queries:
        projection = query_projection(prejoined, workload_query.query)
        print(f"  {workload_query.name}: {projection.num_rows:5d} non-NULL tuples "
              f"on {sorted(workload_query.attributes)}")

    # ------------------------------------------------------------ the portfolio query
    q2 = workload.query("Q2")
    table = query_projection(prejoined, q2.query)
    mean_avail = float(np.mean(table.numeric_column("availqty")))
    mean_size = float(np.mean(table.numeric_column("partsize")))

    paql_text = f"""
    SELECT PACKAGE(T) AS P
    FROM portfolio T REPEAT 0
    SUCH THAT COUNT(P.*) = 10 AND
              SUM(P.availqty) BETWEEN {0.6 * mean_avail * 10:.1f} AND {1.4 * mean_avail * 10:.1f} AND
              SUM(P.partsize) <= {mean_size * 10 * 1.2:.1f}
    MINIMIZE SUM(P.supplycost)
    """
    query = parse_paql(paql_text)
    validate_query(query, table.schema)

    engine = PackageQueryEngine()
    engine.register_table(table, name="portfolio")
    engine.build_partitioning(
        "portfolio",
        ["availqty", "partsize", "supplycost"],
        size_threshold=max(1, table.num_rows // 12),
    )

    direct = engine.execute(query, method="direct")
    sketch = engine.execute(query, method="sketchrefine")
    print("\n=== Procurement portfolio ===")
    print(f"DIRECT       : cost = {direct.objective:10.2f} in {direct.wall_seconds:.2f}s")
    print(f"SKETCHREFINE : cost = {sketch.objective:10.2f} in {sketch.wall_seconds:.2f}s "
          f"(ratio {sketch.objective / direct.objective:.3f})")
    print(f"both packages feasible: {direct.feasible and sketch.feasible}")

    # ------------------------------------------ false infeasibility & the hybrid sketch
    # An aggressively tight availability window: feasible, but the group
    # centroids are too average to hit it, so the plain sketch fails and a
    # hybrid sketch (one group's centroid swapped for its tuples) answers.
    tight_query = parse_paql(f"""
    SELECT PACKAGE(T) AS P
    FROM portfolio T REPEAT 0
    SUCH THAT COUNT(P.*) = 2 AND
              SUM(P.availqty) BETWEEN {table.numeric_column('availqty').min() * 2:.1f}
                                  AND {table.numeric_column('availqty').min() * 2 + 50:.1f}
    MINIMIZE SUM(P.supplycost)
    """)

    print("\n=== False infeasibility (Section 4.4) ===")
    hybrid = engine.execute(tight_query, method="sketchrefine")
    report = check_package(hybrid.package, tight_query)
    print(f"hybrid sketch used: {hybrid.details['sketchrefine_stats'].used_hybrid_sketch}; "
          f"cost {hybrid.objective:.2f}, feasible={report.feasible}")

    # Four offers, two groups ({0, 10} and {100, 110}): the target 100 is
    # missed by every sketch, plain or hybrid, though {0, 100} meets it.
    offers = PackageQueryEngine(auto_direct_threshold=1)
    offers.register_table(Table.from_dict({"v": [0.0, 10.0, 100.0, 110.0]}, name="offers"))
    offers.build_partitioning("offers", ["v"], size_threshold=2)
    every_sketch_misses = """
    SELECT PACKAGE(R) FROM offers R
    SUCH THAT COUNT(*) = 2 AND SUM(R.v) BETWEEN 99.5 AND 100.5
    MAXIMIZE SUM(R.v)
    """
    try:
        offers.execute(every_sketch_misses, method="sketchrefine")
    except InfeasiblePackageQueryError as error:
        print(f"SKETCHREFINE: {error} "
              f"(false negative possible: {error.false_negative_possible})")
    answer = offers.execute(every_sketch_misses)
    print(f"AUTO: {answer.method.name}, objective {answer.objective:.1f}")
    print(f"  {answer.details['auto']}")


if __name__ == "__main__":
    main()
