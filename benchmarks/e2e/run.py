#!/usr/bin/env python3
"""End-to-end benchmark of the default engine path.

One workload, the way the driver calls it (last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload sketch_20k --seed 7 --seconds 24 --trace 0

Every workload, each in a fresh child process, one after another::

    python3 benchmarks/e2e/run.py [--seed 42] [--trace] [--repeat 10] [--out A.json]

A run is one client in a closed loop on one thread (BLAS/OpenMP pinned to 1,
``REPRO_WORKERS`` unset so the engine's own default applies).  Queries go in as
PaQL text, so parsing is on the path.  Set-up (register, partition, one warm-up
pass) is timed as ``setup_s``; whole passes over the op list then repeat until
``--seconds`` have been measured, so the op mix of a run is always the same.
Every answer is checked from outside the engine (``oracle.py``).  The bounded
timings are quiet-time estimates and say so in their names; the same times as
measured (wall, every sample) are printed beside them.  METRICS.md documents
every name printed here.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_REPEATS = 3
DIRECT_RATIO_FLOOR = 1.0 - 2e-4
RATIO_CEILING = 1.0 + 1e-5
EPILOGUE_DELTAS = 50
EPILOGUE_CHECKPOINT_AFTER = 25
EPILOGUE_RECOVERIES = 5  # traced run; an untraced run recovers once, for the equality check


def percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# --------------------------------------------------------------------------- one op

UPDATE = "update"


class OpLog:
    """What the timed ops of a run produced, for the metrics and the checks.

    Times are kept per op class: a query op's name plus how it was answered
    (``solved``, a cache ``hit``, ``revalidated`` by the cache, or ``failed``),
    and ``update``.  On a static table every sample of a class is the same
    work; on the update workload it is the same kind of work.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.ratios: list[float] = []
        self.failures: list[str] = []
        self.unresolved_oracle: set[str] = set()
        self.counts: dict[str, float] = defaultdict(float)
        self.passes = 0

    @property
    def updates(self) -> int:
        return len(self.samples.get(UPDATE, ()))

    @property
    def queries(self) -> int:
        return sum(len(v) for key, v in self.samples.items() if key != UPDATE)

    def quiet_classes(self) -> dict[str, tuple[int, float]]:
        """``{class: (count, quiet seconds)}``.  Other tenants of the host only
        ever add time, for seconds to minutes on end, so the quiet time of a
        class, what it takes when nothing else has the core, is its fastest
        sample."""
        return {key: (len(v), min(v)) for key, v in self.samples.items()}


def mix_percentile(classes: list[tuple[int, float]], q: float) -> float:
    """Smallest class time that ``q`` of the op mix does not exceed."""
    total = sum(count for count, _ in classes)
    covered = 0
    for count, seconds in sorted(classes, key=lambda c: c[1]):
        covered += count
        if covered >= q * total:
            return seconds
    raise ValueError("empty op mix")


class Runner:
    """Drives one session: passes of ops, each answer checked from outside."""

    def __init__(self, workload, session, ops, queries, oracle, oracle_prefix, order_rng, tracer):
        self.workload = workload
        self.session = session
        self.ops = ops
        self.queries = queries
        self.oracle = oracle
        self.oracle_prefix = oracle_prefix
        self.order_rng = order_rng
        self.tracer = tracer
        self.next_op_id = 0
        self.table_moves = workload.updates

    def _begin_op(self) -> None:
        self.tracer.op = self.next_op_id
        self.next_op_id += 1

    def run_pass(self, log: OpLog | None) -> None:
        from workloads import UPDATES_PER_ITERATION

        iterations = self.session.sizes.update_iterations if self.workload.updates else 1
        for _ in range(iterations):
            for _ in range(UPDATES_PER_ITERATION if self.workload.updates else 0):
                self.run_update(log)
            for position in self.order_rng.permutation(len(self.ops)):
                self.run_query(self.ops[position], log)
        if log is not None:
            log.passes += 1

    def run_update(self, log: OpLog | None) -> None:
        from workloads import LARGE, delta_payload_bytes

        arguments = self.session.next_update_arguments()
        wal_before = self.session.wal_path.stat().st_size
        self._begin_op()
        started = time.perf_counter()
        try:
            outcome = self.session.engine.update_table(LARGE, **arguments)
            error = None
        except Exception as exc:  # the benchmark must outlive a failing op to count it
            outcome, error = None, exc
        seconds = time.perf_counter() - started
        if log is None:
            return
        log.samples[UPDATE].append(seconds)
        if error is not None:
            log.failures.append(f"update: {type(error).__name__}: {error}")
            return
        log.counts["wal_bytes"] += self.session.wal_path.stat().st_size - wal_before
        log.counts["payload_bytes"] += delta_payload_bytes(arguments)
        for stats in outcome.maintained.values():
            log.counts["touched_groups"] += len(stats.touched_groups)
            log.counts["groups_resplit"] += stats.groups_resplit
        if outcome.table.num_rows != self.session.sizes.large_rows:
            log.failures.append(f"update: table has {outcome.table.num_rows} rows")

    def run_query(self, op, log: OpLog | None) -> None:
        self._begin_op()
        started = time.perf_counter()
        try:
            result = self.session.engine.execute(op.text, cache=self.workload.cache)
            error = None
        except Exception as exc:  # the benchmark must outlive a failing op to count it
            result, error = None, exc
        seconds = time.perf_counter() - started
        if log is None:
            return
        failure = f"{type(error).__name__}: {error}" if error else self.check(op, result, seconds, log)
        if failure is not None:
            log.failures.append(f"{op.name}: {failure}")
            log.samples[f"{op.name}/failed"].append(seconds)
            return
        status = result.details["cache"]["status"]
        answered = status if status in ("hit", "revalidated") else "solved"
        log.samples[f"{op.name}/{answered}"].append(seconds)
        self.count(result, log)

    def check(self, op, result, seconds, log: OpLog) -> str | None:
        from oracle import check_answer, objective_ratio, oracle_key
        from workloads import DEADLINE_S

        if seconds >= DEADLINE_S:
            return f"reached the {DEADLINE_S:.0f} s deadline ({seconds:.1f} s)"
        direct = result.details.get("direct_stats")
        if direct is not None and direct.solver_status.value != "optimal":
            return f"solver stopped at a limit (status {direct.solver_status.value})"
        table = self.session.engine.table(op.table)
        package = result.package
        feasible, objective = check_answer(
            table, self.queries[op.name], package.indices, package.multiplicities
        )
        if not feasible:
            return "answer is infeasible on the current table"
        if abs(objective - result.objective) > 1e-9 * max(1.0, abs(objective)):
            return f"engine reports objective {result.objective}, the rows give {objective}"
        if self.table_moves:
            return None  # no optimum can be committed for a table that follows the seed
        key = oracle_key(self.oracle_prefix, self.workload.name, op.name)
        entry = self.oracle.get(key)
        if entry is None or not entry["resolved"]:
            log.unresolved_oracle.add(key)
            return None
        ratio = objective_ratio(objective, entry)
        log.ratios.append(ratio)
        if ratio > RATIO_CEILING:
            return f"objective ratio {ratio} beats the proven optimum"
        if result.method.value == "direct" and ratio < DIRECT_RATIO_FLOOR:
            return f"DIRECT objective ratio {ratio} is below {DIRECT_RATIO_FLOOR}"
        return None

    @staticmethod
    def count(result, log: OpLog) -> None:
        counts = log.counts
        counts["cache." + result.details["cache"]["status"]] += 1
        direct = result.details.get("direct_stats")
        if direct is not None:
            counts["direct_ops"] += 1
            counts["nnz"] += direct.constraint_nnz
        sketch = result.details.get("sketchrefine_stats")
        if sketch is not None:
            counts["refine_queries"] += sketch.refine_queries
            counts["refine_rounds"] += sketch.refine_rounds
            counts["merge_deferrals"] += sketch.merge_deferrals
            counts["backtracks"] += sketch.backtracks
            counts["parallel_tasks"] += sketch.refine_parallel_tasks
            counts["workers"] = sketch.refine_workers


# --------------------------------------------------------------------------- recovery epilogue


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def recovery_epilogue(workload, tables, sizes, seed, scratch: Path, recoveries: int) -> dict:
    """Constant work: a fresh catalog, exactly 50 deltas, a checkpoint after
    25, then ``recoveries`` recoveries, each compared bit for bit with the
    live state."""
    from repro.db.catalog import Database
    from repro.partition.maintenance import partitioning_signature
    from workloads import LARGE, Session

    wal_path, snapshot = scratch / "epilogue.wal", scratch / "epilogue-snapshot"
    session = Session(workload, tables, sizes, seed, wal_path)
    outcome = {"equal": True}
    try:
        database = session.engine.database
        for done in range(EPILOGUE_DELTAS):
            if done == EPILOGUE_CHECKPOINT_AFTER:
                started = time.perf_counter()
                database.checkpoint(snapshot)
                outcome["checkpoint_ms"] = (time.perf_counter() - started) * 1000.0
                outcome["snapshot_bytes"] = directory_bytes(snapshot)
            session.engine.update_table(LARGE, **session.next_update_arguments())
        live_table = database.table(LARGE)
        live_signature = partitioning_signature(database.partitioning(LARGE))
        recover_ms = []
        for _ in range(recoveries):
            started = time.perf_counter()
            recovered = Database.recover(wal_path, snapshot)
            recover_ms.append((time.perf_counter() - started) * 1000.0)
            table = recovered.table(LARGE)
            same = table.version == live_table.version and all(
                table.column(name).tobytes() == live_table.column(name).tobytes()
                for name in live_table.schema.names
            )
            same = same and (
                partitioning_signature(recovered.partitioning(LARGE)) == live_signature
            )
            outcome["equal"] = outcome["equal"] and bool(same)
            outcome["records"] = len(recovered.wal.records())
            recovered.wal.storage.close()
        outcome["recover_ms"] = statistics.median(recover_ms)
    finally:
        session.close()
        shutil.rmtree(snapshot, ignore_errors=True)
    return outcome


# --------------------------------------------------------------------------- metrics


def end_to_end_metrics(log: OpLog, setup_s: list[float], ratio: float) -> dict:
    """The bounded metrics.  The three timings are quiet-time estimates: the
    op mix as counted, each op class at its quiet time."""
    classes = log.quiet_classes()
    query_mix = [c for key, c in classes.items() if key != UPDATE]
    busy_s = sum(count * seconds for count, seconds in classes.values())
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "quiet_queries_per_s": (log.queries / busy_s, "1/s"),
        "query_ms_quiet_p50": (mix_percentile(query_mix, 0.5) * 1000.0, "ms"),
        "query_ms_quiet_p90": (mix_percentile(query_mix, 0.9) * 1000.0, "ms"),
        "objective_ratio_mean": (ratio, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measured_timings(log: OpLog, epilogue: dict) -> dict:
    """The same ops as the wall clock saw them, every sample, no estimator.

    Between two runs of the same code on a shared host these differ by a
    tenth and more, so none of them can carry a bound; they are what shows a
    stall that the quiet-time estimates are blind to.  A name is left out
    where the workload has no such op.
    """
    query_s = [t for key, v in log.samples.items() if key != UPDATE for t in v]
    update_s = log.samples.get(UPDATE, [])
    timings = {
        "queries_per_s": (len(query_s) / (sum(query_s) + sum(update_s)), "1/s"),
        "query_ms_p50": (percentile(query_s, 50) * 1000.0, "ms"),
        "query_ms_p90": (percentile(query_s, 90) * 1000.0, "ms"),
        "query_samples": (len(query_s), "count"),
    }
    if update_s:
        timings["update_ms_p50"] = (percentile(update_s, 50) * 1000.0, "ms")
        timings["update_ms_p90"] = (percentile(update_s, 90) * 1000.0, "ms")
    if "recover_ms" in epilogue:
        timings["recover_ms"] = (epilogue["recover_ms"], "ms")
    return timings


def per_layer_metrics(log, setup, timed, overhead, partition_groups, epilogue) -> dict:
    """Map span totals and public counts to the names METRICS.md documents.

    ``setup`` and ``timed`` are SpanSummary objects over the traced set-up and
    the traced passes.  Times are mean ms per query op, or per update op for
    the layers only an update runs.
    """
    total, own, calls, under = timed.total_ms, timed.self_ms, timed.calls, timed.under_ms
    counts = log.counts
    measured = measured_timings(log, epilogue)
    lookups = counts["cache.hit"] + counts["cache.revalidated"] + counts["cache.miss"]

    def q(value):  # per query op
        return value / max(1, log.queries)

    def u(value):  # per update op
        return value / max(1, log.updates)

    def share(part, whole):
        return part / whole if whole else 0.0

    ms, count, ratio = "ms", "count", "ratio"
    return {
        "paql.parse_ms": (q(total["paql.parse"]), ms),
        "paql.validate_ms": (q(total["paql.validate"]), ms),
        "paql.fingerprint_ms": (q(total["paql.fingerprint"]), ms),
        "cache.lookup_ms": (q(total["cache.lookup"]), ms),
        "cache.store_ms": (q(total["cache.store"]), ms),
        "cache.notify_ms": (u(total["cache.notify"]), ms),
        "cache.served_share": (share(lookups - counts["cache.miss"], lookups), ratio),
        "cache.revalidated_share": (share(counts["cache.revalidated"], lookups), ratio),
        "cache.invalidations": (u(counts["invalidations"]), count),
        "translator.translate_ms": (q(total["translator.translate"]), ms),
        "translator.nnz": (share(counts["nnz"], counts["direct_ops"]), count),
        "direct.self_ms": (q(own["direct.evaluate"]), ms),
        "ilp.solve_ms": (q(total["ilp.solve"]), ms),
        "ilp.solve_calls": (q(calls["ilp.solve"]), count),
        "ilp.presolve_ms": (q(total["ilp.presolve"]), ms),
        "ilp.lp_ms": (q(total["ilp.lp"]), ms),
        "ilp.lp_calls": (q(calls["ilp.lp"]), count),
        "ilp.lp_ms_per_call": (share(total["ilp.lp"], calls["ilp.lp"]), ms),
        "ilp.nodes": (q(timed.counts[("ilp.solve", "nodes")]), count),
        "ilp.bnb_self_ms": (q(own["ilp.solve"]), ms),
        "ilp.vars_fixed": (q(timed.counts[("ilp.solve", "vars_fixed")]), count),
        "sketchrefine.sketch_solve_ms": (q(under[("ilp.solve", "sketchrefine.evaluate")]), ms),
        "sketchrefine.refine_solve_ms": (q(under[("ilp.solve", "exec.task")]), ms),
        "sketchrefine.self_ms": (q(own["sketchrefine.evaluate"]), ms),
        "sketchrefine.refine_queries": (q(counts["refine_queries"]), count),
        "sketchrefine.refine_rounds": (q(counts["refine_rounds"]), count),
        "sketchrefine.merge_deferrals": (q(counts["merge_deferrals"]), count),
        "sketchrefine.backtracks": (q(counts["backtracks"]), count),
        "sketchrefine.useful_refine_share": (
            1.0 - counts["merge_deferrals"] / counts["refine_queries"] if counts["refine_queries"] else 0.0,
            ratio,
        ),
        "exec.task_ms": (q(total["exec.task"]), ms),
        "exec.task_overhead_ms": (q(own["exec.task"]), ms),
        "exec.pool_map_calls": (q(calls["exec.pool_map"]), count),
        "exec.parallel_tasks": (q(counts["parallel_tasks"]), count),
        "exec.workers": (counts["workers"], count),
        "validation.check_ms": (q(total["validation.check"] + total["validation.objective"]), ms),
        "engine.self_ms": (q(own["engine.execute"]), ms),
        "engine.span_cover": (
            share(total["engine.execute"] - own["engine.execute"], total["engine.execute"]), ratio,
        ),
        "engine.queries_per_s": measured["queries_per_s"],
        "engine.query_ms_p50": measured["query_ms_p50"],
        "engine.query_ms_p90": measured["query_ms_p90"],
        "engine.query_samples": measured["query_samples"],
        "partition.build_ms": (setup.total_ms["partition.build"], ms),
        "partition.groups": (partition_groups, count),
        "partition.maintain_ms": (u(total["partition.maintain"]), ms),
        "partition.touched_groups": (u(counts["touched_groups"]), count),
        "partition.groups_resplit": (u(counts["groups_resplit"]), count),
        "dataset.make_delta_ms": (u(total["dataset.make_delta"]), ms),
        "dataset.apply_delta_ms": (u(total["dataset.apply_delta"]), ms),
        "db.update_ms_p50": measured.get("update_ms_p50", (0.0, ms)),
        "db.update_ms_p90": measured.get("update_ms_p90", (0.0, ms)),
        "db.update_self_ms": (u(own["db.update_table"] + own["engine.update_table"]), ms),
        "db.wal_append_ms": (u(own["db.wal_append"]), ms),
        "db.wal_fsync_ms": (u(total["db.wal_fsync"]), ms),
        "db.wal_bytes_per_update": (u(counts["wal_bytes"]), "B"),
        "db.wal_write_amp": (share(counts["wal_bytes"], counts["payload_bytes"]), ratio),
        "db.checkpoint_ms": (epilogue.get("checkpoint_ms", 0.0), ms),
        "db.snapshot_bytes": (epilogue.get("snapshot_bytes", 0), "B"),
        "db.recover_ms": measured.get("recover_ms", (0.0, ms)),
        "db.recover_records": (epilogue.get("records", 0), count),
        "db.recover_ms_per_record": (
            share(epilogue.get("recover_ms", 0.0), epilogue.get("records", 0)), ms,
        ),
        "trace_overhead": (overhead, ratio),
    }


# --------------------------------------------------------------------------- one workload


@contextlib.contextmanager
def engine_default_workers():
    """``REPRO_WORKERS`` unset while a workload is measured, put back after.

    The engine reads the variable whenever it builds a solve pool.  Unset, its
    own default applies: one worker, refine solves in-process, which is also
    where the trace can see them (a wrapper around ``run_solve_task`` cannot
    be shipped to a worker process).
    """
    saved = os.environ.pop("REPRO_WORKERS", None)
    try:
        yield
    finally:
        if saved is not None:
            os.environ["REPRO_WORKERS"] = saved


def run_workload(name, seed, seconds, trace, smoke, data_seed) -> tuple[dict, dict]:
    """Measure one workload in this process; returns ``(result, info)``."""
    with engine_default_workers():
        return _run_workload(name, seed, seconds, trace, smoke, data_seed)


def _run_workload(name, seed, seconds, trace, smoke, data_seed) -> tuple[dict, dict]:
    import numpy as np
    from oracle import load_oracle
    from repro.paql.parser import parse_paql
    from tracing import SpanSummary, Tracer
    from workloads import WORKLOADS, Session, Sizes

    workload = WORKLOADS[name]
    sizes = Sizes.smoke() if smoke else Sizes.full()
    tables = workload.make_tables(data_seed, sizes)
    ops = workload.make_ops(tables, sizes)
    queries = {op.name: parse_paql(op.text) for op in ops}
    scratch = OUT_DIR / f"scratch-{name}-{seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    oracle = load_oracle()

    def traced():
        """The span wrappers are on inside this block, in a traced run only."""
        return tracer if trace else contextlib.nullcontext()

    def fresh_runner(wal_name="live.wal"):
        session = Session(workload, tables, sizes, seed, scratch / wal_name)
        return Runner(
            workload, session, ops, queries, oracle, sizes.key(data_seed),
            np.random.default_rng([seed, 0]), tracer,
        )

    runner = None
    log, untraced_log, pristine_log = OpLog(), OpLog(), None
    epilogue: dict = {}
    try:
        # Set-up, several times over: the median is what a later change that
        # moves work into set-up has to answer for.  Traced once when tracing.
        setup_s = []
        with traced():
            for _ in range(1 if trace or smoke else SETUP_REPEATS):
                if runner is not None:
                    runner.session.close()
                started = time.perf_counter()
                runner = fresh_runner()
                runner.run_pass(None)
                setup_s.append(time.perf_counter() - started)
        setup_spans_end = len(tracer.spans)

        # A table that follows the seed has no committed optimum, so the
        # objective ratio of an update workload is taken once, untimed, on
        # the table as registered.
        if workload.updates:
            pristine, pristine_log = fresh_runner("pristine.wal"), OpLog()
            pristine.table_moves = False
            for op in ops:
                pristine.run_query(op, pristine_log)
            pristine.session.close()

        # Timed passes: whole passes until the time is up (smoke: two passes).
        # A traced run spends a third of them untraced first, so that the
        # cost of tracing is itself measured.
        min_passes = 2 if smoke else 1
        timed_s = 0.0 if smoke else seconds
        if trace:
            deadline = time.perf_counter() + timed_s / 3.0
            while not untraced_log.passes or time.perf_counter() < deadline:
                runner.run_pass(untraced_log)
            timed_s, min_passes = timed_s * 2.0 / 3.0, 1
        cache = runner.session.engine.cache
        invalidations_before = cache.stats_snapshot()["invalidations"]
        with traced():
            deadline = time.perf_counter() + timed_s
            while log.passes < min_passes or time.perf_counter() < deadline:
                runner.run_pass(log)
        timed_spans_end = len(tracer.spans)
        log.counts["invalidations"] = cache.stats_snapshot()["invalidations"] - invalidations_before
        partition_groups = runner.session.partition_groups
        runner.session.close()
        runner = None

        if workload.updates:
            with traced():
                epilogue = recovery_epilogue(
                    workload, tables, sizes, seed, scratch, EPILOGUE_RECOVERIES if trace else 1
                )
        if trace:
            tracer.write_jsonl(OUT_DIR / f"spans-{name}-{seed}.jsonl")
    finally:
        if runner is not None:
            runner.session.close()
        shutil.rmtree(scratch, ignore_errors=True)

    failures = log.failures + untraced_log.failures
    if pristine_log is not None:
        failures += pristine_log.failures
    rated = pristine_log or log
    if epilogue and not epilogue["equal"]:
        failures.append("recovered catalog differs from the live one")
    failures += [f"no resolved oracle entry for {key}" for key in sorted(rated.unresolved_oracle)]
    ratio = statistics.fmean(rated.ratios) if rated.ratios else 0.0

    if trace:
        # The same op mix (the traced passes') at traced and at untraced
        # quiet times.
        traced, untraced = log.quiet_classes(), untraced_log.quiet_classes()
        shared = [key for key in traced if key in untraced]
        overhead = sum(traced[key][0] * traced[key][1] for key in shared) / sum(
            traced[key][0] * untraced[key][1] for key in shared
        )
        metrics = per_layer_metrics(
            log,
            SpanSummary(tracer.spans, 0, setup_spans_end),
            SpanSummary(tracer.spans, setup_spans_end, timed_spans_end),
            overhead, partition_groups, epilogue,
        )
    else:
        metrics = end_to_end_metrics(log, setup_s, ratio)
    result = {
        "correct": not failures,
        "attempted": log.queries + log.updates + untraced_log.queries + untraced_log.updates,
        "failed": len(log.failures) + len(untraced_log.failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    info = {
        "workload": name, "seed": seed, "data_seed": data_seed, "trace": int(trace),
        "smoke": bool(smoke), "seconds": seconds, "passes": log.passes,
        "query_ops": log.queries, "update_ops": log.updates, "failures": failures,
        "recovery_equal": epilogue.get("equal"),
        "classes": {key: list(value) for key, value in log.quiet_classes().items()},
        "measured": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in measured_timings(log, epilogue).items()
        },
    }
    return result, info


# --------------------------------------------------------------------------- every workload


def filesystem_of(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            _, mount, fstype = line.split()[:3]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, kind = mount, fstype
    except OSError:
        pass
    return kind


def provenance(args) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "git_commit": commit,
        "seed": args.seed, "data_seed": args.data_seed, "seconds": args.seconds,
        "threads": THREAD_PINS, "repro_workers": "unset while measuring (engine default: 1)",
        "wal_filesystem": filesystem_of(OUT_DIR), "smoke": args.smoke,
    }


def run_child(workload, seed, args, trace) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--data-seed", str(args.data_seed),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} (seed {seed}) failed:\n{done.stdout}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {**json.loads(lines[-2])["info"], **json.loads(lines[-1])}


def run_all(args) -> int:
    from workloads import WORKLOADS

    runs = []
    for seed in range(args.seed, args.seed + args.repeat):
        for workload in WORKLOADS:
            for trace in (0, 1) if args.trace else (0,):
                run = run_child(workload, seed, args, trace)
                runs.append(run)
                kind = "per-layer (traced)" if trace else "end-to-end"
                flag = "" if run["correct"] else "  ** INCORRECT **"
                print(
                    f"\n{workload}  seed {seed}  {kind}: {run['passes']} passes, "
                    f"{run['query_ops']} query ops, {run['update_ops']} update ops, "
                    f"failed_share {run['failed'] / run['attempted']:.4f}{flag}",
                    flush=True,
                )
                for failure in run["failures"]:
                    print(f"  ! {failure}")
                for metric, cell in run["metrics"].items():
                    print(f"  {metric:<36} {cell['value']:>14.6g} {cell['unit']}")
                if not trace:
                    print("  as measured (wall, every sample; no bound):")
                    samples = run["measured"]["query_samples"]["value"]
                    for metric, cell in run["measured"].items():
                        note = ""
                        if metric == "query_ms_p90" and samples < 100:
                            note = f"  (unsupported: {samples} samples, under 100)"
                        print(f"    {metric:<34} {cell['value']:>14.6g} {cell['unit']}{note}")
    document = {"provenance": provenance(args), "runs": runs}
    out = Path(args.out) if args.out else OUT_DIR / f"results-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0 if all(run["correct"] for run in runs) else 1


def default_seconds() -> int:
    try:
        return int(json.loads(BENCHMARK_JSON.read_text())["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 24


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this workload in-process (driver mode)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=default_seconds())
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--data-seed", type=int, default=None, help="dataset (default: the vetted 42)")
    parser.add_argument("--repeat", type=int, default=1, help="sets to run, seeds seed..seed+n-1")
    parser.add_argument("--out", help="results file (default: benchmarks/e2e/out/results-seed<n>.json)")
    args = parser.parse_args(argv)

    # Pin before numpy loads its BLAS; children inherit the environment.
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(HERE))
    from workloads import DATA_SEED, WORKLOADS, ensure_repro_importable

    ensure_repro_importable()
    if args.data_seed is None:
        args.data_seed = DATA_SEED
    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})")
    result, info = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.data_seed
    )
    for failure in info["failures"]:
        print(f"! {failure}")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
