#!/usr/bin/env python3
"""Per-op A/B timing of two checkouts, interleaved op by op in one process.

    python3 benchmarks/interleaved_ab.py --base ../parent --workload direct_mix

Whole runs of ``benchmarks/e2e/run.py`` on a shared host land fast or slow
together: a noisy neighbour moves every op of a run, so two runs compared
whole can differ by more than the change under test.  This script imports
both checkouts' ``src/repro`` into one process under distinct package names
(``ab_base`` for ``--base``, ``ab_head`` for ``--head``, by default this
checkout), builds each side's engine the way ``benchmarks/e2e/workloads.py``'s
``Session`` does, from that side's own ``workloads.py``, and then runs
``--rounds`` rounds: each round asks every op once on each side, ops and the
order of the two sides shuffled.  A slow spell then hits both sides alike.

It prints, per op, each side's minimum time over the rounds, their ratio
(head / base) and the share of rounds each side was faster in.  Answers are
not checked; ``benchmarks/output_digest.py`` compares them.  Read-only
workloads only (``direct_mix``, ``sketch_20k``, ``refine_20k``): the update
workload's deltas would make the two sides' tables diverge in time.

Renaming happens on import: a checkout's module is compiled with every
``repro`` import rewritten to its side's package name, and no bytecode is
written back, so neither checkout is modified.
"""

from __future__ import annotations

import argparse
import ast
import importlib.abc
import importlib.util
import os
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _renamed(tree: ast.Module, package: str) -> ast.Module:
    """``tree`` with every absolute import of ``repro`` re-rooted at ``package``."""

    def rename(name: str) -> str:
        return package + name[len("repro"):]

    def is_repro(name: str | None) -> bool:
        return name is not None and (name == "repro" or name.startswith("repro."))

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and is_repro(node.module):
            node.module = rename(node.module)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if is_repro(alias.name):
                    if alias.asname is None:
                        raise ImportError(f"bare 'import {alias.name}' cannot be renamed")
                    alias.name = rename(alias.name)
    return tree


class _RenamingLoader(importlib.abc.Loader):
    def __init__(self, path: Path, package: str):
        self.path = path
        self.package = package

    def create_module(self, spec):
        return None

    def exec_module(self, module) -> None:
        tree = _renamed(ast.parse(self.path.read_bytes(), str(self.path)), self.package)
        exec(compile(tree, str(self.path), "exec", dont_inherit=True), module.__dict__)


class _RenamingFinder(importlib.abc.MetaPathFinder):
    """Finds ``package`` and its submodules under one checkout's ``src/repro``."""

    def __init__(self, package: str, root: Path):
        self.package = package
        self.root = root

    def find_spec(self, fullname, path=None, target=None):
        if fullname != self.package and not fullname.startswith(self.package + "."):
            return None
        location = self.root.joinpath(*fullname.split(".")[1:])
        if (location / "__init__.py").is_file():
            origin, search = location / "__init__.py", [str(location)]
        elif location.with_suffix(".py").is_file():
            origin, search = location.with_suffix(".py"), None
        else:
            return None
        return importlib.util.spec_from_file_location(
            fullname, origin, loader=_RenamingLoader(origin, self.package),
            submodule_search_locations=search,
        )


class Side:
    """One checkout's engine, built as the e2e benchmark builds it."""

    def __init__(self, label: str, checkout: Path, workload_name: str, seed: int):
        package = f"ab_{label}"
        src = checkout / "src" / "repro"
        workloads_py = checkout / "benchmarks" / "e2e" / "workloads.py"
        if not (src / "__init__.py").is_file() or not workloads_py.is_file():
            raise SystemExit(f"{checkout}: no src/repro or benchmarks/e2e/workloads.py")
        sys.meta_path.insert(0, _RenamingFinder(package, src))
        name = f"{package}_e2e_workloads"
        spec = importlib.util.spec_from_file_location(
            name, workloads_py, loader=_RenamingLoader(workloads_py, package)
        )
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[name] = workloads
        spec.loader.exec_module(workloads)

        self.label = label
        workload = workloads.WORKLOADS[workload_name]
        if workload.updates:
            raise SystemExit(f"{workload_name}: updates make the two sides' tables diverge")
        sizes = workloads.Sizes.full()
        tables = workload.make_tables(workloads.DATA_SEED, sizes)
        # A read-only workload keeps no write-ahead log.
        self.session = workloads.Session(workload, tables, sizes, seed, wal_path=None)
        self.cache = workload.cache
        self.ops = {op.name: op.text for op in workload.make_ops(tables, sizes)}

    def time_op(self, name: str) -> float:
        started = time.perf_counter()
        self.session.engine.execute(self.ops[name], cache=self.cache)
        return time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the base side")
    parser.add_argument("--head", type=Path, default=HERE.parent, help="checkout of the head side")
    parser.add_argument("--workload", default="direct_mix")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0, help="shuffles the op and side order")
    args = parser.parse_args(argv)

    sides = [
        Side("base", args.base.resolve(), args.workload, args.seed),
        Side("head", args.head.resolve(), args.workload, args.seed),
    ]
    base, head = sides
    if base.ops != head.ops:
        raise SystemExit("the two checkouts ask different ops")
    for side in sides:  # warm-up: the first ask of an op pays for imports and caches
        for name in side.ops:
            side.time_op(name)

    rng = random.Random(args.seed)
    times: dict[str, dict[str, list[float]]] = {n: {"base": [], "head": []} for n in base.ops}
    names = list(base.ops)
    for _ in range(args.rounds):
        rng.shuffle(names)
        for name in names:
            for side in rng.sample(sides, 2):
                times[name][side.label].append(side.time_op(name))

    print(f"{args.workload}: {args.rounds} interleaved rounds, seed {args.seed}")
    print(f"{'op':<14}{'base min ms':>12}{'head min ms':>12}{'head/base':>11}{'base won':>10}{'head won':>10}")
    ratios = []
    for name in base.ops:
        b, h = times[name]["base"], times[name]["head"]
        ratio = min(h) / min(b)
        ratios.append(ratio)
        head_won = sum(hs < bs for hs, bs in zip(h, b)) / len(b)
        base_won = sum(bs < hs for hs, bs in zip(h, b)) / len(b)
        print(
            f"{name:<14}{1e3 * min(b):>12.3f}{1e3 * min(h):>12.3f}{ratio:>11.3f}"
            f"{base_won:>10.0%}{head_won:>10.0%}"
        )
    print(f"geometric mean of head/base: {statistics.geometric_mean(ratios):.3f}")
    for side in sides:
        side.session.close()
    return 0


if __name__ == "__main__":
    # Pin before numpy loads its BLAS, as benchmarks/e2e/run.py does.
    os.environ.update(THREAD_PINS)
    sys.exit(main())
