"""determinism — solve paths must be reproducible by construction.

The same query over the same data must give the same package, bit for bit.
Three classes of construct break that silently:

* **wall clocks** — ``time.time()`` jumps with NTP; timings feeding
  stats/decisions must use ``time.perf_counter()`` or ``time.monotonic()``.
* **global-state RNG** — ``random.random()`` / ``np.random.rand()`` etc.
  depend on hidden process state, so the answer would depend on whatever
  drew from the stream before.  Seeded generators
  (``np.random.default_rng(seed)``) are the sanctioned form.
* **unordered iteration** — ``for g in {...}`` / ``set(...)`` feeding merge
  ordering makes result order depend on hash seeds.  Iterate ``sorted(...)``
  instead (the ascending-gid merge rule).

Each sub-rule has its own module scope (dotted-prefix lists; empty = all
linted files, which the fixture tests use).

Options:
    time_scope / rng_scope / set_iteration_scope: dotted module prefixes.
    banned_time_calls: call chains reported by the clock rule.
    allowed_np_random / allowed_random: attribute names exempt from the
        global-RNG rule (seeding and generator constructors).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleInfo,
    dotted_name,
    module_in_scope,
    register,
)


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # Set algebra (a | b, a & b, a - b) over set operands.
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


@register
class DeterminismChecker(Checker):
    name = "determinism"
    description = (
        "solve paths must use monotonic clocks, seeded RNG, and ordered "
        "iteration so the same query gives the same answer bit for bit"
    )
    default_config: dict[str, object] = {
        "time_scope": ["repro.core", "repro.ilp"],
        "rng_scope": ["repro.core.sketchrefine"],
        "set_iteration_scope": ["repro.core.sketchrefine"],
        "banned_time_calls": ["time.time", "time.clock"],
        "allowed_np_random": [
            "default_rng", "Generator", "SeedSequence", "seed",
            "get_state", "set_state",
        ],
        "allowed_random": ["seed", "Random", "SystemRandom", "getstate", "setstate"],
    }

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        in_time = module_in_scope(module.module, self.str_list("time_scope"))
        in_rng = module_in_scope(module.module, self.str_list("rng_scope"))
        in_set = module_in_scope(module.module, self.str_list("set_iteration_scope"))
        if not (in_time or in_rng or in_set):
            return
        banned_time = set(self.str_list("banned_time_calls"))
        allowed_np = set(self.str_list("allowed_np_random"))
        allowed_rand = set(self.str_list("allowed_random"))

        # Names imported from the random / numpy.random modules, e.g.
        # ``from random import shuffle`` — calls to them are global-state RNG.
        rng_imports: dict[str, str] = {}
        if in_rng:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ImportFrom) and node.module in (
                    "random", "numpy.random",
                ):
                    allowed = allowed_rand if node.module == "random" else allowed_np
                    for alias in node.names:
                        if alias.name not in allowed:
                            rng_imports[alias.asname or alias.name] = (
                                f"{node.module}.{alias.name}"
                            )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                chain = dotted_name(node.func)
                if in_time and chain in banned_time:
                    yield module.finding(
                        self.name,
                        node,
                        f"{chain}() is a wall clock (NTP jumps); use "
                        f"time.perf_counter() or time.monotonic()",
                    )
                if in_rng and chain is not None:
                    yield from self._check_rng_call(
                        module, node, chain, allowed_np, allowed_rand, rng_imports
                    )
            if in_set:
                iters: list[ast.AST] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                if isinstance(node, ast.comprehension):
                    iters.append(node.iter)
                for candidate in iters:
                    if _is_set_expression(candidate):
                        yield module.finding(
                            self.name,
                            candidate,
                            "iteration over a set is hash-order dependent and "
                            "breaks deterministic merge ordering; iterate "
                            "sorted(...) instead",
                        )

    def _check_rng_call(
        self,
        module: ModuleInfo,
        node: ast.Call,
        chain: str,
        allowed_np: set[str],
        allowed_rand: set[str],
        rng_imports: dict[str, str],
    ) -> Iterator[Finding]:
        parts = chain.split(".")
        message = (
            "{call}() draws from hidden global RNG state, so the answer depends "
            "on whatever drew from it before; use a seeded "
            "np.random.default_rng(...) generator"
        )
        if parts[0] in ("np", "numpy") and len(parts) >= 3 and parts[1] == "random":
            if parts[2] not in allowed_np:
                yield module.finding(self.name, node, message.format(call=chain))
        elif parts[0] == "random" and len(parts) == 2:
            if parts[1] not in allowed_rand:
                yield module.finding(self.name, node, message.format(call=chain))
        elif len(parts) == 1 and parts[0] in rng_imports:
            yield module.finding(
                self.name, node, message.format(call=rng_imports[parts[0]])
            )
