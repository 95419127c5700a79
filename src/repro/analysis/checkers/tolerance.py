"""tolerance — no bare float equality in solver/validation code.

Feasibility and objective comparisons accumulate rounding error proportional
to the magnitudes involved, so the checked code compares with *relative*
tolerances (``violation <= tolerance * scale`` in ``core/validation.py``, the
incumbent-scaled fixing slack in branch-and-bound).  A bare ``==`` / ``!=``
between float-typed expressions silently reintroduces exact comparison and
flips feasibility verdicts at the 1e-16 level.

Without type inference the checker is heuristic: a comparison operand counts
as float-typed when it is

* a float literal (``x == 0.0``),
* a ``float(...)`` / ``np.float64(...)`` conversion,
* a true division (``a / b == c``), or
* a name/attribute whose terminal identifier matches one of the configured
  ``float_name_patterns`` (``*objective*``, ``*violation*``, ``numerator``,
  ...), which is how the repo's float-valued locals are actually named.

Integer comparisons (``n == 0``, ``size == 0``, ``lp_solves == 0``) never
match and stay legal.  Exact comparison is *occasionally* right — division
guards, structural-nonzero detection — and those sites carry an inline
``# repro-lint: disable=tolerance (<reason>)``.

Options:
    scope: dotted module prefixes the rule applies to.
    float_name_patterns: fnmatch patterns over terminal identifiers.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Iterator

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleInfo,
    module_in_scope,
    register,
)


@register
class ToleranceChecker(Checker):
    name = "tolerance"
    description = (
        "float-typed expressions must not be compared with bare == / != in "
        "solver and validation code; use the relative-tolerance helpers"
    )
    default_config: dict[str, object] = {
        "scope": ["repro.ilp", "repro.core.validation"],
        "float_name_patterns": [
            "*objective*", "*violation*", "*tolerance*", "*seconds*",
            "*ratio*", "*_ms", "numerator", "denominator", "gap",
            "residual*", "rhs", "lhs",
        ],
    }

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module_in_scope(module.module, self.str_list("scope")):
            return
        patterns = self.str_list("float_name_patterns")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                culprit = next(
                    (
                        expr
                        for expr in (left, right)
                        if self._float_like(expr, patterns)
                    ),
                    None,
                )
                if culprit is not None:
                    yield module.finding(
                        self.name,
                        node,
                        f"bare {'==' if isinstance(op, ast.Eq) else '!='} "
                        f"between float-typed expressions "
                        f"({self._describe(culprit)}); compare through a "
                        f"relative-tolerance helper (see core/validation.py)",
                    )
                    break

    def _float_like(self, node: ast.AST, patterns: list[str]) -> bool:
        if isinstance(node, ast.UnaryOp):
            return self._float_like(node.operand, patterns)
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "float":
                return True
            if isinstance(func, ast.Attribute) and func.attr in (
                "float64", "float32", "float16",
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return True
        terminal: str | None = None
        if isinstance(node, ast.Name):
            terminal = node.id
        elif isinstance(node, ast.Attribute):
            terminal = node.attr
        if terminal is not None:
            return any(fnmatch(terminal, p) for p in patterns)
        return False

    @staticmethod
    def _describe(node: ast.AST) -> str:
        if isinstance(node, ast.Constant):
            return f"float literal {node.value!r}"
        if isinstance(node, ast.Name):
            return f"float-named variable {node.id!r}"
        if isinstance(node, ast.Attribute):
            return f"float-named attribute .{node.attr}"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return "a true division"
        return "a float conversion"
