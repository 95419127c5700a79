"""api-boundary — a MatrixForm is immutable once built.

``MatrixForm`` is the IR shared by every solver consumer; its buffers are
*structurally shared* (``with_bounds`` views alias the objective/constraint
arrays, branch-and-bound nodes share one form).  Mutating a form after it is
handed to a solver therefore corrupts other nodes' views.  The one
sanctioned mutable slot is the ``cache`` scratch dict.

The checker flags stores to a form's data attributes (``form.b_ub = ...``,
``form.c[...] = ...``, ``form.bounds += ...``) on any receiver it can infer
to be a ``MatrixForm``:

* a variable assigned from ``MatrixForm(...)``, ``*.to_matrix(...)`` or
  ``*.with_bounds(...)`` in the same scope,
* a parameter or variable annotated ``MatrixForm``, or
* a name matching the configured receiver patterns (``form``, ``*_form``).

The defining module (and any other allowlisted builder) is exempt: the
constructor has to populate the fields it owns.

Options:
    frozen_attrs: attribute names that must never be stored to.
    allowed_modules: dotted modules exempt from the rule.
    receiver_patterns: fnmatch patterns for name-based inference.
    constructor_calls: terminal callable names that produce a MatrixForm.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Iterator

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleInfo,
    register,
)


def _annotation_is(annotation: ast.AST | None, class_name: str) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return class_name in annotation.value
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id == class_name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == class_name:
            return True
    return False


@register
class ApiBoundaryChecker(Checker):
    name = "api-boundary"
    description = (
        "MatrixForm is immutable once built — no stores to its data "
        "attributes outside the defining module (cache dict excepted)"
    )
    default_config: dict[str, object] = {
        "class_name": "MatrixForm",
        "frozen_attrs": ["c", "a_ub", "b_ub", "a_eq", "b_eq", "bounds", "maximize"],
        "allowed_modules": ["repro.ilp.matrix_form"],
        "receiver_patterns": ["form", "*_form", "matrix_form"],
        "constructor_calls": ["MatrixForm", "to_matrix", "with_bounds"],
    }

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.module in set(self.str_list("allowed_modules")):
            return
        class_name = str(self.options["class_name"])
        frozen = set(self.str_list("frozen_attrs"))
        patterns = self.str_list("receiver_patterns")
        constructors = set(self.str_list("constructor_calls"))

        # Names bound from a form-producing call or annotated as the class.
        form_names: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                callee = node.value.func
                terminal = (
                    callee.id
                    if isinstance(callee, ast.Name)
                    else callee.attr if isinstance(callee, ast.Attribute) else None
                )
                if terminal in constructors:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            form_names.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if _annotation_is(node.annotation, class_name) and isinstance(
                    node.target, ast.Name
                ):
                    form_names.add(node.target.id)
            elif isinstance(node, ast.arg):
                if _annotation_is(node.annotation, class_name):
                    form_names.add(node.arg)

        def is_form(receiver: ast.AST) -> bool:
            if isinstance(receiver, ast.Name):
                return receiver.id in form_names or any(
                    fnmatch(receiver.id, p) for p in patterns
                )
            if isinstance(receiver, ast.Attribute):
                return any(fnmatch(receiver.attr, p) for p in patterns)
            return False

        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                # form.attr = ... / form.attr += ...
                attribute = target if isinstance(target, ast.Attribute) else None
                # form.attr[...] = ... (mutating buffer contents in place)
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Attribute
                ):
                    attribute = target.value
                if (
                    attribute is not None
                    and attribute.attr in frozen
                    and is_form(attribute.value)
                ):
                    yield module.finding(
                        self.name,
                        target,
                        f"store to {class_name}.{attribute.attr} outside "
                        f"{' / '.join(self.str_list('allowed_modules'))}: forms "
                        f"are structurally shared (with_bounds views, B&B "
                        f"nodes) — build a new form instead",
                    )
