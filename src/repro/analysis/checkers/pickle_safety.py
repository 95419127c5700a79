"""pickle-safety — pickled payload classes must drop derived state.

The durable payloads are pickled: WAL records into the log file, snapshot
handles into a self-contained pinned view.  *Derived, process-local* state —
memo caches, scratch arrays, lazily-built views, a live manager — must be
dropped on pickling; shipping it bloats the payload and can drag live
objects (the whole catalog, for a snapshot's manager) along with it.

For each configured payload class this checker flags an attribute when

* its name looks like a cache (``*cache*``, ``*memo*``, ``_work*``,
  ``_scratch*``) — any visibility, or
* it is underscore-private (derived state by convention) and not in the
  class's ``plain_attrs`` allowlist,

unless ``__getstate__`` *handles* it: assigns ``state["attr"] = ...``,
``state.pop("attr")`` or ``del state["attr"]``.  A payload class with a
flagged attribute and no ``__getstate__`` at all is reported once per
attribute, so **new** cache-like attributes on payload classes flag until
explicitly handled.

Attributes are discovered from class-level annotated assignments (dataclass
fields), ``__slots__`` entries and ``self.X = ...`` stores in any method.

Options:
    payload_classes: mapping of class name → list of allowed *plain*
        underscore attributes (state that genuinely belongs in the pickle).
    cache_name_patterns: fnmatch patterns naming cache-like attributes.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Iterator, Mapping

from repro.analysis.core import Checker, Finding, ModuleInfo, register


def _class_attributes(cls: ast.ClassDef) -> dict[str, ast.AST]:
    """Every instance attribute the class defines → a representative node."""
    attrs: dict[str, ast.AST] = {}
    for stmt in cls.body:
        # Dataclass-style annotated fields.
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            attrs.setdefault(stmt.target.id, stmt)
        # __slots__ tuples/lists of attribute names.
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    for element in ast.walk(stmt.value):
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            attrs.setdefault(element.value, stmt)
    # self.X = ... stores anywhere in the class body (methods included).
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.setdefault(target.attr, target)
    return attrs


def _getstate_handled(cls: ast.ClassDef) -> set[str] | None:
    """Attribute names ``__getstate__`` resets/drops; ``None`` if undefined.

    Recognised forms inside ``__getstate__`` (``state`` being any local
    dict): ``state["attr"] = ...``, ``del state["attr"]``,
    ``state.pop("attr", ...)``.
    """
    getstate = next(
        (
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == "__getstate__"
        ),
        None,
    )
    if getstate is None:
        return None
    handled: set[str] = set()
    for node in ast.walk(getstate):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            if isinstance(node.slice.value, str):
                handled.add(node.slice.value)
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "pop"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                handled.add(node.args[0].value)
    return handled


@register
class PickleSafetyChecker(Checker):
    name = "pickle-safety"
    description = (
        "pickled payload classes must drop memo/cache attributes in "
        "__getstate__ so payloads stay lean and process-local state "
        "never crosses the process boundary"
    )
    default_config: dict[str, object] = {
        # Class → underscore attributes that legitimately belong in the
        # pickle.  This is the single source of truth for what crosses the
        # process boundary; tests/analysis/test_pickle_roundtrip.py pickles
        # an instance of every class listed here.  WAL records cross it via
        # the log file; a snapshot handle ships its pinned view (the live
        # manager must stay home).
        "payload_classes": {
            "WalRecord": [],
            "PinnedTable": [],
            "SnapshotHandle": ["_released"],
        },
        "cache_name_patterns": ["*cache*", "*memo*", "_work*", "_scratch*"],
    }

    def _payload_classes(self) -> Mapping[str, list[str]]:
        value = self.options["payload_classes"]
        assert isinstance(value, Mapping)
        return value

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        payload = self._payload_classes()
        patterns = self.str_list("cache_name_patterns")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or node.name not in payload:
                continue
            allowed = set(payload[node.name])
            attrs = _class_attributes(node)
            handled = _getstate_handled(node)
            for attr, site in sorted(attrs.items()):
                if attr.startswith("__"):
                    continue
                cache_like = any(fnmatch(attr, p) for p in patterns)
                private = attr.startswith("_")
                if not cache_like and (not private or attr in allowed):
                    continue
                if handled is not None and attr in handled:
                    continue
                if handled is None:
                    reason = f"and {node.name} defines no __getstate__"
                else:
                    reason = f"but {node.name}.__getstate__ does not reset it"
                kind = "cache-like" if cache_like else "private/derived"
                yield module.finding(
                    self.name,
                    site,
                    f"{node.name}.{attr} is a {kind} attribute on a pickled "
                    f"payload class {reason}; drop it on pickling (or allow-"
                    f"list it in the pickle-safety payload_classes config)",
                )
