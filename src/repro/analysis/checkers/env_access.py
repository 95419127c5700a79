"""env-access — nothing reads environment variables.

An ``os.environ`` read makes a run's behaviour depend on ambient process
state that never appears in stats, cache keys or benchmark records.  The
package takes all of its configuration as plain parameters, so no module is
allowed to read the environment.

Flags ``os.environ[...]`` / ``os.environ.get(...)`` / ``os.getenv(...)``
(and ``environ`` / ``getenv`` imported from ``os``) outside the configured
allowlist.

Options:
    allowed_modules: dotted module names that may touch the environment
        (none by default).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleInfo,
    dotted_name,
    register,
)


@register
class EnvAccessChecker(Checker):
    name = "env-access"
    description = (
        "os.environ is not read: configuration arrives as plain parameters"
    )
    default_config: dict[str, object] = {
        "allowed_modules": [],
    }

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        allowed = set(self.str_list("allowed_modules"))
        if module.module in allowed:
            return

        imported_env: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                for alias in node.names:
                    if alias.name in ("environ", "getenv"):
                        imported_env.add(alias.asname or alias.name)

        for node in ast.walk(module.tree):
            chain = dotted_name(node) if isinstance(node, ast.Attribute) else None
            hit: str | None = None
            if chain in ("os.environ", "os.getenv"):
                hit = chain
            elif isinstance(node, ast.Name) and node.id in imported_env:
                hit = f"os.{node.id}"
            if hit is not None:
                yield module.finding(
                    self.name,
                    node,
                    f"{hit} read outside the config layer; route it through "
                    f"{' / '.join(sorted(allowed)) or 'the config module'} "
                    f"(named constant + validation) and pass the value in",
                )
