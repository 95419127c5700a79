"""Built-in repro-lint checkers.

Importing this package populates :data:`repro.analysis.core.REGISTRY`; each
module registers one rule via the :func:`repro.analysis.core.register`
decorator.  Third-party/experimental checkers can register the same way and
are picked up by name.
"""

from repro.analysis.checkers import (  # noqa: F401
    determinism,
    env_access,
    stats_drift,
    tolerance,
)

__all__ = [
    "determinism",
    "env_access",
    "stats_drift",
    "tolerance",
]
