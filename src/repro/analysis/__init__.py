"""repro-lint: AST-based enforcement of the repo's reproducibility invariants.

The conventions that keep this system correct — deterministic solve paths,
picklable durable payloads, relative-tolerance feasibility checks — used to
live only in reviewer memory and regression tests.  This package checks them
mechanically, before runtime:

* ``python -m repro.analysis src/repro`` — CLI (text or ``--format=json``),
  exit 1 on any finding;
* :func:`run_lint` — pytest-friendly API, used by the self-check test that
  keeps ``src/repro`` clean;
* ``# repro-lint: disable=<rule> (<reason>)`` on the offending line — the
  only exemption.  The parenthesised reason is required; a suppression
  without one is itself a finding.

See ``docs/repro_lint.md`` for the rule catalogue.
"""

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleInfo,
    ProjectInfo,
    all_checkers,
    register,
)
from repro.analysis.runner import LintReport, run_lint

__all__ = [
    "Checker",
    "Finding",
    "LintReport",
    "ModuleInfo",
    "ProjectInfo",
    "all_checkers",
    "register",
    "run_lint",
]
