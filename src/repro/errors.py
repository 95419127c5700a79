"""Exception hierarchy shared by every subsystem of the package-query engine.

All exceptions raised by this library derive from :class:`ReproError`, so a
caller can catch one base class to guard against any library failure while
still being able to distinguish, for example, a PaQL syntax error from an
infeasible optimisation problem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A table schema is malformed or an operation violates it."""


class ColumnNotFoundError(SchemaError):
    """A referenced column does not exist in the schema."""

    def __init__(self, column: str, available: tuple[str, ...] = ()):
        self.column = column
        self.available = tuple(available)
        message = f"column {column!r} not found"
        if available:
            message += f" (available: {', '.join(available)})"
        super().__init__(message)


class TableError(ReproError):
    """An operation on a table is invalid (length mismatch, bad index...)."""


class CatalogError(ReproError):
    """A database catalog operation failed (duplicate or missing table)."""


class ExpressionError(ReproError):
    """A scalar or aggregate expression is malformed or cannot be evaluated."""


class PaQLError(ReproError):
    """Base class for PaQL language errors."""


class PaQLSyntaxError(PaQLError):
    """The PaQL text could not be tokenized or parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")


class PaQLValidationError(PaQLError):
    """The PaQL query parsed but is semantically invalid for the target table."""


class SolverError(ReproError):
    """Base class for LP/ILP solver failures."""


class SolverCapacityError(SolverError):
    """The problem exceeds the solver's configured capacity limits.

    This mirrors the behaviour of commercial solvers (e.g. CPLEX) running out
    of memory on very large integer programs, which the paper reports as
    DIRECT failures in Figure 5.
    """


class SolverTimeoutError(SolverError):
    """The solver exceeded its wall-clock budget before proving optimality."""


class InfeasiblePackageQueryError(ReproError):
    """The package query has no feasible package (or was reported as such).

    ``false_negative_possible`` is set by SKETCHREFINE when its sketches or
    refinements failed on a query that may still be feasible.
    :meth:`~repro.core.engine.PackageQueryEngine.execute` reads it: under
    AUTO it answers such a query with DIRECT, whose own infeasibility (flag
    unset) is a proof.
    """

    def __init__(self, message: str = "package query is infeasible", *, false_negative_possible: bool = False):
        self.false_negative_possible = false_negative_possible
        super().__init__(message)


class WalError(ReproError):
    """A write-ahead-log operation failed (bad record, unwritable storage).

    Torn tails are *not* errors: a log whose final record was cut short by a
    crash replays cleanly up to the last complete, checksummed record.  This
    exception covers structural misuse — appending to a closed log, a record
    that cannot be encoded, storage that refuses to sync.
    """


class RecoveryError(WalError):
    """Replaying a write-ahead log could not reconstruct a consistent state.

    Raised when the log and the snapshot disagree in a way replay cannot
    bridge — a delta anchored to a version the snapshot never reached, a
    checkpoint marker newer than the snapshot on disk.  Recovery never
    guesses: a gap is an error, not a silent skip.
    """


class SnapshotError(ReproError):
    """A snapshot handle was misused (released twice, read after release)."""


class PartitioningError(ReproError):
    """Offline partitioning failed or was given inconsistent parameters."""


class TranslationError(ReproError):
    """A PaQL query could not be translated into an integer linear program."""


class EvaluationError(ReproError):
    """A package evaluation strategy failed for a non-infeasibility reason."""


class CacheError(EvaluationError):
    """A result-cache operation was misused (bad capacity, missing context).

    Note this covers *misuse* only: a stale or unusable entry is never an
    error — the cache reports a miss and the engine re-solves.
    """

