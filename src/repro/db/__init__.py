"""The storage side of the engine: predicates, aggregates and durable tables.

This subpackage substitutes for the PostgreSQL layer of the paper's prototype.
The only relational work a package query needs is selecting the base relation
by its WHERE clause (:mod:`repro.core.base_relations`).  It provides:

* a scalar expression language (column references, literals, arithmetic,
  comparisons, boolean connectives) evaluated vectorised over a table,
* the aggregate function names of PaQL (COUNT, SUM, AVG, MIN, MAX),
* a :class:`~repro.db.catalog.Database` catalog of named tables — durable
  through a :class:`~repro.db.wal.WriteAheadLog` of versioned commits
  (``Database.recover`` replays it after a crash) and readable through
  pinned :class:`~repro.db.snapshot.SnapshotHandle` views while updates
  commit underneath.
"""

from repro.db.expressions import (
    BinaryOp,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    LogicalOp,
    Not,
    col,
    lit,
)
from repro.db.aggregates import AggregateFunction
from repro.db.catalog import Database
from repro.db.snapshot import PinnedTable, SnapshotHandle
from repro.db.wal import (
    FileLogStorage,
    LogStorage,
    MemoryLogStorage,
    WalRecord,
    WriteAheadLog,
)

__all__ = [
    "Expression",
    "ColumnRef",
    "Literal",
    "BinaryOp",
    "Comparison",
    "LogicalOp",
    "Not",
    "col",
    "lit",
    "AggregateFunction",
    "Database",
    "PinnedTable",
    "SnapshotHandle",
    "LogStorage",
    "FileLogStorage",
    "MemoryLogStorage",
    "WalRecord",
    "WriteAheadLog",
]
