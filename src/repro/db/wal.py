"""Write-ahead logging of catalog commits.

The catalog's in-memory state (tables, partitionings, registered caches) dies
with the process; before this module, everything since the last full
:meth:`~repro.db.catalog.Database.save` was lost with it.  The
:class:`WriteAheadLog` closes that window with the classic discipline: every
:meth:`~repro.db.catalog.Database.update_table` appends one
:class:`WalRecord` — length-prefixed, CRC-checksummed, fsynced — *before* the
in-memory commit, so :meth:`~repro.db.catalog.Database.recover` can replay
the log over the last on-disk snapshot and land every table, partitioning
and cache subscription on the exact pre-crash committed version.  Every
update maintains every partitioning registered for its table, so the logged
delta is all replay needs to carry the partitionings along.

Record framing (one record per commit)::

    +------+----------------+---------------+------------------+
    | RWAL | payload length | payload CRC32 | pickled WalRecord|
    | 4 B  | 4 B big-endian | 4 B big-endian| <length> bytes   |
    +------+----------------+---------------+------------------+

A crash can cut the final record short at any byte: replay stops at the
first frame whose magic, length or checksum does not verify, treats the
remainder as a torn tail, and truncates it so the next append starts on a
clean boundary.  Corruption *before* the tail cannot be distinguished from a
tear and is handled the same way — everything after the damage is discarded,
which is exactly the prefix-durability contract fsync-per-commit buys.

File I/O goes through the small :class:`LogStorage` seam (:class:`FileLogStorage`
over a real file, :class:`MemoryLogStorage` for tests) so the crash-injection
harness in ``tests/db/crashsim.py`` can interpose a fault-injecting
implementation with named crash points and prove, not just claim, the
recovery guarantees.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.errors import WalError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (catalog imports wal)
    from repro.dataset.table import Table, TableDelta
    from repro.partition.partitioning import (
        MaintenanceProfile,
        PartitioningStats,
    )

#: Frame magic; a record not starting with it is torn/foreign and ends replay.
_MAGIC = b"RWAL"

#: Frame header layout: magic + payload length + payload CRC32.
_HEADER = struct.Struct(">4sII")

#: Record kinds a :class:`WalRecord` can carry (see the factory methods).
RECORD_KINDS = ("create", "update", "drop", "partition", "checkpoint")


@dataclass(frozen=True, eq=False)
class WalRecord:
    """One logged catalog commit.

    The payload fields are kind-specific (the rest stay ``None``):

    * ``create`` — ``table``: the full table registered in the catalog;
    * ``update`` — ``delta``: one versioned
      :class:`~repro.dataset.table.TableDelta` commit; replay re-runs
      :class:`~repro.partition.maintenance.PartitionMaintainer` over it
      identically (records from older logs also carry the ``policy`` the
      update ran under, which replay checks);
    * ``drop`` — no payload, the table (and its partitionings) went away;
    * ``partition`` — ``label`` + the partitioning's reconstruction state
      (gid assignment, attributes, build stats, version, maintenance
      profile); the base table is *not* duplicated, replay re-binds to the
      catalog's copy;
    * ``checkpoint`` — ``versions``: every table's committed version at the
      moment the log was compacted into an on-disk snapshot, so recovery can
      verify the snapshot it loads is the one the marker describes.
    """

    kind: str
    table_name: str = ""
    lsn: int = -1
    delta: "TableDelta | None" = None
    table: "Table | None" = None
    label: str | None = None
    group_ids: object | None = None
    attributes: list[str] | None = None
    stats: "PartitioningStats | None" = None
    version: int | None = None
    maintenance: "MaintenanceProfile | None" = None
    versions: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in RECORD_KINDS:
            raise WalError(
                f"unknown WAL record kind {self.kind!r} "
                f"(expected one of {RECORD_KINDS})"
            )

    # -- factories (one per record kind) ---------------------------------------

    @classmethod
    def create(cls, table_name: str, table: "Table") -> "WalRecord":
        return cls(kind="create", table_name=table_name, table=table)

    @classmethod
    def update(cls, table_name: str, delta: "TableDelta") -> "WalRecord":
        return cls(kind="update", table_name=table_name, delta=delta)

    @classmethod
    def drop(cls, table_name: str) -> "WalRecord":
        return cls(kind="drop", table_name=table_name)

    @classmethod
    def partition(cls, table_name: str, label: str, partitioning) -> "WalRecord":
        return cls(
            kind="partition",
            table_name=table_name,
            label=label,
            group_ids=partitioning.group_ids,
            attributes=list(partitioning.attributes),
            stats=partitioning.stats,
            version=partitioning.version,
            maintenance=partitioning.maintenance,
        )

    @classmethod
    def checkpoint(cls, versions: dict[str, int]) -> "WalRecord":
        return cls(kind="checkpoint", versions=dict(versions))

    def __repr__(self) -> str:
        extras = ""
        if self.kind == "update" and self.delta is not None:
            extras = f", delta={self.delta!r}"
        elif self.kind == "checkpoint":
            extras = f", versions={self.versions!r}"
        return (
            f"WalRecord(kind={self.kind!r}, table={self.table_name!r}, "
            f"lsn={self.lsn}{extras})"
        )


def encode_record(record: WalRecord) -> bytes:
    """Frame one record: magic + length + CRC32 + pickled payload."""
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload)) + payload


def decode_stream(data: bytes) -> tuple[list[WalRecord], int, bool]:
    """Decode every complete record from ``data``.

    Returns ``(records, valid_bytes, torn)``: the committed records, the
    byte offset of the first frame that failed to verify (== ``len(data)``
    when the log is clean), and whether trailing bytes were discarded.
    """
    records: list[WalRecord] = []
    offset = 0
    stream = io.BytesIO(data)
    while True:
        header = stream.read(_HEADER.size)
        if len(header) < _HEADER.size:
            return records, offset, len(header) > 0
        magic, length, crc = _HEADER.unpack(header)
        if magic != _MAGIC:
            return records, offset, True
        payload = stream.read(length)
        if len(payload) < length or zlib.crc32(payload) != crc:
            return records, offset, True
        try:
            record = pickle.loads(payload)
        except Exception:
            # A checksummed frame that does not unpickle is damage the CRC
            # could not see (e.g. a truncated pickle of exactly the framed
            # length); treat it as the tail like any other torn record.
            return records, offset, True
        if not isinstance(record, WalRecord):
            return records, offset, True
        records.append(record)
        offset += _HEADER.size + length


class LogStorage:
    """Byte-level storage seam the WAL writes through.

    The contract mirrors a POSIX file plus the page cache: :meth:`append`
    buffers bytes, :meth:`sync` makes everything buffered durable, and
    :meth:`read` returns the *durable* content.  The crash-injection harness
    implements this interface with named crash points; production code uses
    :class:`FileLogStorage`.
    """

    def read(self) -> bytes:
        raise NotImplementedError

    def append(self, data: bytes) -> None:
        raise NotImplementedError

    def sync(self) -> None:
        raise NotImplementedError

    def reset(self, data: bytes = b"") -> None:
        """Atomically replace the entire durable content with ``data``."""
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class FileLogStorage(LogStorage):
    """Real on-disk storage: append-mode writes, fsync-backed durability."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: io.BufferedWriter | None = None

    def _writer(self) -> io.BufferedWriter:
        if self._handle is None or self._handle.closed:
            self._handle = open(self.path, "ab")
        return self._handle

    def read(self) -> bytes:
        if not self.path.exists():
            return b""
        return self.path.read_bytes()

    def append(self, data: bytes) -> None:
        self._writer().write(data)

    def sync(self) -> None:
        handle = self._writer()
        handle.flush()
        os.fsync(handle.fileno())

    def reset(self, data: bytes = b"") -> None:
        self.close()
        # Write-then-rename so a crash mid-reset leaves either the old log or
        # the new one, never a half-written hybrid.
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._sync_directory()

    def _sync_directory(self) -> None:
        # Make the rename itself durable; some filesystems refuse to fsync a
        # directory fd, which leaves the same guarantees a plain rename has.
        try:
            fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None


class MemoryLogStorage(LogStorage):
    """In-memory storage with real durability semantics for tests."""

    def __init__(self, initial: bytes = b""):
        self.durable = bytes(initial)
        self.buffered = b""

    def read(self) -> bytes:
        return self.durable

    def append(self, data: bytes) -> None:
        self.buffered += data

    def sync(self) -> None:
        self.durable += self.buffered
        self.buffered = b""

    def reset(self, data: bytes = b"") -> None:
        self.durable = bytes(data)
        self.buffered = b""


class WriteAheadLog:
    """Append-only, checksummed, fsync-on-commit log of :class:`WalRecord`\\ s.

    Args:
        storage: Where the bytes live — a path (opened as
            :class:`FileLogStorage`) or any :class:`LogStorage`
            implementation.

    Opening scans the existing content once: committed records define the
    next LSN, and a torn tail left by a crash is truncated immediately so
    subsequent appends land on a clean frame boundary.
    """

    def __init__(self, storage: LogStorage | str | Path):
        if isinstance(storage, (str, Path)):
            storage = FileLogStorage(storage)
        self._storage = storage
        self._closed = False
        records, valid_bytes, torn = decode_stream(storage.read())
        if torn:
            storage.reset(storage.read()[:valid_bytes])
        self._next_lsn = records[-1].lsn + 1 if records else 0
        self.recovered_torn_tail = torn

    @property
    def storage(self) -> LogStorage:
        return self._storage

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    def append(self, record: WalRecord) -> WalRecord:
        """Durably commit one record (assigning its LSN) and return it.

        The record is on disk — written *and* fsynced — when this returns;
        a crash at any earlier point leaves, at worst, a torn tail that
        replay truncates.  This is the commit point of
        :meth:`~repro.db.catalog.Database.update_table`.
        """
        if self._closed:
            raise WalError("cannot append to a closed write-ahead log")
        record = replace(record, lsn=self._next_lsn)
        self._storage.append(encode_record(record))
        self._storage.sync()
        self._next_lsn += 1
        return record

    def records(self) -> list[WalRecord]:
        """Every committed record, in commit order (torn tails excluded)."""
        records, _, _ = decode_stream(self._storage.read())
        return records

    def __iter__(self) -> Iterator[WalRecord]:
        return iter(self.records())

    def __len__(self) -> int:
        return len(self.records())

    def reset(self, records: tuple[WalRecord, ...] | list[WalRecord] = ()) -> None:
        """Atomically compact the log down to ``records`` (checkpointing)."""
        if self._closed:
            raise WalError("cannot reset a closed write-ahead log")
        data = b""
        for record in records:
            record = replace(record, lsn=self._next_lsn)
            data += encode_record(record)
            self._next_lsn += 1
        self._storage.reset(data)

    def close(self) -> None:
        self._storage.close()
        self._closed = True

    def __repr__(self) -> str:
        return f"WriteAheadLog(records={len(self)}, next_lsn={self._next_lsn})"
