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
    | RWAL | payload length | payload CRC32 | payload          |
    | 4 B  | 4 B big-endian | 4 B big-endian| <length> bytes   |
    +------+----------------+---------------+------------------+

and the payload (format 1)::

    +--------+----------------+-------------+---------------------------+
    | format | header length  | JSON header | raw C-order array bytes,  |
    | 1 B    | 4 B big-endian | UTF-8       | one array after another   |
    +--------+----------------+-------------+---------------------------+

The header names the record's kind, table and LSN, the kind's scalar fields,
and ``(name, dtype, shape)`` of every array; tables are encoded by
:func:`~repro.dataset.io.table_arrays`, the same code the on-disk snapshot
uses.  Decoding never executes anything from the log: arrays come back
through ``np.frombuffer`` and only boolean, integer, float and fixed-width
unicode dtypes are accepted.

A crash can cut the final record short at any byte: replay stops at the
first frame whose magic, length or checksum does not verify, treats the
remainder as a torn tail, and truncates it so the next append starts on a
clean boundary.  Corruption *before* the tail cannot be distinguished from a
tear and is handled the same way — everything after the damage is discarded,
which is exactly the prefix-durability contract fsync-per-commit buys.  A
frame that *does* verify is never discarded: an unknown format byte (a log
written by another format, such as the pickled frames of earlier versions)
raises :class:`~repro.errors.RecoveryError`, and a malformed format-1
payload raises :class:`~repro.errors.WalError`, both with the log untouched.

File I/O goes through the small :class:`LogStorage` seam (:class:`FileLogStorage`
over a real file, :class:`MemoryLogStorage` for tests) so the crash-injection
harness in ``tests/db/crashsim.py`` can interpose a fault-injecting
implementation with named crash points and prove, not just claim, the
recovery guarantees.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.dataset.io import table_arrays, table_from_arrays
from repro.dataset.table import Table, TableDelta
from repro.errors import RecoveryError, ReproError, WalError
from repro.partition.partitioning import MaintenanceProfile, PartitioningStats

#: Frame magic; a record not starting with it is torn/foreign and ends replay.
_MAGIC = b"RWAL"

#: Frame header layout: magic + payload length + payload CRC32.
_HEADER = struct.Struct(">4sII")

#: The one payload format this module writes and reads.
_FORMAT = 1

#: Payload prefix layout: format byte + JSON header length.
_PAYLOAD_PREFIX = struct.Struct(">BI")

#: Array dtype kinds a payload may carry: bool, signed and unsigned integer,
#: float, fixed-width unicode.  Never object.
_DTYPE_KINDS = frozenset("biufU")

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
      identically;
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
    group_ids: np.ndarray | None = None
    attributes: list[str] | None = None
    stats: PartitioningStats | None = None
    version: int | None = None
    maintenance: MaintenanceProfile | None = None
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


def _record_fields(record: WalRecord) -> tuple[dict, dict[str, np.ndarray]]:
    """The kind's scalar header fields and its arrays."""
    if record.kind == "create":
        assert record.table is not None
        meta, arrays = table_arrays(record.table)
        return {"meta": meta}, arrays
    if record.kind == "update":
        assert record.delta is not None
        meta, arrays = table_arrays(record.delta.inserted)
        scalars = {
            "base_version": record.delta.base_version,
            "base_rows": len(record.delta.deleted_mask),
            "meta": meta,
        }
        deleted = record.delta.deleted_rows().astype(np.int64, copy=False)
        return scalars, {"deleted": deleted, **arrays}
    if record.kind == "partition":
        assert record.stats is not None and record.maintenance is not None
        scalars = {
            "label": record.label,
            "attributes": record.attributes,
            "version": record.version,
            "stats": asdict(record.stats),
            "maintenance": asdict(record.maintenance),
        }
        return scalars, {"group_ids": np.asarray(record.group_ids)}
    if record.kind == "checkpoint":
        return {"versions": record.versions}, {}
    return {}, {}


def encode_record(record: WalRecord) -> bytes:
    """Frame one record: magic + length + CRC32 + format-1 payload."""
    scalars, arrays = _record_fields(record)
    buffers = [np.ascontiguousarray(array) for array in arrays.values()]
    header = {
        "kind": record.kind,
        "table": record.table_name,
        "lsn": record.lsn,
        **scalars,
        "arrays": [
            [name, array.dtype.str, list(array.shape)]
            for name, array in zip(arrays, buffers)
        ],
    }
    blob = json.dumps(header, separators=(",", ":")).encode()
    prefix = _PAYLOAD_PREFIX.pack(_FORMAT, len(blob)) + blob
    crc = zlib.crc32(prefix)
    for buffer in buffers:
        crc = zlib.crc32(buffer, crc)
    length = len(prefix) + sum(buffer.nbytes for buffer in buffers)
    return b"".join([_HEADER.pack(_MAGIC, length, crc), prefix, *buffers])


def _decode_arrays(specs: list, payload: bytearray, start: int) -> dict[str, np.ndarray]:
    """The arrays ``specs`` describes, read from ``payload[start:]``."""
    arrays: dict[str, np.ndarray] = {}
    offset = start
    for name, dtype_str, shape in specs:
        dtype = np.dtype(dtype_str)
        if dtype.kind not in _DTYPE_KINDS or dtype.itemsize == 0:
            raise WalError(f"WAL array {name!r} has disallowed dtype {dtype_str!r}")
        if not all(isinstance(dim, int) and dim >= 0 for dim in shape):
            raise WalError(f"WAL array {name!r} has invalid shape {shape!r}")
        count = math.prod(shape)
        if offset + count * dtype.itemsize > len(payload):
            raise WalError(f"WAL array {name!r} runs past the end of its payload")
        arrays[name] = np.frombuffer(payload, dtype, count, offset).reshape(shape)
        offset += count * dtype.itemsize
    if offset != len(payload):
        raise WalError(
            f"WAL payload holds {len(payload) - offset} bytes beyond its arrays"
        )
    return arrays


def _decode_payload(payload: bytearray) -> WalRecord:
    """One format-1 payload back into its :class:`WalRecord`."""
    try:
        _, header_length = _PAYLOAD_PREFIX.unpack_from(payload)
        start = _PAYLOAD_PREFIX.size + header_length
        header = json.loads(payload[_PAYLOAD_PREFIX.size : start].decode())
        arrays = _decode_arrays(header["arrays"], payload, start)
        kind = header["kind"]
        common = {"kind": kind, "table_name": header["table"], "lsn": header["lsn"]}
        if kind == "create":
            return WalRecord(**common, table=table_from_arrays(header["meta"], arrays))
        if kind == "update":
            deleted = arrays.pop("deleted")
            mask = np.zeros(header["base_rows"], dtype=bool)
            if ((deleted < 0) | (deleted >= len(mask))).any():
                raise WalError("WAL update deletes rows outside its base table")
            mask[deleted] = True
            inserted = table_from_arrays(header["meta"], arrays)
            delta = TableDelta(header["base_version"], inserted, mask)
            return WalRecord(**common, delta=delta)
        if kind == "partition":
            return WalRecord(
                **common,
                label=header["label"],
                group_ids=arrays["group_ids"],
                attributes=header["attributes"],
                stats=PartitioningStats(**header["stats"]),
                version=header["version"],
                maintenance=MaintenanceProfile(**header["maintenance"]),
            )
        if kind == "checkpoint":
            return WalRecord(**common, versions=header["versions"])
        return WalRecord(**common)
    except WalError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, struct.error, ReproError) as exc:
        raise WalError(f"malformed WAL record: {exc!r}") from exc


def decode_stream(data: bytes) -> tuple[list[WalRecord], int, bool]:
    """Decode every complete record from ``data``.

    Returns ``(records, valid_bytes, torn)``: the committed records, the
    byte offset of the first frame that failed to verify (== ``len(data)``
    when the log is clean), and whether trailing bytes were discarded.

    Raises :class:`~repro.errors.RecoveryError` for a verified frame whose
    format byte is not this module's, and :class:`~repro.errors.WalError`
    for a verified format-1 frame that does not decode: neither is a tear.
    """
    records: list[WalRecord] = []
    view = memoryview(data)
    offset = 0
    while True:
        if len(data) - offset < _HEADER.size:
            return records, offset, offset < len(data)
        magic, length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        payload = view[start : start + length]
        if magic != _MAGIC or len(payload) < length or zlib.crc32(payload) != crc:
            return records, offset, True
        if payload[:1] != bytes([_FORMAT]):
            found = f"0x{payload[0]:02x}" if length else "none (empty payload)"
            raise RecoveryError(
                f"WAL frame at byte offset {offset} has unknown format byte {found}; "
                f"this version reads format {_FORMAT} only, and leaves the log as it is"
            )
        # A writable copy: decoded columns are ordinary arrays, as a table
        # built in this process would hold.
        records.append(_decode_payload(bytearray(payload)))
        offset = start + length


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
