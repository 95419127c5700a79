"""Unit tests for the write-ahead log: framing, the record format, torn
tails, storage backends."""

import json
import pickle
import struct
import zlib

import numpy as np
import pytest

from repro.dataset.schema import Column, DataType, Schema
from repro.dataset.table import Table
from repro.db.wal import (
    FileLogStorage,
    MemoryLogStorage,
    WalRecord,
    WriteAheadLog,
    decode_stream,
    encode_record,
)
from repro.errors import RecoveryError, WalError
from repro.partition.partitioning import Partitioning
from repro.partition.quadtree import QuadTreePartitioner
from repro.workloads.galaxy import galaxy_table


def _table(rows=4, name="t", version=0):
    values = np.arange(rows, dtype=float)
    return Table(
        Schema.numeric(["a", "b"]),
        {"a": values, "b": values * 10.0},
        name=name,
        version=version,
    )


def _update_record(table=None):
    table = table if table is not None else _table()
    delta = table.make_delta(insert=[(99.0, 990.0)], delete=[0])
    return WalRecord.update(table.name, delta)


class TestRecordFraming:
    def test_encode_decode_round_trip(self):
        records = [
            WalRecord.create("t", _table()),
            _update_record(),
            WalRecord.drop("t"),
            WalRecord.checkpoint({"t": 3}),
        ]
        data = b"".join(encode_record(r) for r in records)
        decoded, valid, torn = decode_stream(data)
        assert not torn
        assert valid == len(data)
        assert [r.kind for r in decoded] == ["create", "update", "drop", "checkpoint"]
        assert decoded[3].versions == {"t": 3}

    def test_empty_stream(self):
        assert decode_stream(b"") == ([], 0, False)

    def test_unknown_kind_rejected(self):
        with pytest.raises(WalError, match="unknown WAL record kind"):
            WalRecord(kind="vacuum")

    @pytest.mark.parametrize("cut", [1, 4, 11, 12, 40])
    def test_torn_tail_truncated_at_any_byte(self, cut):
        first = encode_record(WalRecord.drop("t"))
        second = encode_record(_update_record())
        assert cut < len(second)
        decoded, valid, torn = decode_stream(first + second[:cut])
        assert torn
        assert valid == len(first)
        assert [r.kind for r in decoded] == ["drop"]

    def test_corrupt_crc_ends_replay(self):
        first = encode_record(WalRecord.drop("t"))
        second = bytearray(encode_record(WalRecord.drop("u")))
        second[-1] ^= 0xFF  # flip a payload byte; CRC no longer verifies
        decoded, valid, torn = decode_stream(first + bytes(second))
        assert torn
        assert valid == len(first)
        assert len(decoded) == 1

    def test_corrupt_magic_ends_replay(self):
        frame = bytearray(encode_record(WalRecord.drop("t")))
        frame[0] = ord("X")
        decoded, valid, torn = decode_stream(bytes(frame))
        assert (decoded, valid, torn) == ([], 0, True)

    def test_foreign_payload_of_framed_length_ends_replay(self):
        # A frame whose CRC verifies but whose payload is not format 1 (here
        # someone else's pickle, as logs of earlier versions hold) is not a
        # tear: replay refuses it and the log keeps every byte.
        first = encode_record(WalRecord.drop("t"))
        frame = _frame(pickle.dumps({"not": "a record"}))
        with pytest.raises(RecoveryError, match=f"offset {len(first)} .* 0x80"):
            decode_stream(first + frame)
        storage = MemoryLogStorage(first + frame)
        with pytest.raises(RecoveryError, match="unknown format byte"):
            WriteAheadLog(storage)
        assert storage.durable == first + frame


def _frame(payload: bytes) -> bytes:
    """A frame whose magic, length and CRC verify around ``payload``."""
    return struct.pack(">4sII", b"RWAL", len(payload), zlib.crc32(payload)) + payload


def _payload_parts(record: WalRecord) -> tuple[dict, bytes]:
    """The JSON header and the array bytes of ``record``'s payload."""
    payload = encode_record(record)[12:]
    (header_length,) = struct.unpack(">I", payload[1:5])
    return json.loads(payload[5 : 5 + header_length]), payload[5 + header_length :]


def _payload(header: dict, body: bytes) -> bytes:
    blob = json.dumps(header).encode()
    return struct.pack(">BI", 1, len(blob)) + blob + body


def _assert_tables_identical(restored: Table, original: Table) -> None:
    assert (restored.name, restored.version) == (original.name, original.version)
    assert restored.schema == original.schema
    for name in original.schema.names:
        a, b = restored.column(name), original.column(name)
        assert a.dtype == b.dtype, name
        if b.dtype == object:
            assert list(a) == list(b), name
        else:
            assert a.tobytes() == b.tobytes(), name


def _mixed_table(rows=6, version=3):
    """Float (with NaN and -0.0), int and nullable string columns."""
    schema = Schema(
        [
            Column("x", DataType.FLOAT, nullable=True),
            Column("n", DataType.INT),
            Column("s", DataType.STRING, nullable=True),
        ]
    )
    x = np.linspace(-1.0, 1.0, rows)
    x[1], x[2] = np.nan, -0.0
    strings = ["a", None, "", "gr\u00fc\u00dfe", "b" * 9, None][:rows]
    data = {"x": x, "n": np.arange(rows) * -7, "s": strings}
    return Table(schema, data, name="mixed", version=version)


class TestRecordFormat:
    def test_every_kind_round_trips_field_by_field(self):
        table = _mixed_table()
        delta = table.make_delta(insert=[(np.nan, 5, None), (2.5, -1, "z")], delete=[0, 4])
        numeric = _table(rows=40)
        partitioning = QuadTreePartitioner(8).partition(numeric, ["a", "b"])
        records = [
            WalRecord.create("catalog_name", table),
            WalRecord.update("mixed", delta),
            WalRecord.drop("mixed"),
            WalRecord.partition("t", "coarse", partitioning),
            WalRecord.checkpoint({"mixed": 4, "t": 0}),
        ]
        for lsn, record in enumerate(records, start=7):
            record = WalRecord(**{**vars(record), "lsn": lsn})
            (restored,), _, torn = decode_stream(encode_record(record))
            assert not torn
            for name in ("kind", "table_name", "lsn", "label", "attributes", "stats",
                         "version", "maintenance", "versions"):
                assert getattr(restored, name) == getattr(record, name), name
            for name in ("table", "delta", "group_ids"):
                assert (getattr(restored, name) is None) == (getattr(record, name) is None)
            if record.table is not None:
                _assert_tables_identical(restored.table, record.table)
            if record.delta is not None:
                assert restored.delta.base_version == record.delta.base_version
                assert restored.delta.deleted_mask.dtype == np.dtype(bool)
                assert (
                    restored.delta.deleted_mask.tobytes() == record.delta.deleted_mask.tobytes()
                )
                _assert_tables_identical(restored.delta.inserted, record.delta.inserted)
            if record.group_ids is not None:
                assert restored.group_ids.dtype == record.group_ids.dtype
                assert restored.group_ids.tobytes() == record.group_ids.tobytes()

    def test_decoded_columns_are_writable_arrays(self):
        (restored,), _, _ = decode_stream(encode_record(WalRecord.create("t", _table())))
        assert restored.table.column("a").flags.writeable

    def test_derived_state_never_ships(self):
        table = _table(rows=60)
        built = QuadTreePartitioner(8).partition(table, ["a", "b"])
        # The state replay rebuilds from: every per-group structure still lazy.
        fresh = Partitioning(table, built.group_ids, built.attributes, built.stats)
        assert fresh._moments is None and fresh._radii is None
        logged = encode_record(WalRecord.partition("t", "default", fresh))
        # Every lazily derived per-group structure, computed before logging.
        built.representatives
        built.group_radii_array()
        built.rows_by_group()
        assert encode_record(WalRecord.partition("t", "default", built)) == logged

    def test_small_delta_on_galaxy_encodes_under_4kb(self):
        table = galaxy_table(20_000, seed=42)
        rng = np.random.default_rng(7)
        delta = table.make_delta(
            insert=table.take(rng.choice(table.num_rows, 10, replace=False)),
            delete=np.sort(rng.choice(table.num_rows, 10, replace=False)),
        )
        assert len(encode_record(WalRecord.update(table.name, delta))) < 4096

    @pytest.mark.parametrize(
        "payload",
        [b"\x01", struct.pack(">BI", 1, 5) + b"{nope", struct.pack(">BI", 1, 2) + b"[]"],
        ids=["no_header_length", "not_json", "not_an_object"],
    )
    def test_header_that_does_not_parse_raises(self, payload):
        with pytest.raises(WalError, match="malformed"):
            decode_stream(_frame(payload))

    @pytest.mark.parametrize("dtype", ["|O", "|V8", "<M8[s]", "<c16"])
    def test_disallowed_dtype_raises(self, dtype):
        header, body = _payload_parts(WalRecord.create("t", _table()))
        header["arrays"][0][1] = dtype
        with pytest.raises(WalError, match="disallowed dtype"):
            decode_stream(_frame(_payload(header, body)))

    @pytest.mark.parametrize("extra", [1, -1], ids=["trailing_byte", "short_by_one"])
    def test_sizes_that_do_not_add_up_raise(self, extra):
        header, body = _payload_parts(WalRecord.create("t", _table()))
        body = body + b"\0" if extra > 0 else body[:-1]
        with pytest.raises(WalError):
            decode_stream(_frame(_payload(header, body)))

    def test_update_deleting_past_its_base_raises(self):
        header, body = _payload_parts(_update_record())
        header["base_rows"] = 0
        with pytest.raises(WalError, match="outside its base table"):
            decode_stream(_frame(_payload(header, body)))

    def test_unknown_kind_in_header_raises(self):
        header, body = _payload_parts(WalRecord.drop("t"))
        header["kind"] = "vacuum"
        with pytest.raises(WalError, match="unknown WAL record kind"):
            decode_stream(_frame(_payload(header, body)))


class TestWriteAheadLog:
    def test_lsn_sequencing(self):
        wal = WriteAheadLog(MemoryLogStorage())
        committed = [wal.append(WalRecord.drop(f"t{i}")) for i in range(3)]
        assert [r.lsn for r in committed] == [0, 1, 2]
        assert [r.lsn for r in wal.records()] == [0, 1, 2]
        assert wal.next_lsn == 3
        assert len(wal) == 3

    def test_append_is_durable_immediately(self):
        storage = MemoryLogStorage()
        wal = WriteAheadLog(storage)
        wal.append(WalRecord.drop("t"))
        assert storage.buffered == b""  # synced, not just buffered
        records, _, torn = decode_stream(storage.durable)
        assert not torn and len(records) == 1

    def test_reopen_resumes_lsn_and_truncates_tear(self):
        storage = MemoryLogStorage()
        wal = WriteAheadLog(storage)
        wal.append(WalRecord.drop("a"))
        wal.append(WalRecord.drop("b"))
        torn = storage.durable + encode_record(WalRecord.drop("c"))[:-3]
        reopened = WriteAheadLog(MemoryLogStorage(torn))
        assert reopened.recovered_torn_tail
        assert [r.table_name for r in reopened.records()] == ["a", "b"]
        assert reopened.append(WalRecord.drop("d")).lsn == 2
        assert not WriteAheadLog(MemoryLogStorage(reopened.storage.read())).recovered_torn_tail

    def test_reset_compacts_to_given_records(self):
        wal = WriteAheadLog(MemoryLogStorage())
        for i in range(4):
            wal.append(WalRecord.drop(f"t{i}"))
        wal.reset([WalRecord.checkpoint({"t": 4})])
        records = wal.records()
        assert [r.kind for r in records] == ["checkpoint"]
        assert records[0].lsn == 4  # LSNs keep advancing across compaction
        assert wal.append(WalRecord.drop("u")).lsn == 5

    def test_closed_log_refuses_appends(self):
        wal = WriteAheadLog(MemoryLogStorage())
        wal.close()
        with pytest.raises(WalError, match="closed"):
            wal.append(WalRecord.drop("t"))
        with pytest.raises(WalError, match="closed"):
            wal.reset()


class TestFileLogStorage:
    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "wal" / "log.wal"
        wal = WriteAheadLog(path)  # parent directory is created on demand
        wal.append(WalRecord.drop("a"))
        wal.append(_update_record())
        wal.close()

        reopened = WriteAheadLog(FileLogStorage(path))
        assert [r.kind for r in reopened.records()] == ["drop", "update"]
        assert reopened.next_lsn == 2
        reopened.close()

    def test_torn_file_tail_truncated_on_open(self, tmp_path):
        path = tmp_path / "log.wal"
        wal = WriteAheadLog(path)
        wal.append(WalRecord.drop("a"))
        wal.close()
        with open(path, "ab") as handle:
            handle.write(encode_record(WalRecord.drop("b"))[:-2])

        reopened = WriteAheadLog(path)
        assert reopened.recovered_torn_tail
        assert [r.table_name for r in reopened.records()] == ["a"]
        # The truncation is physical: the file is back on a frame boundary.
        records, _, torn = decode_stream(path.read_bytes())
        assert not torn and len(records) == 1
        reopened.close()

    def test_reset_replaces_file_atomically(self, tmp_path):
        path = tmp_path / "log.wal"
        wal = WriteAheadLog(path)
        for i in range(3):
            wal.append(WalRecord.drop(f"t{i}"))
        wal.reset()
        assert path.read_bytes() == b""
        assert not path.with_name("log.wal.tmp").exists()
        wal.close()


class TestMemoryLogStorage:
    def test_buffered_bytes_only_durable_after_sync(self):
        storage = MemoryLogStorage()
        storage.append(b"abc")
        assert storage.read() == b""
        storage.sync()
        assert storage.read() == b"abc"
        storage.append(b"def")
        storage.reset(b"xyz")
        assert (storage.durable, storage.buffered) == (b"xyz", b"")
