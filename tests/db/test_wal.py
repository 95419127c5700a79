"""Unit tests for the write-ahead log: framing, torn tails, storage backends."""

import pickle

import numpy as np
import pytest

from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.db.wal import (
    FileLogStorage,
    MemoryLogStorage,
    WalRecord,
    WriteAheadLog,
    decode_stream,
    encode_record,
)
from repro.errors import WalError


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
        # A frame whose CRC verifies but whose payload is not a WalRecord
        # (someone else's pickle) must not be replayed as a commit.
        import struct
        import zlib

        payload = pickle.dumps({"not": "a record"})
        frame = struct.pack(">4sII", b"RWAL", len(payload), zlib.crc32(payload)) + payload
        decoded, valid, torn = decode_stream(frame)
        assert (decoded, valid, torn) == ([], 0, True)


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
