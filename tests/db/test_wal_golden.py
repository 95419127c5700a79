"""Golden durability fixtures: committed logs and a checkpoint snapshot that
every later version must recover bit for bit.

``fixtures/history.wal`` holds every record kind but ``checkpoint``: two
creates, a drop, a partitioning and three updates of a 24-row seeded table
with float, int and nullable string columns.  ``fixtures/checkpointed.wal``
continues that history past a checkpoint: the marker, then two more updates
over ``fixtures/snapshot/``.  ``fixtures/pickle_format.wal`` is a log in the
pickled frame format of earlier versions, which recovery must refuse without
touching it.  Each test recovers a copy, so the committed bytes never change.
"""

import hashlib
import shutil
from pathlib import Path

import pytest

from repro.db.catalog import Database
from repro.db.wal import WriteAheadLog, decode_stream, encode_record
from repro.errors import RecoveryError
from repro.partition.maintenance import partitioning_signature

FIXTURES = Path(__file__).parent / "fixtures"

#: sha256 of the recovered table's bytes and of its partitioning's signature.
HISTORY_DIGESTS = (
    "ddae7f34f6b11dabb8401898a9c4fe9337a7c29df4a57da65be3d5a263535fb8",
    "5e1b069a3b78f7eaeee6751a11de2531665b5652d92143bbb567e1b271e6341e",
)
CHECKPOINTED_DIGESTS = (
    "c1ac85ab53c45fefbb34fd4e366d0d588a429ea948047761aba8feaeabc96c76",
    "b9a709fd223b342b09d02e45e6ad95bc30845b43605989157f3c0d6139251b51",
)


def table_digest(table) -> str:
    digest = hashlib.sha256(repr((table.name, table.version, table.schema.names)).encode())
    for name in table.schema.names:
        values = table.column(name)
        if values.dtype == object:
            digest.update(repr(list(values)).encode())
        else:
            digest.update(values.dtype.str.encode() + values.tobytes())
    return digest.hexdigest()


def recovered_digests(db: Database) -> tuple[str, str]:
    signature = partitioning_signature(db.partitioning("golden"))
    return (
        table_digest(db.table("golden")),
        hashlib.sha256(repr(signature).encode()).hexdigest(),
    )


@pytest.fixture
def fixtures(tmp_path: Path) -> Path:
    copy = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, copy)
    return copy


def test_history_log_recovers_bit_for_bit(fixtures: Path) -> None:
    db = Database.recover(fixtures / "history.wal")
    assert db.table_names() == ["golden"]
    assert db.table("golden").version == 3
    assert recovered_digests(db) == HISTORY_DIGESTS
    db.wal.close()


def test_checkpointed_log_recovers_bit_for_bit(fixtures: Path) -> None:
    db = Database.recover(fixtures / "checkpointed.wal", directory=fixtures / "snapshot")
    assert db.table("golden").version == 5
    assert recovered_digests(db) == CHECKPOINTED_DIGESTS
    db.wal.close()


@pytest.mark.parametrize("log", ["history.wal", "checkpointed.wal"])
def test_golden_logs_re_encode_to_the_same_bytes(log: str) -> None:
    data = (FIXTURES / log).read_bytes()
    records, valid, torn = decode_stream(data)
    assert not torn and valid == len(data)
    assert b"".join(encode_record(record) for record in records) == data


def test_pickle_format_log_is_refused_untouched(fixtures: Path) -> None:
    path = fixtures / "pickle_format.wal"
    before = path.read_bytes()
    with pytest.raises(RecoveryError, match="offset 0 has unknown format byte 0x80"):
        WriteAheadLog(path)
    with pytest.raises(RecoveryError, match="unknown format byte"):
        Database.recover(path)
    assert path.read_bytes() == before
