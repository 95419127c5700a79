"""Crash-recovery property tests: kill the catalog at every named crash
point of every commit and prove recovery lands on the last committed version.

The reference run applies the same seeded operation stream with no faults and
records a full state signature (table columns bitwise, partitioning
signatures, versions) after every commit.  Each matrix cell then replays the
stream against a :class:`crashsim.CrashStorage` planned to die at one crash
point of one commit, recovers from the durable bytes alone, and asserts the
recovered catalog equals the reference signature of the expected version:
the *previous* commit for ``pre-write`` / ``mid-record`` /
``post-write-pre-fsync``, the *crashed* commit itself for ``post-commit``.
"""

from __future__ import annotations

import numpy as np
import pytest

from crashsim import CRASH_POINTS, LOSING_POINTS, CrashStorage, SimulatedCrash, recovered_wal
from repro.core.engine import PackageQueryEngine
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.db.catalog import Database
from repro.db.wal import MemoryLogStorage, WalRecord, WriteAheadLog, encode_record
from repro.errors import RecoveryError
from repro.paql.builder import query_over
from repro.partition.maintenance import partitioning_signature
from repro.partition.quadtree import QuadTreePartitioner

ATTRIBUTES = ["x", "y"]
NUM_DELTAS = 30


def _base_table(rng: np.random.Generator, rows: int = 15) -> Table:
    return Table(
        Schema.numeric(ATTRIBUTES),
        {
            "x": rng.uniform(1.0, 50.0, rows),
            "y": rng.uniform(1.0, 50.0, rows),
        },
        name="stream",
    )


def _random_delta(table: Table, rng: np.random.Generator):
    """A random, always-valid delta: some inserts, some deletes, never empty."""
    num_insert = int(rng.integers(0, 4))
    max_delete = min(2, max(0, table.num_rows - 4))
    num_delete = int(rng.integers(0, max_delete + 1))
    if num_insert == 0 and num_delete == 0:
        num_insert = 1
    insert = [
        (float(rng.uniform(1.0, 50.0)), float(rng.uniform(1.0, 50.0)))
        for _ in range(num_insert)
    ]
    delete = rng.choice(table.num_rows, size=num_delete, replace=False)
    return table.make_delta(insert=insert, delete=np.sort(delete))


def _ops(seed: int, num_deltas: int = NUM_DELTAS):
    """The seeded operation stream: one closure per commit (one WAL append).

    Every run — reference or crash — replays these in order with its own
    seeded generator, so the deltas are identical across runs by
    construction (the generators consume the same draws in the same order).
    """
    ops = [
        lambda db, rng: db.create_table(_base_table(rng)),
        lambda db, rng: db.register_partitioning(
            "stream", QuadTreePartitioner(4).partition(db.table("stream"), ATTRIBUTES)
        ),
    ]
    ops += [
        lambda db, rng: db.update_table("stream", _random_delta(db.table("stream"), rng))
        for _ in range(num_deltas)
    ]
    return ops


def _signature(db: Database) -> dict:
    """Everything recovery promises, in comparable (bitwise for arrays) form."""
    sig: dict = {}
    for name in db.table_names():
        table = db.table(name)
        sig[name] = {
            "version": table.version,
            "num_rows": table.num_rows,
            "columns": {c: table.column(c).tobytes() for c in table.schema.names},
            "partitionings": {
                label: partitioning_signature(db.partitioning(name, label))
                for label in db.partitioning_labels(name)
            },
        }
    return sig


def _reference_signatures(seed: int, num_deltas: int = NUM_DELTAS) -> list[dict]:
    """``signatures[k]`` = state after the first ``k + 1`` commits."""
    rng = np.random.default_rng(seed)
    db = Database()
    signatures = []
    for op in _ops(seed, num_deltas):
        op(db, rng)
        signatures.append(_signature(db))
    return signatures


def _run_until_crash(seed: int, storage: CrashStorage, num_deltas: int = NUM_DELTAS):
    """Replay the stream on a WAL over ``storage`` until the planned crash."""
    rng = np.random.default_rng(seed)
    db = Database(wal=WriteAheadLog(storage))
    crashed_at = None
    for index, op in enumerate(_ops(seed, num_deltas)):
        try:
            op(db, rng)
        except SimulatedCrash:
            crashed_at = index
            break
    return db, crashed_at


class TestCrashMatrix:
    """Every crash point × every commit of a 30-delta random stream."""

    @pytest.mark.parametrize("seed", [11, 23])
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_recovers_to_last_committed_version(self, seed, point):
        signatures = _reference_signatures(seed)
        num_commits = len(signatures)
        for commit in range(num_commits):
            storage = CrashStorage()
            storage.plan_crash(commit, point)
            live_db, crashed_at = _run_until_crash(seed, storage)
            assert crashed_at == commit, f"crash fired at {crashed_at}, planned {commit}"

            # The write-ahead discipline: a crash anywhere inside the commit
            # leaves the *in-memory* catalog at the previous commit too.
            assert _signature(live_db) == (signatures[commit - 1] if commit else {})

            expected = commit if point == "post-commit" else commit - 1
            recovered = Database.recover(recovered_wal(storage))
            assert _signature(recovered) == (
                signatures[expected] if expected >= 0 else {}
            ), f"seed={seed} point={point} commit={commit}"

    @pytest.mark.parametrize("point", LOSING_POINTS)
    def test_losing_points_leave_no_trace_in_the_log(self, point):
        storage = CrashStorage()
        storage.plan_crash(3, point)
        _run_until_crash(17, storage)
        wal = recovered_wal(storage)
        assert len(wal.records()) == 3
        assert wal.recovered_torn_tail == (point == "mid-record")

    def test_recovered_catalog_survives_a_second_crash(self):
        # Recovery re-attaches the log; keep committing, crash again, recover
        # again — the guarantee must be stable under iteration.
        seed = 29
        storage = CrashStorage()
        storage.plan_crash(6, "mid-record")
        _run_until_crash(seed, storage)
        recovered = Database.recover(recovered_wal(storage))

        table = recovered.table("stream")
        recovered.update_table("stream", table.make_delta(insert=[(2.0, 3.0)]))
        after_second = _signature(recovered)

        again = Database.recover(
            WriteAheadLog(MemoryLogStorage(recovered.wal.storage.read()))
        )
        assert _signature(again) == after_second


class TestCheckpointRecovery:
    def _stream_with_checkpoint(self, tmp_path, crash_after_checkpoint=None):
        seed = 31
        rng = np.random.default_rng(seed)
        storage = CrashStorage()
        db = Database(wal=WriteAheadLog(storage))
        db.create_table(_base_table(rng))
        db.register_partitioning(
            "stream", QuadTreePartitioner(4).partition(db.table("stream"), ATTRIBUTES)
        )
        for _ in range(5):
            db.update_table("stream", _random_delta(db.table("stream"), rng))
        db.checkpoint(tmp_path / "snap")
        if crash_after_checkpoint is not None:
            storage.plan_crash(storage.append_count + crash_after_checkpoint[0],
                               crash_after_checkpoint[1])
        crashed = False
        for _ in range(4):
            try:
                db.update_table("stream", _random_delta(db.table("stream"), rng))
            except SimulatedCrash:
                crashed = True
                break
        return db, storage, crashed

    def test_recovery_replays_only_the_post_checkpoint_tail(self, tmp_path):
        db, storage, _ = self._stream_with_checkpoint(tmp_path)
        wal = recovered_wal(storage)
        # Compacted log: the checkpoint marker plus the four tail updates.
        assert [r.kind for r in wal.records()] == ["checkpoint"] + ["update"] * 4
        recovered = Database.recover(wal, tmp_path / "snap")
        assert _signature(recovered) == _signature(db)

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_in_the_tail_after_a_checkpoint(self, tmp_path, point):
        db, storage, crashed = self._stream_with_checkpoint(
            tmp_path, crash_after_checkpoint=(2, point)
        )
        assert crashed
        recovered = Database.recover(recovered_wal(storage), tmp_path / "snap")
        if point == "post-commit":
            # The commit is durable but was never acknowledged: the crashed
            # process died before applying it in memory.  Recovery must land
            # one commit *ahead* of the dead process's live state — apply the
            # logged delta to the live catalog to compute that expectation.
            last = recovered.wal.records()[-1]
            db.update_table("stream", last.delta)
        assert _signature(recovered) == _signature(db)
        expected_tail = 3 if point == "post-commit" else 2
        assert recovered.table("stream").version == 5 + expected_tail

    def test_crash_between_save_and_log_reset(self, tmp_path):
        # The checkpoint's save completed but the log still holds full
        # history: replay must skip every record the snapshot already
        # absorbed (their versions lag it) instead of double-applying.
        seed = 37
        rng = np.random.default_rng(seed)
        storage = CrashStorage()
        db = Database(wal=WriteAheadLog(storage))
        db.create_table(_base_table(rng))
        db.register_partitioning(
            "stream", QuadTreePartitioner(4).partition(db.table("stream"), ATTRIBUTES)
        )
        for _ in range(5):
            db.update_table("stream", _random_delta(db.table("stream"), rng))
        db.save(tmp_path / "snap")  # checkpoint() minus the wal.reset()

        recovered = Database.recover(recovered_wal(storage), tmp_path / "snap")
        assert _signature(recovered) == _signature(db)

    def test_version_gap_raises_instead_of_guessing(self, tmp_path):
        db, storage, _ = self._stream_with_checkpoint(tmp_path)
        wal = recovered_wal(storage)
        # Drop one mid-tail update record: the remaining stream has a hole.
        records = wal.records()
        broken = WriteAheadLog(MemoryLogStorage())
        for record in records[:2] + records[3:]:
            broken.append(record)
        with pytest.raises(RecoveryError, match="cannot replay"):
            Database.recover(
                WriteAheadLog(MemoryLogStorage(broken.storage.read())), tmp_path / "snap"
            )

    def test_update_for_unknown_table_raises(self):
        table = _base_table(np.random.default_rng(0))
        delta = table.make_delta(insert=[(1.0, 1.0)])
        wal = WriteAheadLog(MemoryLogStorage())
        wal.append(WalRecord.update("ghost", delta))
        with pytest.raises(RecoveryError, match="unknown table"):
            Database.recover(WriteAheadLog(MemoryLogStorage(wal.storage.read())))

    @pytest.mark.parametrize("policy", ["maintain", "stale"])
    def test_update_records_of_older_logs_replay_only_if_maintained(self, policy):
        # Logs written while a "stale" policy existed record each update's
        # policy as a ``policy`` attribute; the class no longer declares it.
        rng = np.random.default_rng(3)
        db = Database(wal=WriteAheadLog(MemoryLogStorage()))
        db.create_table(_base_table(rng))
        db.register_partitioning(
            "stream", QuadTreePartitioner(4).partition(db.table("stream"), ATTRIBUTES)
        )
        delta = _random_delta(db.table("stream"), rng)
        record = WalRecord(kind="update", table_name="stream", lsn=2, delta=delta)
        object.__setattr__(record, "policy", policy)
        log = db.wal.storage.read() + encode_record(record)
        if policy == "maintain":
            recovered = Database.recover(WriteAheadLog(MemoryLogStorage(log)))
            db.update_table("stream", delta)
            assert _signature(recovered) == _signature(db)
        else:
            with pytest.raises(RecoveryError, match="policy 'stale'"):
                Database.recover(WriteAheadLog(MemoryLogStorage(log)))

    def test_checkpoint_marker_against_wrong_snapshot_raises(self, tmp_path):
        db, storage, _ = self._stream_with_checkpoint(tmp_path)
        # Recovering the compacted log *without* the snapshot directory the
        # checkpoint wrote means the marker's versions cannot be satisfied.
        with pytest.raises(RecoveryError, match="checkpoint marker"):
            Database.recover(recovered_wal(storage))


class TestCacheAcrossRecovery:
    """A registered result cache must never serve a stale answer after
    recovery, and a re-queried recovered catalog must reproduce the
    reference cache contents exactly."""

    QUERY = (
        query_over("stream")
        .count_between(1, 2)
        .minimize_sum("x")
        .build()
    )

    def _round(self, engine: PackageQueryEngine, rng: np.random.Generator) -> None:
        engine.update_table(
            "stream", _random_delta(engine.table("stream"), rng)
        )
        engine.execute(self.QUERY, method="direct", cache="use")

    @pytest.mark.parametrize("point", CRASH_POINTS)
    @pytest.mark.parametrize("crash_round", [1, 4])
    def test_no_stale_cache_hit_after_recovery(self, point, crash_round):
        seed = 41

        def build(storage=None):
            rng = np.random.default_rng(seed)
            wal = WriteAheadLog(storage) if storage is not None else None
            db = Database(wal=wal) if wal is not None else Database()
            engine = PackageQueryEngine(database=db)
            engine.register_table(_base_table(rng))
            engine.database.register_partitioning(
                "stream",
                QuadTreePartitioner(4).partition(engine.table("stream"), ATTRIBUTES),
            )
            return engine, rng

        # Reference: no faults; remember state + cache contents per round.
        reference, ref_rng = build()
        ref_states = []
        for _ in range(5):
            self._round(reference, ref_rng)
            ref_states.append(
                (_signature(reference.database), reference.cache.entries_snapshot())
            )

        # Crash run: same stream, die inside the update of `crash_round`.
        storage = CrashStorage()
        engine, rng = build(storage)
        storage.plan_crash(2 + crash_round, point)  # appends 0-1 are setup
        completed = 0
        with pytest.raises(SimulatedCrash):
            for _ in range(5):
                self._round(engine, rng)
                completed += 1
        assert completed == crash_round

        # The cache survives the crash (an external cache service would);
        # recovery registers it so the replayed update stream flows through
        # its invalidation path before anything is served from it.
        surviving_cache = engine.cache
        recovered = Database.recover(recovered_wal(storage), caches=[surviving_cache])
        # For post-commit the crashed round's update is durable, so recovery
        # lands on the *next* round's reference state (the delta streams are
        # identical by seeding); for the losing points, on the crashed
        # round's predecessor.
        expected_round = crash_round + 1 if point == "post-commit" else crash_round
        expected_state, expected_entries = ref_states[expected_round - 1]
        assert _signature(recovered) == expected_state

        engine2 = PackageQueryEngine(database=recovered, cache=surviving_cache)
        served = engine2.execute(self.QUERY, method="direct", cache="use")
        ground_truth = engine2.execute(self.QUERY, method="direct", cache="bypass")
        assert served.objective == ground_truth.objective
        assert (
            served.package.as_multiplicity_map()
            == ground_truth.package.as_multiplicity_map()
        )
        # Every surviving entry is anchored to the recovered version — an
        # entry claiming any other version would be the stale-hit bug.
        current = recovered.table("stream").version
        for entry in surviving_cache.entries_snapshot():
            assert entry["table_version"] == current
        # Re-querying the recovered catalog reproduces the reference cache
        # contents bit for bit (deterministic solver over bitwise-equal
        # tables) — including for post-commit, where the reference stored
        # its entry after the very update the crash run never acknowledged.
        assert surviving_cache.entries_snapshot() == expected_entries
