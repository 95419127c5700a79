"""Snapshot-consistent reads: pinned versions, release semantics, execution."""

import pickle

import numpy as np
import pytest

from repro.core.engine import PackageQueryEngine
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.db.catalog import Database
from repro.db.snapshot import PinnedTable, SnapshotHandle
from repro.errors import EvaluationError, SnapshotError
from repro.paql.builder import query_over
from repro.partition.quadtree import QuadTreePartitioner

ATTRS = ["x", "y"]


def _table(rows=12, seed=5, name="stream"):
    rng = np.random.default_rng(seed)
    return Table(
        Schema.numeric(ATTRS),
        {"x": rng.uniform(1.0, 50.0, rows), "y": rng.uniform(1.0, 50.0, rows)},
        name=name,
    )


@pytest.fixture
def db():
    db = Database()
    db.create_table(_table())
    db.register_partitioning(
        "stream", QuadTreePartitioner(4).partition(db.table("stream"), ATTRS)
    )
    return db


def _bump(db, rows=((3.0, 4.0),)):
    db.update_table("stream", db.table("stream").make_delta(insert=list(rows)))


class TestSnapshotPinning:
    def test_pinned_view_survives_commits(self, db):
        snap = db.snapshot()
        pinned = snap.table("stream")
        for _ in range(3):
            _bump(db)
        assert db.table("stream").version == 3
        assert snap.table("stream") is pinned
        assert snap.table("stream").version == 0
        assert snap.versions() == {"stream": 0}
        # The pinned partitioning still describes the pinned version.
        assert snap.partitioning("stream").version == 0
        assert db.partitioning("stream").version == 3

    def test_two_snapshots_pin_different_moments(self, db):
        old = db.snapshot()
        _bump(db)
        new = db.snapshot()
        assert (old.table("stream").version, new.table("stream").version) == (0, 1)
        assert new.snapshot_id == old.snapshot_id + 1
        old.release()
        assert new.table("stream").version == 1
        assert new.partitioning("stream").version == 1
        new.release()

    def test_acquire_subset_of_tables(self, db):
        db.create_table(_table(name="other", seed=9))
        snap = db.snapshot(names=["other"])
        assert snap.table_names() == ["other"]
        with pytest.raises(SnapshotError, match="not pinned"):
            snap.table("stream")
        snap.release()

    def test_pins_the_partitionings_registered_at_that_moment(self, db):
        before = db.snapshot()
        _bump(db)
        coarse = QuadTreePartitioner(8).partition(db.table("stream"), ["x"])
        db.register_partitioning("stream", coarse, label="coarse")
        after = db.snapshot()
        # Every registered label is pinned, each at the pinned table version.
        assert sorted(after.pins["stream"].partitionings) == ["coarse", "default"]
        assert after.partitioning("stream", "coarse") is coarse
        assert after.partitioning("stream").version == after.versions()["stream"] == 1
        # A label registered after the snapshot was taken is not in it.
        assert not before.has_partitioning("stream", "coarse")
        with pytest.raises(SnapshotError, match="none was registered"):
            before.partitioning("stream", "coarse")


class TestReleaseSemantics:
    def test_reads_after_release_raise(self, db):
        snap = db.snapshot()
        snap.release()
        assert snap.released
        with pytest.raises(SnapshotError, match="released"):
            snap.table("stream")
        snap.release()  # idempotent

    def test_context_manager_releases(self, db):
        with db.snapshot() as snap:
            assert snap.table("stream").version == 0
        assert snap.released
        with pytest.raises(SnapshotError, match="released"):
            snap.partitioning("stream")

    def test_release_leaves_other_handles_readable(self, db):
        handles = [db.snapshot() for _ in range(3)]
        assert [h.snapshot_id for h in handles] == [0, 1, 2]
        handles[1].release()
        assert [h.released for h in handles] == [False, True, False]
        for handle in (handles[0], handles[2]):
            assert handle.table("stream").version == 0
        with pytest.raises(SnapshotError, match="released"):
            handles[1].table("stream")


class TestSnapshotExecution:
    QUERY = query_over("stream").count_between(1, 2).minimize_sum("x").build()

    @pytest.fixture
    def engine(self, db):
        return PackageQueryEngine(database=db)

    def test_result_is_computed_over_the_pinned_version(self, engine):
        before = engine.execute(self.QUERY, method="direct", cache="bypass")
        snap = engine.snapshot()
        # Delete every original row; the live answer changes completely.
        survivors = [(100.0 + i, 100.0) for i in range(3)]
        engine.update_table(
            "stream",
            engine.table("stream").make_delta(
                insert=survivors, delete=np.arange(engine.table("stream").num_rows)
            ),
        )
        live = engine.execute(self.QUERY, method="direct", cache="bypass")
        pinned = engine.execute(self.QUERY, method="direct", snapshot=snap)
        assert pinned.objective == before.objective
        assert (
            pinned.package.as_multiplicity_map() == before.package.as_multiplicity_map()
        )
        assert live.objective != pinned.objective
        assert pinned.details["snapshot"] == {
            "id": snap.snapshot_id,
            "table_version": 0,
        }
        snap.release()

    def test_snapshot_execution_bypasses_the_cache(self, engine):
        warm = engine.execute(self.QUERY, method="direct", cache="use")
        assert warm.details["cache"]["status"] == "miss"
        with engine.snapshot() as snap:
            result = engine.execute(self.QUERY, method="direct", snapshot=snap, cache="use")
        assert result.details["cache"]["status"] == "bypass"
        assert "snapshot" in result.details["cache"]["reason"]
        # The snapshot run neither served from nor polluted the cache.
        assert len(engine.cache) == 1
        again = engine.execute(self.QUERY, method="direct", cache="use")
        assert again.details["cache"]["status"] == "hit"

    def test_sketchrefine_uses_the_pinned_partitioning(self, engine):
        snap = engine.snapshot()
        _bump(engine.database)
        result = engine.execute(self.QUERY, method="sketchrefine", snapshot=snap)
        assert result.details["snapshot"]["table_version"] == 0
        assert result.feasible
        snap.release()

    def test_released_snapshot_refused(self, engine):
        snap = engine.snapshot()
        snap.release()
        with pytest.raises(SnapshotError, match="released"):
            engine.execute(self.QUERY, method="direct", snapshot=snap)

    def test_snapshot_without_the_partitioning_answers_auto_with_direct(self, db):
        engine = PackageQueryEngine(database=db, auto_direct_threshold=1)
        snap = engine.snapshot()
        auto = engine.execute(self.QUERY, snapshot=snap, partitioning_label="coarse")
        assert auto.method.value == "direct"
        assert "no partitioning 'coarse'" in auto.details["auto"]
        assert auto.objective == engine.execute(self.QUERY, method="direct").objective
        # Asked for explicitly, SKETCHREFINE cannot run without it.
        with pytest.raises(EvaluationError, match="build_partitioning"):
            engine.execute(
                self.QUERY, method="sketchrefine", snapshot=snap, partitioning_label="coarse"
            )


class TestHandlePickling:
    def test_round_trip_ships_a_self_contained_view(self, db):
        snap = db.snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.versions() == snap.versions()
        assert clone.table("stream").equals(snap.table("stream"))
        assert clone.partitioning("stream").version == 0
        # The clone is its own handle: releasing it leaves the original live.
        clone.release()
        assert snap.table("stream").version == 0
        snap.release()

    def test_pinned_table_round_trip(self, db):
        pin = db.snapshot().pins["stream"]
        clone = pickle.loads(pickle.dumps(pin))
        assert isinstance(clone, PinnedTable)
        assert clone.version == pin.version
        assert clone.table.equals(pin.table)
        assert sorted(clone.partitionings) == sorted(pin.partitionings)
