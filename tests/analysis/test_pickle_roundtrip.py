"""Regression guard: every pickled payload class pickles faithfully.

The class list is read from the pickle-safety checker's ``payload_classes``
config — the same source of truth the static rule enforces — so the checker
and this runtime guard cannot drift apart: a class added to the checker must
be constructible and round-trippable here, and a class the package pickles
must be registered with the checker.
"""

from __future__ import annotations

import pickle
from typing import Any

import numpy as np
import pytest

from repro.analysis.checkers.pickle_safety import PickleSafetyChecker
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.db.catalog import Database
from repro.db.wal import WalRecord


@pytest.fixture(scope="module")
def payload_instances() -> dict[str, Any]:
    """One live instance of every class the pickle-safety checker registers:
    a WAL update record and a pinned snapshot view of a small live catalog."""
    db = Database()
    db.create_table(
        Table(
            Schema.numeric(["x"]), {"x": np.arange(5, dtype=float)}, name="pickle_guard"
        )
    )
    snapshot = db.snapshot()
    wal_record = WalRecord.update(
        "pickle_guard",
        db.table("pickle_guard").make_delta(insert=[(9.0,)], delete=[0]),
        "maintain",
    )

    return {
        "WalRecord": wal_record,
        "SnapshotHandle": snapshot,
        "PinnedTable": snapshot.pins["pickle_guard"],
    }


def test_instance_list_matches_checker_class_list(
    payload_instances: dict[str, Any]
) -> None:
    """The checker's payload_classes and this test cover exactly the same set."""
    configured = set(PickleSafetyChecker.default_config["payload_classes"])
    assert configured == set(payload_instances), (
        "pickle-safety payload_classes and the round-trip guard drifted apart; "
        "update both together"
    )
    # Every name resolves to the class the instance actually is.
    for name, instance in payload_instances.items():
        assert type(instance).__name__ == name


def test_every_payload_class_roundtrips(payload_instances: dict[str, Any]) -> None:
    for name, instance in payload_instances.items():
        restored = pickle.loads(pickle.dumps(instance))
        assert type(restored) is type(instance), name


def test_restored_snapshot_handle_is_detached(payload_instances: dict[str, Any]) -> None:
    """A restored snapshot handle is a detached, self-contained view: the
    live manager (and through it the whole catalog) never ships."""
    handle = pickle.loads(pickle.dumps(payload_instances["SnapshotHandle"]))
    assert payload_instances["SnapshotHandle"]._manager is not None
    assert handle._manager is None
    assert handle.versions() == payload_instances["SnapshotHandle"].versions()
