"""Snapshot-consistent read views over a live catalog.

Tables are immutable and versioned, and :meth:`~repro.db.catalog.Database
.update_table` *replaces* a table rather than mutating it — so MVCC reads
need no copying at all: a reader that holds references to the table objects
of one committed moment keeps seeing exactly that moment, no matter how many
commits land afterwards.  This module packages those references:

* :class:`SnapshotHandle` pins, per table, a ``(table version,
  partitioning version)`` pair — the table object plus every partitioning
  that describes that exact version — so
  ``engine.execute(query, snapshot=handle)`` runs against a consistent view
  while updates commit underneath;
* :class:`SnapshotManager` (owned by the catalog) tracks the active handles,
  so the pinned versions stay observable — old table versions are retained
  precisely as long as a handle references them and become collectable on
  :meth:`SnapshotHandle.release`.

Handles are value objects: pickling one ships the pinned view itself,
detached from its manager.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import SnapshotError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (catalog imports this)
    from repro.dataset.table import Table
    from repro.db.catalog import Database
    from repro.partition.partitioning import Partitioning


@dataclass(frozen=True)
class PinnedTable:
    """One table's slice of a snapshot: the version and what describes it."""

    name: str
    table: "Table"
    partitionings: dict[str, "Partitioning"] = field(default_factory=dict)
    """Label → partitioning, restricted to partitionings whose version equals
    the pinned table version (a stale partitioning has no consistent place in
    a snapshot — the version it describes is not the one being pinned)."""

    @property
    def version(self) -> int:
        return self.table.version


class SnapshotHandle:
    """A pinned, consistent, read-only view of one committed catalog state.

    Usable as a context manager; exiting releases the pin.  Reads through a
    released handle raise :class:`~repro.errors.SnapshotError` — silently
    serving a view the caller already released is how stale reads sneak in.
    """

    def __init__(
        self, snapshot_id: int, pins: dict[str, PinnedTable], manager: "SnapshotManager | None"
    ):
        self.snapshot_id = snapshot_id
        self.pins = pins
        self._manager = manager
        self._released = False

    # -- reads ---------------------------------------------------------------

    def _pin(self, name: str) -> PinnedTable:
        if self._released:
            raise SnapshotError(
                f"snapshot {self.snapshot_id} has been released; acquire a new one"
            )
        try:
            return self.pins[name]
        except KeyError:
            raise SnapshotError(
                f"table {name!r} is not pinned by snapshot {self.snapshot_id} "
                f"(pinned: {sorted(self.pins)})"
            ) from None

    def table(self, name: str) -> "Table":
        """The pinned version of table ``name``."""
        return self._pin(name).table

    def table_names(self) -> list[str]:
        return sorted(self.pins)

    def has_partitioning(self, name: str, label: str = "default") -> bool:
        return label in self._pin(name).partitionings

    def partitioning(self, name: str, label: str = "default") -> "Partitioning":
        """The partitioning pinned for ``name`` under ``label``."""
        pin = self._pin(name)
        try:
            return pin.partitionings[label]
        except KeyError:
            raise SnapshotError(
                f"no partitioning {label!r} pinned for table {name!r} in "
                f"snapshot {self.snapshot_id} — it was missing or stale at "
                "acquire time"
            ) from None

    def versions(self) -> dict[str, int]:
        """Pinned table versions by name."""
        return {name: pin.version for name, pin in sorted(self.pins.items())}

    # -- lifecycle -----------------------------------------------------------

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Release the pin (idempotent); the manager forgets this handle."""
        if self._released:
            return
        self._released = True
        if self._manager is not None:
            self._manager._forget(self)

    def __enter__(self) -> "SnapshotHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # A pickled handle is a self-contained view: the manager (and with it
        # the whole live catalog) stays home.
        state["_manager"] = None
        return state

    def __repr__(self) -> str:
        state = "released" if self._released else "active"
        return (
            f"SnapshotHandle(id={self.snapshot_id}, versions={self.versions() if not self._released else '...'}, "
            f"{state})"
        )


class SnapshotManager:
    """Tracks the snapshot handles pinned against one catalog."""

    def __init__(self) -> None:
        self._next_id = 0
        self._active: dict[int, SnapshotHandle] = {}

    def acquire(
        self, database: "Database", names: Iterable[str] | None = None
    ) -> SnapshotHandle:
        """Pin the current committed state of ``names`` (default: every table).

        Per table, the handle pins the table object plus every registered
        partitioning whose version matches — a consistent
        ``(table_version, partitioning_version)`` pair by construction.
        Stale partitionings are left out: they describe some *other* version.
        """
        table_names = list(names) if names is not None else database.table_names()
        pins: dict[str, PinnedTable] = {}
        for name in table_names:
            table = database.table(name)
            partitionings = {
                label: database.partitioning(name, label)
                for label in database.partitioning_labels(name)
                if database.partitioning_version(name, label) == table.version
            }
            pins[name] = PinnedTable(name=name, table=table, partitionings=partitionings)
        handle = SnapshotHandle(self._next_id, pins, self)
        self._next_id += 1
        self._active[handle.snapshot_id] = handle
        return handle

    def _forget(self, handle: SnapshotHandle) -> None:
        self._active.pop(handle.snapshot_id, None)

    @property
    def active_count(self) -> int:
        return len(self._active)

    def active_handles(self) -> list[SnapshotHandle]:
        return [self._active[key] for key in sorted(self._active)]

    def pinned_versions(self, table_name: str) -> list[int]:
        """Sorted distinct versions of ``table_name`` still pinned by readers."""
        versions = {
            handle.pins[table_name].version
            for handle in self._active.values()
            if table_name in handle.pins
        }
        return sorted(versions)

    def __repr__(self) -> str:
        return f"SnapshotManager(active={self.active_count})"
