"""Snapshot-consistent read views over a live catalog.

Tables are immutable and versioned, and :meth:`~repro.db.catalog.Database
.update_table` *replaces* a table rather than mutating it — so MVCC reads
need no copying at all: a reader that holds references to the table objects
of one committed moment keeps seeing exactly that moment, no matter how many
commits land afterwards.  A :class:`SnapshotHandle`
(:meth:`~repro.db.catalog.Database.snapshot`) packages those references: per
table, a ``(table version, partitioning version)`` pair — the table object
plus every partitioning registered for it, which describe that same version
— so ``engine.execute(query, snapshot=handle)`` runs against a consistent view
while updates commit underneath.  Old versions stay reachable exactly as long
as a live handle references them; nothing else tracks the handles.

Handles are value objects: pickling one ships the pinned view itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SnapshotError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (catalog imports this)
    from repro.dataset.table import Table
    from repro.partition.partitioning import Partitioning


@dataclass(frozen=True)
class PinnedTable:
    """One table's slice of a snapshot: the version and what describes it."""

    name: str
    table: "Table"
    partitionings: dict[str, "Partitioning"] = field(default_factory=dict)
    """Label → partitioning registered for the table when it was pinned."""

    @property
    def version(self) -> int:
        return self.table.version


class SnapshotHandle:
    """A pinned, consistent, read-only view of one committed catalog state.

    Usable as a context manager; exiting releases the pin.  Reads through a
    released handle raise :class:`~repro.errors.SnapshotError` — silently
    serving a view the caller already released is how stale reads sneak in.
    """

    def __init__(self, snapshot_id: int, pins: dict[str, PinnedTable]):
        self.snapshot_id = snapshot_id
        self.pins = pins
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
                f"snapshot {self.snapshot_id} — none was registered when it "
                "was taken"
            ) from None

    def versions(self) -> dict[str, int]:
        """Pinned table versions by name."""
        return {name: pin.version for name, pin in sorted(self.pins.items())}

    # -- lifecycle -----------------------------------------------------------

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Release the pin (idempotent); later reads raise :class:`SnapshotError`."""
        self._released = True

    def __enter__(self) -> "SnapshotHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self._released else "active"
        return (
            f"SnapshotHandle(id={self.snapshot_id}, versions={self.versions() if not self._released else '...'}, "
            f"{state})"
        )

