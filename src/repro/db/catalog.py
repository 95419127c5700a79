"""A tiny database catalog: named tables plus named partitionings.

The paper's system stores the input relation, the representative relation and
the group-id column inside PostgreSQL.  :class:`Database` plays that role: it
owns tables by name and remembers which offline partitionings were built for
which table, so a query session can look them up at evaluation time.

The catalog is *version-aware*: every table carries a version, and a
registered partitioning always describes its table's current version.
:meth:`Database.register_partitioning` refuses any other, and
:meth:`Database.update_table` moves a table to its next version through a
:class:`~repro.dataset.table.TableDelta` while incrementally maintaining every
partitioning registered for it (no full re-partition on the hot path).
:meth:`save`/:meth:`load` round-trip the tables *and* every registered
partitioning (under ``<table>.partitionings/<label>/``) with versions intact.

The catalog is also *durable* and *snapshot-consistent*:

* attach a :class:`~repro.db.wal.WriteAheadLog` and every commit —
  ``create_table``, ``update_table``, ``drop_table``,
  ``register_partitioning`` — is fsynced to the log *before* it lands in
  memory, so :meth:`Database.recover` replays a crashed catalog (tables,
  partitionings via deterministic :class:`PartitionMaintainer` replay, and
  registered caches' update subscriptions) onto the exact last committed
  versions; :meth:`checkpoint` compacts the log into a fresh on-disk
  snapshot;
* :meth:`snapshot` pins a consistent ``(table version, partitioning
  version)`` read view (:class:`~repro.db.snapshot.SnapshotHandle`) that
  keeps serving the same committed state while later commits proceed
  underneath — old versions stay reachable as long as a live handle
  references them.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.dataset.io import load_table, save_table
from repro.dataset.table import Table, TableDelta
from repro.db.snapshot import PinnedTable, SnapshotHandle
from repro.db.wal import WalRecord, WriteAheadLog
from repro.errors import CatalogError, RecoveryError
from repro.partition.maintenance import MaintenanceStats, PartitionMaintainer
from repro.partition.partitioning import Partitioning

#: Suffix of the per-table partitioning directories written by :meth:`Database.save`.
_PARTITIONINGS_SUFFIX = ".partitionings"

#: Manifest recording, per catalog name, which tables a save wrote (scoping
#: later cleanups to that catalog's own artifacts and loads to its tables).
_MANIFEST_NAME = "_catalog_manifest.json"


def _read_manifest(directory: Path) -> dict:
    path = directory / _MANIFEST_NAME
    if not path.is_file():
        return {}
    try:
        manifest = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return {}
    return manifest if isinstance(manifest, dict) else {}


@dataclass
class TableUpdateResult:
    """Outcome of one :meth:`Database.update_table` call."""

    table: Table
    """The new table version now registered in the catalog."""

    delta: TableDelta
    """The delta that produced it."""

    maintained: dict[str, MaintenanceStats] = field(default_factory=dict)
    """Per-label maintenance profile of every partitioning carried along."""


class Database:
    """An in-memory catalog of named tables and their partitionings.

    Args:
        name: Catalog name (used in ``repr`` only).
        maintainer: The :class:`PartitionMaintainer` used for maintenance
            (default: a fresh one with the partitionings' own partitioners).
        wal: Optional write-ahead log (or a path one should live at); when
            attached, every catalog commit is durably logged before it is
            applied, making :meth:`recover` possible after a crash.
    """

    def __init__(
        self,
        name: str = "repro",
        maintainer: PartitionMaintainer | None = None,
        wal: WriteAheadLog | str | Path | None = None,
    ):
        self.name = name
        self.maintainer = maintainer or PartitionMaintainer()
        self._tables: dict[str, Table] = {}
        self._partitionings: dict[tuple[str, str], Partitioning] = {}
        self._caches: list = []
        self._next_snapshot_id = 0
        self._wal: WriteAheadLog | None = None
        if wal is not None:
            self.attach_wal(wal)

    # -- durability ---------------------------------------------------------------

    @property
    def wal(self) -> WriteAheadLog | None:
        """The attached write-ahead log, if any."""
        return self._wal

    def attach_wal(self, wal: WriteAheadLog | str | Path) -> WriteAheadLog:
        """Start logging every commit to ``wal`` (a log or a path for one).

        Attaching does *not* replay existing log content — use
        :meth:`recover` to reconstruct a crashed catalog.  Attach an empty
        (or freshly checkpointed) log to a catalog whose state is already
        durable elsewhere, otherwise recovery would double-apply history.
        """
        if not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal)
        self._wal = wal
        return wal

    def _log(self, record: WalRecord) -> None:
        """Durably commit ``record`` before the in-memory state changes.

        This is the write-ahead discipline's single funnel: when it returns,
        the record is fsynced; if it raises (storage failure, simulated
        crash), the in-memory catalog is untouched and the caller's commit
        never happened.
        """
        if self._wal is not None:
            self._wal.append(record)

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self, names: Iterable[str] | None = None) -> SnapshotHandle:
        """Pin a consistent read view of the current committed state.

        The returned handle keeps serving exactly this moment's
        ``(table version, partitioning version)`` pairs while later
        :meth:`update_table` commits proceed; release it (or use it as a
        context manager) when the reader is done.  Per table it pins the
        table object and every partitioning registered for it, which
        describe that same version.
        """
        table_names = list(names) if names is not None else self.table_names()
        pins: dict[str, PinnedTable] = {}
        for name in table_names:
            table = self.table(name)
            partitionings = {
                label: self._partitionings[(name, label)]
                for label in self.partitioning_labels(name)
            }
            pins[name] = PinnedTable(name=name, table=table, partitionings=partitionings)
        handle = SnapshotHandle(self._next_snapshot_id, pins)
        self._next_snapshot_id += 1
        return handle

    # -- result caches -----------------------------------------------------------

    def register_cache(self, cache) -> None:
        """Subscribe a result cache to this catalog's update stream.

        A registered cache receives ``notify_update(name, delta, maintained)``
        after every committed :meth:`update_table` (with each label's
        :class:`MaintenanceStats`, whose ``touched_groups`` drive delta-aware
        invalidation), ``invalidate_partitioning(name, label)`` whenever a
        partitioning is registered, and ``invalidate_table(name)`` whenever a
        table is dropped or replaced out-of-band.
        """
        if cache not in self._caches:
            self._caches.append(cache)

    def unregister_cache(self, cache) -> None:
        """Remove a cache from the update stream (no-op if not registered)."""
        if cache in self._caches:
            self._caches.remove(cache)

    def _invalidate_caches(self, table_name: str) -> None:
        for cache in self._caches:
            cache.invalidate_table(table_name)

    # -- tables ----------------------------------------------------------------

    def create_table(self, table: Table, name: str | None = None, replace: bool = False) -> Table:
        """Register ``table`` in the catalog under ``name`` (default: table.name)."""
        table_name = name or table.name
        replacing = table_name in self._tables
        if replacing and not replace:
            raise CatalogError(f"table {table_name!r} already exists")
        if name is not None and name != table.name:
            table = Table(
                table.schema,
                {c: table.column(c) for c in table.schema.names},
                name=name,
                version=table.version,
            )
        self._log(WalRecord.create(table_name, table))
        if replacing:
            # Out-of-band replacement does not bump versions, so registered
            # partitionings can no longer be trusted (or even shape-checked)
            # against the new table: drop them, as drop_table would.  Cached
            # results are equally untrustworthy.
            for key in [k for k in self._partitionings if k[0] == table_name]:
                del self._partitionings[key]
            self._invalidate_caches(table_name)
        self._tables[table_name] = table
        return table

    def table(self, name: str) -> Table:
        """Return the table registered under ``name``."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(
                f"table {name!r} not found (available: {sorted(self._tables)})"
            ) from None

    def drop_table(self, name: str) -> None:
        """Remove a table and any partitionings built on it."""
        if name not in self._tables:
            raise CatalogError(f"table {name!r} not found")
        self._log(WalRecord.drop(name))
        del self._tables[name]
        for key in [k for k in self._partitionings if k[0] == name]:
            del self._partitionings[key]
        self._invalidate_caches(name)

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def __contains__(self, name: object) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    # -- versioned updates -------------------------------------------------------

    def update_table(self, name: str, delta: TableDelta) -> TableUpdateResult:
        """Move table ``name`` to its next version through ``delta``.

        Every partitioning registered for the table is maintained through the
        delta, so it describes the new version and keeps its τ/ω guarantees.

        With a write-ahead log attached, the delta record is fsynced to the
        log *after* maintenance succeeds but *before* any in-memory state
        changes — the append is the commit point.  A crash (or storage
        failure) before it leaves the catalog untouched; a crash after it is
        exactly what :meth:`recover` replays.
        """
        table = self.table(name)
        new_table = table.apply_delta(delta)

        # Maintain first, commit last: a failure mid-maintenance (a broken
        # custom maintainer, a pathological re-split) must leave the catalog
        # exactly as it was, so the caller can retry the same delta.
        result = TableUpdateResult(table=new_table, delta=delta)
        updated: dict[tuple[str, str], Partitioning] = {}
        for (table_name, label), partitioning in sorted(self._partitionings.items()):
            if table_name != name:
                continue
            maintained, stats = self.maintainer.maintain(partitioning, new_table, delta)
            updated[(table_name, label)] = maintained
            result.maintained[label] = stats
        self._log(WalRecord.update(name, delta))
        self._tables[name] = new_table
        self._partitionings.update(updated)
        # Commit done: feed the delta (with each label's touched-group set)
        # to the registered result caches, which defer it to their next lookup.
        for cache in self._caches:
            cache.notify_update(name, delta, result.maintained)
        return result

    # -- partitionings -----------------------------------------------------------

    def register_partitioning(
        self, table_name: str, partitioning: Partitioning, label: str = "default"
    ) -> None:
        """Associate an offline partitioning with a table under ``label``.

        The partitioning must describe the table's current version and rows;
        any other raises :class:`CatalogError`.  Registering replaces the
        label's previous partitioning, so every registered cache drops the
        SKETCHREFINE answers it holds under ``(table_name, label)``.
        """
        table = self._tables.get(table_name)
        if table is None:
            raise CatalogError(f"cannot register partitioning: table {table_name!r} not found")
        if partitioning.version != table.version or len(partitioning.group_ids) != table.num_rows:
            raise CatalogError(
                f"cannot register partitioning {label!r}: it describes version "
                f"{partitioning.version} ({len(partitioning.group_ids)} rows), but "
                f"table {table_name!r} is at version {table.version} "
                f"({table.num_rows} rows); build it over the current table"
            )
        self._log(WalRecord.partition(table_name, label, partitioning))
        self._partitionings[(table_name, label)] = partitioning
        for cache in self._caches:
            cache.invalidate_partitioning(table_name, label)

    def partitioning(self, table_name: str, label: str = "default") -> Partitioning:
        """Return the partitioning registered for ``table_name`` under ``label``."""
        try:
            return self._partitionings[(table_name, label)]
        except KeyError:
            raise CatalogError(
                f"no partitioning {label!r} registered for table {table_name!r}"
            ) from None

    def has_partitioning(self, table_name: str, label: str = "default") -> bool:
        return (table_name, label) in self._partitionings

    def partitioning_labels(self, table_name: str) -> list[str]:
        return sorted(label for (t, label) in self._partitionings if t == table_name)

    # -- persistence ---------------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Persist the catalog: one NPZ per table, one subdirectory per
        registered partitioning under ``<table>.partitionings/<label>/``.

        Catalogs may share a directory (each cleans up only the artifacts
        its own manifest entry records), but the table-file namespace is
        per-directory: catalogs sharing a directory must use disjoint table
        names, or their ``<table>.npz`` files overwrite each other.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        # Remove artifacts of tables a *previous save of this catalog* wrote
        # but that have since been dropped, so a re-save does not resurrect
        # them at load time.  The manifest is keyed by catalog name, scoping
        # the cleanup: files this catalog never wrote (a user's unrelated
        # .npz, a different catalog sharing the directory) are left alone.
        manifest = _read_manifest(directory)
        catalogs = manifest.setdefault("catalogs", {})
        previously_saved = set(catalogs.get(self.name, {}).get("tables", []))
        for name in previously_saved - set(self._tables):
            (directory / f"{name}.npz").unlink(missing_ok=True)
            dropped_dir = directory / f"{name}{_PARTITIONINGS_SUFFIX}"
            if dropped_dir.is_dir():
                shutil.rmtree(dropped_dir)
        for name, table in self._tables.items():
            save_table(table, directory / f"{name}.npz")
            partitionings_dir = directory / f"{name}{_PARTITIONINGS_SUFFIX}"
            if partitionings_dir.exists():
                shutil.rmtree(partitionings_dir)
        for (table_name, label), partitioning in self._partitionings.items():
            partitioning.save(directory / f"{table_name}{_PARTITIONINGS_SUFFIX}" / label)
        catalogs[self.name] = {"tables": sorted(self._tables)}
        (directory / _MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))

    @classmethod
    def load(cls, directory: str | Path, name: str = "repro") -> "Database":
        """Load the tables — and their persisted partitionings — from ``directory``.

        If the directory's manifest has an entry for ``name``, only *that
        catalog's* tables are loaded, so catalogs sharing a directory stay
        isolated (the maintenance-policy key that older saves wrote there is
        ignored).  Without a manifest entry, every ``.npz`` in the
        directory is loaded.  Partitioning directories that do not match a
        loaded table (another catalog's, or orphaned artifacts) are skipped,
        mirroring :meth:`save`'s tolerance of foreign files; one whose
        version or rows differ from its table's raises :class:`CatalogError`.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise CatalogError(f"{directory} is not a directory")
        entry = _read_manifest(directory).get("catalogs", {}).get(name)
        db = cls(name=name)
        own_tables = set(entry["tables"]) if entry is not None else None
        for path in sorted(directory.glob("*.npz")):
            if own_tables is not None and path.stem not in own_tables:
                continue
            table = load_table(path)
            db.create_table(table, name=path.stem, replace=True)
        for partitionings_dir in sorted(directory.glob(f"*{_PARTITIONINGS_SUFFIX}")):
            if not partitionings_dir.is_dir():
                continue
            table_name = partitionings_dir.name[: -len(_PARTITIONINGS_SUFFIX)]
            if table_name not in db:
                continue
            for label_dir in sorted(p for p in partitionings_dir.iterdir() if p.is_dir()):
                partitioning = Partitioning.load(label_dir, db.table(table_name))
                db.register_partitioning(table_name, partitioning, label=label_dir.name)
        return db

    # -- checkpoint / recovery -------------------------------------------------------

    def checkpoint(self, directory: str | Path) -> None:
        """Compact the write-ahead log into a fresh on-disk snapshot.

        Persists the current committed state with :meth:`save`, then resets
        the attached log down to a single ``checkpoint`` marker recording
        every table's version — replay work after the next crash starts from
        here instead of the beginning of history.  A crash *during* the
        checkpoint is safe in both orders: before the log reset, recovery
        loads the new snapshot and skips the already-absorbed records (their
        versions lag the snapshot); the reset itself is an atomic replace.

        Active snapshot handles are unaffected — they hold their pinned
        versions in memory regardless of what the log retains.
        """
        self.save(directory)
        if self._wal is not None:
            versions = {name: table.version for name, table in self._tables.items()}
            self._wal.reset([WalRecord.checkpoint(versions)])

    @classmethod
    def recover(
        cls,
        wal: WriteAheadLog | str | Path,
        directory: str | Path | None = None,
        name: str = "repro",
        caches: Iterable = (),
    ) -> "Database":
        """Rebuild the catalog a crashed process left behind.

        Loads the last snapshot from ``directory`` (when given — a catalog
        that never checkpointed recovers from the log alone), registers
        ``caches`` so they subscribe to the replayed update stream, then
        replays every committed log record in order:

        * ``create``/``drop``/``partition`` records reconstruct the catalog
          shape;
        * ``update`` records re-run :meth:`update_table` —
          :class:`PartitionMaintainer` replay is deterministic, so maintained
          partitionings land bit-identical to the pre-crash state;
        * records whose versions the snapshot already includes are skipped
          (the crash fell inside a checkpoint's save/reset window);
        * a version gap neither of those explains raises
          :class:`~repro.errors.RecoveryError` — recovery never guesses.

        The returned catalog has the log attached and keeps appending to it,
        so a second crash recovers the same way.  The log's torn tail (a
        commit cut short mid-write) was already truncated when ``wal``
        opened; everything fsynced survives, everything past the last commit
        point does not — that is the guarantee the crash-injection suite
        asserts point by point.
        """
        if not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal)
        if directory is not None and Path(directory).is_dir():
            db = cls.load(directory, name=name)
        else:
            db = cls(name=name)
        for cache in caches:
            db.register_cache(cache)
        for record in wal.records():
            db._apply_record(record)
        db._wal = wal
        return db

    def _apply_record(self, record: WalRecord) -> None:
        """Replay one committed log record onto the in-memory state."""
        name = record.table_name
        if record.kind == "checkpoint":
            for table_name, version in record.versions.items():
                if table_name not in self._tables or (
                    self._tables[table_name].version < version
                ):
                    raise RecoveryError(
                        f"checkpoint marker expects table {table_name!r} at "
                        f"version {version}, but the loaded snapshot "
                        + (
                            f"has it at {self._tables[table_name].version}"
                            if table_name in self._tables
                            else "does not contain it"
                        )
                        + " — recover from the directory the checkpoint wrote"
                    )
        elif record.kind == "create":
            assert record.table is not None
            if name in self._tables and (
                self._tables[name].version >= record.table.version
            ):
                return  # snapshot already includes this registration
            self.create_table(record.table, name=name, replace=True)
        elif record.kind == "drop":
            if name in self._tables:
                self.drop_table(name)
        elif record.kind == "partition":
            if name not in self._tables:
                raise RecoveryError(
                    f"log registers a partitioning for unknown table {name!r}"
                )
            table = self._tables[name]
            if table.version != record.version:
                return  # snapshot already carried this partitioning forward
            assert record.stats is not None and record.attributes is not None
            partitioning = Partitioning(
                table,
                record.group_ids,
                record.attributes,
                record.stats,
                version=record.version,
                maintenance=record.maintenance,
            )
            self.register_partitioning(name, partitioning, label=record.label or "default")
        elif record.kind == "update":
            assert record.delta is not None
            if name not in self._tables:
                raise RecoveryError(
                    f"log updates unknown table {name!r} (snapshot and log "
                    "disagree; was the snapshot directory overwritten?)"
                )
            current = self._tables[name].version
            if current >= record.delta.new_version:
                return  # snapshot already includes this commit
            if current != record.delta.base_version:
                raise RecoveryError(
                    f"cannot replay table {name!r}: log delta moves version "
                    f"{record.delta.base_version} -> {record.delta.new_version} "
                    f"but the recovered table is at {current}"
                )
            self.update_table(name, record.delta)
        else:  # pragma: no cover - WalRecord.__post_init__ rejects these
            raise RecoveryError(f"unknown record kind {record.kind!r}")

    def __repr__(self) -> str:
        return f"Database(name={self.name!r}, tables={self.table_names()})"
