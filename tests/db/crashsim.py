"""Fault-injection harness for the write-ahead log's storage seam.

:class:`CrashStorage` implements :class:`~repro.db.wal.LogStorage` with the
same durable/buffered split as a POSIX file behind a page cache, plus *named
crash points* planned per append.  A planned crash raises
:class:`SimulatedCrash` at the chosen moment of the chosen append; whatever
the plan made durable up to that instant is exactly what a real crash would
have left on disk.  Tests then recover from those bytes alone
(:func:`recovered_wal`) and assert the catalog lands on the last committed
version — the proof layer behind every durability claim in
``docs/durability.md``.

Crash-point semantics (the WAL calls ``append(frame)`` then ``sync()`` for
each commit):

=======================  ======================================================
``pre-write``            Process dies before any byte of the frame is written.
                         Durable log: unchanged.
``mid-record``           A torn write: a strict prefix of the frame reaches
                         the durable log, then the process dies.  Replay must
                         detect and truncate the tear.
``post-write-pre-fsync`` The full frame is written to the page cache
                         (buffered) but the process dies before ``fsync``;
                         the cached bytes are lost.  Durable log: unchanged.
``post-commit``          ``fsync`` returns — the commit point has passed —
                         and *then* the process dies.  Durable log: contains
                         the frame; recovery must land on this commit.
=======================  ======================================================
"""

from __future__ import annotations

from repro.db.wal import LogStorage, MemoryLogStorage, WriteAheadLog

#: Every named crash point, in commit-path order.
CRASH_POINTS = ("pre-write", "mid-record", "post-write-pre-fsync", "post-commit")

#: Crash points at which the in-flight commit is lost (recovery lands on the
#: previous commit); ``post-commit`` is the one where it survives.
LOSING_POINTS = ("pre-write", "mid-record", "post-write-pre-fsync")


class SimulatedCrash(Exception):
    """The process died at a planned crash point."""


class CrashStorage(LogStorage):
    """Log storage that kills the process at a planned point of a planned append.

    Args:
        initial: Durable bytes the "disk" starts with.

    Plan crashes with :meth:`plan_crash` keyed by *append index* — the 0-based
    ordinal of the ``append`` call, which (the WAL writing one frame per
    commit) is also the ordinal of the commit.  :attr:`append_count` exposes
    how many appends have been attempted, so a test can run a setup phase,
    read the counter, and plan crashes relative to it.
    """

    def __init__(self, initial: bytes = b""):
        self.durable = bytes(initial)
        self.buffered = b""
        self.append_count = 0
        self._plan: dict[int, str] = {}
        self._pending_sync_crash: str | None = None

    def plan_crash(self, append_index: int, point: str) -> None:
        """Crash at ``point`` during the ``append_index``-th append."""
        if point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {point!r} (expected one of {CRASH_POINTS})")
        self._plan[append_index] = point

    # -- LogStorage ----------------------------------------------------------

    def read(self) -> bytes:
        return self.durable

    def append(self, data: bytes) -> None:
        index = self.append_count
        self.append_count += 1
        point = self._plan.get(index)
        if point == "pre-write":
            raise SimulatedCrash(f"pre-write crash at append {index}")
        if point == "mid-record":
            # A torn write: some strict prefix of the frame reached the disk.
            # Half the frame cuts inside the payload; the header's
            # length/CRC then fail verification on replay.
            self.durable += data[: max(1, len(data) // 2)]
            raise SimulatedCrash(f"mid-record crash at append {index}")
        self.buffered += data
        if point in ("post-write-pre-fsync", "post-commit"):
            self._pending_sync_crash = point

    def sync(self) -> None:
        point, self._pending_sync_crash = self._pending_sync_crash, None
        if point == "post-write-pre-fsync":
            # The page cache dies with the process: buffered bytes never
            # reach the durable log.
            self.buffered = b""
            raise SimulatedCrash("post-write-pre-fsync crash")
        self.durable += self.buffered
        self.buffered = b""
        if point == "post-commit":
            raise SimulatedCrash("post-commit crash")

    def reset(self, data: bytes = b"") -> None:
        self.durable = bytes(data)
        self.buffered = b""
        self._pending_sync_crash = None


def recovered_wal(storage: CrashStorage) -> WriteAheadLog:
    """Reopen the crashed storage's *durable* bytes, as a restart would.

    Only ``storage.durable`` carries over — buffered (unsynced) bytes died
    with the process.  Opening the log truncates any torn tail.
    """
    return WriteAheadLog(MemoryLogStorage(storage.durable))
