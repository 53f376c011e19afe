"""Append-only write-ahead log of delivered envelopes.

One log file per party per run: every network envelope the party
processes is appended (as a versioned :mod:`repro.storage.frames`
record) after it was delivered and before any of its reactions is
transmitted, so the log plus the last snapshot is always a complete
replayable history at delivery granularity.  Appends
are buffered through one file handle; ``fsync`` is optional — on by
default the log is only flushed to the OS, which is the right trade for
the simulator and for the recovery benchmark workload (a deployment
that must survive power loss turns ``fsync=True`` on and pays the
per-record sync).

Compaction: after a snapshot is saved the records it absorbs are dead —
:meth:`WriteAheadLog.reset` truncates the file.  Every record carries a
monotonically increasing *sequence number* (continuing across resets)
and the snapshot records the highest sequence it absorbed, so even a
crash landing exactly between snapshot rename and WAL truncation leaves
a readable pair: replay skips the absorbed prefix by sequence instead
of double-applying it.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import IO, Optional

from repro.net.envelope import Envelope
from repro.storage.frames import encode_wal_record, iter_wal_records

__all__ = ["WriteAheadLog"]


class WriteAheadLog:
    """One party's append-only envelope log."""

    def __init__(self, path: Path | str, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._handle: Optional[IO[bytes]] = None
        #: Records appended through this handle since open/reset (the
        #: on-disk log may additionally hold records from a previous
        #: life; :meth:`replay` reads them all).
        self.appended = 0
        #: Highest sequence number ever assigned; survives :meth:`reset`
        #: in memory and is re-derived from disk on first use, so
        #: sequences stay monotone across compactions and process lives.
        self._last_seq: Optional[int] = None

    def _file(self) -> IO[bytes]:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab")
        return self._handle

    @property
    def last_seq(self) -> int:
        """The highest sequence on record (0 when the log never held one)."""
        if self._last_seq is None:
            self._last_seq = max(
                (seq for seq, _envelope in self.replay()), default=0
            )
        return self._last_seq

    def ensure_seq_at_least(self, seq: int) -> None:
        """Raise the sequence floor (e.g. to a snapshot's absorbed seq)."""
        if seq > self.last_seq:
            self._last_seq = seq

    def append(self, envelope: Envelope) -> int:
        """Append one delivered envelope; returns its sequence number."""
        seq = self.last_seq + 1
        handle = self._file()
        handle.write(encode_wal_record(envelope, seq))
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        self.appended += 1
        self._last_seq = seq
        return seq

    def replay(self) -> list[tuple[int, Envelope]]:
        """Every ``(seq, record)`` on disk, in append order (strict decode)."""
        if not self.path.exists():
            return []
        return list(iter_wal_records(self.path.read_bytes()))

    def size_bytes(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0

    def reset(self) -> None:
        """Truncate the log (compaction after a snapshot absorbed it),
        synced with ``fsync`` on.

        The sequence counter is *not* reset: post-compaction records
        must sort after the snapshot's absorbed sequence.
        """
        self.last_seq  # materialize before the records disappear
        # Through the open handle: it is in append mode, so the next
        # write lands at the new end whatever its position says, and a
        # checkpoint costs no close, reopen or second path lookup.
        handle = self._file()
        handle.truncate(0)
        if self.fsync:
            os.fsync(handle.fileno())
        self.appended = 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
