"""Durable per-party storage: snapshots plus their write-ahead logs.

Directory layout under one run root::

    <root>/party-<i>/snapshot.bin   last Party.freeze blob (0xD5-framed)
    <root>/party-<i>/wal.bin        envelopes delivered since that snapshot

Snapshot writes are atomic (temp file + ``os.replace``) and ordered
before WAL compaction.  A crash at any byte boundary leaves a readable
pair: either the old snapshot with the full WAL, or the new snapshot —
and if the crash lands between the rename and the WAL truncation, the
new snapshot's recorded *absorbed sequence* tells replay to skip the
stale records instead of double-applying them.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.storage.frames import (
    StorageError,
    decode_snapshot_record,
    encode_snapshot_record,
)
from repro.storage.wal import WriteAheadLog

__all__ = ["SnapshotStore"]


class SnapshotStore:
    """Snapshot + WAL storage for every party of one run."""

    def __init__(self, root: Path | str, fsync: bool = False) -> None:
        self.root = Path(root)
        self.fsync = fsync
        self._wals: dict[int, WriteAheadLog] = {}

    def party_dir(self, index: int) -> Path:
        return self.root / f"party-{index}"

    def _snapshot_path(self, index: int) -> Path:
        return self.party_dir(index) / "snapshot.bin"

    def wal(self, index: int) -> WriteAheadLog:
        log = self._wals.get(index)
        if log is None:
            # The party's directory is made here, once: every write to it
            # (WAL append, snapshot) goes through its log first.
            directory = self.party_dir(index)
            directory.mkdir(parents=True, exist_ok=True)
            log = WriteAheadLog(directory / "wal.bin", fsync=self.fsync)
            self._wals[index] = log
        return log

    def save_snapshot(self, index: int, blob: bytes, wal_seq: int = 0) -> None:
        """Durably replace the party's snapshot, then compact its WAL.

        ``wal_seq`` is the highest WAL sequence the snapshot absorbs.
        The write order is the crash-safety invariant: only after the
        new snapshot is fully on disk (atomic rename) does the WAL
        shrink — and a crash between the two leaves records replay will
        skip by sequence.  With ``fsync`` on, the order holds across a
        power loss too: the temp file, then the directory holding the
        rename, then the truncated WAL are synced, in that order.
        """
        log = self.wal(index)
        path = self._snapshot_path(index)
        tmp = path.with_suffix(".tmp")
        data = encode_snapshot_record(blob, wal_seq)
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if self.fsync:
            # The rename lives in the directory: make it durable before
            # the truncation below can be.
            directory = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)
        log.reset()

    def has_snapshot(self, index: int) -> bool:
        return self._snapshot_path(index).exists()

    def load_snapshot(self, index: int) -> Optional[tuple[bytes, int]]:
        """The party's ``(blob, absorbed_wal_seq)``, or ``None`` if unsaved."""
        path = self._snapshot_path(index)
        if not path.exists():
            return None
        data = path.read_bytes()
        blob, wal_seq, pos = decode_snapshot_record(data)
        if pos != len(data):
            raise StorageError(
                f"{len(data) - pos} trailing bytes after snapshot record"
            )
        return blob, wal_seq

    def clear(self, index: int) -> None:
        """Remove a party's durable state (snapshot and WAL).

        Used by run drivers starting a *fresh* run over an explicit
        storage directory: stale artifacts from a previous run would
        otherwise rehydrate state belonging to the wrong execution.
        """
        log = self._wals.pop(index, None)
        if log is not None:
            log.close()
        directory = self.party_dir(index)
        if directory.exists():
            for path in directory.iterdir():
                path.unlink()

    def close(self) -> None:
        for log in self._wals.values():
            log.close()
