"""WriteAheadLog and SnapshotStore behavior on real files."""

import os
import random

import pytest

from repro.net.envelope import Envelope
from repro.net.party import Party
from repro.net.protocol import Protocol
from repro.storage import SnapshotStore, StorageError, WriteAheadLog

from tests.net.helpers import Ping


def _envelope(i: int) -> Envelope:
    return Envelope(
        path=(), sender=1, recipient=0, payload=Ping(i), depth=1, session=0
    )


def test_wal_append_replay(tmp_path):
    with WriteAheadLog(tmp_path / "wal.bin") as wal:
        for i in range(5):
            wal.append(_envelope(i))
        assert wal.appended == 5
        assert wal.replay() == [(i + 1, _envelope(i)) for i in range(5)]
        assert wal.last_seq == 5


class _Sink(Protocol):
    """Counts deliveries and sends nothing: the minimal durable machine."""

    STATE_FIELDS = ("seen",)

    def __init__(self) -> None:
        super().__init__()
        self.seen = 0

    def on_message(self, sender, payload) -> None:
        self.seen += 1


def test_long_wal_replays_one_delivery_per_record_with_no_resends(tmp_path):
    """Replay is linear in the log: every record is delivered exactly once
    through the normal path, nothing is re-sent, state converges exactly."""
    records = 10_000

    def party() -> Party:
        return Party(index=0, n=4, f=1, rng=random.Random("sink"), rng_label="sink")

    store = SnapshotStore(tmp_path)
    original = party()
    original.run_root(_Sink())
    store.save_snapshot(0, original.freeze())
    wal = store.wal(0)
    for i in range(records):
        wal.append(_envelope(i))
    blob, absorbed = store.load_snapshot(0)
    clone = party()
    clone.thaw(blob, root_factory=lambda p: _Sink())
    log = [envelope for seq, envelope in store.wal(0).replay() if seq > absorbed]
    stats = clone.replay(log)
    store.close()
    assert len(log) == records
    assert stats["delivered"] == records and stats["suppressed"] == 0
    assert clone.instance(()).seen == records


def test_wal_survives_handle_reopen(tmp_path):
    path = tmp_path / "wal.bin"
    with WriteAheadLog(path) as wal:
        wal.append(_envelope(1))
    with WriteAheadLog(path) as wal:
        # The sequence continues from the on-disk record.
        wal.append(_envelope(2))
        assert wal.replay() == [(1, _envelope(1)), (2, _envelope(2))]


def test_wal_reset_compacts_but_keeps_sequence(tmp_path):
    with WriteAheadLog(tmp_path / "wal.bin") as wal:
        for i in range(4):
            wal.append(_envelope(i))
        assert wal.size_bytes() > 0
        wal.reset()
        assert wal.size_bytes() == 0
        assert wal.replay() == []
        # Post-compaction records sort strictly after the absorbed ones.
        assert wal.append(_envelope(9)) == 5
        assert wal.replay() == [(5, _envelope(9))]


def test_wal_torn_tail_is_loud(tmp_path):
    path = tmp_path / "wal.bin"
    with WriteAheadLog(path) as wal:
        wal.append(_envelope(1))
        wal.append(_envelope(2))
    data = path.read_bytes()
    path.write_bytes(data[:-3])  # a crash mid-append tears the last record
    with pytest.raises(StorageError):
        WriteAheadLog(path).replay()


def test_store_snapshot_roundtrip(tmp_path):
    store = SnapshotStore(tmp_path)
    assert store.load_snapshot(0) is None
    assert not store.has_snapshot(0)
    store.save_snapshot(0, b"blob-bytes", wal_seq=7)
    assert store.has_snapshot(0)
    assert store.load_snapshot(0) == (b"blob-bytes", 7)
    # Parties are isolated.
    assert store.load_snapshot(1) is None
    store.close()


def test_store_snapshot_compacts_wal(tmp_path):
    store = SnapshotStore(tmp_path)
    wal = store.wal(0)
    for i in range(6):
        wal.append(_envelope(i))
    assert wal.size_bytes() > 0
    store.save_snapshot(0, b"checkpoint")
    # The snapshot absorbed the log: compaction truncates it.
    assert store.wal(0).size_bytes() == 0
    store.close()


def test_fsync_makes_a_checkpoint_durable_in_its_order(tmp_path, monkeypatch):
    """With ``fsync`` on, a checkpoint syncs the snapshot, then the
    directory holding its rename, then the truncated WAL: a power loss
    can never keep the truncation and lose the rename."""
    store = SnapshotStore(tmp_path, fsync=True)
    wal = store.wal(0)
    wal.append(_envelope(0))
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        stat = os.fstat(fd)
        synced.append((stat.st_dev, stat.st_ino))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    store.save_snapshot(0, b"checkpoint", wal_seq=1)

    def identity(path):
        stat = os.stat(path)
        return stat.st_dev, stat.st_ino

    directory = store.party_dir(0)
    # The temp file is the renamed snapshot: one inode.
    assert synced == [
        identity(directory / "snapshot.bin"),
        identity(directory),
        identity(directory / "wal.bin"),
    ]
    assert wal.size_bytes() == 0
    store.close()


def test_store_snapshot_replace_is_atomic(tmp_path):
    store = SnapshotStore(tmp_path)
    store.save_snapshot(0, b"first")
    store.save_snapshot(0, b"second")
    assert store.load_snapshot(0) == (b"second", 0)
    # No temp litter left behind.
    leftovers = [p for p in store.party_dir(0).iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
    store.close()


def test_store_corrupt_snapshot_is_loud(tmp_path):
    store = SnapshotStore(tmp_path)
    store.save_snapshot(0, b"blob")
    path = store.party_dir(0) / "snapshot.bin"
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(StorageError):
        store.load_snapshot(0)
    store.close()


def test_torn_checkpoint_prefix_is_skipped_by_sequence(tmp_path):
    """A crash between snapshot rename and WAL truncation leaves the
    absorbed records on disk; replay must skip them by sequence."""
    store = SnapshotStore(tmp_path)
    wal = store.wal(0)
    for i in range(5):
        wal.append(_envelope(i))
    torn = wal.path.read_bytes()
    store.save_snapshot(0, b"blob", wal_seq=wal.last_seq)
    # Simulate the torn window: snapshot landed, truncation did not.
    wal.close()
    wal.path.write_bytes(torn)
    blob, absorbed = store.load_snapshot(0)
    survivors = [e for seq, e in store.wal(0).replay() if seq > absorbed]
    assert survivors == []  # nothing double-applies
    # New appends after the torn recovery still sort past the snapshot.
    assert store.wal(0).append(_envelope(9)) == 6
    store.close()


def test_store_clear_removes_party_state(tmp_path):
    store = SnapshotStore(tmp_path)
    store.wal(0).append(_envelope(1))
    store.save_snapshot(0, b"blob", wal_seq=1)
    store.clear(0)
    assert store.load_snapshot(0) is None
    assert store.wal(0).replay() == []
    store.close()
