"""repro.storage — durable protocol state for in-session crash–recovery.

A party can crash mid-session, restart from disk, and converge to the
same output: :class:`~repro.storage.store.SnapshotStore` holds each
party's last :meth:`~repro.net.party.Party.freeze` blob,
:class:`~repro.storage.wal.WriteAheadLog` the envelopes delivered since,
and :mod:`repro.storage.recovery` the recorder, the rehydration and the
crash plan that tie them to a live transport.  All bytes are versioned
:mod:`repro.storage.frames` records over the :mod:`repro.net.codec`
registry — no pickle anywhere.  See DESIGN.md section 9.
"""

from repro.storage.frames import (
    SNAPSHOT_MAGIC,
    WAL_MAGIC,
    StorageError,
    decode_frame,
    decode_snapshot_record,
    decode_wal_record,
    encode_snapshot_record,
    encode_wal_record,
)
from repro.storage.recovery import (
    CrashPlan,
    DurabilityRecorder,
    recover_party,
    run_crash_recovery,
)
from repro.storage.store import SnapshotStore
from repro.storage.wal import WriteAheadLog

__all__ = [
    "StorageError",
    "WAL_MAGIC",
    "SNAPSHOT_MAGIC",
    "encode_wal_record",
    "decode_wal_record",
    "encode_snapshot_record",
    "decode_snapshot_record",
    "decode_frame",
    "WriteAheadLog",
    "SnapshotStore",
    "CrashPlan",
    "DurabilityRecorder",
    "recover_party",
    "run_crash_recovery",
]
