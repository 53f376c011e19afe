"""Versioned byte frames for durable protocol state.

The durability subsystem puts two new record kinds on disk, framed the
same way the batched message plane frames the wire (one magic byte, one
version byte, a length, a body), and reusing :mod:`repro.net.codec` for
every value inside:

====  =============================================================
0xDA  WAL record — a uvarint *sequence number* followed by one
      :class:`~repro.net.envelope.Envelope`, exactly as
      ``codec.encode_envelope`` produced it
0xD5  snapshot record — a uvarint *absorbed-WAL sequence* followed by
      one opaque codec blob (a :meth:`~repro.net.party.Party.freeze`
      value)
====  =============================================================

The sequence numbers are the crash-safety handshake between the two
record kinds: a snapshot absorbs every WAL record with ``seq <= its
absorbed sequence``, so a process death *between* writing the snapshot
and compacting the WAL (the one window file ordering cannot close)
leaves a pair that recovery still reads correctly — replay simply skips
the absorbed prefix instead of double-applying it.

Both magics sit outside the codec tag space and outside the batch-frame
magic (``0xB5``), so the three frame families — batch, WAL, snapshot —
are distinguishable from their first byte;
:func:`decode_frame` is the dispatcher.  Decoding is as strict as the
codec's: bad magic, unsupported version, truncated or overlong
(non-canonical) length/sequence varints, truncated bodies, bodies that
do not decode to the promised shape, and trailing bytes all raise
:class:`StorageError` (a :class:`~repro.net.codec.CodecError`).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.net import codec
from repro.net.codec import CodecError, _read_uvarint, _write_uvarint
from repro.net.envelope import Envelope

__all__ = [
    "StorageError",
    "WAL_MAGIC",
    "SNAPSHOT_MAGIC",
    "FRAME_VERSION",
    "encode_wal_record",
    "decode_wal_record",
    "iter_wal_records",
    "encode_snapshot_record",
    "decode_snapshot_record",
    "decode_frame",
]

#: First byte of a write-ahead-log record ("DurAbility").
WAL_MAGIC = 0xDA
#: First byte of a snapshot record.
SNAPSHOT_MAGIC = 0xD5
#: Format version of both record kinds (second byte).
FRAME_VERSION = 0x01


class StorageError(CodecError):
    """Raised when durable bytes cannot be decoded."""


def _frame(magic: int, sequence: int, payload: bytes) -> bytes:
    """``magic``-framed ``uvarint sequence + payload``, built in one buffer:
    the payload (a whole snapshot blob) is copied once, by the join."""
    number = bytearray()
    _write_uvarint(number, sequence)
    head = bytearray((magic, FRAME_VERSION))
    _write_uvarint(head, len(number) + len(payload))
    head += number
    return b"".join((head, payload))


def _open_frame(magic: int, data: bytes, pos: int, kind: str) -> tuple[bytes, int]:
    """Strictly read one ``magic``-framed body starting at ``pos``."""
    if pos + 2 > len(data):
        raise StorageError(f"truncated {kind} record header")
    if data[pos] != magic:
        raise StorageError(
            f"bad {kind} record magic {data[pos]:#04x} (expected {magic:#04x})"
        )
    if data[pos + 1] != FRAME_VERSION:
        raise StorageError(
            f"unsupported {kind} record version {data[pos + 1]}"
        )
    try:
        length, pos = _read_uvarint(data, pos + 2)
    except CodecError as exc:
        raise StorageError(f"bad {kind} record length: {exc}") from exc
    if pos + length > len(data):
        raise StorageError(f"truncated {kind} record body")
    return data[pos : pos + length], pos + length


def encode_wal_record(envelope: Envelope, seq: int) -> bytes:
    """One WAL record: ``uvarint seq`` + envelope encoding, 0xDA-framed."""
    if seq < 0:
        raise StorageError("WAL sequence must be non-negative")
    return _frame(WAL_MAGIC, seq, codec.encode_envelope(envelope))


def decode_wal_record(data: bytes, pos: int = 0) -> tuple[int, Envelope, int]:
    """Decode one WAL record at ``pos``; returns ``(seq, envelope, next_pos)``.

    After the sequence varint the body must be exactly one valid
    envelope encoding (the full :func:`~repro.net.codec.decode_envelope`
    validation applies).
    """
    body, pos = _open_frame(WAL_MAGIC, bytes(data), pos, "WAL")
    try:
        seq, offset = _read_uvarint(body, 0)
    except CodecError as exc:
        raise StorageError(f"bad WAL record sequence: {exc}") from exc
    return seq, codec.decode_envelope(body[offset:]), pos


def iter_wal_records(data: bytes) -> Iterator[tuple[int, Envelope]]:
    """Yield every ``(seq, envelope)`` of a WAL byte stream, strictly.

    Any malformation — including a torn final record from an interrupted
    append — raises :class:`StorageError`; a durable log is either whole
    or loudly broken, never silently shortened.
    """
    data = bytes(data)
    pos = 0
    while pos < len(data):
        seq, envelope, pos = decode_wal_record(data, pos)
        yield seq, envelope


def encode_snapshot_record(blob: bytes, wal_seq: int = 0) -> bytes:
    """One snapshot record: ``uvarint wal_seq`` + opaque blob, 0xD5-framed.

    ``wal_seq`` is the highest WAL sequence the snapshot absorbs; replay
    skips records at or below it.
    """
    if not isinstance(blob, (bytes, bytearray)):
        raise StorageError(
            f"snapshot blob must be bytes, got {type(blob).__name__}"
        )
    if wal_seq < 0:
        raise StorageError("absorbed WAL sequence must be non-negative")
    return _frame(SNAPSHOT_MAGIC, wal_seq, blob)


def decode_snapshot_record(data: bytes, pos: int = 0) -> tuple[bytes, int, int]:
    """Decode one snapshot record at ``pos``.

    Returns ``(blob, wal_seq, next_pos)``.
    """
    body, pos = _open_frame(SNAPSHOT_MAGIC, bytes(data), pos, "snapshot")
    try:
        wal_seq, offset = _read_uvarint(body, 0)
    except CodecError as exc:
        raise StorageError(f"bad snapshot absorbed-sequence: {exc}") from exc
    return body[offset:], wal_seq, pos


def decode_frame(body: bytes) -> tuple[str, Any]:
    """Dispatch one complete frame body by its first byte.

    Returns ``("wal", (seq, envelope))``, ``("snapshot", (blob, wal_seq))``
    or ``("envelopes", [envelope, ...])`` for a batch frame
    (:func:`~repro.net.codec.decode_batch`); any other first byte is
    rejected.  Trailing bytes after the
    record are rejected, mirroring the codec's whole-buffer strictness.
    """
    body = bytes(body)
    if not body:
        raise StorageError("empty frame")
    first = body[0]
    if first == WAL_MAGIC:
        seq, envelope, pos = decode_wal_record(body)
        if pos != len(body):
            raise StorageError(f"{len(body) - pos} trailing bytes after WAL record")
        return "wal", (seq, envelope)
    if first == SNAPSHOT_MAGIC:
        blob, wal_seq, pos = decode_snapshot_record(body)
        if pos != len(body):
            raise StorageError(
                f"{len(body) - pos} trailing bytes after snapshot record"
            )
        return "snapshot", (blob, wal_seq)
    return "envelopes", codec.decode_batch(body)
