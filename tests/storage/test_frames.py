"""Versioned storage frames: round-trips, strictness, mixed-frame streams."""

import random
import zlib

import pytest

from repro.net import codec
from repro.net.envelope import Envelope
from repro.storage.frames import (
    FRAME_VERSION,
    SNAPSHOT_MAGIC,
    WAL_MAGIC,
    StorageError,
    decode_frame,
    decode_snapshot_record,
    decode_wal_record,
    encode_snapshot_record,
    encode_wal_record,
    iter_wal_records,
)

from tests.net.helpers import Ping


def _envelope(i: int) -> Envelope:
    return Envelope(
        path=("rbc", i % 3),
        sender=i % 4,
        recipient=(i + 1) % 4,
        payload=Ping(i),
        depth=1 + i % 5,
        session=i % 2,
    )


# -- WAL records -------------------------------------------------------------------------


def test_wal_record_roundtrip():
    envelope = _envelope(7)
    data = encode_wal_record(envelope, 42)
    assert data[0] == WAL_MAGIC and data[1] == FRAME_VERSION
    seq, decoded, pos = decode_wal_record(data)
    assert (seq, decoded) == (42, envelope)
    assert pos == len(data)


def test_wal_stream_roundtrip():
    envelopes = [_envelope(i) for i in range(10)]
    stream = b"".join(
        encode_wal_record(e, i + 1) for i, e in enumerate(envelopes)
    )
    assert list(iter_wal_records(stream)) == [
        (i + 1, e) for i, e in enumerate(envelopes)
    ]


def test_wal_record_truncations_rejected():
    data = encode_wal_record(_envelope(1), 1)
    # Every strict prefix must fail loudly — no silent shortening.
    for cut in range(1, len(data)):
        with pytest.raises(StorageError):
            list(iter_wal_records(data[:cut]))


def test_wal_record_bad_version_rejected():
    data = bytearray(encode_wal_record(_envelope(1), 1))
    data[1] = 0x7F
    with pytest.raises(StorageError, match="version"):
        decode_wal_record(bytes(data))


def test_wal_record_bad_magic_rejected():
    data = bytearray(encode_wal_record(_envelope(1), 1))
    data[0] = 0x00
    with pytest.raises(StorageError, match="magic"):
        decode_wal_record(bytes(data))


def test_wal_record_corrupt_body_rejected():
    envelope = _envelope(1)
    body = bytearray()
    codec._write_uvarint(body, 1)  # seq
    body.extend(codec.encode_envelope(envelope))
    body[-1] ^= 0xFF
    frame = bytearray((WAL_MAGIC, FRAME_VERSION))
    codec._write_uvarint(frame, len(body))
    frame.extend(body)
    frame.extend(zlib.crc32(body).to_bytes(4, "big"))  # the codec must refuse it
    with pytest.raises(codec.CodecError):
        decode_wal_record(bytes(frame))


# -- snapshot records --------------------------------------------------------------------


def test_snapshot_record_roundtrip():
    blob = codec.encode(("some", "snapshot", 123))
    data = encode_snapshot_record(blob, 99)
    assert data[0] == SNAPSHOT_MAGIC
    decoded, wal_seq, pos = decode_snapshot_record(data)
    assert (decoded, wal_seq) == (blob, 99) and pos == len(data)


def test_snapshot_record_truncated_rejected():
    data = encode_snapshot_record(b"x" * 64)
    for cut in range(1, len(data)):
        with pytest.raises(StorageError):
            decode_snapshot_record(data[:cut])


def test_snapshot_record_bad_version_rejected():
    data = bytearray(encode_snapshot_record(b"blob"))
    data[1] = 0x01  # the version before checksums
    with pytest.raises(StorageError, match="version"):
        decode_snapshot_record(bytes(data))


# -- checksums ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "data, read",
    [
        (
            b"".join(encode_wal_record(_envelope(i), i + 1) for i in range(3)),
            lambda data: list(iter_wal_records(data)),
        ),
        (
            encode_snapshot_record(codec.encode(("snapshot", b"\x07" * 40)), 9),
            decode_snapshot_record,
        ),
    ],
    ids=["wal-stream", "snapshot"],
)
def test_every_bit_flip_of_a_record_is_refused(data, read):
    """A flipped bit never reads back as another record, even where the
    codec would decode it (an int field, fragment bytes, a digest, a
    snapshot blob the frame treats as opaque)."""
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(StorageError):
            read(bytes(flipped))


# -- mixed-frame streams (codec version negotiation) -------------------------------------


def _bare_envelope(envelope: Envelope) -> bytes:
    """An envelope's own encoding: a WAL record's body, never a frame."""
    return codec.encode_envelope(envelope)


def _batch_frame(envelopes: list[Envelope]) -> bytes:
    return codec.encode_batch(envelopes)


@pytest.mark.parametrize("seed", range(8))
def test_interleaved_frame_kinds_roundtrip(seed):
    """Property-style: any interleaving of the three frame families decodes.

    A stream mixes batch frames (of one envelope or several), WAL records
    and snapshot records (the way a length-prefixed wire or log can);
    every body dispatches by its first byte and round-trips exactly, and
    a bare envelope encoding among them is refused, not read as a frame.
    """
    rng = random.Random(seed)
    frames = []
    expected = []
    for i in range(rng.randint(5, 25)):
        kind = rng.choice(("bare", "batch", "wal", "snapshot"))
        if kind == "bare":
            frames.append(_bare_envelope(_envelope(rng.randrange(100))))
            expected.append(None)
        elif kind == "batch":
            envelopes = [
                _envelope(rng.randrange(100))
                for _ in range(rng.randint(1, 6))
            ]
            frames.append(_batch_frame(envelopes))
            expected.append(("envelopes", envelopes))
        elif kind == "wal":
            envelope = _envelope(rng.randrange(100))
            seq = rng.randrange(1 << 20)
            frames.append(encode_wal_record(envelope, seq))
            expected.append(("wal", (seq, envelope)))
        else:
            blob = codec.encode(("blob", rng.randrange(1 << 30)))
            wal_seq = rng.randrange(1 << 16)
            frames.append(encode_snapshot_record(blob, wal_seq))
            expected.append(("snapshot", (blob, wal_seq)))
    for frame, want in zip(frames, expected):
        if want is None:
            with pytest.raises(codec.CodecError, match="not a batch frame"):
                decode_frame(frame)
        else:
            assert decode_frame(frame) == want


@pytest.mark.parametrize("seed", range(4))
def test_interleaved_frames_truncation_rejected(seed):
    """Truncating any frame of a mixed stream is rejected, never misread."""
    rng = random.Random(1000 + seed)
    builders = [
        lambda: _bare_envelope(_envelope(rng.randrange(100))),
        lambda: _batch_frame([_envelope(rng.randrange(100)) for _ in range(3)]),
        lambda: encode_wal_record(_envelope(rng.randrange(100)), 1),
        lambda: encode_snapshot_record(codec.encode(rng.randrange(1 << 20))),
    ]
    for build in builders:
        frame = build()
        cut = rng.randint(1, len(frame) - 1)
        with pytest.raises(codec.CodecError):
            decode_frame(frame[:cut])


def test_frame_magics_are_disjoint():
    """The three families, and a bare envelope's struct tag, differ in their
    first byte."""
    assert len({WAL_MAGIC, SNAPSHOT_MAGIC, codec.BATCH_MAGIC, 0x10}) == 4


def test_trailing_bytes_rejected():
    wal = encode_wal_record(_envelope(1), 1) + b"\x00"
    with pytest.raises(StorageError, match="trailing"):
        decode_frame(wal)
    snap = encode_snapshot_record(b"blob") + b"\x00"
    with pytest.raises(StorageError, match="trailing"):
        decode_frame(snap)
