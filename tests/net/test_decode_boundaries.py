"""Every decode boundary fails closed on every prefix and single-byte flip.

A corpus of real wire and disk bytes — batch frames of envelopes captured
from an n=4 ADKG through ``Transport.add_delivery_observer``, WAL records
of the same envelopes, a snapshot frame of a mid-run ADKG ``Party.freeze``
(a shared-aggregate encoding: ``decode_shared`` / ``encode_shared``) —
is truncated at every length and flipped at every byte.  Each mutant
either raises :class:`CodecError` (the storage layer's ``StorageError`` is
one) or decodes to something that passes the codec's own validation, that
re-encodes to the mutant byte for byte, and whose aggregates hold exactly
the bytes a cold walk of them emits; nothing else — no ``IndexError``,
``TypeError`` or ``RecursionError`` — may escape.  The forged-header and table-bound tests pin the batch
decoder's path interning: what the span scan declines, that a rejected
path is never interned, and that the table stays bounded.
"""

import random

import pytest

from repro.baselines.aba import Decided
from repro.core.adkg import ADKG
from repro.crypto.keys import TrustedSetup
from repro.net import FixedDelay, codec, make_transport
from repro.net.envelope import Envelope
from repro.net.runtime import Simulation
from repro.storage.frames import (
    StorageError,
    decode_frame,
    decode_snapshot_record,
    encode_snapshot_record,
    encode_wal_record,
    iter_wal_records,
)
from tests.net.helpers import (
    EchoAll,
    aggregates_in,
    assert_retained_bytes_are_a_cold_walk,
)


@pytest.fixture(autouse=True)
def fresh_path_table():
    codec._path_memo.clear()
    yield
    codec._path_memo.clear()


@pytest.fixture(scope="module")
def captured():
    """Up to three delivered envelopes of every payload type of one ADKG."""
    setup = TrustedSetup.generate(4, seed=5)
    runtime = make_transport("sim", setup, seed=5, delay_model=FixedDelay(1.0))
    by_type: dict[type, list] = {}

    def observe(envelope) -> None:
        kept = by_type.setdefault(type(envelope.payload), [])
        if len(kept) < 3:
            kept.append(envelope)

    runtime.add_delivery_observer(observe)
    runtime.run_sync(lambda party: ADKG())
    assert len(by_type) >= 10
    return by_type


def _mutants(data: bytes, seed: str, thorough: bool = False, thin: range = range(0)):
    """Every strict prefix, then every byte replaced by a seeded random
    one; ``thorough`` also flips each byte's continuation bit (what varints
    and tags hinge on) and its low bit.  Inside ``thin`` (a long run of one
    kind of value) only every sixteenth position is cut at and flipped."""
    rng = random.Random(seed)
    kept = [p for p in range(len(data)) if p not in thin or p % 16 == 0]
    for cut in kept:
        yield data[:cut]
    for position in kept:
        byte = data[position]
        flips = {rng.randrange(256)}
        if thorough:
            flips |= {byte ^ 0x80, byte ^ 0x01}
        for flipped in flips - {byte}:
            yield data[:position] + bytes((flipped,)) + data[position + 1 :]


def _accepted(decoder, data: bytes):
    """``decoder(data)``, or ``None`` if it failed closed.  Any exception
    other than CodecError propagates and fails the test."""
    try:
        return decoder(data)
    except codec.CodecError:
        return None


def test_batch_frames_fail_closed(captured):
    survivors = retained = 0
    for kind, envelopes in captured.items():
        frame = codec.encode_batch(envelopes)
        assert codec.decode_batch(frame) == envelopes
        for mutant in _mutants(frame, kind.__name__, thorough=True):
            decoded = _accepted(codec.decode_batch, mutant)
            for envelope in decoded or ():
                codec._validate_envelope(envelope)
            # A frame has more than one spelling (payload-table order); a
            # value has one, and the decoder kept it.
            retained += len(list(aggregates_in(decoded)))
            assert_retained_bytes_are_a_cold_walk(decoded)
            survivors += decoded is not None
    assert survivors  # flips inside opaque bytes do decode: the branch is live
    assert retained  # ... some of them inside a transcript


def test_wal_records_fail_closed(captured):
    for seq, kept in enumerate(captured.values(), 120):  # two-byte sequences too
        record = encode_wal_record(kept[0], seq)
        assert list(iter_wal_records(record + record)) == [(seq, kept[0])] * 2
        for mutant in _mutants(record, f"wal-{seq}"):
            records = _accepted(lambda data: list(iter_wal_records(data)), mutant)
            for decoded_seq, envelope in records or ():
                assert decoded_seq >= 0
                codec._validate_envelope(envelope)
                # An accepted record is the one spelling of what it holds.
                assert encode_wal_record(envelope, decoded_seq) == mutant
                assert_retained_bytes_are_a_cold_walk(envelope)


def test_snapshot_frames_fail_closed():
    """A mid-run ADKG party: a table of transcripts and a contribution,
    references from RBC, Gather and PE state, the session's 625-int RNG
    record.  Its ADKG has aggregated (and dropped its pool); its PE still
    pools the contributions dealt to it."""
    setup = TrustedSetup.generate(4, seed=3)
    sim = Simulation(setup, seed=3, delay_model=FixedDelay(1.0))
    sim.start(lambda party: ADKG())
    for _ in range(20):
        sim.step()
    blob = sim.parties[2].freeze()
    assert blob[:2] == codec.SHARED_OPEN + b"\x04"  # four distinct aggregates so far
    record = encode_snapshot_record(blob, 300)
    assert decode_frame(record) == ("snapshot", (blob, 300))

    def restore(data):
        kind, (inner, wal_seq) = decode_frame(data)
        assert kind == "snapshot" and wal_seq >= 0
        state = codec.decode_shared(inner)  # what Party.thaw does first
        assert codec.encode_shared(state) == inner  # accepted bytes: the one spelling
        assert_retained_bytes_are_a_cold_walk(state)
        return state

    state = restore(record)
    assert len(list(aggregates_in(state))) == 9  # one transcript six times, the rest once
    # Two thirds of this small blob are the RNG stream's 625 ints.
    stream = codec.encode(sim.parties[2].session_rng(0).getstate()[1])
    ints = range(record.index(stream) + 16, record.index(stream) + len(stream) - 16)
    survivors = 0
    for mutant in _mutants(record, "snapshot", thin=ints):
        if mutant[:1] == record[:1]:  # still addressed to the snapshot reader
            survivors += _accepted(restore, mutant) is not None
    assert survivors  # flips inside opaque bytes and ints do decode
    assert restore(record) == state
    # The plain readers refuse the blob at its first byte.
    for reader in (codec.decode, codec.decode_envelope, codec.decode_batch):
        with pytest.raises(codec.CodecError, match="0x0c"):
            reader(blob)


# -- overlong varints at all three boundaries ------------------------------------------


def _stretch(data: bytes, position: int) -> bytes:
    """Respell the one-byte varint at ``position`` in two bytes."""
    assert data[position] < 0x80
    return data[:position] + bytes((data[position] | 0x80, 0)) + data[position + 1 :]


def test_overlong_varints_rejected_at_every_boundary(captured):
    envelopes = captured[max(captured, key=lambda kind: kind.__name__)][:2]
    # codec value: tag, then the struct id
    value = codec.encode(envelopes[0].payload)
    with pytest.raises(codec.CodecError, match="non-canonical"):
        codec.decode(_stretch(value, 1))
    # batch frame: magic, version, then the payload-table count
    frame = codec.encode_batch(envelopes)
    assert frame[0] == codec.BATCH_MAGIC
    with pytest.raises(codec.CodecError, match="non-canonical"):
        codec.decode_batch(_stretch(frame, 2))
    # storage frames: magic, version, body length, then the sequence number
    for record, reader in (
        (encode_wal_record(envelopes[0], 5), lambda data: list(iter_wal_records(data))),
        (encode_snapshot_record(b"blob", 5), decode_snapshot_record),
    ):
        length_at = 2
        sequence_at = 3 if record[2] < 0x80 else 4
        for position in (length_at, sequence_at):
            if record[position] < 0x80:
                with pytest.raises(StorageError, match="non-canonical"):
                    reader(_stretch(record, position))


# -- path interning --------------------------------------------------------------------


def _forged_frame(path_wire: bytes, sender_wire: bytes = b"\x03\x02") -> bytes:
    """A one-payload, one-envelope batch frame around raw path bytes."""
    blob = codec.encode(Decided(bit=1))
    frame = bytearray((codec.BATCH_MAGIC, codec.BATCH_VERSION, 1, len(blob)))
    frame += blob
    frame += bytes((1, 0, 0x06, 5))  # one envelope, payload 0, 5-tuple header
    frame += path_wire + sender_wire + b"\x03\x04\x03\x06\x03\x08"
    return bytes(frame)


def _interned_spans() -> set:
    return {key for key in codec._path_memo if isinstance(key, bytes)}


def test_path_scan_declines_what_it_cannot_span():
    """Lists, long tuples and structs inside a path take the normal decoder
    (accepted or rejected on its verdict) and are never interned; an honest
    path is interned by its exact wire span."""
    honest = codec.encode(("adkg", ("rbc", 2), b"\x01"))
    frame = _forged_frame(honest)
    expected = [Envelope(("adkg", ("rbc", 2), b"\x01"), 1, 2, Decided(bit=1), 3, 4)]
    assert codec.decode_batch(frame) == expected
    assert _interned_spans() == {honest}
    assert codec.decode_batch(frame) == expected  # served from the table

    long_path = tuple(range(200))
    struct_path = ("rbc", Decided(bit=7))
    for path in (long_path, struct_path):
        [envelope] = codec.decode_batch(_forged_frame(codec.encode(path)))
        assert envelope.path == path
    with pytest.raises(codec.CodecError, match="not hashable"):
        codec.decode_batch(_forged_frame(codec.encode((["a", "list"],))))
    with pytest.raises(codec.CodecError, match="must be a tuple"):
        codec.decode_batch(_forged_frame(codec.encode(7)))
    assert _interned_spans() == {honest}


def test_rejected_paths_are_never_interned():
    """The scan spans these (plain tags only) but the decoder rejects them —
    every time: the verdict is never cached."""
    overlong_int = b"\x06\x01\x03\x82\x00"  # (1,) with the int in two bytes
    bad_utf8 = b"\x06\x01\x05\x02\xff\xfe"
    too_deep = b"\x06\x01" * 70 + b"\x06\x00"
    for path_wire in (overlong_int, bad_utf8, too_deep):
        for _ in range(2):
            with pytest.raises(codec.CodecError):
                codec.decode_batch(_forged_frame(path_wire))
    # A valid path whose *frame* is rejected later may stay interned (the
    # path itself decoded and validated); a rejected one may not.
    with pytest.raises(codec.CodecError, match="sender must be an int"):
        codec.decode_batch(_forged_frame(codec.encode(("ok",)), sender_wire=b"\x05\x00"))
    assert _interned_spans() == {codec.encode(("ok",))}


def test_path_table_stays_bounded_under_forged_paths(monkeypatch, captured):
    monkeypatch.setattr(codec, "_PATH_MEMO_LIMIT", 64)
    honest = next(iter(captured.values()))
    frame = codec.encode_batch(honest)
    for forged in range(500):
        [envelope] = codec.decode_batch(_forged_frame(codec.encode(("forged", forged))))
        assert envelope.path == ("forged", forged)
        assert len(codec._path_memo) <= 64
        if forged % 50 == 0:
            assert codec.decode_batch(frame) == honest
    assert codec.encode_batch(codec.decode_batch(frame)) == frame
