"""The batched message plane: batch frames, coalescing, equivalence.

The invariant under test everywhere: coalescing is a *transport*
optimization.  Protocol execution — transcripts, word totals, byte
totals, rounds — is byte-identical at the default cap and at a cap of
one (``Transport.batch_cap_envelopes = 1``, every send flushed on its
own: the per-envelope reference); what changes is the frame count and
the batch occupancy, and on TCP, the one runtime that builds frames, the
actual bytes on the wire.
"""

import asyncio

import pytest

from repro import run_adkg
from repro.crypto.keys import TrustedSetup
from repro.net import codec
from repro.net.adversary import RandomLagScheduler
from repro.net.delays import UniformDelay
from repro.net.envelope import Envelope
from repro.net.metrics import Metrics
from repro.net.runtime import Simulation
from repro.net.tcp_runtime import TCPRuntime
from repro.net.transport import Transport

from tests.net.helpers import Blob, EchoAll, Ping


def _env(recipient=1, payload=None, sender=0, depth=1, session=0, path=("layer",)):
    return Envelope(
        path=path,
        sender=sender,
        recipient=recipient,
        payload=payload if payload is not None else Ping(7),
        depth=depth,
        session=session,
    )


# -- batch frame codec -----------------------------------------------------------------


def test_batch_round_trip_and_payload_dedup():
    shared = Ping(3)
    envelopes = [_env(recipient=r, payload=shared) for r in range(1, 5)]
    body = codec.encode_batch(envelopes)
    assert body[0] == codec.BATCH_MAGIC and body[1] == codec.BATCH_VERSION
    assert codec.decode_batch(body) == envelopes
    # The shared payload is serialized once per frame, not once per
    # envelope: the batch undercuts the sum of single-envelope frames.
    singles = sum(len(codec.encode_envelope(e)) for e in envelopes)
    assert len(body) < singles
    # Distinct payloads still round-trip, in order.
    mixed = [_env(recipient=1, payload=Ping(1)), _env(recipient=2, payload=Blob(data=(9, 9)))]
    assert codec.decode_batch(codec.encode_batch(mixed)) == mixed


def test_batch_of_one_is_a_batch_frame_at_the_stated_byte_delta():
    """One frame spelling: a lone envelope travels as a 0xB5 batch of one,
    4 bytes plus the payload's length varint over its bare encoding."""
    for payload, delta in ((Ping(7), 5), (Blob(data=(9,) * 100), 6)):
        env = _env(payload=payload)
        body = codec.encode_batch([env])
        assert body[0] == codec.BATCH_MAGIC and codec.decode_batch(body) == [env]
        assert (len(codec.encode(payload)) < 128) == (delta == 5)
        assert len(body) - len(codec.encode_envelope(env)) == delta
        assert codec.encoded_batch_size([env], [len(body) - delta]) == len(body)


def test_bare_envelope_encoding_is_not_a_frame():
    with pytest.raises(codec.CodecError, match="not a batch frame"):
        codec.decode_batch(codec.encode_envelope(_env()))


def test_malformed_batch_frames_rejected():
    envelopes = [_env(recipient=1), _env(recipient=2, payload=Ping(8))]
    body = codec.encode_batch(envelopes)
    # Truncations at every prefix length must fail closed, never crash.
    for cut in range(1, len(body)):
        with pytest.raises(codec.CodecError):
            codec.decode_batch(body[:cut])
    with pytest.raises(codec.CodecError):
        codec.decode_batch(b"")
    with pytest.raises(codec.CodecError):
        codec.decode_batch(body + b"\x00")  # trailing bytes
    with pytest.raises(codec.CodecError):
        codec.decode_batch(bytes([codec.BATCH_MAGIC, 0x7F]) + body[2:])  # bad version
    with pytest.raises(codec.CodecError):
        codec.encode_batch([])
    # Payload table entries must be registered Payloads.
    not_payload = bytes([codec.BATCH_MAGIC, codec.BATCH_VERSION])
    blob = codec.encode(42)
    not_payload += bytes([len(blob)]) + blob + b"\x01\x00"
    with pytest.raises(codec.CodecError):
        codec.decode_batch(not_payload)


def test_batch_payload_index_out_of_range_rejected():
    body = bytearray(codec.encode_batch([_env(recipient=1), _env(recipient=2)]))
    # Known layout (single shared payload, small sizes, 1-byte varints):
    # magic, version, blob-count=1, blob-len, blob, m=2, [idx, header]...
    blob = codec.encode(Ping(7))
    assert body[2] == 1  # one payload blob
    pos = 4 + len(blob)
    assert body[pos] == 2  # envelope count
    assert body[pos + 1] == 0  # first record's payload index
    body[pos + 1] = 7  # out of range
    with pytest.raises(codec.CodecError):
        codec.decode_batch(bytes(body))


def test_batch_header_validation_matches_decode_envelope():
    # A batch whose header smuggles a non-int sender must be rejected the
    # same way decode_envelope rejects it.
    good = _env(recipient=1)
    body = codec.encode_batch([good, _env(recipient=2)])
    decoded = codec.decode_batch(body)
    assert all(isinstance(e, Envelope) for e in decoded)
    forged = Envelope(
        path=(), sender="zero", recipient=1, payload=Ping(1), depth=1
    )
    with pytest.raises(codec.CodecError):
        codec.decode_batch(codec.encode_batch([forged, good]))


# -- metrics ---------------------------------------------------------------------------


def test_frame_metrics_accounting():
    metrics = Metrics()
    assert metrics.frames_saved == 0 and metrics.batch_occupancy_mean == 0.0
    for _ in range(10):
        metrics.record_send(_env())
    metrics.record_frame(7, nbytes=100)
    metrics.record_frame(3, nbytes=50)
    assert metrics.frames_total == 2
    assert metrics.frames_saved == 8
    assert metrics.batch_occupancy_max == 7
    assert metrics.batch_occupancy_mean == 5.0
    assert metrics.wire_bytes_total == 150
    # No byte metering on these sends => no savings claim.
    assert metrics.bytes_total == 0 and metrics.wire_bytes_saved == 0
    summary = metrics.summary()
    for key in ("frames_total", "frames_saved", "batch_occupancy_mean",
                "batch_occupancy_max", "wire_bytes_total", "wire_bytes_saved"):
        assert key in summary


# -- plane equivalence -----------------------------------------------------------------


def _assert_one_frame_per_message(result):
    """A run at a coalescing cap of one frames every message alone.  (It
    stops with the completing activation's sends still buffered, so the
    frame count is pinned on a run to quiescence, below.)"""
    assert result.metrics_summary["batch_occupancy_max"] == 1


def test_cap1_run_to_quiescence_frames_each_message_once(monkeypatch):
    """Every message of a cap-1 run is transmitted as a heap entry of one:
    frames equal messages."""
    monkeypatch.setattr(Transport, "batch_cap_envelopes", 1)
    result = run_adkg(n=4, seed=9, measure_bytes=True, to_quiescence=True)
    summary = result.metrics_summary
    frames = summary["frames_total"]
    assert frames == result.messages_total == 564
    assert summary["frames_saved"] == 0 and summary["batch_occupancy_max"] == 1


def test_the_simulator_counts_heap_entries_and_prices_none():
    """A heap entry spans links no one socket carries: the simulator
    counts its entries as frames and puts no bytes on a wire."""
    result = run_adkg(n=7, seed=3, measure_bytes=True)
    summary = result.metrics_summary
    assert summary["frames_total"] == 24
    assert result.bytes_total == 701_837
    assert summary["wire_bytes_total"] == summary["wire_bytes_saved"] == 0


def test_batched_plane_equivalent_to_unbatched_on_sim(monkeypatch):
    """Same seed, default cap vs a cap of one: byte-identical protocol
    execution."""
    batched = run_adkg(n=4, seed=11, transport="sim", measure_bytes=True)
    monkeypatch.setattr(Transport, "batch_cap_envelopes", 1)
    unbatched = run_adkg(n=4, seed=11, transport="sim", measure_bytes=True)
    assert batched.agreed and unbatched.agreed
    assert batched.transcript == unbatched.transcript
    assert batched.words_total == unbatched.words_total
    assert batched.bytes_total == unbatched.bytes_total
    assert batched.messages_total == unbatched.messages_total
    assert batched.rounds == unbatched.rounds
    bs = batched.metrics_summary
    us = unbatched.metrics_summary
    assert bs["words_by_layer"] == us["words_by_layer"]
    assert bs["words_by_type"] == us["words_by_type"]
    # Only the frame plane differs.
    assert bs["frames_total"] > 0 and bs["frames_saved"] > 0
    assert bs["batch_occupancy_mean"] > 1.0
    _assert_one_frame_per_message(unbatched)


def test_batched_plane_equivalent_under_random_delays_and_scheduler(monkeypatch):
    """Bucketed heap scheduling preserves the exact per-envelope schedule.

    Per-envelope delay draws and scheduler decisions happen in creation
    order at any cap, so even under a randomized delay model plus an
    adversarial scheduler the executions are identical.
    """

    def outcome():
        result = run_adkg(
            n=4,
            seed=5,
            transport="sim",
            delay_model=UniformDelay(0.3, 2.1),
            scheduler=RandomLagScheduler(factor=5.0, rate=0.3),
            measure_bytes=True,
        )
        return result, (
            result.transcript, result.words_total, result.bytes_total,
            result.rounds, result.messages_total,
        )  # fmt: skip

    batched = outcome()[1]
    monkeypatch.setattr(Transport, "batch_cap_envelopes", 1)
    per_envelope, unbatched = outcome()
    assert batched == unbatched
    _assert_one_frame_per_message(per_envelope)


def test_batched_plane_equivalent_with_behavior_plus_scheduler(monkeypatch):
    """RNG interleaving: behavior transforms and scheduler draws share
    ``_adv_rng``, so delays must be drawn at buffer time (creation
    order), not at flush — this is the regression the combined case
    catches.
    """
    from repro.net.adversary import DropBehavior

    def outcome():
        result = run_adkg(
            n=4,
            seed=7,
            transport="sim",
            delay_model=UniformDelay(0.3, 2.1),
            scheduler=RandomLagScheduler(factor=5.0, rate=0.3),
            behaviors={3: DropBehavior(rate=0.5)},
            measure_bytes=True,
        )
        return result, (
            result.words_total, result.bytes_total, result.messages_total,
            result.rounds, sorted(result.outputs),
        )  # fmt: skip

    batched = outcome()[1]
    monkeypatch.setattr(Transport, "batch_cap_envelopes", 1)
    per_envelope, unbatched = outcome()
    assert batched == unbatched
    _assert_one_frame_per_message(per_envelope)


def test_batched_tcp_matches_sim_transcript_and_words(monkeypatch):
    """Batched sim ≡ per-envelope sim ≡ batched TCP at f=0.

    Words are schedule-independent at f=0; byte totals are asserted
    within the sim pair only (realtime depth stamps differ by schedule,
    which shifts the varint-encoded depth field).
    """
    n, seed = 4, 7

    def committee():  # one each: a setup's directory carries the verify cache
        return TrustedSetup.generate(n, f=0, seed=seed)

    sim_batched = run_adkg(seed=seed, setup=committee(), measure_bytes=True)
    with monkeypatch.context() as patch:
        patch.setattr(Transport, "batch_cap_envelopes", 1)
        sim_unbatched = run_adkg(seed=seed, setup=committee(), measure_bytes=True)
    assert sim_batched.transcript == sim_unbatched.transcript
    assert sim_batched.words_total == sim_unbatched.words_total
    assert sim_batched.bytes_total == sim_unbatched.bytes_total
    _assert_one_frame_per_message(sim_unbatched)

    runtime = TCPRuntime(committee(), seed=seed)
    from repro.core.adkg import ADKG

    results = asyncio.run(runtime.run_root(lambda party: ADKG(), timeout=60))
    transcripts = list(results.values())
    assert all(t == transcripts[0] for t in transcripts)
    assert transcripts[0] == sim_batched.transcript
    assert runtime.rejected_frames == 0
    assert runtime.metrics.words_total == sim_batched.words_total
    # Real coalesced frames went over the sockets.  At n=4 the per-pair
    # bursts are small and payloads within one connection's frame are
    # distinct, so framing overhead can cancel the saved length
    # prefixes — wire bytes may only be bounded, not strictly smaller
    # (larger n tips the balance).
    assert runtime.metrics.frames_total > 0
    assert runtime.metrics.frames_saved > 0
    assert runtime.metrics.wire_bytes_total <= runtime.metrics.bytes_total


def test_batched_tcp_wire_carries_multi_envelope_frames():
    """EchoAll over batched TCP: outputs right, frames coalesced."""
    setup = TrustedSetup.generate(4, seed=2)
    runtime = TCPRuntime(setup, seed=2)
    results = asyncio.run(runtime.run_root(lambda party: EchoAll(), timeout=30))
    assert all(value == frozenset(range(4)) for value in results.values())
    assert runtime.metrics.bytes_total > 0
    assert runtime.metrics.frames_total > 0


def test_tcp_frames_at_a_cap_of_one_cost_five_or_six_bytes_each(monkeypatch):
    """At a cap of one every TCP frame is a batch of one on the socket,
    5 B dearer than its protocol bytes, 6 B from 128 B of payload (the
    payload's length varint grows a byte); closing the run frames every
    metered send."""
    big = Blob(data=(9,) * 100)
    assert len(codec.encode(Ping(3))) < 128 <= len(codec.encode(big))

    class PingAndBlob(EchoAll):
        def on_start(self):
            super().on_start()
            self.multicast(big)

    monkeypatch.setattr(Transport, "batch_cap_envelopes", 1)
    runtime = TCPRuntime(TrustedSetup.generate(4, seed=5), seed=5)
    runtime.run_sync(lambda party: PingAndBlob(), timeout=30)
    metrics = runtime.metrics
    sends = 4 * 3  # per payload kind
    assert metrics.frames_total == metrics.messages_total == 2 * sends
    assert metrics.batch_occupancy_max == 1
    assert metrics.wire_bytes_total - metrics.bytes_total == 5 * sends + 6 * sends


# -- flush policy ----------------------------------------------------------------------


def test_size_cap_splits_coalescing_buffer():
    setup = TrustedSetup.generate(4, seed=3)
    sim = Simulation(setup, seed=3)
    sim.batch_cap_envelopes = 2
    sim.run_sync(lambda party: EchoAll())
    assert sim.metrics.batch_occupancy_max <= 2
    assert sim.metrics.frames_total > 0


def test_quiescence_flushes_coalesced_sends():
    """run() to quiescence must deliver buffered coalesced sends too."""
    setup = TrustedSetup.generate(4, seed=4)
    sim = Simulation(setup, seed=4)
    sim.start(lambda party: EchoAll())
    sim.run()  # no stop predicate: drains to true quiescence
    assert not sim._outgoing
    assert all(
        sim.parties[i].instance(()).seen == {0, 1, 2, 3} for i in range(4)
    )


# -- TCP backpressure (bounded send queues) --------------------------------------------


def test_tcp_backpressure_sheds_and_counts():
    """With a tiny queue cap the overflow is shed and counted, not grown."""
    setup = TrustedSetup.generate(4, seed=6)
    runtime = TCPRuntime(setup, seed=6)
    runtime.send_queue_cap = 1
    runtime.batch_cap_envelopes = 1  # every envelope its own frame

    class Burst(EchoAll):
        def on_start(self):
            super().on_start()
            for _ in range(50):  # flood before any pump can drain
                self.multicast(Ping(self.me))

    try:
        # May still reach agreement (EchoAll needs only one ping per
        # peer to survive the shedding) or starve — either way the
        # overflow must have been dropped and counted, not queued.
        asyncio.run(runtime.run_root(lambda party: Burst(), timeout=2))
    except asyncio.TimeoutError:
        pass
    assert runtime.backpressure_drops > 0
    assert runtime.dropped_sends > 0
    assert runtime.metrics.counters("tcp").get("backpressure", 0) > 0


def test_tcp_honest_runs_never_hit_backpressure():
    result = run_adkg(n=4, seed=1, transport="tcp")
    assert result.agreed
    assert result.metrics_summary["counters"].get("tcp", {}) .get("backpressure", 0) == 0
