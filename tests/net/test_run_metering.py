"""Record metering: an outbox record flushed whole is exactly its sends.

``Transport._flush_party`` takes a party's ``(session, path, recipient,
payload)`` outbox records and turns each into its network envelopes in one
step, metering all envelopes of one recipient varint width with one
``record_send(head, nbytes, count=k)``.  The reference is the per-envelope
path every sender with a ``Behavior`` takes: a pass-through behaviour makes
it meter each envelope on its own.  Words, messages, bytes, the by-type and
by-layer tables, the frames and the codec's encode-once counters must agree
to the digit for any records an outbox can hold.  A dropping or crashing
behaviour must meter exactly the envelopes it lets through.
"""

from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keys import TrustedSetup
from repro.net import codec
from repro.net.adversary import Behavior, CrashBehavior, DropBehavior
from repro.net.delays import FixedDelay
from repro.net.envelope import Envelope
from repro.net.metrics import Metrics, counter_delta
from repro.net.payload import Payload
from repro.net.runtime import Simulation
from repro.net.transport import FRAME_HEADER_BYTES

from tests.net.helpers import Blob, Ping

SETUP = TrustedSetup.generate(4, seed=1)
SENDER = 0

#: The recipients of the fake party's multicast: both sides of the one-/two-,
#: two-/three- and three-/four-byte zigzag varint boundaries, ascending.
PEERS = (1, 2, 63, 64, 65, 8191, 8192, (1 << 20) - 1, 1 << 20)

#: Recipients of a lone send: the sender itself (a self copy interleaved
#: with the network sends) and the boundary recipients.
RECIPIENTS = (SENDER,) + PEERS

DEPTHS = (0, 1000)
SESSIONS = (0, 70000)


class _Outbox:
    """Stands in for a party whose activation queued exactly ``records``.

    A delivered self copy of a ``Ping`` queues one more lone send, as a
    protocol reacting to its own message would: the flush must take it
    after the records already queued.
    """

    index = SENDER

    def __init__(self, records, depth=0):
        self._queued = list(records)
        self.current_depth = depth
        self.delivered = []

    def collect_outbox(self):
        queued, self._queued = self._queued, []
        return queued

    def deliver(self, envelope):
        self.delivered.append(envelope)
        if type(envelope.payload) is Ping and envelope.payload.counter < 2:
            self._queued.append(
                (envelope.session, envelope.path, 1, Ping(envelope.payload.counter + 2))
            )


class _Logged(Behavior):
    """Lets ``inner`` decide and keeps every envelope it let through."""

    def __init__(self, inner):
        self.inner = inner
        self.passed = []

    def transform_outgoing(self, envelope, rng):
        emitted = self.inner.transform_outgoing(envelope, rng)
        self.passed += emitted
        return emitted


#: ``(multicast?, payload key, path key, session index, lone recipient)``.
RECORDS = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 1),
        st.sampled_from(RECIPIENTS),
    ),
    max_size=8,
)

BEHAVIORS = {
    "drop": lambda: DropBehavior(0.5),
    "crash": lambda: CrashBehavior(after_sends=5),
}


def _payload(key):
    return Ping(key) if key < 2 else Blob(data=tuple(range(key + 3)))


def _path(key):
    """A fresh tuple per call (the empty path is a singleton).  Every path
    is hashable: an honest stack builds no other, and a corrupted party's
    path reaches the metering only after the codec validated it."""
    paths = (("layer",), ("layer", ("rbc", 2)), (), ("layer", 3, ("idx", (1, 2))))
    return tuple(iter(paths[key]))


def _records(spec):
    """Fresh objects on every call: the codec memoizes payloads by identity."""
    return [
        (SESSIONS[session], _path(path), None if multicast else recipient,
         _payload(payload))
        for multicast, payload, path, session, recipient in spec
    ]  # fmt: skip


def _flush(records, *, behavior=None, measure_bytes, cap, fixed, depth=0):
    encodes = Counter(codec.encode_stats)
    sim = Simulation(
        SETUP,
        delay_model=FixedDelay(1.0) if fixed else None,
        behaviors={SENDER: behavior} if behavior is not None else None,
        seed=7,
        measure_bytes=measure_bytes,
    )
    sim.batch_cap_envelopes = cap
    sim._peers[SENDER] = PEERS  # what the fake party's multicast reaches
    handed_off = 0
    transmit_coalesced = sim._transmit_coalesced

    def checking_transmit(envelopes, delays):
        # A send is metered before its envelope leaves the coalescing buffer.
        nonlocal handed_off
        handed_off += len(envelopes)
        assert sim.metrics.messages_total >= handed_off
        transmit_coalesced(envelopes, delays)

    sim._transmit_coalesced = checking_transmit
    party = _Outbox(records, depth)
    sim._flush_party(party)
    buffered = [
        (e.path, e.sender, e.recipient, e.payload, e.depth, e.session, delay)
        for e, delay in zip(sim._outgoing, sim._outgoing_delays)
    ]
    sim._flush_coalesced()
    metrics = sim.metrics
    return {
        "buffered": buffered,
        "self copies": [(e.recipient, e.payload, e.depth) for e in party.delivered],
        "words": metrics.words_total,
        "messages": metrics.messages_total,
        "bytes": metrics.bytes_total,
        "words_by_layer": dict(metrics.words_by_layer),
        "words_by_type": dict(metrics.words_by_type),
        "messages_by_type": dict(metrics.messages_by_type),
        "frames": metrics.frames_total,
        "wire_bytes": metrics.wire_bytes_total,
        "occupancy_max": metrics.batch_occupancy_max,
        "deliveries": metrics.deliveries,
        "max_depth": metrics.max_depth,
        "encode": counter_delta(codec.encode_stats, encodes),
        "counts": dict(metrics.counts),
        "in_flight": sum(len(entry) for _, _, entry in sim._queue),
    }


@settings(max_examples=150, deadline=None)
@given(
    spec=RECORDS,
    measure_bytes=st.booleans(),
    cap=st.sampled_from((1, Simulation.batch_cap_envelopes)),
    fixed=st.booleans(),
    depth=st.sampled_from(DEPTHS),
)
def test_batched_metering_equals_the_unbatched_plane(spec, measure_bytes, cap, fixed, depth):
    """The record flush equals the per-envelope path of a pass-through
    behaviour: same envelopes, delays, self copies and totals (bytes
    included)."""
    plane = dict(measure_bytes=measure_bytes, cap=cap, fixed=fixed, depth=depth)
    records = _flush(_records(spec), **plane)
    per_envelope = _flush(_records(spec), behavior=Behavior(), **plane)
    assert records == per_envelope


@settings(max_examples=60, deadline=None)
@given(
    spec=RECORDS,
    behavior=st.sampled_from(sorted(BEHAVIORS)),
    measure_bytes=st.booleans(),
    cap=st.sampled_from((1, Simulation.batch_cap_envelopes)),
)
def test_a_behaviour_meters_exactly_what_it_lets_through(spec, behavior, measure_bytes, cap):
    """Drop and crash: what is metered and buffered is exactly what the
    behaviour emitted, each envelope metered on its own."""
    logged = _Logged(BEHAVIORS[behavior]())
    flushed = _flush(
        _records(spec), behavior=logged, measure_bytes=measure_bytes, cap=cap, fixed=True
    )
    expected = Metrics()
    for envelope in logged.passed:
        nbytes = None
        if measure_bytes:
            nbytes = FRAME_HEADER_BYTES + codec.encoded_envelope_size(envelope)
        expected.record_send(envelope, nbytes)
    assert [entry[:6] for entry in flushed["buffered"]] == [
        (e.path, e.sender, e.recipient, e.payload, e.depth, e.session)
        for e in logged.passed
    ]
    assert (
        flushed["words"], flushed["messages"], flushed["bytes"],
        flushed["words_by_layer"], flushed["words_by_type"],
        flushed["messages_by_type"],
    ) == (
        expected.words_total, expected.messages_total, expected.bytes_total,
        dict(expected.words_by_layer), dict(expected.words_by_type),
        dict(expected.messages_by_type),
    )  # fmt: skip
    assert flushed["frames"] == -(-len(logged.passed) // cap)


def test_a_multicast_is_one_run_and_one_metering_call():
    """The property above cannot tell one call from k: count them."""
    sim = Simulation(SETUP, seed=7, measure_bytes=True)
    sim._peers[SENDER] = tuple(range(1, 40))
    encodes = Counter(codec.encode_stats)
    calls = []
    record_send = sim.metrics.record_send
    sim.metrics.record_send = lambda envelope, nbytes=None, count=1: (
        calls.append(count),
        record_send(envelope, nbytes, count),
    )
    sim._flush_party(_Outbox([(0, ("layer",), None, Blob(data=(1,)))]))
    assert calls == [39]
    assert sim.metrics.messages_total == 39
    assert counter_delta(codec.encode_stats, encodes) == {
        "payload.calls": 39, "payload.hits": 38, "payload.misses": 1,
    }  # fmt: skip


@given(
    payload_key=st.integers(0, 3),
    path_key=st.integers(0, 3),
    nbytes=st.none() | st.integers(0, 1 << 20),
    count=st.integers(1, 50),
)
def test_record_send_count_is_count_single_calls(payload_key, path_key, nbytes, count):
    envelope = Envelope(_path(path_key), SENDER, 1, _payload(payload_key), 3, 0)
    once, singly = Metrics(), Metrics()
    once.record_send(envelope, nbytes, count=count)
    for _ in range(count):
        singly.record_send(envelope, nbytes)
    assert once == singly


@dataclass(frozen=True)
class _Unregistered(Payload):
    junk: int


def test_unencodable_payload_after_a_half_built_run_fails_loudly():
    """An honest unencodable payload is a programming error and raises — but
    the records queued before it are already metered and buffered."""
    shared = Blob(data=(1,))
    records = [
        (0, ("layer",), None, shared),
        (0, ("layer",), 3, _Unregistered(1)),
        (0, ("layer",), 1, Blob(data=(2,))),
    ]
    sim = Simulation(SETUP, seed=7, measure_bytes=True)
    encodes = Counter(codec.encode_stats)
    with pytest.raises(codec.CodecError):
        sim._flush_party(_Outbox(records))
    assert sim.metrics.messages_total == 3
    assert sim.metrics.words_total == 3 * (shared.word_size() + 1)
    assert counter_delta(codec.encode_stats, encodes)["payload.calls"] == 3
    assert [(e.recipient, e.payload) for e in sim._outgoing] == [
        (1, shared), (2, shared), (3, shared),
    ]  # fmt: skip
