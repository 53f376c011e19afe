"""Run metering: a fan-out metered once is exactly k single sends.

The batched plane groups an honest sender's consecutive envelopes that are
the same objects in every field but a same-width recipient and records the
run with one ``record_send(head, nbytes, count=k)``.  The reference is the
same pipeline at a coalescing cap of one, where the cap flush ends every run
after one envelope, so each is metered on its own: protocol totals,
by-type/by-layer tables and the codec's encode-once counters must agree to
the digit for any envelope sequence an outbox can hold.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keys import TrustedSetup
from repro.net import codec
from repro.net.adversary import CrashBehavior, DropBehavior
from repro.net.envelope import Envelope
from repro.net.metrics import Metrics
from repro.net.payload import Payload
from repro.net.runtime import Simulation

from tests.net.helpers import Blob, Ping

SETUP = TrustedSetup.generate(4, seed=1)
SENDER = 0


class _Outbox:
    """Stands in for a party whose activation queued exactly ``envelopes``."""

    index = SENDER

    def __init__(self, envelopes):
        self._queued = list(envelopes)

    def collect_outbox(self):
        queued, self._queued = self._queued, []
        return queued

    def deliver(self, envelope):
        """A self-addressed envelope: local computation, nothing queued."""


#: Recipients straddling the one-/two-byte and two-/three-byte zigzag varint
#: boundaries, the sender itself (a self-addressed envelope interleaved in
#: the fan-out), and one too wide to ever join a run.
RECIPIENTS = (SENDER, 1, 2, 3, 62, 63, 64, 65, 8190, 8191, 8192, 8193, 1 << 20)

#: How a fan-out member departs from the fan-out's shared objects: not at
#: all ("none" three times: most members are true siblings, as in a
#: multicast), by a fresh merely-equal payload or path object, or by
#: another path, depth or session altogether.
DEPARTURES = (
    "none", "none", "none",
    "equal payload", "equal path", "other path", "other depth", "other session",
)  # fmt: skip
DEPTHS = (1, 1000)
SESSIONS = (0, 70000)

#: A sequence of fan-outs: ``(payload key, path key, depth index, session
#: index, [(recipient, departure), ...])``.
SENDS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 1),
        st.integers(0, 1),
        st.lists(
            st.tuples(st.sampled_from(RECIPIENTS), st.sampled_from(DEPARTURES)),
            min_size=1,
            max_size=12,
        ),
    ),
    max_size=6,
)

BEHAVIORS = {
    "honest": lambda: None,
    "drop": lambda: {SENDER: DropBehavior(0.5)},
    "crash": lambda: {SENDER: CrashBehavior(after_sends=5)},
}


def _payload(key):
    return Ping(key) if key < 2 else Blob(data=tuple(range(key + 3)))


def _path(key):
    """A fresh tuple per call (the empty path is a singleton)."""
    if key == 3:
        # A forged path: a tuple, but unhashable, so neither the codec's
        # path table nor the layer memo can intern it.
        return ("forged", [1, 2])
    return tuple(iter((("layer",), ("layer", ("rbc", 2)), ())[key]))


def _envelopes(sends):
    """Fresh objects on every call: the codec memoizes payloads by identity."""
    envelopes = []
    for payload_key, path_key, depth, session, members in sends:
        # int(str(...)) builds a new int object: 1000 and 70000 are not
        # interned, so two fan-outs never share a depth or session object.
        shared = {
            "payload": _payload(payload_key),
            "path": _path(path_key),
            "depth": int(str(DEPTHS[depth])),
            "session": int(str(SESSIONS[session])),
        }
        departures = {
            "equal payload": lambda: {"payload": _payload(payload_key)},
            "equal path": lambda: {"path": _path(path_key)},
            "other path": lambda: {"path": _path((path_key + 1) % 4)},
            "other depth": lambda: {"depth": DEPTHS[1 - depth]},
            "other session": lambda: {"session": SESSIONS[1 - session]},
            "none": dict,
        }
        for recipient, departure in members:
            fields = {**shared, **departures[departure]()}
            envelopes.append(Envelope(sender=SENDER, recipient=recipient, **fields))
    return envelopes


def _flush(sends, *, measure_bytes, behavior, cap):
    sim = Simulation(
        SETUP, behaviors=BEHAVIORS[behavior](), seed=7, measure_bytes=measure_bytes
    )
    sim.batch_cap_envelopes = cap
    handed_off = 0
    transmit_coalesced = sim._transmit_coalesced

    def checking_transmit(batch):
        # A send is metered before its envelope leaves the coalescing buffer,
        # also when the size cap flushes in the middle of a run.
        nonlocal handed_off
        handed_off += len(batch)
        assert sim.metrics.messages_total >= handed_off
        transmit_coalesced(batch)

    sim._transmit_coalesced = checking_transmit
    sim._flush_party(_Outbox(_envelopes(sends)))
    sim._flush_coalesced()
    metrics = sim.metrics
    return {
        "words": metrics.words_total,
        "messages": metrics.messages_total,
        "bytes": metrics.bytes_total,
        "words_by_layer": dict(metrics.words_by_layer),
        "messages_by_layer": dict(metrics.messages_by_layer),
        "words_by_type": dict(metrics.words_by_type),
        "messages_by_type": dict(metrics.messages_by_type),
        "bytes_by_type": dict(metrics.bytes_by_type),
        "deliveries": metrics.deliveries,
        "max_depth": metrics.max_depth,
        "encode": metrics.counters("encode"),
        "dropped_sends": sim.dropped_sends,
        "in_flight": sum(len(entry) for _, _, entry in sim._queue),
    }


@settings(max_examples=150, deadline=None)
@given(
    sends=SENDS,
    measure_bytes=st.booleans(),
    behavior=st.sampled_from(sorted(BEHAVIORS)),
    cap=st.sampled_from((2, 3, 256)),
)
def test_batched_metering_equals_the_unbatched_plane(sends, measure_bytes, behavior, cap):
    batched = _flush(sends, measure_bytes=measure_bytes, behavior=behavior, cap=cap)
    reference = _flush(sends, measure_bytes=measure_bytes, behavior=behavior, cap=1)
    assert batched == reference


def test_a_multicast_is_one_run_and_one_metering_call():
    """The property above cannot tell one call from k: count them."""
    payload, path = Ping(1), ("layer",)
    fan_out = [Envelope(path, SENDER, r, payload, 1, 0) for r in range(1, 40)]
    sim = Simulation(SETUP, seed=7, measure_bytes=True)
    calls = []
    record_send = sim.metrics.record_send
    sim.metrics.record_send = lambda envelope, nbytes=None, count=1: (
        calls.append(count),
        record_send(envelope, nbytes, count),
    )
    sim._flush_party(_Outbox(fan_out))
    assert calls == [39]
    assert sim.metrics.messages_total == 39
    assert sim.metrics.counters("encode") == {
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
    the sends queued before it are already metered and buffered."""
    shared, path = Ping(1), ("layer",)
    sends = [
        Envelope(path, SENDER, 1, shared, 1, 0),
        Envelope(path, SENDER, 2, shared, 1, 0),
        Envelope(path, SENDER, 3, _Unregistered(1), 1, 0),
        Envelope(path, SENDER, 1, Ping(2), 1, 0),
    ]
    sim = Simulation(SETUP, seed=7, measure_bytes=True)
    with pytest.raises(codec.CodecError):
        sim._flush_party(_Outbox(sends))
    assert sim.metrics.messages_total == 2
    assert sim.metrics.words_total == 2 * sends[0].word_size()
    assert sim.metrics.counters("encode")["payload.calls"] == 2
    assert [record[0] for record in sim._outgoing] == sends[:2]
