"""A multicast is one outbox record, expanded by the transport's flush.

``Protocol.multicast`` queues ``(session, path, None, payload)`` once; the
party's ``collect_outbox`` hands the records over and ``_flush_party``
expands a multicast into n − 1 network envelopes in recipient order plus
the self copy it delivers inline.  The reference is the loop it replaced,
n ``send`` calls with one payload object: the envelopes, their order and
depths, and everything the transport meters from them must agree to the
digit, on the simulator and on TCP, whose sizing counts one encode-once
request per send.  ``Envelope``'s own ``__init__``
stores through the slot descriptors; it must still build a frozen
dataclass.
"""

import ast
import dataclasses
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reshare import ReshareAgreement
from repro.crypto.keys import TrustedSetup
from repro.net.adversary import CrashBehavior, DropBehavior
from repro.net import codec
from repro.net.envelope import Envelope
from repro.net.metrics import counter_delta
from repro.net.party import Party
from repro.net.protocol import Protocol
from repro.net.runtime import Simulation
from repro.net.tcp_runtime import TCPRuntime

from tests.net.helpers import Blob, Ping

N = 4
SETUP = TrustedSetup.generate(N, seed=1)
SENDER = 1
SESSIONS = (0, 70000)
SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


class _Quiet(Protocol):
    """Sends only what a test tells it to."""


def _senders(party):
    """One instance per (session, path): the root, a child and a grandchild."""
    senders = []
    for session in SESSIONS:
        root = party.run_root(_Quiet(), session=session)
        layer = root.spawn("layer", _Quiet())
        senders += [root, layer, layer.spawn(("rbc", 2), _Quiet())]
    return senders


def _payload(key):
    return Ping(key) if key < 2 else Blob(data=tuple(range(key + 3)))


BEHAVIORS = {
    "honest": lambda: None,
    "drop": lambda: {SENDER: DropBehavior(0.5)},
    "crash": lambda: {SENDER: CrashBehavior(after_sends=5)},
}

#: ``(multicast?, sender instance, payload key, recipient of a lone send)``.
ACTIONS = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 3 * len(SESSIONS) - 1),
        st.integers(0, 3),
        st.integers(0, N - 1),
    ),
    max_size=8,
)


def _run(actions, *, as_record, behavior, cap, depth, tcp=False):
    """Queue ``actions`` at one party and flush them through the transport
    (an unopened TCP runtime with ``tcp``: it drops every send at the
    flush); a multicast is queued as a record or, with ``as_record``
    False, as the loop of sends it replaced.  Fresh payload objects per
    run: the codec memoizes by identity."""
    encodes = Counter(codec.encode_stats)
    runtime = TCPRuntime if tcp else Simulation
    sim = runtime(SETUP, behaviors=BEHAVIORS[behavior](), seed=7, measure_bytes=True)
    sim.batch_cap_envelopes = cap
    party = sim.parties[SENDER]
    senders = _senders(party)
    party.current_depth = depth
    for multicast, who, payload_key, recipient in actions:
        sender, payload = senders[who], _payload(payload_key)
        if not multicast:
            sender.send(recipient, payload)
        elif as_record:
            sender.multicast(payload)
        else:
            for j in range(N):
                sender.send(j, payload)
    delivered = []
    deliver = party.deliver

    def recording(envelope):
        delivered.append(envelope)
        deliver(envelope)

    party.deliver = recording
    sim._flush_party(party)
    collected = sim._outgoing + delivered
    sim._flush_coalesced()
    first_seen = {}
    metrics = sim.metrics
    return {
        "envelopes": [
            (e.path, e.sender, e.recipient, e.payload, e.depth, e.session)
            for e in collected
        ],
        # Which envelopes share one payload object: a run is metered once.
        "sharing": [
            first_seen.setdefault(id(e.payload), i) for i, e in enumerate(collected)
        ],
        "words": metrics.words_total,
        "messages": metrics.messages_total,
        "bytes": metrics.bytes_total,
        "words_by_layer": dict(metrics.words_by_layer),
        "words_by_type": dict(metrics.words_by_type),
        "messages_by_type": dict(metrics.messages_by_type),
        "deliveries": metrics.deliveries,
        "encode": counter_delta(codec.encode_stats, encodes),
        "counts": dict(metrics.counts),
        "in_flight": None if tcp else sum(len(entry) for _, _, entry in sim._queue),
    }


@settings(max_examples=120, deadline=None)
@given(
    actions=ACTIONS,
    behavior=st.sampled_from(sorted(BEHAVIORS)),
    cap=st.sampled_from((1, 2, 256)),
    depth=st.sampled_from((0, 7, 1000)),
    tcp=st.booleans(),
)
def test_a_multicast_record_equals_n_sends(actions, behavior, cap, depth, tcp):
    plane = dict(behavior=behavior, cap=cap, depth=depth, tcp=tcp)
    record = _run(actions, as_record=True, **plane)
    loop = _run(actions, as_record=False, **plane)
    assert record == loop
    sends = record["encode"].get("payload.calls", 0)
    assert sends == (record["messages"] if tcp else 0)


def test_a_multicast_is_one_record_in_recipient_order():
    sim = Simulation(SETUP, seed=7)
    party = sim.parties[2]
    root = party.run_root(_Quiet())
    party.current_depth = 4
    payload = Ping(9)
    root.send(0, Ping(1))
    root.multicast(payload)
    assert party._outbox[1:] == [(0, (), None, payload)]
    delivered = []
    party.deliver = delivered.append
    sim._flush_party(party)
    envelopes = sim._outgoing
    assert [(e.recipient, e.depth) for e in envelopes] == [
        (0, 5), (0, 5), (1, 5), (3, 5),
    ]  # fmt: skip
    assert all(e.payload is payload for e in envelopes[1:])
    assert [(e.recipient, e.depth, e.payload) for e in delivered] == [(2, 4, payload)]


def test_a_halted_party_queues_no_multicast():
    party = Party(0, N, 1)
    root = party.run_root(_Quiet())
    party.halt()
    root.multicast(Ping(1))
    assert not party.has_queued_sends
    assert party.collect_outbox() == []


def test_a_multicast_of_a_non_payload_raises():
    party = Party(0, N, 1)
    root = party.run_root(_Quiet())
    with pytest.raises(TypeError, match="must be a Payload"):
        root.multicast("not a payload")
    assert not party.has_queued_sends


class _MulticastOnRearm(Protocol):
    """Not idempotent on restore: re-sends from ``rearm``."""

    def rearm(self):
        self.multicast(Ping(0))


def test_thaw_names_the_path_of_a_multicast_it_produced():
    party = Party(0, N, 1)
    party.run_root(_Quiet()).spawn("child", _MulticastOnRearm())
    blob = party.freeze()

    def factory(_party):
        root = _Quiet()
        root.build_child = lambda name: _MulticastOnRearm()
        return root

    clone = Party(0, N, 1)
    with pytest.raises(RuntimeError, match=r"network sends .*\('child',\)"):
        clone.thaw(blob, root_factory=factory)


def test_reshare_fans_each_dealing_out_as_one_record():
    dealings = ("dealing-a", "dealing-b")
    party = Party(0, N, 1)
    party.run_root(ReshareAgreement(spec=None, initial=dealings))
    records = party.collect_outbox()
    assert [(r[2], r[3].dealing) for r in records] == [
        (None, "dealing-a"), (None, "dealing-b"),
    ]  # fmt: skip
    assert not party.has_queued_sends


# -- the envelope constructor ------------------------------------------------------------

FIELDS = (("adkg", ("rbc", 2), b"\x01"), 3, 1, Blob(data=(1, 2)), 12, 70000)


def test_the_envelope_constructor_builds_a_frozen_dataclass():
    envelope = Envelope(*FIELDS)
    names = [field.name for field in dataclasses.fields(Envelope)]
    assert envelope == Envelope(**dict(zip(names, FIELDS)))
    assert hash(envelope) == hash(Envelope(*FIELDS))
    assert Envelope(*FIELDS[:5]).session == 0
    for name, value in zip(names, FIELDS):
        assert getattr(envelope, name) is value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(envelope, name, None)
    assert dataclasses.replace(envelope) == envelope
    assert dataclasses.replace(envelope, recipient=2).recipient == 2


# -- send-to-all is a multicast ------------------------------------------------------------


def _send_to_all_loops(root: pathlib.Path) -> list[str]:
    """``for j in range(self.n): self.send(j, P)`` with ``P`` free of ``j``."""

    def is_self(node, attr):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == attr
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    found = []
    for directory in ("broadcast", "core", "baselines"):
        for path in sorted((root / directory).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (
                    isinstance(node, ast.For)
                    and isinstance(node.target, ast.Name)
                    and isinstance(node.iter, ast.Call)
                    and isinstance(node.iter.func, ast.Name)
                    and node.iter.func.id == "range"
                    and len(node.iter.args) == 1
                    and is_self(node.iter.args[0], "n")
                    and len(node.body) == 1
                    and isinstance(node.body[0], ast.Expr)
                ):
                    continue
                call = node.body[0].value
                if not (
                    isinstance(call, ast.Call)
                    and is_self(call.func, "send")
                    and len(call.args) == 2
                    and isinstance(call.args[0], ast.Name)
                    and call.args[0].id == node.target.id
                ):
                    continue
                names = {n.id for n in ast.walk(call.args[1]) if isinstance(n, ast.Name)}
                if node.target.id not in names:
                    found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def test_send_to_all_is_a_multicast():
    assert _send_to_all_loops(SRC) == []
