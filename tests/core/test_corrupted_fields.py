"""A corrupted party's send is bytes: drawn ill-typed fields never crash a run.

Party ``c`` of an n = 4 ADKG runs its honest stack, but a behaviour
replaces one field of some of its payloads.  The transport sends what a
behaviour changed through the codec (``Transport._buffer_transformed``):
the honest parties receive the decoded copy or nothing, and metering it
never raises.  Behind that boundary every handler validates what it is
given.  Each run must end with every honest party's output, one
transcript, and that transcript must pass ``DKGVerify``.

Two adversaries:

* **Probe 2**, replayed: party 3 replaces one random field of 30 % of
  its payloads with one of 14 ill-typed values, on the simulator (seeds
  0–59) and over TCP (seeds 0, 3, 6 and 9).
* **The drawn field**, a Hypothesis property: a payload type among the
  registered codec ids an ADKG sends, one of its fields, and a
  replacement from the same 14 values or from another payload the
  corrupted party saw in the same run, sent to a drawn set of
  recipients.  Tier-1 runs 100 draws; CI's ``ci`` profile step runs
  2 000.
* **What the encoder cannot write**: a lone surrogate and a tuple nested
  past the stack fail in the encoder without a ``CodecError``; the
  boundary refuses them all the same.
"""

import copy
import dataclasses
import functools

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import run_adkg
from repro.crypto import threshold_vrf as tvrf
from repro.crypto.keys import TrustedSetup
from repro.net import codec
from repro.net.adversary import Behavior, MutateBehavior

#: Probe 2's replacement values: each a wrong type or an ill value for
#: some field of every payload.
POOL = (
    None, -1, 0, 1 << 300, b"", bytes(33), "x", (), (1, 2),
    frozenset(), frozenset({99}), {}, 2.5, True,
)  # fmt: skip

#: The payload types an ADKG sends (its Gather, PE and NWH layers, and
#: the CT-RBC below them).
ADKG_PAYLOADS = (
    "CTVal", "CTEcho", "CTReady", "PEDkgShare", "PEEvalShare", "Suggest",
    "EchoMsg", "KeyVoteMsg", "LockVoteMsg", "CommitMsg", "ADKGShare",
)  # fmt: skip


def _replaced(payload, name, value):
    """``payload`` with field ``name`` set to ``value``, no constructor
    check in the way: what a corrupted party may put on its channel."""
    mutated = copy.copy(payload)
    object.__setattr__(mutated, name, value)
    return mutated


def _field_names(payload_type):
    return tuple(field.name for field in dataclasses.fields(payload_type))


def _probe_two(payload, recipient, rng):
    if rng.random() >= 0.3:
        return payload
    names = _field_names(payload)
    return _replaced(
        payload, names[rng.randrange(len(names))], POOL[rng.randrange(len(POOL))]
    )


def _assert_agreed_and_verified(setup, result):
    assert len(result.outputs) == setup.directory.n - 1
    assert result.agreed
    assert tvrf.DKGVerify(setup.directory, result.transcript)


def _probe_two_run(seed, transport):
    setup = TrustedSetup.generate(4, seed=seed)
    result = run_adkg(
        setup=setup,
        seed=seed,
        transport=transport,
        behaviors={3: MutateBehavior(_probe_two)},
        timeout=30,
    )
    _assert_agreed_and_verified(setup, result)


def test_probe_two_runs_to_agreement_on_the_simulator():
    for seed in range(60):
        _probe_two_run(seed, "sim")


def test_probe_two_runs_to_agreement_over_tcp():
    # Every third of probe 2's seeds 0–11 (each raised before the codec
    # boundary): all twelve take about 6 s, a third of them 2 s.
    for seed in range(0, 12, 3):
        _probe_two_run(seed, "tcp")


@functools.cache
def _payload_types():
    """Registered codec id -> class, for the payloads an ADKG sends."""
    codec._ensure_registered()
    return {
        type_id: kind
        for kind, (type_id, *_rest) in codec._by_type.items()
        if kind.__name__ in ADKG_PAYLOADS
    }


class FieldSwap(Behavior):
    """Sends ``kind`` payloads to ``recipients`` with field ``name``
    replaced; everything else passes through.

    ``replacement`` is ``("pool", i)`` for ``POOL[i]``, or ``("run", k,
    j)`` for field ``j`` of the ``k``-th payload (modulo what exists) the
    party has sent or received so far in this run.
    """

    def __init__(self, kind, name, replacement, recipients):
        self.kind = kind
        self.name = name
        self.replacement = replacement
        self.recipients = recipients
        self.seen = []

    def _value(self):
        if self.replacement[0] == "pool":
            return POOL[self.replacement[1]]
        _, k, j = self.replacement
        source = self.seen[k % len(self.seen)]
        names = _field_names(source)
        return getattr(source, names[j % len(names)])

    def transform_outgoing(self, envelope, rng):
        self.seen.append(envelope.payload)
        if type(envelope.payload) is not self.kind or envelope.recipient not in self.recipients:
            return [envelope]
        payload = _replaced(envelope.payload, self.name, self._value())
        return [dataclasses.replace(envelope, payload=payload)]

    def allow_delivery(self, envelope, rng):
        self.seen.append(envelope.payload)
        return True


@st.composite
def _swaps(draw):
    type_id = draw(st.sampled_from(sorted(_payload_types())))
    name = draw(st.sampled_from(_field_names(_payload_types()[type_id])))
    replacement = draw(
        st.tuples(st.just("pool"), st.integers(0, len(POOL) - 1))
        | st.tuples(st.just("run"), st.integers(0, 400), st.integers(0, 5))
    )
    return type_id, name, replacement


_HONEST = frozenset({0, 1, 2})


# Examples come from the profile: 100 by default, 2 000 under CI's
# ``--hypothesis-profile=ci`` (tests/conftest.py).  The pinned ones raised
# out of ``run_adkg`` before a changed send crossed the codec: the first
# three while the sender's own send was metered (CTVal's ``k`` = 0 divides
# by zero, a ``proof`` int has no ``word_size``, a ``claim_words`` None
# negates nothing), the fourth in an honest party's Merkle leaf hash (a
# CTEcho ``fragment`` None held by reference).
@example(seed=1, corrupt=3, swap=(67, "k", ("pool", 2)), recipients=_HONEST)
@example(seed=1, corrupt=3, swap=(67, "proof", ("pool", 3)), recipients=_HONEST)
@example(seed=1, corrupt=3, swap=(67, "claim_words", ("pool", 0)), recipients=_HONEST)
@example(seed=1, corrupt=3, swap=(68, "fragment", ("pool", 0)), recipients=_HONEST)
@settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 1_000),
    corrupt=st.integers(0, 3),
    swap=_swaps(),
    recipients=st.frozensets(st.integers(0, 3), min_size=1),
)
def test_a_drawn_field_of_a_corrupted_party_never_breaks_agreement(
    seed, corrupt, swap, recipients
):
    type_id, name, replacement = swap
    kind = _payload_types()[type_id]
    setup = TrustedSetup.generate(4, seed=seed)
    result = run_adkg(
        setup=setup,
        seed=seed,
        behaviors={corrupt: FieldSwap(kind, name, replacement, recipients)},
    )
    _assert_agreed_and_verified(setup, result)


def _nested(depth):
    value = ()
    for _ in range(depth):
        value = (value,)
    return value


@pytest.mark.parametrize(
    "value", ["\ud800", _nested(5_000)], ids=["lone surrogate", "deep nesting"]
)
def test_a_value_the_encoder_cannot_write_is_refused_at_the_boundary(value):
    """No codec error is raised for these: the encoder fails with a
    ``UnicodeEncodeError`` or a ``RecursionError``.  The boundary refuses
    them as it refuses a ``CodecError``, and the run agrees."""
    setup = TrustedSetup.generate(4, seed=1)
    swap = MutateBehavior(
        lambda payload, recipient, rng: _replaced(payload, "root", value),
        selector=lambda envelope: type(envelope.payload) is _payload_types()[69],  # CTReady
    )
    result = run_adkg(setup=setup, seed=1, behaviors={3: swap})
    _assert_agreed_and_verified(setup, result)
    assert result.metrics_summary["counters"]["adversary"]["codec_refused"] > 0
