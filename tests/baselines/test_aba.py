"""Binary ABA baseline: agreement, validity, termination."""

import dataclasses
import functools
import random

from hypothesis import example, given, settings, strategies as st

from repro.baselines.aba import BOT, Aux, BVal, BinaryAgreement
from repro.baselines.common_coin import CoinHelper
from repro.crypto import threshold_vrf as tvrf
from repro.net.adversary import Behavior, RandomLagScheduler, SilentBehavior
from repro.net.chaos import ChaosSpec, DelayWindow

from tests.core.helpers import run_protocol
from repro.crypto.keys import TrustedSetup


@functools.cache
def _committee(n, seed):
    """A setup and the transcript of 2f+1 of its dealings (the coin's)."""
    setup = TrustedSetup.generate(n, seed=seed)
    directory = setup.directory
    rng = random.Random(99)
    contributions = [
        tvrf.DKGSh(directory, setup.secret(i), rng)
        for i in range(2 * directory.f + 1)
    ]
    return setup, tvrf.DKGAggregate(directory, contributions)


def _factory_with_transcript(setup, transcript, inputs, holders=None):
    """ABAs share a coin over a pre-agreed transcript: a strong coin, or a
    weak one when only ``holders`` have the transcript."""

    def make(party):
        held = holders is None or party.index in holders
        coin = CoinHelper(
            setup.directory,
            setup.secret(party.index),
            context="test-aba",
            transcript=transcript if held else None,
        )
        return BinaryAgreement(coin=coin, input_bit=inputs[party.index])

    return make


def _run(n, inputs, seed=1, holders=None, **options):
    setup, transcript = _committee(n, seed)
    factory = _factory_with_transcript(setup, transcript, inputs, holders)
    return run_protocol(n, factory, seed=seed, setup=setup, **options)


def _outputs(sim):
    return {i: sim.parties[i].result for i in sim.honest if sim.parties[i].has_result}


def test_validity_unanimous_one():
    sim = _run(4, [1, 1, 1, 1])
    assert set(_outputs(sim).values()) == {1}
    assert len(_outputs(sim)) == 4


def test_validity_unanimous_zero():
    sim = _run(4, [0, 0, 0, 0])
    assert set(_outputs(sim).values()) == {0}


def test_agreement_mixed_inputs():
    for seed in range(5):
        sim = _run(4, [0, 1, 0, 1], seed=seed)
        outputs = _outputs(sim)
        assert len(outputs) == 4, f"seed {seed}"
        assert len(set(outputs.values())) == 1, f"seed {seed}"


def test_decision_is_some_input():
    sim = _run(4, [1, 0, 1, 1], seed=3)
    decided = set(_outputs(sim).values())
    assert decided <= {0, 1}


def test_tolerates_silent_party():
    sim = _run(4, [1, 1, 1, 1], behaviors={3: SilentBehavior()}, seed=2)
    outputs = _outputs(sim)
    assert len(outputs) == 3
    assert set(outputs.values()) == {1}


def test_adversarial_scheduling():
    sim = _run(
        4, [0, 1, 1, 0], scheduler=RandomLagScheduler(factor=20, rate=0.3), seed=7
    )
    outputs = _outputs(sim)
    assert len(outputs) == 4
    assert len(set(outputs.values())) == 1


#: Deliveries a drawn n = 4 run may take to its last decision (the
#: longest of 3 000 draws took 384: five rounds).
MAX_STEPS = 2_000
_LINKS = [(a, b) for a in range(4) for b in range(4) if a != b]


@st.composite
def _link_window(draw):
    start = draw(st.integers(0, 30))
    return DelayWindow(
        extra=draw(st.sampled_from((4, 19))),
        start=start,
        end=start + draw(st.integers(1, 12)),
        pairs={draw(st.sampled_from(_LINKS))},
    )


#: Party 3 corrupted or not: per phase, the bit its BVal and Aux carry to
#: that phase's targets (every other recipient hears the truth).
_LIES = st.none() | st.tuples(
    st.integers(0, 1),
    st.frozensets(st.integers(0, 2)),
    st.sampled_from((0, 1, BOT)),
    st.frozensets(st.integers(0, 2)),
)


class _Equivocate(Behavior):
    """Runs the protocol, but tells each phase's targets another bit."""

    def __init__(self, phase1, targets1, phase2, targets2):
        self.lies = {1: (phase1, targets1), 2: (phase2, targets2)}

    def transform_outgoing(self, envelope, rng):
        payload = envelope.payload
        if isinstance(payload, (BVal, Aux)):
            bit, targets = self.lies[payload.phase]
            if envelope.recipient in targets:
                lie = dataclasses.replace(payload, bit=bit)
                return [dataclasses.replace(envelope, payload=lie)]
        return [envelope]


# Examples come from the profile: 100 by default, 2 000 under CI's
# ``--hypothesis-profile=ci`` (tests/conftest.py).
@settings(derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 99),
    inputs=st.lists(st.integers(0, 1), min_size=4, max_size=4),
    holders=st.sets(st.integers(0, 3)),
    windows=st.lists(_link_window(), max_size=4),
    lies=_LIES,
)
# Parties without the transcript flip the fallback coin: a decision that
# read the coin split these two, the first on the default delays alone.
@example(seed=60, inputs=[0, 1, 0, 1], holders={0, 1}, windows=[], lies=None)
@example(
    seed=23,
    inputs=[1, 0, 0, 1],
    holders={2, 3},
    windows=[
        DelayWindow(4, 14, 18, pairs={(1, 2)}),
        DelayWindow(19, 0, 6, pairs={(3, 0)}),
        DelayWindow(19, 18, 29, pairs={(1, 0)}),
    ],
    lies=None,
)
# An equivocating party 3 splits phase 2's quorums: an honest party sees
# AUX {v, ⊥} while another sees {v} or {⊥}.  Taking the coin on {v, ⊥}
# (the first) or deciding v on it (the second) splits the decision.
@example(
    seed=87,
    inputs=[1, 0, 1, 1],
    holders={1},
    windows=[],
    lies=(0, frozenset({2}), 1, frozenset({0})),
)
@example(
    seed=95,
    inputs=[1, 0, 1, 1],
    holders={1, 2, 3},
    windows=[],
    lies=(0, frozenset({0, 1}), BOT, frozenset({1, 2})),
)
def test_agreement_validity_and_termination_whatever_the_coin(
    seed, inputs, holders, windows, lies
):
    sim = _run(
        4,
        inputs,
        seed=seed,
        holders=holders,
        behaviors=None if lies is None else {3: _Equivocate(*lies)},
        chaos=ChaosSpec(delays=windows),
        max_steps=MAX_STEPS,
        to_quiescence=False,
    )
    outputs = _outputs(sim)
    assert sorted(outputs) == sorted(sim.honest)
    assert len(set(outputs.values())) == 1
    honest_inputs = {inputs[i] for i in sim.honest}
    if len(honest_inputs) == 1:
        assert set(outputs.values()) == honest_inputs


def test_late_input_via_provide_input():
    """The ACS lattice provides inputs late; ABA must cope."""
    setup = TrustedSetup.generate(4, seed=4)
    directory = setup.directory

    import random

    rng = random.Random(5)
    contributions = [
        tvrf.DKGSh(directory, setup.secret(i), rng) for i in range(3)
    ]
    transcript = tvrf.DKGAggregate(directory, contributions)

    from repro.net.protocol import Protocol

    class LateInput(Protocol):
        def on_start(self):
            coin = CoinHelper(
                directory,
                setup.secret(self.me),
                context="late",
                transcript=transcript,
            )
            self.aba = BinaryAgreement(coin=coin)
            self.spawn("aba", self.aba)
            # Provide input only after a round of gossip.
            from tests.net.helpers import Ping

            self.multicast(Ping(0))
            self.seen = set()

        def on_message(self, sender, payload):
            self.seen.add(sender)
            if len(self.seen) >= 3:
                self.aba.provide_input(1)

        def on_sub_output(self, name, value):
            self.output(value)

    sim = run_protocol(4, lambda party: LateInput(), seed=4, setup=setup)
    outputs = _outputs(sim)
    assert len(outputs) == 4
    assert set(outputs.values()) == {1}
