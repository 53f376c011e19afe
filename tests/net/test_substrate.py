"""Simulator, party routing, conditions, metrics."""

import pytest

from repro.crypto.keys import TrustedSetup
from repro.net.adversary import CrashBehavior, SilentBehavior
from repro.net.delays import ExponentialDelay, FixedDelay, HeavyTailDelay, UniformDelay
from repro.net.envelope import Envelope
from repro.net.payload import words_of
from repro.net.runtime import Simulation

from tests.net.helpers import Blob, EchoAll, ParentChild, Ping, PingPong


def _sim(n=4, seed=1, **kwargs):
    setup = TrustedSetup.generate(n, seed=seed)
    return Simulation(setup, seed=seed, **kwargs)


def test_ping_pong_outputs():
    sim = _sim()
    sim.start(lambda party: PingPong(rounds=4))
    sim.run()
    assert sim.parties[0].result == 4
    assert sim.parties[1].result == 4


def test_echo_all_collects_everyone():
    sim = _sim(n=5)
    sim.start(lambda party: EchoAll())
    sim.run()
    for party in sim.parties:
        assert party.result == frozenset(range(5))


def test_sub_protocol_output_propagates():
    sim = _sim()
    sim.start(lambda party: ParentChild())
    sim.run()
    for party in sim.parties:
        assert party.result == ("from", "child", frozenset(range(4)))


def test_early_messages_are_buffered():
    """A message for a not-yet-spawned instance must wait, not crash."""
    from repro.net.party import Party
    import random

    party = Party(0, n=2, f=0)
    env = Envelope(path=("later",), sender=1, recipient=0, payload=Ping(7), depth=1)
    party.deliver(env)  # no instance at ("later",) yet

    class Recorder(EchoAll):
        pass

    from repro.net.protocol import Protocol

    class Root(Protocol):
        def on_start(self):
            self.spawn("later", Recorder())

    party.run_root(Root())
    child = party.instance(("later",))
    assert 1 in child.seen


def test_metrics_word_accounting():
    sim = _sim(n=4)
    sim.start(lambda party: EchoAll())
    sim.run()
    # Each party multicasts one 1-word Ping to 3 remote peers (+1 routing word).
    assert sim.metrics.messages_total == 4 * 3
    assert sim.metrics.words_total == 4 * 3 * 2
    assert sim.metrics.deliveries >= sim.metrics.messages_total


def test_round_depth_tracks_causal_chains():
    sim = _sim()
    sim.start(lambda party: PingPong(rounds=5))
    sim.run()
    # Ping(0..5) travel at depths 1..6: the last ack is the 6th hop.
    assert sim.metrics.max_depth == 6


def test_runs_are_deterministic():
    def run_words(seed):
        sim = _sim(n=4, seed=seed)
        sim.start(lambda party: EchoAll())
        sim.run()
        return sim.metrics.words_total, sim.time, sim.steps

    assert run_words(3) == run_words(3)


def test_silent_behavior_sends_nothing():
    sim = _sim(n=4, behaviors={3: SilentBehavior()})
    sim.start(lambda party: EchoAll())
    sim.run()
    # Honest parties never see party 3 (except 3 seeing itself locally).
    for i in range(3):
        assert not sim.parties[i].has_result  # waits for n == 4 messages forever
        assert sim.parties[i].instance(()).seen == {0, 1, 2}


def test_crash_behavior_stops_after_quota():
    sim = _sim(n=4, behaviors={0: CrashBehavior(after_sends=1)})
    sim.start(lambda party: EchoAll())
    sim.run()
    received_from_0 = [i for i in range(1, 4) if 0 in sim.parties[i].instance(()).seen]
    assert len(received_from_0) == 1


def test_too_many_corruptions_rejected():
    setup = TrustedSetup.generate(4, seed=1)
    with pytest.raises(ValueError):
        Simulation(setup, behaviors={1: SilentBehavior(), 2: SilentBehavior()})


def test_run_step_limit():
    sim = _sim()

    class Chatterbox(PingPong):
        def on_message(self, sender, payload):
            self.send(sender, Ping(payload.counter + 1))  # never stops

    sim.start(lambda party: Chatterbox())
    with pytest.raises(RuntimeError):
        sim.run(max_steps=50)


def test_default_step_budget_scales_with_n():
    """A benign ADKG makes about 10 n³ deliveries; the default budget is
    50 n³ with a 5 M floor, and running out says how to raise it."""
    assert _sim().max_steps == 5_000_000
    assert _sim(n=100).max_steps == 50_000_000
    sim = _sim()
    sim.start(lambda party: EchoAll())
    with pytest.raises(
        RuntimeError, match=r"exceeded its budget of 3 deliveries; pass a larger max_steps="
    ):
        sim.run(max_steps=3)


def test_step_limit_admits_a_run_that_finishes_on_its_last_delivery():
    """``max_steps`` bounds deliveries; spending the budget exactly is not
    exceeding it — with and without a stop predicate."""

    def fresh():
        sim = _sim()
        sim.start(lambda party: EchoAll())
        return sim

    def first_output(sim):
        return sim.parties[0].has_result

    for stop in (None, first_output):
        reference = fresh()
        reference.run(stop=stop)
        deliveries = reference.steps
        assert deliveries > 1
        exact = fresh()
        exact.run(max_steps=deliveries, stop=stop)
        assert exact.steps == deliveries
        with pytest.raises(RuntimeError, match="exceeded"):
            fresh().run(max_steps=deliveries - 1, stop=stop)
    # The predicate case stopped early: traffic was still in flight.
    assert exact._queue or exact._ready


def test_words_of_accounting_rules():
    assert words_of(5) == 1
    assert words_of("tag") == 1
    assert words_of(None) == 0
    assert words_of(True) == 0
    assert words_of(b"\x00" * 32) == 1
    assert words_of(b"\x00" * 33) == 2
    assert words_of((1, 2, 3)) == 3
    assert words_of({1: 2}) == 2
    assert Blob(data=(1,) * 7).word_size() == 7
    with pytest.raises(TypeError):
        words_of(object())


def test_delay_models_produce_positive_delays():
    import random

    rng = random.Random(0)
    for model in (
        FixedDelay(1.0),
        UniformDelay(0.1, 2.0),
        ExponentialDelay(1.0),
        HeavyTailDelay(1.0, 1.0),
    ):
        for _ in range(50):
            assert model.delay(rng, 0, 1, 0.0) > 0


def test_delay_model_validation():
    with pytest.raises(ValueError):
        FixedDelay(0)
    with pytest.raises(ValueError):
        UniformDelay(2.0, 1.0)
    with pytest.raises(ValueError):
        ExponentialDelay(-1)
    with pytest.raises(ValueError):
        HeavyTailDelay(0, 1)


def test_stop_predicate():
    sim = _sim(n=4)
    sim.start(lambda party: EchoAll())
    sim.run(stop=lambda s: s.parties[0].has_result)
    assert sim.parties[0].has_result
