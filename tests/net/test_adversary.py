"""Byzantine behaviours and adversarial schedulers (unit level)."""

import dataclasses
import random

import pytest

from repro import run_adkg
from repro.analysis.experiments import _lag_links, withholding_outcome
from repro.core.adkg import ADKG
from repro.core.proposal_election import PEEvalShare
from repro.crypto.keys import TrustedSetup

from repro.net.adversary import (
    Behavior,
    CrashBehavior,
    DropBehavior,
    EquivocateBehavior,
    FirstRankWithholder,
    MutateBehavior,
    RandomLagScheduler,
    Scheduler,
    SilentBehavior,
)
from repro.net.chaos import HOLD, ChaosPlane, ChaosSpec, DelayWindow, LinkFault
from repro.net.delays import ExponentialDelay, FixedDelay, HeavyTailDelay, UniformDelay
from repro.net.envelope import Envelope
from repro.net.protocol import Protocol
from repro.net.transport import make_transport

from tests.net.helpers import Ping

RNG = random.Random(0)


def _env(sender=0, recipient=1, counter=0):
    return Envelope(path=(), sender=sender, recipient=recipient, payload=Ping(counter), depth=1)


def test_default_behavior_is_honest():
    behavior = Behavior()
    env = _env()
    assert behavior.transform_outgoing(env, RNG) == [env]
    assert behavior.allow_delivery(env, RNG)


def test_silent_behavior():
    assert SilentBehavior().transform_outgoing(_env(), RNG) == []


def test_crash_behavior_counts_sends():
    behavior = CrashBehavior(after_sends=2)
    assert behavior.transform_outgoing(_env(), RNG)
    assert behavior.transform_outgoing(_env(), RNG)
    assert not behavior.crashed
    assert behavior.transform_outgoing(_env(), RNG) == []
    # A terminal crash: down from the crashing send on, never back.
    assert behavior.crashed and behavior.down and not behavior.recovered
    assert not behavior.allow_delivery(_env(recipient=0), RNG)
    assert behavior.down
    with pytest.raises(ValueError):
        CrashBehavior(after_sends=-1)


def test_fault_schedule_phases():
    behavior = CrashBehavior(after_sends=2, recover_after_drops=3)
    assert behavior.transform_outgoing(_env(), RNG)
    assert behavior.transform_outgoing(_env(), RNG)
    assert behavior.transform_outgoing(_env(), RNG) == []  # the crashing send is lost
    assert behavior.down
    # Exactly three deliveries are lost to the outage window...
    assert not behavior.allow_delivery(_env(recipient=0), RNG)
    assert not behavior.allow_delivery(_env(recipient=0), RNG)
    assert not behavior.allow_delivery(_env(recipient=0), RNG)
    # ...and the fourth finds the process back up and goes through.
    assert behavior.allow_delivery(_env(recipient=0), RNG)
    assert behavior.recovered and not behavior.down
    assert behavior.transform_outgoing(_env(), RNG)  # sends flow again after recovery
    assert behavior.dropped == 3  # only genuinely lost deliveries count
    with pytest.raises(ValueError):
        CrashBehavior(after_sends=1, recover_after_drops=-1)


def test_fault_schedule_zero_drop_window():
    """recover_after_drops=0: recovery lands on the crash step itself.

    Regression — the schedule used to reject 0, forcing every crash
    window to swallow at least one delivery; a zero-width outage must
    instead let the first delivery attempted while "down" pass straight
    through, uncounted.
    """
    behavior = CrashBehavior(after_sends=1, recover_after_drops=0)
    assert behavior.transform_outgoing(_env(), RNG)
    assert behavior.transform_outgoing(_env(), RNG) == []  # the crashing send is lost
    assert behavior.down
    # The very first delivery finds the process already back up.
    assert behavior.allow_delivery(_env(recipient=0), RNG)
    assert behavior.recovered
    assert behavior.dropped == 0  # the window swallowed nothing


def test_crash_recover_behavior_window():
    behavior = CrashBehavior(after_sends=1, recover_after_drops=2)
    assert behavior.transform_outgoing(_env(), RNG)
    assert behavior.transform_outgoing(_env(), RNG) == []
    assert behavior.down and not behavior.recovered
    assert not behavior.allow_delivery(_env(recipient=0), RNG)
    assert not behavior.allow_delivery(_env(recipient=0), RNG)
    assert behavior.allow_delivery(_env(recipient=0), RNG)
    assert behavior.recovered and not behavior.down
    assert behavior.transform_outgoing(_env(), RNG)


def test_drop_behavior_rate_extremes():
    keep_all = DropBehavior(rate=0.0)
    drop_all = DropBehavior(rate=1.0)
    assert keep_all.transform_outgoing(_env(), RNG)
    assert drop_all.transform_outgoing(_env(), RNG) == []
    with pytest.raises(ValueError):
        DropBehavior(rate=1.5)


def _share(sender, recipient, k, value):
    return Envelope(("pe",), sender, recipient, PEEvalShare(k=k, share=value), 5)


def test_first_rank_withholder_acts_only_on_what_f_plus_one_shares_reveal():
    """n = 4, f = 1, party 3 corrupted: an index is ranked once 2 shares
    are in hand (here a share is its VRF output, combined by ``max``).
    While an honest index ranks first, party 3 withholds its share for it
    and every broadcast message; a corrupted index first stops that."""
    adversary = FirstRankWithholder({3}, threshold=2, reveal=max)
    outgoing = adversary.transform_outgoing
    assert adversary.allow_delivery(_share(0, 3, k=1, value=50), RNG)
    assert outgoing(_env(sender=3, recipient=0), RNG)  # nothing ranked yet
    assert not adversary.revealed
    # Its own share of index 1 is the second: 1 ranks first, and is honest.
    assert outgoing(_share(3, 0, k=1, value=40), RNG) == []
    assert adversary.revealed == {1: 50}
    assert outgoing(_share(3, 1, k=1, value=40), RNG) == []
    assert outgoing(_env(sender=3, recipient=0), RNG) == []
    assert outgoing(_share(3, 0, k=2, value=10), RNG)  # another index passes
    # Index 3 (corrupted) is revealed above index 1: nothing is withheld.
    assert adversary.allow_delivery(_share(1, 3, k=3, value=90), RNG)
    assert outgoing(_share(3, 0, k=3, value=80), RNG)
    assert adversary.revealed == {1: 50, 3: 90}  # index 2 has one share
    assert outgoing(_share(3, 2, k=1, value=40), RNG)
    assert outgoing(_env(sender=3, recipient=0), RNG)
    assert adversary.withheld == 3


@pytest.mark.parametrize("n", (4, 7))
def test_the_withholding_rung_terminates_and_fires_under_the_searched_lag(n):
    """E4's corrupted rung runs PE to completion on both committee sizes;
    at n = 7 its parties do withhold (seed 1000: the first E4 replays)."""
    ended, _binds, withheld = withholding_outcome(n, 1000, withhold=True)
    assert ended
    control = withholding_outcome(n, 1000, withhold=False)
    assert control[2] == 0 and control[0]
    if n == 7:
        assert withheld > 0


def test_mutate_behavior_replace_drop_pass():
    def mutator(payload, recipient, rng):
        if payload.counter == 0:
            return Ping(99)
        if payload.counter == 1:
            return None
        return payload

    behavior = MutateBehavior(mutator)
    replaced = behavior.transform_outgoing(_env(counter=0), RNG)
    assert replaced[0].payload == Ping(99)
    assert behavior.transform_outgoing(_env(counter=1), RNG) == []
    passthrough = _env(counter=2)
    assert behavior.transform_outgoing(passthrough, RNG) == [passthrough]


def test_mutate_selector_limits_attack():
    behavior = MutateBehavior(
        lambda payload, recipient, rng: Ping(99),
        selector=lambda env: env.recipient == 2,
    )
    untouched = _env(recipient=1)
    assert behavior.transform_outgoing(untouched, RNG) == [untouched]
    hit = behavior.transform_outgoing(_env(recipient=2), RNG)
    assert hit[0].payload == Ping(99)


def test_equivocate_behavior_targets_only():
    behavior = EquivocateBehavior(
        forger=lambda payload, rng: Ping(payload.counter + 100),
        targets={2, 3},
    )
    honest = behavior.transform_outgoing(_env(recipient=1, counter=5), RNG)
    assert honest[0].payload == Ping(5)
    forged = behavior.transform_outgoing(_env(recipient=2, counter=5), RNG)
    assert forged[0].payload == Ping(105)
    dropped = EquivocateBehavior(
        forger=lambda payload, rng: None, targets={2}
    ).transform_outgoing(_env(recipient=2), RNG)
    assert dropped == []


class _Multiply(Scheduler):
    """Multiplies the delay of links touching ``targets`` sent before
    ``horizon``: the lag a delay window expresses on both transports."""

    def __init__(self, targets, factor, horizon):
        self.targets, self.factor, self.horizon = targets, factor, horizon

    def schedule(self, rng, envelope, base_delay, time):
        touched = envelope.sender in self.targets or envelope.recipient in self.targets
        return base_delay * self.factor if touched and time < self.horizon else base_delay


@pytest.mark.parametrize(
    "targets, factor, horizon, seed",
    [({0}, 12.0, 50.0, 1), ({3}, 15.0, 60.0, 3)],
    ids=["e8-lag-target", "e4-lag-target"],
)
def test_a_lag_of_k_is_a_hold_of_k_minus_one_under_unit_delays(targets, factor, horizon, seed):
    """Under ``FixedDelay(1)`` a message sent at ``t`` arrives at ``t + 1``,
    so a ×k lag until a send horizon ``h`` is a hold of ``k - 1`` on
    arrival until ``h + 1``: the two runs are the same run.  E4's and E8's
    lag rows are these windows."""
    multiplied, held = (
        run_adkg(n=4, seed=seed, delay_model=FixedDelay(1.0), **adversary)
        for adversary in (
            {"scheduler": _Multiply(targets, factor, horizon)},
            {"chaos": _lag_links(4, targets, factor, horizon)},
        )
    )
    assert held.agreed and held.transcript == multiplied.transcript
    assert (held.words_total, held.messages_total, held.rounds) == (
        multiplied.words_total,
        multiplied.messages_total,
        multiplied.rounds,
    )
    assert held.rounds > run_adkg(n=4, seed=seed).rounds


def test_delay_window_filters_on_path_session_and_link():
    window = DelayWindow(extra=3.0, path=("nwh", ("pe", 1)), session=2, pairs={(0, 1)})
    env = Envelope(
        path=("nwh", ("pe", 1), "gather"), sender=0, recipient=1,
        payload=Ping(0), depth=1, session=2,
    )  # fmt: skip
    assert window.applies(env, 0.0)
    assert not window.applies(dataclasses.replace(env, path=("nwh", ("pe", 2))), 0.0)
    assert not window.applies(dataclasses.replace(env, path=("nwh",)), 0.0)
    assert not window.applies(dataclasses.replace(env, session=0), 0.0)
    assert not window.applies(dataclasses.replace(env, recipient=2), 0.0)
    assert DelayWindow(extra=1.0).applies(env, 0.0)


def test_random_lag_scheduler_bounds():
    scheduler = RandomLagScheduler(factor=5.0, rate=1.0)
    rng = random.Random(1)
    for _ in range(100):
        delay = scheduler.schedule(rng, _env(), 1.0, 0.0)
        assert 1.0 <= delay <= 5.0
    never = RandomLagScheduler(factor=5.0, rate=0.0)
    assert never.schedule(rng, _env(), 1.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        RandomLagScheduler(factor=0.9)


def test_base_scheduler_is_identity():
    assert Scheduler().schedule(RNG, _env(), 2.5, 0.0) == 2.5


# -- every delay is finite -------------------------------------------------------------

INF, NAN = float("inf"), float("nan")


class _Constant(Scheduler):
    """Replaces every delay with ``value``: a draw no constructor vetted."""

    def __init__(self, value):
        self.value = value

    def schedule(self, rng, envelope, base_delay, time):
        return self.value


_SETUP = TrustedSetup.generate(4, seed=1)


def _sim_draw(value):
    run_adkg(n=4, seed=1, setup=_SETUP, scheduler=_Constant(value))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: DelayWindow(extra=INF, pairs={(0, 1)}), ValueError),
        (lambda: DelayWindow(extra=1.0, end=NAN), ValueError),
        (lambda: DelayWindow(extra=INF, session=0), ValueError),
        (lambda: LinkFault(kind="reorder", rate=1.0, jitter=INF), ValueError),
        (lambda: LinkFault(kind="reorder", rate=1.0, jitter=NAN), ValueError),
        (lambda: RandomLagScheduler(factor=NAN), ValueError),
        (lambda: FixedDelay(INF), ValueError),
        (lambda: FixedDelay(NAN), ValueError),
        (lambda: UniformDelay(high=INF), ValueError),
        (lambda: ExponentialDelay(mean=INF), ValueError),
        (lambda: HeavyTailDelay(median=INF), ValueError),
        (lambda: _sim_draw(INF), RuntimeError),
        (lambda: _sim_draw(NAN), RuntimeError),
    ],
    ids=[
        "window-extra-inf",
        "window-end-nan",
        "window-session-extra-inf",
        "chaos-jitter-inf",
        "chaos-jitter-nan",
        "random-factor-nan",
        "fixed-inf",
        "fixed-nan",
        "uniform-high-inf",
        "exponential-mean-inf",
        "heavytail-median-inf",
        "sim-draw-inf",
        "sim-draw-nan",
    ],
)
def test_an_asynchronous_delay_is_finite(build, error):
    with pytest.raises(error):
        build()


def test_a_lag_horizon_may_be_infinite():
    plane = ChaosPlane(ChaosSpec(delays=(DelayWindow(extra=2.0, end=INF, pairs={(1, 2)}),)))
    assert plane.decide(_env(sender=1, recipient=2), 1e9) == (HOLD, 2.0)


# -- a corrupted party speaks only as itself ------------------------------------------


class _Impersonator(Behavior):
    """Emits each envelope and a copy relabelled as another party's."""

    def __init__(self, victim):
        self.victim = victim

    def transform_outgoing(self, envelope, rng):
        return [envelope, dataclasses.replace(envelope, sender=self.victim)]


class _Listener(Protocol):
    """Multicasts ``Ping(me)``; outputs once every party's ping arrived."""

    def __init__(self):
        super().__init__()
        self.heard = []

    def on_start(self):
        self.multicast(Ping(self.me))

    def on_message(self, sender, payload):
        self.heard.append((sender, payload))
        if {(s, Ping(s)) for s in range(self.n)} <= set(self.heard):
            self.output(True)


@pytest.mark.parametrize("kind", ("sim", "tcp"))
def test_a_behaviour_cannot_send_as_another_party(kind):
    setup = TrustedSetup.generate(4, seed=1)
    runtime = make_transport(kind, setup, behaviors={3: _Impersonator(victim=2)}, seed=1)

    async def scenario():
        await runtime.open()
        try:
            runtime.start(lambda party: _Listener())
            await runtime.wait_session(0, timeout=10.0)
            await runtime.sleep(0.05)  # let any straggler arrive
            await runtime.drain()
        finally:
            await runtime.close()

    runtime.block_on(scenario())
    for index in runtime.honest:
        assert (2, Ping(3)) not in runtime.parties[index].instance(()).heard
    # Party 3's one multicast left as three network envelopes, each copied.
    assert runtime.metrics.counters("adversary") == {"forged_sender": 3}
    assert runtime.metrics.messages_by_type["Ping"] == 3 * 3 + 3


class _Readdresser(Behavior):
    """Sends each envelope to ``target`` instead (``"self"``: its sender)."""

    def __init__(self, target):
        self.target = target
        self.readdressed = 0

    def transform_outgoing(self, envelope, rng):
        self.readdressed += 1
        recipient = envelope.sender if self.target == "self" else self.target
        return [dataclasses.replace(envelope, recipient=recipient)]


@pytest.mark.parametrize("target", (99, -1, "self"))
@pytest.mark.parametrize("kind", ("sim", "tcp"))
def test_a_behaviour_speaks_only_to_its_peers(kind, target):
    """An envelope a behaviour addresses outside its peers is dropped
    unmetered and counted, on both runtimes alike; the honest parties
    agree without the corrupted one."""
    behavior = _Readdresser(target)
    runtime = make_transport(
        kind, TrustedSetup.generate(4, seed=3), behaviors={3: behavior}, seed=3
    )
    results = runtime.run_sync(lambda party: ADKG(), timeout=30.0)
    assert sorted(results) == [0, 1, 2]
    assert len(set(results.values())) == 1
    assert behavior.readdressed > 0
    assert runtime.metrics.counters("adversary") == {
        "readdressed": behavior.readdressed
    }


class _Forger(Behavior):
    """Readdresses one send in three and signs the next as party 0."""

    def __init__(self):
        self.tally = {"readdressed": 0, "forged_sender": 0}
        self._sends = 0

    def transform_outgoing(self, envelope, rng):
        self._sends += 1
        if self._sends % 3 == 1:
            self.tally["readdressed"] += 1
            return [dataclasses.replace(envelope, recipient=99)]
        if self._sends % 3 == 2:
            self.tally["forged_sender"] += 1
            return [dataclasses.replace(envelope, sender=0)]
        return [envelope]


@pytest.mark.parametrize("kind", ("sim", "tcp"))
def test_every_drop_and_link_event_is_in_the_run_summary(kind):
    """The run's one counter table holds what its forger lost and, on TCP,
    what a killed connection cost: ``summary()["counters"]`` shows each."""
    forger = _Forger()
    runtime = make_transport(
        kind, TrustedSetup.generate(4, seed=3), behaviors={3: forger}, seed=3
    )
    if kind == "tcp":
        runtime.reconnect_base, runtime.reconnect_cap = 0.02, 0.2
        deliveries = 0

        def killer(envelope):
            nonlocal deliveries
            deliveries += 1
            if deliveries == 40:
                runtime.kill_connection(0, 1)

        runtime.add_delivery_observer(killer)
    results = runtime.run_sync(lambda party: ADKG(), timeout=30.0)
    assert sorted(results) == [0, 1, 2] and len(set(results.values())) == 1
    counters = runtime.metrics.summary()["counters"]
    assert set(counters) == {"adversary", "chaos", "pending", "tcp", "verify"}
    assert counters["adversary"] == forger.tally
    assert min(forger.tally.values()) > 0
    if kind == "tcp":
        assert counters["tcp"]["conn_lost"] >= 1
        assert counters["tcp"]["reconnects"] >= 1
