"""Byzantine behaviours and adversarial schedulers (unit level)."""

import dataclasses
import random

import pytest

from repro import run_adkg
from repro.crypto.keys import TrustedSetup

from repro.net.adversary import (
    Behavior,
    CrashBehavior,
    DropBehavior,
    EquivocateBehavior,
    MutateBehavior,
    RandomLagScheduler,
    Scheduler,
    SessionLagScheduler,
    SilentBehavior,
    TargetedLagScheduler,
)
from repro.net.asyncio_runtime import AsyncioRuntime
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
    assert behavior.transform_outgoing(_env(), RNG) == []
    assert behavior.crashed
    assert not behavior.allow_delivery(_env(recipient=0), RNG)
    with pytest.raises(ValueError):
        CrashBehavior(after_sends=-1)


def test_crash_behavior_accepts_shared_schedule():
    from repro.net.adversary import FaultSchedule

    schedule = FaultSchedule(crash_after_sends=1)
    behavior = CrashBehavior(schedule=schedule)
    assert behavior.transform_outgoing(_env(), RNG)
    assert behavior.transform_outgoing(_env(), RNG) == []
    # One bookkeeping object: the driver reads the same state.
    assert schedule.crashed and behavior.crashed
    with pytest.raises(ValueError):
        CrashBehavior(after_sends=1, schedule=schedule)
    with pytest.raises(ValueError):
        CrashBehavior()


def test_fault_schedule_phases():
    from repro.net.adversary import FaultSchedule

    schedule = FaultSchedule(crash_after_sends=2, recover_after_drops=3)
    assert schedule.note_send() and schedule.note_send()
    assert not schedule.note_send()  # the crashing send is lost
    assert schedule.down
    # Exactly three deliveries are lost to the outage window...
    assert not schedule.note_delivery()
    assert not schedule.note_delivery()
    assert not schedule.note_delivery()
    # ...and the fourth finds the process back up and goes through.
    assert schedule.note_delivery()
    assert schedule.recovered and not schedule.down
    assert schedule.note_send()  # sends flow again after recovery
    assert schedule.dropped == 3  # only genuinely lost deliveries count
    with pytest.raises(ValueError):
        FaultSchedule(crash_after_sends=1, recover_after_drops=-1)


def test_fault_schedule_zero_drop_window():
    """recover_after_drops=0: recovery lands on the crash step itself.

    Regression — the schedule used to reject 0, forcing every crash
    window to swallow at least one delivery; a zero-width outage must
    instead let the first delivery attempted while "down" pass straight
    through, uncounted.
    """
    from repro.net.adversary import CrashRecoverBehavior, FaultSchedule

    schedule = FaultSchedule(crash_after_sends=1, recover_after_drops=0)
    assert schedule.note_send()
    assert not schedule.note_send()  # the crashing send is lost
    assert schedule.down
    # The very first delivery finds the process already back up.
    assert schedule.note_delivery()
    assert schedule.recovered
    assert schedule.dropped == 0  # the window swallowed nothing

    behavior = CrashRecoverBehavior(after_sends=1, recover_after_drops=0)
    assert behavior.transform_outgoing(_env(), RNG)
    assert behavior.transform_outgoing(_env(), RNG) == []
    assert behavior.allow_delivery(_env(recipient=0), RNG)
    assert behavior.recovered


def test_crash_recover_behavior_window():
    from repro.net.adversary import CrashRecoverBehavior

    behavior = CrashRecoverBehavior(after_sends=1, recover_after_drops=2)
    assert behavior.transform_outgoing(_env(), RNG)
    assert behavior.transform_outgoing(_env(), RNG) == []
    assert behavior.crashed and not behavior.recovered
    assert not behavior.allow_delivery(_env(recipient=0), RNG)
    assert not behavior.allow_delivery(_env(recipient=0), RNG)
    assert behavior.allow_delivery(_env(recipient=0), RNG)
    assert behavior.recovered and not behavior.crashed
    assert behavior.transform_outgoing(_env(), RNG)


def test_drop_behavior_rate_extremes():
    keep_all = DropBehavior(rate=0.0)
    drop_all = DropBehavior(rate=1.0)
    assert keep_all.transform_outgoing(_env(), RNG)
    assert drop_all.transform_outgoing(_env(), RNG) == []
    with pytest.raises(ValueError):
        DropBehavior(rate=1.5)


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


def test_targeted_lag_scheduler():
    scheduler = TargetedLagScheduler(targets={1}, factor=10.0, horizon=50.0)
    touched = scheduler.schedule(RNG, _env(sender=1, recipient=2), 1.0, 0.0)
    untouched = scheduler.schedule(RNG, _env(sender=2, recipient=3), 1.0, 0.0)
    after_horizon = scheduler.schedule(RNG, _env(sender=1, recipient=2), 1.0, 60.0)
    assert touched == 10.0
    assert untouched == 1.0
    assert after_horizon == 1.0
    with pytest.raises(ValueError):
        TargetedLagScheduler(targets={1}, factor=0.5)


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
        (lambda: TargetedLagScheduler({0}, factor=INF), ValueError),
        (lambda: TargetedLagScheduler({0}, horizon=NAN), ValueError),
        (lambda: SessionLagScheduler(0, factor=INF), ValueError),
        (lambda: RandomLagScheduler(factor=NAN), ValueError),
        (lambda: FixedDelay(INF), ValueError),
        (lambda: FixedDelay(NAN), ValueError),
        (lambda: UniformDelay(high=INF), ValueError),
        (lambda: ExponentialDelay(mean=INF), ValueError),
        (lambda: HeavyTailDelay(median=INF), ValueError),
        (lambda: AsyncioRuntime(_SETUP, max_delay=INF), ValueError),
        (lambda: AsyncioRuntime(_SETUP, max_delay=-1.0), ValueError),
        (lambda: _sim_draw(INF), RuntimeError),
        (lambda: _sim_draw(NAN), RuntimeError),
    ],
    ids=[
        "targeted-factor-inf",
        "targeted-horizon-nan",
        "session-factor-inf",
        "random-factor-nan",
        "fixed-inf",
        "fixed-nan",
        "uniform-high-inf",
        "exponential-mean-inf",
        "heavytail-median-inf",
        "asyncio-max-delay-inf",
        "asyncio-max-delay-negative",
        "sim-draw-inf",
        "sim-draw-nan",
    ],
)
def test_an_asynchronous_delay_is_finite(build, error):
    with pytest.raises(error):
        build()


def test_a_lag_horizon_may_be_infinite():
    scheduler = TargetedLagScheduler({1}, factor=3.0, horizon=INF)
    assert scheduler.schedule(RNG, _env(sender=1), 1.0, 1e9) == 3.0


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


@pytest.mark.parametrize("kind", ("sim", "asyncio"))
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
