"""A silent party runs no protocol stack.

A :class:`SilentBehavior` party never sends, so honest parties see it only
through its silence: the transport builds it halted, and it holds no
session.  What is addressed to it is still scheduled, judged and counted.
The reference here is ``_Mute``, a behaviour that keeps the honest stack
and throws every send away: a run with it must be indistinguishable, to
every honest party and to the metrics, from a run with silent parties.
"""

import asyncio

import pytest

from repro.core.adkg import ADKG
from repro.crypto import threshold_vrf as tvrf
from repro.crypto.keys import TrustedSetup
from repro.net.adversary import Behavior, RandomLagScheduler, SilentBehavior
from repro.net.delays import HeavyTailDelay
from repro.net.transport import make_run_transport, make_transport

N, SILENT = 7, (5, 6)
CHAOS = "drop:0.05;dup:0.02;reorder:0.05"


class _Mute(Behavior):
    """Runs the honest stack and drops everything it sends."""

    def transform_outgoing(self, envelope, rng):
        return []


def _hostile_run(seed, behavior):
    setup = TrustedSetup.generate(N, seed=seed)
    sim = make_run_transport(
        "sim",
        setup,
        seed=seed,
        behaviors={i: behavior() for i in SILENT},
        delay_model=HeavyTailDelay(1.0, 1.0),
        scheduler=RandomLagScheduler(factor=20, rate=0.3),
        chaos=CHAOS,
    )
    seen = []
    sim.add_delivery_observer(seen.append)
    results = sim.run_sync(lambda party: ADKG())
    metrics = sim.metrics
    observed = {
        "results": results,
        "words": metrics.words_total,
        "messages": metrics.messages_total,
        "messages_by_type": dict(metrics.messages_by_type),
        "rounds": sim.round_measure(),
        "chaos": metrics.counters("chaos"),
        "envelopes": [
            (e.sender, e.recipient, e.session, e.path, e.depth, e.payload)
            for e in seen
        ],
    }
    return sim, observed


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_silent_party_is_a_mute_one_to_everyone_else(seed):
    silent, silent_seen = _hostile_run(seed, SilentBehavior)
    mute, mute_seen = _hostile_run(seed, _Mute)
    assert silent_seen == mute_seen
    assert len(silent_seen["results"]) == N - len(SILENT)
    assert silent_seen["chaos"]
    for index in SILENT:
        assert len(mute.parties[index].sessions) == 1
        assert silent.parties[index].halted
        assert len(silent.parties[index].sessions) == 0


def _agreed(setup, results):
    transcripts = list(results.values())
    return (
        len(transcripts) == setup.directory.n - 1
        and all(t == transcripts[0] for t in transcripts)
        and tvrf.DKGVerify(setup.directory, transcripts[0])
    )


@pytest.mark.parametrize("kind", ["tcp"])
def test_a_silent_party_holds_no_session_on_a_realtime_runtime(kind):
    setup = TrustedSetup.generate(4, seed=1)
    runtime = make_transport(kind, setup, behaviors={3: SilentBehavior()}, seed=1)
    results = asyncio.run(runtime.run_root(lambda party: ADKG(), timeout=60))
    assert _agreed(setup, results)
    assert runtime.parties[3].halted
    assert len(runtime.parties[3].sessions) == 0


def _advance(sim, deliveries):
    target = sim.metrics.deliveries + deliveries
    sim.run(stop=lambda sim: sim.metrics.deliveries >= target)


def test_a_reattached_silent_party_stays_halted():
    """Its :meth:`build_party` replacement is built halted, twice over."""
    setup = TrustedSetup.generate(4, seed=2)
    sim = make_run_transport("sim", setup, behaviors={3: SilentBehavior()}, seed=2)
    sim.start(lambda party: ADKG())
    for _ in range(2):
        _advance(sim, 20)
        sim.detach_party(3)
        _advance(sim, 20)
        assert sim._detached[3]
        sim.reattach_party(3, sim.build_party(3))
        assert sim.parties[3].halted
        assert len(sim.parties[3].sessions) == 0
    results = sim.block_on(sim.wait_session(0))
    assert _agreed(setup, results)
    assert sim.parties[3].halted
    assert len(sim.parties[3].sessions) == 0
