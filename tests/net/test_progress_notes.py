"""Done-detection notes results when a root result appears, not per delivery.

``Transport._note_results`` is the one done-detection step.  It runs when
``Party.result_unnoted`` says the party produced (or was thawed with) a
root result, plus the explicit notes of ``start()`` and
``reattach_party()``, and returns the sessions it completed.  What it
concludes — completion and its time, the results of a session started on a
live network, a thawed party's pre-crash results — is checked here.
"""

import math

import pytest

from repro.core.adkg import ADKG
from repro.crypto.keys import TrustedSetup
from repro.net.delays import FixedDelay
from repro.net.runtime import Simulation

from tests.net.helpers import EchoAll

N = 4


def _sim(seed=2):
    """A simulator whose notes are recorded: the party of every note, and
    per session the simulated time of the note that completed it."""
    sim = Simulation(
        TrustedSetup.generate(N, seed=seed), delay_model=FixedDelay(1.0), seed=seed
    )
    noted = []
    completed = {}
    note_results = sim._note_results

    def recording(party):
        noted.append(party.index)
        done = note_results(party)
        for session in done:
            assert session not in completed
            assert sim.completion_time(session) == sim.time
            completed[session] = sim.time
        return done

    sim._note_results = recording
    return sim, noted, completed


def test_notes_are_bounded_by_results_not_deliveries():
    sim, noted, completed = _sim()
    sim.start(lambda party: ADKG())
    assert len(noted) == N  # start() notes every party once
    sim.block_on(sim.wait_session(0))
    assert sim.all_honest_output()
    # One more note per (party, session) result — hundreds of deliveries.
    assert len(noted) == 2 * N
    assert sim.metrics.deliveries > 50 * len(noted)
    # The wait stops at the delivery that completed the session.
    assert completed == {0: sim.time}


def test_session_started_on_a_live_network_is_detected():
    sim, noted, completed = _sim()
    sim.start(lambda party: ADKG(), session=0)
    for _ in range(200):
        sim.step()
    assert not sim.all_honest_output(0)
    sim.start(lambda party: ADKG(), session=1)
    sim.block_on(sim.wait_session(1))
    assert sim.all_honest_output(1)
    sim.block_on(sim.wait_session(0))
    assert sim.all_honest_output(0)
    for session in (0, 1):
        assert len(sim.honest_results(session)) == N
        assert completed[session] == sim.completion_time(session)
    # 2 sessions x (N start notes + N results), whatever the interleaving.
    assert len(noted) == 4 * N


def test_start_refuses_a_session_that_already_ran():
    sim, _noted, _completed = _sim()
    sim.start(lambda party: EchoAll())
    with pytest.raises(RuntimeError, match="session 0 already started"):
        sim.start(lambda party: EchoAll())
    sim.block_on(sim.wait_session(0))
    with pytest.raises(RuntimeError, match="session 0 already started"):
        sim.start(lambda party: EchoAll())
    sim.collect_session(0)
    with pytest.raises(RuntimeError, match="session 0 already started"):
        sim.start(lambda party: EchoAll())
    assert sim.all_honest_output(0)


def test_a_never_started_session_has_no_honest_output():
    sim, _noted, _completed = _sim()
    assert not sim.all_honest_output(5)
    sim.start(lambda party: EchoAll())
    sim.block_on(sim.wait_session(0))
    assert not sim.all_honest_output(5)
    assert math.isnan(sim.completion_time(5))


def test_thawed_party_with_a_pre_crash_result_is_folded_in():
    sim, noted, completed = _sim()
    root_factory = lambda party: ADKG()  # noqa: E731
    sim.start(root_factory)
    first = next(iter(sim.honest))
    sim.run(stop=lambda s: s.parties[first].has_result)
    finisher = next(p for p in sim.parties if p.has_result)
    assert not sim.all_honest_output()
    index = finisher.index
    blob = finisher.freeze()

    sim.detach_party(index)
    replacement = sim.build_party(index)
    assert replacement.result_unnoted  # a pristine party may hold anything
    replacement.result_unnoted = False
    replacement.thaw(blob, root_factory)
    assert replacement.result_unnoted  # ... and thaw restored a result
    before = len(noted)
    sim.reattach_party(index, replacement)
    assert noted[before:] == [index]  # the explicit reattach note
    assert not replacement.result_unnoted

    sim.block_on(sim.wait_session(0))
    assert sim.honest_results()[index] == replacement.result
    # The pre-crash result is the one noted: the party never outputs again.
    assert noted[before:].count(index) == 1
    assert completed == {0: sim.time}
