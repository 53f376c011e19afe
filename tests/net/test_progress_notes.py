"""Done-detection notes progress when a root result appears, not per delivery.

``Transport._note_progress`` used to run after every delivery; it now runs
when ``Party.result_unnoted`` says the party produced (or was thawed with) a
root result, plus the explicit notes of ``start()`` and ``reattach_party()``.
What done-detection concludes — completion, output times, the results of a
session started on a live network, a thawed party's pre-crash results — is
unchanged.
"""

from repro.core.adkg import ADKG
from repro.crypto.keys import TrustedSetup
from repro.net.delays import FixedDelay
from repro.net.runtime import Simulation

N = 4


def _sim(seed=2):
    sim = Simulation(
        TrustedSetup.generate(N, seed=seed), delay_model=FixedDelay(1.0), seed=seed
    )
    noted = []
    note_progress = sim._note_progress

    def counting(party):
        noted.append(party.index)
        note_progress(party)

    sim._note_progress = counting
    return sim, noted


def test_notes_are_bounded_by_results_not_deliveries():
    sim, noted = _sim()
    sim.start(lambda party: ADKG())
    assert len(noted) == N  # start() notes every party once
    sim.run_until_all_honest_output()
    assert sim.all_honest_output()
    # One more note per (party, session) result — hundreds of deliveries.
    assert len(noted) == 2 * N
    assert sim.metrics.deliveries > 50 * len(noted)
    assert sorted(sim.session_output_times[0]) == list(range(N))
    assert max(sim.session_output_times[0].values()) == sim.time


def test_session_started_on_a_live_network_is_detected():
    sim, noted = _sim()
    sim.start(lambda party: ADKG(), session=0)
    for _ in range(200):
        sim.step()
    assert not sim.all_honest_output(0)
    sim.start(lambda party: ADKG(), session=1)
    sim.run_until_session_done(1)
    assert sim.session_complete(1)
    sim.run_until_session_done(0)
    assert sim.session_complete(0)
    for session in (0, 1):
        assert len(sim.honest_results(session)) == N
        assert sorted(sim.session_output_times[session]) == list(range(N))
    # 2 sessions x (N start notes + N results), whatever the interleaving.
    assert len(noted) == 4 * N


def test_thawed_party_with_a_pre_crash_result_is_folded_in():
    sim, noted = _sim()
    root_factory = lambda party: ADKG()  # noqa: E731
    sim.start(root_factory)
    first = next(iter(sim.honest))
    sim.run(stop=lambda s: s.parties[first].has_result)
    finisher = next(p for p in sim.parties if p.has_result)
    assert not sim.all_honest_output()
    index = finisher.index
    stamped = sim.session_output_times[0][index]
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

    sim.run_until_all_honest_output()
    assert sim.honest_results()[index] == replacement.result
    assert sim.session_output_times[0][index] == stamped
