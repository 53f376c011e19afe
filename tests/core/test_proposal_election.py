"""Proposal Election: Theorem 3 properties."""

import pytest

from repro.core.proposal_election import ProposalElection
from repro.net.adversary import RandomLagScheduler, SilentBehavior

from tests.core.helpers import run_protocol


def _factory(validate=None, kind="ct"):
    def make(party):
        return ProposalElection(
            proposal=("prop-of", party.index),
            validate=validate,
            broadcast_kind=kind,
        )

    return make


def _outputs(sim):
    return {i: sim.parties[i].result for i in sim.honest if sim.parties[i].has_result}


def test_termination_all_honest_output():
    sim = run_protocol(4, _factory())
    outputs = _outputs(sim)
    assert len(outputs) == 4
    for value, proof in outputs.values():
        assert value[0] == "prop-of"
        assert isinstance(proof, frozenset) and len(proof) >= 3


def test_output_is_some_partys_proposal():
    sim = run_protocol(4, _factory())
    for value, _proof in _outputs(sim).values():
        tag, owner = value
        assert tag == "prop-of" and 0 <= owner < 4


def test_benign_runs_elect_a_common_proposal():
    """With no faults and mild delays, the election should usually bind.

    (The α ≥ 1/3 bound is for worst-case adversaries; benign runs agree
    far more often.  We check a majority of seeds agree to catch gross
    regressions without flaking.)
    """
    agreements = 0
    for seed in range(8):
        sim = run_protocol(4, _factory(), seed=seed)
        outputs = [value for value, _pi in _outputs(sim).values()]
        if len(set(outputs)) == 1:
            agreements += 1
    assert agreements >= 5


def test_completeness_every_output_verifies_everywhere():
    sim = run_protocol(4, _factory())
    for i, (value, proof) in _outputs(sim).items():
        for j in sim.honest:
            pe = sim.parties[j].instance(())
            completion = pe.verify(value, proof)
            sim.parties[j].sweep_conditions()
            assert completion.done, f"output of {i} failed PEVerify at {j}"


def test_binding_verification_rejects_other_values():
    """When all honest parties output the same value, nothing else verifies."""
    for seed in range(6):
        sim = run_protocol(4, _factory(), seed=seed)
        outputs = _outputs(sim)
        values = {value for value, _pi in outputs.values()}
        if len(values) != 1:
            continue
        (value,) = values
        _, proof = next(iter(outputs.values()))
        pe = sim.parties[0].instance(())
        bogus = pe.verify(("prop-of", 99), proof)
        sim.parties[0].sweep_conditions()
        assert not bogus.done
        return
    pytest.skip("no binding run found in seeds (extremely unlikely)")


def test_verify_rejects_structural_junk():
    sim = run_protocol(4, _factory())
    pe = sim.parties[0].instance(())
    for bad_proof in (frozenset({0}), "junk", frozenset({0, 1, 77})):
        completion = pe.verify(("prop-of", 0), bad_proof)
        sim.parties[0].sweep_conditions()
        assert not completion.done


def test_tolerates_f_silent_parties():
    sim = run_protocol(
        7, _factory(), behaviors={0: SilentBehavior(), 6: SilentBehavior()}, seed=3
    )
    outputs = _outputs(sim)
    assert len(outputs) == 5


def test_external_validity_of_elected_value():
    def validate(value):
        return isinstance(value, tuple) and value[0] == "prop-of"

    sim = run_protocol(4, _factory(validate=validate))
    for value, _proof in _outputs(sim).values():
        assert validate(value)


def test_adversarial_scheduling_does_not_break_termination():
    sim = run_protocol(
        4,
        _factory(),
        scheduler=RandomLagScheduler(factor=25, rate=0.35),
        seed=11,
    )
    assert len(_outputs(sim)) == 4


def test_evaluations_agree_across_parties():
    """Corollary 2: evals sets of different parties never conflict."""
    sim = run_protocol(4, _factory())
    for i in sim.honest:
        for j in sim.honest:
            evals_i = sim.parties[i].instance(()).evals
            evals_j = sim.parties[j].instance(()).evals
            for k in set(evals_i) & set(evals_j):
                assert evals_i[k] == evals_j[k]


def test_start_eval_tuples_agree_across_parties():
    """Lemma 3: start_eval entries with common indices are identical."""
    sim = run_protocol(4, _factory())
    for i in sim.honest:
        for j in sim.honest:
            se_i = sim.parties[i].instance(()).start_eval
            se_j = sim.parties[j].instance(()).start_eval
            for k in set(se_i) & set(se_j):
                assert se_i[k] == se_j[k]


def test_output_waits_for_the_gather_indices_a_thaw_still_awaits():
    """The output predicate reads the set of gather indices still without
    an evaluation.  That set is not snapshot state: a thawed instance
    rebuilds it from ``gather_output`` and ``evals``, and still outputs
    the value the uninterrupted party did."""
    from repro.crypto.keys import TrustedSetup
    from repro.net.runtime import Simulation

    factory = _factory()
    reference = _outputs(run_protocol(4, factory))

    def awaiting(sim):
        root = sim.parties[0].instance(())
        return root.gather_output is not None and len(root.evals) < len(root.gather_output)

    sim = Simulation(TrustedSetup.generate(4, seed=1), seed=1)
    sim.start(factory)
    sim.run(stop=awaiting)
    assert awaiting(sim)
    clone = sim.build_party(0)
    clone.thaw(sim.parties[0].freeze(), root_factory=factory)
    root = clone.instance(())
    assert root._unevaluated == set(root.gather_output) - set(root.evals) != set()
    assert not root.has_output
    sim.parties[0] = clone
    sim.run()
    assert not root._unevaluated
    assert _outputs(sim) == reference
