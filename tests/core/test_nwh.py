"""No Waitin' HotStuff: Theorem 4 (agreement, validity, quality, termination)."""

from repro.analysis.experiments import _lag_links
from repro.core.nwh import NWH
from repro.net.adversary import RandomLagScheduler, SilentBehavior

from tests.core.helpers import run_protocol


def _factory(validate=None, kind="ct"):
    def make(party):
        return NWH(
            my_value=("value-of", party.index),
            validate=validate,
            broadcast_kind=kind,
        )

    return make


def _outputs(sim):
    return {i: sim.parties[i].result for i in sim.honest if sim.parties[i].has_result}


def test_agreement_and_termination():
    sim = run_protocol(4, _factory())
    outputs = _outputs(sim)
    assert len(outputs) == 4
    assert len(set(outputs.values())) == 1


def test_quality_output_is_a_party_input():
    sim = run_protocol(4, _factory())
    value = next(iter(_outputs(sim).values()))
    assert value[0] == "value-of" and 0 <= value[1] < 4


def test_agreement_across_seeds():
    for seed in range(5):
        sim = run_protocol(4, _factory(), seed=seed)
        outputs = _outputs(sim)
        assert len(outputs) == 4, f"seed {seed}: missing outputs"
        assert len(set(outputs.values())) == 1, f"seed {seed}: disagreement"


def test_terminates_in_few_views_without_faults():
    for seed in range(5):
        sim = run_protocol(4, _factory(), seed=seed)
        views = [sim.parties[i].instance(()).views_entered for i in sim.honest]
        assert max(views) <= 3, f"seed {seed}: too many views {views}"


def test_tolerates_f_silent_parties():
    sim = run_protocol(4, _factory(), behaviors={2: SilentBehavior()}, seed=2)
    outputs = _outputs(sim)
    assert len(outputs) == 3
    assert len(set(outputs.values())) == 1


def test_larger_system():
    sim = run_protocol(
        7,
        _factory(),
        behaviors={1: SilentBehavior(), 4: SilentBehavior()},
        seed=4,
    )
    outputs = _outputs(sim)
    assert len(outputs) == 5
    assert len(set(outputs.values())) == 1


def test_external_validity():
    def validate(value):
        return isinstance(value, tuple) and value[0] == "value-of"

    sim = run_protocol(4, _factory(validate=validate))
    for value in _outputs(sim).values():
        assert validate(value)


def test_adversarial_scheduling_agreement_holds():
    for adversary in (
        {"scheduler": RandomLagScheduler(factor=25, rate=0.3)},
        {"chaos": _lag_links(4, {0}, 15.0, horizon=80.0)},
    ):
        sim = run_protocol(4, _factory(), seed=13, **adversary)
        outputs = _outputs(sim)
        assert len(outputs) == 4
        assert len(set(outputs.values())) == 1


def test_commit_certificates_are_well_formed():
    from repro.core import certificates as certs

    sim = run_protocol(4, _factory())
    # Reconstruct a commit certificate from any party's lock votes.
    nwh = sim.parties[0].instance(())
    assert nwh.terminated
    value = sim.parties[0].result
    # The key/lock fields were updated to the decided view and value.
    assert nwh.key_value == value or nwh.lock_value == value


def test_keys_and_locks_stay_correct():
    """Lemma 7: local key/lock fields always pass their checkers."""
    from repro.core import certificates as certs

    sim = run_protocol(4, _factory())
    for i in sim.honest:
        nwh = sim.parties[i].instance(())
        assert certs.key_correct(
            nwh.directory, nwh.validate, nwh.key_view, nwh.key_value, nwh.key_proof
        )
        assert certs.lock_correct(
            nwh.directory, nwh.lock_view, nwh.lock_value, nwh.lock_proof
        )
