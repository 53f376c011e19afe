"""Liveness edge cases: laggards, withheld shares, buffered views."""

from repro.analysis.experiments import _lag_links
from repro.core.adkg import ADKG
from repro.core.nwh import NWH, CommitMsg, Suggest
from repro.core.certificates import KeyTuple
from repro.core.proposal_election import PEEvalShare, ProposalElection
from repro.net.adversary import MutateBehavior
from repro.net.envelope import Envelope
from repro.net.party import Party

from tests.core.helpers import run_protocol


def test_extreme_laggard_terminates_via_commit_forwarding():
    """A party whose links are 60x slower still outputs (checkTermination)."""
    sim = run_protocol(
        4,
        lambda p: ADKG(),
        chaos=_lag_links(4, {3}, 60.0, horizon=10_000.0),
        seed=31,
        to_quiescence=True,
        max_steps=10_000_000,
    )
    outputs = {i: sim.parties[i].result for i in range(4) if sim.parties[i].has_result}
    assert len(outputs) == 4
    assert len(set(outputs.values())) == 1


def test_pe_survives_withheld_eval_shares():
    """A corrupt party refusing to release eval shares cannot stall PE."""

    def mutate(payload, recipient, rng):
        if isinstance(payload, PEEvalShare):
            return None
        return payload

    sim = run_protocol(
        4,
        lambda p: ProposalElection(proposal=("p", p.index)),
        behaviors={2: MutateBehavior(mutate)},
        seed=32,
    )
    outputs = [sim.parties[i].result for i in sim.honest if sim.parties[i].has_result]
    assert len(outputs) == 3


def test_pe_survives_garbage_eval_shares():
    def mutate(payload, recipient, rng):
        if isinstance(payload, PEEvalShare):
            return PEEvalShare(k=payload.k, share="garbage")
        return payload

    sim = run_protocol(
        4,
        lambda p: ProposalElection(proposal=("p", p.index)),
        behaviors={1: MutateBehavior(mutate)},
        seed=33,
    )
    outputs = [sim.parties[i].result for i in sim.honest if sim.parties[i].has_result]
    assert len(outputs) == 3


def test_adkg_with_selective_share_withholding():
    """A dealer sharing only with half the parties cannot stall the ADKG."""
    from repro.core.adkg import ADKGShare

    def mutate(payload, recipient, rng):
        if isinstance(payload, ADKGShare) and recipient % 2 == 0:
            return None
        return payload

    sim = run_protocol(
        4,
        lambda p: ADKG(),
        behaviors={3: MutateBehavior(mutate)},
        seed=34,
        to_quiescence=False,
    )
    outputs = list(sim.honest_results().values())
    assert len(outputs) == 3
    assert all(o == outputs[0] for o in outputs)


# -- white-box view machinery tests ---------------------------------------------------


def _lone_nwh_party():
    from repro.crypto.keys import TrustedSetup

    setup = TrustedSetup.generate(4, seed=35)
    party = Party(
        0,
        n=4,
        f=1,
        directory=setup.directory,
        secret=setup.secret(0),
    )
    nwh = NWH(my_value=("v", 0))
    party.run_root(nwh)
    party.collect_outbox()  # discard the initial suggest burst
    return setup, party, nwh


def test_future_view_messages_are_buffered():
    setup, party, nwh = _lone_nwh_party()
    future = Suggest(key=KeyTuple(0, ("v", 1), None), view=3)
    party.deliver(Envelope(path=(), sender=1, recipient=0, payload=future, depth=1))
    assert nwh.view == 1
    assert (1, future) in nwh._future[3]
    assert 1 not in nwh._suggestions.get(3, {})


def test_old_view_messages_are_dropped():
    setup, party, nwh = _lone_nwh_party()
    nwh.view = 5  # simulate having advanced
    stale = Suggest(key=KeyTuple(0, ("v", 1), None), view=2)
    party.deliver(Envelope(path=(), sender=1, recipient=0, payload=stale, depth=1))
    assert 1 not in nwh._suggestions.get(2, {})


def test_malformed_view_numbers_ignored():
    setup, party, nwh = _lone_nwh_party()
    bad = Suggest(key=KeyTuple(0, ("v", 1), None), view="nonsense")
    party.deliver(Envelope(path=(), sender=1, recipient=0, payload=bad, depth=1))
    assert not nwh._future
    neg = Suggest(key=KeyTuple(0, ("v", 1), None), view=-2)
    party.deliver(Envelope(path=(), sender=1, recipient=0, payload=neg, depth=1))
    assert not nwh._future


def test_commit_with_bad_certificate_ignored_any_view():
    setup, party, nwh = _lone_nwh_party()
    bogus = CommitMsg(value=("v", 9), proof=("junk",), view=7)
    party.deliver(Envelope(path=(), sender=2, recipient=0, payload=bogus, depth=1))
    assert not nwh.terminated
    assert not party.has_result


def test_suggestions_require_key_view_below_current():
    setup, party, nwh = _lone_nwh_party()
    same_view_key = Suggest(key=KeyTuple(1, ("v", 1), None), view=1)
    party.deliver(
        Envelope(path=(), sender=1, recipient=0, payload=same_view_key, depth=1)
    )
    assert 1 not in nwh._suggestions.get(1, {})


def test_duplicate_suggestions_counted_once():
    setup, party, nwh = _lone_nwh_party()
    suggest = Suggest(key=KeyTuple(0, ("v", 1), None), view=1)
    for _ in range(3):
        party.deliver(
            Envelope(path=(), sender=1, recipient=0, payload=suggest, depth=1)
        )
    assert len(nwh._suggestions[1]) == 1
