"""NWH's view change runs (Algorithms 8-10, Theorem 9).

A benign schedule binds in view 1, so the view-change code needs an
adversary that only delays: two Gather broadcasts of view 1 are held
back from one party each (chaos ``DelayWindow``s keyed by instance
path).  Each held tuple lands outside the core its recipient already
fixed; at seed 506 the parties' PE outputs then differ, their echoes on
two PE-verified tuples are an equivocation, and every party moves to
view 2.  The schedule sees paths and endpoints, never a secret or a VRF
output.
"""

from repro import run_adkg
from repro.core.certificates import KeyTuple
from repro.core.nwh import NWH, EchoMsg, EquivocateMsg, Suggest
from repro.core import certificates as certs
from repro.crypto import threshold_vrf as tvrf
from repro.crypto.keys import TrustedSetup
from repro.net.adversary import MutateBehavior
from repro.net.chaos import ChaosSpec, DelayWindow
from repro.net.envelope import Envelope
from repro.storage import run_crash_recovery

from tests.core.helpers import run_protocol
from tests.core.test_liveness import _lone_nwh_party

N, SEED = 4, 506


def _view_two(extra: float) -> ChaosSpec:
    """Hold dealer 1's VRB from party 0 and dealer 2's ``rb3`` from party 1."""

    def held(stage: str, dealer: int, recipient: int) -> DelayWindow:
        return DelayWindow(
            extra=extra,
            path=("nwh", ("pe", 1), "gather", (stage, dealer)),
            pairs={(sender, recipient) for sender in range(N)},
        )

    return ChaosSpec(delays=(held("vrb", 1, 0), held("rb3", 2, 1)))


def test_a_held_gather_tuple_moves_the_sim_to_view_two():
    setup = TrustedSetup.generate(N, seed=SEED)
    result = run_adkg(setup=setup, seed=SEED, chaos=_view_two(19.0), to_quiescence=True)
    assert result.views == 2
    assert result.agreed
    assert tvrf.DKGVerify(setup.directory, result.transcript)
    # Without the holds the same seed binds in view 1.
    assert run_adkg(setup=setup, seed=SEED).views == 1


def test_a_held_gather_tuple_moves_tcp_to_view_two():
    """The plane sits on the shared delivery seam, so the same spec (in
    seconds) drives real sockets.  Loopback timing is not the simulator's:
    a run that binds in view 1 regardless is retried, at most twice."""
    for _attempt in range(3):
        result = run_adkg(n=N, seed=SEED, transport="tcp", chaos=_view_two(0.5), timeout=60)
        assert result.agreed
        if result.views >= 2:
            break
    assert result.views >= 2


def test_a_party_recovers_inside_view_two(monkeypatch):
    """Party 0 crashes after 200 deliveries, once the view has changed;
    ``rearm`` re-derives its view-2 verification chains from disk."""
    rearmed = []
    rearm = NWH.rearm

    def observed(self):
        rearmed.append(self.view)
        rearm(self)

    monkeypatch.setattr(NWH, "rearm", observed)
    report = run_crash_recovery(
        n=N, seed=SEED, crash_indices=(0,), crash_after=200, cadence=8, chaos=_view_two(19.0)
    )
    assert report["agreement"] and report["valid"]
    assert rearmed and set(rearmed) == {2}


def _half_equivocation(payload, recipient, rng):
    """An echo becomes an equivocation whose second tuple cannot verify."""
    if not isinstance(payload, EchoMsg):
        return payload
    return EquivocateMsg(
        key_a=payload.key,
        proof_a=payload.election_proof,
        key_b=KeyTuple(0, ("forged",), None),
        proof_b=("junk",),
        view=payload.view,
    )


def test_an_equivocation_needs_both_tuples_to_verify():
    """A corrupt party claims equivocation with one real tuple and one it
    made up.  Only a PE-verified *pair* proves a faulty leader, so the
    honest parties stay in view 1; moving on one verified tuple lets a
    single corrupt party restart every view forever."""
    for seed in range(1, 6):
        sim = run_protocol(
            N,
            lambda p: NWH(my_value=("value-of", p.index)),
            seed=seed,
            behaviors={3: MutateBehavior(_half_equivocation)},
            max_steps=20_000,
        )
        nwhs = [sim.parties[i].instance(()) for i in sim.honest]
        assert all(nwh.views_entered == 1 for nwh in nwhs)
        assert len({sim.parties[i].result for i in sim.honest}) == 1


def test_a_view_two_suggest_quorum_proposes_the_freshest_key():
    """Algorithm 8: with ``n - f`` suggestions in, the PE proposal is the
    key of the highest view, here one certified in view 1."""
    setup, party, nwh = _lone_nwh_party()
    nwh.view = 2
    value = ("v", 9)
    votes = tuple(
        certs.make_vote(setup.directory, setup.secret(i), certs.KIND_ECHO, value, 1)
        for i in range(N - 1)
    )
    fresh = KeyTuple(1, value, votes)
    for sender, key in ((1, KeyTuple(0, ("v", 1), None)), (2, fresh), (3, KeyTuple(0, ("v", 3), None))):
        suggest = Suggest(key=key, view=2)
        party.deliver(Envelope(path=(), sender=sender, recipient=0, payload=suggest, depth=1))
    assert nwh._pe[2].proposal == fresh
