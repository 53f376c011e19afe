"""Byzantine dealing: ADKG and PE check n-f contributions as one aggregate.

Each test drives the root instance of one party (party 0, n = 7, f = 2,
quorum 5) by handing it dealt contributions directly, so the order in
which good and corrupted contributions arrive is the test's to choose.
The aggregator folds the first ``n - f`` well-formed contributions and
runs the ``DKGVerify`` every peer runs on the result; only when that
fails are the parts verified one by one, and the dealers of failing
parts are never taken again.
"""

import dataclasses
import random

import pytest

from repro.core.adkg import ADKG, ADKGShare
from repro.core.proposal_election import PEDkgShare, ProposalElection
from repro.crypto import nizk, pvss, schnorr, threshold_vrf as tvrf
from repro.crypto.keys import TrustedSetup
from repro.net.runtime import Simulation

N, SEED = 7, 11

#: protocol -> (root factory, payload type, pool field, aggregate field).
PROTOCOLS = {
    "adkg": (lambda party: ADKG(), ADKGShare, "received", "proposal"),
    "pe": (
        lambda party: ProposalElection(proposal=("prop", party.index)),
        PEDkgShare,
        "dkg_contributions",
        "vrf_dkg",
    ),
}


class Harness:
    def __init__(self, name: str) -> None:
        self.factory, self.wrap, self.pool_field, self.done_field = PROTOCOLS[name]
        self.setup = TrustedSetup.generate(N, seed=SEED)
        self.directory = self.setup.directory
        self.group = self.directory.pair_group
        self.sim = Simulation(self.setup, seed=SEED)
        self.party = self.sim.build_party(0)
        self.root = self.party.run_root(self.factory(self.party))
        rng = random.Random(SEED)
        self.dealt = [
            tvrf.DKGSh(self.directory, self.setup.secret(j), rng) for j in range(N)
        ]

    @property
    def pool(self) -> list:
        return getattr(self.root, self.pool_field)

    @property
    def aggregate(self):
        return getattr(self.root, self.done_field)

    def send(self, sender: int, contribution) -> None:
        self.root.on_message(sender, self.wrap(contribution))

    def stats(self) -> dict:
        return self.sim.metrics.counters("verify")

    def corrupt_cipher(self, dealer: int, j: int = 3, delta=None):
        """``dealer``'s contribution with cipher share ``j`` moved by ``delta``."""
        c = self.dealt[dealer]
        shares = list(c.cipher_shares)
        shares[j] = self.group.mul(shares[j], delta or self.group.g)
        return dataclasses.replace(c, cipher_shares=tuple(shares))


def _delta(before: dict, after: dict, key: str) -> int:
    return after.get(key, 0) - before.get(key, 0)


@pytest.fixture(params=sorted(PROTOCOLS))
def harness(request) -> Harness:
    return Harness(request.param)


def test_corrupted_cipher_share_evicts_exactly_that_dealer(harness):
    bad = harness.corrupt_cipher(1)
    assert not pvss.verify_contribution(harness.directory, bad)
    for dealer in (0, 2, 3, 4):
        harness.send(dealer, harness.dealt[dealer])
    harness.send(1, bad)  # the fifth: the aggregate fails
    assert harness.aggregate is None
    assert harness.root._rejected == {1}
    assert [c.dealer for c in harness.pool] == [0, 2, 3, 4]
    harness.send(1, harness.dealt[1])  # a rejected dealer stays out
    assert harness.aggregate is None and len(harness.pool) == 4
    harness.send(5, harness.dealt[5])
    transcript = harness.aggregate
    assert transcript is not None
    assert transcript.contributors == {0, 2, 3, 4, 5}
    assert transcript == pvss.aggregate(
        harness.directory, [harness.dealt[d] for d in (0, 2, 3, 4, 5)]
    )
    assert tvrf.DKGVerify(harness.directory, transcript)


def test_benign_aggregate_checks_no_part(harness):
    before = harness.stats()
    for dealer in range(5):
        harness.send(dealer, harness.dealt[dealer])
    after = harness.stats()
    assert harness.aggregate is not None and not harness.root._rejected
    assert _delta(before, after, "pvss-transcript.calls") == 1
    assert _delta(before, after, "pvss-contrib.calls") == 0


def _malformed(harness: Harness) -> list:
    c = harness.dealt[1]
    forged_tag = dataclasses.replace(c.tag, dealer=2)
    return [
        dataclasses.replace(c, commitments=c.commitments[:-1]),
        dataclasses.replace(c, cipher_shares=c.cipher_shares + (c.cipher_shares[0],)),
        dataclasses.replace(c, tag=forged_tag),
        dataclasses.replace(c, tag=None),
        dataclasses.replace(c, commitments=list(c.commitments)),
        dataclasses.replace(c, dealer=2),
        harness.dealt[2],  # another dealer's contribution, replayed
        "junk",
    ]


def test_malformed_contribution_is_refused_before_any_crypto(harness):
    before = harness.stats()
    for contribution in _malformed(harness):
        assert not pvss.well_formed(harness.directory, contribution, 1)
        harness.send(1, contribution)
    assert harness.stats() == before  # not one verify-cache call
    assert harness.pool == [] and not harness.root._rejected
    harness.send(1, harness.dealt[1])  # the real one is still taken
    assert [c.dealer for c in harness.pool] == [1]


def test_out_of_range_sender_is_refused(harness):
    c = harness.dealt[0]
    stray = dataclasses.replace(
        c, dealer=N, tag=dataclasses.replace(c.tag, dealer=N)
    )
    assert not pvss.well_formed(harness.directory, stray, N)
    harness.send(N, stray)
    assert harness.pool == []


def test_a_non_element_cannot_crash_the_aggregator(harness):
    c = harness.dealt[1]
    gt = harness.group.pair(harness.group.g, harness.group.g)
    bad = dataclasses.replace(c, cipher_shares=(gt,) + c.cipher_shares[1:])
    for dealer in (0, 2, 3, 4):
        harness.send(dealer, harness.dealt[dealer])
    harness.send(1, bad)
    assert harness.aggregate is None and harness.root._rejected == {1}


def test_cancelling_corruptions_are_accepted_exactly_as_dkgverify_accepts(
    harness, monkeypatch
):
    """Two dealers move one cipher share by ``g`` and ``g^-1``.

    Neither part verifies alone, but their product is a valid sharing:
    every peer's ``DKGVerify`` accepts the aggregate, so the aggregator
    does too — it accepts what its peers accept, no more and no less.
    Every contributor's PoK and signature is still checked.
    """
    group = harness.group
    up = harness.corrupt_cipher(1, delta=group.g)
    down = harness.corrupt_cipher(2, delta=group.inv(group.g))
    assert not pvss.verify_contribution(harness.directory, up)
    assert not pvss.verify_contribution(harness.directory, down)
    checked: dict = {"pok": [], "sig": []}
    verify_dlog, verify_sig = nizk.verify_dlog, schnorr.verify

    def counting_pok(group_, base, public, proof, session, dealer):
        checked["pok"].append(dealer)
        return verify_dlog(group_, base, public, proof, session, dealer)

    def counting_sig(group_, pk, signature, *message):
        checked["sig"].append(message[2])
        return verify_sig(group_, pk, signature, *message)

    monkeypatch.setattr(nizk, "verify_dlog", counting_pok)
    monkeypatch.setattr(schnorr, "verify", counting_sig)
    for dealer, contribution in ((0, harness.dealt[0]), (1, up), (2, down)):
        harness.send(dealer, contribution)
    harness.send(3, harness.dealt[3])
    harness.send(4, harness.dealt[4])
    transcript = harness.aggregate
    assert transcript is not None and not harness.root._rejected
    assert sorted(checked["pok"]) == sorted(checked["sig"]) == [0, 1, 2, 3, 4]
    assert tvrf.DKGVerify(harness.directory, transcript)


def test_cancelling_corruptions_with_a_forged_signature_are_rejected(harness):
    """The same cancelling pair, but one tag's signature is forged: the
    aggregate fails on that tag, so the fallback evicts both parts."""
    group = harness.group
    up = harness.corrupt_cipher(1, delta=group.g)
    down = harness.corrupt_cipher(2, delta=group.inv(group.g))
    signature = down.tag.signature
    forged = dataclasses.replace(
        down.tag, signature=dataclasses.replace(signature, s=(signature.s + 1))
    )
    down = dataclasses.replace(down, tag=forged)
    for dealer, contribution in ((0, harness.dealt[0]), (1, up), (2, down)):
        harness.send(dealer, contribution)
    harness.send(3, harness.dealt[3])
    harness.send(4, harness.dealt[4])
    assert harness.aggregate is None
    assert harness.root._rejected == {1, 2}


def test_each_failed_aggregate_costs_one_transcript_check_and_at_most_quorum_parts(
    harness,
):
    quorum = N - harness.directory.f
    for dealer in (0, 1, 2, 3):
        harness.send(dealer, harness.dealt[dealer])
    failures = 0
    for dealer in (4, 5, 6):  # three forgeries, three failed aggregates
        before = harness.stats()
        harness.send(dealer, harness.corrupt_cipher(dealer))
        after = harness.stats()
        failures += 1
        assert harness.aggregate is None
        assert harness.root._rejected == set(range(4, 4 + failures))
        assert _delta(before, after, "pvss-transcript.calls") == 1
        assert 1 <= _delta(before, after, "pvss-contrib.calls") <= quorum
        # Only the new part is new work: the four good ones verified at
        # the first failure are cache hits from then on.
        assert _delta(before, after, "pvss-contrib.misses") == (
            quorum if failures == 1 else 1
        )


def test_rejected_dealers_survive_freeze_and_thaw(harness):
    for dealer in (0, 2, 3, 4):
        harness.send(dealer, harness.dealt[dealer])
    harness.send(1, harness.corrupt_cipher(1))
    harness.party.collect_outbox()
    blob = harness.party.freeze()
    clone = harness.sim.build_party(0)
    clone.thaw(blob, root_factory=harness.factory)
    root = clone.instance(())
    assert root._rejected == {1}
    assert [c.dealer for c in getattr(root, harness.pool_field)] == [0, 2, 3, 4]
    root.on_message(1, harness.wrap(harness.dealt[1]))
    assert getattr(root, harness.done_field) is None
    root.on_message(5, harness.wrap(harness.dealt[5]))
    assert getattr(root, harness.done_field).contributors == {0, 2, 3, 4, 5}
