"""Cachin-Tessaro erasure-coded broadcast: properties + dispersal attacks."""

import pytest

from repro.broadcast import erasure
from repro.broadcast.ct_rbc import CTBroadcast, CTEcho, CTReady, CTVal
from repro.crypto.keys import TrustedSetup
from repro.crypto.merkle import MerkleTree
from repro.net import codec
from repro.net.adversary import Behavior, SilentBehavior
from repro.net.delays import FixedDelay
from repro.net.protocol import Protocol
from repro.net.runtime import Simulation

from tests.broadcast.helpers import (
    NonCodewordCTDealer,
    TwoFaceCTDealer,
    UndecodableCTDealer,
    run_broadcast,
)


def test_validity_honest_dealer():
    sim = run_broadcast(4, "ct", ("payload", 7, "x"))
    for i in sim.honest:
        assert sim.parties[i].result == ("payload", 7, "x")


def test_larger_system_and_structured_value():
    value = {"k": (1, 2, 3), "tag": "pvss"}
    sim = run_broadcast(7, "ct", value)
    assert all(result == value for result in sim.honest_results().values())


def test_agreement_with_silent_party():
    sim = run_broadcast(4, "ct", "v", behaviors={1: SilentBehavior()})
    results = sim.honest_results()
    assert len(results) == 3
    assert set(results.values()) == {"v"}


def test_silent_dealer_no_output():
    sim = run_broadcast(4, "ct", "v", dealer=2, behaviors={2: SilentBehavior()})
    assert sim.honest_results() == {}


def test_non_codeword_commitment_never_delivers():
    """A dealer committing to a non-codeword is caught by re-encode check."""
    sim = run_broadcast(4, "ct", ("msg",), dealer_cls=NonCodewordCTDealer)
    assert sim.honest_results() == {}


class _ShiftedPathDealer(CTBroadcast):
    """Sends party j the fragment of leaf j + 1 with that leaf's valid path."""

    def on_start(self):
        k = self.f + 1
        fragments = erasure.rs_encode(codec.encode(self.value), k, self.n)
        tree = MerkleTree(fragments)
        for j in range(self.n):
            leaf = (j + 1) % self.n
            self.send(j, CTVal(tree.root, fragments[leaf], tree.prove(leaf), 8, k))


def test_a_path_for_another_index_is_refused():
    """A path opens a fragment only at the index it names, and that must
    be the recipient's own: no party echoes a neighbour's leaf."""
    sim = run_broadcast(4, "ct", ("msg",), dealer_cls=_ShiftedPathDealer)
    assert sim.honest_results() == {}
    assert "CTEcho" not in sim.metrics.messages_by_type


@pytest.mark.parametrize(
    "data",
    [b"\x00\x01garbage", codec.encode(("msg", 1))[:-2]],
    ids=["trailing", "truncated"],
)
def test_codeword_of_undecodable_bytes_marks_the_dealer_faulty(data):
    """The codec's strict decode fails closed: a root that commits a valid
    codeword of bytes that are no value is a bad root, never a delivery."""
    n, f = 4, 1
    root = MerkleTree(erasure.rs_encode(data, f + 1, n)).root
    calls = codec.encode_stats["wire.decode.calls"]
    sim = run_broadcast(n, "ct", data, dealer_cls=UndecodableCTDealer)
    assert sim.honest_results() == {}
    for i in sim.honest:
        assert root in sim.parties[i].instance(("rbc",))._bad_roots
    assert codec.encode_stats["wire.decode.calls"] > calls


def test_two_face_dealer_cannot_split_agreement():
    sim = run_broadcast(4, "ct", ("good",), dealer_cls=TwoFaceCTDealer)
    results = sim.honest_results()
    assert len(set(results.values())) <= 1


def test_external_validity():
    sim = run_broadcast(4, "ct", ("bad",), validate=lambda v: v == ("good",))
    assert sim.honest_results() == {}
    sim = run_broadcast(4, "ct", ("good",), validate=lambda v: v == ("good",))
    assert set(sim.honest_results().values()) == {("good",)}


def test_dealer_must_have_value():
    with pytest.raises(Exception):
        run_broadcast(4, "ct", None)


def test_word_complexity_beats_bracha_for_large_messages():
    """Theorem 6: CT ~ O(n^2 log n + m n) vs Bracha O(n^2 m)."""
    value = (1,) * 512
    ct = run_broadcast(7, "ct", value).metrics.words_total
    bracha = run_broadcast(7, "bracha", value).metrics.words_total
    assert ct < bracha / 2


def test_bracha_wins_for_tiny_messages():
    """For 1-word messages the Merkle proofs dominate: Bracha is cheaper."""
    value = 1
    ct = run_broadcast(7, "ct", value).metrics.words_total
    bracha = run_broadcast(7, "bracha", value).metrics.words_total
    assert bracha < ct


def test_fragment_word_accounting():
    """Echo messages carry ~m/(f+1) words + log n proof + root."""
    value = (1,) * 300
    sim = run_broadcast(7, "ct", value)
    words = sim.metrics.words_by_type
    assert "CTEcho" in words
    per_echo = words["CTEcho"] / sim.metrics.messages_by_type["CTEcho"]
    m, k = 300, 3
    expected = 1 + (m + k - 1) // k + 3 + 1  # root + frag + proof + routing
    assert abs(per_echo - expected) <= 2


def test_unknown_broadcast_kind_rejected():
    from repro.broadcast.validated import make_broadcast

    with pytest.raises(ValueError):
        make_broadcast("nope", dealer=0)


# -- Byzantine READYs behind a second root ---------------------------------------------

N7, F2 = 7, 2
DEALER, ACCOMPLICE = 5, 6
#: The equivocating dealer's two values and the honest parties each root's
#: VAL reaches: A three, B two, so only A ever has n - f fragments.
TWO_ROOTS = ((("left",), (0, 1, 2)), (("right",), (3, 4)))


class _ReadiesBothRoots(CTBroadcast):
    """A corrupted party of the pair: the dealer sends each root's VAL to its
    share of the honest parties; both echo their own fragment of *each*
    root and send READY for each root, to ``targets``."""

    def __init__(self, targets):
        super().__init__(DEALER)
        self.targets = targets

    def on_start(self):
        k = self.f + 1
        for value, reached in TWO_ROOTS:
            fragments = erasure.rs_encode(codec.encode(value), k, self.n)
            tree = MerkleTree(fragments)
            if self.me == DEALER:
                for j in reached:
                    self.send(j, CTVal(tree.root, fragments[j], tree.prove(j), 8, k))
            me = self.me
            for j in self.targets:
                self.send(j, CTEcho(tree.root, fragments[me], tree.prove(me), 8, k))
                self.send(j, CTReady(tree.root))

    def on_message(self, sender, payload):
        pass  # says only what on_start said


class _PairHarness(Protocol):
    def __init__(self, targets):
        super().__init__()
        self.targets = targets

    def on_start(self):
        if self.me in (DEALER, ACCOMPLICE):
            self.spawn("rbc", _ReadiesBothRoots(self.targets))
        else:
            self.spawn("rbc", CTBroadcast(DEALER))

    def on_sub_output(self, name, value):
        self.output(value)


@pytest.mark.parametrize(
    "targets, outputs",
    [((0, 1, 2, 3, 4), {("left",)}), ((0,), set())],
    ids=["to-every-honest-party", "to-one-honest-party"],
)
def test_byzantine_readies_for_two_roots_split_neither_agreement_nor_totality(
    targets, outputs
):
    """n = 7, f = 2: the dealer equivocates two roots and both corrupted
    parties READY each of them.  Honest outputs agree (the invariant
    oracle's check 1), and an honest output at one party means one at
    every party: with the pair's echoes and READYs at party 0 alone, party 0
    holds f + 1 READYs for a root it decoded and must still not output."""
    setup = TrustedSetup.generate(N7, f=F2, seed=3)
    sim = Simulation(
        setup,
        seed=3,
        behaviors={DEALER: Behavior(), ACCOMPLICE: Behavior()},
        delay_model=FixedDelay(1.0),
    )
    sim.start(lambda party: _PairHarness(targets))
    sim.run()
    results = sim.honest_results()
    assert set(results.values()) == outputs
    assert len(results) in (0, len(sim.honest))  # totality
