"""Cachin-Tessaro erasure-coded broadcast: properties + dispersal attacks."""

import pytest

from repro.broadcast import erasure
from repro.crypto.merkle import MerkleTree
from repro.net import codec
from repro.net.adversary import SilentBehavior

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
