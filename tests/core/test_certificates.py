"""Key/lock/commit certificates (Algorithms 11-13)."""

import dataclasses
import random

import pytest

from repro.core import certificates as certs
from repro.crypto import pvss
from repro.crypto.keys import TrustedSetup
from repro.net import codec

N, F = 4, 1
VALUE = ("agreed", "value")


@pytest.fixture(scope="module")
def setup():
    return TrustedSetup.generate(N, F, seed=17)


def _votes(setup, kind, value, view, signers=None):
    signers = range(N) if signers is None else signers
    return tuple(
        certs.make_vote(setup.directory, setup.secret(i), kind, value, view)
        for i in signers
    )


def test_vote_roundtrip(setup):
    vote = certs.make_vote(setup.directory, setup.secret(0), certs.KIND_ECHO, VALUE, 3)
    assert certs.vote_valid(setup.directory, vote, certs.KIND_ECHO, VALUE, 3)


def test_vote_binds_kind_value_view(setup):
    vote = certs.make_vote(setup.directory, setup.secret(0), certs.KIND_ECHO, VALUE, 3)
    assert not certs.vote_valid(setup.directory, vote, certs.KIND_KEY, VALUE, 3)
    assert not certs.vote_valid(setup.directory, vote, certs.KIND_ECHO, ("x",), 3)
    assert not certs.vote_valid(setup.directory, vote, certs.KIND_ECHO, VALUE, 4)
    assert not certs.vote_valid(setup.directory, "junk", certs.KIND_ECHO, VALUE, 3)


def test_vote_over_the_senders_object_verifies_on_a_decoded_copy(setup):
    """A vote signs ``H(codec bytes)``.  The sender hashes the bytes its
    encoder walked, the receiver the bytes its decoder read: one string, so
    one digest — and one moved share is another string."""
    directory = setup.directory
    transcript = pvss.aggregate(
        directory,
        [pvss.deal(directory, setup.secret(i), random.Random(i)) for i in range(3)],
    )
    vote = certs.make_vote(directory, setup.secret(1), certs.KIND_KEY, transcript, 2)
    wire = codec.encode((transcript, vote))
    receiver = TrustedSetup.generate(N, F, seed=17).directory  # a cold cache
    received, received_vote = codec.decode(wire)
    assert received is not transcript
    assert certs.value_digest(received) == certs.value_digest(transcript)
    assert certs.vote_valid(receiver, received_vote, certs.KIND_KEY, received, 2)

    group = directory.pair_group
    moved = dataclasses.replace(
        received,
        cipher_shares=(group.mul(received.cipher_shares[0], group.g),)
        + received.cipher_shares[1:],
    )
    assert not certs.vote_valid(receiver, received_vote, certs.KIND_KEY, moved, 2)
    assert not certs.vote_valid(
        receiver, received_vote, certs.KIND_KEY, codec.decode(codec.encode(moved)), 2
    )


def test_certificate_needs_quorum_of_distinct_signers(setup):
    quorum = setup.directory.quorum
    votes = _votes(setup, certs.KIND_ECHO, VALUE, 2)
    assert certs.certificate_valid(setup.directory, votes[:quorum], certs.KIND_ECHO, VALUE, 2)
    assert not certs.certificate_valid(
        setup.directory, votes[: quorum - 1], certs.KIND_ECHO, VALUE, 2
    )
    duplicated = (votes[0],) * quorum
    assert not certs.certificate_valid(
        setup.directory, duplicated, certs.KIND_ECHO, VALUE, 2
    )
    assert not certs.certificate_valid(setup.directory, "junk", certs.KIND_ECHO, VALUE, 2)


def test_key_correct_checks_external_validity(setup):
    votes = _votes(setup, certs.KIND_ECHO, VALUE, 2)
    def ok(v):
        return True

    def bad(v):
        return False

    assert certs.key_correct(setup.directory, ok, 2, VALUE, votes)
    assert not certs.key_correct(setup.directory, bad, 2, VALUE, votes)


def test_view_zero_keys_and_locks_are_vacuous(setup):
    def ok(v):
        return True

    assert certs.key_correct(setup.directory, ok, 0, VALUE, None)
    assert certs.lock_correct(setup.directory, 0, VALUE, None)
    # ... but commits never are.
    assert not certs.commit_correct(setup.directory, 0, VALUE, None)


def test_key_correct_rejects_invalid_value_even_at_view_zero(setup):
    assert not certs.key_correct(setup.directory, lambda v: False, 0, VALUE, None)


def test_lock_needs_key_votes_not_echo_votes(setup):
    echo_votes = _votes(setup, certs.KIND_ECHO, VALUE, 2)
    key_votes = _votes(setup, certs.KIND_KEY, VALUE, 2)
    assert certs.lock_correct(setup.directory, 2, VALUE, key_votes)
    assert not certs.lock_correct(setup.directory, 2, VALUE, echo_votes)


def test_commit_needs_lock_votes(setup):
    lock_votes = _votes(setup, certs.KIND_LOCK, VALUE, 2)
    key_votes = _votes(setup, certs.KIND_KEY, VALUE, 2)
    assert certs.commit_correct(setup.directory, 2, VALUE, lock_votes)
    assert not certs.commit_correct(setup.directory, 2, VALUE, key_votes)


def test_negative_views_rejected(setup):
    votes = _votes(setup, certs.KIND_ECHO, VALUE, 2)
    assert not certs.key_correct(setup.directory, lambda v: True, -1, VALUE, votes)
    assert not certs.lock_correct(setup.directory, -1, VALUE, votes)
    assert not certs.commit_correct(setup.directory, -1, VALUE, votes)


def test_key_tuple_correct(setup):
    def ok(v):
        return True

    good = certs.KeyTuple(0, VALUE, None)
    assert certs.key_tuple_correct(setup.directory, ok, good)
    assert not certs.key_tuple_correct(setup.directory, ok, "junk")
    forged = certs.KeyTuple(3, VALUE, None)
    assert not certs.key_tuple_correct(setup.directory, ok, forged)
    certified = certs.KeyTuple(2, VALUE, _votes(setup, certs.KIND_ECHO, VALUE, 2))
    assert certs.key_tuple_correct(setup.directory, ok, certified)


def test_value_digest_handles_opaque_values(setup):
    class Opaque:
        pass

    digest = certs.value_digest(Opaque())
    assert isinstance(digest, bytes) and len(digest) == 32
    assert certs.value_digest((1, 2)) != certs.value_digest((2, 1))


def test_key_tuple_word_size():
    kt = certs.KeyTuple(0, (1, 2, 3), None)
    assert kt.word_size() == 1 + 3
