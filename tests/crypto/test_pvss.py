"""Aggregatable PVSS: dealing, verification, aggregation, forgeries."""

import dataclasses
import random

import pytest

from repro.crypto import pvss
from repro.crypto.keys import TrustedSetup

N, F = 7, 2


@pytest.fixture(scope="module")
def setup():
    return TrustedSetup.generate(N, F, seed=11)


@pytest.fixture(scope="module")
def contributions(setup):
    rng = random.Random(42)
    return [
        pvss.deal(setup.directory, setup.secret(i), rng) for i in range(N)
    ]


def test_honest_contribution_verifies(setup, contributions):
    for contribution in contributions:
        assert pvss.verify_contribution(setup.directory, contribution)


def test_contribution_shapes(setup, contributions):
    c = contributions[0]
    assert len(c.commitments) == N + 1
    assert len(c.cipher_shares) == N
    assert c.word_size() == (N + 1) + N + 3


def test_commitments_lie_on_degree_f_polynomial(setup, contributions):
    """The committed evaluations interpolate consistently (degree <= f)."""
    group = setup.directory.pair_group
    field = group.scalar_field
    from repro.crypto.polynomial import lagrange_coefficients

    c = contributions[0]
    # Interpolate commitment at x=0 from points 1..f+1, in the exponent.
    xs = list(range(1, F + 2))
    lambdas = lagrange_coefficients(field, xs, at=0)
    recombined = group.prod(
        group.exp(c.commitments[x], lam) for x, lam in zip(xs, lambdas)
    )
    assert recombined == c.commitments[0]


def test_tampered_commitment_rejected(setup, contributions):
    group = setup.directory.pair_group
    c = contributions[0]
    bad_commitments = list(c.commitments)
    bad_commitments[3] = group.mul(bad_commitments[3], group.g)
    tampered = dataclasses.replace(c, commitments=tuple(bad_commitments))
    assert not pvss.verify_contribution(setup.directory, tampered)


def test_tampered_cipher_share_rejected(setup, contributions):
    group = setup.directory.pair_group
    c = contributions[0]
    bad_shares = list(c.cipher_shares)
    bad_shares[1] = group.mul(bad_shares[1], group.g)
    tampered = dataclasses.replace(c, cipher_shares=tuple(bad_shares))
    assert not pvss.verify_contribution(setup.directory, tampered)


def test_sharing_the_codec_cannot_encode_is_rejected(setup, contributions):
    """The Fiat-Shamir challenges are drawn from the statement's wire bytes.
    A statement that has none gets no challenge, so no verdict but False —
    even one whose every group element is honest."""

    class Shares(tuple):  # indexes and iterates like a tuple; no codec tag
        pass

    c = contributions[0]
    unencodable = dataclasses.replace(c, cipher_shares=Shares(c.cipher_shares))
    assert unencodable == c
    assert not pvss.verify_contribution(setup.directory, unencodable)
    assert pvss.verify_contribution(setup.directory, c)
    transcript = pvss.aggregate(setup.directory, contributions[: 2 * F + 1])
    unencodable = dataclasses.replace(transcript, commitments=Shares(transcript.commitments))
    assert not pvss.verify_transcript(setup.directory, unencodable, 2 * F + 1)
    assert pvss.verify_transcript(setup.directory, transcript, 2 * F + 1)


def test_stolen_dealer_identity_rejected(setup, contributions):
    """Re-labelling another dealer's contribution fails the signature check."""
    c = contributions[0]
    stolen_tag = dataclasses.replace(c.tag, dealer=1)
    stolen = dataclasses.replace(c, dealer=1, tag=stolen_tag)
    assert not pvss.verify_contribution(setup.directory, stolen)


def test_mismatched_tag_commitment_rejected(setup, contributions):
    group = setup.directory.pair_group
    c = contributions[0]
    bad_tag = dataclasses.replace(
        c.tag, secret_commitment=group.mul(c.tag.secret_commitment, group.g)
    )
    assert not pvss.verify_contribution(
        setup.directory, dataclasses.replace(c, tag=bad_tag)
    )


def test_out_of_range_dealer_rejected(setup, contributions):
    c = contributions[0]
    assert not pvss.verify_contribution(
        setup.directory, dataclasses.replace(c, dealer=N + 3)
    )
    assert not pvss.verify_contribution(setup.directory, "junk")


def test_aggregate_verifies(setup, contributions):
    transcript = pvss.aggregate(setup.directory, contributions[: 2 * F + 1])
    assert pvss.verify_transcript(setup.directory, transcript, 2 * F + 1)
    assert transcript.contributors == frozenset(range(2 * F + 1))


def test_aggregate_of_all_contributions_verifies(setup, contributions):
    transcript = pvss.aggregate(setup.directory, contributions)
    assert pvss.verify_transcript(setup.directory, transcript, 2 * F + 1)
    assert transcript.word_size() == (N + 1) + N + 3 * N


def test_aggregate_public_key_is_product_of_secrets(setup, contributions):
    group = setup.directory.pair_group
    transcript = pvss.aggregate(setup.directory, contributions[:5])
    expected = group.prod(c.commitments[0] for c in contributions[:5])
    assert transcript.public_key == expected


def test_aggregation_rejects_duplicates(setup, contributions):
    with pytest.raises(ValueError):
        pvss.aggregate(setup.directory, [contributions[0], contributions[0]])
    with pytest.raises(ValueError):
        pvss.aggregate(setup.directory, [])


def test_too_few_contributors_rejected(setup, contributions):
    transcript = pvss.aggregate(setup.directory, contributions[:F])
    assert not pvss.verify_transcript(setup.directory, transcript, 2 * F + 1)


def test_transcript_with_foreign_tag_rejected(setup, contributions):
    """Adding a tag whose secret is not folded into A_0 fails the product check."""
    transcript = pvss.aggregate(setup.directory, contributions[: 2 * F + 1])
    extra = contributions[2 * F + 1].tag
    forged = dataclasses.replace(transcript, tags=transcript.tags + (extra,))
    assert not pvss.verify_transcript(setup.directory, forged, 2 * F + 1)


def test_tampered_aggregate_cipher_rejected(setup, contributions):
    group = setup.directory.pair_group
    transcript = pvss.aggregate(setup.directory, contributions[: 2 * F + 1])
    bad = list(transcript.cipher_shares)
    bad[0] = group.mul(bad[0], group.g)
    forged = dataclasses.replace(transcript, cipher_shares=tuple(bad))
    assert not pvss.verify_transcript(setup.directory, forged, 2 * F + 1)


def test_share_commitment_accessor(setup, contributions):
    transcript = pvss.aggregate(setup.directory, contributions[:5])
    assert transcript.share_commitment(0) == transcript.commitments[1]
    assert transcript.share_commitment(N - 1) == transcript.commitments[N]
