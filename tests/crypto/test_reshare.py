"""Proactive resharing: handoff dealings, key invariance, old-share uselessness."""

import dataclasses
import random

import pytest

from repro.crypto import reshare
from repro.crypto import threshold_vrf as tvrf
from repro.crypto.keys import TrustedSetup
from repro.service.membership import committee_setup

UNIVERSE = 10
OLD_MEMBERS, OLD_F = (0, 1, 2, 3, 4, 5, 6), 2
NEW_MEMBERS, NEW_F = (1, 2, 3, 4, 5, 6, 7), 2
MESSAGE = ("round", 5)


@pytest.fixture(scope="module")
def universe():
    return TrustedSetup.generate(UNIVERSE, seed=17)


@pytest.fixture(scope="module")
def old(universe):
    return committee_setup(universe, OLD_MEMBERS, OLD_F, "reshare-old")


@pytest.fixture(scope="module")
def new(universe):
    return committee_setup(universe, NEW_MEMBERS, NEW_F, "reshare-new")


@pytest.fixture(scope="module")
def old_transcript(old):
    rng = random.Random(3)
    shares = [
        tvrf.DKGSh(old.directory, old.secret(i), rng)
        for i in range(2 * OLD_F + 1)
    ]
    return tvrf.DKGAggregate(old.directory, shares)


@pytest.fixture(scope="module")
def spec(old, old_transcript):
    return reshare.HandoffSpec(
        epoch=1,
        old_session=old.directory.session,
        old_n=old.directory.n,
        old_f=old.directory.f,
        old_sign_pks=old.directory.sign_pks,
        old_commitments=old_transcript.commitments,
    )


@pytest.fixture(scope="module")
def dealings(new, old, spec):
    return tuple(
        reshare.deal_reshare(
            new.directory, spec, old.secret(i), random.Random(100 + i)
        )
        for i in range(old.directory.n)
    )


@pytest.fixture(scope="module")
def bundle(spec, dealings):
    return reshare.ReshareBundle(spec=spec, dealings=dealings[: spec.threshold])


@pytest.fixture(scope="module")
def new_transcript(new, bundle):
    return reshare.finalize(new.directory, bundle)


def test_honest_dealings_verify(new, spec, dealings):
    for dealing in dealings:
        assert reshare.verify_dealing(new.directory, spec, dealing)


def test_dealing_anchored_at_old_share_commitment(spec, dealings):
    for dealing in dealings:
        assert dealing.commitments[0] == spec.old_commitments[dealing.dealer + 1]


def test_tampered_dealing_rejected(new, spec, dealings):
    group = new.directory.pair_group
    d = dealings[0]
    bad_anchor = list(d.commitments)
    bad_anchor[0] = group.mul(bad_anchor[0], group.g)
    assert not reshare.verify_dealing(
        new.directory, spec, dataclasses.replace(d, commitments=tuple(bad_anchor))
    )
    bad_mid = list(d.commitments)
    bad_mid[2] = group.mul(bad_mid[2], group.g)
    assert not reshare.verify_dealing(
        new.directory, spec, dataclasses.replace(d, commitments=tuple(bad_mid))
    )
    bad_delta = list(d.cipher_deltas)
    bad_delta[1] = group.mul(bad_delta[1], group.g)
    assert not reshare.verify_dealing(
        new.directory, spec, dataclasses.replace(d, cipher_deltas=tuple(bad_delta))
    )
    # Claiming another dealer's identity breaks both the anchor and the
    # signature binding.
    assert not reshare.verify_dealing(
        new.directory, spec, dataclasses.replace(d, dealer=1)
    )


def test_dealing_the_codec_cannot_encode_is_rejected(new, spec, dealings):
    """As in PVSS: the challenges come from the dealing's wire bytes, and a
    dealing without any — anchored, signed and honest though it is — fails."""

    class Deltas(tuple):
        pass

    d = dealings[0]
    unencodable = dataclasses.replace(d, cipher_deltas=Deltas(d.cipher_deltas))
    assert unencodable == d
    assert not reshare.verify_dealing(new.directory, spec, unencodable)
    assert reshare.verify_dealing(new.directory, spec, d)


def test_bundle_needs_threshold_distinct_dealers(new, spec, dealings):
    short = reshare.ReshareBundle(spec=spec, dealings=dealings[: spec.threshold - 1])
    assert not reshare.verify_bundle(new.directory, short)
    duplicated = reshare.ReshareBundle(
        spec=spec,
        dealings=(dealings[0],) * spec.threshold,
    )
    assert not reshare.verify_bundle(new.directory, duplicated)
    good = reshare.ReshareBundle(spec=spec, dealings=dealings[: spec.threshold])
    assert reshare.verify_bundle(new.directory, good)


def test_bundle_spec_pinning(new, spec, old, bundle):
    """A proposer cannot substitute a fabricated old committee."""
    assert reshare.verify_bundle(new.directory, bundle, expected=spec)
    forged_spec = dataclasses.replace(spec, epoch=2)
    assert not reshare.verify_bundle(new.directory, bundle, expected=forged_spec)
    assert not reshare.verify_bundle(new.directory, "junk", expected=spec)


def test_finalized_key_is_byte_identical(new, old, old_transcript, new_transcript):
    group = new.directory.pair_group
    assert reshare.verify_reshared(new.directory, new_transcript)
    assert group.encode_element(new_transcript.public_key) == group.encode_element(
        old_transcript.public_key
    )


def test_any_threshold_subset_finalizes_to_the_same_key(
    new, spec, dealings, old_transcript
):
    group = new.directory.pair_group
    expected = group.encode_element(old_transcript.public_key)
    for start in range(3):
        subset = dealings[start : start + spec.threshold]
        bundle = reshare.ReshareBundle(spec=spec, dealings=subset)
        transcript = reshare.finalize(new.directory, bundle)
        assert group.encode_element(transcript.public_key) == expected


def test_tampered_transcript_rejected(new, new_transcript):
    group = new.directory.pair_group
    bad = list(new_transcript.commitments)
    bad[0] = group.mul(bad[0], group.g)
    assert not reshare.verify_reshared(
        new.directory, dataclasses.replace(new_transcript, commitments=tuple(bad))
    )
    short = dataclasses.replace(new_transcript, dealers=new_transcript.dealers[:1])
    assert not reshare.verify_reshared(new.directory, short)


def test_new_committee_evaluates_the_vrf(new, new_transcript):
    shares = [
        tvrf.EvalSh(new.directory, new.secret(j), new_transcript, MESSAGE)
        for j in range(NEW_F + 1)
    ]
    for j, share in enumerate(shares):
        assert tvrf.EvalShVerify(new.directory, new_transcript, j, MESSAGE, share)
    evaluation, proof = tvrf.Eval(new.directory, new_transcript, MESSAGE, shares)
    assert tvrf.EvalVerify(new.directory, new_transcript, MESSAGE, evaluation, proof)


def test_reshare_chains_to_a_third_committee(universe, new, new_transcript):
    """A reshared epoch can itself be the old sharing of the next handoff."""
    third = committee_setup(universe, (2, 3, 4, 5, 6, 7, 8, 9), 2, "reshare-third")
    spec2 = reshare.HandoffSpec(
        epoch=2,
        old_session=new.directory.session,
        old_n=new.directory.n,
        old_f=new.directory.f,
        old_sign_pks=new.directory.sign_pks,
        old_commitments=new_transcript.commitments,
    )
    dealings2 = tuple(
        reshare.deal_reshare(
            third.directory, spec2, new.secret(i), random.Random(200 + i)
        )
        for i in range(spec2.threshold)
    )
    bundle2 = reshare.ReshareBundle(spec=spec2, dealings=dealings2)
    assert reshare.verify_bundle(third.directory, bundle2)
    transcript2 = reshare.finalize(third.directory, bundle2)
    assert reshare.verify_reshared(third.directory, transcript2)
    group = third.directory.pair_group
    assert group.encode_element(transcript2.public_key) == group.encode_element(
        new_transcript.public_key
    )


# -- old shares are useless after the handoff ----------------------------------------


def _old_share_at_new_point(old, old_transcript, new, old_local, new_local):
    """What a corrupted old party can compute toward the new epoch's VRF.

    Old party ``old_local`` can pair the new epoch's message point with
    its encrypted share: ``e(H'(m), Ŝ_i)^{1/esk} = e(H'(m), g)^{F(x_i)}``
    — the strongest share-like value the old key material yields.
    """
    group = new.directory.pair_group
    point = tvrf._message_point(new.directory, MESSAGE)
    secret = old.secret(old_local)
    inverse = group.scalar_field.inv(secret.enc_sk)
    paired = group.pair(point, old_transcript.cipher_shares[old_local])
    return tvrf.EvalShare(party=new_local, value=group.exp(paired, inverse))


def test_old_shares_fail_share_verification_after_handoff(
    old, old_transcript, new, new_transcript
):
    # Universe member 2 was old local 1 and is new local 1: even a party
    # that stays on cannot pass off its *old* share as a new one.
    forged = _old_share_at_new_point(old, old_transcript, new, 1, 1)
    assert not tvrf.EvalShVerify(new.directory, new_transcript, 1, MESSAGE, forged)


def test_old_and_new_shares_below_threshold_do_not_combine(
    old, old_transcript, new, new_transcript
):
    """f' new shares + f old shares forge nothing for the new epoch."""
    honest_new = [
        tvrf.EvalSh(new.directory, new.secret(j), new_transcript, MESSAGE)
        for j in range(NEW_F)  # one short of the f'+1 threshold
    ]
    # Top up to threshold size with everything the old committee's
    # compromised key material can produce (old locals 3, 4 are new
    # locals 2, 3 — distinct parties, so Eval accepts the set).
    forged_old = [
        _old_share_at_new_point(old, old_transcript, new, 3, 2),
        _old_share_at_new_point(old, old_transcript, new, 4, 3),
    ]
    shares = honest_new + forged_old[: NEW_F + 1 - len(honest_new)]
    evaluation, proof = tvrf.Eval(new.directory, new_transcript, MESSAGE, shares)
    assert not tvrf.EvalVerify(
        new.directory, new_transcript, MESSAGE, evaluation, proof
    )
    # The honest committee alone does reach the unique verifying value.
    full = honest_new + [
        tvrf.EvalSh(new.directory, new.secret(NEW_F), new_transcript, MESSAGE)
    ]
    evaluation, proof = tvrf.Eval(new.directory, new_transcript, MESSAGE, full)
    assert tvrf.EvalVerify(
        new.directory, new_transcript, MESSAGE, evaluation, proof
    )
