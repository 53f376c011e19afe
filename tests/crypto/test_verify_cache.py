"""The content-addressed verification cache: amortization and safety.

The load-bearing property is Byzantine-mutation safety: memoization is
keyed by the hash of the value's canonical codec bytes, so a transcript
with even one mutated byte can never inherit the unmutated original's
``True`` verdict — it misses the cache and fails verification on its own
(lack of) merits.
"""

import dataclasses
import random

import pytest

from repro.core import certificates as certs
from repro.crypto import kzg, pvss, threshold_sig as tsig, threshold_vrf as tvrf
from repro.crypto.keys import TrustedSetup
from repro.crypto.verify_cache import IdentityMemo, VerifyCache, content_digest
from repro.net import codec


@pytest.fixture()
def setup():
    return TrustedSetup.generate(4, seed=11)


def _transcript(setup):
    rng = random.Random(42)
    contributions = [
        pvss.deal(setup.directory, setup.secret(i), rng) for i in range(4)
    ]
    return pvss.aggregate(setup.directory, contributions)


# -- the cache itself -------------------------------------------------------------------


def test_memoize_counts_hits_and_misses():
    cache = VerifyCache()
    calls = []

    def compute():
        calls.append(1)
        return True

    assert cache.memoize("demo", (b"key",), compute) is True
    assert cache.memoize("demo", (b"key",), compute) is True
    assert len(calls) == 1
    assert cache.stats["verify.demo.calls"] == 2
    assert cache.stats["verify.demo.misses"] == 1
    assert cache.stats["verify.demo.hits"] == 1


def test_memoize_uncacheable_values_always_recompute():
    cache = VerifyCache()
    calls = []

    class Opaque:  # not codec-registered, not an atom
        pass

    def compute():
        calls.append(1)
        return False

    value = Opaque()
    assert cache.memoize("demo", (value,), compute) is False
    assert cache.memoize("demo", (value,), compute) is False
    assert len(calls) == 2
    assert cache.stats["verify.demo.uncacheable"] == 2
    assert cache.stats["verify.demo.hits"] == 0


def test_domains_are_separated():
    cache = VerifyCache()
    assert cache.memoize("a", (1,), lambda: True) is True
    assert cache.memoize("b", (1,), lambda: False) is False
    assert cache.stats["verify.a.misses"] == 1
    assert cache.stats["verify.b.misses"] == 1


def test_identity_memo_never_aliases_a_different_object(setup):
    memo = IdentityMemo()
    transcript = _transcript(setup)
    clone = codec.decode(codec.encode(transcript))
    memo.put(transcript, "original")
    assert memo.get(transcript) == "original"
    # A content-equal but distinct object (fresh decode) gets no entry.
    assert clone == transcript
    assert memo.get(clone) is None


def test_content_digest_is_content_addressed(setup):
    transcript = _transcript(setup)
    clone = codec.decode(codec.encode(transcript))
    assert content_digest(transcript) == content_digest(clone)
    mutated = pvss.PVSSTranscript(
        commitments=transcript.commitments,
        cipher_shares=tuple(reversed(transcript.cipher_shares)),
        tags=transcript.tags,
    )
    assert content_digest(mutated) != content_digest(transcript)


# -- Byzantine-mutation safety ----------------------------------------------------------


def _flip_one_byte(data: bytes):
    """Yield ``(bytes, value)`` for every single-byte flip that decodes."""
    for position in range(len(data) - 1, -1, -1):
        mutated = bytearray(data)
        mutated[position] ^= 0x01
        try:
            yield bytes(mutated), codec.decode(bytes(mutated))
        except codec.CodecError:
            continue


def test_mutated_transcript_never_inherits_cached_verdict(setup):
    directory = setup.directory
    transcript = _transcript(setup)
    assert tvrf.DKGVerify(directory, transcript)  # populates the cache
    assert tvrf.DKGVerify(directory, transcript)  # served from it
    stats = directory.verify_cache.stats
    assert stats["verify.pvss-transcript.hits"] >= 1
    baseline_misses = stats["verify.pvss-transcript.misses"]

    encoded = codec.encode(transcript)
    mutants = 0
    for wire, mutant in _flip_one_byte(encoded):
        if not isinstance(mutant, pvss.PVSSTranscript) or mutant == transcript:
            continue
        mutants += 1
        # The decoded object keeps the bytes it was read from — the mutated
        # ones — so its cache key is its own, not the original's.
        assert codec._payload_memo.get(mutant) == wire != encoded
        assert content_digest(mutant) != content_digest(transcript)
        assert not tvrf.DKGVerify(directory, mutant), "mutated transcript accepted"
        if mutants >= 5:
            break
    assert mutants > 0, "mutation sweep produced no decodable transcript"
    # Every mutant was a fresh cache miss — no stale hit crossed over.
    assert stats["verify.pvss-transcript.misses"] == baseline_misses + mutants


def test_mutated_contribution_rejected_under_memoization(setup):
    directory = setup.directory
    rng = random.Random(7)
    contribution = pvss.deal(directory, setup.secret(0), rng)
    assert pvss.verify_contribution(directory, contribution)
    tampered = pvss.PVSSContribution(
        dealer=contribution.dealer,
        commitments=contribution.commitments,
        cipher_shares=(
            contribution.cipher_shares[0],
        ) + contribution.cipher_shares[:-1],
        tag=contribution.tag,
    )
    assert not pvss.verify_contribution(directory, tampered)
    # And the original still verifies (the tampered copy polluted nothing).
    assert pvss.verify_contribution(directory, contribution)


def test_field_mutated_copy_of_an_encoded_verified_transcript_starts_from_nothing(setup):
    """The codec keeps an aggregate's bytes by identity.  A copy with one
    share moved is another object: it inherits neither the bytes nor the
    verdict of the original it was made from, and disturbs neither."""
    directory = setup.directory
    transcript = _transcript(setup)
    floor = 2 * directory.f + 1
    encoded = codec.encode(transcript)  # bytes memoized ...
    assert pvss.verify_transcript(directory, transcript, floor)  # ... and verdict
    stats = directory.verify_cache.stats
    misses = stats["verify.pvss-transcript.misses"]

    moved = dataclasses.replace(
        transcript,
        cipher_shares=_first_share_moved(directory, transcript.cipher_shares),
    )
    assert codec.encode(moved) != encoded
    assert content_digest(moved) != content_digest(transcript)
    assert not pvss.verify_transcript(directory, moved, floor)
    assert stats["verify.pvss-transcript.misses"] == misses + 1

    # A field-equal fresh copy is the other direction: different object,
    # same bytes, so it finds the original's verdict by content.
    equal = dataclasses.replace(transcript)
    assert equal is not transcript and codec.encode(equal) == encoded
    assert pvss.verify_transcript(directory, equal, floor)
    assert stats["verify.pvss-transcript.misses"] == misses + 1
    assert codec.encode(transcript) == encoded


def test_identity_layer_never_remembers_a_value_that_can_change(setup):
    """A list smuggled into a tuple field can be mutated after the first
    check; a verdict remembered by identity would then be stale.  Such a
    value — as the checked object or inside the context — is looked up by
    content every time, like the codec refuses to keep its bytes."""
    directory = setup.directory
    contribution = pvss.deal(directory, setup.secret(0), random.Random(7))
    forged = dataclasses.replace(
        contribution, cipher_shares=list(contribution.cipher_shares)
    )
    assert pvss.verify_contribution(directory, forged)
    forged.cipher_shares[1:] = _first_share_moved(directory, forged.cipher_shares[1:])
    assert not pvss._verify_contribution(directory, forged)
    assert not pvss.verify_contribution(directory, forged)

    transcript = _transcript(setup)
    message = ("beacon", 3)
    share = tvrf.EvalSh(directory, setup.secret(2), transcript, message)
    listed = dataclasses.replace(transcript, commitments=list(transcript.commitments))
    assert tvrf.EvalShVerify(directory, listed, 2, message, share)
    listed.commitments[3] = directory.pair_group.g  # party 2's share commitment
    assert not tvrf.EvalShVerify(directory, listed, 2, message, share)


def test_verdicts_do_not_leak_across_directories():
    a = TrustedSetup.generate(4, seed=1)
    b = TrustedSetup.generate(4, seed=2)
    transcript = _transcript(a)
    assert tvrf.DKGVerify(a.directory, transcript)
    # b has different keys: the same transcript must fail there, even
    # though a's cache holds a True verdict for these bytes.
    assert not tvrf.DKGVerify(b.directory, transcript)


# -- the Byzantine case matrix, against the public (memoized) verifiers -----------------


def _first_share_moved(directory, cipher_shares):
    """The shares with the first one moved off the committed polynomial."""
    group = directory.pair_group
    return (group.mul(cipher_shares[0], group.g), *cipher_shares[1:])


def _byzantine_matrix(setup):
    """``(label, verdict, check, *args)`` rows: every memoized domain on a
    valid input and on the mutations a Byzantine sender can make to it."""
    directory = setup.directory
    n = directory.n
    transcript = _transcript(setup)
    floor = 2 * directory.f + 1

    contribution = pvss.deal(directory, setup.secret(0), random.Random(7))
    bad_contribution = dataclasses.replace(
        contribution,
        cipher_shares=_first_share_moved(directory, contribution.cipher_shares),
    )
    bad_transcript = dataclasses.replace(
        transcript,
        cipher_shares=_first_share_moved(directory, transcript.cipher_shares),
    )

    message, other_message = ("beacon", 3), ("beacon", 4)
    shares = tuple(
        tsig.sign_share(directory, setup.secret(i), transcript, message)
        for i in range(n)
    )
    share = shares[1]
    misattributed = dataclasses.replace(share, party=2)
    signature = tsig.combine(directory, transcript, message, shares)

    evalsh = tvrf.EvalSh(directory, setup.secret(2), transcript, message)
    relabelled = dataclasses.replace(evalsh, party=0)

    echo, key = certs.KIND_ECHO, certs.KIND_KEY
    vote = certs.make_vote(directory, setup.secret(0), echo, "v", 1)
    quorum_votes = tuple(
        certs.make_vote(directory, setup.secret(i), echo, "v", 1)
        for i in range(directory.quorum)
    )

    kset = kzg.KZGSetup.from_seed(directory.pair_group, 4, "byzantine-matrix")
    values = [5, 9, 2, 7]
    commitment = kset.commit(values)
    opening = kset.open_at(values, 1)

    d = directory
    return [
        ("contribution", True, pvss.verify_contribution, d, contribution),
        ("contribution: cipher share off the polynomial", False,
            pvss.verify_contribution, d, bad_contribution),
        ("transcript", True, pvss.verify_transcript, d, transcript, floor),
        ("transcript: cipher share off the polynomial", False,
            pvss.verify_transcript, d, bad_transcript, floor),
        ("transcript: inflated contributor floor", False,
            pvss.verify_transcript, d, transcript, n + 1),
        ("sig share", True, tsig.share_valid, d, transcript, message, share),
        ("sig share: wrong signer index", False,
            tsig.share_valid, d, transcript, message, misattributed),
        ("sig share: replayed under another message", False,
            tsig.share_valid, d, transcript, other_message, share),
        ("sig batch", True, tsig.batch_share_valid, d, transcript, message, shares),
        ("sig batch: one wrong signer index", False, tsig.batch_share_valid,
            d, transcript, message, (misattributed, *shares[2:])),
        ("signature", True, tsig.verify, d, transcript, message, signature),
        ("signature: replayed under another message", False,
            tsig.verify, d, transcript, other_message, signature),
        ("eval share", True, tvrf.EvalShVerify, d, transcript, 2, message, evalsh),
        ("eval share: wrong signer index", False,
            tvrf.EvalShVerify, d, transcript, 0, message, relabelled),
        ("vote", True, certs.vote_valid, d, vote, echo, "v", 1),
        ("vote: replayed under another view", False,
            certs.vote_valid, d, vote, echo, "v", 2),
        ("vote: replayed under another kind", False,
            certs.vote_valid, d, vote, key, "v", 1),
        ("vote: replayed under another value", False,
            certs.vote_valid, d, vote, echo, "other-value", 1),
        ("certificate", True, certs.certificate_valid, d, quorum_votes, echo, "v", 1),
        ("certificate: short quorum", False,
            certs.certificate_valid, d, quorum_votes[:-1], echo, "v", 1),
        ("certificate: replayed under another view", False,
            certs.certificate_valid, d, quorum_votes, echo, "v", 2),
        ("kzg opening", True, kset.verify, commitment, 1, values[1], opening),
        ("kzg opening: replayed at another index", False,
            kset.verify, commitment, 2, values[1], opening),
        ("kzg opening: replayed at another value", False,
            kset.verify, commitment, 1, values[1] + 1, opening),
    ]


def test_public_verifiers_on_the_byzantine_case_matrix(setup):
    """Each verdict is right on first sight and again once cached, and a
    mutated input's ``False`` never displaces its valid neighbour's ``True``
    (the rows share one directory, hence one cache)."""
    rows = _byzantine_matrix(setup)
    assert len(rows) == 24
    for _round in range(2):
        for label, verdict, check, *args in rows:
            assert check(*args) is verdict, label
    # And as a receiver meets them: every argument a fresh decoded copy,
    # against a directory whose cache has seen none of the above.
    receiver = TrustedSetup.generate(4, seed=11).directory
    for label, verdict, check, *args in rows:
        args = [receiver if arg is setup.directory else _received(arg) for arg in args]
        assert check(*args) is verdict, label


def _received(value):
    try:
        return codec.decode(codec.encode(value))
    except codec.CodecError:
        return value
