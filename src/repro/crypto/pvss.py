"""Aggregatable publicly verifiable secret sharing (Gurkan et al. [23] structure).

A *contribution* (the paper's ``dkgshare``) shares a fresh random secret
``s = f(0)`` among the ``n`` parties with threshold ``f_threshold``:

* Feldman-in-the-exponent commitments ``A_x = g^{f(x)}`` for ``x = 0..n``;
* encrypted shares ``Ŝ_j = epk_j^{f(j)}`` for each party ``j`` (``epk_j``
  is ``j``'s PVSS encryption key);
* a Schnorr proof of knowledge of ``f(0)`` and the dealer's signature,
  which together form the O(1)-word *contributor tag* that survives
  aggregation.

A *transcript* (the paper's ``dkg``) is the component-wise product of any
set of contributions from distinct dealers; it stays ``O(n)`` words no
matter how many contributions were folded in, which is exactly the
property the paper's first barrier (Section 1.2) needs.

Verification (both of single contributions and of aggregates):

1. SCRAPE low-degree test — the committed evaluations lie on a polynomial
   of degree ≤ ``f_threshold`` (Fiat-Shamir-derandomized dual-code check);
2. pairing consistency — ``e(g, Ŝ_j) = e(epk_j, A_j)`` for every ``j``;
3. contributor tags — each dealer's PoK verifies against its secret
   commitment, the dealer signed it, dealers are distinct, and the product
   of the per-dealer secret commitments equals the aggregate ``A_0``.

The pairing itself is the generic-group simulation of
:mod:`repro.crypto.pairing`; see DESIGN.md section 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from repro.crypto import nizk, schnorr
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import PartySecret, PublicDirectory
from repro.crypto.pairing import GroupElement
from repro.crypto.polynomial import random_polynomial, scrape_coefficients
from repro.crypto.verify_cache import content_digest


@dataclass(frozen=True)
class ContributorTag:
    """O(1)-word record of one dealer's contribution inside an aggregate."""

    dealer: int
    secret_commitment: GroupElement
    pok: nizk.DlogProof
    signature: schnorr.Signature

    def word_size(self) -> int:
        return 3


@dataclass(frozen=True)
class PVSSContribution:
    """A single dealer's sharing — the paper's ``dkgshare``."""

    dealer: int
    commitments: tuple[GroupElement, ...]
    cipher_shares: tuple[GroupElement, ...]
    tag: ContributorTag

    def word_size(self) -> int:
        return len(self.commitments) + len(self.cipher_shares) + self.tag.word_size()


@dataclass(frozen=True)
class PVSSTranscript:
    """An aggregated sharing — the paper's ``dkg``."""

    commitments: tuple[GroupElement, ...]
    cipher_shares: tuple[GroupElement, ...]
    tags: tuple[ContributorTag, ...]

    def word_size(self) -> int:
        return (
            len(self.commitments)
            + len(self.cipher_shares)
            + sum(tag.word_size() for tag in self.tags)
        )

    @property
    def contributors(self) -> frozenset[int]:
        return frozenset(tag.dealer for tag in self.tags)

    @property
    def public_key(self) -> GroupElement:
        """The threshold public key ``g^{F(0)}``."""
        return self.commitments[0]

    def share_commitment(self, party: int) -> GroupElement:
        """``g^{F(party+1)}`` — the public commitment to ``party``'s share."""
        return self.commitments[party + 1]


def deal(
    directory: PublicDirectory, dealer: PartySecret, rng: random.Random
) -> PVSSContribution:
    """Deal a fresh random secret to all ``n`` parties (threshold ``f``)."""
    group = directory.pair_group
    field = group.scalar_field
    poly = random_polynomial(field, directory.f, rng)
    evaluations = poly.evaluate_many(range(directory.n + 1))
    commitments = group.exp_many((group.g,) * len(evaluations), evaluations)
    cipher_shares = group.exp_many(directory.enc_pks, evaluations[1:])
    pok = nizk.prove_dlog(
        group,
        group.g,
        commitments[0],
        poly.coeffs[0],
        rng,
        directory.session,
        dealer.index,
    )
    signature = schnorr.sign(
        directory.sign_group,
        dealer.sign,
        "pvss-contrib",
        directory.session,
        dealer.index,
        group.encode_element(commitments[0]),
    )
    tag = ContributorTag(
        dealer=dealer.index,
        secret_commitment=commitments[0],
        pok=pok,
        signature=signature,
    )
    return PVSSContribution(
        dealer=dealer.index,
        commitments=commitments,
        cipher_shares=cipher_shares,
        tag=tag,
    )


def verify_contribution(
    directory: PublicDirectory, contribution: PVSSContribution
) -> bool:
    """Publicly verify a single dealer's contribution.

    Memoized per distinct contribution (content-addressed): the same
    dealing arriving via several broadcast echo paths is verified once.
    """
    if not isinstance(contribution, PVSSContribution):
        return False
    # Identity-first: the same frozen contribution object fans out to n-1
    # recipients in-process, so repeats skip even the content hashing.
    return directory.verify_cache.identity_memoize(
        "pvss-contrib",
        contribution,
        (),
        (contribution,),
        lambda: _verify_contribution(directory, contribution),
    )


def _verify_contribution(
    directory: PublicDirectory, contribution: PVSSContribution
) -> bool:
    if not 0 <= contribution.dealer < directory.n:
        return False
    tag = contribution.tag
    if tag.dealer != contribution.dealer:
        return False
    if tag.secret_commitment != contribution.commitments[0]:
        return False
    return _verify_sharing(
        directory,
        contribution,
        contribution.commitments,
        contribution.cipher_shares,
        (tag,),
    )


def well_formed(directory: PublicDirectory, contribution: Any, dealer: int) -> bool:
    """Crypto-free shape check of a contribution ``dealer`` sent.

    Type, dealer index, widths, real tuples and the tag's dealer: exactly
    what :func:`aggregate` needs to fold the contribution.  Its algebra is
    left to :func:`aggregate_checked`.
    """
    n = directory.n
    return (
        isinstance(contribution, PVSSContribution)
        and contribution.dealer == dealer
        and 0 <= dealer < n
        and type(contribution.commitments) is tuple
        and type(contribution.cipher_shares) is tuple
        and len(contribution.commitments) == n + 1
        and len(contribution.cipher_shares) == n
        and isinstance(contribution.tag, ContributorTag)
        and contribution.tag.dealer == dealer
    )


def aggregate_checked(
    directory: PublicDirectory, contributions: Sequence[PVSSContribution]
) -> tuple[Optional[PVSSTranscript], list[PVSSContribution]]:
    """Aggregate, verifying the aggregate rather than its parts.

    ``contributions`` are :func:`well_formed` and from distinct dealers.
    Returns ``(transcript, contributions)`` when the aggregate passes the
    ``DKGVerify`` check (``2f + 1`` contributors) every peer runs on it —
    the memoized verdict then serves those peers.  Otherwise returns
    ``(None, parts)`` with only the parts that verify individually, so the
    caller can evict the rest and wait for more.
    """
    try:
        transcript: Optional[PVSSTranscript] = aggregate(directory, contributions)
    except (TypeError, ValueError):  # an element outside G cannot be folded
        transcript = None
    if transcript is not None and verify_transcript(
        directory, transcript, 2 * directory.f + 1
    ):
        return transcript, list(contributions)
    return None, [c for c in contributions if verify_contribution(directory, c)]


def aggregate(
    directory: PublicDirectory, contributions: Sequence[PVSSContribution]
) -> PVSSTranscript:
    """Fold contributions from distinct dealers into one transcript."""
    if not contributions:
        raise ValueError("cannot aggregate zero contributions")
    dealers = [contribution.dealer for contribution in contributions]
    if len(set(dealers)) != len(dealers):
        raise ValueError("duplicate dealer in aggregation")
    group = directory.pair_group
    width = directory.n + 1
    for contribution in contributions:
        if len(contribution.commitments) != width:
            raise ValueError("malformed contribution (commitment width)")
        if len(contribution.cipher_shares) != directory.n:
            raise ValueError("malformed contribution (cipher width)")
    commitments = tuple(
        group.prod(c.commitments[x] for c in contributions) for x in range(width)
    )
    cipher_shares = tuple(
        group.prod(c.cipher_shares[j] for c in contributions)
        for j in range(directory.n)
    )
    tags = tuple(
        sorted((c.tag for c in contributions), key=lambda tag: tag.dealer)
    )
    return PVSSTranscript(
        commitments=commitments, cipher_shares=cipher_shares, tags=tags
    )


def verify_transcript(
    directory: PublicDirectory,
    transcript: PVSSTranscript,
    min_contributors: int,
) -> bool:
    """Publicly verify an aggregated transcript.

    ``min_contributors`` is ``2f + 1`` for the paper's ``DKGVerify``
    (Definition 1) so at least ``f + 1`` honest dealers contributed.

    Memoized per distinct ``(transcript, min_contributors)``: NWH and
    Gather call ``DKGVerify`` on the same aggregate once per echo path /
    suggestion, and only the first call does the algebra.
    """
    if not isinstance(transcript, PVSSTranscript):
        return False
    return directory.verify_cache.identity_memoize(
        "pvss-transcript",
        transcript,
        (min_contributors,),
        (transcript, min_contributors),
        lambda: _verify_transcript(directory, transcript, min_contributors),
    )


def _verify_transcript(
    directory: PublicDirectory,
    transcript: PVSSTranscript,
    min_contributors: int,
) -> bool:
    dealers = [tag.dealer for tag in transcript.tags]
    if len(set(dealers)) != len(dealers):
        return False
    if len(dealers) < min_contributors:
        return False
    if any(not 0 <= dealer < directory.n for dealer in dealers):
        return False
    group = directory.pair_group
    if not all(group.is_element(tag.secret_commitment) for tag in transcript.tags):
        return False
    combined_secret = group.prod(tag.secret_commitment for tag in transcript.tags)
    if combined_secret != transcript.commitments[0]:
        return False
    return _verify_sharing(
        directory,
        transcript,
        transcript.commitments,
        transcript.cipher_shares,
        transcript.tags,
    )


def _verify_sharing(
    directory: PublicDirectory,
    statement: Any,
    commitments: Sequence[GroupElement],
    cipher_shares: Sequence[GroupElement],
    tags: Iterable[ContributorTag],
) -> bool:
    group = directory.pair_group
    field = group.scalar_field
    n = directory.n
    if len(commitments) != n + 1 or len(cipher_shares) != n:
        return False
    if not all(group.is_element(a) for a in commitments):
        return False
    if not all(group.is_element(s) for s in cipher_shares):
        return False
    # Contributor tags: PoK + dealer signature over the secret commitment
    # (each caller has checked that commitment is an element of G).
    for tag in tags:
        pok_ok = nizk.verify_dlog(
            group,
            group.g,
            tag.secret_commitment,
            tag.pok,
            directory.session,
            tag.dealer,
        )
        if not pok_ok:
            return False
        sig_ok = schnorr.verify(
            directory.sign_group,
            directory.sign_pks[tag.dealer],
            tag.signature,
            "pvss-contrib",
            directory.session,
            tag.dealer,
            group.encode_element(tag.secret_commitment),
        )
        if not sig_ok:
            return False
    # Both Fiat-Shamir seeds below bind the whole ``statement`` (the
    # contribution or transcript the sequences were taken from) through
    # the hash of its wire bytes, which the codec already holds: dealer
    # and tags as well as every commitment and cipher share, for one
    # hash instead of one per element.  No bytes, no challenge: a
    # statement the codec cannot encode is rejected.
    statement_digest = content_digest(statement)
    if statement_digest is None:
        return False
    # SCRAPE low-degree test in the exponent (Fiat-Shamir derandomized).
    seed = hash_bytes("pvss-scrape", directory.session, statement_digest)
    duals = scrape_coefficients(
        field, list(range(n + 1)), directory.f, random.Random(seed)
    )
    check = group.multi_exp(commitments, duals)
    if check != group.identity(commitments[0].kind):
        return False
    # Pairing consistency of every encrypted share with its commitment:
    # e(g, Ŝ_j) == e(epk_j, A_j) for all j, checked as one random-linear-
    # combination batch — Σ r_j errors vanishing for independent 128-bit
    # r_j has probability ≤ 2^-128, exactly the standard BLS12-381 batch
    # argument (and exact in the generic-group simulation).  The r_j are
    # Fiat-Shamir-derived so verification stays deterministic per value.
    rlc_seed = hash_bytes("pvss-rlc", directory.session, statement_digest)
    rlc = random.Random(rlc_seed)
    weights = [rlc.randrange(1, 1 << 128) for _ in range(n)]
    lhs = group.pair(group.g, group.multi_exp(cipher_shares, weights))
    rhs = group.multi_pair(
        zip(group.exp_many(directory.enc_pks, weights), commitments[1:])
    )
    return lhs == rhs

