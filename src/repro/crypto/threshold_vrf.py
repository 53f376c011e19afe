"""Threshold verifiable random function (Section 2.6.2, Definitions 1-2).

Implements the paper's eight algorithms on top of the aggregatable PVSS:

=================  ==========================================================
``DKGSh``          deal one PVSS contribution (a "DKG share")
``DKGShVerify``    publicly verify a contribution
``DKGAggregate``   fold ≥ 2f+1 contributions into a DKG transcript
                   (ADKG and PE: aggregate checked as one transcript;
                   parts verified only on failure —
                   ``pvss.aggregate_checked``)
``DKGVerify``      verify a transcript carries ≥ 2f+1 valid contributions
``EvalSh``         party ``i``'s VRF evaluation share on a message
``EvalShVerify``   verify an evaluation share against the transcript
``Eval``           combine ``f+1`` shares into the unique evaluation
``EvalVerify``     verify a combined evaluation against the transcript
=================  ==========================================================

Following Gurkan et al.'s VUF, evaluation shares live in the pairing's
target group: party ``i`` computes ``y_i = e(H(m), Ŝ_i)^{1/esk_i} =
e(H(m), g)^{F(i)}`` from its *encrypted* share — no scalar share is ever
decrypted, matching the paper's remark that the DKG needs no
reconstruction algorithm.  Verification of a share is the pairing check
``y_i == e(H(m), A_i)``, so shares need no attached NIZK; the "proof"
component of the paper's interface is the empty tuple.  ``Eval`` combines
shares by Lagrange interpolation in the exponent; ``EvalVerify`` checks
``y == e(H(m), A_0)``.  Uniqueness (Definition 2) holds by construction:
the evaluation is a deterministic function of the transcript and message.

``vrf_output`` hashes the evaluation into a ``2^128``-bounded integer —
the binary string ``{0,1}^λ`` the Proposal Election ranks proposals by
(λ = 128 ≫ 3·log n, satisfying the collision bound of Theorem 3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Sequence

from repro.crypto import pvss
from repro.crypto.hashing import hash_to_int
from repro.crypto.keys import PartySecret, PublicDirectory
from repro.crypto.pairing import GroupElement
from repro.crypto.polynomial import lagrange_coefficients

VRF_OUTPUT_BITS = 128

EMPTY_PROOF: tuple = ()


@dataclass(frozen=True)
class EvalShare:
    """Party ``party``'s share of ``φ(vrf_dkg, message)`` (plus empty proof)."""

    party: int
    value: GroupElement

    def word_size(self) -> int:
        return 1


def DKGSh(
    directory: PublicDirectory, dealer: PartySecret, rng: random.Random
) -> pvss.PVSSContribution:
    """Deal a fresh DKG share (Definition 1's ``DKGSh(sk_i)``)."""
    return pvss.deal(directory, dealer, rng)


def DKGShVerify(
    directory: PublicDirectory, contribution: pvss.PVSSContribution
) -> bool:
    """Verify a DKG share; the dealer's keys are read from the directory."""
    return pvss.verify_contribution(directory, contribution)


def DKGAggregate(
    directory: PublicDirectory, contributions: Sequence[pvss.PVSSContribution]
) -> pvss.PVSSTranscript:
    """Aggregate DKG shares from distinct dealers into a transcript."""
    return pvss.aggregate(directory, contributions)


def DKGVerify(directory: PublicDirectory, transcript: Any) -> bool:
    """Check the transcript carries valid shares from ≥ 2f+1 distinct dealers."""
    return pvss.verify_transcript(directory, transcript, 2 * directory.f + 1)


def _message_point(directory: PublicDirectory, message: Any) -> GroupElement:
    return directory.pair_group.hash_to_group("tvrf-msg", directory.session, message)


def EvalSh(
    directory: PublicDirectory,
    secret: PartySecret,
    transcript: Any,
    message: Any,
) -> EvalShare:
    """Party's evaluation share ``e(H(m), g)^{F(i)}`` from its encrypted share.

    Dispatches on the transcript kind: a fresh-ADKG
    :class:`~repro.crypto.pvss.PVSSTranscript` carries full encrypted
    shares ``Ŝ_i``; a reshared transcript
    (:class:`~repro.crypto.reshare.ReshareTranscript`) carries encrypted
    *deltas* ``Δ_i = epk_i^{F'(i+1) - F'(0)}`` plus the public key, so
    the share is ``e(H(m), Δ_i)^{1/esk_i} · e(H(m), A'_0)``.  Either way
    the result is ``e(H(m), g)^{F(i+1)}`` and verifies via the same
    :func:`EvalShVerify` pairing check against ``share_commitment``.
    """
    group = directory.pair_group
    point = _message_point(directory, message)
    inverse = group.scalar_field.inv(secret.enc_sk)
    deltas = getattr(transcript, "cipher_deltas", None)
    if deltas is not None:
        paired = group.pair(point, deltas[secret.index])
        value = group.mul(
            group.exp(paired, inverse),
            group.pair(point, transcript.public_key),
        )
        return EvalShare(party=secret.index, value=value)
    cipher = transcript.cipher_shares[secret.index]
    paired = group.pair(point, cipher)
    return EvalShare(party=secret.index, value=group.exp(paired, inverse))


def EvalShVerify(
    directory: PublicDirectory,
    transcript: pvss.PVSSTranscript,
    party: int,
    message: Any,
    share: Any,
) -> bool:
    """Pairing check ``share == e(H(m), A_party)`` (memoized per share)."""
    if not isinstance(share, EvalShare) or share.party != party:
        return False
    if not 0 <= party < directory.n:
        return False
    group = directory.pair_group
    if not group.is_element(share.value, kind="GT"):
        return False

    def check() -> bool:
        point = _message_point(directory, message)
        expected = group.pair(point, transcript.share_commitment(party))
        return share.value == expected

    # Identity-first, like the PVSS checks: one multicast share object is
    # verified by n-1 recipients in-process under the same message and
    # transcript, so only the first pays for the content key.
    return directory.verify_cache.identity_memoize(
        "tvrf-evalsh",
        share,
        (message, transcript),
        (share, message, transcript),
        check,
    )


def Eval(
    directory: PublicDirectory,
    transcript: pvss.PVSSTranscript,
    message: Any,
    shares: Sequence[EvalShare],
) -> tuple[GroupElement, tuple]:
    """Combine ≥ f+1 verified shares into the unique evaluation.

    Returns ``(evaluation, proof)`` where the proof is empty — the
    evaluation is pairing-verifiable against the transcript directly.
    """
    distinct = {share.party: share for share in shares}
    if len(distinct) < directory.f + 1:
        raise ValueError(
            f"need at least f+1={directory.f + 1} shares, got {len(distinct)}"
        )
    group = directory.pair_group
    field = group.scalar_field
    chosen = sorted(distinct.values(), key=lambda share: share.party)[: directory.f + 1]
    xs = [directory.share_index(share.party) for share in chosen]
    lambdas = lagrange_coefficients(field, xs, at=0)
    evaluation = group.multi_exp([share.value for share in chosen], lambdas)
    return evaluation, EMPTY_PROOF


def EvalVerify(
    directory: PublicDirectory,
    transcript: pvss.PVSSTranscript,
    message: Any,
    evaluation: Any,
    proof: tuple = EMPTY_PROOF,
) -> bool:
    """Pairing check ``evaluation == e(H(m), A_0)``."""
    del proof  # pairing-verifiable; kept for interface fidelity
    group = directory.pair_group
    if not group.is_element(evaluation, kind="GT"):
        return False
    point = _message_point(directory, message)
    return evaluation == group.pair(point, transcript.public_key)


def vrf_output(directory: PublicDirectory, evaluation: GroupElement) -> int:
    """Extract the λ-bit VRF output ``φ`` from an evaluation."""
    encoded = directory.pair_group.encode_element(evaluation)
    return hash_to_int("tvrf-out", 1 << VRF_OUTPUT_BITS, encoded)

