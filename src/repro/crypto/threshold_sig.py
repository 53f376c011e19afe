"""Threshold signatures on top of an agreed DKG transcript.

The paper's third motivating application (Section 1): threshold
signatures "reduce the complexity of consensus algorithms" and implement
random beacons.  This is the BLS-shaped scheme over the simulated
pairing, using the same no-reconstruction trick as the threshold VRF:

* signature share of party ``i`` on ``m``: ``σ_i = e(H(m), Ŝ_i)^{1/esk_i}
  = e(H(m), g)^{F(i)}`` — from the *encrypted* PVSS share;
* share verification: pairing check against the public ``A_i``;
* combination: Lagrange in the exponent gives ``σ = e(H(m), g)^{F(0)}``;
* signature verification: ``σ == e(H(m), A₀)`` — against the group
  public key only.

Signatures are unique (deterministic in transcript + message), which is
exactly what consensus protocols want from a threshold signature.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Sequence

from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import PartySecret, PublicDirectory
from repro.crypto.pairing import GroupElement
from repro.crypto.polynomial import lagrange_coefficients
from repro.crypto.pvss import PVSSTranscript


@dataclass(frozen=True)
class SignatureShare:
    party: int
    value: GroupElement  # GT element

    def word_size(self) -> int:
        return 1


@dataclass(frozen=True)
class ThresholdSignature:
    value: GroupElement  # GT element

    def word_size(self) -> int:
        return 1


def _message_point(directory: PublicDirectory, message: Any) -> GroupElement:
    return directory.pair_group.hash_to_group(
        "tsig-msg", directory.session, message
    )


def sign_share(
    directory: PublicDirectory,
    secret: PartySecret,
    transcript: PVSSTranscript,
    message: Any,
) -> SignatureShare:
    """Party's signature share on ``message``."""
    group = directory.pair_group
    point = _message_point(directory, message)
    cipher = transcript.cipher_shares[secret.index]
    paired = group.pair(point, cipher)
    inverse = group.scalar_field.inv(secret.enc_sk)
    return SignatureShare(party=secret.index, value=group.exp(paired, inverse))


def share_valid(
    directory: PublicDirectory,
    transcript: PVSSTranscript,
    message: Any,
    share: Any,
) -> bool:
    """Public check ``share == e(H(m), A_party)`` (memoized per share)."""
    if not isinstance(share, SignatureShare):
        return False
    if not 0 <= share.party < directory.n:
        return False
    group = directory.pair_group
    if not group.is_element(share.value, kind="GT"):
        return False

    def check() -> bool:
        point = _message_point(directory, message)
        return share.value == group.pair(
            point, transcript.share_commitment(share.party)
        )

    return directory.verify_cache.memoize(
        "tsig-share", (share, message, transcript), check
    )


def batch_share_valid(
    directory: PublicDirectory,
    transcript: PVSSTranscript,
    message: Any,
    shares: Sequence[Any],
) -> bool:
    """Check ``share_i == e(H(m), A_i)`` for all shares as one pairing.

    Random-linear-combination batching: with independent 128-bit weights
    ``r_i``, ``Π share_i^{r_i} == e(H(m), Π A_i^{r_i})`` accepts a batch
    containing an invalid share with probability ≤ 2^-128 (the standard
    generic-group / BLS batch argument).  Aggregators use it to validate
    a whole quorum of shares before ``combine`` at the cost of a single
    pairing instead of one per share; on ``False`` fall back to
    :func:`share_valid` per share to identify the culprit.
    """
    shares = list(shares)
    if not shares:
        return True
    group = directory.pair_group
    for share in shares:
        if not isinstance(share, SignatureShare):
            return False
        if not 0 <= share.party < directory.n:
            return False
        if not group.is_element(share.value, kind="GT"):
            return False

    def check() -> bool:
        point = _message_point(directory, message)
        seed = hash_bytes(
            "tsig-batch",
            directory.session,
            tuple((s.party, group.encode_element(s.value)) for s in shares),
        )
        rlc = random.Random(seed)
        weights = [rlc.randrange(1, 1 << 128) for _ in shares]
        combined = group.multi_exp([share.value for share in shares], weights)
        expected = group.pair(
            point,
            group.multi_exp(
                [transcript.share_commitment(share.party) for share in shares],
                weights,
            ),
        )
        return combined == expected

    return directory.verify_cache.memoize(
        "tsig-batch", (tuple(shares), message, transcript), check
    )


def combine(
    directory: PublicDirectory,
    transcript: PVSSTranscript,
    message: Any,
    shares: Sequence[SignatureShare],
) -> ThresholdSignature:
    """Combine ≥ f+1 distinct shares into the unique threshold signature."""
    distinct = {share.party: share for share in shares}
    if len(distinct) < directory.f + 1:
        raise ValueError(
            f"need at least f+1={directory.f + 1} signature shares, got {len(distinct)}"
        )
    group = directory.pair_group
    field = group.scalar_field
    chosen = sorted(distinct.values(), key=lambda share: share.party)[: directory.f + 1]
    xs = [directory.share_index(share.party) for share in chosen]
    lambdas = lagrange_coefficients(field, xs, at=0)
    value = group.multi_exp([share.value for share in chosen], lambdas)
    return ThresholdSignature(value=value)


def verify(
    directory: PublicDirectory,
    transcript: PVSSTranscript,
    message: Any,
    signature: Any,
) -> bool:
    """Verify against the group public key: ``σ == e(H(m), A₀)`` (memoized)."""
    if not isinstance(signature, ThresholdSignature):
        return False
    group = directory.pair_group
    if not group.is_element(signature.value, kind="GT"):
        return False

    def check() -> bool:
        point = _message_point(directory, message)
        return signature.value == group.pair(point, transcript.public_key)

    return directory.verify_cache.memoize(
        "tsig-verify", (signature, message, transcript), check
    )

