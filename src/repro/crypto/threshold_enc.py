"""Threshold (hybrid) encryption on top of an agreed DKG transcript.

One of the paper's two motivating applications (Section 1): "Threshold
encryption can be used to restrict employees' access to databases or to
decrypt election results."  This module shows the agreed A-DKG transcript
is directly usable for it, with the same no-reconstruction trick as the
threshold VRF:

* **Encrypt** (anyone): ElGamal-in-the-target-group.  Pick ``r``, send
  ``C₁ = g^r`` and XOR the plaintext with a keystream derived from
  ``e(g, A₀)^r = e(g, g)^{r·F(0)}``.
* **Decryption share** (party ``i``): ``e(C₁, Ŝ_i)^{1/esk_i} =
  e(C₁, g)^{F(i)}`` — computed from the party's *encrypted* PVSS share,
  verified publicly against ``A_i`` by a pairing check.
* **Combine** (any ``f+1`` shares): Lagrange in the exponent recovers the
  mask ``e(C₁, g)^{F(0)}`` and hence the keystream.

``f`` shares reveal nothing about the mask (the exponent polynomial has
degree ``f``); tests exercise that operationally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto.hashing import expand
from repro.crypto.keys import PartySecret, PublicDirectory
from repro.crypto.pairing import GroupElement
from repro.crypto.polynomial import lagrange_coefficients
from repro.crypto.pvss import PVSSTranscript

import random


@dataclass(frozen=True)
class Ciphertext:
    """Hybrid ciphertext under the committee's threshold key."""

    c1: GroupElement
    body: bytes

    def word_size(self) -> int:
        return 1 + max(1, (len(self.body) + 31) // 32)


@dataclass(frozen=True)
class DecryptionShare:
    party: int
    value: GroupElement  # e(C1, g)^{F(party+1)} in GT

    def word_size(self) -> int:
        return 1


def _keystream(directory: PublicDirectory, mask: GroupElement, length: int) -> bytes:
    return expand(
        "thresh-enc-keystream",
        length,
        directory.pair_group.encode_element(mask),
    )


def encrypt(
    directory: PublicDirectory,
    transcript: PVSSTranscript,
    plaintext: bytes,
    rng: random.Random,
) -> Ciphertext:
    """Encrypt to the committee whose key is ``transcript.public_key``."""
    group = directory.pair_group
    r = group.rand_scalar(rng) or 1
    c1 = group.exp(group.g, r)
    mask = group.exp(group.pair(group.g, transcript.public_key), r)
    stream = _keystream(directory, mask, len(plaintext))
    body = bytes(p ^ s for p, s in zip(plaintext, stream))
    return Ciphertext(c1=c1, body=body)


def decryption_share(
    directory: PublicDirectory,
    secret: PartySecret,
    transcript: PVSSTranscript,
    ciphertext: Ciphertext,
) -> DecryptionShare:
    """Party's share of the mask, from its *encrypted* PVSS share."""
    group = directory.pair_group
    cipher_share = transcript.cipher_shares[secret.index]
    paired = group.pair(ciphertext.c1, cipher_share)
    inverse = group.scalar_field.inv(secret.enc_sk)
    return DecryptionShare(party=secret.index, value=group.exp(paired, inverse))


def share_valid(
    directory: PublicDirectory,
    transcript: PVSSTranscript,
    ciphertext: Ciphertext,
    share: DecryptionShare,
) -> bool:
    """Public pairing check: ``share == e(C₁, A_party)``."""
    if not isinstance(share, DecryptionShare):
        return False
    if not 0 <= share.party < directory.n:
        return False
    group = directory.pair_group
    if not group.is_element(share.value, kind="GT"):
        return False
    expected = group.pair(ciphertext.c1, transcript.share_commitment(share.party))
    return share.value == expected


def combine(
    directory: PublicDirectory,
    transcript: PVSSTranscript,
    ciphertext: Ciphertext,
    shares: Sequence[DecryptionShare],
) -> bytes:
    """Recover the plaintext from ≥ f+1 distinct verified shares."""
    distinct = {share.party: share for share in shares}
    if len(distinct) < directory.f + 1:
        raise ValueError(
            f"need at least f+1={directory.f + 1} decryption shares, got {len(distinct)}"
        )
    group = directory.pair_group
    field = group.scalar_field
    chosen = sorted(distinct.values(), key=lambda share: share.party)[: directory.f + 1]
    xs = [directory.share_index(share.party) for share in chosen]
    lambdas = lagrange_coefficients(field, xs, at=0)
    mask = group.multi_exp([share.value for share in chosen], lambdas)
    stream = _keystream(directory, mask, len(ciphertext.body))
    return bytes(c ^ s for c, s in zip(ciphertext.body, stream))
