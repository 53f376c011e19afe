"""Schnorr signatures over a real Schnorr group.

Deterministic nonces (hash of secret key and message, RFC-6979 style) keep
the simulator reproducible without weakening unforgeability.  Signatures
are the ``(c, s)`` form: 2 scalars, counted as one word in the paper's
accounting (a word holds a constant number of values).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from repro.crypto.group import SchnorrGroup
from repro.crypto.hashing import hash_to_int


@dataclass(frozen=True)
class SigningKey:
    sk: int
    pk: int


@dataclass(frozen=True)
class Signature:
    c: int
    s: int

    def word_size(self) -> int:
        return 1


def keygen(group: SchnorrGroup, rng: random.Random) -> SigningKey:
    sk = group.rand_scalar(rng)
    return SigningKey(sk=sk, pk=group.exp(group.g, sk))


def sign(group: SchnorrGroup, key: SigningKey, *message: Any) -> Signature:
    """Sign the canonical encoding of ``message``."""
    nonce = hash_to_int("schnorr-nonce", group.q, key.sk, *message)
    if nonce == 0:
        nonce = 1
    commitment = group.exp(group.g, nonce)
    challenge = hash_to_int("schnorr-chal", group.q, commitment, key.pk, *message)
    response = (nonce + challenge * key.sk) % group.q
    return Signature(c=challenge, s=response)


@lru_cache(maxsize=1024, typed=True)
def _is_member(group: SchnorrGroup, pk: int) -> bool:
    """Subgroup membership of a key, remembered by value (keys recur)."""
    return group.is_element(pk)


def verify(group: SchnorrGroup, pk: int, signature: Signature, *message: Any) -> bool:
    """Check a signature on the canonical encoding of ``message``.

    Two modular exponentiations: for ``pk`` in the order-``q`` subgroup
    ``pk^(q-c)`` is ``pk^(-c)``, so ``g^s · pk^(q-c)`` is the commitment
    ``g^s · (pk^c)^(-1)`` without an inversion.
    """
    if not isinstance(signature, Signature):
        return False
    if not (isinstance(pk, int) and _is_member(group, pk)):
        return False
    if not (0 <= signature.c < group.q and 0 <= signature.s < group.q):
        return False
    commitment = group.mul(
        group.exp(group.g, signature.s), group.exp(pk, group.q - signature.c)
    )
    expected = hash_to_int("schnorr-chal", group.q, commitment, pk, *message)
    return expected == signature.c
