"""Non-interactive zero-knowledge proofs (Fiat-Shamir).

:func:`prove_dlog` / :func:`verify_dlog` — Schnorr proof of knowledge of
a discrete log, generic over any object implementing the group API
(``generator``, ``order``, ``exp``, ``mul``, ``inv``).  It is the PVSS
contribution's proof of knowledge of the dealt secret.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.crypto.hashing import hash_to_int


@dataclass(frozen=True)
class DlogProof:
    """Proof of knowledge of ``x`` with ``h = base^x``."""

    challenge: int
    response: int

    def word_size(self) -> int:
        return 1


def prove_dlog(group: Any, base: Any, h: Any, x: int, rng: random.Random, *context: Any) -> DlogProof:
    q = group.order
    w = rng.randrange(1, q)
    commitment = group.exp(base, w)
    challenge = hash_to_int("nizk-dlog", q, _enc(group, base), _enc(group, h), _enc(group, commitment), *context)
    response = (w + challenge * x) % q
    return DlogProof(challenge=challenge, response=response)


def verify_dlog(group: Any, base: Any, h: Any, proof: DlogProof, *context: Any) -> bool:
    if not isinstance(proof, DlogProof):
        return False
    q = group.order
    if not (0 <= proof.challenge < q and 0 <= proof.response < q):
        return False
    commitment = group.mul(
        group.exp(base, proof.response),
        group.inv(group.exp(h, proof.challenge)),
    )
    expected = hash_to_int("nizk-dlog", q, _enc(group, base), _enc(group, h), _enc(group, commitment), *context)
    return expected == proof.challenge


def _enc(group: Any, element: Any) -> bytes:
    return group.encode_element(element)
