"""A real Schnorr group: the order-``q`` subgroup of ``Z_p^*`` for ``p = 2q+1``.

This group backs the *real* cryptography in the reproduction — Schnorr
signatures.  Elements are plain ints (quadratic residues
mod ``p``); all operations go through the :class:`SchnorrGroup` object.

The pairing-based PVSS lives in :mod:`repro.crypto.pairing` instead.
"""

from __future__ import annotations

import random
from typing import Any

from repro.crypto.field import PrimeField
from repro.crypto.hashing import hash_bytes, hash_to_int
from repro.crypto.params import GroupParams


class SchnorrGroup:
    """Multiplicative group of order ``q`` inside ``Z_p^*``."""

    __slots__ = ("params", "p", "q", "g", "scalar_field")

    def __init__(self, params: GroupParams) -> None:
        self.params = params
        self.p = params.p
        self.q = params.q
        self.g = params.g
        self.scalar_field = PrimeField(params.q)

    def __repr__(self) -> str:
        return f"SchnorrGroup({self.params.name})"

    @property
    def generator(self) -> int:
        return self.g

    @property
    def identity(self) -> int:
        return 1

    @property
    def order(self) -> int:
        return self.q

    # -- operations ------------------------------------------------------------

    def exp(self, base: int, exponent: int) -> int:
        return pow(base, exponent % self.q, self.p)

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        return pow(a, self.p - 2, self.p)

    def is_element(self, value: Any) -> bool:
        """Membership test: a quadratic residue mod p (and not 0)."""
        if not isinstance(value, int) or not 1 <= value < self.p:
            return False
        return pow(value, self.q, self.p) == 1

    # -- sampling and hashing ----------------------------------------------------

    def rand_scalar(self, rng: random.Random) -> int:
        return rng.randrange(self.q)

    def hash_to_group(self, domain: str, *parts: Any) -> int:
        """Hash into the group by squaring a hash-derived element of Z_p^*.

        Squares of non-zero elements are exactly the order-``q`` subgroup
        when ``p`` is a safe prime, so this is a real (if dlog-relation
        free only heuristically) hash-to-group.
        """
        counter = 0
        while True:
            candidate = hash_to_int(domain, self.p, counter, *parts)
            if candidate > 1:
                return candidate * candidate % self.p
            counter += 1

    def encode_element(self, value: int) -> bytes:
        return hash_bytes("group-elem", self.params.name, value)
