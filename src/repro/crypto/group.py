"""A real Schnorr group: the order-``q`` subgroup of ``Z_p^*`` for ``p = 2q+1``.

This group backs the *real* cryptography in the reproduction — Schnorr
signatures.  Elements are plain ints (quadratic residues
mod ``p``); all operations go through the :class:`SchnorrGroup` object.

The pairing-based PVSS lives in :mod:`repro.crypto.pairing` instead.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Any

from repro.crypto.field import PrimeField
from repro.crypto.hashing import hash_bytes, hash_to_int
from repro.crypto.params import GroupParams


class SchnorrGroup:
    """Multiplicative group of order ``q`` inside ``Z_p^*``."""

    __slots__ = ("params", "p", "q", "g", "scalar_field", "_windows")

    def __init__(self, params: GroupParams) -> None:
        self.params = params
        self.p = params.p
        self.q = params.q
        self.g = params.g
        self.scalar_field = PrimeField(params.q)
        #: 8-bit windows of a reduced exponent (:func:`_generator_table`).
        self._windows = (params.q.bit_length() + 7) // 8

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
        if base == self.g and type(base) is int:
            # Fixed base: one table product per 8-bit window of the exponent.
            p, acc = self.p, 1
            rows = _generator_table(p, base, self._windows)
            digits = int.to_bytes(exponent % self.q, self._windows, "little")
            for row, digit in zip(rows, digits):
                acc = acc * row[digit] % p
            return acc
        return pow(base, exponent % self.q, self.p)

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        return pow(a, self.p - 2, self.p)

    def is_element(self, value: Any) -> bool:
        """Membership test: a quadratic residue mod p (and not 0)."""
        if type(value) is not int or not 1 <= value < self.p:
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


@lru_cache(maxsize=8)
def _generator_table(p: int, g: int, windows: int) -> tuple[tuple[int, ...], ...]:
    """``rows[i][d] = g^(d · 256^i) mod p`` for ``i < windows``, ``d < 256``.

    The fixed-base table behind ``exp(g, e)``: a product of one entry per
    byte of ``e`` instead of a square-and-multiply pass.  One table per
    parameter set, process-wide — not kept on the group object, which
    ``schnorr._is_member``'s cache keeps alive.
    """
    rows = []
    for _ in range(windows):
        row = [1]
        for _ in range(255):
            row.append(row[-1] * g % p)
        rows.append(tuple(row))
        g = row[-1] * g % p
    return tuple(rows)
