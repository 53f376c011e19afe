"""KZG-style polynomial commitments over the (simulated) bilinear group.

Section 7.1 notes that the Merkle openings inside the broadcast could be
replaced by constant-size openings "at the cost of a trusted setup and
concretely high proving time".  This module implements that option: a
Kate-Zaverucha-Goldberg polynomial commitment,

* trusted setup: powers ``g^{τ^k}`` for a secret τ (here derived
  deterministically from a seed — *simulation-grade*; a deployment would
  run a ceremony and discard τ);
* commit to values ``v_0..v_{d}``: interpolate ``p`` with ``p(k) = v_k``
  and publish ``C = g^{p(τ)}`` (one word);
* open at ``i``: witness ``w = g^{q(τ)}`` for ``q = (p - p(i))/(x - i)``
  (one word);
* verify: ``e(C · g^{-v_i}, g) = e(w, g^τ · g^{-i})``.

Binding holds because a successful opening at a wrong value would factor
``x - i`` out of a polynomial that is non-zero at ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto.hashing import hash_to_int
from repro.crypto.pairing import BilinearGroup, GroupElement
from repro.crypto.polynomial import (
    Polynomial,
    _divide_by_root,
    interpolate_polynomial,
)
from repro.crypto.verify_cache import VerifyCache


@dataclass(frozen=True)
class KZGOpening:
    """A constant-size opening proof: one group element."""

    witness: GroupElement

    def word_size(self) -> int:
        return 1


class KZGSetup:
    """Trusted powers-of-τ for polynomials of degree ≤ ``capacity - 1``."""

    def __init__(self, group: BilinearGroup, capacity: int, tau: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        tau %= group.order
        if tau == 0:
            tau = 1
        self.group = group
        self.capacity = capacity
        self._powers = []
        acc = 1
        for _ in range(capacity + 1):
            self._powers.append(group.exp(group.g, acc))
            acc = acc * tau % group.order
        self.tau_point = self._powers[1]  # g^τ
        #: Per-setup verification memo (openings are re-checked once per
        #: echo path, like every other proof in the broadcast layer).
        self.verify_cache = VerifyCache()
        # commit() and open_at() interpolate the same value vector; keep
        # the most recent interpolations around (bounded, see _interpolate).
        self._poly_memo: dict[tuple[int, ...], Polynomial] = {}

    @classmethod
    def from_seed(cls, group: BilinearGroup, capacity: int, *seed_parts) -> "KZGSetup":
        """Simulation-grade setup: τ from a hash (a real system runs a ceremony)."""
        tau = hash_to_int("kzg-tau", group.order, capacity, *seed_parts)
        return cls(group, capacity, tau)

    # -- commitment ----------------------------------------------------------------

    def _commit_poly(self, poly: Polynomial) -> GroupElement:
        if poly.degree > self.capacity:
            raise ValueError("polynomial exceeds setup capacity")
        return self.group.multi_exp(self._powers[: len(poly.coeffs)], poly.coeffs)

    def commit(self, values: Sequence[int]) -> GroupElement:
        """Commit to ``values`` as evaluations at points ``0..len-1``."""
        if not values:
            raise ValueError("cannot commit to an empty vector")
        if len(values) > self.capacity:
            raise ValueError("vector exceeds setup capacity")
        poly = self._interpolate(values)
        return self._commit_poly(poly)

    def open_at(self, values: Sequence[int], index: int) -> KZGOpening:
        """Opening proof that the committed vector has ``values[index]`` at ``index``."""
        if not 0 <= index < len(values):
            raise IndexError("index out of range")
        field = self.group.scalar_field
        poly = self._interpolate(values)
        # q(x) = (p(x) - p(i)) / (x - i), by synthetic division at root i.
        shifted = list(poly.coeffs)
        shifted[0] = field.sub(shifted[0], field.element(values[index]))
        if len(shifted) == 1:
            quotient = [0]
        else:
            quotient = _divide_by_root(field.q, shifted, index)
        return KZGOpening(witness=self._commit_poly(Polynomial(field, tuple(quotient))))

    def verify(
        self,
        commitment: GroupElement,
        index: int,
        value: int,
        opening: KZGOpening,
    ) -> bool:
        """Pairing check ``e(C·g^{-v}, g) == e(w, g^{τ-i})`` (memoized)."""
        group = self.group
        if not isinstance(opening, KZGOpening):
            return False
        if not group.is_element(commitment) or not group.is_element(opening.witness):
            return False

        def check() -> bool:
            lhs = group.pair(
                group.mul(commitment, group.inv(group.exp(group.g, value))), group.g
            )
            shift = group.mul(self.tau_point, group.inv(group.exp(group.g, index)))
            rhs = group.pair(opening.witness, shift)
            return lhs == rhs

        return self.verify_cache.memoize(
            "kzg-open", (commitment, index, value, opening), check
        )

    # -- internals -------------------------------------------------------------------

    def _interpolate(self, values: Sequence[int]) -> Polynomial:
        field = self.group.scalar_field
        key = tuple(field.element(v) for v in values)
        memo = self._poly_memo
        poly = memo.get(key)
        if poly is not None:
            return poly
        if len(key) == 1:
            poly = Polynomial(field, (key[0],))
        else:
            poly = interpolate_polynomial(field, list(enumerate(key)))
        if len(memo) >= 256:  # bound the memo; vectors are per-broadcast
            memo.clear()
        memo[key] = poly
        return poly

