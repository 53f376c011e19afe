"""Polynomials over a prime field: evaluation, interpolation, SCRAPE test.

Used by the PVSS low-degree check and the threshold VRF's
Lagrange-in-the-exponent combination step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.crypto.field import PrimeField


@dataclass(frozen=True)
class Polynomial:
    """A polynomial ``coeffs[0] + coeffs[1] x + ...`` over ``field``."""

    field: PrimeField
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        for coeff in self.coeffs:
            if not self.field.contains(coeff):
                raise ValueError("coefficient outside the field")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x: int) -> int:
        """Horner evaluation at ``x``."""
        q = self.field.q
        acc = 0
        for coeff in reversed(self.coeffs):
            acc = (acc * x + coeff) % q
        return acc

    def evaluate_many(self, xs: Sequence[int]) -> tuple[int, ...]:
        """``evaluate`` at each point, Horner over the integers with one
        reduction per point (a dealing's points are ``0..n``: small)."""
        q = self.field.q
        coeffs = self.coeffs[::-1]
        values = []
        for x in xs:
            acc = 0
            for coeff in coeffs:
                acc = acc * x + coeff
            values.append(acc % q)
        return tuple(values)

    def add(self, other: "Polynomial") -> "Polynomial":
        if other.field != self.field:
            raise ValueError("field mismatch")
        width = max(len(self.coeffs), len(other.coeffs))
        mine = self.coeffs + (0,) * (width - len(self.coeffs))
        theirs = other.coeffs + (0,) * (width - len(other.coeffs))
        coeffs = tuple(self.field.add(a, b) for a, b in zip(mine, theirs))
        return Polynomial(self.field, coeffs)


def random_polynomial(
    field: PrimeField,
    degree: int,
    rng: random.Random,
    secret: int | None = None,
) -> Polynomial:
    """A uniformly random degree-``degree`` polynomial.

    If ``secret`` is given it becomes the constant term (``f(0)``).
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    constant = field.rand(rng) if secret is None else field.element(secret)
    coeffs = (constant,) + tuple(field.rand(rng) for _ in range(degree))
    return Polynomial(field, coeffs)


@lru_cache(maxsize=4096)
def _inverse_denominators(q: int, points: tuple[int, ...]) -> tuple[int, ...]:
    """``1 / Π_{j≠i} (x_i - x_j) mod q`` for a fixed evaluation domain.

    The O(k²) inner product every Lagrange-style computation needs
    (coefficients, SCRAPE dual codewords), inverted, over the handful of
    domains ADKG actually uses — ``1..f+1``
    subsets for share combination, ``0..n`` for the SCRAPE test — so it
    is cached process-wide, keyed by the domain itself, and no consumer
    pays a modular inversion per call.
    """
    inverses = []
    for i, x_i in enumerate(points):
        d = 1
        for j, x_j in enumerate(points):
            if i != j:
                d = d * (x_i - x_j) % q
        inverses.append(pow(d, -1, q))
    return tuple(inverses)


@lru_cache(maxsize=4096)
def _lagrange_cached(q: int, points: tuple[int, ...], at: int) -> tuple[int, ...]:
    inverses = _inverse_denominators(q, points)
    # Π (at - x_j) over the whole domain; λ_i divides the i-th factor out.
    coefficients = []
    for x_i, inv_i in zip(points, inverses):
        numerator = 1
        for x_j in points:
            if x_j != x_i:
                numerator = numerator * (at - x_j) % q
        coefficients.append(numerator * inv_i % q)
    return tuple(coefficients)


def lagrange_coefficients(
    field: PrimeField, xs: Sequence[int], at: int = 0
) -> tuple[int, ...]:
    """Lagrange coefficients ``λ_i`` such that ``f(at) = Σ λ_i f(xs[i])``.

    The ``xs`` must be distinct field elements.  Results are memoized per
    ``(field, domain, at)``: every view of every ADKG run combines shares
    over the same handful of ``f+1``-subsets of ``1..n``.
    """
    points = tuple(field.element(x) for x in xs)
    if len(set(points)) != len(points):
        raise ValueError("interpolation points must be distinct")
    return _lagrange_cached(field.q, points, field.element(at))


def scrape_coefficients(
    field: PrimeField,
    xs: Sequence[int],
    degree: int,
    rng: random.Random,
) -> tuple[int, ...]:
    """Random dual-code word for the SCRAPE low-degree test.

    For evaluation points ``xs`` and claimed degree bound ``degree``, returns
    coefficients ``c_i`` such that ``Σ c_i f(x_i) = 0`` for *every* polynomial
    ``f`` of degree ≤ ``degree``, while a vector of evaluations that does not
    lie on such a polynomial fails the check with probability ``1 - 1/q``.

    ``c_i = m(x_i) / Π_{j≠i} (x_i - x_j)`` for a random polynomial ``m`` of
    degree ≤ ``len(xs) - degree - 2``.
    """
    count = len(xs)
    if degree < 0 or degree > count - 2:
        raise ValueError("need at least degree + 2 points for a non-trivial test")
    points = tuple(field.element(x) for x in xs)
    if len(set(points)) != len(points):
        raise ValueError("evaluation points must be distinct")
    mask = random_polynomial(field, count - degree - 2, rng)
    q = field.q
    inverses = _inverse_denominators(q, points)
    return tuple(
        mask.evaluate(x_i) * inv_i % q for x_i, inv_i in zip(points, inverses)
    )
