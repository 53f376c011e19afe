"""Generic-group simulation of a symmetric bilinear pairing.

The aggregatable PVSS of Gurkan et al. [23] — the crypto workhorse of the
paper's Proposal Election — requires a pairing ``e: G × G → GT``.  Real
pairing curves (BLS12-381) are unavailable offline, so this module
implements the standard *generic group* prototyping trick: an element of
``G`` (or ``GT``) is represented by its discrete logarithm with respect to
a fixed generator, which makes the pairing computable::

    e(g^a, g^b) = gT^(a*b)

The public API exposes only group-law operations (``exp``, ``mul``,
``inv``, ``pair``, ``hash_to_group``); honest protocol code never touches
the internal ``log`` field.  Every algebraic identity of the real scheme
holds exactly, element sizes are one word each (as in the paper's
Section 7 accounting), and malformed values are rejected the same way —
only computational hardness is modeled rather than enforced.  DESIGN.md
section 2 records this substitution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Sequence

from repro.crypto.field import PrimeField
from repro.crypto.hashing import hash_bytes, hash_to_int

KIND_G = "G"
KIND_GT = "GT"


@dataclass(frozen=True, slots=True, init=False)
class GroupElement:
    """An element of the simulated source group ``G`` or target group ``GT``.

    ``log`` is an artifact of the generic-group simulation (the discrete
    log w.r.t. the fixed generator); protocol code must treat elements as
    opaque and use :class:`BilinearGroup` operations only.  Slotted: a
    run holds tens of thousands of them, 40 bytes less each.
    """

    kind: str
    log: int

    def __init__(self, kind: str, log: int) -> None:
        # Frozen, so the generated __init__ would store each field through
        # object.__setattr__; the slot descriptors cost half as much, and
        # an n = 16 ADKG builds ~23 000 elements.
        _set_kind(self, kind)
        _set_log(self, log)

    def word_size(self) -> int:
        return 1


_set_kind, _set_log = (GroupElement.__dict__[name].__set__ for name in ("kind", "log"))


class BilinearGroup:
    """A symmetric bilinear group of prime order ``q`` (simulated)."""

    __slots__ = ("q", "scalar_field", "g", "gt", "name", "pair_calls", "_g_encoding")

    def __init__(self, order: int, name: str = "bls-sim") -> None:
        if order < 3:
            raise ValueError("group order must be an odd prime > 2")
        self.q = order
        self.scalar_field = PrimeField(order)
        self.g = GroupElement(KIND_G, 1)
        self.gt = GroupElement(KIND_GT, 1)
        self.name = name
        #: Pairing-operation counter: each :meth:`pair` costs 1, each
        #: :meth:`multi_pair` costs 1 regardless of width (the model of a
        #: shared-Miller-loop product of pairings on a real curve).
        self.pair_calls = 0
        #: ``encode_element(g)``: every DLog proof and check hashes ``g``.
        self._g_encoding = hash_bytes("pair-elem", name, KIND_G, 1)

    def __repr__(self) -> str:
        return f"BilinearGroup(order={self.q:#x})"

    @property
    def generator(self) -> GroupElement:
        return self.g

    @property
    def order(self) -> int:
        return self.q

    def identity(self, kind: str = KIND_G) -> GroupElement:
        return GroupElement(kind, 0)

    # -- group law ---------------------------------------------------------------

    def exp(self, base: GroupElement, exponent: int) -> GroupElement:
        self._check(base)
        return GroupElement(base.kind, base.log * exponent % self.q)

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self._check(a)
        self._check(b)
        if a.kind != b.kind:
            raise ValueError("cannot multiply elements of different groups")
        return GroupElement(a.kind, (a.log + b.log) % self.q)

    def inv(self, a: GroupElement) -> GroupElement:
        self._check(a)
        return GroupElement(a.kind, -a.log % self.q)

    def pair(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """The bilinear map ``e(g^x, g^y) = gT^(x*y)``."""
        self._check(a)
        self._check(b)
        if a.kind != KIND_G or b.kind != KIND_G:
            raise ValueError("pairing arguments must be source-group elements")
        self.pair_calls += 1
        return GroupElement(KIND_GT, a.log * b.log % self.q)

    def multi_pair(self, pairs: Any) -> GroupElement:
        """``Π e(a_i, b_i)`` as one pairing operation.

        On a real curve this is the standard multi-pairing: one shared
        Miller loop plus one final exponentiation, so batched verifiers
        (PVSS dealing checks, threshold-signature aggregation) pay a
        single pairing's latency for the whole product.  The empty
        product is the ``GT`` identity.
        """
        acc = 0
        for a, b in pairs:
            self._check(a)
            self._check(b)
            if a.kind != KIND_G or b.kind != KIND_G:
                raise ValueError("pairing arguments must be source-group elements")
            acc = (acc + a.log * b.log) % self.q
        self.pair_calls += 1
        return GroupElement(KIND_GT, acc)

    def multi(self, pairs: Any) -> GroupElement:
        """Alias for :meth:`multi_pair`."""
        # Tombstone: nothing in the repo calls this; ``perf/trace.py`` (frozen)
        # lists it in TARGETS and the perf tests fail on an unpatched target.
        # Goes when the next benchmark PR drops it from TARGETS (ROADMAP).
        return self.multi_pair(pairs)

    def prod(self, elements: Any) -> GroupElement:
        """Product of a non-empty iterable of same-kind elements, one pass."""
        elements = list(elements)
        return self.multi_exp(elements, [1] * len(elements))

    def multi_exp(
        self, bases: Sequence[GroupElement], exponents: Sequence[int]
    ) -> GroupElement:
        """``Π bases[i]^exponents[i]`` in one pass, one element allocated.

        The kernel every fold in the exponent goes through — SCRAPE and
        random-linear-combination checks and Lagrange combination.  On a real curve it is a multi-scalar multiplication
        (Pippenger); here it is one modular sum, equal to the fold
        ``prod(exp(b, e) ...)`` with the same checks on every base.
        """
        if len(bases) != len(exponents):
            raise ValueError("multi_exp needs one exponent per base")
        kind, acc = None, 0
        for base, exponent in zip(bases, exponents):
            self._check(base)
            if kind is None:
                kind = base.kind
            elif base.kind != kind:
                raise ValueError("cannot multiply elements of different groups")
            acc += base.log * exponent
        if kind is None:
            raise ValueError("empty product")
        return GroupElement(kind, acc % self.q)

    def exp_many(
        self, bases: Sequence[GroupElement], exponents: Sequence[int]
    ) -> tuple[GroupElement, ...]:
        """``(bases[i]^exponents[i] for each i)`` in one call.

        The kernel every element-wise power goes through — a dealing's
        commitments and encrypted shares, the random-linear-combination
        right-hand sides.  On a real curve it is a batch of scalar
        multiplications; here it equals ``[exp(b, e) ...]`` with ``exp``'s
        checks on every base.
        """
        if len(bases) != len(exponents):
            raise ValueError("exp_many needs one exponent per base")
        check, q = self._check, self.q
        powers = []
        for base, exponent in zip(bases, exponents):
            check(base)
            powers.append(GroupElement(base.kind, base.log * exponent % q))
        return tuple(powers)

    # -- sampling and hashing ------------------------------------------------------

    def rand_scalar(self, rng: random.Random) -> int:
        return rng.randrange(self.q)

    def hash_to_group(self, domain: str, *parts: Any) -> GroupElement:
        """Hash to a non-identity element of ``G``.

        In the generic-group model the element is *defined* by its hash
        exponent; the real scheme would use a constant-time hash-to-curve.
        """
        counter = 0
        while True:
            log = hash_to_int(domain, self.q, counter, *parts)
            if log != 0:
                return GroupElement(KIND_G, log)
            counter += 1

    def is_element(self, value: Any, kind: str = KIND_G) -> bool:
        return (
            isinstance(value, GroupElement)
            and value.kind == kind
            and type(value.log) is int
            and 0 <= value.log < self.q
        )

    def encode_element(self, value: GroupElement) -> bytes:
        if value is self.g:
            return self._g_encoding
        self._check(value)
        return hash_bytes("pair-elem", self.name, value.kind, value.log)

    # -- internal -------------------------------------------------------------------

    def _check(self, value: GroupElement) -> None:
        if not isinstance(value, GroupElement):
            raise TypeError(f"expected GroupElement, got {type(value)!r}")
        log = value.log
        if type(log) is not int:
            # A bool log equals an int one and would be a second spelling.
            raise TypeError(f"element log must be an int, got {type(log)!r}")
        if not 0 <= log < self.q:
            raise ValueError("element outside the group")
