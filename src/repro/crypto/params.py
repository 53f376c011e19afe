"""Named cryptographic parameter presets.

Each preset fixes a safe prime ``p = 2q + 1``, the subgroup order ``q``
and a generator ``g`` of the order-``q`` subgroup of ``Z_p^*``.  The same
``q`` is reused as the scalar field of the simulated bilinear group so
signatures and PVSS shares live over one field.

The primes were generated by a deterministic Miller-Rabin search (seeded
by the bit size); ``tests/crypto/test_params.py`` re-verifies primality
and the safe-prime relation at import-scale sizes.

Presets
-------
``TESTING``  64-bit — fastest; the default of every driver, the tests, the
             experiments and the benchmark.
``FAST``     128-bit — a middle size, selected by name.
``STANDARD`` 256-bit — what a deployment of this simulation layer would
             use; still far below the 2048-bit+ moduli of a production
             Schnorr group, which matters for security, not for the word
             counts and protocol behaviour this reproduction measures.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GroupParams:
    """A safe-prime group: ``p = 2q + 1``, ``g`` generates the order-``q`` subgroup."""

    name: str
    p: int
    q: int
    g: int
    security_bits: int

    def __post_init__(self) -> None:
        if self.p != 2 * self.q + 1:
            raise ValueError(f"{self.name}: p != 2q + 1")
        if pow(self.g, self.q, self.p) != 1 or self.g == 1:
            raise ValueError(f"{self.name}: g does not generate the order-q subgroup")


TESTING = GroupParams(
    name="TESTING",
    p=0xABA5ABD8BECC230B,
    q=0x55D2D5EC5F661185,
    g=0x4,
    security_bits=64,
)

FAST = GroupParams(
    name="FAST",
    p=0xBA7C68AB3EAE6A8F5C13962C8874B533,
    q=0x5D3E34559F573547AE09CB16443A5A99,
    g=0x4,
    security_bits=128,
)

STANDARD = GroupParams(
    name="STANDARD",
    p=0xF2B19788485432E856C0EA5A5F416206E341DD3A152A90D0D39C2273DE2DF0B7,
    q=0x7958CBC4242A19742B60752D2FA0B10371A0EE9D0A95486869CE1139EF16F85B,
    g=0x4,
    security_bits=256,
)

PRESETS = {params.name: params for params in (TESTING, FAST, STANDARD)}


def get_params(name: str) -> GroupParams:
    """Look up a preset by name (case-insensitive)."""
    key = name.upper()
    if key not in PRESETS:
        raise KeyError(f"unknown parameter preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[key]
