"""Hash helpers: domain-separated SHA-256, hash-to-int and expansion.

All Fiat-Shamir challenges and VRF output extraction go through this
module, so the domain separation discipline lives in one place.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Any

from repro.crypto.encoding import encode

DIGEST_BYTES = 32


def hash_bytes(domain: str, *parts: Any) -> bytes:
    """SHA-256 of the domain tag plus the canonical encoding of ``parts``."""
    return sha256(b"".join([domain.encode("utf-8"), b"\x00", *map(encode, parts)])).digest()


def hash_to_int(domain: str, modulus: int, *parts: Any) -> int:
    """Hash ``parts`` into ``[0, modulus)``.

    The output is expanded to at least 128 bits beyond the modulus size so
    the modular reduction bias is negligible.
    """
    if modulus <= 1:
        raise ValueError("modulus must be > 1")
    target_bytes = (modulus.bit_length() + 7) // 8 + 16
    raw = expand(domain, target_bytes, *parts)
    return int.from_bytes(raw, "big") % modulus


def expand(domain: str, length: int, *parts: Any) -> bytes:
    """Expand ``parts`` into ``length`` pseudorandom bytes (counter mode)."""
    if length < 0:
        raise ValueError("length must be non-negative")
    seed = hash_bytes(domain, *parts)
    blocks = [
        sha256(seed + counter.to_bytes(4, "big")).digest()
        for counter in range(-(-length // DIGEST_BYTES))
    ]
    return b"".join(blocks)[:length]
