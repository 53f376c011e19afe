"""Canonical byte encoding of nested Python values.

Signatures, Fiat-Shamir challenges and Merkle leaves all need a stable,
injective byte representation of what they bind.  ``encode`` maps atoms
(ints, bytes, strings, bools, ``None``) and sequences and sets of them to
bytes such that distinct values never collide.

The format is a simple tag-length-value scheme.  It is not a wire format
and knows no protocol types: it only feeds hash functions their domain
parts — labels, indices, element encodings, digests.  A structured value
(a transcript, an agreement value) has one canonical byte string, its
:mod:`repro.net.codec` encoding; whoever must bind one hashes those
bytes (:func:`repro.crypto.verify_cache.content_digest`) and passes the
digest here.
"""

from __future__ import annotations

from typing import Any

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_BYTES = b"B"
_TAG_STR = b"S"
_TAG_SEQ = b"L"
_TAG_SET = b"E"


def _encode_length(value: int) -> bytes:
    """Encode a non-negative length as 4 big-endian bytes."""
    if value < 0 or value >= 1 << 32:
        raise ValueError(f"length out of range: {value}")
    return value.to_bytes(4, "big")


def _encode_int(value: int) -> bytes:
    sign = b"-" if value < 0 else b"+"
    magnitude = abs(value)
    raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
    return _TAG_INT + sign + _encode_length(len(raw)) + raw


def encode(value: Any) -> bytes:
    """Canonically encode ``value`` to bytes.

    Raises ``TypeError`` for unsupported types so silent ambiguity is
    impossible.
    """
    if value is None:
        return _TAG_NONE
    if value is True:
        return _TAG_TRUE
    if value is False:
        return _TAG_FALSE
    if isinstance(value, int):
        return _encode_int(value)
    if isinstance(value, bytes):
        return _TAG_BYTES + _encode_length(len(value)) + value
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return _TAG_STR + _encode_length(len(raw)) + raw
    if isinstance(value, (tuple, list)):
        parts = [encode(item) for item in value]
        body = b"".join(parts)
        return _TAG_SEQ + _encode_length(len(parts)) + body
    if isinstance(value, (set, frozenset)):
        parts = sorted(encode(item) for item in value)
        body = b"".join(parts)
        return _TAG_SET + _encode_length(len(parts)) + body
    raise TypeError(f"cannot canonically encode value of type {type(value)!r}")
