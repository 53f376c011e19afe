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

from typing import Any, Callable

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


_TAG_INT_NEGATIVE = _TAG_INT + b"-"
_TAG_INT_NON_NEGATIVE = _TAG_INT + b"+"

# The three atom encoders below write their length in place: they run
# ~27 000 times an n = 16 op, and a length of 2**32 or more raises
# OverflowError from ``to_bytes`` instead of a ValueError.


def _encode_int(value: int) -> bytes:
    if value < 0:
        sign, value = _TAG_INT_NEGATIVE, -value
    else:
        sign = _TAG_INT_NON_NEGATIVE
    raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    return sign + len(raw).to_bytes(4, "big") + raw


def _encode_bytes(value: bytes) -> bytes:
    return _TAG_BYTES + len(value).to_bytes(4, "big") + value


def _encode_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _TAG_STR + len(raw).to_bytes(4, "big") + raw


def _encode_seq(value: Any) -> bytes:
    parts = [encode(item) for item in value]
    return _TAG_SEQ + _encode_length(len(parts)) + b"".join(parts)


def _encode_set(value: Any) -> bytes:
    parts = sorted(encode(item) for item in value)
    return _TAG_SET + _encode_length(len(parts)) + b"".join(parts)


#: Exact type -> encoder: one dict lookup per value.  A subclass of a
#: supported type (a ``NamedTuple``, an ``IntEnum``) is encoded as its
#: nearest supported base, as an ``isinstance`` chain would.
_ENCODERS: dict[type, Callable[[Any], bytes]] = {
    type(None): lambda value: _TAG_NONE,
    bool: lambda value: _TAG_TRUE if value else _TAG_FALSE,
    int: _encode_int,
    bytes: _encode_bytes,
    str: _encode_str,
    tuple: _encode_seq,
    list: _encode_seq,
    set: _encode_set,
    frozenset: _encode_set,
}


def encode(value: Any) -> bytes:
    """Canonically encode ``value`` to bytes.

    Raises ``TypeError`` for unsupported types so silent ambiguity is
    impossible.
    """
    encoder = _ENCODERS.get(type(value))
    if encoder is None:
        encoder = next(
            (_ENCODERS[base] for base in type(value).__mro__ if base in _ENCODERS),
            None,
        )
        if encoder is None:
            raise TypeError(f"cannot canonically encode value of type {type(value)!r}")
    return encoder(value)
