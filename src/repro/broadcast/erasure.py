"""Systematic-rate Reed-Solomon erasure coding over GF(2^8).

The Cachin-Tessaro broadcast disperses an ``m``-word message as ``n``
fragments of ``~m/(f+1)`` words such that any ``f+1`` fragments
reconstruct it.  We code over GF(256) (primitive polynomial ``0x11D``,
the field of QR codes and most storage RS codecs), which supports up to
255 fragments — far beyond the party counts any Python simulation of an
``Õ(n³)`` protocol reaches.

``rs_encode`` treats each ``k``-byte block of the (length-prefixed,
zero-padded) message as the coefficients of a degree < k polynomial and
evaluates it at points ``1..n``; ``rs_decode`` Lagrange-interpolates the
coefficients back from any ``k`` fragments.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

_PRIM = 0x11D
_FIELD = 256

_EXP = [0] * 512
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _PRIM
for _i in range(255, 512):
    _EXP[_i] = _EXP[_i - 255]


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(256)")
    return _EXP[255 - _LOG[a]]


@lru_cache(maxsize=256)
def _mul_table(constant: int) -> bytes:
    """A 256-byte ``bytes.translate`` table for multiplication by ``constant``.

    ``data.translate(_mul_table(c))`` multiplies every byte of ``data`` by
    ``c`` in GF(256) at C speed — the whole-column primitive the vectorized
    encoder/decoder below are built from.  At most 255 tables exist, so the
    cache never evicts in practice.
    """
    return bytes(gf_mul(constant, value) for value in range(256))


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR of two equal-length strings (via int arithmetic, C speed)."""
    return (
        int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    ).to_bytes(len(a), "big")


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] ^= gf_mul(ai, bj)
    return out


@lru_cache(maxsize=512)
def _lagrange_matrix(xs: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
    """``matrix[t][i]`` = coefficient ``t`` of the i-th Lagrange basis poly.

    Cached per point set: every party decoding the same broadcast (and
    every broadcast among the same fastest ``k`` senders) reuses it.
    """
    matrix = [[0] * k for _ in range(k)]
    for i, x_i in enumerate(xs):
        basis = [1]
        denominator = 1
        for j, x_j in enumerate(xs):
            if i == j:
                continue
            basis = _poly_mul(basis, [x_j, 1])  # (x + x_j) == (x - x_j) in GF(2^m)
            denominator = gf_mul(denominator, x_i ^ x_j)
        scale = gf_inv(denominator)
        for t in range(k):
            matrix[t][i] = gf_mul(basis[t], scale)
    return tuple(tuple(row) for row in matrix)


def fragment_point(index: int) -> int:
    """The evaluation point for fragment ``index`` (1-based: 0 is reserved)."""
    if not 0 <= index < _FIELD - 1:
        raise ValueError(f"fragment index {index} out of range for GF(256)")
    return index + 1


def rs_encode(data: bytes, k: int, n: int) -> list[bytes]:
    """Encode ``data`` into ``n`` fragments, any ``k`` of which reconstruct it."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if n > _FIELD - 1:
        raise ValueError(f"GF(256) supports at most {_FIELD - 1} fragments")
    prefixed = len(data).to_bytes(4, "big") + data
    if len(prefixed) % k:
        prefixed += b"\x00" * (k - len(prefixed) % k)
    # Each k-byte block is a polynomial; fragment j evaluates every block
    # at point x_j.  Vectorized column-wise: coefficient column i (every
    # i-th byte) is scaled by x_j^i with one translate() and the columns
    # are XOR-folded, so the Python-level work is O(k) per fragment
    # instead of O(len(data)).
    columns = [prefixed[i::k] for i in range(k)]
    fragments = []
    for j in range(n):
        x = fragment_point(j)
        acc = columns[0]
        power = 1
        for i in range(1, k):
            power = gf_mul(power, x)
            acc = _xor_bytes(acc, columns[i].translate(_mul_table(power)))
        fragments.append(acc)
    return fragments


def rs_decode(fragments: Mapping[int, bytes], k: int) -> bytes:
    """Reconstruct the message from ``k`` (or more) fragments.

    ``fragments`` maps fragment index → fragment bytes.  Raises
    ``ValueError`` on inconsistent fragment lengths, too few fragments, or
    a decoded length prefix that does not fit the payload (a malformed
    dealer encoding).
    """
    if len(fragments) < k:
        raise ValueError(f"need at least {k} fragments, got {len(fragments)}")
    chosen = sorted(fragments.items())[:k]
    lengths = {len(frag) for _, frag in chosen}
    if len(lengths) != 1:
        raise ValueError("fragments have inconsistent lengths")
    (block_count,) = lengths
    xs = tuple(fragment_point(index) for index, _ in chosen)
    matrix = _lagrange_matrix(xs, k)
    ys = [frag for _, frag in chosen]
    # Vectorized per coefficient position: out[t::k] = Σ_i matrix[t][i]·ys[i],
    # computed with one translate() per (t, i) pair over whole fragments.
    out = bytearray(block_count * k)
    zero = bytes(block_count)
    for t in range(k):
        row = matrix[t]
        acc = zero
        for i in range(k):
            if row[i]:
                acc = _xor_bytes(acc, ys[i].translate(_mul_table(row[i])))
        out[t::k] = acc
    raw = bytes(out)
    length = int.from_bytes(raw[:4], "big")
    if length > len(raw) - 4:
        raise ValueError("decoded length prefix exceeds payload")
    return raw[4 : 4 + length]
