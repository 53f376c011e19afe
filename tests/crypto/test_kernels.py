"""The dealing, signing and hashing kernels against the code they replaced.

Every kernel returns what the step-by-step code returned, to the byte:
``hash_bytes`` / ``expand`` / ``hash_to_int`` against test-local copies of
the per-part versions (and of the ``isinstance``-chain encoder under
them), the fixed-base generator table against ``pow``, ``exp_many``
against a comprehension of ``exp`` calls, ``evaluate_many`` against
``evaluate`` and the element-encoding memo against a fresh hash.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.field import PrimeField
from repro.crypto.group import SchnorrGroup
from repro.crypto.hashing import expand, hash_bytes, hash_to_int
from repro.crypto.pairing import KIND_G, KIND_GT, BilinearGroup, GroupElement
from repro.crypto.params import PRESETS, get_params
from repro.crypto.polynomial import random_polynomial

Q = get_params("TESTING").q
GROUP = BilinearGroup(Q)


# -- hashing -------------------------------------------------------------------------------


def _encode(value) -> bytes:
    """The canonical encoder as an ``isinstance`` chain, one value at a time."""
    if value is None:
        return b"N"
    if value is True:
        return b"T"
    if value is False:
        return b"F"
    if isinstance(value, int):
        magnitude = abs(value)
        raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
        return b"I" + (b"-" if value < 0 else b"+") + len(raw).to_bytes(4, "big") + raw
    if isinstance(value, bytes):
        return b"B" + len(value).to_bytes(4, "big") + value
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + len(raw).to_bytes(4, "big") + raw
    if isinstance(value, (tuple, list)):
        parts = [_encode(item) for item in value]
        return b"L" + len(parts).to_bytes(4, "big") + b"".join(parts)
    if isinstance(value, (set, frozenset)):
        parts = sorted(_encode(item) for item in value)
        return b"E" + len(parts).to_bytes(4, "big") + b"".join(parts)
    raise TypeError(f"cannot canonically encode value of type {type(value)!r}")


def _hash_bytes(domain, *parts):
    hasher = hashlib.sha256()
    hasher.update(domain.encode("utf-8"))
    hasher.update(b"\x00")
    for part in parts:
        hasher.update(_encode(part))
    return hasher.digest()


def _expand(domain, length, *parts):
    seed = _hash_bytes(domain, *parts)
    blocks, counter = [], 0
    while sum(len(block) for block in blocks) < length:
        blocks.append(hashlib.sha256(seed + counter.to_bytes(4, "big")).digest())
        counter += 1
    return b"".join(blocks)[:length]


def _hash_to_int(domain, modulus, *parts):
    target = (modulus.bit_length() + 7) // 8 + 16
    return int.from_bytes(_expand(domain, target, *parts), "big") % modulus


atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 300), max_value=1 << 300),
    st.binary(max_size=40),
    st.text(max_size=12),
)
parts = st.lists(
    st.recursive(
        atoms,
        lambda children: st.one_of(
            st.lists(children, max_size=4).map(tuple),
            st.lists(children, max_size=4),
            st.frozensets(atoms, max_size=4),
        ),
        max_leaves=12,
    ),
    max_size=4,
)


@given(st.text(max_size=12), parts)
@settings(max_examples=80)
def test_hashing_equals_the_per_part_code(domain, values):
    assert hash_bytes(domain, *values) == _hash_bytes(domain, *values)
    for length in (0, 1, 31, 32, 33, 100):
        assert expand(domain, length, *values) == _expand(domain, length, *values)
    for modulus in (2, Q, 1 << 256):
        assert hash_to_int(domain, modulus, *values) == _hash_to_int(domain, modulus, *values)


def test_hashing_subclasses_and_unencodable_parts():
    class Label(str):
        pass

    class Index(int):
        pass

    for value in (Label("pvss"), Index(7), (Label("a"), Index(-3)), {1, 2}):
        assert hash_bytes("t", value) == _hash_bytes("t", value)
    for bad in (1.5, object(), (1, {"a": 1})):
        with pytest.raises(TypeError):
            hash_bytes("t", bad)


# -- the Schnorr group's fixed-base table ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_generator_powers_equal_pow(name):
    group = SchnorrGroup(get_params(name))
    q, p, g = group.q, group.p, group.g
    rng = random.Random(name)
    for exponent in (0, 1, q - 1, q, q + 1, -1, (1 << 64) + 3, *(rng.randrange(-q * q, q * q) for _ in range(40))):
        assert group.exp(g, exponent) == pow(g, exponent % q, p)
        base = group.exp(g, 5)  # not the generator: square-and-multiply
        assert group.exp(base, exponent) == pow(base, exponent % q, p)


# -- dealing --------------------------------------------------------------------------------


def _exp_each(bases, exponents):
    return [GROUP.exp(base, exponent) for base, exponent in zip(bases, exponents)]


def _raised(call):
    try:
        call()
    except Exception as exc:
        return type(exc)
    return None


exponents = st.integers(min_value=-(1 << 160), max_value=1 << 160)


@given(st.lists(st.tuples(st.sampled_from([KIND_G, KIND_GT]), st.integers(0, Q - 1), exponents), max_size=8))
def test_exp_many_equals_exp_each(terms):
    bases = [GroupElement(kind, log) for kind, log, _ in terms]
    weights = [weight for _, _, weight in terms]
    assert list(GROUP.exp_many(bases, weights)) == _exp_each(bases, weights)


def test_exp_many_raises_what_exp_raises():
    assert GROUP.exp_many([], []) == ()
    for bad in ("junk", GroupElement(KIND_G, Q), GroupElement(KIND_G, -1)):
        bases = [GROUP.g, bad, GROUP.gt]
        expected = _raised(lambda: _exp_each(bases, [2, 3, 4]))
        assert expected in (TypeError, ValueError)
        assert _raised(lambda: GROUP.exp_many(bases, [2, 3, 4])) is expected
    for ragged in (([GROUP.g, GROUP.g], [1]), ([GROUP.g], [1, 2])):
        with pytest.raises(ValueError):
            GROUP.exp_many(*ragged)


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=1 << 30))
@settings(max_examples=40)
def test_evaluate_many_equals_evaluate(degree, seed):
    field = PrimeField(Q)
    poly = random_polynomial(field, degree, random.Random(seed))
    points = [*range(20), Q - 1, Q, Q + 5, 1 << 90]
    assert poly.evaluate_many(points) == tuple(poly.evaluate(x) for x in points)


# -- element encoding ------------------------------------------------------------------------


@given(st.sampled_from([KIND_G, KIND_GT]), st.integers(0, Q - 1))
def test_encode_element_equals_a_fresh_hash(kind, log):
    element = GroupElement(kind, log)
    assert GROUP.encode_element(element) == hash_bytes("pair-elem", GROUP.name, kind, log)
    other = BilinearGroup(Q, name="bls-sim-2")
    assert other.encode_element(element) != GROUP.encode_element(element)


def test_the_generator_encoding_is_its_hash():
    for group in (GROUP, BilinearGroup(Q, name="bls-sim-2")):
        assert group.encode_element(group.g) == hash_bytes("pair-elem", group.name, KIND_G, 1)
        assert group.encode_element(GroupElement(KIND_G, 1)) == group.encode_element(group.g)


def test_a_bool_log_is_no_element():
    element = GroupElement(KIND_G, True)
    for operation in (
        lambda: GROUP.encode_element(element),
        lambda: GROUP.exp(element, 2),
        lambda: GROUP.mul(element, GROUP.g),
        lambda: GROUP.pair(element, GROUP.g),
        lambda: GROUP.multi_exp([element], [2]),
        lambda: GROUP.exp_many([element], [2]),
    ):
        with pytest.raises(TypeError, match="log must be an int"):
            operation()
