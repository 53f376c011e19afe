"""Canonical encoding: determinism, injectivity, type coverage."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.encoding import encode
from repro.crypto.pairing import GroupElement

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.binary(max_size=64),
    st.text(max_size=64),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5),
    ),
    max_leaves=20,
)


@given(values)
def test_encoding_is_deterministic(value):
    assert encode(value) == encode(value)


@given(values, values)
def test_encoding_is_injective_on_samples(a, b):
    normalize = _normalize
    if normalize(a) != normalize(b):
        assert encode(a) != encode(b)


def _normalize(value):
    """Tuples and lists intentionally encode identically."""
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(item) for item in value)
    if isinstance(value, bool):
        return ("bool", value)
    return value


def test_distinguishes_confusable_scalars():
    pairs = [
        (0, False),
        (1, True),
        (b"", ""),
        (b"1", 1),
        ("1", 1),
        (None, 0),
        ((), None),
        ((1, 2), (12,)),
        ((1, (2,)), ((1, 2),)),
        (-5, 5),
    ]
    for a, b in pairs:
        assert encode(a) != encode(b), (a, b)


def test_sets_encode_order_independently():
    assert encode({1, 2, 3}) == encode({3, 1, 2})
    assert encode(frozenset({1, 2})) == encode({2, 1})


def test_rejects_unsupported_types():
    with pytest.raises(TypeError):
        encode(object())
    with pytest.raises(TypeError):
        encode(3.14)
    # Structured values are not this module's business: they are hashed
    # through their codec bytes (verify_cache.content_digest).
    with pytest.raises(TypeError):
        encode(GroupElement("G", 1))
