"""The simulated bilinear group: group laws and bilinearity."""

import functools
import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto.pairing import KIND_G, KIND_GT, BilinearGroup, GroupElement
from repro.crypto.params import get_params

GROUP = BilinearGroup(get_params("TESTING").q)
scalars = st.integers(min_value=0, max_value=GROUP.order - 1)


@given(scalars, scalars)
def test_bilinearity(a, b):
    ga = GROUP.exp(GROUP.g, a)
    gb = GROUP.exp(GROUP.g, b)
    assert GROUP.pair(ga, gb) == GROUP.exp(GROUP.gt, a * b % GROUP.order)
    assert GROUP.pair(ga, GROUP.g) == GROUP.exp(GROUP.gt, a)


@given(scalars, scalars, scalars)
def test_pairing_is_bilinear_in_both_slots(a, b, c):
    ga, gb, gc = (GROUP.exp(GROUP.g, x) for x in (a, b, c))
    lhs = GROUP.pair(GROUP.mul(ga, gb), gc)
    rhs = GROUP.mul(GROUP.pair(ga, gc), GROUP.pair(gb, gc))
    assert lhs == rhs


@given(scalars)
def test_inverse_and_identity(a):
    element = GROUP.exp(GROUP.g, a)
    assert GROUP.mul(element, GROUP.inv(element)) == GROUP.identity(KIND_G)
    assert GROUP.mul(element, GROUP.identity(KIND_G)) == element


def test_kind_discipline():
    with pytest.raises(ValueError):
        GROUP.mul(GROUP.g, GROUP.gt)
    with pytest.raises(ValueError):
        GROUP.pair(GROUP.g, GROUP.gt)
    with pytest.raises(TypeError):
        GROUP.exp("junk", 2)
    with pytest.raises(ValueError):
        GROUP.exp(GroupElement(KIND_G, GROUP.order), 2)


def test_prod():
    elements = [GROUP.exp(GROUP.g, k) for k in (1, 2, 3)]
    assert GROUP.prod(elements) == GROUP.exp(GROUP.g, 6)
    with pytest.raises(ValueError):
        GROUP.prod([])


# -- the batch kernels against the folds they replace -----------------------------------

# Negative, in-range, >= q and far-beyond-q exponents (128-bit RLC weights
# and Lagrange coefficients are all three in practice).
exponents = st.one_of(
    st.integers(min_value=-3 * GROUP.order, max_value=3 * GROUP.order),
    st.integers(min_value=-(1 << 160), max_value=1 << 160),
)
terms = st.lists(st.tuples(scalars, exponents), min_size=1, max_size=8)


def _fold(bases, exponents):
    """The fold ``multi_exp`` replaced: ``prod(exp(b, e) ...)`` by iterated ``mul``."""
    return functools.reduce(GROUP.mul, [GROUP.exp(b, e) for b, e in zip(bases, exponents)])


def _raised(call):
    try:
        call()
    except Exception as exc:
        return type(exc)
    return None


@given(st.sampled_from([KIND_G, KIND_GT]), terms)
def test_kernels_equal_the_folds(kind, pairs):
    bases = [GroupElement(kind, log) for log, _ in pairs]
    weights = [weight for _, weight in pairs]
    assert GROUP.multi_exp(bases, weights) == _fold(bases, weights)
    assert GROUP.prod(bases) == functools.reduce(GROUP.mul, bases)


@given(st.lists(st.tuples(scalars, exponents), min_size=2, max_size=6), st.data())
def test_kernels_raise_what_the_folds_raised(pairs, data):
    position = data.draw(st.integers(min_value=0, max_value=len(pairs) - 1))
    bases = [GroupElement(KIND_G, log) for log, _ in pairs]
    weights = [weight for _, weight in pairs]
    for bad in (
        "junk",  # not an element: TypeError
        GroupElement(KIND_G, GROUP.order),  # log out of range: ValueError
        GroupElement(KIND_G, -1),
        GroupElement(KIND_GT, 1),  # mixed kinds: ValueError
    ):
        mutated = [*bases[:position], bad, *bases[position + 1 :]]
        folded = _raised(lambda: _fold(mutated, weights))
        assert folded in (TypeError, ValueError)
        assert _raised(lambda: GROUP.multi_exp(mutated, weights)) is folded
        reduced = _raised(lambda: functools.reduce(GROUP.mul, mutated))
        assert reduced is folded
        assert _raised(lambda: GROUP.prod(mutated)) is reduced


def test_kernels_refuse_empty_and_ragged_inputs():
    with pytest.raises(ValueError, match="empty product"):
        GROUP.multi_exp([], [])
    with pytest.raises(ValueError, match="empty product"):
        GROUP.prod(iter(()))
    with pytest.raises(ValueError):
        GROUP.multi_exp([GROUP.g, GROUP.g], [1])
    with pytest.raises(ValueError):
        GROUP.multi_exp([GROUP.g], [1, 2])


def test_hash_to_group_deterministic_nonidentity():
    a = GROUP.hash_to_group("d", 1)
    assert a == GROUP.hash_to_group("d", 1)
    assert a != GROUP.hash_to_group("d", 2)
    assert a.log != 0
    assert GROUP.is_element(a)


def test_is_element():
    assert GROUP.is_element(GROUP.g)
    assert GROUP.is_element(GROUP.gt, kind=KIND_GT)
    assert not GROUP.is_element(GROUP.gt)
    assert not GROUP.is_element(42)


def test_rand_scalar():
    rng = random.Random(0)
    for _ in range(20):
        assert 0 <= GROUP.rand_scalar(rng) < GROUP.order


def test_encode_distinguishes_kinds():
    assert GROUP.encode_element(GROUP.g) != GROUP.encode_element(GROUP.gt)
