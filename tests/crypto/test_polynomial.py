"""Polynomials: evaluation, interpolation, SCRAPE dual-code test."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.field import PrimeField
from repro.crypto.params import get_params
from repro.crypto.polynomial import (
    Polynomial,
    interpolate_polynomial,
    lagrange_coefficients,
    random_polynomial,
    scrape_coefficients,
)

FIELD = PrimeField(get_params("TESTING").q)


def test_evaluate_matches_direct_sum():
    poly = Polynomial(FIELD, (3, 1, 4, 1, 5))
    x = 77
    expected = FIELD.sum(
        FIELD.mul(c, FIELD.pow(x, k)) for k, c in enumerate(poly.coeffs)
    )
    assert poly.evaluate(x) == expected


def test_degree_and_validation():
    assert Polynomial(FIELD, (1, 2, 3)).degree == 2
    with pytest.raises(ValueError):
        Polynomial(FIELD, ())
    with pytest.raises(ValueError):
        Polynomial(FIELD, (FIELD.q,))


def test_add_polynomials():
    a = Polynomial(FIELD, (1, 2))
    b = Polynomial(FIELD, (3, 4, 5))
    total = a.add(b)
    for x in (0, 1, 9, 1234):
        assert total.evaluate(x) == FIELD.add(a.evaluate(x), b.evaluate(x))


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=6), st.integers())
def test_random_polynomial_interpolates_back(degree, seed):
    rng = random.Random(seed)
    poly = random_polynomial(FIELD, degree, rng)
    points = [(x, poly.evaluate(x)) for x in range(1, degree + 2)]
    recovered = interpolate_polynomial(FIELD, points)
    for x in (0, 5, 1000):
        assert recovered.evaluate(x) == poly.evaluate(x)


def test_random_polynomial_fixes_secret():
    rng = random.Random(1)
    poly = random_polynomial(FIELD, 4, rng, secret=42)
    assert poly.evaluate(0) == 42


def test_lagrange_coefficients_sum_property():
    # Interpolating the constant-1 polynomial: coefficients sum to 1.
    xs = [1, 5, 9, 12]
    lambdas = lagrange_coefficients(FIELD, xs, at=0)
    assert FIELD.sum(lambdas) == 1


def test_lagrange_rejects_duplicate_points():
    with pytest.raises(ValueError):
        lagrange_coefficients(FIELD, [1, 1, 2])


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=4), st.integers())
def test_scrape_annihilates_low_degree(degree, seed):
    rng = random.Random(seed)
    n_points = degree + 2 + rng.randrange(5)
    xs = list(range(n_points))
    duals = scrape_coefficients(FIELD, xs, degree, rng)
    poly = random_polynomial(FIELD, degree, rng)
    acc = FIELD.sum(FIELD.mul(c, poly.evaluate(x)) for c, x in zip(duals, xs))
    assert acc == 0


def test_scrape_catches_high_degree():
    rng = random.Random(3)
    degree = 2
    xs = list(range(8))
    rejected = 0
    for trial in range(20):
        duals = scrape_coefficients(FIELD, xs, degree, random.Random(trial))
        bad_poly = random_polynomial(FIELD, degree + 1, rng)
        # Ensure it really has the higher degree term.
        if bad_poly.coeffs[-1] == 0:
            continue
        acc = FIELD.sum(
            FIELD.mul(c, bad_poly.evaluate(x)) for c, x in zip(duals, xs)
        )
        if acc != 0:
            rejected += 1
    assert rejected >= 19


def test_scrape_requires_enough_points():
    with pytest.raises(ValueError):
        scrape_coefficients(FIELD, [0, 1], 1, random.Random(0))


def test_interpolate_polynomial_degree_zero_and_one_early_exits():
    # One point: the constant polynomial.
    constant = interpolate_polynomial(FIELD, [(5, 42)])
    assert constant.coeffs == (42,)
    # Two points: the line through them, trimmed if it degenerates.
    line = interpolate_polynomial(FIELD, [(1, 10), (3, 20)])
    assert line.degree <= 1
    assert line.evaluate(1) == 10 and line.evaluate(3) == 20
    flat = interpolate_polynomial(FIELD, [(1, 9), (2, 9)])
    assert flat.coeffs == (9,)


@pytest.mark.parametrize("count", [3, 5, 8])
def test_interpolate_polynomial_matches_lagrange_at_a_point(count):
    rng = random.Random(count)
    points = [(x, FIELD.rand(rng)) for x in range(count)]
    poly = interpolate_polynomial(FIELD, points)
    assert poly.degree <= count - 1
    for x, y in points:
        assert poly.evaluate(x) == y
    probe = 1234
    lambdas = lagrange_coefficients(FIELD, [x for x, _ in points], probe)
    assert poly.evaluate(probe) == FIELD.sum(
        FIELD.mul(lam, y) for lam, (_, y) in zip(lambdas, points)
    )


def test_interpolation_domain_cache_is_value_safe():
    # Same domain, different values: the cached master polynomial and
    # denominators must not leak one interpolation into the next.
    first = interpolate_polynomial(FIELD, [(0, 1), (1, 2), (2, 3)])
    second = interpolate_polynomial(FIELD, [(0, 7), (1, 100), (2, 4)])
    assert first.evaluate(1) == 2
    assert second.evaluate(1) == 100
