"""Power-law fitting."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.analysis.complexity import fit_power_law, log_log_slope


def test_exact_power_law_recovered():
    xs = [4, 8, 16, 32]
    for exponent in (1.0, 2.0, 3.0, 4.0):
        ys = [7.5 * x**exponent for x in xs]
        fit = fit_power_law(xs, ys)
        assert abs(fit.exponent - exponent) < 1e-9
        assert abs(fit.coefficient - 7.5) < 1e-6
        assert fit.r_squared > 0.999999


def test_noisy_power_law_close():
    rng = random.Random(1)
    xs = list(range(4, 40, 4))
    ys = [3.0 * x**2.5 * rng.uniform(0.9, 1.1) for x in xs]
    fit = fit_power_law(xs, ys)
    assert 2.2 < fit.exponent < 2.8
    assert fit.r_squared > 0.95


def test_log_factor_raises_apparent_exponent():
    """n³ log n data fits slightly above 3 — the 'slack' the benches allow."""
    xs = [4, 8, 16, 32, 64]
    ys = [x**3 * math.log(x) for x in xs]
    fit = fit_power_law(xs, ys)
    assert 3.0 < fit.exponent < 3.8


def test_predict():
    fit = fit_power_law([2, 4, 8], [4, 16, 64])
    assert abs(fit.predict(16) - 256) < 1e-6


def test_log_log_slope_shortcut():
    assert abs(log_log_slope([2, 4, 8], [8, 64, 512]) - 3.0) < 1e-9


def test_input_validation():
    with pytest.raises(ValueError):
        fit_power_law([1], [1])
    with pytest.raises(ValueError):
        fit_power_law([1, 2], [1])
    with pytest.raises(ValueError):
        fit_power_law([0, 2], [1, 2])
    with pytest.raises(ValueError):
        fit_power_law([1, 2], [1, -2])
    with pytest.raises(ValueError):
        fit_power_law([3, 3], [1, 2])


@given(
    st.floats(min_value=0.5, max_value=4.5),
    st.floats(min_value=0.1, max_value=100.0),
)
def test_roundtrip_property(exponent, coefficient):
    xs = [3, 9, 27, 81]
    ys = [coefficient * x**exponent for x in xs]
    fit = fit_power_law(xs, ys)
    assert abs(fit.exponent - exponent) < 1e-6

