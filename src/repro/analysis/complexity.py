"""Scaling-exponent estimation for the efficiency experiments.

The reproduction brief asks for *shapes*, not absolute numbers: does the
measured word count grow like ``n³`` (Theorems 7-10) or ``n⁴`` (the
baseline)?  ``fit_power_law`` estimates the exponent by least squares in
log-log space and reports an R² so an experiment can check fit quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    coefficient: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.coefficient * x**self.exponent


def log_log_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``."""
    return fit_power_law(xs, ys).exponent


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``y = c · x^e`` by linear regression in log-log space."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("power-law fit requires positive data")
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(y) for y in ys]
    n = len(xs)
    mean_x = sum(log_x) / n
    mean_y = sum(log_y) / n
    ss_xx = sum((lx - mean_x) ** 2 for lx in log_x)
    ss_xy = sum((lx - mean_x) * (ly - mean_y) for lx, ly in zip(log_x, log_y))
    if ss_xx == 0:
        raise ValueError("all x values identical")
    slope = ss_xy / ss_xx
    intercept = mean_y - slope * mean_x
    ss_tot = sum((ly - mean_y) ** 2 for ly in log_y)
    ss_res = sum(
        (ly - (slope * lx + intercept)) ** 2 for lx, ly in zip(log_x, log_y)
    )
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(
        exponent=slope, coefficient=math.exp(intercept), r_squared=r_squared
    )

