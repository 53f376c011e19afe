"""Network delay models.

The asynchronous model allows arbitrary finite delays; a delay model is
the *benign* part of the scheduler (the adversarial part lives in
:mod:`repro.net.adversary`).  All models draw from the simulation's seeded
RNG so runs are reproducible.
"""

from __future__ import annotations

import math
import random


class DelayModel:
    """Interface: a delivery delay for each (sender, recipient, time)."""

    def delay(self, rng: random.Random, sender: int, recipient: int, time: float) -> float:
        raise NotImplementedError


class FixedDelay(DelayModel):
    """Every message takes exactly ``value`` time units."""

    def __init__(self, value: float = 1.0) -> None:
        if not 0 < value < math.inf:
            raise ValueError(f"delay must be finite and positive, got {value!r}")
        self.value = value

    def delay(self, rng: random.Random, sender: int, recipient: int, time: float) -> float:
        return self.value


class UniformDelay(DelayModel):
    """Uniform in ``[low, high]``."""

    def __init__(self, low: float = 0.5, high: float = 1.5) -> None:
        if not 0 < low <= high < math.inf:
            raise ValueError(f"need 0 < low <= high < inf, got {low!r}, {high!r}")
        self.low = low
        self.high = high

    def delay(self, rng: random.Random, sender: int, recipient: int, time: float) -> float:
        return rng.uniform(self.low, self.high)


class ExponentialDelay(DelayModel):
    """Exponential with the given mean (memoryless network)."""

    def __init__(self, mean: float = 1.0, floor: float = 0.01) -> None:
        if not (0 < mean < math.inf and 0 <= floor < math.inf):
            raise ValueError(
                "need a finite positive mean and a finite floor >= 0, "
                f"got {mean!r}, {floor!r}"
            )
        self.mean = mean
        self.floor = floor

    def delay(self, rng: random.Random, sender: int, recipient: int, time: float) -> float:
        return self.floor + rng.expovariate(1.0 / self.mean)


class HeavyTailDelay(DelayModel):
    """Log-normal delays: mostly fast, occasionally very slow links.

    This is the regime the paper motivates (unstable Internet channels,
    Section 1): timeouts misfire here, event-driven protocols do not.
    """

    def __init__(self, median: float = 1.0, sigma: float = 1.0) -> None:
        if not (0 < median < math.inf and 0 < sigma < math.inf):
            raise ValueError(
                "median and sigma must be finite and positive, "
                f"got {median!r}, {sigma!r}"
            )
        self.median = median
        self.sigma = sigma

    def delay(self, rng: random.Random, sender: int, recipient: int, time: float) -> float:
        return self.median * rng.lognormvariate(0.0, self.sigma)
