"""Correcting timings for the speed of the host at the moment they were taken.

The reference host is a 2-vCPU VM shared with neighbours: for seconds to
minutes at a time *all* code on it runs 1.2-1.8x slower, and the phases last
as long as a benchmark run.  Raw wall clock then spreads 10-35 % between
identical runs and drifts 20 % between two sets of runs — no bound could tell
a regression from the neighbour.  More samples or medians do not help against
a disturbance that outlasts the run.

So the benchmark measures the host too.  ``reading()`` times a short, fixed
kernel of the benchmark's own — interpreter arithmetic, dict and tuple
traffic, the mix the program is made of, and no program code, so a change to
the program cannot move it.  It is taken before and after every op (and
around set-up), and a timing is reported as

    seconds measured x REFERENCE_PROBE_S / mean probe reading around it

that is, in seconds *of a host that runs the probe in ``REFERENCE_PROBE_S``*
(the reference host when nobody else is on the core).  On a quiet reference
host the correction is 1; where the host is disturbed, the probe slows by the
same factor as the op (measured: within 5 %) and the quotient stays put.  On
other hardware every timing is scaled by one constant, which no comparison
between two commits on that hardware sees.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Iterable

#: What ``reading()`` returns on the reference host when it is quiet.
REFERENCE_PROBE_S = 0.030


def reading() -> float:
    """Seconds the probe kernel takes right now."""
    start = perf_counter()
    table: dict[int, tuple[int, int]] = {}
    total = 0
    for i in range(240_000):
        total += i * i % 7
        table[i & 1023] = (i, total)
    return perf_counter() - start


def corrected(seconds: float, readings: Iterable[float]) -> float:
    """``seconds`` as the quiet reference host would have taken them."""
    return seconds * REFERENCE_PROBE_S / statistics.fmean(readings)
