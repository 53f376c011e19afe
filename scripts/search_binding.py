#!/usr/bin/env python3
"""Search the VRF-blind lag schedules for the one that binds PE least.

    PYTHONPATH=src python scripts/search_binding.py [--n 4]

Theorem 3 says Proposal Election binds (every honest party outputs one
common honest input) with probability α ≥ 1/3 against a worst-case
adversary.  This script searches one rung of that adversary offline: a
scheduler that lags messages by where they go and what instance they
belong to, but never sees a VRF value.  A schedule is up to three chaos
``DelayWindow``s, each ``(extra, path, recipient)``: ``extra``
rounds (4, 19 or 99) on every link into ``recipient`` for the messages of
one Gather broadcast (``("gather", (stage, dealer))``) or one index
broadcast (``(("idx", dealer),)``).  Its score is the share of the first
seeds on which PE, alone under unit delays, does not bind.

The budget is ``SEARCH_BUDGET[n]`` in ``repro/analysis/experiments.py``:
random schedules come first, and the best is then hill-climbed (replace,
add or drop one window; keep a neighbour that scores at least as high).
The script prints the worst schedule as a Python tuple and the budget it
spent.  The tuple is pinned as ``SEARCHED_LAG[n]`` beside it, whose E4
"searched lag" rows replay it on held-out seeds: the regeneration of
EXPERIMENTS.md never searches.
"""

from __future__ import annotations

import argparse
import random

from repro.analysis.experiments import SEARCH_BUDGET, lag_schedule, pe_outcome

EXTRAS = (4.0, 19.0, 99.0)
STAGES = ("vrb", "rb2", "rb3")
#: Windows per schedule, at most.
WINDOWS = 3


def random_window(n: int, rng: random.Random) -> tuple:
    dealer = rng.randrange(n)
    stage = rng.choice(STAGES + ("idx",))
    path = (("idx", dealer),) if stage == "idx" else ("gather", (stage, dealer))
    return (rng.choice(EXTRAS), path, rng.randrange(n))


def neighbour(n: int, schedule: tuple, rng: random.Random) -> tuple:
    """Replace one window, add one (below ``WINDOWS``) or drop one (above one)."""
    moves = ["replace"] + ["add"] * (len(schedule) < WINDOWS) + ["drop"] * (len(schedule) > 1)
    move = rng.choice(moves)
    where = rng.randrange(len(schedule))
    if move == "add":
        return schedule + (random_window(n, rng),)
    if move == "drop":
        return schedule[:where] + schedule[where + 1 :]
    return schedule[:where] + (random_window(n, rng),) + schedule[where + 1 :]


def score(n: int, schedule: tuple, seeds: range) -> float:
    """The share of ``seeds`` on which PE under ``schedule`` does not bind."""
    chaos = lag_schedule(n, schedule)
    return sum(not pe_outcome(n, seed, chaos=chaos)[1] for seed in seeds) / len(seeds)


def search(n: int) -> tuple:
    randoms, steps, seeds = SEARCH_BUDGET[n]
    rng = random.Random(f"search-binding-{n}")
    scored = range(seeds)
    best, best_score = None, -1.0
    for _ in range(randoms):
        schedule = tuple(random_window(n, rng) for _ in range(rng.randint(1, WINDOWS)))
        value = score(n, schedule, scored)
        if value > best_score:
            best, best_score = schedule, value
            print(f"random  {value:.3f} {schedule}", flush=True)
    for step in range(steps):
        candidate = neighbour(n, best, rng)
        value = score(n, candidate, scored)
        if value >= best_score:
            if value > best_score:
                print(f"step {step:>3} {value:.3f} {candidate}", flush=True)
            best, best_score = candidate, value
    return best, best_score


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=4, choices=sorted(SEARCH_BUDGET))
    n = parser.parse_args(argv).n
    randoms, steps, seeds = SEARCH_BUDGET[n]
    best, value = search(n)
    print(f"worst schedule at n = {n}: non-binding {value:.3f} on seeds 0..{seeds - 1}")
    print(f"budget: {randoms + steps} schedules x {seeds} seeds x n = {n}")
    print(repr(best))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
