#!/usr/bin/env python3
"""Pair a parent checkout against a change on one benchmark workload.

    python scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        [--pairs 10] [--seed0 S] [--seconds 10]

The procedure of the choosing-metrics guide (section 8), as one command: for
seeds ``S, S+1, ...`` run ``python -m perf.run --workload W --seed s --seconds
N --trace 0`` in both checkouts, alternating which side goes first, and print
for every end-to-end metric of ``BENCHMARK.json`` each side's median and
quartiles, how many pairs the change won (ties count for neither side), and
whether the medians differ by more than the distance between the parent's own
quartiles.  A gain may be claimed when the change wins at least nine tenths of
the pairs *and* the medians differ by more than that distance; a regression is
a change median worse than the parent's by more than the metric's bound.

Every run made is printed, one line per pair.  Exits nonzero if any run
reported incorrect outputs or failed ops.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional


def measure(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perf.run`` in ``checkout``; its result line as a dict."""
    command = [
        sys.executable, "-m", "perf.run", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
    ]  # fmt: skip
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: perf.run printed nothing:\n{done.stderr}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SystemExit(f"{checkout}: perf.run failed:\n{done.stdout}{done.stderr}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; all three are the value when there is one."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(
    parent: list[float], change: list[float], better: str, bound: float
) -> dict:
    """The section-8 reading of one metric over paired runs."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    parent_q, change_q = quartiles(parent), quartiles(change)
    gain = sign * (change_q[1] - parent_q[1])  # > 0: the change reads better
    beyond_spread = abs(gain) > parent_q[2] - parent_q[0]
    if gain > 0 and beyond_spread and wins >= 0.9 * len(parent):
        verdict = "gain"
    elif parent_q[1] and -gain / abs(parent_q[1]) > bound:
        verdict = "WORSE THAN BOUND"
    else:
        verdict = "within bound"
    return {
        "parent": parent_q,
        "change": change_q,
        # ``+ 0.0`` turns a negative zero into zero for printing.
        "relative": (gain / abs(parent_q[1]) if parent_q[1] else 0.0) + 0.0,
        "wins": wins,
        "beyond_spread": beyond_spread,
        "verdict": verdict,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    contract = json.loads((args.parent / "BENCHMARK.json").read_text())
    declared = contract["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    values: dict[str, dict[str, list[float]]] = {
        side: {metric["name"]: [] for metric in declared} for side in sides
    }
    failures = 0
    seeds = range(args.seed0, args.seed0 + args.pairs)
    print(
        f"{args.workload}: {args.pairs} pairs, seeds {seeds[0]}..{seeds[-1]}, "
        f"{args.seconds:g} s runs, parent={args.parent} change={args.change}"
    )
    for pair, seed in enumerate(seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        results = {
            side: measure(sides[side], args.workload, seed, args.seconds)
            for side in order
        }
        cells = []
        for side in sides:
            result = results[side]
            for name, series in values[side].items():
                series.append(result["metrics"][name]["value"])
            if not result["correct"] or result["failed"]:
                failures += 1
            cells.append(
                f"{side} op_wall_s {result['metrics']['op_wall_s']['value']:.4f} "
                f"({result['failed']}/{result['attempted']} ops failed)"
            )
        print(f"  seed {seed} ({order[0]} first): " + "; ".join(cells), flush=True)

    print(
        f"{'metric':<14} {'unit':<6} {'parent q1 / median / q3':<32} "
        f"{'change q1 / median / q3':<32} {'change':>8} {'wins':>7}  > parent IQR  verdict"
    )
    for metric in declared:
        name = metric["name"]
        row = compare(
            values["parent"][name], values["change"][name],
            metric["better"], metric["bound"],
        )  # fmt: skip
        spans = [
            " / ".join(f"{value:.6g}" for value in row[side]) for side in sides
        ]
        print(
            f"{name:<14} {metric['unit']:<6} {spans[0]:<32} {spans[1]:<32} "
            f"{row['relative']:>+8.1%} {row['wins']:>3}/{args.pairs:<3}  "
            f"{'yes' if row['beyond_spread'] else 'no':<12} {row['verdict']}"
        )
    print("(change column: relative difference of medians, positive = better)")
    if args.pairs < 10:
        print("(fewer than ten pairs: the verdicts are indicative, not a claim)")
    if failures:
        print(f"FAILED: {failures} runs reported incorrect outputs or failed ops")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
