#!/usr/bin/env python3
"""Pair a parent checkout against a change on benchmark workloads.

    python scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        [--workload W2 ...] [--pairs 10] [--seed0 S] [--seconds 10] [--layers] \\
        [--append TRAJECTORY.jsonl]

The procedure of the choosing-metrics guide (section 8), as one command: for
each workload in turn and seeds ``S, S+1, ...``, run ``python -m perf.run
--workload W --seed s --seconds N --trace 0`` in both checkouts, alternating
which side goes first, and print one table per workload: for every end-to-end
metric of ``BENCHMARK.json`` each side's median and quartiles, how many pairs
the change won (ties count for neither side), and whether the medians differ
by more than the distance between the parent's own quartiles.  Repeating
``--workload`` pairs a whole must-not-move set with one command.  A gain
may be claimed when the change wins at least nine tenths of the pairs *and*
the medians differ by more than that distance; a regression is a change
median worse than the parent's by more than the metric's bound.

``--layers`` adds one *traced* run per side on the first seed (``--trace
1``, after the pairs, so it perturbs none of them) and prints, parent →
change, every per-layer metric of ``BENCHMARK.json`` that moved: a timing,
rate or ratio by more than 5 %, a count by anything at all.  Where the
saving sits then comes from the same command as the claim.  One run per
side: it locates a difference, it does not establish one.

``--append FILE`` adds one JSON line per workload to FILE: the date, both
checkouts' git shas (and whether the change tree had uncommitted edits),
the seeds, and per end-to-end metric each side's quartiles and the pairs
the change won.  The repository keeps its record in ``TRAJECTORY.jsonl``;
rows are only ever appended.

Each side's runs compile into their own ``PYTHONPYCACHEPREFIX``, a
directory made empty by each invocation outside both checkouts: a stale
in-tree ``__pycache__`` in one checkout would otherwise make its setup look
faster than a fresh clone's.  Before a workload's pairs, each side makes one
untimed warm-up run of it (every run has ``PYTHONDONTWRITEBYTECODE``
removed from its environment), so the prefix holds the bytecode of
everything the workload imports, the standard library's included.  The timed runs then read
warm bytecode and both sides start equal: ``setup_s`` times the program,
not the compiler.  Each appended row names this as its ``procedure``; rows
without one were written cold (an empty prefix every run, or in-tree
bytecode before that).

Every run made is printed, one line per pair.  Exits nonzero if any run
reported incorrect outputs or failed ops.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional


#: What an appended row's runs were: see the module docstring.
PROCEDURE = "alternating pairs, each side's own prefix warmed by one untimed run"

#: Length of the warm-up run: one op per child is all it needs.
WARM_UP_SECONDS = 0.1


def measure(
    checkout: Path,
    pycache: Path,
    workload: str,
    seed: int,
    seconds: float,
    trace: int = 0,
) -> dict:
    """One ``perf.run`` in ``checkout`` (untraced unless ``trace``), its
    bytecode under ``pycache`` whatever ``PYTHONDONTWRITEBYTECODE`` says;
    its result line as a dict."""
    command = [
        sys.executable, "-m", "perf.run", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
    ]  # fmt: skip
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(
        command, cwd=checkout, env=env, capture_output=True, text=True
    )
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


#: Units whose metrics repeat exactly for one seed: any difference is one.
EXACT_UNITS = ("count", "bytes", "words", "rounds")


def moved_layers(declared: list[dict], parent: dict, change: dict) -> list[tuple]:
    """``(name, unit, parent value, change value)`` of every per-layer
    metric that moved between two traced results."""
    rows = []
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        before, after = parent[name]["value"], change[name]["value"]
        if unit in EXACT_UNITS:
            moved = before != after
        else:
            moved = abs(after - before) > 0.05 * abs(before)
        if moved:
            rows.append((name, unit, before, after))
    return rows


def git_state(checkout: Path) -> tuple[Optional[str], Optional[bool]]:
    """``(HEAD sha, tree has uncommitted edits)``; ``None``s outside git."""

    def git(*command: str) -> Optional[str]:
        done = subprocess.run(
            ["git", *command], cwd=checkout, capture_output=True, text=True
        )
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return sha, None if status is None else bool(status)


def trajectory_row(
    workload: str, seeds: range, parent: tuple, change: tuple, readings: dict
) -> dict:
    """One ``--append`` line: ``parent`` / ``change`` are :func:`git_state`
    pairs, ``readings`` maps each end-to-end metric to its :func:`compare`."""
    return {
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "procedure": PROCEDURE,
        "workload": workload,
        "parent_sha": parent[0],
        "change_sha": change[0],
        "change_dirty": change[1],
        "seeds": list(seeds),
        "metrics": {
            name: {
                "parent": list(row["parent"]),
                "change": list(row["change"]),
                "wins": row["wins"],
            }
            for name, row in readings.items()
        },
    }


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument(
        "--workload", action="append", required=True, dest="workloads",
        help="a workload to pair; repeat for several, each gets its own table",
    )  # fmt: skip
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument(
        "--layers", action="store_true",
        help="also one traced run per side: the per-layer metrics that moved",
    )  # fmt: skip
    parser.add_argument(
        "--append", type=Path, metavar="FILE",
        help="append one JSON row per workload to FILE (e.g. TRAJECTORY.jsonl)",
    )  # fmt: skip
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    repeated = sorted({w for w in args.workloads if args.workloads.count(w) > 1})
    if repeated:
        parser.error(f"--workload given twice: {', '.join(repeated)}")
    return args


def pair_workload(
    args: argparse.Namespace, workload: str, contract: dict, caches: dict[str, Path]
) -> tuple[int, dict]:
    """Pair ``workload`` and print its table, each side's bytecode under
    its ``caches`` entry; returns the failed runs and each end-to-end
    metric's :func:`compare` reading."""
    declared = contract["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    values: dict[str, dict[str, list[float]]] = {
        side: {metric["name"]: [] for metric in declared} for side in sides
    }
    failures = 0
    seeds = range(args.seed0, args.seed0 + args.pairs)
    print(
        f"{workload}: {args.pairs} pairs, seeds {seeds[0]}..{seeds[-1]}, "
        f"{args.seconds:g} s runs, parent={args.parent} change={args.change}"
    )
    for side, checkout in sides.items():
        measure(checkout, caches[side], workload, seeds[0], WARM_UP_SECONDS)
    for pair, seed in enumerate(seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        results = {
            side: measure(sides[side], caches[side], workload, seed, args.seconds)
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
    readings = {}
    for metric in declared:
        name = metric["name"]
        row = readings[name] = compare(
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
    if args.layers:
        traced = {
            side: measure(
                checkout, caches[side], workload, seeds[0], args.seconds, trace=1
            )
            for side, checkout in sides.items()
        }
        failures += sum(
            1 for result in traced.values() if not result["correct"] or result["failed"]
        )
        rows = moved_layers(
            contract["per_layer"], traced["parent"]["metrics"], traced["change"]["metrics"]
        )
        print(
            f"per layer, one traced run per side on seed {seeds[0]}: "
            f"{len(rows)} of {len(contract['per_layer'])} metrics moved "
            "(timings by more than 5 %, counts at all)"
        )
        for name, unit, before, after in rows:
            relative = f"{(after - before) / abs(before):+.1%}" if before else "new"
            print(f"  {name:<32} {unit:<6} {before:>14.6g} -> {after:<14.6g} {relative}")
    return failures, readings


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    contract = json.loads((args.parent / "BENCHMARK.json").read_text())
    # Read before any row is appended: the file may sit in the change tree.
    shas = git_state(args.parent), git_state(args.change)
    seeds = range(args.seed0, args.seed0 + args.pairs)
    failures = 0
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        caches = {side: Path(scratch, side) for side in ("parent", "change")}
        for cache in caches.values():
            cache.mkdir()
        for number, workload in enumerate(args.workloads):
            if number:
                print()
            failed, readings = pair_workload(args, workload, contract, caches)
            failures += failed
            if args.append is not None:
                row = trajectory_row(workload, seeds, *shas, readings)
                with args.append.open("a", encoding="utf-8") as trajectory:
                    trajectory.write(json.dumps(row, sort_keys=True) + "\n")
    if failures:
        print(f"FAILED: {failures} runs reported incorrect outputs or failed ops")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
