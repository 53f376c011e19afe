#!/usr/bin/env python3
"""Pair a parent checkout against a change on cold ADKG runs at n >= 25.

    python scripts/scale.py PARENT_DIR CHANGE_DIR [--scale NAME ...] \\
        [--pairs 5] [--seed0 S] [--append TRAJECTORY.jsonl]

The six benchmark workloads stop at n = 16; this is the judge for the sizes
the paper's Õ(n³) is about.  A scale is one op: a fresh ``TrustedSetup``
and one ``run_adkg`` on it, in a new Python process, timed together as
``perf/workloads.py`` times its ADKG op, the simulator metering bytes as
``adkg_sim_n16`` does:

    scale_sim_n25   n = 25 on the simulator
    scale_sim_n50   n = 50 on the simulator
    scale_tcp_n25   n = 25 over loopback TCP

(n = 100 on the simulator is ``--scale scale_sim_n100``, by hand: a few
minutes per op.)  For each scale in turn, each side makes one untimed
warm-up op, then the sides alternate, op for op, on seeds ``S, S+1, ...``,
which side goes first alternating too.  Each side compiles into its own
empty ``PYTHONPYCACHEPREFIX``, as in ``scripts/perf_pairs.py``, whose
quartiles, verdict (:func:`perf_pairs.compare`: a gain needs nine tenths
of the pairs and medians further apart than the parent's quartiles) and
``--append`` row format this reuses.  Metrics: ``op_wall_s`` (bound from
``BENCHMARK.json``) and ``words_per_op``, which must repeat exactly.

Exits nonzero if any op raised or its honest parties did not agree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from perf_pairs import compare, git_state, trajectory_row  # noqa: E402

#: Scale name -> (n, transport).
SCALES = {
    "scale_sim_n25": (25, "sim"),
    "scale_sim_n50": (50, "sim"),
    "scale_tcp_n25": (25, "tcp"),
    "scale_sim_n100": (100, "sim"),
}
DEFAULT_SCALES = ("scale_sim_n25", "scale_sim_n50", "scale_tcp_n25")

#: One op, run in the checkout: ``argv`` is n, transport, seed; prints one
#: JSON line.
CHILD = """
import gc, json, sys, time
from repro import run_adkg
from repro.crypto.keys import TrustedSetup
n, transport, seed = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
gc.collect()
started = time.perf_counter()
setup = TrustedSetup.generate(n, seed=seed)
kwargs = {"measure_bytes": True} if transport == "sim" else {}
result = run_adkg(n=n, seed=seed, setup=setup, transport=transport, workers=0, **kwargs)
wall = time.perf_counter() - started
print(json.dumps({"op_wall_s": wall, "words_per_op": result.words_total,
                  "agreed": result.agreed and len(result.outputs) == n}))
"""

#: ``(name, better)`` of the metrics each op reports.
METRICS = (("op_wall_s", "lower"), ("words_per_op", "lower"))


def op(checkout: Path, pycache: Path, scale: str, seed: int) -> dict:
    """One cold op of ``scale`` in ``checkout``; its JSON line as a dict
    (``{"agreed": False, "error": ...}`` if the process failed)."""
    n, transport = SCALES[scale]
    env = {
        **os.environ,
        "PYTHONPATH": str(checkout / "src"),
        "PYTHONPYCACHEPREFIX": str(pycache),
    }
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(n), transport, str(seed)],
        cwd=checkout, env=env, capture_output=True, text=True,
    )  # fmt: skip
    try:
        return json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"agreed": False, "error": done.stderr.strip()[-2000:]}


def pair_scale(args: argparse.Namespace, scale: str, bound: float, caches: dict) -> tuple:
    """Pair ``scale`` and print its table; returns the failed ops and each
    metric's :func:`compare` reading."""
    sides = {"parent": args.parent, "change": args.change}
    seeds = range(args.seed0, args.seed0 + args.pairs)
    print(
        f"{scale}: {args.pairs} pairs, seeds {seeds[0]}..{seeds[-1]}, "
        f"parent={args.parent} change={args.change}"
    )
    for side, checkout in sides.items():
        op(checkout, caches[side], scale, seeds[0])  # warm-up, untimed
    values = {side: {name: [] for name, _ in METRICS} for side in sides}
    failures = 0
    for pair, seed in enumerate(seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        results = {side: op(sides[side], caches[side], scale, seed) for side in order}
        cells = []
        for side in sides:
            result = results[side]
            if not result["agreed"]:
                failures += 1
                cells.append(f"{side} FAILED {result.get('error', 'no agreement')}")
                continue
            for name, _ in METRICS:
                values[side][name].append(result[name])
            cells.append(f"{side} op_wall_s {result['op_wall_s']:.4f}")
        print(f"  seed {seed} ({order[0]} first): " + "; ".join(cells), flush=True)
    readings = {}
    if failures:
        return failures, readings
    print(f"{'metric':<14} {'parent q1 / median / q3':<32} {'change q1 / median / q3':<32} "
          f"{'change':>8} {'wins':>7}  verdict")  # fmt: skip
    for name, better in METRICS:
        row = readings[name] = compare(
            values["parent"][name], values["change"][name], better,
            bound if name == "op_wall_s" else 0.0,
        )  # fmt: skip
        spans = [" / ".join(f"{value:.6g}" for value in row[side]) for side in sides]
        print(
            f"{name:<14} {spans[0]:<32} {spans[1]:<32} {row['relative']:>+8.1%} "
            f"{row['wins']:>3}/{args.pairs:<3}  {row['verdict']}"
        )
    if args.pairs < 10:
        print("(fewer than ten pairs: the verdicts are indicative, not a claim)")
    return failures, readings


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument(
        "--scale", action="append", choices=sorted(SCALES), dest="scales",
        help=f"a scale to pair (default: {', '.join(DEFAULT_SCALES)})",
    )  # fmt: skip
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed0", type=int, default=1, help="seed of the first pair")
    parser.add_argument(
        "--append", type=Path, metavar="FILE",
        help="append one JSON row per scale to FILE (e.g. TRAJECTORY.jsonl)",
    )  # fmt: skip
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    args.scales = args.scales or list(DEFAULT_SCALES)
    args.parent, args.change = args.parent.resolve(), args.change.resolve()
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    contract = json.loads((args.parent / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in contract["end_to_end"] if m["name"] == "op_wall_s")
    shas = git_state(args.parent), git_state(args.change)
    seeds = range(args.seed0, args.seed0 + args.pairs)
    failures = 0
    with tempfile.TemporaryDirectory(prefix="scale-") as scratch:
        caches = {side: Path(scratch, side) for side in ("parent", "change")}
        for cache in caches.values():
            cache.mkdir()
        for number, scale in enumerate(args.scales):
            if number:
                print()
            failed, readings = pair_scale(args, scale, bound, caches)
            failures += failed
            if args.append is not None and not failed:
                row = trajectory_row(scale, seeds, *shas, readings)
                with args.append.open("a", encoding="utf-8") as trajectory:
                    trajectory.write(json.dumps(row, sort_keys=True) + "\n")
    if failures:
        print(f"FAILED: {failures} ops raised or did not agree")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
