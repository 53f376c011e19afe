"""A/A: the whole benchmark twice on one checkout, same seed, compared.

    python3 -m perf.aa [--seed S] [--quick]

Prints both values and the relative gap of every (end-to-end metric,
workload) pair and exits nonzero if a gap exceeds that metric's bound in
``BENCHMARK.json`` — a benchmark that cannot tell a commit from itself cannot
tell it from its child.  The counts a refactor must leave byte-identical
(words, metered bytes, modelled rounds, verification misses) have to match to
the digit on the simulator workloads, where one seed means one execution.
"""

from __future__ import annotations

import argparse
from typing import Optional

from perf import run
from perf.workloads import WORKLOADS

#: (section, metric) pairs that repeat exactly on the simulator.
EXACT = (
    ("end_to_end", "words_per_op"),
    ("per_layer", "net.transport.bytes"),
    ("per_layer", "net.runtime.rounds"),
    ("per_layer", "crypto.verify_cache.misses"),
)


def compare(first: dict, second: dict, contract: dict) -> list[str]:
    """Print the table; return the pairs that disagree."""
    disagreements = []
    print(f"{'workload':<22} {'metric':<28} {'first':>14} {'second':>14} {'gap':>8}  bound")
    for workload in first:
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = first[workload]["end_to_end"]["metrics"][name]["value"]
            b = second[workload]["end_to_end"]["metrics"][name]["value"]
            gap = abs(b - a) / a
            verdict = "" if gap <= bound else "  EXCEEDED"
            print(f"{workload:<22} {name:<28} {a:>14.6g} {b:>14.6g} {gap:>8.2%}  {bound:.0%}{verdict}")
            if verdict:
                disagreements.append(f"{workload} {name}: gap {gap:.2%} > {bound:.0%}")
        if not WORKLOADS[workload].sim:
            continue
        for section, name in EXACT:
            a = first[workload][section]["metrics"][name]["value"]
            b = second[workload][section]["metrics"][name]["value"]
            verdict = "" if a == b else "  DIFFERS"
            print(f"{workload:<22} {name:<28} {a:>14.12g} {b:>14.12g} {'exact':>8}{verdict}")
            if verdict:
                disagreements.append(f"{workload} {name}: {a!r} != {b!r}")
    return disagreements


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    contract = run.load_contract()
    size = "quick" if args.quick else "full"
    seconds = run.QUICK_SECONDS if args.quick else contract["run_seconds"]
    first = run.run_all(args.seed, seconds, size, report=False)
    second = run.run_all(args.seed, seconds, size, report=False)
    disagreements = compare(first, second, contract)
    incorrect = not (run.all_correct(first) and run.all_correct(second))
    for line in disagreements:
        print(f"A/A FAILED: {line}")
    if incorrect:
        print("A/A FAILED: a run reported incorrect outputs")
    return 1 if disagreements or incorrect else 0


if __name__ == "__main__":
    raise SystemExit(main())
