"""The benchmark's one command.

Measured run, as the driver calls it (last stdout line is the result)::

    python3 -m perf.run --workload adkg_sim_n16 --seed 7 --seconds 10 --trace 0

Everything, for a person: each workload's untraced pass (end-to-end metrics)
then its traced pass (per-layer metrics), every metric printed by name::

    python3 -m perf.run [--seed S] [--workload W] [--quick] [--out FILE] [--trace-out FILE]

Each pass runs in fresh child processes (`perf.child`), one at a time.  The
untraced pass starts ``SETUPS`` children, each setting up from scratch and
timing ops for its share of ``--seconds``: set-up time is their median, op
samples are pooled.  The traced pass is one child.  Every timing is corrected
for the host's speed at that moment (`perf.hostspeed` says how and why).
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from typing import Any, Optional

from perf import ROOT, metrics
from perf.workloads import TMP_ROOT, WORKLOADS

#: Fresh processes per untraced run; ``setup_s`` is the median of their set-ups.
SETUPS = 3
CHILD_TIMEOUT_S = 150
QUICK_SECONDS = 1


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _spawn_child(extra: list[str]) -> dict:
    command = [
        sys.executable, "-m", "perf.child", *extra,
        "--spawned-at", repr(time.time()),
    ]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise SystemExit(f"child timed out after {CHILD_TIMEOUT_S}s: {extra}")
    if child.returncode != 0:
        raise SystemExit(f"child exited with {child.returncode}: {extra}")
    return json.loads(stdout.splitlines()[-1])


def run_once(
    workload_name: str,
    seed: int,
    seconds: float,
    traced: bool,
    size: str = "full",
    trace_out: Optional[str] = None,
) -> dict[str, Any]:
    """One measured run of one workload: the result object plus details."""
    workload = WORKLOADS[workload_name]
    contract = load_contract()
    declared = contract["per_layer" if traced else "end_to_end"]
    slots = 1 if traced else SETUPS
    children = []
    try:
        for slot in range(slots):
            extra = [
                "--workload", workload_name, "--seed", str(seed),
                "--slot", str(slot), "--seconds", repr(seconds / slots),
                "--trace", str(int(traced)), "--size", size,
            ]
            if traced and trace_out:
                extra += ["--trace-out", trace_out]
            children.append(_spawn_child(extra))
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)

    attempted, failed, problems = metrics.totals(children)
    if traced:
        values = metrics.per_layer(workload, children[0])
        problems += metrics.twin_problems(workload, children[0])
    else:
        values = metrics.end_to_end(workload, size, children)
    if not values:
        raise SystemExit(f"{workload_name}: no successful op to measure: {problems}")
    names = [metric["name"] for metric in declared]
    if set(values) != set(names):
        raise SystemExit(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(names))}"
        )
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
        # Beyond the driver's four keys (dropped from the result line):
        "problems": problems,
        "timing": metrics.timing_summary(children),
    }


def result_line(result: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({key: result[key] for key in keys})


def print_result(workload: str, traced: bool, result: dict) -> None:
    pass_name = "traced pass, per layer" if traced else "untraced pass, end to end"
    print(f"== {workload} ({pass_name}) ==")
    timing = result["timing"]
    if timing["samples"]:
        print(
            f"ops attempted {result['attempted']}, failed {result['failed']}; "
            f"op wall median {timing['median_s']:.4f} s, "
            f"p{timing['percentile']:.0f} {timing['percentile_s']:.4f} s, "
            f"{timing['samples']} samples "
            f"(uncorrected for host speed: median {timing['raw_median_s']:.4f} s)"
        )
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")


def run_all(
    seed: int,
    seconds: float,
    size: str,
    workloads: Optional[list[str]] = None,
    trace_out: Optional[str] = None,
    report: bool = True,
) -> dict[str, dict[str, dict]]:
    """Both passes of every workload: ``{workload: {pass: result}}``."""
    names = workloads or list(WORKLOADS)
    results: dict[str, dict[str, dict]] = {}
    for name in names:
        results[name] = {}
        for traced in (False, True):
            out = trace_out if len(names) == 1 or not trace_out else f"{trace_out}.{name}"
            result = run_once(name, seed, seconds, traced, size, out)
            results[name]["per_layer" if traced else "end_to_end"] = result
            if report:
                print_result(name, traced, result)
    return results


def all_correct(results: dict[str, dict[str, dict]]) -> bool:
    return all(r["correct"] for passes in results.values() for r in passes.values())


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: one measured run, result on the last line")
    parser.add_argument("--quick", action="store_true",
                        help="the small instantiation perf/test_perf.py runs")
    parser.add_argument("--out", help="write every result as JSON")
    parser.add_argument("--trace-out", help="write the traced pass's spans as JSONL")
    args = parser.parse_args(argv)

    size = "quick" if args.quick else "full"
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else load_contract()["run_seconds"]

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = run_once(
            args.workload, args.seed, seconds, bool(args.trace), size, args.trace_out
        )
        print_result(args.workload, bool(args.trace), result)
        print(result_line(result))
        return 0 if result["correct"] else 1

    results = run_all(
        args.seed, seconds, size,
        [args.workload] if args.workload else None, args.trace_out,
    )
    if args.out:
        with open(args.out, "w") as out:
            json.dump({"seed": args.seed, "size": size, "workloads": results}, out, indent=1)
    return 0 if all_correct(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
