"""One fresh process of one workload: set up, run ops for a while, report.

``perf.run`` starts this module as a child (`python -m perf.child`) and reads
the one JSON line it prints last.  Set-up is everything from the parent's
``Popen`` to the first timed op: interpreter start, imports, one untimed
warm-up op that fills the module-level memo tables.  Around set-up and around
every op the child times the host probe of ``perf.hostspeed``.  With ``--trace 1``
it also runs an untraced twin of its first op and the round-trip probes, then
installs ``perf.trace``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import time
from collections import Counter
from typing import Any, Optional

from perf import hostspeed, probes, trace
from perf.workloads import WORKLOADS, Workload, created_instances, op_seeds

from repro.crypto.pairing import BilinearGroup
from repro.net import codec
from repro.net.metrics import Metrics, counter_delta
from repro.net.payload import Payload


#: Reliable-broadcast instances carry different path names under Gather and
#: PE (vrb, rb2, idx, ...); their payload types are what they share.
_BROADCAST_PAYLOADS = sorted(
    cls.__name__
    for cls in Payload.__subclasses__()
    if cls.__module__.startswith("repro.broadcast.")
)


def _counts(metrics: list[Metrics], groups: list[BilinearGroup], encode: Counter) -> dict:
    """One op's counts, summed over the transports it built."""
    counts: Counter = Counter()
    for m in metrics:
        counts["words"] += m.words_total
        counts["messages"] += m.messages_total
        counts["bytes"] += m.bytes_total
        counts["frames"] += m.frames_total
        counts["deliveries"] += m.deliveries
        counts["wire_bytes"] += m.wire_bytes_total
        counts["wire_bytes_saved"] += m.wire_bytes_saved
        for layer in ("gather", "pe", "nwh"):
            counts[f"words.{layer}"] += m.words_for_layer(layer)
        counts["words.broadcast"] += sum(
            m.words_by_type[name] for name in _BROADCAST_PAYLOADS
        )
        for key, value in m.counters("verify").items():
            # "<domain>.calls" / ".hits" / ".misses", summed over domains.
            counts[f"verify.{key.rpartition('.')[2]}"] += value
        for name in ("pending", "chaos", "tcp"):
            for key, value in m.counters(name).items():
                counts[f"{name}.{key}"] += value
    counts["pair_calls"] = sum(group.pair_calls for group in groups)
    counts["encode.calls"] = encode["payload.calls"]
    counts["encode.misses"] = encode["payload.misses"]
    return dict(counts)


def run_op(
    workload: Workload, size: str, seed: int, tracer: Optional[trace.Tracer] = None
) -> dict[str, Any]:
    """Run and check one op; never raises."""
    kwargs = workload.sizes[size]
    run = workload.run if tracer is None else tracer.wrap(trace.ROOT_SPAN, workload.run)
    gc.collect()  # every op starts from the same collector state
    encode_before = Counter(codec.encode_stats)
    record: dict[str, Any] = {"seed": seed, "ok": False}
    with created_instances(Metrics) as metrics, created_instances(BilinearGroup) as groups:
        cpu = time.process_time()
        started = time.perf_counter()
        try:
            result = run(seed, **kwargs)
        except Exception as exc:  # an op that raises is a failed op, reported
            record["problems"] = [f"run raised {exc!r}"]
            result = None
        record["wall"] = time.perf_counter() - started
        record["cpu"] = time.process_time() - cpu
    if result is not None:
        try:
            record["facts"], record["problems"] = workload.check(result, **kwargs)
        except Exception as exc:
            record["problems"] = [f"check raised {exc!r}"]
        record["ok"] = not record["problems"]
    encode = Counter(counter_delta(codec.encode_stats, encode_before))
    record["counts"] = _counts(metrics, groups, encode)
    if tracer is not None:
        record["layers"] = tracer.end_op()
    return record


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--slot", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "quick"), default="full")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the parent just before Popen")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    seeds = op_seeds(workload.name, args.seed, args.slot)
    report: dict[str, Any] = {"workload": workload.name, "slot": args.slot}
    # The host probe brackets set-up and every op; the reading after one op
    # is the reading before the next.
    readings = [hostspeed.reading()]

    def bracketed(seed: int, tracer: Optional[trace.Tracer] = None) -> dict[str, Any]:
        op = run_op(workload, args.size, seed, tracer)
        readings.append(hostspeed.reading())
        op["host"] = readings[-2:]
        return op

    warmup = bracketed(next(seeds))
    if not warmup["ok"]:
        raise SystemExit(f"warm-up op failed: {warmup['problems']}")
    report["setup_s"] = time.time() - args.spawned_at
    report["setup_host"] = warmup["host"]

    tracer = None
    first_seed = next(seeds)
    if args.trace:
        # Both untraced: the first op's twin, and the round-trip probes.
        report["twin"] = bracketed(first_seed)
        report["probes"] = probes.run(args.seed, args.size)
        readings.append(hostspeed.reading())
        report["probes_host"] = readings[-2:]
        tracer = trace.Tracer(keep_spans=bool(args.trace_out))
        tracer.install()
        report["unpatched"] = tracer.missing

    ops = []
    walls: list[float] = []
    loop_started = time.perf_counter()
    seed = first_seed
    while True:
        op = bracketed(seed, tracer)
        ops.append(op)
        if op["ok"]:
            walls.append(op["wall"])
        typical = statistics.median(walls) if walls else op["wall"]
        # Stop where another op would overshoot the slice by more than it
        # undershoots now.
        if time.perf_counter() - loop_started + typical / 2 >= args.seconds:
            break
        seed = next(seeds)
    report["ops"] = ops
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace_out:
        tracer.write_jsonl(args.trace_out)

    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
