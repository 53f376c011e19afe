"""From child reports to the named metrics of ``BENCHMARK.json``.

``end_to_end`` reads the untraced children of one run, ``per_layer`` the
traced child.  Names, units and directions live in ``BENCHMARK.json`` only;
``perf.run`` refuses to print a metric set that differs from it.

Timings are medians over ops, each corrected for the host's speed while it
ran (``perf.hostspeed``).  Counts are taken from each child's *first* op only
— a fixed op list, so for one ``--seed`` they repeat exactly however many
further ops the host had time for.
"""

from __future__ import annotations

import statistics
from collections import Counter
from typing import Any

from perf import trace
from perf.hostspeed import corrected
from perf.workloads import Workload

#: ``*_s`` metric -> the span names whose self time it sums.
SELF_SECONDS: dict[str, tuple[str, ...]] = {
    "net.runtime.step_self_s": ("net.runtime.step",),
    "net.transport.self_s": ("net.transport",),
    "net.transport.meter_s": ("net.transport.meter",),
    "net.party.deliver_self_s": ("net.party.deliver",),
    "net.party.conditions_s": ("net.party.conditions",),
    "net.party.outbox_s": ("net.party.outbox",),
    "net.codec.encode_s": ("net.codec.encode",),
    "net.codec.decode_s": ("net.codec.decode",),
    "net.codec.size_s": ("net.codec.size",),
    "net.chaos.self_s": ("net.chaos",),
    "broadcast.handler_s": ("broadcast.handler",),
    "broadcast.rs_encode_s": ("broadcast.rs_encode",),
    "broadcast.rs_decode_s": ("broadcast.rs_decode",),
    "core.gather_s": ("core.gather",),
    "core.pe_s": ("core.pe",),
    "core.nwh_s": ("core.nwh",),
    "core.adkg_s": ("core.adkg",),
    "core.reshare_s": ("core.reshare",),
    "crypto.setup_s": ("crypto.setup",),
    "crypto.verify_s": ("crypto.verify",),
    "crypto.deal_s": ("crypto.deal",),
    "crypto.tvrf_s": ("crypto.tvrf",),
    "crypto.reshare_s": ("crypto.reshare",),
    "crypto.pair_s": ("crypto.pair",),
    "crypto.verify_cache.key_s": ("crypto.verify_cache.key",),
    "crypto.verify_cache.lookup_s": ("crypto.verify_cache.lookup",),
    "storage.wal_append_s": ("storage.wal_append",),
    "storage.snapshot_s": ("storage.snapshot.freeze", "storage.snapshot.save"),
    "storage.restore_s": ("storage.restore",),
    "storage.replay_s": ("storage.replay",),
    "service.driver_self_s": ("service.driver",),
    "service.beacon_emit_s": ("service.beacon_emit",),
    "service.beacon_verify_s": ("service.beacon_verify",),
    "trace.other_s": (trace.ROOT_SPAN,),
}


def percentile_with_support(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; the median when the sample is too small
    to support anything higher.
    """
    ordered = sorted(samples)
    beyond = 10
    if len(ordered) < 2 * beyond + 1:
        return 50.0, statistics.median(ordered)
    index = len(ordered) - beyond - 1
    return 100.0 * index / (len(ordered) - 1), ordered[index]


def ok_ops(children: list[dict]) -> list[dict]:
    return [op for child in children for op in child["ops"] if op["ok"]]


def op_walls(ops: list[dict]) -> list[float]:
    return [corrected(op["wall"], op["host"]) for op in ops]


def end_to_end(workload: Workload, size: str, children: list[dict]) -> dict[str, float]:
    walls = op_walls(ok_ops(children))
    first_ops = [child["ops"][0] for child in children if child["ops"][0]["ok"]]
    if not walls or not first_ops:
        return {}
    op_wall = statistics.median(walls)
    return {
        "setup_s": statistics.median(
            corrected(child["setup_s"], child["setup_host"]) for child in children
        ),
        "op_wall_s": op_wall,
        "epochs_per_s": workload.epochs(size) / op_wall,
        "peak_rss_mb": max(child["rss_mb"] for child in children),
        "words_per_op": statistics.fmean(op["counts"]["words"] for op in first_ops),
    }


def twin_problems(workload: Workload, child: dict) -> list[str]:
    """Tracing must not change what the program does: on the simulator the
    first traced op repeats its untraced twin's words, rounds and misses."""
    twin, traced = child["twin"], child["ops"][0]
    if not (twin["ok"] and traced["ok"]) or not workload.sim:
        return []
    problems = []
    for key in ("words", "messages", "verify.misses"):
        if twin["counts"].get(key) != traced["counts"].get(key):
            problems.append(
                f"traced {key}={traced['counts'].get(key)} != "
                f"untraced {twin['counts'].get(key)}"
            )
    if twin["facts"]["rounds"] != traced["facts"]["rounds"]:
        problems.append("traced op took different modelled rounds than its twin")
    return problems


def per_layer(workload: Workload, child: dict) -> dict[str, float]:
    ops = ok_ops([child])
    twin = child["twin"]
    if not ops or not twin["ok"] or not child["ops"][0]["ok"]:
        return {}
    first = child["ops"][0]
    twin_wall, twin_cpu = (corrected(twin[key], twin["host"]) for key in ("wall", "cpu"))
    counts = Counter(first["counts"])
    calls = Counter(first["layers"]["calls"])
    starts = Counter(first["layers"]["starts"])
    facts = first["facts"]

    self_s: Counter = Counter()
    for op in ops:
        for span, seconds in op["layers"]["self_s"].items():
            self_s[span] += corrected(seconds, op["host"])
    metrics: dict[str, float] = {
        name: sum(self_s[span] for span in spans) / len(ops)
        for name, spans in SELF_SECONDS.items()
    }

    traced_wall = statistics.fmean(op_walls(ops))
    metrics.update(
        {
            # net.runtime — the simulator's scheduler
            "net.runtime.steps": calls["net.runtime.step"],
            "net.runtime.deliveries": counts["deliveries"],
            "net.runtime.deliveries_per_s": twin["counts"]["deliveries"] / twin_wall,
            "net.runtime.rounds": facts["rounds"],
            # net.transport — delivery/flush bookkeeping and metering
            "net.transport.messages": counts["messages"],
            "net.transport.frames": counts["frames"],
            "net.transport.batch_occupancy_mean": (
                counts["messages"] / counts["frames"] if counts["frames"] else 0.0
            ),
            "net.transport.bytes": counts["bytes"],
            # net.party
            "net.party.pending_dropped": counts["pending.dropped"],
            "net.party.pending_stale": counts["pending.stale"],
            # net.codec
            "net.codec.payload_calls": counts["encode.calls"],
            "net.codec.payload_misses": counts["encode.misses"],
            "net.codec.wire_bytes": counts["wire_bytes"],
            "net.codec.wire_bytes_saved": counts["wire_bytes_saved"],
            # net.chaos
            "net.chaos.dropped": counts["chaos.dropped"],
            "net.chaos.duplicated": counts["chaos.duplicated"],
            "net.chaos.reordered": counts["chaos.reordered"],
            # net.tcp_runtime — from the untraced twin: waiting is what the
            # wall clock saw and the processor did not
            "net.tcp_runtime.loop_wait_s": (
                0.0 if workload.sim else max(0.0, twin_wall - twin_cpu)
            ),
            "net.tcp_runtime.cpu_s": 0.0 if workload.sim else twin_cpu,
            "net.tcp_runtime.frames": 0 if workload.sim else counts["frames"],
            "net.tcp_runtime.reconnects": counts["tcp.reconnects"],
            "net.tcp_runtime.backpressure": counts["tcp.backpressure"],
            "net.tcp_runtime.rejected_frames": counts["tcp.rejected_frames"],
            # broadcast / core
            "broadcast.words": counts["words.broadcast"],
            "core.words_gather": counts["words.gather"],
            "core.words_pe": counts["words.pe"],
            "core.words_nwh": counts["words.nwh"],
            # Every NWH instance starts one Proposal Election per view.
            "core.nwh_views": (
                starts["core.pe"] / starts["core.nwh"] if starts["core.nwh"] else 0.0
            ),
            # crypto
            "crypto.pair_calls": counts["pair_calls"],
            "crypto.verify_cache.calls": counts["verify.calls"],
            "crypto.verify_cache.misses": counts["verify.misses"],
            "crypto.verify_cache.hit_ratio": (
                counts["verify.hits"] / counts["verify.calls"]
                if counts["verify.calls"]
                else 0.0
            ),
            # storage
            "storage.wal_appends": calls["storage.wal_append"],
            "storage.wal_bytes": first["layers"]["wal_bytes"],
            "storage.snapshots": calls["storage.snapshot.save"],
            "storage.replay_records": facts.get("replay_records", 0),
            # service
            "service.epoch_latency_rounds": facts["epoch_latency_rounds"],
            # trace — bookkeeping for the table's honesty
            "trace.coverage": 1.0 - metrics["trace.other_s"] / traced_wall,
            "trace.overhead_ratio": statistics.median(op_walls(ops)) / twin_wall,
            "trace.spans_per_op": sum(calls.values()),
            "trace.unpatched": len(child["unpatched"]),
        }
    )
    # Rates are corrected through the seconds they divide by.
    metrics.update(
        (name, 1.0 / corrected(1.0 / rate, child["probes_host"]))
        for name, rate in child["probes"].items()
    )
    return metrics


def totals(children: list[dict]) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over the timed ops of a run."""
    ops = [op for child in children for op in child["ops"]]
    problems = [
        f"op seed {op['seed']}: {problem}"
        for op in ops
        if not op["ok"]
        for problem in op["problems"]
    ]
    return len(ops), sum(1 for op in ops if not op["ok"]), problems


def timing_summary(children: list[dict]) -> dict[str, Any]:
    """Median, highest supported percentile and sample count of op wall —
    corrected for host speed, with the uncorrected median beside it."""
    ops = ok_ops(children)
    if not ops:
        return {"samples": 0}
    walls = op_walls(ops)
    percentile, value = percentile_with_support(walls)
    return {
        "samples": len(walls),
        "mean_s": statistics.fmean(walls),
        "median_s": statistics.median(walls),
        "percentile": percentile,
        "percentile_s": value,
        "raw_median_s": statistics.median(op["wall"] for op in ops),
    }
