"""E14 — crash–recovery: recovery latency and WAL replay throughput.

The durability PR's tentpole claim, asserted structurally:

* **recovery works mid-session**: a party crashed at an adversarially
  chosen delivery count rehydrates from ``SnapshotStore`` + WAL and the
  run still reaches agreement on one verifying transcript, at n=10 and
  n=25 and at more than one snapshot cadence (the cadence trades WAL
  length — replay work — against snapshot frequency — checkpoint work);
* **replay scales**: a 10,000-envelope WAL replays through the normal
  ``deliver()`` path within a fixed delivery-step budget (exactly one
  step per record, no duplicate sends), the structural form of "replay
  is linear" that CI can gate without wall-clock flakiness.

The chaos PR adds two robustness rows: an **attached-but-idle chaos
plane** must be free — byte-identical protocol totals always, and
under 2% wall overhead vs no plane at all (wall-gated in full mode
only, where the run is long enough to measure) — and the TCP
runtime's **reconnect latency** over repeated hard connection kills is
recorded as a min/mean/max distribution.

Emits ``BENCH_recovery.json`` next to this file: per-(n, cadence)
recovery latency in simulated rounds, WAL replay throughput in
records/sec, the 10k-replay throughput row, the chaos-idle overhead
row and the reconnect latency distribution.
"""

import asyncio
import json
import pathlib
import random
import statistics
import time
from dataclasses import dataclass
from tempfile import TemporaryDirectory

import pytest

from repro import run_adkg
from repro.crypto.keys import TrustedSetup
from repro.net import codec
from repro.net.chaos import ChaosSpec
from repro.net.envelope import Envelope
from repro.net.party import Party
from repro.net.payload import Payload
from repro.net.protocol import Protocol
from repro.net.tcp_runtime import TCPRuntime
from repro.storage import SnapshotStore, run_crash_recovery

from conftest import once, record

SEED = 1
CADENCES = (8, 64)
NS_FULL = (10, 25)
NS_FAST = (4,)
CRASH_AFTER = 40
RECOVERY_DELAY = 5.0
REPLAY_RECORDS = 10_000
#: Step budget for the 10k replay: one delivery per WAL record, nothing
#: else — replay must not amplify the log.
REPLAY_STEP_BUDGET = REPLAY_RECORDS
JSON_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_recovery.json"

_ROWS: dict[tuple[int, int], dict] = {}


@dataclass(frozen=True)
class BenchPing(Payload):
    counter: int


codec.register(BenchPing, 9050)  # >= 9000: extension id space


class FloodSink(Protocol):
    """Counts deliveries; the minimal snapshotable state machine."""

    STATE_FIELDS = ("seen",)

    def __init__(self) -> None:
        super().__init__()
        self.seen = 0

    def on_message(self, sender, payload) -> None:
        self.seen += 1


def _recovery_row(n: int, cadence: int) -> dict:
    report = run_crash_recovery(
        transport="sim",
        n=n,
        seed=SEED,
        crash_indices=[0],
        crash_after=CRASH_AFTER,
        recovery_delay=RECOVERY_DELAY,
        cadence=cadence,
    )
    replay = report["replay"][0]
    return {
        "n": n,
        "cadence": cadence,
        "agreement": report["agreement"],
        "valid": report["valid"],
        "wal_records": replay["wal_records"],
        "suppressed_sends": replay["suppressed_sends"],
        "thaw_seconds": replay["thaw_seconds"],
        "replay_seconds": replay["replay_seconds"],
        "replay_per_second": replay["replay_per_second"],
        "recovery_latency_rounds": report["recovery_latency"],
        "rounds": report["rounds"],
        "words_total": report["words_total"],
    }


def _row(n: int, cadence: int) -> dict:
    key = (n, cadence)
    if key not in _ROWS:
        _ROWS[key] = _recovery_row(n, cadence)
    return _ROWS[key]


def _build_party() -> Party:
    return Party(
        index=0,
        n=4,
        f=1,
        rng=random.Random("bench-recovery-0"),
        rng_label="bench-recovery-0",
    )


def _replay_10k() -> dict:
    with TemporaryDirectory(prefix="repro-bench-recovery-") as tmp:
        store = SnapshotStore(tmp)
        party = _build_party()
        party.run_root(FloodSink())
        store.save_snapshot(0, party.freeze())
        wal = store.wal(0)
        for i in range(REPLAY_RECORDS):
            wal.append(
                Envelope(
                    path=(),
                    sender=1 + (i % 3),
                    recipient=0,
                    payload=BenchPing(i),
                    depth=1,
                    session=0,
                )
            )
        wal_bytes = wal.size_bytes()
        clone = _build_party()
        blob, absorbed_seq = store.load_snapshot(0)
        started = time.perf_counter()
        clone.thaw(blob, root_factory=lambda p: FloodSink())
        thawed = time.perf_counter()
        records = [
            envelope
            for seq, envelope in store.wal(0).replay()
            if seq > absorbed_seq
        ]
        stats = clone.replay(records)
        elapsed = time.perf_counter() - thawed
        store.close()
    return {
        "records": len(records),
        "delivered": stats["delivered"],
        "suppressed": stats["suppressed"],
        "seen": clone.instance(()).seen,
        "wal_bytes": wal_bytes,
        "thaw_seconds": thawed - started,
        "replay_seconds": elapsed,
        "replay_per_second": len(records) / elapsed if elapsed > 0 else 0.0,
    }


def _chaos_idle_overhead(n: int, repeats: int = 5) -> dict:
    """Best-of-``repeats`` wall clock, detached vs attached-but-idle.

    The two arms are interleaved (detached, idle, detached, ...) and the
    overhead ratio is the *median of the paired per-iteration ratios*:
    machine-load drift over the measurement window hits both halves of a
    pair equally, and the median rejects pairs where a scheduler blip
    landed inside exactly one half.  Best-of walls are reported alongside
    for context but are too jittery on a sub-second run to gate on.
    """

    def timed(chaos):
        started = time.perf_counter()
        result = run_adkg(n=n, seed=SEED, measure_bytes=True, chaos=chaos)
        return time.perf_counter() - started, result

    detached_wall = idle_wall = float("inf")
    detached = idle = None
    ratios = []
    for _ in range(repeats):
        d_wall, detached = timed(None)
        detached_wall = min(detached_wall, d_wall)
        i_wall, idle = timed(ChaosSpec())
        idle_wall = min(idle_wall, i_wall)
        ratios.append(i_wall / d_wall)
    return {
        "n": n,
        "repeats": repeats,
        "detached_seconds": detached_wall,
        "idle_attached_seconds": idle_wall,
        "overhead_ratio": statistics.median(ratios),
        "totals_identical": (
            idle.words_total,
            idle.messages_total,
            idle.bytes_total,
            idle.public_key,
        )
        == (
            detached.words_total,
            detached.messages_total,
            detached.bytes_total,
            detached.public_key,
        ),
    }


def _reconnect_latencies(kills: int = 5) -> dict:
    """Hard-kill one TCP connection ``kills`` times; time each heal."""

    async def scenario():
        setup = TrustedSetup.generate(3, seed=7)
        runtime = TCPRuntime(
            setup,
            seed=7,
            heartbeat_interval=0.02,
            reconnect_base=0.01,
            reconnect_cap=0.1,
        )
        loop = asyncio.get_running_loop()
        latencies = []
        await runtime.open()
        try:
            for _ in range(kills):
                target = runtime.reconnects + 1
                started = loop.time()
                runtime.kill_connection(0, 1)
                while runtime.reconnects < target:
                    await asyncio.sleep(0.002)
                    if loop.time() - started > 10.0:
                        raise TimeoutError("link never healed")
                latencies.append(loop.time() - started)
        finally:
            await runtime.close()
        return latencies, runtime.conn_lost, runtime.reconnects

    latencies, conn_lost, reconnects = asyncio.run(scenario())
    return {
        "kills": kills,
        "conn_lost": conn_lost,
        "reconnects": reconnects,
        "min_seconds": min(latencies),
        "mean_seconds": statistics.mean(latencies),
        "max_seconds": max(latencies),
    }


@pytest.mark.benchmark(group="E14-recovery")
def test_crash_recovery_reaches_agreement(benchmark, fast_mode):
    """The acceptance gate: every (n, cadence) cell recovers to agreement."""
    ns = NS_FAST if fast_mode else NS_FULL
    rows = once(
        benchmark,
        lambda: [_row(n, cadence) for n in ns for cadence in CADENCES],
    )
    record(benchmark, rows=rows)
    for row in rows:
        assert row["agreement"] and row["valid"], row
    # A sparser snapshot cadence must shift work into the WAL: strictly
    # more records replay at cadence 64 than at cadence 8 (the trade-off
    # the durability model documents).
    for n in ns:
        dense = next(r for r in rows if r["n"] == n and r["cadence"] == CADENCES[0])
        sparse = next(r for r in rows if r["n"] == n and r["cadence"] == CADENCES[-1])
        assert sparse["wal_records"] >= dense["wal_records"], (dense, sparse)


@pytest.mark.benchmark(group="E14-recovery")
def test_wal_replay_10k_within_step_budget(benchmark):
    """Replaying a 10k-envelope WAL costs exactly one step per record."""
    stats = once(benchmark, _replay_10k)
    record(benchmark, stats=stats)
    assert stats["records"] == REPLAY_RECORDS
    assert stats["delivered"] == REPLAY_RECORDS
    assert stats["delivered"] <= REPLAY_STEP_BUDGET
    assert stats["suppressed"] == 0  # a sink replays without re-sends
    assert stats["seen"] == REPLAY_RECORDS  # state converged exactly


@pytest.mark.benchmark(group="E14-recovery")
def test_chaos_idle_plane_is_free(benchmark, fast_mode):
    """An attached-but-idle chaos plane leaves no trace.

    Structural gate (both modes): byte-identical words/messages/bytes
    and the same group key.  Wall gate (full mode only, where the n=10
    run is long enough to measure): best-of overhead under 2%.
    """
    row = once(
        benchmark, lambda: _chaos_idle_overhead(n=4 if fast_mode else 10)
    )
    record(benchmark, row=row)
    assert row["totals_identical"], row
    if not fast_mode:
        assert row["overhead_ratio"] < 1.02, row


@pytest.mark.benchmark(group="E14-recovery")
def test_reconnect_latency_distribution(benchmark):
    """Every hard-killed TCP connection heals, and quickly at this backoff."""
    stats = once(benchmark, _reconnect_latencies)
    record(benchmark, stats=stats)
    assert stats["reconnects"] >= stats["kills"]
    assert stats["conn_lost"] >= stats["kills"]
    # base 0.01 / cap 0.1 with idle-gap detection at 0.02: a heal that
    # takes over a second means supervision or backoff is broken.
    assert stats["max_seconds"] < 1.0, stats


@pytest.mark.benchmark(group="E14-recovery")
def test_emit_json(benchmark, fast_mode):
    ns = NS_FAST if fast_mode else NS_FULL
    def build():
        return (
            [_row(n, cadence) for n in ns for cadence in CADENCES],
            _replay_10k(),
            _chaos_idle_overhead(n=4 if fast_mode else 10),
            _reconnect_latencies(),
        )

    rows, replay, chaos_idle, reconnect = once(benchmark, build)
    payload = {
        "benchmark": "E14-recovery",
        "seed": SEED,
        "transport": "sim",
        "crash_after_deliveries": CRASH_AFTER,
        "recovery_delay_rounds": RECOVERY_DELAY,
        "rows": rows,
        "wal_replay_10k": replay,
        "chaos_idle_overhead": chaos_idle,
        "reconnect_latency": reconnect,
    }
    # The committed JSON records the full (n in {10, 25}) grid; the CI
    # smoke run (REPRO_BENCH_FAST=1) checks gates at n=4 but must not
    # overwrite the committed baseline.
    if not fast_mode:
        JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    record(benchmark, path=str(JSON_PATH))
    assert all(row["agreement"] for row in rows)
