"""E14 — batched message plane at scale: frames, wire bytes, n = 100.

The batching PR's proof harness.  Sweeps the full ADKG on the simulator
at ``n ∈ {10, 25, 50, 100}`` with the coalesced message plane and at
``n ∈ {10, 25}`` with the per-envelope reference plane
(``batching=False``), plus ``n ∈ {10, 25, 50}`` over real TCP sockets,
and emits ``BENCH_scale.json`` with wall clock, message/frame counts,
batch occupancy and wire bytes.

What is asserted is structural, in line with the repo's benchmark
policy (shapes, not absolute timings):

* the batched and unbatched planes agree on every *protocol* quantity —
  words, messages, bytes, transcript agreement — at every shared n;
* coalescing actually happens: frames_saved > 0 and mean occupancy > 1
  on every batched row (this is the CI perf-smoke gate, together with
  the n = 50 sim run completing inside the default step budget);
* the n = 100 sim run (≈ 9 M messages) completes with agreement — the
  ROADMAP's large-n target, which the per-envelope plane's overhead put
  out of reach;
* batched wall clock beats the unbatched plane at n = 25.

Wall-clock ratios are *recorded* for the full grid:
``speedup_vs_unbatched`` (same-process head-to-head) and
``speedup_vs_committed_hotpath`` (against the wall clocks committed in
``BENCH_hotpath.json``, i.e. the pre-batching plane, possibly on
different hardware).  Measured on the development machine the
head-to-head lands between 1.2× and 1.7× at n = 25 depending on machine
state (single-shot rows are noisy): the per-envelope overhead batching
removes (metering encodes, heap entries, stop scans) is real but the
remaining time is protocol crypto + handler work, which this PR attacks
separately with identity-first verification memos and the per-root
decode cache (those improve *both* planes, so they raise absolute
speed without inflating the plane-vs-plane ratio).
"""

import json
import pathlib
import time

import pytest

from repro import run_adkg

from conftest import once, record

SEED = 1
NS_SIM_BATCHED_FULL = (10, 25, 50, 100)
NS_SIM_BATCHED_FAST = (10, 50)
NS_SIM_UNBATCHED_FULL = (10, 25)
NS_SIM_UNBATCHED_FAST = (10,)
NS_TCP_FULL = (10, 25, 50)
JSON_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_scale.json"
HOTPATH_JSON = pathlib.Path(__file__).resolve().parent / "BENCH_hotpath.json"

_ROWS: dict[tuple, dict] = {}


def _fresh_process_state() -> None:
    """Clear process-wide content memos so rows are order-independent."""
    from repro.net import codec, metrics

    codec._path_memo.clear()
    metrics._path_layers_memo.clear()


def _run_row(n: int, transport: str, batching: bool) -> dict:
    _fresh_process_state()
    # n=100 sends ~9M messages — past the simulator's default
    # 5M-delivery guard; the raised budget is reported with the row.
    max_steps = 50_000_000 if (transport == "sim" and n > 50) else None
    started = time.perf_counter()
    result = run_adkg(
        n=n,
        seed=SEED,
        transport=transport,
        measure_bytes=True,
        batching=batching,
        timeout=600.0,
        max_steps=max_steps,
    )
    elapsed = time.perf_counter() - started
    summary = result.metrics_summary
    return {
        "n": n,
        "transport": transport,
        "batching": batching,
        "agreed": result.agreed,
        "wall_clock_s": elapsed,
        "words_total": result.words_total,
        "messages_total": result.messages_total,
        "bytes_total": result.bytes_total,
        "frames_total": summary["frames_total"],
        "frames_saved": summary["frames_saved"],
        "batch_occupancy_mean": summary["batch_occupancy_mean"],
        "batch_occupancy_max": summary["batch_occupancy_max"],
        "wire_bytes_total": summary["wire_bytes_total"],
        "wire_bytes_saved": summary["wire_bytes_saved"],
        "rounds": result.rounds,
    }


def _row(n: int, transport: str = "sim", batching: bool = True) -> dict:
    key = (n, transport, batching)
    if key not in _ROWS:
        _ROWS[key] = _run_row(n, transport, batching)
    return _ROWS[key]


def _committed_hotpath_walls() -> dict[int, float]:
    """Pre-batching sim wall clocks committed by the hot-path benchmark."""
    if not HOTPATH_JSON.exists():
        return {}
    data = json.loads(HOTPATH_JSON.read_text())
    return {row["n"]: row["wall_clock_s"] for row in data.get("rows", [])}


@pytest.mark.benchmark(group="E14-scale")
def test_e14_batched_sim_sweep(benchmark, fast_mode):
    """CI gate: coalescing happens and n = 50 completes in the budget.

    The n = 50 row delivering agreement *is* the step-budget gate: the
    run uses the simulator's default 5M-delivery cap, and the ~1.1M
    messages of n = 50 fit it with wide margin only because bulk
    delivery keeps the engine linear in deliveries.
    """
    ns = NS_SIM_BATCHED_FAST if fast_mode else NS_SIM_BATCHED_FULL
    rows = once(benchmark, lambda: [_row(n) for n in ns])
    record(benchmark, rows=rows)
    for row in rows:
        assert row["agreed"], row["n"]
        assert row["frames_saved"] > 0, row
        assert row["batch_occupancy_mean"] > 1.0, row
        assert row["wire_bytes_saved"] > 0, row
    assert any(row["n"] == 50 for row in rows) or fast_mode is False


@pytest.mark.benchmark(group="E14-scale")
def test_e14_protocol_totals_batching_invariant(benchmark, fast_mode):
    """Words/bytes/messages are byte-identical with batching on or off."""
    ns = NS_SIM_UNBATCHED_FAST if fast_mode else NS_SIM_UNBATCHED_FULL

    def pairs():
        return [(_row(n), _row(n, batching=False)) for n in ns]

    for batched, unbatched in once(benchmark, pairs):
        assert batched["words_total"] == unbatched["words_total"]
        assert batched["bytes_total"] == unbatched["bytes_total"]
        assert batched["messages_total"] == unbatched["messages_total"]
        assert batched["rounds"] == unbatched["rounds"]
        assert unbatched["frames_total"] == 0


@pytest.mark.benchmark(group="E14-scale")
def test_e14_tcp_scale(benchmark, fast_mode):
    """Batched TCP at n ∈ {10, 25}: real coalesced frames, real savings."""
    if fast_mode:
        pytest.skip("full grid only (REPRO_BENCH_FAST unset)")
    rows = once(benchmark, lambda: [_row(n, transport="tcp") for n in NS_TCP_FULL])
    record(benchmark, rows=rows)
    for row in rows:
        assert row["agreed"], row["n"]
        assert row["frames_saved"] > 0
        # Realtime burst sizes vary run to run; the wire total is
        # bounded by the protocol total but the strict-savings claim is
        # asserted on the deterministic sim rows.
        assert 0 < row["wire_bytes_total"] <= row["bytes_total"]


@pytest.mark.benchmark(group="E14-scale")
def test_e14_emit_json(benchmark, fast_mode):
    if fast_mode:
        pytest.skip("full grid only (REPRO_BENCH_FAST unset)")

    def build():
        sim_batched = [_row(n) for n in NS_SIM_BATCHED_FULL]
        sim_unbatched = [_row(n, batching=False) for n in NS_SIM_UNBATCHED_FULL]
        tcp = [_row(n, transport="tcp") for n in NS_TCP_FULL]
        return sim_batched, sim_unbatched, tcp

    sim_batched, sim_unbatched, tcp = once(benchmark, build)
    committed = _committed_hotpath_walls()
    batched_by_n = {row["n"]: row for row in sim_batched}
    speedup_vs_unbatched = {
        str(row["n"]): row["wall_clock_s"] / batched_by_n[row["n"]]["wall_clock_s"]
        for row in sim_unbatched
        if batched_by_n.get(row["n"], {}).get("wall_clock_s")
    }
    speedup_vs_committed = {
        str(n): committed[n] / batched_by_n[n]["wall_clock_s"]
        for n in batched_by_n
        if n in committed and batched_by_n[n]["wall_clock_s"] > 0
    }
    payload = {
        "benchmark": "E14-scale",
        "seed": SEED,
        "rows": sim_batched + sim_unbatched + tcp,
        "speedup_vs_unbatched": speedup_vs_unbatched,
        "speedup_vs_committed_hotpath": speedup_vs_committed,
        "notes": (
            "speedup_vs_unbatched is a same-process head-to-head against "
            "batching=False at HEAD; speedup_vs_committed_hotpath compares "
            "against the wall clocks committed in BENCH_hotpath.json (the "
            "pre-batching plane, possibly different hardware).  Protocol "
            "word/byte totals are byte-identical across planes; the "
            "structural wins (frames_saved, occupancy, wire_bytes_saved, "
            "n=100 completing) are the gated quantities."
        ),
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    record(
        benchmark,
        path=str(JSON_PATH),
        speedup_vs_unbatched=speedup_vs_unbatched,
        speedup_vs_committed=speedup_vs_committed,
    )
    # The scale targets: n=100 completes with agreement, and the batched
    # plane strictly beats the per-envelope plane at n=25.
    n100 = batched_by_n.get(100)
    assert n100 is not None and n100["agreed"]
    assert n100["messages_total"] > 5_000_000
    assert speedup_vs_unbatched.get("25", 0.0) > 1.0
