"""E12 — hot-path amortization: wall clock + structural work counters.

The PR this benchmark rides with memoizes verification behind
content-addressed caches (``repro.crypto.verify_cache``), batches PVSS
pairing checks, encodes each broadcast payload once per fan-out and
caches Lagrange/RS tables.  None of that may change the protocol: word
counts stay byte-for-byte what BENCH_transport.json recorded.  What
*must* change is the work profile, and that is asserted structurally —
per-party PVSS verification drops from O(n·echoes) to O(distinct
transcripts) (``pvss-transcript.misses ≪ .calls``), payload encodings
drop from O(n·sends) to O(distinct payloads) (``payload.hits > 0``) —
not just by timing.

Emits ``BENCH_hotpath.json`` next to this file: one row per
``n ∈ {4, 10, 16, 25}`` on the sim transport with wall-clock seconds,
verify-call counters, encode-call counters and pairing-operation counts,
plus the speedup at the grid points BENCH_transport.json also measured.

The committed JSON doubles as the CI regression baseline:
``test_no_verify_regression`` (run by the perf-smoke job with
``REPRO_BENCH_FAST=1``) re-runs n=4 and fails if verify-call counts grew
past the recorded numbers — a re-introduced redundant verification is
caught even on hardware where timing is useless.
"""

import json
import pathlib
import time

import pytest

from repro import run_adkg

from conftest import once, record

NS_FULL = (4, 10, 16, 25)
NS_FAST = (4,)
SEED = 1
JSON_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_hotpath.json"
TRANSPORT_JSON = pathlib.Path(__file__).resolve().parent / "BENCH_transport.json"

#: Loaded at import time, *before* any test re-emits the file, so the
#: regression gate compares against the committed baseline.
_COMMITTED_BASELINE = (
    json.loads(JSON_PATH.read_text()) if JSON_PATH.exists() else None
)

_ROWS: dict[int, dict] = {}


def _run_row(n: int) -> dict:
    started = time.perf_counter()
    result = run_adkg(n=n, seed=SEED, transport="sim", measure_bytes=True)
    elapsed = time.perf_counter() - started
    counters = result.metrics_summary["counters"]
    return {
        "n": n,
        "agreed": result.agreed,
        "wall_clock_s": elapsed,
        "words_total": result.words_total,
        "messages_total": result.messages_total,
        "bytes_total": result.bytes_total,
        "verify": counters["verify"],
        "encode": counters["encode"],
        "pairing": counters["pairing"],
    }


def _row(n: int) -> dict:
    if n not in _ROWS:
        _ROWS[n] = _run_row(n)
    return _ROWS[n]


def _transport_baseline_walls() -> dict[int, float]:
    """Sim wall clocks recorded by BENCH_transport.json (pre-PR reference)."""
    if not TRANSPORT_JSON.exists():
        return {}
    data = json.loads(TRANSPORT_JSON.read_text())
    return {
        row["n"]: row["wall_clock_s"]
        for row in data.get("rows", [])
        if row.get("transport") == "sim"
    }


@pytest.mark.benchmark(group="E12-hotpath")
def test_e12_hotpath_sweep(benchmark, fast_mode):
    ns = NS_FAST if fast_mode else NS_FULL
    rows = once(benchmark, lambda: [_row(n) for n in ns])
    record(benchmark, rows=rows)
    for row in rows:
        assert row["agreed"], row["n"]
        verify = row["verify"]
        # Amortization is structural: the transcript arriving once per
        # RBC echo path is verified once per *distinct* aggregate.
        calls = verify.get("pvss-transcript.calls", 0)
        misses = verify.get("pvss-transcript.misses", 0)
        assert calls > 0 and misses > 0
        assert misses <= 2 * row["n"], (row["n"], misses)
        assert verify.get("pvss-transcript.hits", 0) > misses
        # Encode-once fan-out: a multicast payload is encoded once, the
        # buffer reused for the other n-1 recipients.
        encode = row["encode"]
        assert encode.get("payload.hits", 0) > encode.get("payload.misses", 0)


@pytest.mark.benchmark(group="E12-hotpath")
def test_e12_word_metric_untouched(benchmark):
    """Amortization must not move the paper's schedule metric one word."""
    walls = _transport_baseline_walls()
    if not TRANSPORT_JSON.exists():
        pytest.skip("no BENCH_transport.json to compare against")
    data = json.loads(TRANSPORT_JSON.read_text())
    sim_words = {
        row["n"]: row["words_total"]
        for row in data["rows"]
        if row["transport"] == "sim"
    }
    shared = sorted(set(sim_words) & set(NS_FULL))
    rows = once(benchmark, lambda: [_row(n) for n in shared])
    record(benchmark, words={row["n"]: row["words_total"] for row in rows})
    for row in rows:
        assert row["words_total"] == sim_words[row["n"]], row["n"]
    assert walls, "transport benchmark recorded no sim rows"


@pytest.mark.benchmark(group="E12-hotpath")
def test_e12_emit_json(benchmark, fast_mode):
    if fast_mode:
        pytest.skip("full grid only (REPRO_BENCH_FAST unset)")
    rows = once(benchmark, lambda: [_row(n) for n in NS_FULL])
    walls = _transport_baseline_walls()
    speedups = {
        str(n): walls[n] / row["wall_clock_s"]
        for n, row in ((r["n"], r) for r in rows)
        if n in walls and row["wall_clock_s"] > 0
    }
    payload = {
        "benchmark": "E12-hotpath",
        "seed": SEED,
        "transport": "sim",
        "rows": rows,
        "pre_pr_sim_wall_clock_s": {str(n): walls[n] for n in sorted(walls)},
        "speedup_vs_pre_pr": speedups,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    record(benchmark, path=str(JSON_PATH), speedups=speedups)
    assert all(row["agreed"] for row in rows)
    # The tentpole target: ≥3× sim wall clock at n=10, and n=25 agrees.
    if "10" in speedups:
        assert speedups["10"] >= 3.0, speedups
    assert any(row["n"] == 25 and row["agreed"] for row in rows)


@pytest.mark.benchmark(group="E12-hotpath")
def test_no_verify_regression(benchmark):
    """CI gate: verify-call counts at n=4 must not regress past baseline.

    Counter-based, so it is immune to CI hardware noise.  A small slack
    absorbs legitimate drift (an extra view changes message counts); a
    re-introduced per-echo verification blows straight through it.
    """
    if _COMMITTED_BASELINE is None:
        pytest.skip("no committed BENCH_hotpath.json baseline yet")
    baseline_row = next(
        (r for r in _COMMITTED_BASELINE["rows"] if r["n"] == 4), None
    )
    if baseline_row is None:
        pytest.skip("baseline has no n=4 row")
    row = once(benchmark, lambda: _row(4))
    record(benchmark, verify=row["verify"], baseline=baseline_row["verify"])
    for key in ("pvss-transcript", "pvss-contrib", "cert-vote"):
        for suffix in ("calls", "misses"):
            current = row["verify"].get(f"{key}.{suffix}", 0)
            recorded = baseline_row["verify"].get(f"{key}.{suffix}", 0)
            assert current <= recorded * 1.25 + 4, (
                f"{key}.{suffix} regressed: {current} > baseline {recorded}"
            )
