"""Write/read round trips of the two layers that have both directions.

Run after the traced pass, on envelopes captured from a real ADKG through
``Transport.add_delivery_observer``, calling public functions directly:
``codec.encode_batch`` against ``codec.decode_batch`` and
``WriteAheadLog.append`` against ``WriteAheadLog.replay``.  A change that
speeds the write side at the read side's cost (or the reverse) shows here
before it shows end to end.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
from time import perf_counter

from perf.workloads import TMP_ROOT

from repro.core.adkg import ADKG
from repro.crypto.keys import TrustedSetup
from repro.net import FixedDelay, codec, make_transport
from repro.storage import WriteAheadLog

#: Envelopes per coalesced frame, and how many times each side is timed.
FRAME = 64
REPEATS = 5


def capture(seed: int, n: int, limit: int) -> list:
    """The first ``limit`` network envelopes one ADKG delivers."""
    setup = TrustedSetup.generate(n, seed=seed)
    runtime = make_transport("sim", setup, seed=seed, delay_model=FixedDelay(1.0))
    captured: list = []

    def observe(envelope) -> None:
        if len(captured) < limit:
            captured.append(envelope)

    runtime.add_delivery_observer(observe)
    runtime.run_sync(lambda party: ADKG())
    return captured


def _median_seconds(fn) -> float:
    samples = []
    for _ in range(REPEATS):
        started = perf_counter()
        fn()
        samples.append(perf_counter() - started)
    return statistics.median(samples)


def run(seed: int, size: str) -> dict[str, float]:
    n, limit = (7, 4096) if size == "full" else (4, 512)
    envelopes = capture(seed, n, limit)
    frames = [envelopes[i : i + FRAME] for i in range(0, len(envelopes), FRAME)]

    bodies = [codec.encode_batch(frame) for frame in frames]
    if [codec.decode_batch(body) for body in bodies] != frames:
        raise AssertionError("codec batch round trip changed an envelope")
    megabytes = sum(len(body) for body in bodies) / 1e6
    encode_s = _median_seconds(lambda: [codec.encode_batch(f) for f in frames])
    decode_s = _median_seconds(lambda: [codec.decode_batch(b) for b in bodies])

    TMP_ROOT.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix="probe-", dir=TMP_ROOT)
    try:
        append_samples, replay_samples = [], []
        for repeat in range(REPEATS):
            with WriteAheadLog(f"{directory}/{repeat}.wal", fsync=False) as wal:
                started = perf_counter()
                for envelope in envelopes:
                    wal.append(envelope)
                append_samples.append(perf_counter() - started)
                started = perf_counter()
                records = wal.replay()
                replay_samples.append(perf_counter() - started)
            if [envelope for _seq, envelope in records] != envelopes:
                raise AssertionError("WAL round trip changed an envelope")
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    return {
        "net.codec.encode_mb_per_s": megabytes / encode_s,
        "net.codec.decode_mb_per_s": megabytes / decode_s,
        "storage.append_records_per_s": len(envelopes) / statistics.median(append_samples),
        "storage.replay_records_per_s": len(envelopes) / statistics.median(replay_samples),
    }
