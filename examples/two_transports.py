#!/usr/bin/env python3
"""Run the identical protocol objects over both transports.

The protocol implementations are sans-io: the deterministic simulator
used by the benchmark and the TCP socket runtime, which runs on a live
asyncio event loop, host the *same* ADKG class through one root factory.
Here seven parties agree on one DKG transcript twice:

* ``sim`` — discrete-event simulation (deterministic, no wall clock);
* ``tcp`` — every message crosses a loopback socket as codec bytes.

``transport.run_sync(root_factory)`` is the one blocking entry on both:
one body on ``Transport`` (open, start, await session 0, close) that the
simulator answers without an event loop and TCP under ``asyncio.run``.

Run:  python examples/two_transports.py
"""

import time

from repro.core.adkg import ADKG
from repro.crypto import threshold_vrf as tvrf
from repro.crypto.keys import TrustedSetup
from repro.net.transport import TRANSPORT_KINDS, make_transport

N, SEED = 7, 5


def root_factory(party):
    """The one factory every transport hosts unchanged."""
    return ADKG()


def run_on(kind: str) -> None:
    setup = TrustedSetup.generate(N, seed=SEED)
    transport = make_transport(kind, setup, seed=SEED, measure_bytes=True)
    started = time.perf_counter()
    results = transport.run_sync(root_factory, timeout=120)
    elapsed = time.perf_counter() - started

    transcripts = list(results.values())
    assert all(t == transcripts[0] for t in transcripts), "agreement violated!"
    assert tvrf.DKGVerify(setup.directory, transcripts[0])
    print(
        f"[{kind}] {N} parties agreed in {elapsed:5.2f}s wall clock | "
        f"contributors {sorted(transcripts[0].contributors)} | "
        f"{transport.metrics.words_total:,} words / "
        f"{transport.metrics.bytes_total:,} protocol bytes / "
        f"{transport.metrics.wire_bytes_total:,} wire bytes"
    )


def main() -> None:
    for kind in TRANSPORT_KINDS:
        run_on(kind)
    print("same ADKG root factory, two transports, one transcript shape")


if __name__ == "__main__":
    main()
