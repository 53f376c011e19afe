"""repro — reproduction of *Reaching Consensus for Asynchronous Distributed
Key Generation* (Abraham, Jovanovic, Maller, Meiklejohn, Stern, Tomescu;
PODC 2021, arXiv:2102.09041).

Quickstart::

    from repro import run_adkg

    result = run_adkg(n=7, seed=1)
    print(result.public_key)        # the group public key g^{F(0)}
    print(result.words_total)      # measured communication in words
    print(result.rounds)           # asynchronous rounds to agreement

Layers (bottom-up): :mod:`repro.crypto` (fields, groups, signatures,
PVSS, threshold VRF), :mod:`repro.net` (sans-io protocol substrate +
session-multiplexed transports), :mod:`repro.storage` (snapshot + WAL
durability, in-session crash–recovery), :mod:`repro.broadcast`
(reliable broadcast), :mod:`repro.core` (Gather, Proposal Election,
NWH, A-DKG), :mod:`repro.baselines` (the Ω(n⁴) comparator) and
:mod:`repro.service` (pipelined ADKG epochs + randomness beacon).  See
DESIGN.md for the full inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.adkg import ADKG
from repro.crypto.keys import TrustedSetup
from repro.net.delays import DelayModel
from repro.net.runtime import Simulation
from repro.net.transport import Transport, make_run_transport, make_transport

__version__ = "1.3.0"


@dataclass
class ADKGResult:
    """Outcome of one A-DKG execution (any transport)."""

    n: int
    f: int
    transcript: Any
    public_key: Any
    outputs: dict[int, Any]
    words_total: int
    messages_total: int
    rounds: float
    views: int
    bytes_total: int = 0
    transport: str = "sim"
    metrics_summary: dict = field(default_factory=dict)

    @property
    def agreed(self) -> bool:
        values = list(self.outputs.values())
        return bool(values) and all(v == values[0] for v in values)


def _collect_result(transport: Transport, kind: str) -> ADKGResult:
    outputs = transport.honest_results()
    transcript = next(iter(outputs.values()), None)
    views = 0
    for i in transport.honest:
        nwh = transport.parties[i].instance(("nwh",))
        if nwh is not None:
            views = max(views, nwh.views_entered)
    return ADKGResult(
        n=transport.n,
        f=transport.f,
        transcript=transcript,
        public_key=getattr(transcript, "public_key", None),
        outputs=outputs,
        words_total=transport.metrics.words_total,
        messages_total=transport.metrics.messages_total,
        rounds=transport.round_measure(),
        views=views,
        bytes_total=transport.metrics.bytes_total,
        transport=kind,
        metrics_summary=transport.metrics.summary(),
    )


def run_adkg(
    n: Optional[int] = None,
    seed: int = 0,
    delay_model: Optional[DelayModel] = None,
    scheduler=None,
    behaviors=None,
    to_quiescence: bool = False,
    setup: Optional[TrustedSetup] = None,
    transport: str = "sim",
    measure_bytes: Optional[bool] = None,
    timeout: float = 120.0,
    workers: Optional[int] = None,
    chaos: Any = None,
) -> ADKGResult:
    """Run one A-DKG over the selected transport and return result + metrics.

    The committee is ``setup`` (its size, threshold and keys), or a fresh
    ``TrustedSetup.generate(n, seed=seed)`` when none is given; ``n``
    defaults to the setup's size, else 7, and an ``n`` that contradicts
    the setup's is a ``ValueError``.

    ``transport`` selects the runtime: ``"sim"`` (deterministic
    discrete-event simulator, the default) or ``"tcp"`` (real loopback
    stream sockets with the byte codec; always byte-metered).
    ``delay_model``, ``scheduler`` and ``to_quiescence`` apply to the
    simulator only; combining them with TCP raises ``ValueError``.

    With the default ``delay_model=FixedDelay(1.0)`` the simulator's
    reported ``rounds`` equals the length of the longest causal message
    chain — the standard asynchronous round measure.  Set
    ``to_quiescence=True`` to keep running after agreement so that
    ``words_total`` counts every message the protocol ever sends (what
    Theorems 6-10 bound).

    ``workers`` is a tombstone: verification always runs in-process
    (DESIGN §10), and only ``None`` or ``0`` is accepted.

    ``chaos`` attaches the link-fault plane (DESIGN §11): a
    :class:`~repro.net.chaos.ChaosSpec` or a spec string such as
    ``"partition:0|1,2,3@2-20;drop:0.05"``.  The plane is seeded from
    ``seed``, so a chaos run is exactly as reproducible as a clean one;
    injected fault counts appear under ``metrics_summary["counters"]
    ["chaos"]``.  Works on every transport (times are rounds on the
    simulator, seconds on TCP).
    """
    if workers:
        # Tombstone: ``perf/workloads.py`` (frozen) passes ``workers=0``; the
        # keyword goes when the next benchmark PR drops that (ROADMAP).
        raise ValueError("the process-pool verifier was removed; workers must be 0")
    if setup is None:
        setup = TrustedSetup.generate(7 if n is None else n, seed=seed)
    elif n is not None and n != setup.directory.n:
        raise ValueError(
            f"n={n} contradicts the setup's committee of n={setup.directory.n}"
        )
    # ``None`` for measure_bytes / chaos means the transport's default:
    # bytes off for sim and always on for TCP (which refuses
    # measure_bytes=False), no chaos plane.
    runtime = make_run_transport(
        transport,
        setup,
        behaviors=behaviors,
        seed=seed,
        delay_model=delay_model,
        scheduler=scheduler,
        to_quiescence=to_quiescence,
        measure_bytes=measure_bytes,
        chaos=chaos,
    )
    runtime.run_sync(lambda party: ADKG(), timeout=timeout)
    if to_quiescence:
        # Keep delivering after agreement so words_total counts every
        # message ever sent (the simulator's close() holds nothing back).
        runtime.block_on(runtime.drain())
    return _collect_result(runtime, transport)


__all__ = [
    "run_adkg",
    "ADKGResult",
    "TrustedSetup",
    "Simulation",
    "make_transport",
    "__version__",
]
