"""Epoch pipelining: repeated root-protocol runs over one live network.

An *epoch* is one complete run of a root protocol (by default the ADKG)
in its own session.  The :class:`EpochDriver` keeps up to
``pipeline_depth`` epochs in flight at once, epoch ``e + depth`` injected
the moment epoch ``e`` completes, so the expensive early phase of a fresh
epoch (PVSS dealing and share verification) overlaps the agreement tail
of the epochs ahead of it (depth 1: strictly back-to-back, E13's
baseline).

The driver has one loop on the transport's driving surface (DESIGN §7):
open the network once, inject sessions while traffic is flowing, await
each epoch in order — the simulator steps its event queue inline, TCP
suspends.  A completed epoch's protocol state (instance tree,
pending buffers, condition registry at every party) is garbage-collected
before the next epoch is admitted, so a service running thousands of
epochs holds state only for the window.

A fault overlay is a per-epoch value on that loop: ``interludes`` maps an
epoch to a coroutine function awaited right after the epoch's session
starts (a :class:`~repro.storage.recovery.CrashPlan` crashes and
rehydrates parties there) while traffic keeps being delivered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Mapping, Optional

from repro.net.party import Party
from repro.net.protocol import Protocol
from repro.net.transport import Transport

__all__ = ["EpochDriver", "EpochResult", "Interlude", "adkg_root"]

#: What the loop awaits right after starting an epoch: ``(session id)``.
Interlude = Callable[[int], Awaitable[None]]


def adkg_root(party: Party) -> Protocol:
    """The default root factory: a fresh ADKG at every party."""
    from repro.core.adkg import ADKG

    return ADKG()


@dataclass
class EpochResult:
    """One completed epoch: the agreed value plus completion timing.

    ``started_at``/``completed_at`` are in the transport's native time
    units — simulated time on the simulator (the asynchronous round
    measure under ``FixedDelay``), wall-clock seconds since the driver
    started on realtime transports.
    """

    epoch: int
    session: int
    transcript: Any
    outputs: dict[int, Any]
    started_at: float
    completed_at: float
    #: Who held the key this epoch: universe-level member ids (defaults
    #: to the transport's full party range for fixed-committee runs) and
    #: the epoch's fault threshold ``f``.  Reports and the beacon chain
    #: record these so an observer can audit *who* signed each epoch.
    committee: tuple = ()
    threshold: int = -1

    @property
    def public_key(self) -> Any:
        return getattr(self.transcript, "public_key", None)

    @property
    def latency(self) -> float:
        return self.completed_at - self.started_at

    @property
    def agreed(self) -> bool:
        values = list(self.outputs.values())
        return bool(values) and all(v == values[0] for v in values)


class EpochDriver:
    """Run ``epochs`` sessions, ``pipeline_depth`` at a time.

    Epoch ``e`` runs in session ``e``; results record the
    transport's full party range as the committee and its ``f`` as the
    threshold (a caller that knows better restamps them).  ``interludes``
    maps an epoch to the :data:`Interlude` (or ``None``) awaited right
    after that epoch's session starts, on the transport's driving surface.
    """

    def __init__(
        self,
        transport: Transport,
        *,
        epochs: int,
        pipeline_depth: int = 1,
        root_factory: Optional[Callable[[Party], Protocol]] = None,
        timeout: float = 120.0,
        interludes: Optional[Mapping[int, Optional[Interlude]]] = None,
    ) -> None:
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        if not isinstance(transport, Transport):
            raise TypeError(f"unsupported transport {type(transport).__name__!r}")
        self.transport = transport
        self.epochs = epochs
        self.pipeline_depth = pipeline_depth
        self.root_factory = root_factory or adkg_root
        self.timeout = timeout
        self.interludes = dict(interludes or {})
        #: Completed epochs, in epoch order.
        self.results: list[EpochResult] = []
        self._started_at: dict[int, float] = {}

    # -- driving -----------------------------------------------------------------------

    def run(self) -> list[EpochResult]:
        """Run every epoch to completion (blocking); :attr:`results`."""
        return self.transport.block_on(self.run_async())

    async def run_async(self) -> list[EpochResult]:
        """The one driving loop, on any transport's driving surface."""
        transport = self.transport
        depth, epochs = self.pipeline_depth, self.epochs
        await transport.open()
        try:
            for epoch in range(min(depth, epochs)):
                await self._start_epoch(epoch)
            for epoch in range(epochs):
                outputs = await transport.wait_session(epoch, timeout=self.timeout)
                self._finish_epoch(epoch, outputs)
                if epoch + depth < epochs:
                    await self._start_epoch(epoch + depth)
        finally:
            await transport.close()
        return self.results

    # -- bookkeeping -------------------------------------------------------------------

    async def _start_epoch(self, epoch: int) -> None:
        self._started_at[epoch] = self.transport.now()
        self.transport.start(self.root_factory, session=epoch)
        interlude = self.interludes.get(epoch)
        if interlude is not None:
            await interlude(epoch)

    def _finish_epoch(self, epoch: int, outputs: dict[int, Any]) -> None:
        values = list(outputs.values())
        if not values or any(v != values[0] for v in values):
            # Agreement is Theorem 5; a split here is an engine bug, not
            # a condition to paper over.
            raise RuntimeError(f"honest parties disagree in session {epoch}")
        self.results.append(
            EpochResult(
                epoch=epoch,
                session=epoch,
                transcript=values[0],
                outputs=outputs,
                started_at=self._started_at.pop(epoch),
                # The transport's stamp, not now(): a pipelined epoch
                # awaited out of order completed before we observed it.
                completed_at=self.transport.completion_time(epoch),
                committee=tuple(range(self.transport.n)),
                threshold=self.transport.f,
            )
        )
        self.transport.collect_session(epoch)
