"""Epoch pipelining: repeated root-protocol runs over one live network.

An *epoch* is one complete run of a root protocol (by default the ADKG)
in its own session.  The :class:`EpochDriver` drives *lanes*: a lane is a
session family — ``(session_base, committee, threshold)`` — that keeps up
to ``pipeline_depth`` epochs in flight at once, epoch ``e + depth``
injected the moment epoch ``e`` completes, so the expensive early phase
of a fresh epoch (PVSS dealing and share verification) overlaps the
agreement tail of the epochs ahead of it.  One lane × depth d is the
pipelined beacon (depth 1: strictly back-to-back, E13's baseline);
k lanes × depth 1 is the multiplexed shard run (DESIGN §12).

The driver has one loop on the transport's driving surface (DESIGN §7):
open the network once, inject sessions while traffic is flowing, await
``wait_any`` over every lane's oldest session — the simulator steps its
event queue inline, asyncio/TCP suspend.  A completed epoch's protocol
state (instance tree, pending buffers, condition registry at every
party) is garbage-collected before the next epoch is admitted, so a
service running thousands of epochs holds state only for the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.net.party import Party
from repro.net.protocol import Protocol
from repro.net.transport import Transport

__all__ = ["EpochDriver", "EpochResult"]


def _default_root_factory(party: Party) -> Protocol:
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
    """Run ``epochs`` sessions per lane, ``pipeline_depth`` at a time.

    ``lanes`` is a sequence of ``(session_base, committee, threshold)``
    triples: a lane's epoch ``e`` runs in session ``session_base + e``
    and its results record ``committee`` / ``threshold`` (``None``: the
    transport's full party range and its ``f``).  The default is the one
    lane of a fixed committee starting at session 0.
    """

    def __init__(
        self,
        transport: Transport,
        *,
        epochs: int,
        pipeline_depth: int = 1,
        root_factory: Optional[Callable[[Party], Protocol]] = None,
        lanes: Sequence[tuple] = ((0, None, None),),
        gc_completed: bool = True,
        timeout: float = 120.0,
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
        self.root_factory = root_factory or _default_root_factory
        self.lanes = tuple(lanes)
        self.gc_completed = gc_completed
        self.timeout = timeout
        #: Per lane, its completed epochs in epoch order.
        self.lane_results: list[list[EpochResult]] = [[] for _ in self.lanes]
        self._started_at: dict[int, float] = {}

    @property
    def results(self) -> list[EpochResult]:
        """Every completed epoch, lane by lane, each lane in epoch order."""
        return [result for lane in self.lane_results for result in lane]

    # -- driving -----------------------------------------------------------------------

    def run(self) -> list[EpochResult]:
        """Run every lane's epochs to completion (blocking); :attr:`results`."""
        return self.transport.block_on(self.run_async())

    async def run_async(self) -> list[EpochResult]:
        """The one driving loop, on any transport's driving surface."""
        transport = self.transport
        depth, epochs = self.pipeline_depth, self.epochs
        await transport.open()
        try:
            #: Session of each lane's oldest epoch in flight -> (lane, epoch).
            oldest: dict[int, tuple[int, int]] = {}
            for lane, (base, _committee, _threshold) in enumerate(self.lanes):
                for epoch in range(min(depth, epochs)):
                    self._start_epoch(lane, epoch)
                oldest[base] = (lane, 0)
            while oldest:
                done = await transport.wait_any(oldest, timeout=self.timeout)
                for sid in sorted(done):
                    lane, epoch = oldest.pop(sid)
                    self._finish_epoch(lane, epoch)
                    if epoch + depth < epochs:
                        self._start_epoch(lane, epoch + depth)
                    if epoch + 1 < epochs:
                        oldest[sid + 1] = (lane, epoch + 1)
        finally:
            await transport.close()
        return self.results

    # -- bookkeeping -------------------------------------------------------------------

    def _start_epoch(self, lane: int, epoch: int) -> None:
        sid = self.lanes[lane][0] + epoch
        self._started_at[sid] = self.transport.now()
        self.transport.start_session(sid, self.root_factory)

    def _finish_epoch(self, lane: int, epoch: int) -> None:
        base, committee, threshold = self.lanes[lane]
        sid = base + epoch
        outputs = self.transport.honest_results(sid)
        values = list(outputs.values())
        if not values or any(v != values[0] for v in values):
            # Agreement is Theorem 5; a split here is an engine bug, not
            # a condition to paper over.
            raise RuntimeError(f"honest parties disagree in session {sid}")
        if committee is None:
            committee = range(self.transport.n)
        if threshold is None:
            threshold = self.transport.f
        self.lane_results[lane].append(
            EpochResult(
                epoch=epoch,
                session=sid,
                transcript=values[0],
                outputs=outputs,
                started_at=self._started_at.pop(sid),
                # The transport's stamp, not now(): a pipelined epoch
                # awaited out of order completed before we observed it.
                completed_at=self.transport.completion_time(sid),
                committee=tuple(committee),
                threshold=threshold,
            )
        )
        if self.gc_completed:
            self.transport.collect_session(sid)
