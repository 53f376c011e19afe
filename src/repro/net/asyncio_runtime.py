"""Realtime asyncio transport for the same sans-io protocol objects.

The deterministic simulator (:mod:`repro.net.runtime`) is what the
experiments and most benchmark workloads use; this runtime exists to demonstrate that the protocol
implementations are genuinely transport-agnostic — they run unchanged
over asyncio with real concurrent delivery, which is how a deployment
would host them.

Each flush of the coalescing buffer is grouped per (sender, recipient)
link and each group becomes *one* ``asyncio`` task that sleeps for a
random delay and then delivers the group as a unit — the task overhead
amortizes just like the TCP runtime's frames; self-addressed envelopes
are delivered inline.
Words/messages are metered exactly like the simulator.  With
``measure_bytes=True`` each send is metered with its encoding's length
and each group is recorded as one frame, sized from those lengths the way
the simulator sizes a bucket (:meth:`Transport._frame_nbytes`); no frame
is built.  The outbox/behavior/metrics pipeline is the shared
:class:`~repro.net.transport.Transport` one; only the in-flight mechanism
lives here.
"""

from __future__ import annotations

import asyncio
import random
from typing import Optional

from repro.crypto.keys import TrustedSetup
from repro.net.adversary import Behavior
from repro.net.envelope import Envelope
from repro.net.transport import RealtimeTransport, RootFactory

__all__ = ["AsyncioRuntime", "RootFactory"]


class AsyncioRuntime(RealtimeTransport):
    """Run an n-party protocol over asyncio with real sleeps."""

    def __init__(
        self,
        setup: TrustedSetup,
        max_delay: float = 0.005,
        behaviors: Optional[dict[int, Behavior]] = None,
        seed: int = 0,
        measure_bytes: bool = False,
        chaos=None,
    ) -> None:
        super().__init__(
            setup,
            behaviors,
            seed,
            rng_namespace="asyncio-runtime",
            measure_bytes=measure_bytes,
            chaos=chaos,
        )
        self.max_delay = max_delay
        self._delay_rng = random.Random(f"asyncio-runtime-net-{seed}")

    # -- transport hooks ---------------------------------------------------------------

    def _transmit_coalesced(
        self, envelopes: list[Envelope], sizes: list, delays: list
    ) -> None:
        """One sleeping task per (sender, recipient) link per flush."""
        groups: dict[tuple[int, int], tuple[list[Envelope], list]] = {}
        for envelope, nbytes in zip(envelopes, sizes):
            pair = (envelope.sender, envelope.recipient)
            group = groups.get(pair)
            if group is None:
                groups[pair] = group = ([], [])
            group[0].append(envelope)
            group[1].append(nbytes)
        for group_envelopes, group_sizes in groups.values():
            self.metrics.record_frame(
                len(group_envelopes), self._frame_nbytes(group_envelopes, group_sizes)
            )
            self._spawn(self._deliver_batch_later(group_envelopes))

    async def _deliver_batch_later(self, envelopes: list[Envelope]) -> None:
        await asyncio.sleep(self._delay_rng.uniform(0.0, self.max_delay))
        for envelope in envelopes:
            self._deliver_buffered(envelope)
        self._flush_coalesced()
