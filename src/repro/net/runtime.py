"""The deterministic discrete-event simulator.

``Simulation`` is the discrete-event :class:`~repro.net.transport.Transport`:
it owns the delay model and the (possibly adversarial) scheduler, and
executes the shared delivery pipeline over a priority queue of pending
deliveries:

1. pop the earliest batch of envelopes, deliver each to its recipient's
   party (which routes it, runs handlers and sweeps "upon" conditions);
2. drain every touched party's outbox: self-addressed envelopes are
   delivered immediately (local computation — no words metered, no
   delay), network envelopes are metered into the coalescing buffer and
   scheduled in bulk before the next queue pop.

The outbox-draining, Byzantine-behavior and metrics logic lives in the
shared :class:`~repro.net.transport.Transport` base; this class adds only
simulated time.

Bulk delivery: every envelope gets its *own* delay draw from the model
and its own pass through the adversarial scheduler, in creation order
at buffer time, but envelopes that land on the same delivery instant
share one heap entry.  Under ``FixedDelay`` a whole timestep's sends
collapse into a handful of heap entries, and the engine pops them back
as one batch.  Delivery order does not depend on the coalescing cap:
within a shared entry the creation order is preserved, across entries
the heap orders by (time, push sequence), and two envelopes with the
same delivery time are either in the same entry (same slice of a
flush) or in entries pushed in creation order (different slices).  At
``batch_cap_envelopes = 1`` every send is its own entry — the
per-envelope reference schedule the equivalence tests compare against.
A heap entry is the simulator's frame (``Metrics.record_frame``): it is
counted, never priced, since it spans links no one socket carries; wire
bytes are the TCP runtime's alone.

Determinism: all randomness flows from one master seed; ties in the queue
break by insertion sequence.  The asynchronous model's eventual-delivery
obligation holds because every delay is finite.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from collections import deque
from typing import Any, Callable, Optional
import random

from repro.crypto.keys import TrustedSetup
from repro.net.adversary import Behavior, Scheduler
from repro.net.delays import DelayModel, FixedDelay, UniformDelay
from repro.net.envelope import Envelope
from repro.net.transport import RootFactory, Transport

__all__ = ["Simulation", "RootFactory"]


class Simulation(Transport):
    """An n-party protocol execution under simulated asynchrony."""

    def __init__(
        self,
        setup: TrustedSetup,
        delay_model: Optional[DelayModel] = None,
        scheduler: Optional[Scheduler] = None,
        behaviors: Optional[dict[int, Behavior]] = None,
        seed: int = 0,
        measure_bytes: bool = False,
        chaos: Any = None,
    ) -> None:
        super().__init__(
            setup,
            behaviors,
            seed,
            rng_namespace="simulation",
            measure_bytes=measure_bytes,
            chaos=chaos,
        )
        self.delay_model = delay_model or UniformDelay()
        self.scheduler = scheduler or Scheduler()
        self.time = 0.0
        self.steps = 0
        #: Default delivery budget of :meth:`run` and so of every awaitable
        #: (what ``timeout`` is to a realtime runtime).  A benign ADKG makes
        #: about 10 n³ deliveries, so the floor holds up to n = 46.
        self.max_steps = max(5_000_000, 50 * self.n**3)
        self._seq = itertools.count()
        #: Heap of (time, seq, envelopes): the envelopes of one flush
        #: sharing one delivery instant, or one chaos-held envelope.
        self._queue: list[tuple[float, int, list[Envelope]]] = []
        #: Same-instant envelopes already popped and awaiting delivery.
        self._ready: deque[Envelope] = deque()
        self._net_rng = random.Random(f"simulation-net-{seed}")

    # -- timing ------------------------------------------------------------------------

    def now(self) -> float:
        return self.time

    # -- event loop --------------------------------------------------------------------

    def step(self) -> bool:
        """Deliver one envelope; returns False when the queue is empty."""
        ready = self._ready
        while True:
            if ready:
                envelope = ready.popleft()
            else:
                envelope = self._pop_next()
                if envelope is None:
                    return False
            self.steps += 1
            if self._deliver_buffered(envelope):
                return True

    def _pop_next(self) -> Optional[Envelope]:
        """The next heap entry's first envelope, advancing time; the rest
        of a same-instant batch goes to ``_ready``, which must be empty.

        Coalesced sends are flushed (scheduled) before the queue is
        consulted — they are in-flight traffic, so quiescence is only
        declared once both the buffer and the queue are empty.
        """
        if self._outgoing:
            self._flush_coalesced()
        if not self._queue:
            return None
        when, _seq, entry = heapq.heappop(self._queue)
        # Heap pops are nondecreasing in time (delays are strictly
        # positive), so no max() re-comparison per delivery.
        self.time = when
        # A coalesced batch arrives at its recipients as one event.
        ready = self._ready
        ready.extend(entry)
        return ready.popleft()

    def run(
        self,
        max_steps: Optional[int] = None,
        stop: Optional[Callable[["Simulation"], bool]] = None,
    ) -> None:
        """Run until quiescence, ``stop`` holds, or ``max_steps`` deliveries
        (default: the :attr:`max_steps` budget)."""
        if max_steps is None:
            max_steps = self.max_steps
        step = self.step
        if stop is None:
            for _ in range(max_steps):
                if not step():
                    return
        else:
            for _ in range(max_steps):
                if stop(self):
                    return
                if not step():
                    return
        # The budget is spent; a run that finished *on* its last delivery
        # is still a finished run.
        if stop is not None and stop(self):
            return
        if not (self._ready or self._outgoing or self._queue):
            return
        raise RuntimeError(
            f"simulation exceeded its budget of {max_steps} deliveries; "
            "pass a larger max_steps= to allow more"
        )

    # -- the driving surface -----------------------------------------------------------
    #
    # Each awaitable steps the queue inline and returns without ever
    # suspending; ``timeout`` is accepted and ignored — simulated runs
    # are bounded by ``max_steps``, not wall clock.

    async def wait_any(self, sessions: Any, timeout: Any = None) -> list[int]:
        """Deliver until one of ``sessions`` completes; returns the
        completed ones.  A queue that drains first is a stalled protocol:
        ``RuntimeError`` naming the sessions."""
        sessions = tuple(sessions)
        if len(sessions) == 1:
            # One C-level predicate call per delivery: no extra frame.
            self.run(stop=operator.methodcaller("all_honest_output", sessions[0]))
        else:
            self.run(stop=lambda sim: any(map(sim.all_honest_output, sessions)))
        done = [s for s in sessions if self.all_honest_output(s)]
        if not done:
            raise RuntimeError(
                f"simulation quiesced with sessions {sorted(sessions)} incomplete"
            )
        return done

    async def wait_until(
        self, predicate: Callable[["Simulation"], bool], timeout: Any = None
    ) -> None:
        """Deliver until ``predicate(self)`` holds."""
        self.run(stop=predicate)
        if not predicate(self):
            raise RuntimeError(
                "simulation quiesced before the awaited condition held"
            )

    async def sleep(self, delay: float) -> None:
        """Deliver until simulated time has advanced by ``delay`` (or the
        queue is empty: time only moves with deliveries)."""
        deadline = self.time + delay
        self.run(stop=lambda sim: sim.time >= deadline)

    async def drain(self) -> None:
        self.run()

    def round_measure(self) -> float:
        """Simulated time — the causal-chain length under ``FixedDelay``."""
        return self.time

    # -- transport hooks ---------------------------------------------------------------

    def _buffered_delays(self, envelopes: list[Envelope]) -> Optional[list[float]]:
        """Draw each envelope's delivery delay the moment it is buffered.

        Drawing here consumes the delay-model and adversary RNG streams
        in creation order — interleaved with Byzantine behavior
        transforms — whatever the coalescing cap.  Returns ``None`` on
        the fast path (fixed delay + identity scheduler: nothing
        consumes randomness, the delay is a constant resolved at flush).
        """
        if (
            type(self.delay_model) is FixedDelay
            and type(self.scheduler) is Scheduler
        ):
            return None
        return [self._draw_delay(envelope) for envelope in envelopes]

    def _draw_delay(self, envelope: Envelope) -> float:
        base = self.delay_model.delay(
            self._net_rng, envelope.sender, envelope.recipient, self.time
        )
        delay = self.scheduler.schedule(self._adv_rng, envelope, base, self.time)
        if not 0 < delay < math.inf:
            raise RuntimeError(
                f"drew a delay of {delay!r}; a delay must be finite and positive"
            )
        return delay

    def _transmit_coalesced(
        self, envelopes: list[Envelope], sizes: list, delays: list
    ) -> None:
        """Schedule one batch, sharing heap entries per delivery instant.

        Delays were drawn per-envelope at buffer time
        (:meth:`_buffered_delays`, ``None`` for the fixed delay); only
        the heap representation is coalesced here.  The metered sizes
        are not used: no socket carries a heap entry, so its bytes are
        not counted as wire bytes.
        """
        time = self.time
        fixed = (
            self.delay_model.value
            if type(self.delay_model) is FixedDelay
            else None
        )
        buckets: dict[float, list[Envelope]] = {}
        if fixed is not None and delays.count(None) == len(delays):
            # Every delay is the fixed constant: one delivery instant,
            # one bucket, no per-envelope probe.
            buckets[time + fixed] = envelopes
        else:
            for envelope, delay in zip(envelopes, delays):
                when = time + (fixed if delay is None else delay)
                bucket = buckets.get(when)
                if bucket is None:
                    buckets[when] = bucket = []
                bucket.append(envelope)
        record_frame = self.metrics.record_frame
        for when, entry in buckets.items():
            heapq.heappush(self._queue, (when, next(self._seq), entry))
            record_frame(len(entry))

    # -- chaos hooks -------------------------------------------------------------------

    def _chaos_requeue(self, envelope: Envelope, delay: float) -> None:
        """Re-inject a chaos-held envelope at ``time + delay``.

        Ordinary heap entry, ordinary tie-break: a held envelope competes
        with in-flight traffic exactly like a freshly transmitted one,
        so determinism is untouched.
        """
        heapq.heappush(
            self._queue, (self.time + delay, next(self._seq), [envelope])
        )
