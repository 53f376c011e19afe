"""Structured execution traces for protocol debugging and analysis.

A :class:`Tracer` hooks any :class:`~repro.net.transport.Transport` —
simulated or realtime — and records every network delivery as a
structured event (the transport's ``now()``, its delivery count, sender,
recipient, instance path, payload type, depth, words).  Traces answer the
questions protocol debugging actually asks — "when did party 2's PE start
emitting eval shares?", "which message triggered the view change?" —
without printf-ing the protocol code.

The tracer registers itself as one of the transport's *delivery
observers*
(:meth:`~repro.net.transport.Transport.add_delivery_observer`), which
fire once per successfully delivered network envelope.  This observes
the bulk-delivery engine directly — no queue snapshots, no per-step
diffing — so tracing costs O(1) per delivery regardless of how many
envelopes share a heap entry on the batched plane, and several tracers
can watch one transport concurrently.

Filters keep traces small; ``timeline`` and ``summary`` render them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.net.envelope import Envelope
from repro.net.transport import Transport


@dataclass(frozen=True)
class TraceEvent:
    time: float
    step: int
    sender: int
    recipient: int
    path: tuple
    payload_type: str
    words: int
    depth: int

    def render(self) -> str:
        path = "/".join(str(part) for part in self.path) or "(root)"
        return (
            f"t={self.time:8.2f} #{self.step:<6} {self.sender}->{self.recipient} "
            f"{path:40s} {self.payload_type:16s} w={self.words:<4} d={self.depth}"
        )


class Tracer:
    """Record a transport's deliveries as structured events."""

    def __init__(
        self,
        transport: Transport,
        predicate: Optional[Callable[[Envelope], bool]] = None,
        capacity: int = 1_000_000,
    ) -> None:
        self.transport = transport
        self.predicate = predicate or (lambda envelope: True)
        self.capacity = capacity
        self.events: list[TraceEvent] = []
        transport.add_delivery_observer(self._on_delivery)

    def _on_delivery(self, envelope: Envelope) -> None:
        if len(self.events) >= self.capacity or not self.predicate(envelope):
            return
        self.events.append(
            TraceEvent(
                time=self.transport.now(),
                step=self.transport.metrics.deliveries,
                sender=envelope.sender,
                recipient=envelope.recipient,
                path=envelope.path,
                payload_type=envelope.payload.type_name(),
                words=envelope.word_size(),
                depth=envelope.depth,
            )
        )

    def detach(self) -> None:
        """Stop observing (the trace keeps its recorded events)."""
        self.transport.remove_delivery_observer(self._on_delivery)

    # -- queries ---------------------------------------------------------------------

    def for_party(self, party: int) -> list[TraceEvent]:
        return [e for e in self.events if e.recipient == party]

    def for_layer(self, layer: str) -> list[TraceEvent]:
        def in_layer(path: tuple) -> bool:
            for part in path:
                if part == layer:
                    return True
                if isinstance(part, tuple) and part and part[0] == layer:
                    return True
            return False

        return [e for e in self.events if in_layer(e.path)]

    def timeline(self, events: Optional[Iterable[TraceEvent]] = None) -> str:
        chosen = list(events) if events is not None else self.events
        return "\n".join(event.render() for event in chosen)

    def summary(self) -> dict:
        from collections import Counter

        by_type: Counter = Counter()
        for event in self.events:
            by_type[event.payload_type] += 1
        return {
            "events": len(self.events),
            "by_type": dict(by_type),
            "span": (
                (self.events[0].time, self.events[-1].time) if self.events else None
            ),
        }
