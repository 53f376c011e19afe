"""Deterministic link-level fault injection — the chaos plane.

The paper's model (Section 2) gives the adversary full control over
message *delay and ordering*, subject to one obligation: every message
between honest parties is eventually delivered.  The schedulers in
:mod:`repro.net.adversary` express that power abstractly (multiply a
delay); this module expresses it the way real networks misbehave —
partitions that heal, lossy links whose transmissions are retried,
duplicated and reordered packets, flipped bytes — while *preserving the
eventual-delivery obligation by construction*, so any chaos schedule is
still a legal asynchronous adversary and the protocol must reach
agreement under it.

One seam, two runtimes: the plane hooks the shared
:meth:`~repro.net.transport.Transport._deliver_buffered` pipeline, so the
same declarative :class:`ChaosSpec` drives the deterministic simulator
and the TCP runtime (time is simulated rounds on the simulator and
seconds since transport open on TCP).

Fault taxonomy — every verdict keeps delivery eventual:

* :class:`Partition` — a cut between party groups over ``[start, heal)``;
  messages crossing an active cut are *held* and re-injected at heal
  time (the classic delay-controlling adversary).  ``oneway=True`` cuts
  only group-0 → group-1 traffic (an asymmetric split).  ``heal`` must be
  finite: an unhealable partition would break eventual delivery.
* :class:`LinkFault` ``kind="drop"`` — the transmission is lost and the
  (reliable) channel retransmits after a timeout: the envelope is
  requeued with a jittered retry delay.  Modelling loss as
  delay-by-retransmission is exactly the paper's reliable-channel
  assumption over a lossy link.
* ``kind="duplicate"`` — the envelope is delivered *and* a distinct copy
  is re-injected after a jittered delay (at-least-once delivery).
* ``kind="reorder"`` — the envelope is pulled out of line and requeued
  with a jittered delay, letting later traffic overtake it.
* ``kind="corrupt"`` — the envelope's wire frame has one byte flipped
  and is offered to the codec.  The codec's fail-closed posture rejects
  it (``corrupt_rejected``); a flip the codec cannot distinguish from a
  valid frame is *also* discarded (``corrupt_forged``) — a link fault
  must never impersonate an honest sender, that power belongs to the
  ``f``-bounded Byzantine budget.  Either way the clean envelope is
  retransmitted after the retry delay.
* :class:`DelayWindow` — additive extra latency over a time window.

Determinism: all probabilistic verdicts and jitters are drawn from one
``random.Random(f"chaos-{seed}")`` stream, consumed in delivery order —
on the simulator two runs with the same seed and spec are therefore
byte-identical (word totals, message totals, group key).  With no spec
the plane is *idle* and the transport skips it entirely, so chaos-off
runs are byte-identical to runs without a plane attached.

Every injected fault is counted; the transport surfaces the counts as
``Metrics.counters("chaos")``.
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter
from typing import Optional

from repro.net import codec
from repro.net.envelope import Envelope

__all__ = [
    "Partition",
    "LinkFault",
    "DelayWindow",
    "ChaosSpec",
    "ChaosPlane",
    "coerce_chaos",
    "DELIVER",
    "HOLD",
    "DUPLICATE",
]

#: Verdicts of :meth:`ChaosPlane.decide` (identity-compared sentinels).
DELIVER = "deliver"
#: Requeue the envelope after ``arg`` time units instead of delivering.
HOLD = "hold"
#: Deliver the envelope now *and* requeue a distinct copy after ``arg``.
DUPLICATE = "duplicate"

#: Smallest requeue delay the plane ever emits.  Strictly positive so the
#: simulator's "delays are positive" invariant holds and a heal-instant
#: hold still lands after the partition window closed.
_MIN_DELAY = 1e-9

_FAULT_KINDS = ("drop", "duplicate", "reorder", "corrupt")


def _check_window(start: float, end: float, what: str) -> None:
    if not (start >= 0 and end > start):
        raise ValueError(f"{what} window must satisfy 0 <= start < end")


@dataclasses.dataclass(frozen=True)
class Partition:
    """A network cut between party groups over ``[start, heal)``.

    ``groups`` are disjoint tuples of party indices; traffic between two
    *different* groups is held while the cut is active (parties in no
    group, and pairs within one group, are unaffected).  ``oneway=True``
    restricts the cut to messages from ``groups[0]`` to ``groups[1]``
    (exactly two groups), modelling an asymmetric split.  ``heal`` must
    be finite — eventual delivery is non-negotiable.
    """

    groups: tuple[tuple[int, ...], ...]
    start: float = 0.0
    heal: float = 10.0
    oneway: bool = False

    def __post_init__(self) -> None:
        groups = tuple(tuple(g) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        if len(groups) < 2 or any(not g for g in groups):
            raise ValueError("a partition needs >= 2 non-empty groups")
        seen: set[int] = set()
        for group in groups:
            for index in group:
                if index in seen:
                    raise ValueError(
                        f"party {index} appears in two partition groups"
                    )
                seen.add(index)
        if self.oneway and len(groups) != 2:
            raise ValueError("a one-way partition needs exactly 2 groups")
        _check_window(self.start, self.heal, "partition")
        if not math.isfinite(self.heal):
            raise ValueError(
                "partition heal time must be finite (eventual delivery)"
            )

    def severs(self, sender: int, recipient: int, now: float) -> bool:
        if not self.start <= now < self.heal:
            return False
        side_of: dict[int, int] = {}
        for side, group in enumerate(self.groups):
            for index in group:
                side_of[index] = side
        src = side_of.get(sender)
        dst = side_of.get(recipient)
        if src is None or dst is None or src == dst:
            return False
        if self.oneway:
            return src == 0 and dst == 1
        return True


@dataclasses.dataclass(frozen=True)
class LinkFault:
    """A probabilistic per-transmission fault on a set of ordered links.

    Each delivery crossing an affected link during ``[start, end)`` is
    hit independently with probability ``rate``.  ``pairs`` limits the
    fault to specific ordered ``(sender, recipient)`` links (``None`` =
    all links).  ``jitter`` bounds the retry/duplicate/reorder delay
    drawn per fault (uniform in ``(0, jitter]``).
    """

    kind: str
    rate: float
    start: float = 0.0
    end: float = math.inf
    pairs: Optional[frozenset[tuple[int, int]]] = None
    jitter: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ValueError(
                f"unknown link-fault kind {self.kind!r}; "
                f"choose from {_FAULT_KINDS}"
            )
        if not 0 <= self.rate <= 1:
            raise ValueError("rate must be in [0, 1]")
        _check_window(self.start, self.end, "link-fault")
        if self.jitter <= 0:
            raise ValueError("jitter must be positive")
        if self.pairs is not None:
            object.__setattr__(self, "pairs", frozenset(self.pairs))

    def applies(self, sender: int, recipient: int, now: float) -> bool:
        if not self.start <= now < self.end:
            return False
        return self.pairs is None or (sender, recipient) in self.pairs


@dataclasses.dataclass(frozen=True)
class DelayWindow:
    """Additive extra latency on affected links during ``[start, end)``."""

    extra: float
    start: float = 0.0
    end: float = math.inf
    pairs: Optional[frozenset[tuple[int, int]]] = None

    def __post_init__(self) -> None:
        # Finite: every verdict eventually delivers (DESIGN §11).
        if not 0 < self.extra < math.inf:
            raise ValueError("extra delay must be positive and finite")
        _check_window(self.start, self.end, "delay")
        if self.pairs is not None:
            object.__setattr__(self, "pairs", frozenset(self.pairs))

    def applies(self, sender: int, recipient: int, now: float) -> bool:
        if not self.start <= now < self.end:
            return False
        return self.pairs is None or (sender, recipient) in self.pairs


@dataclasses.dataclass(frozen=True)
class ChaosSpec:
    """The declarative chaos schedule one run executes."""

    partitions: tuple[Partition, ...] = ()
    faults: tuple[LinkFault, ...] = ()
    delays: tuple[DelayWindow, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(self, "delays", tuple(self.delays))

    @property
    def idle(self) -> bool:
        """True when the spec injects nothing (the plane short-circuits)."""
        return not (self.partitions or self.faults or self.delays)

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """Parse the CLI mini-language into a spec.

        Semicolon-separated clauses::

            partition:0,1|2,3@5-40      two-sided cut, rounds [5, 40)
            partition-oneway:0|1,2@0-20 asymmetric cut (0 cannot reach 1,2)
            drop:0.05                   5% transmission loss, whole run
            dup:0.02@10-30              2% duplication in a window
            reorder:0.1                 10% of deliveries pulled out of line
            corrupt:0.01                1% single-byte frame corruption
            delay:+2.5@10-20            +2.5 time units of latency

        Windows (``@start-end``) are optional and default to the whole
        run (partitions require one — a cut must heal).  Times are
        simulated rounds on the simulator, seconds on TCP.
        """
        partitions: list[Partition] = []
        faults: list[LinkFault] = []
        delays: list[DelayWindow] = []
        for raw in text.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            head, sep, body = clause.partition(":")
            head = head.strip().lower()
            if not sep:
                raise ValueError(f"malformed chaos clause {clause!r}")
            body, window = _split_window(body)
            if head in ("partition", "partition-oneway"):
                if window is None:
                    raise ValueError(
                        f"partition clause {clause!r} needs @start-end "
                        "(a cut must heal)"
                    )
                groups = tuple(
                    tuple(int(p) for p in part.split(",") if p.strip())
                    for part in body.split("|")
                )
                partitions.append(
                    Partition(
                        groups=groups,
                        start=window[0],
                        heal=window[1],
                        oneway=head.endswith("oneway"),
                    )
                )
                continue
            if head in ("drop", "dup", "duplicate", "reorder", "corrupt"):
                kind = "duplicate" if head == "dup" else head
                start, end = window or (0.0, math.inf)
                faults.append(
                    LinkFault(kind=kind, rate=float(body), start=start, end=end)
                )
                continue
            if head == "delay":
                start, end = window or (0.0, math.inf)
                delays.append(
                    DelayWindow(
                        extra=float(body.lstrip("+")), start=start, end=end
                    )
                )
                continue
            raise ValueError(f"unknown chaos clause kind {head!r}")
        return cls(
            partitions=tuple(partitions),
            faults=tuple(faults),
            delays=tuple(delays),
        )


def _split_window(body: str) -> tuple[str, Optional[tuple[float, float]]]:
    """Split a clause body from its optional ``@start-end`` window."""
    body, sep, window_text = body.partition("@")
    if not sep:
        return body.strip(), None
    start_text, dash, end_text = window_text.partition("-")
    if not dash:
        raise ValueError(f"malformed chaos window {window_text!r}")
    return body.strip(), (float(start_text), float(end_text))


class ChaosPlane:
    """Executes one :class:`ChaosSpec` against a transport's deliveries.

    The transport consults :meth:`decide` for every envelope entering the
    shared delivery pipeline; re-injected envelopes (holds, duplicates)
    are marked :meth:`release`-d and pass through untouched on re-entry,
    so a fault is decided exactly once per transmission.
    """

    def __init__(self, spec: ChaosSpec, seed: int = 0) -> None:
        self.spec = spec
        self.rng = random.Random(f"chaos-{seed}")
        self.counts: Counter = Counter()
        #: ``id()`` of envelopes already re-injected by the plane; a
        #: strong reference lives in the transport's requeue structure
        #: until re-entry, so the ids cannot be recycled underneath us.
        self._released: set[int] = set()
        #: False for an empty spec: the transport skips the plane
        #: entirely, so an attached-but-idle plane costs one attribute
        #: check per delivery.
        self.active = not spec.idle

    def counters(self) -> dict:
        """Live fault counts (the ``Metrics.counters("chaos")`` provider)."""
        return dict(self.counts)

    def release(self, envelope: Envelope) -> None:
        """Exempt a re-injected envelope from chaos on its next delivery."""
        self._released.add(id(envelope))

    def decide(self, envelope: Envelope, now: float) -> tuple[str, float]:
        """The plane's verdict for one delivery attempt at time ``now``.

        Returns ``(DELIVER, 0)``, ``(HOLD, delay)`` or
        ``(DUPLICATE, copy_delay)``; every verdict preserves eventual
        delivery (holds are finite, duplicates deliver the original).
        First match wins: partitions, then probabilistic link faults in
        spec order, then delay windows.
        """
        key = id(envelope)
        if key in self._released:
            self._released.discard(key)
            return (DELIVER, 0.0)
        sender = envelope.sender
        recipient = envelope.recipient
        counts = self.counts
        for partition in self.spec.partitions:
            if partition.severs(sender, recipient, now):
                counts["partitioned"] += 1
                return (HOLD, max(partition.heal - now, _MIN_DELAY))
        rng = self.rng
        for fault in self.spec.faults:
            if not fault.applies(sender, recipient, now):
                continue
            if rng.random() >= fault.rate:
                continue
            jitter = max(rng.random() * fault.jitter, _MIN_DELAY)
            if fault.kind == "drop":
                # Lost transmission, retransmitted by the reliable
                # channel: delay, never true loss.
                counts["dropped"] += 1
                return (HOLD, jitter)
            if fault.kind == "duplicate":
                counts["duplicated"] += 1
                return (DUPLICATE, jitter)
            if fault.kind == "reorder":
                counts["reordered"] += 1
                return (HOLD, jitter)
            # corrupt: flip one byte of the wire frame and let the codec
            # judge it; the clean envelope is then retransmitted.
            self._corrupt(envelope)
            return (HOLD, jitter)
        extra = 0.0
        for window in self.spec.delays:
            if window.applies(sender, recipient, now):
                extra += window.extra
        if extra > 0.0:
            counts["delayed"] += 1
            return (HOLD, extra)
        return (DELIVER, 0.0)

    def _corrupt(self, envelope: Envelope) -> None:
        """Flip one byte of the envelope's frame; count the codec's verdict.

        ``corrupt_rejected`` is the fail-closed posture working as
        designed; ``corrupt_forged`` counts flips the codec could not
        distinguish from a valid frame — those are discarded too, because
        a *link* fault delivering a forged frame would grant the network
        Byzantine powers beyond the ``f``-corruption budget.  Envelopes
        the codec cannot carry at all (in-process forgeries) skip
        corruption: there is no wire image to flip.
        """
        counts = self.counts
        try:
            body = codec.encode_envelope(envelope)
        except codec.CodecError:
            counts["corrupt_skipped"] += 1
            return
        counts["corrupted"] += 1
        mutated = bytearray(body)
        index = self.rng.randrange(len(mutated))
        mutated[index] ^= 1 << self.rng.randrange(8)
        try:
            decoded = codec.decode_envelope(bytes(mutated))
        except codec.CodecError:
            counts["corrupt_rejected"] += 1
            return
        # The codec accepted the flip (e.g. a mutated int field still in
        # range).  Fail closed anyway — and loudly distinguish a decode
        # that round-trips to a *different* envelope from a flip in
        # redundant encoding space.
        if decoded != envelope:
            counts["corrupt_forged"] += 1
        else:
            counts["corrupt_identity"] += 1


def coerce_chaos(chaos: "ChaosSpec | str | None", seed: int) -> Optional[ChaosPlane]:
    """Normalize a transport's ``chaos=`` argument into a plane.

    Accepts a :class:`ChaosSpec` or the CLI mini-language string; either
    gets a plane seeded from the run seed, which is what makes same-seed
    chaos runs reproducible end-to-end.
    """
    if chaos is None:
        return None
    if isinstance(chaos, str):
        chaos = ChaosSpec.parse(chaos)
    if isinstance(chaos, ChaosSpec):
        return ChaosPlane(chaos, seed=seed)
    raise TypeError(
        f"chaos must be a ChaosSpec or spec string, not {type(chaos).__name__}"
    )
