"""The adversary: Byzantine behaviours and adversarial schedulers.

Two orthogonal powers, matching the threat model of Section 2.1:

* **Corruption** — up to ``f`` parties run a :class:`Behavior` that can
  drop, mutate, duplicate or equivocate the messages their (otherwise
  honest) stack produces, or silence the party entirely.  Tests that need
  deeper protocol-specific misbehaviour subclass the honest protocol
  instead (e.g. a dealer sharing an invalid PVSS transcript).
* **Scheduling** — the adversary orders message delivery, subject to the
  asynchronous model's one obligation: every message is delivered after a
  finite delay.  A :class:`Scheduler` is the simulator's per-envelope
  delay hook; :class:`RandomLagScheduler` stretches random messages by a
  bounded factor.  A lag aimed at a link, a protocol path or a session
  is a :class:`~repro.net.chaos.DelayWindow`: the chaos plane is the one
  delay adversary that runs on both transports.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Callable, Iterable, Optional

from repro.net.envelope import Envelope
from repro.net.payload import Payload


class Behavior:
    """Byzantine behaviour hook for one corrupted party.

    The party runs the honest stack, and ``transform_outgoing`` sees each
    network envelope it produces: it may return any list of envelopes
    (empty to drop), but the party speaks only as itself: the transport
    drops an envelope naming another sender (``adversary.forged_sender``).
    ``allow_delivery`` may swallow incoming messages.  The default is
    honest behaviour; a :class:`SilentBehavior` party runs no stack.
    """

    def transform_outgoing(self, envelope: Envelope, rng: random.Random) -> list[Envelope]:
        return [envelope]

    def allow_delivery(self, envelope: Envelope, rng: random.Random) -> bool:
        return True


class SilentBehavior(Behavior):
    """Sends nothing, ever — the strongest omission fault.

    Honest parties see such a party only through its silence, so it runs
    no protocol stack: ``Transport.build_party`` returns it halted.
    Deliveries addressed to it are still scheduled, passed through
    ``allow_delivery`` and counted.
    """

    def transform_outgoing(self, envelope: Envelope, rng: random.Random) -> list[Envelope]:
        return []


class CrashBehavior(Behavior):
    """Honest until ``after_sends`` messages have left, then down.

    ``recover_after_drops=None`` is the classic terminal crash.  With a
    count, the crash is a *window*: the party comes back after that many
    deliveries were lost to the outage — the omission-fault view of a
    crash, where the process freezes with its memory intact and the
    messages of the window are simply gone.  It composes with any
    scheduler and needs no storage; contrast with the durable recovery
    path (``repro.storage.recovery``), where the process loses its memory
    and is rehydrated from snapshot + WAL via the transport's
    detach/reattach.  E14 runs both, and the gap between them is exactly
    what the write-ahead storage buys.

    ``crashed`` is set by the crashing send and stays set; ``recovered``
    by the first delivery after the window; ``down`` is the one between.
    """

    def __init__(
        self, after_sends: int, recover_after_drops: Optional[int] = None
    ) -> None:
        if after_sends < 0:
            raise ValueError("after_sends must be non-negative")
        if recover_after_drops is not None and recover_after_drops < 0:
            # 0 is legal: the recovery lands on the same step as the
            # crash, so the outage swallows no deliveries at all — the
            # first delivery attempted while "down" finds the process
            # already back up.
            raise ValueError("recover_after_drops must be >= 0 (or None)")
        self.after_sends = after_sends
        self.recover_after_drops = recover_after_drops
        self.sent = 0
        self.dropped = 0
        self.crashed = False
        self.recovered = False

    @property
    def down(self) -> bool:
        return self.crashed and not self.recovered

    def transform_outgoing(self, envelope: Envelope, rng: random.Random) -> list[Envelope]:
        """Pass the send unless the process is down; the send after the
        first ``after_sends`` is the crashing one, and is lost."""
        if self.down:
            return []
        if not self.crashed:
            self.sent += 1
            if self.sent > self.after_sends:
                self.crashed = True
                return []
        return [envelope]

    def allow_delivery(self, envelope: Envelope, rng: random.Random) -> bool:
        """Exactly ``recover_after_drops`` deliveries are lost to the
        outage; the next one finds the process back up, goes through,
        and is *not* counted in ``dropped``."""
        if not self.down:
            return True
        if (
            self.recover_after_drops is not None
            and self.dropped >= self.recover_after_drops
        ):
            self.recovered = True
            return True
        self.dropped += 1
        return False


class DropBehavior(Behavior):
    """Drops each outgoing message independently with probability ``rate``."""

    def __init__(self, rate: float) -> None:
        if not 0 <= rate <= 1:
            raise ValueError("rate must be in [0, 1]")
        self.rate = rate

    def transform_outgoing(self, envelope: Envelope, rng: random.Random) -> list[Envelope]:
        if rng.random() < self.rate:
            return []
        return [envelope]


class MutateBehavior(Behavior):
    """Applies ``mutator(payload, recipient, rng)`` to selected messages.

    The mutator returns a replacement payload, ``None`` to drop, or the
    original to pass through.  ``selector`` picks which messages to
    attack (default: all).
    """

    def __init__(
        self,
        mutator: Callable[[Payload, int, random.Random], Optional[Payload]],
        selector: Optional[Callable[[Envelope], bool]] = None,
    ) -> None:
        self.mutator = mutator
        self.selector = selector or (lambda envelope: True)

    def transform_outgoing(self, envelope: Envelope, rng: random.Random) -> list[Envelope]:
        if not self.selector(envelope):
            return [envelope]
        mutated = self.mutator(envelope.payload, envelope.recipient, rng)
        if mutated is None:
            return []
        if mutated is envelope.payload:
            return [envelope]
        # replace() keeps the routing fields — including the session id —
        # so a mutated payload still reaches the instance it targets.
        return [dataclasses.replace(envelope, payload=mutated)]


class EquivocateBehavior(Behavior):
    """Sends different payloads to different halves of the parties.

    ``forger(payload, rng)`` builds the second version; recipients with
    index in ``targets`` get the forged one.  Classic split-brain attack
    against broadcast/agreement protocols.
    """

    def __init__(
        self,
        forger: Callable[[Payload, random.Random], Optional[Payload]],
        targets: Iterable[int],
        selector: Optional[Callable[[Envelope], bool]] = None,
    ) -> None:
        self.forger = forger
        self.targets = frozenset(targets)
        self.selector = selector or (lambda envelope: True)

    def transform_outgoing(self, envelope: Envelope, rng: random.Random) -> list[Envelope]:
        if not self.selector(envelope) or envelope.recipient not in self.targets:
            return [envelope]
        forged = self.forger(envelope.payload, rng)
        if forged is None:
            return []
        return [dataclasses.replace(envelope, payload=forged)]


class FirstRankWithholder(Behavior):
    """One adversary behind the corrupted parties of a Proposal Election
    (Theorem 3's α): map every corrupted index to this one object.

    Its parties run the honest stack.  **What it observes, and when**:
    every envelope one of its parties sends, as the transport hands it to
    :meth:`transform_outgoing`, and every envelope delivered to one of
    them, at :meth:`allow_delivery` — nothing between honest parties, no
    honest state.  From the ``PEEvalShare`` messages among these it keeps,
    per gather index ``k``, the shares of distinct parties.  An index's
    VRF output is revealed by any ``f + 1`` of them (the threshold), so
    once it holds ``f + 1`` shares of ``k`` it combines them with
    ``reveal(shares) -> int``; from then on it knows how the revealed
    indices rank.

    **What it does**: while the index that ranks first among those
    revealed is an honest party's (one not in ``corrupted``), its parties
    withhold every later eval share for that index and every later
    broadcast message (Gather and index broadcasts: every send that is
    not an eval share).  Every other send passes.  ``withheld`` counts the
    sends it dropped; ``revealed`` maps each revealed index to its output.
    """

    def __init__(
        self,
        corrupted: Iterable[int],
        threshold: int,
        reveal: Callable[[list], int],
    ) -> None:
        from repro.core.proposal_election import PEEvalShare  # deferred: core is above net

        self._share_type = PEEvalShare
        self.corrupted = frozenset(corrupted)
        self.threshold = threshold
        self.reveal = reveal
        self.revealed: dict[int, int] = {}
        self.withheld = 0
        self._shares: dict[int, dict[int, object]] = {}
        self._target: Optional[int] = None

    def _observe(self, envelope: Envelope) -> None:
        payload = envelope.payload
        if type(payload) is not self._share_type or payload.k in self.revealed:
            return
        shares = self._shares.setdefault(payload.k, {})
        shares.setdefault(envelope.sender, payload.share)
        if len(shares) >= self.threshold:
            self.revealed[payload.k] = self.reveal(list(shares.values()))
            first = max(self.revealed, key=lambda k: (self.revealed[k], k))
            self._target = None if first in self.corrupted else first

    def transform_outgoing(self, envelope: Envelope, rng: random.Random) -> list[Envelope]:
        self._observe(envelope)
        if self._target is not None:
            payload = envelope.payload
            if type(payload) is not self._share_type or payload.k == self._target:
                self.withheld += 1
                return []
        return [envelope]

    def allow_delivery(self, envelope: Envelope, rng: random.Random) -> bool:
        self._observe(envelope)
        return True


# -- adversarial scheduling ------------------------------------------------------------


class Scheduler:
    """Turns a benign delay into the adversary's chosen (finite) delay."""

    def schedule(
        self,
        rng: random.Random,
        envelope: Envelope,
        base_delay: float,
        time: float,
    ) -> float:
        return base_delay


class RandomLagScheduler(Scheduler):
    """Randomly stretches individual messages by up to ``factor``.

    A chaos-monkey scheduler: keeps every delay finite but destroys any
    timing assumption a protocol might accidentally rely on.
    """

    def __init__(self, factor: float = 20.0, rate: float = 0.2) -> None:
        if not (1 <= factor < math.inf and 0 <= rate <= 1):
            raise ValueError(
                "factor must be finite and >= 1 and rate in [0, 1], "
                f"got {factor!r}, {rate!r}"
            )
        self.factor = factor
        self.rate = rate

    def schedule(
        self,
        rng: random.Random,
        envelope: Envelope,
        base_delay: float,
        time: float,
    ) -> float:
        if rng.random() < self.rate:
            return base_delay * rng.uniform(1.0, self.factor)
        return base_delay
