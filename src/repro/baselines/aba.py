"""Binary asynchronous Byzantine agreement (baseline building block).

Crain's two-phase round (2020) on Mostéfaoui-Moumen-Raynal's
BV-broadcast, the paper's "second natural approach" (Section 1.2).
Round r:

1. BV-broadcast ``est ∈ {0, 1}`` (relay a value after ``f+1`` BVALs,
   accept it into ``bin_values`` after ``2f+1``) and send one AUX from
   ``bin_values``.  With ``n-f`` AUX inside ``bin_values``: ``est2 = v``
   if their values are ``{v}``, else ``⊥``.
2. The same for ``est2 ∈ {0, 1, ⊥}``.  With ``n-f`` AUX inside
   ``bin_values`` (their values ``vals2``), send the round's coin share.
   If ``vals2 == {v}``, ``v ≠ ⊥``, decide ``v``; else a ``v ≠ ⊥`` in
   ``vals2`` becomes ``est``; else the coin does.

Agreement never reads the coin.  Two phase-1 quorums share an honest AUX
sender, so phase 2 carries at most one ``v`` beside ``⊥``; a decider's
``n-f`` AUX ``v`` meet every other honest quorum, so every honest
estimate leaves the round as ``v`` and BV-broadcast admits nothing else
again.  The *weak* coin (:class:`repro.baselines.common_coin.CoinHelper`:
a party without the transcript flips a public bit) only sets how many
rounds the undecided take.  A ``DECIDED`` gadget (f+1 DECIDEDs adopt,
echo) makes the decision explicit; deciders take part in one more round
so laggards cross the line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.baselines.common_coin import CoinHelper
from repro.net.payload import Payload, words_of
from repro.net.protocol import Protocol

#: Phase 2's third value, ⊥: the party's phase-1 quorum was not unanimous.
BOT = 2


@dataclass(frozen=True)
class BVal(Payload):
    round_no: int
    phase: int
    bit: int


@dataclass(frozen=True)
class Aux(Payload):
    round_no: int
    phase: int
    bit: int


@dataclass(frozen=True)
class CoinShareMsg(Payload):
    round_no: int
    share: Any  # EvalShare or None (sender lacks the transcript)

    def word_size(self) -> int:
        return 1 + words_of(self.share)


@dataclass(frozen=True)
class Decided(Payload):
    bit: int


class BinaryAgreement(Protocol):
    """One binary ABA instance.

    The input bit may be provided at construction or later through
    :meth:`provide_input` (the ACS construction gates inputs).  Outputs
    the decided bit.
    """

    MAX_ROUNDS = 64

    #: Declared mutable state (the coin helper is reconstructed by the
    #: parent — its transcript travels in the parent's snapshot).  BV and
    #: AUX state is keyed by ``(round, phase)``; ``_open_step`` is the step
    #: of the current round awaiting its condition: 1 and 2 the phases, 3
    #: the coin, 0 none.
    STATE_FIELDS = (
        "_input",
        "round_no",
        "estimate",
        "decided",
        "_decided_round",
        "_bval_recv",
        "_bval_sent",
        "_bin_values",
        "_aux_recv",
        "_coin_shares",
        "_coin_value",
        "_open_step",
        "_decided_recv",
    )

    def __init__(self, coin: CoinHelper, input_bit: Optional[int] = None) -> None:
        super().__init__()
        self.coin = coin
        self._input = input_bit
        self.round_no = 0
        self.estimate: Optional[int] = None
        self.decided: Optional[int] = None
        self._decided_round: Optional[int] = None
        self._bval_recv: dict[tuple[int, int, int], set[int]] = {}
        self._bval_sent: set[tuple[int, int, int]] = set()
        self._bin_values: dict[tuple[int, int], set[int]] = {}
        self._aux_recv: dict[tuple[int, int], dict[int, int]] = {}
        self._coin_shares: dict[int, dict[int, Any]] = {}
        self._coin_value: dict[int, int] = {}
        self._open_step = 0
        self._decided_recv: dict[int, set[int]] = {0: set(), 1: set()}

    # -- input ------------------------------------------------------------------------

    def on_start(self) -> None:
        if self._input is not None:
            self.provide_input(self._input)

    def provide_input(self, bit: int) -> None:
        if self.round_no != 0 or bit not in (0, 1):
            return
        self.estimate = bit
        self._enter_round(1)

    # -- round machinery -----------------------------------------------------------------

    def _enter_round(self, round_no: int) -> None:
        if self._halted(round_no):
            return
        self.round_no = round_no
        self._bv_broadcast(round_no, 1, self.estimate)
        self._arm(round_no, 1)

    def _arm(self, round_no: int, step: int) -> None:
        self._open_step = step
        self.upon(
            lambda: self._ready(round_no, step),
            lambda: self._close(round_no, step),
            label=f"aba-{round_no}-{step}",
        )

    def rearm(self) -> None:
        if self._open_step:
            self._arm(self.round_no, self._open_step)

    def _halted(self, round_no: int) -> bool:
        done = self._decided_round is not None and round_no > self._decided_round + 1
        return done or round_no > self.MAX_ROUNDS

    def _bv_broadcast(self, round_no: int, phase: int, value: int) -> None:
        key = (round_no, phase, value)
        if key in self._bval_sent:
            return
        self._bval_sent.add(key)
        self.multicast(BVal(round_no=round_no, phase=phase, bit=value))

    # -- message handlers -------------------------------------------------------------------

    def on_message(self, sender: int, payload: Payload) -> None:
        if isinstance(payload, (BVal, Aux)):
            round_no, phase, value = payload.round_no, payload.phase, payload.bit
            if not self._well_formed(round_no, phase, value):
                return
            if isinstance(payload, BVal):
                self._on_bval(sender, round_no, phase, value)
            else:
                self._aux_recv.setdefault((round_no, phase), {}).setdefault(sender, value)
        elif isinstance(payload, CoinShareMsg):
            self._on_coin_share(sender, payload.round_no, payload.share)
        elif isinstance(payload, Decided):
            self._on_decided(sender, payload.bit)

    def _well_formed(self, round_no: Any, phase: Any, value: Any) -> bool:
        values = (0, 1) if phase == 1 else (0, 1, BOT) if phase == 2 else ()
        return (
            isinstance(round_no, int)
            and 1 <= round_no <= self.MAX_ROUNDS
            and value in values
        )

    def _on_bval(self, sender: int, round_no: int, phase: int, value: int) -> None:
        box = self._bval_recv.setdefault((round_no, phase, value), set())
        if sender in box:
            return
        box.add(sender)
        if len(box) >= self.f + 1:
            self._bv_broadcast(round_no, phase, value)
        if len(box) == 2 * self.f + 1:
            accepted = self._bin_values.setdefault((round_no, phase), set())
            accepted.add(value)
            if len(accepted) == 1:  # AUX carries the first accepted value
                self.multicast(Aux(round_no=round_no, phase=phase, bit=value))

    def _on_coin_share(self, sender: int, round_no: int, share: Any) -> None:
        if not isinstance(round_no, int) or round_no < 1:
            return
        box = self._coin_shares.setdefault(round_no, {})
        if sender in box:
            return
        box[sender] = share
        self._maybe_fix_coin(round_no)

    def _maybe_fix_coin(self, round_no: int) -> None:
        if round_no in self._coin_value:
            return
        box = self._coin_shares.get(round_no, {})
        verified = [
            share
            for sender, share in box.items()
            if share is not None and self.coin.share_valid(sender, round_no, share)
        ]
        if len(verified) >= self.f + 1:
            self._coin_value[round_no] = self.coin.combine(round_no, verified)
        elif len(box) >= self.quorum:
            self._coin_value[round_no] = self.coin.fallback_bit(round_no)

    # -- closing a step ---------------------------------------------------------------------------

    def _aux_values(self, round_no: int, phase: int) -> Optional[set[int]]:
        """The values of the AUX messages inside ``bin_values``, once
        ``n-f`` senders are among them; ``None`` before."""
        accepted = self._bin_values.get((round_no, phase), ())
        values = [
            value
            for value in self._aux_recv.get((round_no, phase), {}).values()
            if value in accepted
        ]
        return set(values) if len(values) >= self.quorum else None

    def _ready(self, round_no: int, step: int) -> bool:
        if step == 3:
            self._maybe_fix_coin(round_no)
            return round_no in self._coin_value
        return self._aux_values(round_no, step) is not None

    def _close(self, round_no: int, step: int) -> None:
        if step == 3:
            self._next_round(round_no, self._coin_value[round_no])
            return
        values = self._aux_values(round_no, step)
        if step == 1:
            self._bv_broadcast(round_no, 2, values.pop() if len(values) == 1 else BOT)
            self._arm(round_no, 2)
            return
        self.multicast(
            CoinShareMsg(round_no=round_no, share=self.coin.make_share(round_no))
        )
        bits = sorted(values - {BOT})  # at most one: see the module docstring
        if not bits:
            self._arm(round_no, 3)
            return
        if len(values) == 1:
            self._decide(bits[0], round_no)
        self._next_round(round_no, bits[0])

    def _next_round(self, round_no: int, estimate: int) -> None:
        self._open_step = 0
        self.estimate = estimate
        self._enter_round(round_no + 1)

    # -- decision ----------------------------------------------------------------------------------

    def _decide(self, bit: int, round_no: int) -> None:
        if self.decided is not None:
            return
        self.decided = bit
        self._decided_round = round_no
        self.multicast(Decided(bit=bit))
        self.output(bit)

    def _on_decided(self, sender: int, bit: int) -> None:
        if bit not in (0, 1):
            return
        box = self._decided_recv[bit]
        if sender in box:
            return
        box.add(sender)
        if len(box) >= self.f + 1 and self.decided is None:
            self._decide(bit, self.round_no or 1)
