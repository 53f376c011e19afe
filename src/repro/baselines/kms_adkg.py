"""The Ω(n⁴)-word / growing-round baseline A-DKG (experiment E7).

A structurally analogous stand-in for Kokoris-Kogias-Malkhi-Spiegelman
[29] (no open reference implementation exists), built from the two
ingredients the paper identifies as the pre-aggregation state of the art:

1. **No aggregation**: every party reliably broadcasts its own O(n)-word
   PVSS contribution with plain Bracha broadcast — ``n`` broadcasts of
   ``O(n)`` words at ``O(n²·m)`` each is ``Ω(n⁴)`` words exactly as the
   paper's first barrier argues.
2. **Binary agreement per dealer** (the "second natural approach"): an
   ACS/BKR lattice of ``n`` binary ABAs decides which dealers' sharings
   make it into the key, and the run waits for the slowest of them.  An
   ABA never reads its weak coin to decide; a split flip only costs it
   rounds, each a coin exchange.

The final key folds the sharings of every dealer whose ABA decided 1
(agreement on the set follows from RBC + ABA agreement), so the baseline
produces a genuinely equivalent artifact — an aggregated, verifying DKG
transcript — at the old cost.
"""

from __future__ import annotations

from typing import Any

from repro.baselines.aba import BinaryAgreement
from repro.baselines.common_coin import CoinHelper
from repro.broadcast.validated import make_broadcast
from repro.crypto import pvss, threshold_vrf as tvrf
from repro.net.protocol import Protocol


class ACSBasedADKG(Protocol):
    """Baseline A-DKG: n un-aggregated broadcasts + n binary agreements."""

    #: Declared mutable state.  The coin helpers (non-encodable objects
    #: shared with the ABA children) are captured as their transcripts and
    #: rebuilt in :meth:`apply_state`, before the children are rebuilt.
    STATE_FIELDS = ("delivered", "decided", "_input_given", "_zero_phase")

    def __init__(self, broadcast_kind: str = "bracha") -> None:
        super().__init__()
        self.broadcast_kind = broadcast_kind
        self.delivered: dict[int, pvss.PVSSContribution] = {}
        self.decided: dict[int, int] = {}
        self.coins: dict[int, CoinHelper] = {}
        self._abas: dict[int, BinaryAgreement] = {}
        self._input_given: set[int] = set()
        self._zero_phase = False

    def _contribution_validator(self):
        directory = self.directory

        def contribution_valid(candidate: Any) -> bool:
            return (
                isinstance(candidate, pvss.PVSSContribution)
                and tvrf.DKGShVerify(directory, candidate)
            )

        return contribution_valid

    def _make_coin(self, j: int) -> CoinHelper:
        return CoinHelper(self.directory, self.secret, context=("acs-adkg", j))

    def on_start(self) -> None:
        contribution = tvrf.DKGSh(self.directory, self.secret, self.rng)
        contribution_valid = self._contribution_validator()
        for j in range(self.n):
            value = contribution if j == self.me else None
            self.spawn(
                ("rbc", j),
                make_broadcast(
                    self.broadcast_kind, j, value=value, validate=contribution_valid
                ),
            )
            coin = self._make_coin(j)
            self.coins[j] = coin
            self._abas[j] = BinaryAgreement(coin=coin)
            self.spawn(("aba", j), self._abas[j])
        self.upon(self._all_decided, self._finish, label="acs-finish")

    # -- durability ---------------------------------------------------------------------

    def capture_state(self) -> dict:
        state = super().capture_state()
        state["coin_transcripts"] = {
            j: coin.snapshot() for j, coin in self.coins.items()
        }
        return state

    def apply_state(self, state: dict) -> None:
        super().apply_state(state)
        transcripts = state.get("coin_transcripts", {})
        for j in range(self.n):
            coin = self._make_coin(j)
            coin.restore(transcripts.get(j))
            self.coins[j] = coin

    def build_child(self, name: Any) -> Protocol:
        stage, j = name
        if stage == "rbc":
            return make_broadcast(
                self.broadcast_kind,
                j,
                value=None,
                validate=self._contribution_validator(),
            )
        if stage == "aba":
            aba = BinaryAgreement(coin=self.coins[j])
            self._abas[j] = aba
            return aba
        raise ValueError(f"unknown ACSBasedADKG child {name!r}")

    def rearm(self) -> None:
        self.upon(self._all_decided, self._finish, label="acs-finish")

    # -- sub-protocol plumbing ---------------------------------------------------------

    def on_sub_output(self, name: Any, value: Any) -> None:
        stage, j = name
        if stage == "rbc":
            self._on_sharing_delivered(j, value)
        elif stage == "aba":
            self._on_aba_decided(j, value)

    def _on_sharing_delivered(self, j: int, contribution: Any) -> None:
        if j in self.delivered:
            return
        if not isinstance(contribution, pvss.PVSSContribution):
            return
        if contribution.dealer != j:
            return
        self.delivered[j] = contribution
        # The coin's VRF operates over transcripts; a single-dealer
        # aggregate is the transcript of just this sharing.
        self.coins[j].attach_transcript(
            pvss.aggregate(self.directory, [contribution])
        )
        if not self._zero_phase and j not in self._input_given:
            self._input_given.add(j)
            self._abas[j].provide_input(1)

    def _on_aba_decided(self, j: int, bit: int) -> None:
        self.decided[j] = bit
        ones = sum(1 for b in self.decided.values() if b == 1)
        if ones >= self.quorum and not self._zero_phase:
            # BKR gating: enough sharings are in; vote 0 everywhere else.
            self._zero_phase = True
            for k in range(self.n):
                if k not in self._input_given:
                    self._input_given.add(k)
                    self._abas[k].provide_input(0)

    # -- output -------------------------------------------------------------------------

    def _all_decided(self) -> bool:
        if len(self.decided) < self.n:
            return False
        chosen = [j for j, bit in self.decided.items() if bit == 1]
        return all(j in self.delivered for j in chosen)

    def _finish(self) -> None:
        if self.has_output:
            return
        chosen = sorted(j for j, bit in self.decided.items() if bit == 1)
        contributions = [self.delivered[j] for j in chosen]
        transcript = tvrf.DKGAggregate(self.directory, contributions)
        self.output(transcript)
