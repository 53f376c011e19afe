"""Proposal Election (Section 4, Algorithms 3-5, Theorem 3).

Round 1   every party deals an independent PVSS contribution to every
          other party; party ``i`` aggregates the first ``n-f``
          well-formed contributions addressed to it into its *personal*
          VRF-DKG transcript ``vrf_dkg_i``, checked as one transcript
          (parts are verified only when it fails; the dealers of failing
          parts are never taken again).
Round 2   party ``i`` inputs ``(prop_i, vrf_dkg_i)`` into Verifiable
          Gather — committing to the pair before the election outcome is
          knowable.
Round 3   after outputting a gather-set, ``i`` reliably broadcasts just
          its *index set* (O(n) words).
Round 4   for every tuple in a gather-set that passed ``GatherVerify``,
          parties release threshold-VRF evaluation shares of
          ``φ(vrf_dkg_k, ⟨k⟩)`` — only now, which is what makes the
          evaluations unbiasable.  With ``n-f`` shares per index the
          evaluations are combined; the proposal with the maximal
          evaluation wins.

α-binding (Theorem 3): the binding core of Gather contains ≥ n-f tuples,
≥ n-2f of them from parties nonfaulty at core-fixing time; each tuple's
evaluation is uniform and independent, so with probability ≥ (n-2f)/n ≥
1/3 the global maximum lands on an honest core tuple — in which case all
parties output that proposal and nothing else verifies.

The output is ``(proposal, proof)`` where the proof is the index set of
the elected party's gather-set; :meth:`verify` is ``PEVerify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.broadcast.validated import make_broadcast
from repro.core.gather import Gather, _valid_index_set
from repro.core.validity import Validator, always_valid, safe_validate
from repro.crypto import pvss, threshold_vrf as tvrf
from repro.net.conditions import Completion
from repro.net.payload import Payload, words_of
from repro.net.protocol import Protocol


@dataclass(frozen=True)
class PEDkgShare(Payload):
    """Round 1: one PVSS contribution dealt to the recipient."""

    contribution: Any

    def word_size(self) -> int:
        return max(1, words_of(self.contribution))


@dataclass(frozen=True)
class PEEvalShare(Payload):
    """Round 4: sender's VRF evaluation share for index ``k``."""

    k: int
    share: Any

    def word_size(self) -> int:
        return 1 + max(1, words_of(self.share))


class ProposalElection(Protocol):
    """One PE instance; outputs ``(proposal, proof)``."""

    #: Declared mutable state.  ``proposal`` is listed although it is a
    #: constructor argument: a parent rebuilding this instance (NWH view
    #: PE) does not know the proposal it originally chose, so the value
    #: rides the snapshot.  ``gather`` (an instance reference) is
    #: deliberately absent — it is re-linked by :meth:`build_child`.
    STATE_FIELDS = (
        "proposal",
        "dkg_contributions",
        "_rejected",
        "vrf_dkg",
        "gather_output",
        "start_eval",
        "evals",
        "_pending_shares",
        "_verified_shares",
        "_seen_index_bcasts",
    )

    def __init__(
        self,
        proposal: Any,
        validate: Optional[Validator] = None,
        broadcast_kind: str = "ct",
    ) -> None:
        super().__init__()
        self.proposal = proposal
        self.validate = validate or always_valid
        self.broadcast_kind = broadcast_kind
        self.dkg_contributions: list = []
        #: Dealers whose contribution failed verification after a failed
        #: aggregate; a re-sent forgery cannot force another one.
        self._rejected: set[int] = set()
        self.vrf_dkg: Any = None
        self.gather: Optional[Gather] = None
        self.gather_output: Optional[dict] = None
        # start_eval: k -> (prop_k, vrf_dkg_k); evals: k -> VRF output int.
        self.start_eval: dict[int, tuple] = {}
        self.evals: dict[int, int] = {}
        #: The gather indices still without an evaluation: derived state,
        #: built when the output condition is armed (so rebuilt by
        #: :meth:`rearm`) and shrunk where :attr:`evals` grows.
        self._unevaluated: set[int] = set()
        self._pending_shares: dict[int, dict[int, Any]] = {}
        self._verified_shares: dict[int, dict[int, Any]] = {}
        #: dealer -> the index set its broadcast delivered (the set is
        #: kept, not just the dealer, so restore can re-arm the
        #: GatherVerify chain for sets still awaiting verification).
        self._seen_index_bcasts: dict[int, frozenset] = {}

    # -- round 1: VRF-DKG dealing -----------------------------------------------------

    def on_start(self) -> None:
        for j in range(self.n):
            contribution = tvrf.DKGSh(self.directory, self.secret, self.rng)
            self.send(j, PEDkgShare(contribution=contribution))
        # Index-set broadcasts of the other parties can start any time.
        for j in range(self.n):
            if j != self.me:
                self._spawn_index_broadcast(j, None)

    def on_message(self, sender: int, payload: Payload) -> None:
        if isinstance(payload, PEDkgShare):
            self._on_dkg_share(sender, payload.contribution)
        elif isinstance(payload, PEEvalShare):
            self._on_eval_share(sender, payload.k, payload.share)

    def _on_dkg_share(self, sender: int, contribution: Any) -> None:
        if self.vrf_dkg is not None:
            return  # already aggregated
        if sender in self._rejected:
            return
        if any(c.dealer == sender for c in self.dkg_contributions):
            return  # one contribution per dealer
        if not pvss.well_formed(self.directory, contribution, sender):
            return
        pool = self.dkg_contributions
        pool.append(contribution)
        if len(pool) < self.quorum:
            return
        vrf_dkg, kept = pvss.aggregate_checked(self.directory, pool)
        if vrf_dkg is None:
            self._rejected |= {c.dealer for c in pool} - {c.dealer for c in kept}
            self.dkg_contributions = kept
            return
        self.vrf_dkg = vrf_dkg
        self.dkg_contributions = []  # aggregated; never read again
        self._start_gather()

    # -- round 2: gather over (proposal, vrf_dkg) ----------------------------------------

    def _make_gather(self) -> Gather:
        directory = self.directory
        validate = self.validate

        def check_validity(pair: Any) -> bool:
            """Algorithm 4: validate(prop) and DKGVerify(vrf_dkg)."""
            if not isinstance(pair, tuple) or len(pair) != 2:
                return False
            prop, dkg = pair
            if not safe_validate(validate, prop):
                return False
            return tvrf.DKGVerify(directory, dkg)

        return Gather(
            my_value=(self.proposal, self.vrf_dkg),
            validate=check_validity,
            broadcast_kind=self.broadcast_kind,
        )

    def _start_gather(self) -> None:
        self.gather = self._make_gather()
        self.spawn("gather", self.gather)

    # -- round 3: broadcast the index set -------------------------------------------------

    def _make_index_broadcast(
        self, dealer: int, value: Optional[frozenset]
    ) -> Protocol:
        n, minimum = self.n, self.quorum
        return make_broadcast(
            self.broadcast_kind,
            dealer,
            value=value,
            validate=lambda s: _valid_index_set(s, n, minimum),
        )

    def _spawn_index_broadcast(self, dealer: int, value: Optional[frozenset]) -> None:
        self.spawn(("idx", dealer), self._make_index_broadcast(dealer, value))

    # -- durability ----------------------------------------------------------------------

    def build_child(self, name: Any) -> Protocol:
        if name == "gather":
            self.gather = self._make_gather()
            return self.gather
        stage, dealer = name
        if stage == "idx":
            return self._make_index_broadcast(dealer, None)
        raise ValueError(f"unknown ProposalElection child {name!r}")

    def rearm(self) -> None:
        # Re-issue the GatherVerify chain for every index broadcast seen:
        # chains already satisfied re-resolve and release no new shares
        # (``_release_shares`` keys off ``start_eval``), chains still
        # pending re-register exactly the conditions the crash dropped.
        for dealer in self._seen_index_bcasts:
            self._arm_index_verify(dealer)
        if self.gather_output is not None:
            self._arm_output_condition()

    def on_sub_output(self, name: Any, value: Any) -> None:
        if name == "gather":
            self.gather_output = value
            self._spawn_index_broadcast(self.me, frozenset(value))
            self._arm_output_condition()
            return
        stage, dealer = name
        if stage == "idx":
            self._on_index_broadcast(dealer, value)

    # -- round 4: release evaluation shares ------------------------------------------------

    def _on_index_broadcast(self, dealer: int, index_set: frozenset) -> None:
        if dealer in self._seen_index_bcasts:
            return
        self._seen_index_bcasts[dealer] = index_set
        self._arm_index_verify(dealer)

    def _arm_index_verify(self, dealer: int) -> None:
        index_set = self._seen_index_bcasts[dealer]
        # The index set may arrive before our own gather even started
        # (we are still collecting DKG shares); defer until it exists.
        self.upon(
            lambda: self.gather is not None,
            lambda: self.gather.verify(index_set).on_done(self._release_shares),
            label=f"pe-idx-{dealer}",
        )

    def _release_shares(self, gather_set: dict) -> None:
        """Send eval shares for every newly seen tuple, then extend start_eval."""
        fresh = {
            k: pair for k, pair in gather_set.items() if k not in self.start_eval
        }
        for k, (prop_k, vrf_dkg_k) in fresh.items():
            share = tvrf.EvalSh(
                self.directory, self.secret, vrf_dkg_k, self._eval_message(k)
            )
            self.multicast(PEEvalShare(k=k, share=share))
        self.start_eval.update(fresh)
        # Shares that raced ahead of the gather verification can be
        # verified now that their tuple is committed.
        for k in fresh:
            for sender, share in self._pending_shares.pop(k, {}).items():
                self._verify_and_absorb(sender, k, share)

    def _eval_message(self, k: int) -> tuple:
        """Domain-separated VRF input ⟨k⟩, unique per PE instance."""
        return ("pe-eval", self.path, k)

    def _on_eval_share(self, sender: int, k: int, share: Any) -> None:
        if not isinstance(k, int) or not 0 <= k < self.n:
            return
        if k in self.start_eval:
            self._verify_and_absorb(sender, k, share)
            return
        slot = self._pending_shares.setdefault(k, {})
        if sender not in slot:  # first eval message from this sender for k
            slot[sender] = share

    def _verify_and_absorb(self, sender: int, k: int, share: Any) -> None:
        if k in self.evals:
            return  # already combined
        verified = self._verified_shares.setdefault(k, {})
        if sender in verified:
            return
        _prop_k, vrf_dkg_k = self.start_eval[k]
        ok = tvrf.EvalShVerify(
            self.directory, vrf_dkg_k, sender, self._eval_message(k), share
        )
        if not ok:
            return
        verified[sender] = share
        if len(verified) >= self.quorum:
            evaluation, _proof = tvrf.Eval(
                self.directory, vrf_dkg_k, self._eval_message(k), list(verified.values())
            )
            self.evals[k] = tvrf.vrf_output(self.directory, evaluation)
            self._unevaluated.discard(k)

    # -- output -----------------------------------------------------------------------------

    def _arm_output_condition(self) -> None:
        self._unevaluated = set(self.gather_output).difference(self.evals)

        def all_evaluated() -> bool:
            return bool(self.gather_output) and not self._unevaluated

        def emit() -> None:
            if self.has_output:
                return
            winner = max(
                self.gather_output,
                key=lambda k: (self.evals[k], k),
            )
            proposal, _dkg = self.gather_output[winner]
            proof = frozenset(self.gather_output)
            self.output((proposal, proof))

        self.upon(all_evaluated, emit, label="pe-output")

    # -- PEVerify (Algorithm 5) ----------------------------------------------------------------

    def verify(self, value: Any, proof: Any) -> Completion:
        """``PEVerify_i(x, π)``: resolves iff ``x`` is the elected proposal.

        Never resolves for anything else — under a successful (binding)
        election that means only the unique elected proposal verifies.
        """
        completion = Completion()
        if not _valid_index_set(proof, self.n, self.quorum):
            return completion

        def stage1() -> bool:
            return self.gather is not None and all(
                k in self.evals and k in self.start_eval for k in proof
            )

        def stage2() -> None:
            self.gather.verify(proof).on_done(lambda _gset: check())

        def check() -> None:
            winner = max(proof, key=lambda k: (self.evals[k], k))
            elected_proposal, _dkg = self.start_eval[winner]
            if value == elected_proposal:
                completion.resolve(value)

        self.upon(stage1, stage2, label="pe-verify")
        return completion
