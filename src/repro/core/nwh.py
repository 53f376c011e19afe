"""No Waitin' HotStuff (Section 5, Algorithms 6-13, Theorem 4).

NWH is a Validated Asynchronous Byzantine Agreement protocol in the
HotStuff Key-Lock-Commit family.  Each *view* runs one Proposal Election
as a "virtual leader":

1. ``viewChange`` (Algorithm 8): everyone sends its current key in a
   ``suggest``; with ``n-f`` correct suggestions, the freshest key (or the
   party's own input, as a view-0 key) is fed into the view's PE.
2. On a PE output ``(k, v, π_key), π_election``: if the key is recent
   enough to open the local lock (``view > k ≥ lock``), sign and ``echo``
   it; otherwise ``blame`` with the lock as evidence and move on
   (Algorithm 10 / 9).
3. ``n-f`` PE-verified echoes on one tuple → set the *key* and send a
   ``key`` vote; ``n-f`` key votes → set the *lock* and send a ``lock``
   vote; ``n-f`` lock votes → ``commit``, output, terminate.
4. ``checkTermination`` (Algorithm 7) runs across views: any correct
   ``commit`` message is forwarded to everyone and adopted.
5. Fault paths: a PE-verified tuple too old for a correct lock justifies
   a ``blame``; two different PE-verified tuples justify an
   ``equivocate``.  Either (once verified locally) is forwarded and the
   view advances — no waiting, hence the name.

Safety comes from quorum-intersection over the vote certificates
(Lemmas 5-6); liveness from PE's completeness/agreement-on-verification
(Lemma 8) and termination from PE's α-binding: each view independently
succeeds with probability ≥ 1/3, so the number of views is geometric
(Lemma 10, Theorem 9).

Messages of old views are dropped (except ``commit``); messages of
future views are buffered, exactly as Algorithm 6's "delay any message
from any view v > view_i" prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core import certificates as certs
from repro.core.certificates import KeyTuple, SignedVote
from repro.core.proposal_election import ProposalElection
from repro.core.validity import Validator, always_valid
from repro.net.payload import Payload, words_of
from repro.net.protocol import Protocol


@dataclass(frozen=True)
class Suggest(Payload):
    key: Any
    view: int

    def word_size(self) -> int:
        return 1 + words_of(self.key)


@dataclass(frozen=True)
class EchoMsg(Payload):
    key: Any  # KeyTuple output by PE
    election_proof: Any
    vote: Any  # SignedVote on ⟨echo, H(v), view⟩
    view: int

    def word_size(self) -> int:
        return 2 + words_of(self.key) + words_of(self.election_proof)


@dataclass(frozen=True)
class KeyVoteMsg(Payload):
    value: Any
    proof: Any  # echo-certificate
    vote: Any  # SignedVote on ⟨key, H(v), view⟩
    view: int

    def word_size(self) -> int:
        return 2 + max(1, words_of(self.value)) + words_of(self.proof)


@dataclass(frozen=True)
class LockVoteMsg(Payload):
    value: Any
    proof: Any  # key-certificate
    vote: Any  # SignedVote on ⟨lock, H(v), view⟩
    view: int

    def word_size(self) -> int:
        return 2 + max(1, words_of(self.value)) + words_of(self.proof)


@dataclass(frozen=True)
class CommitMsg(Payload):
    value: Any
    proof: Any  # lock-certificate
    view: int

    def word_size(self) -> int:
        return 1 + max(1, words_of(self.value)) + words_of(self.proof)


@dataclass(frozen=True)
class BlameMsg(Payload):
    key: Any  # PE output tuple
    election_proof: Any
    lock_view: int
    lock_value: Any
    lock_proof: Any
    view: int

    def word_size(self) -> int:
        return 2 + words_of(self.key) + words_of(self.election_proof) + (
            max(1, words_of(self.lock_value)) + words_of(self.lock_proof)
        )


@dataclass(frozen=True)
class EquivocateMsg(Payload):
    key_a: Any
    proof_a: Any
    key_b: Any
    proof_b: Any
    view: int

    def word_size(self) -> int:
        return 1 + sum(
            words_of(part)
            for part in (self.key_a, self.proof_a, self.key_b, self.proof_b)
        )


class NWH(Protocol):
    """One NWH (VABA) instance; outputs the agreed externally valid value."""

    #: Declared mutable state.  ``my_value`` rides the snapshot (it seeds
    #: view-0 keys long after ``on_start``); the ``_pe`` instance-reference
    #: map is rebuilt by :meth:`build_child`.  The ``*_seen`` journals hold
    #: every fault-relevant message whose PEVerify chain may still be
    #: pending, so :meth:`rearm` can re-derive those chains exactly.
    STATE_FIELDS = (
        "my_value",
        "view",
        "terminated",
        "key_view",
        "key_value",
        "key_proof",
        "lock_view",
        "lock_value",
        "lock_proof",
        "_suggestions",
        "_pe_started",
        "_echoes",
        "_echo_seen",
        "_echo_tuple",
        "_key_votes",
        "_lock_votes",
        "_key_sent",
        "_lock_sent",
        "_commit_sent",
        "_advanced",
        "_blame_seen",
        "_equiv_seen",
        "_future",
        "_commit_forwarded",
        "views_entered",
    )

    def __init__(
        self,
        my_value: Any,
        validate: Optional[Validator] = None,
        broadcast_kind: str = "ct",
    ) -> None:
        super().__init__()
        self.my_value = my_value
        self.validate = validate or always_valid
        self.broadcast_kind = broadcast_kind
        self.view = 1
        self.terminated = False
        # Key / lock fields (Algorithm 6 lines 1-2; Lemma 7's invariant
        # needs view-0 fields to carry the party's own valid input).
        self.key_view = 0
        self.key_value = my_value
        self.key_proof: Any = None
        self.lock_view = 0
        self.lock_value = my_value
        self.lock_proof: Any = None
        # Per-view state.
        self._suggestions: dict[int, dict[int, KeyTuple]] = {}
        self._pe: dict[int, ProposalElection] = {}
        self._pe_started: set[int] = set()
        self._echoes: dict[int, dict[int, tuple]] = {}
        self._echo_seen: dict[int, list[tuple[int, EchoMsg]]] = {}
        self._echo_tuple: dict[int, tuple] = {}  # view -> (key_tuple, proof)
        self._key_votes: dict[int, dict[int, SignedVote]] = {}
        self._lock_votes: dict[int, dict[int, SignedVote]] = {}
        self._key_sent: set[int] = set()
        self._lock_sent: set[int] = set()
        self._commit_sent: set[int] = set()
        self._advanced: set[int] = set()
        self._blame_seen: dict[int, list[tuple[int, BlameMsg]]] = {}
        self._equiv_seen: dict[int, list[tuple[int, EquivocateMsg]]] = {}
        self._future: dict[int, list[tuple[int, Payload]]] = {}
        self._commit_forwarded = False
        self.views_entered = 1

    # -- lifecycle ---------------------------------------------------------------------

    def on_start(self) -> None:
        self._start_view(1)

    def _start_view(self, view: int) -> None:
        """Algorithm 8 viewChange: announce the current key."""
        key = KeyTuple(self.key_view, self.key_value, self.key_proof)
        self.multicast(Suggest(key=key, view=view))

    # -- dispatch -----------------------------------------------------------------------

    def on_message(self, sender: int, payload: Payload) -> None:
        if isinstance(payload, CommitMsg):
            self._on_commit(sender, payload)
            return
        if self.terminated:
            return
        view = getattr(payload, "view", None)
        if not isinstance(view, int) or view < 1:
            return
        if view > self.view:
            self._future.setdefault(view, []).append((sender, payload))
            return
        if view < self.view:
            return  # old-view messages are dropped (Algorithm 6)
        self._dispatch(sender, payload)

    def _dispatch(self, sender: int, payload: Payload) -> None:
        if isinstance(payload, Suggest):
            self._on_suggest(sender, payload)
        elif isinstance(payload, EchoMsg):
            self._on_echo(sender, payload)
        elif isinstance(payload, KeyVoteMsg):
            self._on_key_vote(sender, payload)
        elif isinstance(payload, LockVoteMsg):
            self._on_lock_vote(sender, payload)
        elif isinstance(payload, BlameMsg):
            self._on_blame(sender, payload)
        elif isinstance(payload, EquivocateMsg):
            self._on_equivocate(sender, payload)

    #: Per-(view, sender) cap on journaled blame/equivocate messages
    #: (echoes are deduped to one per sender).  An honest sender
    #: originates at most one fault message per view and forwards at
    #: most one more, so 4 is generous — and because the bound is per
    #: sender, a Byzantine spammer can fill only its own allowance,
    #: never censor honest fault messages out of a shared pool.  Total
    #: journal growth is ≤ 4n per view, matching the bounded-buffer
    #: posture of the rest of the stack (and keeping freeze() blobs
    #: bounded).
    PER_SENDER_FAULT_CAP = 4

    def _journal_fault(self, journal: dict, view: int, sender: int, payload) -> bool:
        """Admit one fault message into a per-view journal, bounded.

        Exact duplicates (e.g. the same blame forwarded by several
        parties) are dropped regardless of sender; beyond that each
        sender may hold :data:`PER_SENDER_FAULT_CAP` distinct entries.
        Returns True iff the message was admitted (and should arm its
        verification chain).
        """
        entries = journal.setdefault(view, [])
        from_sender = 0
        for seen_sender, seen_payload in entries:
            if seen_payload == payload:
                return False
            if seen_sender == sender:
                from_sender += 1
        if from_sender >= self.PER_SENDER_FAULT_CAP:
            return False
        entries.append((sender, payload))
        return True

    def _advance_view(self, from_view: int) -> None:
        if self.terminated or self.view != from_view:
            return
        self.view = from_view + 1
        self.views_entered += 1
        # Journals of past views are dead weight (rearm only re-derives
        # the current view's chains); free them as the view moves on.
        for journal in (self._echo_seen, self._blame_seen, self._equiv_seen):
            for view in [v for v in journal if v < self.view]:
                del journal[view]
        self._start_view(self.view)
        buffered = self._future.pop(self.view, [])
        for sender, payload in buffered:
            if self.terminated or self.view != from_view + 1:
                # A buffered fault message advanced us again; re-buffer the
                # rest through the normal path.
                self.on_message(sender, payload)
            else:
                self._dispatch(sender, payload)

    # -- viewChange: suggestions and PE (Algorithm 8) --------------------------------------

    def _on_suggest(self, sender: int, payload: Suggest) -> None:
        view = payload.view
        box = self._suggestions.setdefault(view, {})
        if sender in box:
            return
        key = payload.key
        if not isinstance(key, KeyTuple) or key.view >= view:
            return
        if not certs.key_correct(
            self.directory, self.validate, key.view, key.value, key.proof
        ):
            return
        box[sender] = key
        if len(box) >= self.quorum and view not in self._pe_started:
            self._pe_started.add(view)
            chosen = max(box.values(), key=lambda kt: kt.view)
            if chosen.view == 0:
                chosen = KeyTuple(0, self.my_value, None)
            self._spawn_pe(view, chosen)

    def _make_pe(self, proposal: Optional[KeyTuple]) -> ProposalElection:
        directory, validate = self.directory, self.validate

        def key_tuple_valid(candidate: Any) -> bool:
            if not isinstance(candidate, KeyTuple):
                return False
            return certs.key_correct(
                directory, validate, candidate.view, candidate.value, candidate.proof
            )

        return ProposalElection(
            proposal=proposal,
            validate=key_tuple_valid,
            broadcast_kind=self.broadcast_kind,
        )

    def _spawn_pe(self, view: int, proposal: KeyTuple) -> None:
        pe = self._make_pe(proposal)
        self._pe[view] = pe
        self.spawn(("pe", view), pe)

    # -- durability ---------------------------------------------------------------------

    def build_child(self, name: Any) -> Protocol:
        stage, view = name
        if stage == "pe":
            # The elected proposal is part of the PE's own snapshot; the
            # placeholder is overwritten before the PE ever reads it.
            pe = self._make_pe(None)
            self._pe[view] = pe
            return pe
        raise ValueError(f"unknown NWH child {name!r}")

    def rearm(self) -> None:
        """Re-derive the PEVerify chains pending for the current view.

        Chains for older views are dead weight (their callbacks guard on
        ``view != self.view``) and are not re-created; chains whose work
        already completed re-fire idempotently (echo senders already in
        the view's echo box are skipped, fault advances guard on
        ``_advanced``/``terminated``).
        """
        if self.terminated:
            return
        view = self.view
        counted = self._echoes.get(view, {})
        for sender, payload in self._echo_seen.get(view, []):
            if sender not in counted:
                self._arm_echo_verify(sender, payload)
        for _sender, payload in self._blame_seen.get(view, []):
            self._arm_blame_verify(payload)
        for _sender, payload in self._equiv_seen.get(view, []):
            self._arm_equivocate_verify(payload)

    def on_sub_output(self, name: Any, value: Any) -> None:
        stage, view = name
        if stage != "pe" or self.terminated or view != self.view:
            return
        key_tuple, election_proof = value
        self._on_pe_output(view, key_tuple, election_proof)

    # -- Algorithm 10 lines 2-8: react to the virtual leader -------------------------------

    def _on_pe_output(self, view: int, key_tuple: KeyTuple, election_proof: Any) -> None:
        if view > key_tuple.view >= self.lock_view:
            vote = certs.make_vote(
                self.directory, self.secret, certs.KIND_ECHO, key_tuple.value, view
            )
            self.multicast(
                EchoMsg(
                    key=key_tuple,
                    election_proof=election_proof,
                    vote=vote,
                    view=view,
                )
            )
        else:
            self.multicast(
                BlameMsg(
                    key=key_tuple,
                    election_proof=election_proof,
                    lock_view=self.lock_view,
                    lock_value=self.lock_value,
                    lock_proof=self.lock_proof,
                    view=view,
                )
            )
            self._advance_view(view)

    # -- echo -> key -> lock -> commit pipeline ----------------------------------------------

    def _when_pe_verifies(self, view: int, key_tuple: Any, proof: Any, action) -> None:
        """Run ``action`` once PEVerify_{i,view}(key_tuple, proof) terminates."""

        def pe_exists() -> bool:
            return view in self._pe

        def chain() -> None:
            self._pe[view].verify(key_tuple, proof).on_done(lambda _v: action())

        self.upon(pe_exists, chain, label=f"nwh-pe-verify-{view}")

    def _on_echo(self, sender: int, payload: EchoMsg) -> None:
        view = payload.view
        key_tuple = payload.key
        if not isinstance(key_tuple, KeyTuple):
            return
        if not certs.vote_valid(
            self.directory, payload.vote, certs.KIND_ECHO, key_tuple.value, view
        ):
            return
        if payload.vote.signer != sender:
            return
        journal = self._echo_seen.setdefault(view, [])
        if any(seen_sender == sender for seen_sender, _msg in journal):
            return  # one pending-verification echo per sender per view
        journal.append((sender, payload))
        self._arm_echo_verify(sender, payload)

    def _arm_echo_verify(self, sender: int, payload: EchoMsg) -> None:
        def verified() -> None:
            self._on_verified_echo(sender, payload)

        self._when_pe_verifies(
            payload.view, payload.key, payload.election_proof, verified
        )

    def _on_verified_echo(self, sender: int, payload: EchoMsg) -> None:
        view = payload.view
        if self.terminated or view != self.view:
            return
        box = self._echoes.setdefault(view, {})
        if sender in box:
            return
        identity = (payload.key.view, payload.key.value)
        existing = self._echo_tuple.get(view)
        if existing is not None and existing[0] != identity:
            # Two different PE-verified tuples: Algorithm 10 lines 12-14.
            first_payload = existing[1]
            self.multicast(
                EquivocateMsg(
                    key_a=first_payload.key,
                    proof_a=first_payload.election_proof,
                    key_b=payload.key,
                    proof_b=payload.election_proof,
                    view=view,
                )
            )
            self._advance_view(view)
            return
        if existing is None:
            self._echo_tuple[view] = (identity, payload)
        box[sender] = payload
        if len(box) >= self.quorum and view not in self._key_sent:
            self._key_sent.add(view)
            votes = tuple(entry.vote for entry in box.values())
            value = payload.key.value
            self.key_view = view
            self.key_value = value
            self.key_proof = votes
            vote = certs.make_vote(
                self.directory, self.secret, certs.KIND_KEY, value, view
            )
            self.multicast(
                KeyVoteMsg(value=value, proof=votes, vote=vote, view=view)
            )

    def _on_key_vote(self, sender: int, payload: KeyVoteMsg) -> None:
        view = payload.view
        if not certs.vote_valid(
            self.directory, payload.vote, certs.KIND_KEY, payload.value, view
        ):
            return
        if payload.vote.signer != sender:
            return
        if not certs.key_correct(
            self.directory, self.validate, view, payload.value, payload.proof
        ):
            return
        box = self._key_votes.setdefault(view, {})
        if sender in box:
            return
        box[sender] = payload.vote
        if len(box) >= self.quorum and view not in self._lock_sent:
            self._lock_sent.add(view)
            votes = tuple(box.values())
            self.lock_view = view
            self.lock_value = payload.value
            self.lock_proof = votes
            vote = certs.make_vote(
                self.directory, self.secret, certs.KIND_LOCK, payload.value, view
            )
            self.multicast(
                LockVoteMsg(value=payload.value, proof=votes, vote=vote, view=view)
            )

    def _on_lock_vote(self, sender: int, payload: LockVoteMsg) -> None:
        view = payload.view
        if not certs.vote_valid(
            self.directory, payload.vote, certs.KIND_LOCK, payload.value, view
        ):
            return
        if payload.vote.signer != sender:
            return
        if not certs.lock_correct(self.directory, view, payload.value, payload.proof):
            return
        box = self._lock_votes.setdefault(view, {})
        if sender in box:
            return
        box[sender] = payload.vote
        if len(box) >= self.quorum and view not in self._commit_sent:
            self._commit_sent.add(view)
            votes = tuple(box.values())
            self.multicast(CommitMsg(value=payload.value, proof=votes, view=view))
            self._terminate(payload.value)

    # -- fault handling (Algorithm 9) -----------------------------------------------------

    def _on_blame(self, sender: int, payload: BlameMsg) -> None:
        view = payload.view
        key_tuple = payload.key
        if not isinstance(key_tuple, KeyTuple):
            return
        if not certs.lock_correct(
            self.directory, payload.lock_view, payload.lock_value, payload.lock_proof
        ):
            return
        if not (view <= key_tuple.view or key_tuple.view < payload.lock_view):
            return
        if self._journal_fault(self._blame_seen, view, sender, payload):
            self._arm_blame_verify(payload)

    def _arm_blame_verify(self, payload: BlameMsg) -> None:
        view = payload.view

        def verified() -> None:
            if self.terminated or self.view != view or view in self._advanced:
                return
            self._advanced.add(view)
            self.multicast(payload)
            self._advance_view(view)

        self._when_pe_verifies(view, payload.key, payload.election_proof, verified)

    def _on_equivocate(self, sender: int, payload: EquivocateMsg) -> None:
        view = payload.view
        if not isinstance(payload.key_a, KeyTuple) or not isinstance(
            payload.key_b, KeyTuple
        ):
            return
        if (payload.key_a.view, payload.key_a.value) == (
            payload.key_b.view,
            payload.key_b.value,
        ):
            return
        if self._journal_fault(self._equiv_seen, view, sender, payload):
            self._arm_equivocate_verify(payload)

    def _arm_equivocate_verify(self, payload: EquivocateMsg) -> None:
        view = payload.view
        state = {"hits": 0}

        def one_verified() -> None:
            state["hits"] += 1
            if state["hits"] < 2:
                return
            if self.terminated or self.view != view or view in self._advanced:
                return
            self._advanced.add(view)
            self.multicast(payload)
            self._advance_view(view)

        self._when_pe_verifies(view, payload.key_a, payload.proof_a, one_verified)
        self._when_pe_verifies(view, payload.key_b, payload.proof_b, one_verified)

    # -- checkTermination (Algorithm 7) -----------------------------------------------------

    def _on_commit(self, sender: int, payload: CommitMsg) -> None:
        if self.terminated:
            return
        if not certs.commit_correct(
            self.directory, payload.view, payload.value, payload.proof
        ):
            return
        if not self._commit_forwarded:
            self._commit_forwarded = True
            self.multicast(payload)
        self._terminate(payload.value)

    def _terminate(self, value: Any) -> None:
        if self.terminated:
            return
        self.terminated = True
        self.output(value)
