"""Dynamic membership: committee churn with a proactively reshared key.

The production story the ROADMAP asks for: one group key that *outlives*
any particular committee.  A :class:`MembershipSchedule` describes how a
universe of keyed parties rotates through per-epoch committees (joins,
leaves, threshold changes); the :class:`MembershipDriver` runs epoch 0
as a fresh ADKG and every later epoch as a
:class:`~repro.core.reshare.ReshareAgreement` handoff session on the
*new* committee's own transport — the old committee's dealings
(:func:`repro.crypto.reshare.deal_reshare`) are published before the
handoff and injected as initial inputs, so departing parties need not
stick around.  Per-epoch faults compose on the one epoch loop: a chaos
spec attaches to that epoch's transport, a crash overlay is a
:class:`~repro.storage.recovery.CrashPlan` interlude (the WAL machinery
rehydrates a party mid-handoff); either way the acceptance invariant is
the same — **the group public key is byte-identical before and after
every handoff**.

:class:`ChurnBeacon` extends the randomness beacon across committee
changes: each epoch's rounds are evaluated under that epoch's directory
(the per-epoch session label domain-separates VRF inputs) and chained
through ``prev`` links from genesis, so one verification walk spans
every handoff.
"""

from __future__ import annotations

import random
import re
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence

from repro.core.reshare import ReshareAgreement
from repro.crypto import reshare, threshold_vrf as tvrf
from repro.crypto.keys import PartySecret, PublicDirectory, TrustedSetup
from repro.net.metrics import Metrics
from repro.net.party import Party
from repro.net.protocol import Protocol
from repro.net.transport import make_run_transport
from repro.service.beacon import (
    GENESIS,
    BeaconOutput,
    emit_rounds,
    in_chain_order,
    verify_output,
)
from repro.service.epochs import EpochDriver, EpochResult, adkg_root
from repro.storage.recovery import CrashPlan

__all__ = [
    "ChurnBeacon",
    "ChurnEvent",
    "ChurnReport",
    "EpochSpec",
    "MembershipDriver",
    "MembershipSchedule",
    "committee_setup",
    "epoch_setup",
    "handoff_overlays",
    "parse_churn",
    "run_churn",
    "transcript_valid",
]


# -- schedules -----------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change: ``join``/``leave`` a party or set ``threshold``."""

    kind: str
    value: int
    epoch: int

    def __post_init__(self) -> None:
        if self.kind not in ("join", "leave", "threshold"):
            raise ValueError(f"unknown churn event kind {self.kind!r}")
        if self.epoch < 1:
            raise ValueError(
                "churn events apply from epoch 1 on (epoch 0 is the fresh ADKG)"
            )


_EVENT_RE = re.compile(r"^(join|leave|threshold):(\d+)@(\d+)$")


def parse_churn(spec: str) -> tuple[ChurnEvent, ...]:
    """Parse the CLI mini-language: ``join:7@1;leave:2@2;threshold:1@3``.

    Each clause is ``kind:value@epoch`` — party id for join/leave, the
    new ``f`` for threshold — applied when entering that epoch.
    """
    events = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        match = _EVENT_RE.match(clause)
        if match is None:
            raise ValueError(
                f"bad churn clause {clause!r} (want kind:value@epoch, "
                "kind in join/leave/threshold)"
            )
        kind, value, epoch = match.groups()
        events.append(ChurnEvent(kind=kind, value=int(value), epoch=int(epoch)))
    if not events:
        raise ValueError("empty churn spec")
    return tuple(events)


@dataclass(frozen=True)
class EpochSpec:
    """One epoch's committee: universe member ids plus its threshold."""

    epoch: int
    members: tuple[int, ...]
    f: int

    @property
    def n(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class MembershipSchedule:
    """A fully resolved per-epoch committee plan over a party universe."""

    universe_n: int
    epochs: tuple[EpochSpec, ...]

    @classmethod
    def build(
        cls,
        universe_n: int,
        epochs: int,
        events: Sequence[ChurnEvent] = (),
        *,
        base_members: Optional[Sequence[int]] = None,
        base_f: Optional[int] = None,
    ) -> "MembershipSchedule":
        """Resolve events into concrete committees, validating every epoch.

        ``base_members`` defaults to the whole universe *minus* parties
        that join later — so a plain ``join:…`` spec works without
        hand-picking the starting committee.  Every epoch must satisfy
        ``n >= 3f + 1``; a leave-heavy schedule needs a ``threshold``
        event (or a smaller ``base_f``) to stay valid, and the error
        says so rather than silently adjusting.
        """
        if epochs < 1:
            raise ValueError("need at least one epoch")
        for event in events:
            if event.epoch >= epochs:
                raise ValueError(
                    f"event {event} is beyond the last epoch {epochs - 1}"
                )
            if event.kind in ("join", "leave") and not 0 <= event.value < universe_n:
                raise ValueError(f"event {event} names a party outside the universe")
        if base_members is None:
            joiners = {e.value for e in events if e.kind == "join"}
            base_members = [m for m in range(universe_n) if m not in joiners]
        members = list(dict.fromkeys(base_members))
        if len(members) != len(list(base_members)):
            raise ValueError("duplicate base members")
        if any(not 0 <= m < universe_n for m in members):
            raise ValueError("base member outside the universe")
        f = base_f if base_f is not None else (len(members) - 1) // 3
        specs = []
        for epoch in range(epochs):
            for event in events:
                if event.epoch != epoch:
                    continue
                if event.kind == "join":
                    if event.value in members:
                        raise ValueError(f"{event}: party already a member")
                    members.append(event.value)
                elif event.kind == "leave":
                    if event.value not in members:
                        raise ValueError(f"{event}: party not a member")
                    members.remove(event.value)
                else:
                    f = event.value
            if len(members) < 3 * f + 1:
                raise ValueError(
                    f"epoch {epoch}: n={len(members)} < 3f+1 with f={f}; "
                    "add a threshold event or shrink base_f"
                )
            specs.append(EpochSpec(epoch=epoch, members=tuple(members), f=f))
        return cls(universe_n=universe_n, epochs=tuple(specs))

    def __iter__(self):
        return iter(self.epochs)

    def __len__(self) -> int:
        return len(self.epochs)


def committee_setup(
    universe: TrustedSetup,
    members: Sequence[int],
    f: int,
    session: str,
) -> TrustedSetup:
    """Slice the universe PKI down to one epoch's committee.

    Parties keep their long-lived universe keys; only the *local* index
    changes (directory positions are committee-relative, exactly as a
    shard group's are).  The per-epoch ``session`` label domain-separates
    every signature, SCRAPE seed and VRF input of the epoch.
    """
    base = universe.directory
    members = tuple(members)
    directory = PublicDirectory(
        n=len(members),
        f=f,
        params=base.params,
        sign_group=base.sign_group,
        pair_group=base.pair_group,
        sign_pks=tuple(base.sign_pks[m] for m in members),
        enc_pks=tuple(base.enc_pks[m] for m in members),
        session=session,
    )
    secrets = tuple(
        PartySecret(
            index=local,
            sign=universe.secret(member).sign,
            enc_sk=universe.secret(member).enc_sk,
        )
        for local, member in enumerate(members)
    )
    return TrustedSetup(directory, secrets)


def transcript_valid(directory: PublicDirectory, transcript: Any) -> bool:
    """``DKGVerify`` or ``verify_reshared``, by the transcript's kind."""
    if isinstance(transcript, reshare.ReshareTranscript):
        return reshare.verify_reshared(directory, transcript)
    return tvrf.DKGVerify(directory, transcript)


def epoch_setup(universe: TrustedSetup, seed: int, spec: EpochSpec) -> TrustedSetup:
    """The setup epoch ``spec`` of a seed-``seed`` membership run uses: its
    committee's slice of the universe under that epoch's session label —
    a pure function, so a verifier rebuilds the directory from the row."""
    label = f"{universe.directory.session}-churn-{seed}-epoch-{spec.epoch}"
    return committee_setup(universe, spec.members, spec.f, label)


def handoff_overlays(epochs: int, chaos: Any = None, crash: Any = None) -> dict:
    """One chaos spec and one crash plan (``{"indices", "after", "delay"}``)
    as the ``chaos=`` / ``crash=`` keywords that put them on every handoff
    epoch (epoch 0 is the plain ADKG the overlays cover without a schedule)."""
    return {
        name: {epoch: overlay for epoch in range(1, epochs)}
        for name, overlay in (("chaos", chaos), ("crash", crash))
        if overlay is not None
    }


# -- the driver ----------------------------------------------------------------------


@dataclass
class MembershipReport:
    """Everything one membership run produced: epochs, key, fault overlays."""

    universe_n: int
    transport: str
    seed: int
    schedule: MembershipSchedule
    results: list[EpochResult] = field(default_factory=list)
    #: Per-epoch committee setups (runtime objects; needed to verify the
    #: churn beacon and to chain further handoffs).
    setups: dict[int, TrustedSetup] = field(default_factory=dict)
    key: Any = None
    key_encoded: bytes = b""
    key_invariant: bool = False
    crash_epochs: tuple[int, ...] = ()
    chaos_epochs: tuple[int, ...] = ()
    replay: dict = field(default_factory=dict)
    #: Every epoch's transport metrics (the live objects), in epoch order.
    metrics: list[Metrics] = field(default_factory=list)
    wall_clock_s: float = 0.0

    @property
    def agreed(self) -> bool:
        return bool(self.results) and all(r.agreed for r in self.results)

    @property
    def handoffs(self) -> int:
        return max(0, len(self.results) - 1)

    @property
    def contexts(self) -> dict[int, tuple[PublicDirectory, Any]]:
        """Per-epoch ``(directory, transcript)`` for beacon verification."""
        return {
            result.epoch: (
                self.setups[result.epoch].directory,
                result.transcript,
            )
            for result in self.results
        }


class MembershipDriver:
    """Run a membership schedule: ADKG once, then reshare handoffs.

    ``chaos`` and ``crash`` are per-epoch overlays: ``chaos`` maps epoch
    → a chaos spec (anything :func:`repro.net.chaos.coerce_chaos`
    accepts) attached to that epoch's transport; ``crash`` maps epoch →
    ``{"indices": (i, ...), "after": deliveries, "delay": t}``, the
    :class:`~repro.storage.recovery.CrashPlan` that epoch runs under,
    WAL-ing the handoff state of the crashed parties.
    """

    def __init__(
        self,
        universe: TrustedSetup,
        schedule: MembershipSchedule,
        *,
        transport: str = "sim",
        seed: int = 0,
        timeout: float = 120.0,
        chaos: Optional[dict] = None,
        crash: Optional[dict] = None,
        cadence: int = 16,
        storage_dir: Optional[str] = None,
    ) -> None:
        self.universe = universe
        self.schedule = schedule
        self.transport = transport
        self.seed = seed
        self.timeout = timeout
        self.chaos = dict(chaos or {})
        self.crash = dict(crash or {})
        self.cadence = cadence
        self.storage_dir = storage_dir

    # -- deterministic derivations ---------------------------------------------------

    def epoch_seed(self, epoch: int) -> int:
        # Distinct per epoch so per-party RNG streams never repeat
        # across the fresh transports of consecutive epochs.
        return self.seed * 1009 + epoch

    def handoff_spec(
        self, epoch: int, old: TrustedSetup, old_transcript: Any
    ) -> reshare.HandoffSpec:
        return reshare.HandoffSpec(
            epoch=epoch,
            old_session=old.directory.session,
            old_n=old.directory.n,
            old_f=old.directory.f,
            old_sign_pks=old.directory.sign_pks,
            old_commitments=old_transcript.commitments,
        )

    def dealings(
        self, spec: reshare.HandoffSpec, old: TrustedSetup, new: TrustedSetup
    ) -> tuple[reshare.ReshareDealing, ...]:
        """Every old member's dealing, derived from per-dealer seeded RNG.

        "Published before leaving": the driver collects these from the
        old committee up front, so the handoff session never depends on
        a departed party being reachable.
        """
        return tuple(
            reshare.deal_reshare(
                new.directory,
                spec,
                old.secret(dealer),
                random.Random(
                    ("reshare-deal", self.seed, spec.epoch, dealer).__repr__()
                ),
            )
            for dealer in range(old.directory.n)
        )

    @staticmethod
    def initial_holdings(
        dealings: Sequence[reshare.ReshareDealing], new_n: int
    ) -> dict[int, tuple]:
        """Round-robin assignment of published dealings to new parties.

        Every dealing lands at exactly one initial holder, who fans it
        out on start; with ``n_old ≥ 3 f_old + 1`` dealings spread over
        the committee, ``f_old + 1`` of them survive any tolerated fault
        pattern (a tampered relay fails the dealer's signature).
        """
        holdings: dict[int, list] = {j: [] for j in range(new_n)}
        for index, dealing in enumerate(dealings):
            holdings[index % new_n].append(dealing)
        return {j: tuple(ds) for j, ds in holdings.items()}

    # -- epoch execution -------------------------------------------------------------

    def run(self) -> MembershipReport:
        started = time.perf_counter()
        report = MembershipReport(
            universe_n=self.universe.directory.n,
            transport=self.transport,
            seed=self.seed,
            schedule=self.schedule,
            crash_epochs=tuple(sorted(self.crash)),
            chaos_epochs=tuple(sorted(self.chaos)),
        )
        group = self.universe.directory.pair_group
        prev_setup: Optional[TrustedSetup] = None
        prev_transcript: Any = None
        for spec in self.schedule:
            setup = epoch_setup(self.universe, self.seed, spec)
            if spec.epoch == 0:
                root_factory: Any = adkg_root
            else:
                hspec = self.handoff_spec(spec.epoch, prev_setup, prev_transcript)
                holdings = self.initial_holdings(
                    self.dealings(hspec, prev_setup, setup), spec.n
                )

                def root_factory(
                    party: Party, _spec=hspec, _holdings=holdings
                ) -> Protocol:
                    return ReshareAgreement(
                        spec=_spec, initial=_holdings[party.index]
                    )

            result = self._run_epoch(spec, setup, root_factory, report)
            report.results.append(result)
            report.setups[spec.epoch] = setup
            prev_setup, prev_transcript = setup, result.transcript
        report.key = report.results[0].public_key
        report.key_encoded = group.encode_element(report.key)
        report.key_invariant = all(
            group.encode_element(result.public_key) == report.key_encoded
            for result in report.results
        )
        report.wall_clock_s = time.perf_counter() - started
        return report

    def _run_epoch(
        self,
        spec: EpochSpec,
        setup: TrustedSetup,
        root_factory: Any,
        report: MembershipReport,
    ) -> EpochResult:
        runtime = make_run_transport(
            self.transport,
            setup,
            seed=self.epoch_seed(spec.epoch),
            chaos=self.chaos.get(spec.epoch),
        )
        crash = self.crash.get(spec.epoch)
        plan: Any = nullcontext()
        if crash is not None:
            plan = CrashPlan(
                runtime,
                root_factory,
                cadence=self.cadence,
                storage_dir=self.storage_dir,
                timeout=self.timeout,
                **crash,
            )
        with plan as interlude:
            [result] = EpochDriver(
                runtime,
                epochs=1,
                root_factory=root_factory,
                timeout=self.timeout,
                interludes={0: interlude},
            ).run()
        if interlude:
            report.replay[spec.epoch] = interlude.replay
        report.metrics.append(runtime.metrics)
        # The fresh transport calls this epoch 0 and knows only local
        # indices; relabel with the schedule's epoch and committee.
        return replace(
            result, epoch=spec.epoch, committee=spec.members, threshold=spec.f
        )


# -- the churn beacon ----------------------------------------------------------------


class ChurnBeacon:
    """A genesis-rooted beacon chain spanning committee changes.

    Unlike :class:`~repro.service.beacon.RandomnessBeacon` (one setup for
    every epoch), each epoch here evaluates under its *own* directory —
    the per-epoch session label feeds the VRF message point, and the
    transcript is either the fresh ADKG's or a reshared one (both expose
    ``public_key``/``share_commitment``, and
    :func:`~repro.crypto.threshold_vrf.EvalSh` dispatches on the kind).
    The ``prev`` links cross handoffs, so the chain proves continuity of
    the one invariant group key through every committee.
    """

    def __init__(self, *, rounds_per_epoch: int = 2) -> None:
        if rounds_per_epoch < 1:
            raise ValueError("rounds_per_epoch must be >= 1")
        self.rounds_per_epoch = rounds_per_epoch
        self.outputs: list[BeaconOutput] = []
        self._prev = GENESIS

    def emit_epoch(
        self,
        epoch: int,
        setup: TrustedSetup,
        transcript: Any,
        *,
        signers: Optional[Sequence[int]] = None,
    ) -> list[BeaconOutput]:
        directory = setup.directory
        if not transcript_valid(directory, transcript):
            raise ValueError(f"epoch {epoch} transcript does not verify")
        emitted = emit_rounds(
            setup, transcript, signers, epoch, self.rounds_per_epoch, self._prev
        )
        self.outputs.extend(emitted)
        self._prev = emitted[-1].value
        return emitted

    @classmethod
    def verify_chain(
        cls,
        outputs: Sequence[BeaconOutput],
        contexts: dict[int, tuple[PublicDirectory, Any]],
    ) -> bool:
        """Genesis-rooted verification across every committee change.

        ``contexts`` maps epoch → ``(directory, transcript)``; the walk, in
        :func:`~repro.service.beacon.in_chain_order`, additionally pins key
        invariance — every epoch's transcript must carry the same group key
        bytes as epoch 0's.
        """
        if not in_chain_order(outputs, contexts):
            return False
        anchor_directory, anchor_transcript = contexts[min(contexts)]
        group = anchor_directory.pair_group
        anchor_key = group.encode_element(anchor_transcript.public_key)
        prev = GENESIS
        for output in outputs:
            if output.prev != prev:
                return False
            context = contexts.get(output.epoch)
            if context is None:
                return False
            directory, transcript = context
            if not transcript_valid(directory, transcript):
                return False
            if group.encode_element(transcript.public_key) != anchor_key:
                return False
            if not verify_output(directory, output, transcript):
                return False
            prev = output.value
        return True


# -- one-call entry ------------------------------------------------------------------


@dataclass
class ChurnReport:
    """A membership run plus its cross-handoff beacon chain."""

    membership: MembershipReport
    outputs: list[BeaconOutput] = field(default_factory=list)
    rounds_per_epoch: int = 0
    all_verified: bool = False

    @property
    def key_invariant(self) -> bool:
        return self.membership.key_invariant

    @property
    def agreed(self) -> bool:
        return self.membership.agreed


def run_churn(
    universe_n: int = 7,
    *,
    epochs: int = 4,
    churn: Optional[str] = None,
    base_members: Optional[Sequence[int]] = None,
    base_f: Optional[int] = None,
    rounds_per_epoch: int = 2,
    transport: str = "sim",
    seed: int = 0,
    timeout: float = 120.0,
    chaos: Optional[dict] = None,
    crash: Optional[dict] = None,
    storage_dir: Optional[str] = None,
) -> ChurnReport:
    """Run a full churn scenario: schedule → handoffs → verified beacon.

    ``churn`` is a :func:`parse_churn` string; ``None`` keeps the
    committee and refreshes the key every epoch.
    """
    universe = TrustedSetup.generate(universe_n, seed=seed)
    schedule = MembershipSchedule.build(
        universe_n,
        epochs,
        () if churn is None else parse_churn(churn),
        base_members=base_members,
        base_f=base_f,
    )
    driver = MembershipDriver(
        universe,
        schedule,
        transport=transport,
        seed=seed,
        timeout=timeout,
        chaos=chaos,
        crash=crash,
        storage_dir=storage_dir,
    )
    membership = driver.run()
    beacon = ChurnBeacon(rounds_per_epoch=rounds_per_epoch)
    for result in membership.results:
        beacon.emit_epoch(
            result.epoch, membership.setups[result.epoch], result.transcript
        )
    all_verified = (
        membership.agreed
        and membership.key_invariant
        and ChurnBeacon.verify_chain(beacon.outputs, membership.contexts)
    )
    return ChurnReport(
        membership=membership,
        outputs=list(beacon.outputs),
        rounds_per_epoch=rounds_per_epoch,
        all_verified=all_verified,
    )
