"""Dynamic membership: committee churn with a proactively reshared key.

The production story the ROADMAP asks for: one group key that *outlives*
any particular committee.  A :class:`MembershipSchedule` describes how a
universe of keyed parties rotates through per-epoch committees (joins,
leaves, threshold changes); :func:`churn_timeline` turns it into a
committee timeline (:mod:`repro.service.timeline`) — a fresh epoch 0,
then one handoff per epoch on the *new* committee's own transport — and
:func:`run_churn` runs it through the one
:class:`~repro.service.timeline.MembershipDriver` loop.

In a handoff the old committee's dealings
(:func:`repro.crypto.reshare.deal_reshare`) are published before it and
injected as initial inputs, so departing parties need not stick around.
Faults compose per stretch: a chaos spec attaches to its transport, a
crash overlay is a :class:`~repro.storage.recovery.CrashPlan` interlude
in its first epoch (the WAL machinery rehydrates a party mid-handoff);
either way the acceptance invariant is the same — **the group public
key is byte-identical before and after every handoff**, which
``RandomnessBeacon.verify_chain(..., handoffs=True)`` checks from public
data alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.crypto.keys import PartySecret, PublicDirectory, TrustedSetup
from repro.service.beacon import BeaconOutput, RandomnessBeacon
from repro.service.timeline import MembershipDriver, MembershipReport, Stretch

__all__ = [
    "ChurnBeacon",
    "ChurnEvent",
    "ChurnReport",
    "EpochSpec",
    "MembershipSchedule",
    "churn_timeline",
    "committee_setup",
    "epoch_setup",
    "handoff_overlays",
    "parse_churn",
    "run_churn",
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
        if type(self.value) is not int or type(self.epoch) is not int:
            raise ValueError(f"churn event {self} needs int value and epoch")
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
        ``n >= 1``, ``f >= 0`` and ``n >= 3f + 1``; a leave-heavy schedule
        needs a ``threshold`` event (or a smaller ``base_f``) to stay
        valid, and the error says so rather than silently adjusting.
        """
        if epochs < 1:
            raise ValueError("need at least one epoch")
        if base_f is not None and type(base_f) is not int:
            raise ValueError(f"base_f must be an int, got {base_f!r}")
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
            if not members or f < 0:
                raise ValueError(
                    f"epoch {epoch}: n={len(members)}, f={f}; a committee "
                    "needs n >= 1 and f >= 0"
                )
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
    changes (directory positions are committee-relative).  The per-epoch
    ``session`` label domain-separates every signature, SCRAPE seed and
    VRF input of the epoch.
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


def epoch_setup(universe: TrustedSetup, seed: int, spec: EpochSpec) -> TrustedSetup:
    """The setup epoch ``spec`` of a seed-``seed`` membership run uses: its
    committee's slice of the universe under that epoch's session label —
    a pure function, so a verifier rebuilds the directory from the row."""
    label = f"{universe.directory.session}-churn-{seed}-epoch-{spec.epoch}"
    return committee_setup(universe, spec.members, spec.f, label)


def handoff_overlays(epochs: int, chaos: Any = None, crash: Any = None) -> dict:
    """One chaos spec and one crash plan (the keywords of a ``CrashPlan``)
    as the ``chaos=`` / ``crash=`` keywords that put them on every handoff
    epoch (epoch 0 is the plain ADKG the overlays cover without a schedule);
    a one-epoch run has none to carry them, so ``ValueError``."""
    given = {"chaos": chaos, "crash": crash}
    given = {name: overlay for name, overlay in given.items() if overlay is not None}
    if given and epochs < 2:
        raise ValueError(f"{' and '.join(given)}: a {epochs}-epoch run has no handoff")
    return {name: dict.fromkeys(range(1, epochs), o) for name, o in given.items()}


def churn_timeline(
    universe: TrustedSetup,
    seed: int,
    schedule: MembershipSchedule,
    chaos: Optional[dict] = None,
    crash: Optional[dict] = None,
) -> list[Stretch]:
    """The stretches of a seed-``seed`` membership run: epoch 0 a fresh
    ADKG, every later epoch a handoff, each on its committee's own
    transport; ``chaos`` / ``crash`` map epochs to overlays.  An overlay
    keyed by an epoch the schedule does not have is a ``ValueError``."""
    chaos, crash = dict(chaos or {}), dict(crash or {})
    unknown = (set(chaos) | set(crash)) - set(range(len(schedule)))
    if unknown:
        raise ValueError(
            f"fault overlays name epochs {sorted(unknown, key=repr)} a "
            f"{len(schedule)}-epoch timeline does not have"
        )
    return [
        Stretch(
            epoch_setup(universe, seed, spec),
            range(spec.epoch, spec.epoch + 1),
            # Distinct per epoch so per-party RNG streams never repeat
            # across the fresh transports of consecutive epochs.
            seed=seed * 1009 + spec.epoch,
            members=spec.members,
            chaos=chaos.get(spec.epoch),
            crash=crash.get(spec.epoch),
        )
        for spec in schedule
    ]


# -- one-call entry ------------------------------------------------------------------


class ChurnBeacon(RandomnessBeacon):
    """The churn beacon's old name: :class:`RandomnessBeacon` under it.

    The body re-exposes both methods so that code wrapping functions per
    owning class (``perf/trace.py``) still finds them here.
    """

    emit_epoch = RandomnessBeacon.emit_epoch
    verify_chain = staticmethod(RandomnessBeacon.verify_chain)


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
    committee and reshares its key every epoch.  ``chaos`` / ``crash``
    map epochs to the chaos spec / ``CrashPlan`` arguments that epoch
    runs under.
    """
    universe = TrustedSetup.generate(universe_n, seed=seed)
    schedule = MembershipSchedule.build(
        universe_n,
        epochs,
        () if churn is None else parse_churn(churn),
        base_members=base_members,
        base_f=base_f,
    )
    membership = MembershipDriver(
        churn_timeline(universe, seed, schedule, chaos, crash),
        transport=transport,
        seed=seed,
        timeout=timeout,
        rounds_per_epoch=rounds_per_epoch,
        storage_dir=storage_dir,
    ).run()
    all_verified = (
        membership.agreed
        and membership.key_invariant
        and RandomnessBeacon.verify_chain(
            membership.outputs, membership.contexts, handoffs=True
        )
    )
    return ChurnReport(
        membership=membership,
        outputs=list(membership.outputs),
        rounds_per_epoch=rounds_per_epoch,
        all_verified=all_verified,
    )
