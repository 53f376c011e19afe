"""Sharded multi-group scale-out: k DKG groups, one randomness service.

Word complexity is O(n³) per group (Theorems 6-10), so this module scales
*out* instead of up: a :class:`GroupCoordinator` partitions a universe of
parties into k independent DKG groups (deterministic seeded assignment,
per-group n/f), every group runs its epoch sessions on a transport of its
own, and a :class:`ShardedBeacon` aggregates the per-group threshold-VRF
streams into one combined randomness output per round.

A :class:`ShardGroup` is one such group: its own
:class:`~repro.crypto.keys.TrustedSetup` (independent key material), the
universe party ids assigned to it, and the seed its parties derive every
RNG stream from.  Groups never exchange a message, so k groups are k
transports, and a group runs what one committee runs — its timeline of
fresh-key epochs, or (``churn``) of reshare handoffs, through the one
:class:`~repro.service.timeline.MembershipDriver` loop, under the
``chaos`` and ``crash`` overlays:

* **seeds** — :func:`group_seed` is a pure function of the universe seed
  and the gid, so :func:`make_shard_group` rebuilds the exact group
  (setup, party RNG labels) from ``(gid, n, f, universe_seed)`` alone —
  no key material goes to a worker;
* **sessions** — group ``g`` owns the session-id block
  ``[g·SESSION_STRIDE, (g+1)·SESSION_STRIDE)``; fresh-key epoch ``e``
  runs as session ``g·SESSION_STRIDE + e``, which feeds every party's
  ``{rng_label}-session-{sid}`` stream and so every PVSS dealing.

Where the groups run is worked out, not chosen: :func:`run_sharded`
runs them inline when the host offers one core (or there is one group),
else in a shared fork pool.  Both paths run the same
:func:`_run_group` task and get its :class:`GroupResult` back, so
per-group totals, group keys and beacon values are **byte-identical**
(``tests/service/test_shards.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence

from repro.crypto.hashing import hash_bytes, hash_to_int
from repro.crypto.keys import PublicDirectory, TrustedSetup
from repro.net.chaos import ChaosSpec
from repro.net.metrics import Metrics
from repro.net.transport import TRANSPORT_KINDS
from repro.service.beacon import BeaconOutput, RandomnessBeacon
from repro.service.epochs import EpochResult
from repro.service.membership import (
    EpochSpec,
    MembershipSchedule,
    churn_timeline,
    epoch_setup,
    handoff_overlays,
    parse_churn,
)
from repro.service.timeline import MembershipDriver, Stretch

__all__ = [
    "SESSION_STRIDE",
    "CombinedOutput",
    "GroupCoordinator",
    "GroupResult",
    "ShardGroup",
    "ShardReport",
    "ShardedBeacon",
    "group_seed",
    "make_shard_group",
    "partition_universe",
    "run_sharded",
    "shutdown_shard_executor",
]

#: Session ids per group: group ``g``'s epoch ``e`` is session
#: ``g * SESSION_STRIDE + e``.  The ids seed the parties' per-session RNG
#: streams, so the keys and beacon values move if this does: treat like a
#: wire constant.
SESSION_STRIDE = 1 << 16


# -- groups --------------------------------------------------------------------------


def group_seed(seed: int, gid: int) -> int:
    """The group's deterministic seed, derived from the universe seed.

    A pure function of ``(seed, gid)`` so the coordinator and the group's
    run, inline or in a worker, land on identical key material and party
    RNG labels.
    """
    return int.from_bytes(hash_bytes("shard-seed", seed, gid)[:6], "big")


@dataclass(frozen=True)
class ShardGroup:
    """One DKG group of a sharded deployment."""

    gid: int
    setup: TrustedSetup = field(repr=False)
    seed: int
    #: Universe party ids assigned to this group; local index ``i`` is
    #: universe member ``members[i]`` (provenance/report data only — the
    #: protocols run on local indices).
    members: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.setup.directory.n

    @property
    def f(self) -> int:
        return self.setup.directory.f

    @property
    def session_base(self) -> int:
        return self.gid * SESSION_STRIDE

    def session_of(self, epoch: int) -> int:
        if not 0 <= epoch < SESSION_STRIDE:
            raise ValueError(f"epoch {epoch} outside the group's session block")
        return self.session_base + epoch


def make_shard_group(
    gid: int,
    n: int,
    f: Optional[int],
    seed: int,
    members: tuple[int, ...] = (),
    params: str = "TESTING",
) -> ShardGroup:
    """Materialize one group from its plain-value description.

    The single constructor: the coordinator and the group's run (inline or
    in a pool worker) both call this, so the same arguments mean the same
    keys and the same RNG labels — the root of the byte-identity
    invariant.
    """
    gseed = group_seed(seed, gid)
    setup = TrustedSetup.generate(
        n, f=f, params=params, seed=gseed, session=f"adkg-shard-{gid}"
    )
    return ShardGroup(gid=gid, setup=setup, seed=gseed, members=tuple(members))


def partition_universe(
    universe: int, groups: int, seed: int
) -> tuple[tuple[int, ...], ...]:
    """Deterministic seeded assignment of universe ids to ``groups`` groups.

    A seeded shuffle sliced into contiguous chunks: every party lands in
    exactly one group, group sizes differ by at most one, and the same
    ``(universe, groups, seed)`` always yields the same assignment — the
    coordinator's membership decision is reproducible from the seed
    alone.
    """
    if groups < 1:
        raise ValueError("need at least one group")
    if universe < groups:
        raise ValueError(f"cannot split {universe} parties into {groups} groups")
    ids = list(range(universe))
    random.Random(f"shard-assign-{seed}").shuffle(ids)
    base, extra = divmod(universe, groups)
    assignment = []
    cursor = 0
    for gid in range(groups):
        size = base + (1 if gid < extra else 0)
        assignment.append(tuple(ids[cursor : cursor + size]))
        cursor += size
    return tuple(assignment)


# -- coordinator ---------------------------------------------------------------------


class GroupCoordinator:
    """Partition a party universe into k groups with keys of their own.

    The membership decision is a pure function of ``(universe, groups,
    seed)`` (seeded shuffle, contiguous chunks, sizes within one of each
    other) and each group's key material a pure function of its gid and
    the universe seed — so a worker sent nothing but the gid, the members
    and the seed reconstructs the identical group.
    """

    def __init__(
        self,
        universe: int,
        groups: int,
        *,
        group_f: Optional[int] = None,
        seed: int = 0,
        params: str = "TESTING",
    ) -> None:
        assignment = partition_universe(universe, groups, seed)
        self.groups: tuple[ShardGroup, ...] = tuple(
            make_shard_group(
                gid, len(members), group_f, seed, members=members, params=params
            )
            for gid, members in enumerate(assignment)
        )

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(group.n for group in self.groups)


# -- results -------------------------------------------------------------------------


@dataclass
class GroupResult:
    """One group's complete run: epochs, beacon stream, namespaced metrics."""

    gid: int
    members: tuple[int, ...]
    epoch_results: list[EpochResult]
    outputs: list[BeaconOutput]
    metrics: Metrics
    #: The group's own run, timed where it ran (inline or in a worker).
    wall_clock_s: float = 0.0

    @property
    def agreed(self) -> bool:
        return bool(self.epoch_results) and all(
            result.agreed for result in self.epoch_results
        )


@dataclass(frozen=True)
class CombinedOutput:
    """One aggregated beacon round across all k groups."""

    epoch: int
    round: int
    #: Per-group VRF beacon values, gid order.
    values: tuple[int, ...]
    #: The service's single randomness output for this round.
    value: int


class ShardedBeacon:
    """Hash-combine k per-group beacon streams into one verified service.

    Every group contributes its chained threshold-VRF value for each
    (epoch, round); the combined output hashes them all, so it is
    unpredictable as long as *any* group's value is (an adversary
    controlling f of every group still biases nothing — per-group VRF
    uniqueness pins each contribution).  Verification recomputes each
    group's chain against its own transcripts plus the combination;
    ``churn``: the chain is one key handed across the committees the
    epoch rows name, not a fresh key per epoch.
    """

    DOMAIN = "sharded-beacon"
    MODULUS = 1 << 128

    def __init__(self, groups: Sequence[ShardGroup], churn: bool = False) -> None:
        self.groups = tuple(groups)
        self.churn = churn

    @classmethod
    def combine_value(
        cls, epoch: int, round_index: int, values: Sequence[int]
    ) -> int:
        return hash_to_int(
            cls.DOMAIN, cls.MODULUS, epoch, round_index, tuple(values)
        )

    @classmethod
    def combine(
        cls, streams: Sequence[Sequence[BeaconOutput]]
    ) -> list[CombinedOutput]:
        """Aggregate aligned per-group streams (gid order) round by round."""
        lengths = {len(outputs) for outputs in streams}
        if len(lengths) != 1:
            raise ValueError(f"misaligned beacon streams: lengths {lengths}")
        combined = []
        for index in range(lengths.pop()):
            rows = [outputs[index] for outputs in streams]
            epoch, round_index = rows[0].epoch, rows[0].round
            if any(
                row.epoch != epoch or row.round != round_index for row in rows
            ):
                raise ValueError(
                    f"misaligned beacon streams at position {index}"
                )
            values = tuple(row.value for row in rows)
            combined.append(
                CombinedOutput(
                    epoch=epoch,
                    round=round_index,
                    values=values,
                    value=cls.combine_value(epoch, round_index, values),
                )
            )
        return combined

    def _chain_verifies(self, group: ShardGroup, result: GroupResult) -> bool:
        # Churned directories are rebuilt from what the rows claim: a
        # committee the epoch did not run with yields one its transcript
        # fails under.
        local = {member: index for index, member in enumerate(group.members)}

        def directory(row: EpochResult) -> PublicDirectory:
            if not self.churn:
                return group.setup.directory
            committee = tuple(local[member] for member in row.committee)
            spec = EpochSpec(row.epoch, committee, row.threshold)
            return epoch_setup(group.setup, group.seed, spec).directory

        try:
            contexts = {
                row.epoch: (directory(row), row.transcript)
                for row in result.epoch_results
            }
        except (KeyError, ValueError):
            return False
        return RandomnessBeacon.verify_chain(
            result.outputs, contexts, handoffs=self.churn
        )

    def verify(
        self,
        group_results: Sequence[GroupResult],
        combined: Sequence[CombinedOutput],
    ) -> bool:
        """Per-group chain verification plus combination recomputation."""
        if len(group_results) != len(self.groups):
            return False
        if not all(map(self._chain_verifies, self.groups, group_results)):
            return False
        try:
            expected = self.combine([result.outputs for result in group_results])
        except ValueError:
            return False
        return list(combined) == expected


# -- one group's run (inline, or a pool worker's task) -------------------------------

#: The Metrics fields a group's config determines, and so the inline-vs-pool
#: differential gate.  Frame and wire accounting are absent: on a realtime
#: transport coalescing follows delivery timing, not the config.
_PROTOCOL_PLANE = (
    "words_total",
    "messages_total",
    "bytes_total",
    "deliveries",
    "max_depth",
    "words_by_layer",
    "messages_by_layer",
    "words_by_type",
    "messages_by_type",
    "bytes_by_type",
)
#: Work counters that are per group (each group has its own directory,
#: hence its own verify cache and pairing group).  The process-global
#: ``encode`` memo is absent: what it already holds differs between an
#: inline run and a fresh worker.
_GROUP_WORK = ("verify", "pairing")


def _run_group(
    gid: int,
    members: tuple[int, ...],
    *,
    f: Optional[int],
    seed: int,
    params: str,
    epochs: int,
    rounds_per_epoch: int,
    transport: str,
    timeout: float,
    schedule: Optional[MembershipSchedule],
    chaos: Optional[ChaosSpec],
    crash: Optional[dict],
) -> GroupResult:
    """Run one group and return its result as a plain value.

    The inline path calls this; the pool is sent it as a
    :func:`functools.partial` and pickles the :class:`GroupResult` back.
    The group is rebuilt from the seed (no key material is sent), and its
    metrics are the protocol plane plus snapshots of the per-group work
    counters, so inline and pooled results compare exactly.
    """
    group = make_shard_group(gid, len(members), f, seed, members=members, params=params)
    started = time.perf_counter()
    if schedule is None:
        # A fresh key every epoch on one transport: chaos over the whole
        # run, the crash in its first epoch.
        stretches = [
            Stretch(
                group.setup,
                range(epochs),
                group.seed,
                session_base=group.session_base,
                chaos=chaos,
                crash=crash,
            )
        ]
    else:
        # One key handed from committee to committee of the group's
        # parties, the overlays on every handoff epoch.
        overlays = handoff_overlays(len(schedule), chaos, crash)
        stretches = churn_timeline(group.setup, group.seed, schedule, **overlays)
    membership = MembershipDriver(
        stretches,
        transport=transport,
        seed=group.seed,
        timeout=timeout,
        rounds_per_epoch=rounds_per_epoch,
    ).run()
    metrics = Metrics.merged(membership.metrics)
    return GroupResult(
        gid=gid,
        members=group.members,
        # A transport knows local indices only; the rows record each
        # epoch's committee as universe members.
        epoch_results=[
            replace(row, committee=tuple(members[local] for local in row.committee))
            for row in membership.results
        ],
        outputs=membership.outputs,
        metrics=Metrics(
            **{name: getattr(metrics, name) for name in _PROTOCOL_PLANE},
            counter_providers={
                name: partial(dict, metrics.counters(name)) for name in _GROUP_WORK
            },
        ),
        wall_clock_s=time.perf_counter() - started,
    )


# -- the pool ------------------------------------------------------------------------

_EXECUTOR: Optional[ProcessPoolExecutor] = None
_EXECUTOR_SIZE = 0
_EXECUTOR_LOCK = threading.Lock()


def _warm() -> bool:
    """No-op task forcing worker forks before event loops/sockets exist."""
    return True


def _get_executor(workers: int) -> ProcessPoolExecutor:
    """The module-wide pool, grown (never shrunk) to ``workers``.

    Fork context where available, shared across runs so repeated runs pay
    the fork cost once, warmed at creation.
    """
    global _EXECUTOR, _EXECUTOR_SIZE
    with _EXECUTOR_LOCK:
        if _EXECUTOR is None or _EXECUTOR_SIZE < workers:
            if _EXECUTOR is not None:
                _EXECUTOR.shutdown(wait=False, cancel_futures=True)
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:
                context = multiprocessing.get_context()
            _EXECUTOR = ProcessPoolExecutor(max_workers=workers, mp_context=context)
            _EXECUTOR_SIZE = workers
            for _ in range(workers):
                _EXECUTOR.submit(_warm)
        return _EXECUTOR


def _discard_executor() -> None:
    global _EXECUTOR, _EXECUTOR_SIZE
    with _EXECUTOR_LOCK:
        if _EXECUTOR is not None:
            _EXECUTOR.shutdown(wait=False, cancel_futures=True)
        _EXECUTOR = None
        _EXECUTOR_SIZE = 0


def shutdown_shard_executor() -> None:
    """Tear down the shared pool (test isolation)."""
    _discard_executor()


def _run_groups(
    tasks: Sequence[Callable[[], GroupResult]], workers: int
) -> tuple[list[GroupResult], bool]:
    """Every group task's result, in task order, and whether the pool broke.

    One worker runs the tasks inline; more submit them to the pool.  A
    broken pool (worker killed mid-run, fork failure) is discarded and the
    batch completes inline: one-after-the-other wall clock, the same
    results, because the inline path runs the very tasks the workers were
    sent.
    """
    if workers > 1:
        try:
            executor = _get_executor(workers)
            futures = [executor.submit(task) for task in tasks]
            return [future.result() for future in futures], False
        except BrokenProcessPool:
            _discard_executor()
    return [task() for task in tasks], workers > 1


# -- the one-call service entry point ------------------------------------------------


@dataclass
class ShardReport:
    """Everything one ``run_sharded`` invocation produced and measured."""

    universe: int
    groups: int
    group_sizes: tuple[int, ...]
    #: Cores the host offered this process when the groups started.
    cores: int
    transport: str
    epochs: int
    rounds_per_epoch: int
    seed: int
    group_results: list[GroupResult] = field(default_factory=list)
    combined: list[CombinedOutput] = field(default_factory=list)
    all_verified: bool = False
    #: Order-independent merge of the per-group namespaced metrics.
    merged: Metrics = field(default_factory=Metrics)
    wall_clock_s: float = 0.0
    #: True when the pool broke and the batch completed inline.
    executor_fallback: bool = False

    @property
    def workers(self) -> int:
        """Group runs in flight at once: 1 ran them inline, more ran them
        in the shared pool."""
        return min(self.groups, self.cores)

    @property
    def agreed(self) -> bool:
        return bool(self.group_results) and all(
            result.agreed for result in self.group_results
        )


def _usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_sharded(
    universe: int = 8,
    groups: int = 2,
    *,
    group_f: Optional[int] = None,
    epochs: int = 1,
    rounds_per_epoch: int = 2,
    transport: str = "sim",
    seed: int = 0,
    params: str = "TESTING",
    timeout: float = 120.0,
    churn: Optional[str] = None,
    chaos: Optional[str] = None,
    crash: Optional[dict] = None,
) -> ShardReport:
    """Run k DKG groups to one combined randomness service.

    Every group runs on a ``transport`` of its own, ``min(groups, usable
    cores)`` at once: one runs them inline one after the other, more in
    the shared fork pool — per-group results are byte-identical either
    way.

    ``churn`` is a :func:`~repro.service.membership.parse_churn` schedule
    every group follows on its local indices (``""``: a proactive refresh;
    ``None``: a fresh key per epoch instead), ``chaos`` a
    :meth:`~repro.net.chaos.ChaosSpec.parse` string, ``crash`` a
    :class:`~repro.storage.recovery.CrashPlan`'s ``indices`` / ``after`` /
    ``delay``.  The overlays cover the whole run (the crash: its first
    epoch) without churn, every handoff epoch with it (DESIGN §12).
    Malformed arguments raise ``ValueError`` before any group starts, the
    crash's ranges when its plan is built.
    """
    if transport not in TRANSPORT_KINDS:
        raise ValueError(f"unknown transport {transport!r}; choose from {TRANSPORT_KINDS}")
    if rounds_per_epoch < 1:
        raise ValueError("rounds_per_epoch must be >= 1")
    if not 1 <= epochs <= SESSION_STRIDE:
        raise ValueError(f"epochs must be in [1, {SESSION_STRIDE}], got {epochs}")
    if not timeout > 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")
    chaos_spec = None if chaos is None else ChaosSpec.parse(chaos)
    if churn is not None:
        handoff_overlays(epochs, chaos_spec, crash)  # refuses what it would drop
    events = parse_churn(churn) if churn else ()
    coordinator = GroupCoordinator(
        universe, groups, group_f=group_f, seed=seed, params=params
    )
    # One schedule per group size, every group on its local indices.
    schedules = {
        n: MembershipSchedule.build(n, epochs, events, base_f=group_f)
        for n in set(coordinator.group_sizes)
        if churn is not None
    }
    tasks = [
        partial(
            _run_group,
            group.gid,
            group.members,
            f=group_f,
            seed=seed,
            params=params,
            epochs=epochs,
            rounds_per_epoch=rounds_per_epoch,
            transport=transport,
            timeout=timeout,
            schedule=schedules.get(group.n),
            chaos=chaos_spec,
            crash=crash,
        )
        for group in coordinator.groups
    ]
    cores = _usable_cores()
    started = time.perf_counter()
    group_results, executor_fallback = _run_groups(tasks, min(groups, cores))
    wall_clock_s = time.perf_counter() - started

    sharded = ShardedBeacon(coordinator.groups, churn=churn is not None)
    combined = sharded.combine([result.outputs for result in group_results])
    all_verified = all(
        result.agreed for result in group_results
    ) and sharded.verify(group_results, combined)

    return ShardReport(
        universe=universe,
        groups=groups,
        group_sizes=coordinator.group_sizes,
        cores=cores,
        transport=transport,
        epochs=epochs,
        rounds_per_epoch=rounds_per_epoch,
        seed=seed,
        group_results=group_results,
        combined=combined,
        all_verified=all_verified,
        merged=Metrics.merged(result.metrics for result in group_results),
        wall_clock_s=wall_clock_s,
        executor_fallback=executor_fallback,
    )
