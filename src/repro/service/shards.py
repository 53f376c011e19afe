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
transports, and a group's run is a pure function of its plain-value
config tuple (:meth:`GroupCoordinator.group_config`):

* **seeds** — :func:`group_seed` is a pure function of the universe seed
  and the gid, so :func:`make_shard_group` rebuilds the exact group
  (setup, party RNG labels) from ``(gid, n, f, universe_seed)`` alone —
  config in as plain values, no key material crossing a process boundary;
* **sessions** — group ``g`` owns the session-id block
  ``[g·SESSION_STRIDE, (g+1)·SESSION_STRIDE)``; epoch ``e`` runs as
  session ``g·SESSION_STRIDE + e``, which feeds every party's
  ``{rng_label}-session-{sid}`` stream and so every PVSS dealing.

Where the configs run is worked out, not chosen: :func:`run_sharded`
runs them inline, one after the other, when one worker is all the host
offers (or all there are groups), else in a :class:`ShardExecutor` — a
fork-context pool with a byte-only boundary: codec-encoded group configs
in, codec-encoded results/metrics out, inline fallback on a broken pool.
Both paths execute :func:`_run_group_config` on the same values, so the
per-group protocol word/byte totals, verify-counter deltas, group keys
and beacon values are **byte-identical** — the differential gate
``tests/service/test_shards.py`` pins against recorded literals.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.crypto.hashing import hash_bytes, hash_to_int
from repro.crypto.keys import TrustedSetup
from repro.crypto.pairing import GroupElement
from repro.crypto.params import PRESETS
from repro.crypto.pvss import PVSSTranscript
from repro.net.metrics import Metrics
from repro.net.transport import TRANSPORT_KINDS, make_run_transport
from repro.service.beacon import BeaconOutput, RandomnessBeacon
from repro.service.epochs import EpochDriver, EpochResult

__all__ = [
    "SESSION_STRIDE",
    "CombinedOutput",
    "GroupCoordinator",
    "GroupResult",
    "ShardChurnReport",
    "ShardExecutor",
    "ShardGroup",
    "ShardReport",
    "ShardedBeacon",
    "group_seed",
    "make_shard_group",
    "partition_universe",
    "run_sharded",
    "run_sharded_churn",
    "shutdown_shard_executor",
]

#: Wire tag + version of the worker config/result tuples.  The process
#: boundary carries only plain codec values, so shape changes must bump
#: the version (a worker from a stale fork would otherwise misparse).
_CONFIG_TAG = "shard-run"
_RESULT_TAG = "shard-result"
#: v2: epoch rows carry the committee member tuple + threshold.
_WIRE_VERSION = 2

#: Session ids per group: group ``g``'s epoch ``e`` is session
#: ``g * SESSION_STRIDE + e``.  The ids seed the parties' per-session RNG
#: streams, so the keys and beacon values move if this does: treat like a
#: wire constant.
SESSION_STRIDE = 1 << 16


# -- groups --------------------------------------------------------------------------


def group_seed(seed: int, gid: int) -> int:
    """The group's deterministic seed, derived from the universe seed.

    A pure function of ``(seed, gid)`` so the coordinator — and a worker
    process rebuilding the group from its config tuple — land on
    identical key material and party RNG labels.
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

    The single constructor: the coordinator and the group runner (inline
    or in a shard-executor worker) both call this, so "same config tuple"
    implies "same keys, same RNG labels" — the root of the byte-identity
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
    """Partition a party universe into k groups and describe their runs.

    The membership decision is a pure function of ``(universe, groups,
    seed)`` (seeded shuffle, contiguous chunks, sizes within one of each
    other) and each group's key material a pure function of its gid and
    the universe seed — so a worker process holding nothing but a config
    tuple reconstructs the identical group.
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
        self.universe = universe
        self.seed = seed
        self.params = params
        self.group_f = group_f
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

    def group_config(
        self,
        group: ShardGroup,
        *,
        epochs: int,
        rounds_per_epoch: int,
        transport: str,
        timeout: float,
    ) -> tuple:
        """The plain-value description a worker rebuilds the group from.

        Deliberately contains no key material: the worker re-derives the
        setup from ``(gid, n, f, universe seed)`` via
        :func:`make_shard_group`, which is exactly how this coordinator
        built it.
        """
        return (
            _CONFIG_TAG,
            _WIRE_VERSION,
            group.gid,
            group.n,
            group.f,
            self.seed,
            group.members,
            epochs,
            rounds_per_epoch,
            self.params,
            transport,
            timeout,
        )


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
    def transcripts(self) -> dict[int, Any]:
        return {result.epoch: result.transcript for result in self.epoch_results}

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
    group's chain against its own transcripts plus the combination.
    """

    DOMAIN = "sharded-beacon"
    MODULUS = 1 << 128

    def __init__(self, groups: Sequence[ShardGroup]) -> None:
        self.groups = tuple(groups)

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

    def verify(
        self,
        group_results: Sequence[GroupResult],
        combined: Sequence[CombinedOutput],
    ) -> bool:
        """Per-group chain verification plus combination recomputation."""
        if len(group_results) != len(self.groups):
            return False
        for group, result in zip(self.groups, group_results):
            beacon = RandomnessBeacon(group.setup)
            if not beacon.verify_chain(result.outputs, result.transcripts):
                return False
        try:
            expected = self.combine([result.outputs for result in group_results])
        except ValueError:
            return False
        return list(combined) == expected

    @classmethod
    def verify_chain(
        cls,
        group_runs: Sequence[tuple],
        combined: Sequence[CombinedOutput],
    ) -> bool:
        """Verify combined randomness across per-group *committee churn*.

        ``group_runs`` is one ``(outputs, contexts)`` pair per group in
        gid order — a group's chained beacon stream plus its per-epoch
        ``{epoch: (directory, transcript)}`` contexts, exactly what a
        :class:`~repro.service.membership.MembershipReport` exposes.
        Each group's chain is verified across its own handoffs (key
        invariance included) by
        :meth:`~repro.service.membership.ChurnBeacon.verify_chain`, then
        the combination is recomputed round by round.
        """
        from repro.service.membership import ChurnBeacon

        for outputs, contexts in group_runs:
            if not ChurnBeacon.verify_chain(outputs, contexts):
                return False
        try:
            expected = cls.combine([outputs for outputs, _ in group_runs])
        except ValueError:
            return False
        return list(combined) == expected


# -- the metrics boundary ------------------------------------------------------------

#: Protocol-plane Metrics fields that are a function of the config alone
#: (and therefore the inline-vs-pool differential gate).  Frame/wire
#: accounting is deliberately absent: on a realtime transport coalescing
#: follows delivery timing, not the config.
_VIEW_SCALARS = (
    "words_total",
    "messages_total",
    "bytes_total",
    "deliveries",
    "max_depth",
)
_VIEW_COUNTERS = (
    "words_by_layer",
    "messages_by_layer",
    "words_by_type",
    "messages_by_type",
    "bytes_by_type",
)
#: Work-counter views that are per-group (each group has its own
#: directory, hence its own verify cache and pairing group).  The
#: process-global ``encode`` memo is excluded: what it already holds
#: differs between an inline run and a fresh worker.
_VIEW_WORK = ("verify", "pairing")


def _metrics_view(metrics: Metrics) -> dict:
    """A Metrics' config-determined protocol plane as plain codec values."""
    view: dict[str, Any] = {name: getattr(metrics, name) for name in _VIEW_SCALARS}
    for name in _VIEW_COUNTERS:
        view[name] = dict(getattr(metrics, name))
    view["work"] = {name: metrics.counters(name) for name in _VIEW_WORK}
    return view


def _metrics_from_view(view: dict) -> Metrics:
    """Rebuild a group's Metrics from its plain-value view.

    Inline and pooled runs both pass through this (the worker's result
    crosses the process boundary as a view; an inline run is normalized
    through the same function), so ``GroupResult.metrics`` compares
    exactly across the two.
    """
    metrics = Metrics()
    for name in _VIEW_SCALARS:
        setattr(metrics, name, view[name])
    for name in _VIEW_COUNTERS:
        getattr(metrics, name).update(view[name])
    for name, counters in view["work"].items():
        metrics.attach_counters(name, lambda snap=dict(counters): dict(snap))
    return metrics


# -- one group's run (inline, or the worker body) ------------------------------------


def _int_from(value: Any, low: int) -> bool:
    """A genuine int (``True`` is not one) no smaller than ``low``."""
    return type(value) is int and value >= low


def _real(value: Any) -> bool:
    return type(value) in (int, float)


def _run_group_config(config: tuple) -> tuple:
    """Run one group from its plain-value config; plain-value result.

    This is the entire worker body — and the inline path calls it on the
    same tuples, so both sides of the process boundary execute literally
    the same function on literally the same values.  The tuple arrives
    from outside the process: every field is type-checked before use.
    """
    if (
        not isinstance(config, tuple)
        or len(config) != 12
        or config[0] != _CONFIG_TAG
        or config[1] != _WIRE_VERSION
    ):
        raise ValueError(f"malformed shard config: {config!r}")
    (
        _tag,
        _version,
        gid,
        n,
        f,
        seed,
        members,
        epochs,
        rounds_per_epoch,
        params,
        transport,
        timeout,
    ) = config
    if not (
        _int_from(gid, 0)
        and _int_from(n, 1)
        and _int_from(f, 0)
        and 3 * f < n
        and type(seed) is int
        and isinstance(members, tuple)
        and len(members) == n
        and all(_int_from(member, 0) for member in members)
        and _int_from(epochs, 1)
        and epochs <= SESSION_STRIDE
        and _int_from(rounds_per_epoch, 1)
        and isinstance(params, str)
        and params.upper() in PRESETS
        and transport in TRANSPORT_KINDS
        and _real(timeout)
        and timeout > 0
    ):
        raise ValueError(f"malformed shard config: {config!r}")
    group = make_shard_group(gid, n, f, seed, members=members, params=params)
    runtime = make_run_transport(transport, group.setup, seed=group.seed)
    driver = EpochDriver(
        runtime, epochs=epochs, timeout=timeout, session_base=group.session_base
    )
    started = time.perf_counter()
    epoch_results = driver.run()
    # Drain the stragglers in flight when the last session completed (the
    # simulator; realtime close() cancelled them): delivery counts become
    # a function of the traffic, not of where the wait halted.
    runtime.block_on(runtime.drain())
    wall = time.perf_counter() - started
    return _raw_result(group, epoch_results, runtime.metrics, rounds_per_epoch, wall)


def _raw_result(
    group: ShardGroup,
    epoch_results: Sequence[EpochResult],
    metrics: Metrics,
    rounds_per_epoch: int,
    wall: float,
) -> tuple:
    """One group's run — epochs, its beacon stream, metrics view — as the
    plain values that cross the process boundary (and that every
    :class:`GroupResult` is rebuilt from, so inline and pooled runs
    compare exactly).  The transport knows local indices only; the rows
    record the group's universe members and threshold."""
    beacon = RandomnessBeacon(group.setup, rounds_per_epoch=rounds_per_epoch)
    for result in epoch_results:
        beacon.emit_epoch(result.epoch, result.transcript)
    return (
        _RESULT_TAG,
        _WIRE_VERSION,
        group.gid,
        tuple(
            (
                result.epoch,
                result.session,
                result.transcript,
                result.outputs,
                result.started_at,
                result.completed_at,
                group.members,
                group.f,
            )
            for result in epoch_results
        ),
        tuple(
            (output.epoch, output.round, output.prev, output.value, output.evaluation)
            for output in beacon.outputs
        ),
        _metrics_view(metrics),
        wall,
    )


def _counts(value: Any) -> bool:
    return isinstance(value, dict) and all(
        type(key) is str and type(count) is int for key, count in value.items()
    )


def _epoch_row_ok(row: Any) -> bool:
    if not isinstance(row, tuple) or len(row) != 8:
        return False
    epoch, session, transcript, outputs, started, completed, committee, f = row
    return (
        _int_from(epoch, 0)
        and _int_from(session, 0)
        and isinstance(transcript, PVSSTranscript)
        and isinstance(outputs, dict)
        and all(_int_from(party, 0) for party in outputs)
        and _real(started)
        and _real(completed)
        and isinstance(committee, tuple)
        and all(_int_from(member, 0) for member in committee)
        and _int_from(f, 0)
    )


def _output_row_ok(row: Any) -> bool:
    if not isinstance(row, tuple) or len(row) != 5:
        return False
    epoch, rnd, prev, value, evaluation = row
    return (
        _int_from(epoch, 0)
        and _int_from(rnd, 0)
        and _int_from(prev, 0)
        and _int_from(value, 0)
        and isinstance(evaluation, GroupElement)
    )


def _view_ok(view: Any) -> bool:
    return (
        isinstance(view, dict)
        and all(_int_from(view.get(name), 0) for name in _VIEW_SCALARS)
        and all(_counts(view.get(name)) for name in _VIEW_COUNTERS)
        and isinstance(view.get("work"), dict)
        and all(
            type(name) is str and _counts(counters)
            for name, counters in view["work"].items()
        )
    )


def _group_result_from_raw(group: ShardGroup, raw: tuple) -> GroupResult:
    """Rehydrate a group run's plain-value result into a GroupResult.

    The tuple may have crossed the process boundary: every field is
    type-checked before use.
    """
    if (
        not isinstance(raw, tuple)
        or len(raw) != 7
        or raw[0] != _RESULT_TAG
        or raw[1] != _WIRE_VERSION
        or raw[2] != group.gid
    ):
        raise ValueError(f"malformed shard result for group {group.gid}")
    _tag, _version, _gid, epoch_rows, output_rows, view, wall = raw
    if not (
        isinstance(epoch_rows, tuple)
        and all(_epoch_row_ok(row) for row in epoch_rows)
        and isinstance(output_rows, tuple)
        and all(_output_row_ok(row) for row in output_rows)
        and _view_ok(view)
        and _real(wall)
    ):
        raise ValueError(f"malformed shard result for group {group.gid}")
    epoch_results = [
        EpochResult(
            epoch=epoch,
            session=session,
            transcript=transcript,
            outputs=outputs,
            started_at=started_at,
            completed_at=completed_at,
            committee=committee,
            threshold=threshold,
        )
        for (
            epoch,
            session,
            transcript,
            outputs,
            started_at,
            completed_at,
            committee,
            threshold,
        ) in epoch_rows
    ]
    outputs = [
        BeaconOutput(
            epoch=epoch, round=rnd, prev=prev, value=value, evaluation=evaluation
        )
        for epoch, rnd, prev, value, evaluation in output_rows
    ]
    return GroupResult(
        gid=group.gid,
        members=group.members,
        epoch_results=epoch_results,
        outputs=outputs,
        metrics=_metrics_from_view(view),
        wall_clock_s=wall,
    )


# -- the process-per-shard executor --------------------------------------------------

_EXECUTOR: Optional[ProcessPoolExecutor] = None
_EXECUTOR_SIZE = 0
_EXECUTOR_LOCK = threading.Lock()


def _warm() -> bool:
    """No-op task forcing worker forks before event loops/sockets exist."""
    return True


def _get_executor(workers: int) -> ProcessPoolExecutor:
    """The module-wide shard executor, grown (never shrunk) to ``workers``.

    Fork context where available, shared across :class:`ShardExecutor`
    instances so repeated runs pay the fork cost once, warmed at creation.
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
    """Tear down the shared shard executor (test isolation)."""
    _discard_executor()


def _shard_worker(blob: bytes) -> bytes:
    """Worker entry: codec-encoded config in, codec-encoded result out.

    Bytes are the only thing crossing the boundary in either direction:
    no live objects, no key material (the worker re-derives the group
    from the seed).
    """
    from repro.net import codec

    return codec.encode(_run_group_config(codec.decode(blob)))


class ShardExecutor:
    """Run group configs in worker processes, one group per task.

    A broken pool (worker killed mid-run, fork failure) marks the
    instance ``broken``, discards the shared executor and completes the
    batch inline — degraded to one-after-the-other wall clock,
    byte-identical results (the inline path decodes the very blobs the workers would
    have received, so even the codec round-trip is shared).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("ShardExecutor needs at least one worker")
        self.workers = workers
        self.broken = False
        _get_executor(workers)  # pre-fork before any event loop exists

    def run(self, configs: Sequence[tuple]) -> list[tuple]:
        """Execute every config; results in config order."""
        from repro.net import codec

        blobs = [codec.encode(config) for config in configs]
        if not self.broken:
            try:
                executor = _get_executor(self.workers)
                futures = [executor.submit(_shard_worker, blob) for blob in blobs]
                return [codec.decode(future.result()) for future in futures]
            except BrokenProcessPool:
                self.broken = True
                _discard_executor()
        return [_run_group_config(codec.decode(blob)) for blob in blobs]


# -- the one-call service entry point ------------------------------------------------


@dataclass
class ShardReport:
    """Everything one ``run_sharded`` invocation produced and measured."""

    universe: int
    groups: int
    group_sizes: tuple[int, ...]
    #: Group runs in flight at once, as resolved: 1 ran them inline, more
    #: ran them in a :class:`ShardExecutor` pool of that size.
    workers: int
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
    def mode(self) -> str:
        """Where the groups ran: ``"sequential"`` inline, ``"process"`` pooled."""
        return "sequential" if self.workers == 1 else "process"

    @property
    def agreed(self) -> bool:
        return bool(self.group_results) and all(
            result.agreed for result in self.group_results
        )

    def summary(self) -> dict:
        return {
            "universe": self.universe,
            "groups": self.groups,
            "group_sizes": list(self.group_sizes),
            "mode": self.mode,
            "transport": self.transport,
            "epochs": self.epochs,
            "rounds": len(self.combined),
            "all_verified": self.all_verified,
            "wall_clock_s": round(self.wall_clock_s, 3),
            "words_total": self.merged.words_total,
            "messages_total": self.merged.messages_total,
            "bytes_total": self.merged.bytes_total,
            "per_group_words": [
                result.metrics.words_total for result in self.group_results
            ],
            "combined_values": [output.value for output in self.combined],
            "executor_fallback": self.executor_fallback,
        }


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
    workers: Optional[int] = None,
) -> ShardReport:
    """Run k DKG groups to one combined randomness service.

    Every group runs on a ``transport`` of its own.  ``workers`` is how
    many run at once: ``None`` resolves to ``min(groups, usable cores)``;
    1 runs them inline one after the other, more in a
    :class:`ShardExecutor` pool — per-group results are byte-identical
    either way.
    """
    coordinator = GroupCoordinator(
        universe, groups, group_f=group_f, seed=seed, params=params
    )
    if workers is None:
        workers = min(len(coordinator.groups), _usable_cores())
    configs = [
        coordinator.group_config(
            group,
            epochs=epochs,
            rounds_per_epoch=rounds_per_epoch,
            transport=transport,
            timeout=timeout,
        )
        for group in coordinator.groups
    ]
    executor_fallback = False
    started = time.perf_counter()
    if workers == 1:
        raws = [_run_group_config(config) for config in configs]
    else:
        executor = ShardExecutor(workers)
        raws = executor.run(configs)
        executor_fallback = executor.broken
    group_results = [
        _group_result_from_raw(group, raw)
        for group, raw in zip(coordinator.groups, raws)
    ]
    wall_clock_s = time.perf_counter() - started

    sharded = ShardedBeacon(coordinator.groups)
    combined = sharded.combine([result.outputs for result in group_results])
    all_verified = all(
        result.agreed for result in group_results
    ) and sharded.verify(group_results, combined)

    return ShardReport(
        universe=universe,
        groups=groups,
        group_sizes=coordinator.group_sizes,
        workers=workers,
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


# -- sharded churn: per-group handoffs, one combined chain ---------------------------


@dataclass
class ShardChurnReport:
    """k groups, each surviving committee churn, one combined beacon."""

    universe: int
    groups: int
    transport: str
    epochs: int
    rounds_per_epoch: int
    seed: int
    #: Universe party ids per group (gid order).
    group_members: tuple[tuple[int, ...], ...] = ()
    #: Per-group churn runs (``repro.service.membership.ChurnReport``).
    group_reports: list = field(default_factory=list)
    combined: list[CombinedOutput] = field(default_factory=list)
    all_verified: bool = False
    wall_clock_s: float = 0.0

    @property
    def key_invariant(self) -> bool:
        return bool(self.group_reports) and all(
            report.key_invariant for report in self.group_reports
        )

    def committees(self, gid: int) -> list[tuple[int, ...]]:
        """Per-epoch committees of group ``gid`` as *universe* party ids."""
        members = self.group_members[gid]
        return [
            tuple(members[local] for local in result.committee)
            for result in self.group_reports[gid].membership.results
        ]


def run_sharded_churn(
    universe: int = 10,
    groups: int = 2,
    *,
    epochs: int = 3,
    churn: Optional[str] = None,
    events: Sequence = (),
    base_f: Optional[int] = None,
    rounds_per_epoch: int = 2,
    transport: str = "sim",
    seed: int = 0,
    params: str = "TESTING",
    timeout: float = 120.0,
    crash: Optional[dict] = None,
    chaos: Optional[dict] = None,
) -> ShardChurnReport:
    """Drive per-group key handoffs: every shard's key survives its churn.

    The universe is partitioned exactly as :func:`run_sharded` partitions
    it; each group then runs the *same* churn schedule on its own local
    indices (``join:2@1`` means "local party 2 of each group joins") so
    group sizes stay aligned and the per-round beacon streams combine.
    ``crash``/``chaos`` overlays apply to every group's matching epoch.
    The combined chain is verified with :meth:`ShardedBeacon.verify_chain`
    — per-group key invariance across handoffs plus combination
    recomputation.
    """
    from repro.service.membership import parse_churn, run_churn

    resolved_events = tuple(events)
    if churn is not None:
        resolved_events += parse_churn(churn)
    assignment = partition_universe(universe, groups, seed)
    started = time.perf_counter()
    group_reports = []
    for gid, members in enumerate(assignment):
        group_reports.append(
            run_churn(
                len(members),
                epochs=epochs,
                events=resolved_events,
                base_f=base_f,
                rounds_per_epoch=rounds_per_epoch,
                transport=transport,
                seed=group_seed(seed, gid),
                params=params,
                session=f"sharded-churn-{gid}",
                timeout=timeout,
                crash=crash,
                chaos=chaos,
            )
        )
    wall_clock_s = time.perf_counter() - started
    combined = ShardedBeacon.combine([report.outputs for report in group_reports])
    group_runs = [
        (report.outputs, report.membership.contexts) for report in group_reports
    ]
    all_verified = all(
        report.all_verified for report in group_reports
    ) and ShardedBeacon.verify_chain(group_runs, combined)
    return ShardChurnReport(
        universe=universe,
        groups=groups,
        transport=transport,
        epochs=epochs,
        rounds_per_epoch=rounds_per_epoch,
        seed=seed,
        group_members=tuple(tuple(members) for members in assignment),
        group_reports=group_reports,
        combined=combined,
        all_verified=all_verified,
        wall_clock_s=wall_clock_s,
    )
