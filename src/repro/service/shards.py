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
transports, and a group runs what one committee runs — fresh-key epochs
on one transport, or (``churn``) a membership schedule of reshare
handoffs, either under the ``chaos`` and ``crash`` overlays — as a pure
function of its plain-value config tuple
(:meth:`GroupCoordinator.group_config`):

* **seeds** — :func:`group_seed` is a pure function of the universe seed
  and the gid, so :func:`make_shard_group` rebuilds the exact group
  (setup, party RNG labels) from ``(gid, n, f, universe_seed)`` alone —
  config in as plain values, no key material crossing a process boundary;
* **sessions** — group ``g`` owns the session-id block
  ``[g·SESSION_STRIDE, (g+1)·SESSION_STRIDE)``; epoch ``e`` runs as
  session ``g·SESSION_STRIDE + e``, which feeds every party's
  ``{rng_label}-session-{sid}`` stream and so every PVSS dealing.

Where the configs run is worked out, not chosen: :func:`run_sharded`
runs them inline when one worker is all the host offers (or all there
are groups), else in a :class:`ShardExecutor` — a fork-context pool with
a byte-only boundary.  Both paths execute :func:`_run_group_config` on
the same values, so per-group totals, group keys and beacon values are
**byte-identical** (``tests/service/test_shards.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.crypto.hashing import hash_bytes, hash_to_int
from repro.crypto.keys import TrustedSetup
from repro.crypto.pairing import GroupElement
from repro.crypto.params import PRESETS
from repro.crypto.pvss import PVSSTranscript
from repro.crypto.reshare import ReshareTranscript
from repro.net.chaos import ChaosSpec
from repro.net.metrics import Metrics
from repro.net.transport import TRANSPORT_KINDS, make_run_transport
from repro.service.beacon import BeaconOutput, RandomnessBeacon
from repro.service.epochs import EpochDriver, EpochResult, adkg_root
from repro.service.membership import (
    ChurnBeacon,
    EpochSpec,
    MembershipDriver,
    MembershipSchedule,
    epoch_setup,
    handoff_overlays,
    parse_churn,
)
from repro.storage.recovery import CrashPlan

__all__ = [
    "SESSION_STRIDE",
    "CombinedOutput",
    "GroupCoordinator",
    "GroupResult",
    "ShardExecutor",
    "ShardGroup",
    "ShardReport",
    "ShardedBeacon",
    "group_seed",
    "make_shard_group",
    "partition_universe",
    "run_sharded",
    "shutdown_shard_executor",
]

#: Wire tag + version of the worker config/result tuples.  The process
#: boundary carries only plain codec values, so shape changes must bump
#: the version (a worker from a stale fork would otherwise misparse).
_CONFIG_TAG = "shard-run"
_RESULT_TAG = "shard-result"
#: v3: configs carry the churn / chaos / crash overlays.
_WIRE_VERSION = 3

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
        churn: Optional[str] = None,
        chaos: Optional[str] = None,
        crash: Optional[dict] = None,
    ) -> tuple:
        """The plain-value description a worker rebuilds the group from.

        Deliberately contains no key material: the worker re-derives the
        setup from ``(gid, n, f, universe seed)`` via
        :func:`make_shard_group`, which is exactly how this coordinator
        built it (``f`` as asked for: ``None``, each committee's optimum).
        The overlays are :func:`run_sharded`'s, as plain values.
        """
        return (
            _CONFIG_TAG,
            _WIRE_VERSION,
            group.gid,
            group.n,
            self.group_f,
            self.seed,
            group.members,
            epochs,
            rounds_per_epoch,
            self.params,
            transport,
            timeout,
            churn,
            chaos,
            crash,
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
        if not self.churn:
            return RandomnessBeacon(group.setup).verify_chain(
                result.outputs, {r.epoch: r.transcript for r in result.epoch_results}
            )
        # Directories rebuilt from what the rows claim: a committee the
        # epoch did not run with yields one its transcript fails under.
        local = {member: index for index, member in enumerate(group.members)}
        try:
            contexts = {
                row.epoch: (
                    epoch_setup(
                        group.setup,
                        group.seed,
                        EpochSpec(
                            row.epoch,
                            tuple(local[member] for member in row.committee),
                            row.threshold,
                        ),
                    ).directory,
                    row.transcript,
                )
                for row in result.epoch_results
            }
        except (KeyError, ValueError):
            return False
        return ChurnBeacon.verify_chain(result.outputs, contexts)

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


def _crash_ok(crash: Any, n: int) -> bool:
    """A :class:`CrashPlan`'s ``indices`` / ``after`` / ``delay`` keywords
    (a finite delay: a crashed party comes back)."""
    if not isinstance(crash, dict) or set(crash) != {"indices", "after", "delay"}:
        return False
    indices, delay = crash["indices"], crash["delay"]
    return (
        isinstance(indices, tuple)
        and bool(indices)
        and all(_int_from(index, 0) and index < n for index in indices)
        and _int_from(crash["after"], 0)
        and _real(delay)
        and 0 <= delay < float("inf")
    )


def _run_group_config(config: tuple) -> tuple:
    """Run one group from its plain-value config; plain-value result.

    This is the entire worker body — and the inline path calls it on the
    same tuples, so both sides of the process boundary execute literally
    the same function on literally the same values.  The tuple arrives
    from outside the process: every field is type-checked before use.
    """
    if (
        not isinstance(config, tuple)
        or len(config) != 15
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
        churn,
        chaos,
        crash,
    ) = config
    if not (
        _int_from(gid, 0)
        and _int_from(n, 1)
        and (f is None or (_int_from(f, 0) and 3 * f < n))
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
        and (churn is None or isinstance(churn, str))
        and (chaos is None or isinstance(chaos, str))
        and (crash is None or _crash_ok(crash, n))
    ):
        raise ValueError(f"malformed shard config: {config!r}")
    try:
        if chaos is not None:
            chaos = ChaosSpec.parse(chaos)
        schedule = None
        if churn is not None:
            schedule = MembershipSchedule.build(
                n, epochs, parse_churn(churn) if churn else (), base_f=f
            )
    except ValueError as error:
        raise ValueError(f"malformed shard config: {error}") from None
    group = make_shard_group(gid, n, f, seed, members=members, params=params)
    started = time.perf_counter()
    if schedule is None:
        ran = _run_fresh_keys(
            group, epochs, rounds_per_epoch, transport, timeout, chaos, crash
        )
    else:
        ran = _run_handoffs(
            group, schedule, rounds_per_epoch, transport, timeout, chaos, crash
        )
    return _raw_result(group, *ran, time.perf_counter() - started)


def _run_fresh_keys(
    group: ShardGroup,
    epochs: int,
    rounds_per_epoch: int,
    transport: str,
    timeout: float,
    chaos: Optional[ChaosSpec],
    crash: Optional[dict],
) -> tuple:
    """A fresh key every epoch, all on one transport (``chaos`` on it for
    the whole run, ``crash`` in the first epoch): epochs, beacon, metrics."""
    runtime = make_run_transport(transport, group.setup, seed=group.seed, chaos=chaos)
    plan: Any = nullcontext()
    if crash is not None:
        plan = CrashPlan(runtime, adkg_root, timeout=timeout, **crash)
    with plan as interlude:
        epoch_results = EpochDriver(
            runtime,
            epochs=epochs,
            timeout=timeout,
            session_base=group.session_base,
            interludes={0: interlude},
        ).run()
        # Drain the stragglers in flight when the last session completed
        # (the simulator; realtime close() cancelled them): delivery counts
        # become a function of the traffic, not of where the wait halted.
        runtime.block_on(runtime.drain())
    beacon = RandomnessBeacon(group.setup, rounds_per_epoch=rounds_per_epoch)
    for result in epoch_results:
        beacon.emit_epoch(result.epoch, result.transcript)
    return epoch_results, beacon.outputs, runtime.metrics


def _run_handoffs(
    group: ShardGroup,
    schedule: MembershipSchedule,
    rounds_per_epoch: int,
    transport: str,
    timeout: float,
    chaos: Optional[ChaosSpec],
    crash: Optional[dict],
) -> tuple:
    """One key handed from committee to committee of the group's parties;
    the overlays apply to the handoff epochs, as ``repro run --reshare
    --chaos`` always had it."""
    # One pairing group serves every committee's directory: its calls are
    # read once over the whole run, not summed per epoch transport.
    pair_group = group.setup.directory.pair_group
    pair_base = pair_group.pair_calls
    membership = MembershipDriver(
        group.setup,
        schedule,
        transport=transport,
        seed=group.seed,
        timeout=timeout,
        **handoff_overlays(len(schedule), chaos, crash),
    ).run()
    beacon = ChurnBeacon(rounds_per_epoch=rounds_per_epoch)
    for result in membership.results:
        beacon.emit_epoch(
            result.epoch, membership.setups[result.epoch], result.transcript
        )
    metrics = Metrics.merged(membership.metrics)
    metrics.attach_counters(
        "pairing", lambda: {"pair_calls": pair_group.pair_calls - pair_base}
    )
    return membership.results, beacon.outputs, metrics


def _raw_result(
    group: ShardGroup,
    epoch_results: Sequence[EpochResult],
    outputs: Sequence[BeaconOutput],
    metrics: Metrics,
    wall: float,
) -> tuple:
    """One group's run — epochs, its beacon stream, metrics view — as the
    plain values that cross the process boundary (and that every
    :class:`GroupResult` is rebuilt from, so inline and pooled runs
    compare exactly).  A transport knows local indices only; the rows
    record each epoch's committee as universe members."""
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
                tuple(group.members[local] for local in result.committee),
                result.threshold,
            )
            for result in epoch_results
        ),
        tuple(
            (output.epoch, output.round, output.prev, output.value, output.evaluation)
            for output in outputs
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
        and isinstance(transcript, (PVSSTranscript, ReshareTranscript))
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
    churn: Optional[str] = None,
    chaos: Optional[str] = None,
    crash: Optional[dict] = None,
) -> ShardReport:
    """Run k DKG groups to one combined randomness service.

    Every group runs on a ``transport`` of its own.  ``workers`` is how
    many run at once: ``None`` resolves to ``min(groups, usable cores)``;
    1 runs them inline one after the other, more in a
    :class:`ShardExecutor` pool — per-group results are byte-identical
    either way.

    ``churn`` is a :func:`~repro.service.membership.parse_churn` schedule
    every group follows on its local indices (``""``: a proactive refresh;
    ``None``: a fresh key per epoch instead), ``chaos`` a
    :meth:`~repro.net.chaos.ChaosSpec.parse` string, ``crash`` a
    :class:`~repro.storage.recovery.CrashPlan`'s ``indices`` / ``after`` /
    ``delay``.  The overlays cover the whole run (the crash: its first
    epoch) without churn, every handoff epoch with it (DESIGN §12).
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
            churn=churn,
            chaos=chaos,
            crash=crash,
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

    sharded = ShardedBeacon(coordinator.groups, churn=churn is not None)
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
