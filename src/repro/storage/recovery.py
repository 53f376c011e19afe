"""In-session crash–recovery: durable recording, rehydration, drivers.

The pieces, bottom-up:

* :class:`DurabilityRecorder` — attaches to any transport as a delivery
  observer and keeps one party's durable state current: every network
  envelope delivered to the party is appended to its write-ahead log,
  and every ``cadence`` deliveries the party is frozen
  (:meth:`~repro.net.party.Party.freeze`), the snapshot saved atomically
  and the WAL compacted.
* :func:`recover_party` — rebuilds a crashed party from the store: a
  pristine party (same constructor args, via
  :meth:`~repro.net.transport.Transport.build_party`) is ``thaw``-ed
  from the snapshot and the WAL is replayed through the normal
  ``deliver()`` path with re-sends suppressed.  In-process the shared
  directory's verify cache is already warm, so replay re-verifies
  nothing it saw before — the warm-start the durability design counts
  on (DESIGN.md section 9).
* :func:`run_crash_recovery` — one crash–recovery scenario end to end on
  any transport: run, crash (detach + state loss) at an adversarially
  chosen per-party delivery count, recover after a delay, reattach, and
  run to agreement.  The simulator variant measures recovery latency in
  simulated rounds; the realtime variants (asyncio, TCP) in seconds.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Any, Callable, Optional, Sequence

from repro.crypto.keys import TrustedSetup
from repro.net.delays import DelayModel, FixedDelay
from repro.net.party import Party
from repro.net.protocol import Protocol
from repro.net.transport import Transport, make_transport
from repro.storage.frames import StorageError
from repro.storage.store import SnapshotStore

__all__ = ["DurabilityRecorder", "recover_party", "run_crash_recovery"]

RootFactory = Callable[[Party], Protocol]


class DurabilityRecorder:
    """Keep one party's snapshot + WAL current on a live transport.

    The recorder observes the shared delivery pipeline, so it works
    unchanged on the simulator, the asyncio runtime and TCP.  Recording
    happens *after* the delivery was fully processed (outbox drained,
    conditions at fixpoint) — exactly the boundary ``freeze()`` requires.
    Call :meth:`checkpoint` once the party's roots are installed (the
    run drivers do, right after ``transport.start``) so a crash before
    the first delivery still finds a snapshot; failing that, the first
    observed delivery forces a genesis checkpoint.
    """

    def __init__(
        self,
        transport: Transport,
        index: int,
        store: SnapshotStore,
        cadence: int = 64,
    ) -> None:
        if cadence < 1:
            raise ValueError("cadence must be >= 1")
        self.transport = transport
        self.index = index
        self.store = store
        self.cadence = cadence
        self.deliveries = 0
        self.checkpoints = 0
        # Resuming over existing durable state (a reopened store): keep
        # WAL sequences monotone past the stored snapshot's absorbed
        # sequence, so fresh records never sort into the skipped prefix.
        loaded = store.load_snapshot(index)
        if loaded is not None:
            store.wal(index).ensure_seq_at_least(loaded[1])
        transport.add_delivery_observer(self._observe)

    def _observe(self, envelope) -> None:
        if envelope.recipient != self.index:
            return
        self.store.wal(self.index).append(envelope)
        self.deliveries += 1
        # The first delivery forces the genesis checkpoint (tracked in
        # memory — no per-delivery disk probe).
        if self.deliveries % self.cadence == 0 or not self.checkpoints:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Freeze the party now; save atomically; compact the WAL."""
        blob = self.transport.parties[self.index].freeze()
        self.store.save_snapshot(
            self.index, blob, wal_seq=self.store.wal(self.index).last_seq
        )
        self.checkpoints += 1

    def detach(self) -> None:
        """Stop observing (the store stays usable for recovery)."""
        self.transport.remove_delivery_observer(self._observe)


def recover_party(
    transport: Transport,
    index: int,
    store: SnapshotStore,
    root_factory: RootFactory,
) -> tuple[Party, dict[str, Any]]:
    """Rehydrate a crashed party from its snapshot + WAL.

    Returns the thawed party (not yet reattached) and recovery
    statistics: ``wal_records``, ``suppressed_sends`` (duplicate sends
    the replay swallowed), ``thaw_seconds`` (rebuilding the party from
    the snapshot blob), ``replay_seconds`` (reading the WAL back and
    pushing it through the party) and ``replay_per_second`` — records
    over the replay interval alone, the thaw excluded.
    """
    loaded = store.load_snapshot(index)
    if loaded is None:
        raise StorageError(f"no snapshot on disk for party {index}")
    blob, absorbed_seq = loaded
    party = transport.build_party(index)
    started = time.perf_counter()
    party.thaw(blob, root_factory=root_factory)
    thawed = time.perf_counter()
    # Skip the absorbed prefix: records at or below the snapshot's
    # sequence survive only when a crash landed between snapshot rename
    # and WAL truncation, and replaying them would double-apply.
    records = [
        envelope
        for seq, envelope in store.wal(index).replay()
        if seq > absorbed_seq
    ]
    replayed = party.replay(records)
    finished = time.perf_counter()
    replay_seconds = finished - thawed
    return party, {
        "wal_records": len(records),
        "suppressed_sends": replayed["suppressed"],
        "thaw_seconds": thawed - started,
        "replay_seconds": replay_seconds,
        "replay_per_second": (
            len(records) / replay_seconds if replay_seconds > 0 else 0.0
        ),
    }


def run_crash_recovery(
    *,
    transport: str = "sim",
    n: int = 4,
    seed: int = 1,
    crash_indices: Sequence[int] = (0,),
    crash_after: int = 40,
    recovery_delay: float = 5.0,
    cadence: int = 16,
    root_factory: Optional[RootFactory] = None,
    behaviors: Optional[dict] = None,
    scheduler: Any = None,
    delay_model: Optional[DelayModel] = None,
    setup: Optional[TrustedSetup] = None,
    storage_dir: Optional[Path | str] = None,
    batching: bool = True,
    fsync: bool = False,
    timeout: float = 120.0,
    max_steps: int = 5_000_000,
    chaos: Any = None,
) -> dict[str, Any]:
    """One full crash–recovery scenario on the chosen transport.

    Every party in ``crash_indices`` runs with a
    :class:`DurabilityRecorder` (snapshot every ``cadence`` deliveries).
    When the first of them has processed ``crash_after`` network
    deliveries, all of them crash *simultaneously*: the transport
    detaches them (in-flight traffic parks, as a reconnecting link's
    send queue would) and their in-memory state is abandoned.  After
    ``recovery_delay`` — simulated rounds on ``sim``, seconds on the
    realtime transports — each is rehydrated from disk via
    :func:`recover_party`, reattached, and the run is driven to
    all-honest agreement.

    Returns a report dict with agreement/validity, the group public key,
    per-party replay statistics and the recovery latency (time from
    reattach to all-honest completion, in the transport's time unit).
    """
    if root_factory is None:
        from repro.core.adkg import ADKG

        root_factory = lambda party: ADKG()  # noqa: E731
    crash_indices = list(dict.fromkeys(crash_indices))
    if not crash_indices:
        raise ValueError("crash_indices must name at least one party")
    out_of_range = [index for index in crash_indices if not 0 <= index < n]
    if out_of_range:
        raise ValueError(
            f"crash indices {out_of_range} out of range for n={n}"
        )
    setup = setup or TrustedSetup.generate(n, seed=seed)
    kwargs: dict[str, Any] = {"batching": batching}
    if chaos is not None:
        # Chaos overlays compose with crash-recovery on every runtime:
        # the fault plane sits at the shared delivery seam, the recorder
        # behind it, so WAL contents reflect what was actually delivered.
        kwargs["chaos"] = chaos
    if transport == "sim":
        kwargs["delay_model"] = delay_model or FixedDelay(1.0)
        kwargs["scheduler"] = scheduler
    elif scheduler is not None or delay_model is not None:
        raise ValueError("scheduler/delay_model apply to the sim transport only")
    runtime = make_transport(
        transport, setup, behaviors=behaviors, seed=seed, **kwargs
    )
    overlap = set(crash_indices) & set(runtime.corrupt)
    if overlap:
        raise ValueError(
            f"crash–recovering parties must be honest; {sorted(overlap)} carry "
            "Byzantine behaviors"
        )
    cleanup: Optional[TemporaryDirectory] = None
    if storage_dir is None:
        cleanup = TemporaryDirectory(prefix="repro-recovery-")
        storage_dir = cleanup.name
    store = SnapshotStore(storage_dir, fsync=fsync)
    for index in crash_indices:
        # This is a fresh run: stale artifacts in a reused storage
        # directory would rehydrate state from the wrong execution.
        store.clear(index)
    recorders = {
        index: DurabilityRecorder(runtime, index, store, cadence=cadence)
        for index in crash_indices
    }
    try:
        if transport == "sim":
            report = _drive_sim(
                runtime, recorders, store, root_factory, crash_after,
                recovery_delay, max_steps,
            )
        else:
            report = asyncio.run(
                _drive_realtime(
                    runtime, recorders, store, root_factory, crash_after,
                    recovery_delay, timeout,
                )
            )
    finally:
        store.close()
        if cleanup is not None:
            cleanup.cleanup()
    outputs = runtime.honest_results()
    values = list(outputs.values())
    agreement = bool(values) and all(value == values[0] for value in values)
    transcript = values[0] if values else None
    valid = None
    if transcript is not None and hasattr(transcript, "public_key"):
        from repro.crypto import reshare
        from repro.crypto import threshold_vrf as tvrf

        try:
            if isinstance(transcript, reshare.ReshareTranscript):
                valid = reshare.verify_reshared(setup.directory, transcript)
            else:
                valid = tvrf.DKGVerify(setup.directory, transcript)
        except Exception:
            valid = False
    report.update(
        {
            "transport": transport,
            "n": runtime.n,
            "f": runtime.f,
            "seed": seed,
            "crash_indices": crash_indices,
            "crash_after": crash_after,
            "recovery_delay": recovery_delay,
            "cadence": cadence,
            "honest_outputs": len(outputs),
            "agreement": agreement,
            "valid": valid,
            "transcript": transcript,
            "outputs": outputs,
            "public_key": getattr(transcript, "public_key", None),
            "words_total": runtime.metrics.words_total,
            "messages_total": runtime.metrics.messages_total,
        }
    )
    return report


def _crash_point_reached(recorders: dict, crash_after: int) -> bool:
    return any(r.deliveries >= crash_after for r in recorders.values())


def _recover_all(
    runtime: Transport,
    recorders: dict,
    store: SnapshotStore,
    root_factory: RootFactory,
) -> tuple[dict, dict]:
    replay_stats = {}
    parked = {}
    for index in recorders:
        party, stats = recover_party(runtime, index, store, root_factory)
        parked[index] = runtime.reattach_party(index, party)
        replay_stats[index] = stats
    return replay_stats, parked


def _drive_sim(
    runtime,
    recorders: dict,
    store: SnapshotStore,
    root_factory: RootFactory,
    crash_after: int,
    recovery_delay: float,
    max_steps: int,
) -> dict[str, Any]:
    runtime.start(root_factory)
    for recorder in recorders.values():
        # Genesis checkpoint the instant the roots stand: a crash before
        # the party's first delivery still finds a snapshot on disk.
        recorder.checkpoint()
    runtime.run(
        max_steps=max_steps,
        stop=lambda sim: _crash_point_reached(recorders, crash_after),
    )
    if runtime.all_honest_output():
        raise RuntimeError(
            "the run completed before the crash point; pick a smaller "
            "crash_after for a meaningful recovery scenario"
        )
    crash_at = runtime.time
    for index in recorders:
        runtime.detach_party(index)
    deadline = crash_at + recovery_delay
    runtime.run(max_steps=max_steps, stop=lambda sim: sim.time >= deadline)
    reattach_at = runtime.time
    replay_stats, parked = _recover_all(runtime, recorders, store, root_factory)
    runtime.run_until_all_honest_output(max_steps=max_steps)
    completed_at = runtime.honest_completion_time()
    return {
        "crash_at": crash_at,
        "reattach_at": reattach_at,
        "rounds": completed_at,
        "recovery_latency": completed_at - reattach_at,
        "replay": replay_stats,
        "parked_delivered": parked,
    }


async def _drive_realtime(
    runtime,
    recorders: dict,
    store: SnapshotStore,
    root_factory: RootFactory,
    crash_after: int,
    recovery_delay: float,
    timeout: float,
) -> dict[str, Any]:
    loop = asyncio.get_running_loop()
    started = loop.time()
    deadline = started + timeout
    try:
        await asyncio.wait_for(runtime.open(), timeout=timeout)
        runtime.start(root_factory)
        for recorder in recorders.values():
            recorder.checkpoint()
        while not _crash_point_reached(recorders, crash_after):
            if runtime.all_honest_output():
                raise RuntimeError(
                    "the run completed before the crash point; pick a "
                    "smaller crash_after for a meaningful recovery scenario"
                )
            if loop.time() > deadline:
                raise asyncio.TimeoutError(
                    f"crash point not reached within {timeout}s"
                )
            await asyncio.sleep(0.002)
        crash_at = loop.time() - started
        for index in recorders:
            runtime.detach_party(index)
        await asyncio.sleep(recovery_delay)
        reattach_at = loop.time() - started
        replay_stats, parked = _recover_all(
            runtime, recorders, store, root_factory
        )
        remaining = max(0.001, deadline - loop.time())
        await runtime.wait_session(0, timeout=remaining)
        completed_at = loop.time() - started
    finally:
        await runtime.close()
    return {
        "crash_at": crash_at,
        "reattach_at": reattach_at,
        "rounds": completed_at,
        "recovery_latency": completed_at - reattach_at,
        "replay": replay_stats,
        "parked_delivered": parked,
    }
