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
  run to agreement — one :func:`_drive` coroutine on the transport's
  driving surface (DESIGN §7), so recovery latency reads in simulated
  rounds on the simulator and in seconds on asyncio/TCP.
"""

from __future__ import annotations

import time
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Any, Optional, Sequence

from repro.crypto.keys import TrustedSetup
from repro.net.delays import DelayModel
from repro.net.party import Party
from repro.net.transport import RootFactory, Transport, make_run_transport
from repro.storage.frames import StorageError
from repro.storage.store import SnapshotStore

__all__ = ["DurabilityRecorder", "recover_party", "run_crash_recovery"]


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
    max_steps: Optional[int] = None,
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
    # Chaos overlays compose with crash-recovery on every runtime: the
    # fault plane sits at the shared delivery seam, the recorder behind
    # it, so WAL contents reflect what was actually delivered.
    runtime = make_run_transport(
        transport,
        setup,
        behaviors=behaviors,
        seed=seed,
        delay_model=delay_model,
        scheduler=scheduler,
        max_steps=max_steps,
        batching=batching,
        chaos=chaos,
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
        report = runtime.block_on(
            _drive(
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


async def _drive(
    runtime: Transport,
    recorders: dict,
    store: SnapshotStore,
    root_factory: RootFactory,
    crash_after: int,
    recovery_delay: float,
    timeout: float,
) -> dict[str, Any]:
    """The scenario, once, on the driving surface; times are ``now()``."""
    try:
        await runtime.open()
        runtime.start(root_factory)
        for recorder in recorders.values():
            # Genesis checkpoint the instant the roots stand: a crash before
            # the party's first delivery still finds a snapshot on disk.
            recorder.checkpoint()
        await runtime.wait_until(
            lambda transport: transport.all_honest_output()
            or any(r.deliveries >= crash_after for r in recorders.values()),
            timeout=timeout,
        )
        if runtime.all_honest_output():
            raise RuntimeError(
                "the run completed before the crash point; pick a smaller "
                "crash_after for a meaningful recovery scenario"
            )
        crash_at = runtime.now()
        for index in recorders:
            runtime.detach_party(index)
        await runtime.sleep(recovery_delay)
        reattach_at = runtime.now()
        replay_stats, parked = {}, {}
        for index in recorders:
            party, replay_stats[index] = recover_party(
                runtime, index, store, root_factory
            )
            parked[index] = runtime.reattach_party(index, party)
        await runtime.wait_session(0, timeout=timeout)
    finally:
        await runtime.close()
    completed_at = runtime.completion_time()
    return {
        "crash_at": crash_at,
        "reattach_at": reattach_at,
        "rounds": completed_at,
        "recovery_latency": completed_at - reattach_at,
        "replay": replay_stats,
        "parked_delivered": parked,
    }
