"""In-session crash–recovery: durable recording, rehydration, the crash plan.

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
* :class:`CrashPlan` — one crash–recovery as a value the epoch loop
  awaits (DESIGN §7): crash (detach + state loss) at an adversarially
  chosen per-party delivery count, recover after a delay, reattach — on
  the driving surface, so the delay reads in simulated rounds on the
  simulator and in seconds on asyncio/TCP.
* :func:`run_crash_recovery` — the plan on one epoch of one committee,
  with the report the CLI and the benchmark read.
"""

from __future__ import annotations

import math
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

__all__ = ["CrashPlan", "DurabilityRecorder", "recover_party", "run_crash_recovery"]


class DurabilityRecorder:
    """Keep one party's snapshot + WAL current on a live transport.

    The recorder observes the shared delivery pipeline, so it works
    unchanged on the simulator, the asyncio runtime and TCP.  A
    delivery's WAL record is appended before any of its reactions is
    transmitted: the transport sends nothing while a delivery is on the
    stack.  The snapshot is taken at the delivery boundary (reaction
    processed, outbox drained, conditions at fixpoint) — exactly the
    boundary ``freeze()`` requires.
    Call :meth:`checkpoint` once the party's roots are installed (the
    crash plan does, right after the session starts) so a crash before
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


class CrashPlan:
    """Crash ``indices`` mid-epoch and rehydrate them from disk.

    An epoch-loop interlude: awaited right after the epoch's session
    starts, it attaches a :class:`DurabilityRecorder` (snapshot every
    ``cadence`` deliveries) to every party in ``indices``; when the first
    has processed ``after`` network deliveries all crash *together* — the
    transport detaches them (in-flight traffic parks, as a reconnecting
    link's send queue would), their memory is abandoned — and ``delay``
    later (rounds on ``sim``, seconds on realtime) each is rehydrated via
    :func:`recover_party` and reattached.  The recorders stay attached, so
    the store outlives the epoch: use the plan as a context manager.
    ``after`` is an ``int`` >= 0 and ``delay`` finite and >= 0 (a crashed
    party comes back), else ``ValueError``.
    """

    def __init__(
        self,
        transport: Transport,
        root_factory: RootFactory,
        *,
        indices: Sequence[int] = (0,),
        after: int = 20,
        delay: float = 3.0,
        cadence: int = 16,
        storage_dir: Optional[Path | str] = None,
        fsync: bool = False,
        timeout: float = 120.0,
    ) -> None:
        if type(after) is not int or after < 0:
            raise ValueError(f"crash after must be an int >= 0, got {after!r}")
        if not (math.isfinite(delay) and delay >= 0):
            raise ValueError(f"recovery delay must be finite and >= 0, got {delay!r}")
        indices = tuple(dict.fromkeys(indices))
        if not indices:
            raise ValueError("crash indices must name at least one party")
        out_of_range = [index for index in indices if not 0 <= index < transport.n]
        if out_of_range:
            raise ValueError(
                f"crash indices {out_of_range} out of range for n={transport.n}"
            )
        overlap = set(indices) & set(transport.corrupt)
        if overlap:
            raise ValueError(
                f"crash–recovering parties must be honest; {sorted(overlap)} carry "
                "Byzantine behaviors"
            )
        self.transport = transport
        self.root_factory = root_factory
        self.indices = indices
        self.after = after
        self.delay = delay
        self.cadence = cadence
        self.timeout = timeout
        self._tmp = None
        if storage_dir is None:
            self._tmp = TemporaryDirectory(prefix="repro-recovery-")
            storage_dir = self._tmp.name
        self.store = SnapshotStore(storage_dir, fsync=fsync)
        for index in indices:
            # This is a fresh run: stale artifacts in a reused storage
            # directory would rehydrate state from the wrong execution.
            self.store.clear(index)
        #: What happened, in the transport's ``now()`` units.
        self.crash_at = self.reattach_at = float("nan")
        #: Per crashed party: :func:`recover_party`'s statistics, and the
        #: parked deliveries its reattachment drained.
        self.replay: dict[int, dict[str, Any]] = {}
        self.parked: dict[int, int] = {}

    def __enter__(self) -> "CrashPlan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.store.close()
        if self._tmp is not None:
            self._tmp.cleanup()

    async def __call__(self, session: int) -> None:
        transport = self.transport
        recorders = [
            DurabilityRecorder(transport, index, self.store, cadence=self.cadence)
            for index in self.indices
        ]
        for recorder in recorders:
            # Genesis checkpoint the instant the roots stand: a crash before
            # the party's first delivery still finds a snapshot on disk.
            recorder.checkpoint()
        await transport.wait_until(
            lambda transport: transport.all_honest_output(session)
            or any(recorder.deliveries >= self.after for recorder in recorders),
            timeout=self.timeout,
        )
        if transport.all_honest_output(session):
            raise RuntimeError(
                "the run completed before the crash point; pick a smaller "
                "crash_after for a meaningful recovery scenario"
            )
        self.crash_at = transport.now()
        for index in self.indices:
            transport.detach_party(index)
        await transport.sleep(self.delay)
        self.reattach_at = transport.now()
        for index in self.indices:
            party, self.replay[index] = recover_party(
                transport, index, self.store, self.root_factory
            )
            self.parked[index] = transport.reattach_party(index, party)


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
    fsync: bool = False,
    timeout: float = 120.0,
    max_steps: Optional[int] = None,
    chaos: Any = None,
) -> dict[str, Any]:
    """One full crash–recovery scenario on the chosen transport.

    One epoch of one committee under a :class:`CrashPlan`: the parties in
    ``crash_indices`` crash together once the first of them has processed
    ``crash_after`` deliveries, recover from disk ``recovery_delay``
    later, and the run is driven to all-honest agreement.

    Returns a report dict with agreement/validity, the group public key,
    per-party replay statistics and the recovery latency (time from
    reattach to all-honest completion, in the transport's time unit).
    """
    from repro.service.epochs import EpochDriver, adkg_root
    from repro.service.beacon import transcript_valid

    root_factory = root_factory or adkg_root
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
        chaos=chaos,
    )
    with CrashPlan(
        runtime,
        root_factory,
        indices=crash_indices,
        after=crash_after,
        delay=recovery_delay,
        cadence=cadence,
        storage_dir=storage_dir,
        fsync=fsync,
        timeout=timeout,
    ) as plan:
        [result] = EpochDriver(
            runtime,
            epochs=1,
            root_factory=root_factory,
            timeout=timeout,
            interludes={0: plan},
        ).run()
    transcript = result.transcript
    valid = None
    if hasattr(transcript, "public_key"):
        try:
            valid = transcript_valid(setup.directory, transcript)
        except Exception:
            valid = False
    return {
        "crash_at": plan.crash_at,
        "reattach_at": plan.reattach_at,
        "rounds": result.completed_at,
        "recovery_latency": result.completed_at - plan.reattach_at,
        "replay": plan.replay,
        "parked_delivered": plan.parked,
        "transport": transport,
        "n": runtime.n,
        "f": runtime.f,
        "seed": seed,
        "crash_indices": list(plan.indices),
        "crash_after": crash_after,
        "recovery_delay": recovery_delay,
        "cadence": cadence,
        "honest_outputs": len(result.outputs),
        "agreement": result.agreed,
        "valid": valid,
        "transcript": transcript,
        "outputs": result.outputs,
        "public_key": result.public_key,
        "words_total": runtime.metrics.words_total,
        "messages_total": runtime.metrics.messages_total,
    }
