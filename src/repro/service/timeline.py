"""The committee timeline: the one loop every service path runs.

A timeline is cut into stretches (:class:`Stretch`), the consecutive
epochs one committee runs on one transport: the first runs fresh ADKG
epochs, every later one a single reshare handoff of the previous key.
:class:`MembershipDriver` runs them all; :func:`run_beacon` (one fresh
stretch) and :func:`~repro.service.membership.run_churn` only build
their stretches.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence

from repro.core.reshare import ReshareAgreement
from repro.crypto import reshare
from repro.crypto.keys import PublicDirectory, TrustedSetup
from repro.net.metrics import Metrics
from repro.net.transport import RootFactory, make_run_transport
from repro.service.beacon import BeaconOutput, RandomnessBeacon
from repro.service.epochs import EpochDriver, EpochResult, adkg_root
from repro.storage.recovery import CrashPlan

__all__ = [
    "BeaconReport", "MembershipDriver", "MembershipReport", "Stretch", "run_beacon"
]


@dataclass(frozen=True)
class Stretch:
    """Consecutive timeline epochs one committee runs on one transport.

    A fresh stretch runs its ``i``-th epoch as session ``i``.  ``seed``
    seeds the transport, ``members`` names the committee as the caller
    numbers parties (empty: the setup's own indices).  ``chaos``
    covers the stretch's transport, ``crash`` (keywords of a
    :class:`~repro.storage.recovery.CrashPlan`: ``indices``, ``after``,
    ``delay``, ...) its first epoch.
    """

    setup: TrustedSetup
    epochs: range
    seed: int
    members: tuple[int, ...] = ()
    chaos: Any = None
    crash: Optional[dict] = None


@dataclass
class MembershipReport:
    """Everything one timeline run produced: epochs, beacon, key, overlays."""

    results: list[EpochResult] = field(default_factory=list)
    #: Per-epoch committee setups (runtime objects; needed to verify the
    #: beacon and to chain further handoffs).
    setups: dict[int, TrustedSetup] = field(default_factory=dict)
    #: The beacon rounds of every epoch, one chain from genesis.
    outputs: list[BeaconOutput] = field(default_factory=list)
    handoffs: int = 0
    crash_epochs: tuple[int, ...] = ()
    chaos_epochs: tuple[int, ...] = ()
    replay: dict = field(default_factory=dict)
    #: Every stretch's transport metrics (the live objects), in timeline
    #: order.  Each counts only its own stretch's work, so the run's counts
    #: are their sum; pairings are process-wide and in none of them (read
    #: the setups' ``pair_group.pair_calls`` around the run).
    metrics: list[Metrics] = field(default_factory=list)
    #: Wall-clock seconds inside the epoch loops alone: not the setups,
    #: the handoff dealings, the drains or the beacon rounds.
    wall_clock_s: float = 0.0

    @property
    def agreed(self) -> bool:
        return bool(self.results) and all(r.agreed for r in self.results)

    @property
    def contexts(self) -> dict[int, tuple[PublicDirectory, Any]]:
        """Per-epoch ``(directory, transcript)`` for beacon verification."""
        return {
            result.epoch: (self.setups[result.epoch].directory, result.transcript)
            for result in self.results
        }

    def _key_bytes(self, result: EpochResult) -> bytes:
        group = self.setups[result.epoch].directory.pair_group
        return group.encode_element(result.public_key)

    @property
    def key_encoded(self) -> bytes:
        """The first epoch's group key, encoded."""
        return self._key_bytes(self.results[0])

    @property
    def key_invariant(self) -> bool:
        """Every epoch's group key encodes to the bytes of the first's."""
        return len({self._key_bytes(result) for result in self.results}) == 1


class MembershipDriver:
    """Run a committee timeline: every stretch through the one epoch loop.

    Each stretch gets a transport of its own and one
    :class:`~repro.service.epochs.EpochDriver` run (fresh epochs pipelined
    up to ``pipeline_depth``) under its crash plan and chaos spec, then
    its epochs' ``rounds_per_epoch`` beacon rounds.  Every stretch after
    the first is a handoff, so it runs exactly one epoch; its dealings
    draw from ``("reshare-deal", seed, epoch, dealer)``-seeded RNGs.
    """

    def __init__(
        self,
        stretches: Sequence[Stretch],
        *,
        transport: str = "sim",
        seed: int = 0,
        timeout: float = 120.0,
        pipeline_depth: int = 1,
        rounds_per_epoch: int = 2,
        storage_dir: Optional[str] = None,
    ) -> None:
        self.stretches = tuple(stretches)
        if any(len(s.epochs) != 1 for s in self.stretches[1:]):
            raise ValueError("every stretch after the first is one handoff epoch")
        self.transport = transport
        self.seed = seed
        self.timeout = timeout
        self.pipeline_depth = pipeline_depth
        self.storage_dir = storage_dir
        self.rounds_per_epoch = rounds_per_epoch

    def run(self) -> MembershipReport:
        beacon = RandomnessBeacon(rounds_per_epoch=self.rounds_per_epoch)
        report = MembershipReport(
            outputs=beacon.outputs,
            handoffs=len(self.stretches[1:]),
            crash_epochs=tuple(
                s.epochs[0] for s in self.stretches if s.crash is not None
            ),
            chaos_epochs=tuple(
                e for s in self.stretches if s.chaos is not None for e in s.epochs
            ),
        )
        for stretch in self.stretches:
            root_factory = adkg_root
            if report.results:
                last = report.results[-1]
                root_factory = self._handoff_root(
                    stretch, report.setups[last.epoch], last.transcript
                )
            for result in self._run_stretch(stretch, root_factory, report):
                report.results.append(result)
                report.setups[result.epoch] = stretch.setup
                beacon.emit_epoch(result.epoch, stretch.setup, result.transcript)
        return report

    def _handoff_root(
        self, stretch: Stretch, old: TrustedSetup, old_transcript: Any
    ) -> RootFactory:
        """The handoff epoch's root: every old member's dealing, derived up
        front ("published before leaving", so the session never depends on
        a departed party being reachable) and held round-robin by the new
        committee — each lands at one holder, who fans it out on start, and
        with ``n_old ≥ 3 f_old + 1`` dealings spread out, ``f_old + 1`` of
        them survive any tolerated fault pattern (a tampered relay fails
        the dealer's signature)."""
        [epoch] = stretch.epochs
        old_directory, new = old.directory, stretch.setup.directory
        spec = reshare.HandoffSpec(
            epoch=epoch,
            old_session=old_directory.session,
            old_n=old_directory.n,
            old_f=old_directory.f,
            old_sign_pks=old_directory.sign_pks,
            old_commitments=old_transcript.commitments,
        )
        dealings = [
            reshare.deal_reshare(
                new,
                spec,
                old.secret(dealer),
                random.Random(("reshare-deal", self.seed, epoch, dealer).__repr__()),
            )
            for dealer in range(old_directory.n)
        ]
        return lambda party: ReshareAgreement(
            spec=spec, initial=tuple(dealings[party.index :: new.n])
        )

    def _run_stretch(
        self, stretch: Stretch, root_factory: RootFactory, report: MembershipReport
    ) -> list[EpochResult]:
        runtime = make_run_transport(
            self.transport, stretch.setup, seed=stretch.seed, chaos=stretch.chaos
        )
        plan: Any = nullcontext()
        if stretch.crash is not None:
            plan = CrashPlan(
                runtime,
                root_factory,
                storage_dir=self.storage_dir,
                timeout=self.timeout,
                **stretch.crash,
            )
        with plan as interlude:
            started = time.perf_counter()
            results = EpochDriver(
                runtime,
                epochs=len(stretch.epochs),
                pipeline_depth=self.pipeline_depth,
                root_factory=root_factory,
                timeout=self.timeout,
                interludes={0: interlude},
            ).run()
            report.wall_clock_s += time.perf_counter() - started
            # Drain the stragglers in flight when the last session completed
            # (the simulator; realtime close() cancelled them): delivery counts
            # become a function of the traffic, not of where the wait halted.
            runtime.block_on(runtime.drain())
        if interlude:
            report.replay[stretch.epochs[0]] = interlude.replay
        report.metrics.append(runtime.metrics)
        # The transport numbers epochs from 0 and knows only local indices;
        # relabel with the timeline's epochs and the caller's committee.
        return [
            replace(result, epoch=epoch, committee=stretch.members or result.committee)
            for epoch, result in zip(stretch.epochs, results)
        ]


# -- the static committee ------------------------------------------------------------


@dataclass
class BeaconReport:
    """Everything one ``run_beacon`` invocation measured."""

    n: int
    f: int
    epochs: int
    pipeline_depth: int
    rounds_per_epoch: int
    transport: str
    seed: int
    epoch_results: list[EpochResult] = field(default_factory=list)
    outputs: list[BeaconOutput] = field(default_factory=list)
    all_verified: bool = False
    #: Transport-native end-to-end time: last epoch's completion
    #: (simulated time on sim — the latency pipelining actually shrinks —
    #: wall-clock seconds on realtime transports).
    end_to_end: float = 0.0
    #: Wall-clock seconds of the epoch loop (not the beacon rounds).
    wall_clock_s: float = 0.0
    words_total: int = 0
    bytes_total: int = 0

    @property
    def epochs_per_sec(self) -> float:
        return self.epochs / self.wall_clock_s if self.wall_clock_s > 0 else 0.0

    @property
    def mean_epoch_latency(self) -> float:
        if not self.epoch_results:
            return float("nan")
        return sum(r.latency for r in self.epoch_results) / len(self.epoch_results)


def run_beacon(
    n: int = 7,
    *,
    epochs: int = 3,
    pipeline_depth: int = 1,
    rounds_per_epoch: int = 2,
    transport: str = "sim",
    seed: int = 0,
    timeout: float = 120.0,
) -> BeaconReport:
    """Run the full service: pipelined ADKG epochs + verified beacon stream.

    A one-stretch timeline: every epoch a fresh key on the one committee,
    on one transport seeded with ``seed``, epoch ``e`` as session ``e``.
    """
    setup = TrustedSetup.generate(n, seed=seed)
    membership = MembershipDriver(
        [Stretch(setup, range(epochs), seed=seed)],
        transport=transport,
        pipeline_depth=pipeline_depth,
        rounds_per_epoch=rounds_per_epoch,
        timeout=timeout,
    ).run()
    [metrics] = membership.metrics
    return BeaconReport(
        n=setup.directory.n,
        f=setup.directory.f,
        epochs=epochs,
        pipeline_depth=pipeline_depth,
        rounds_per_epoch=rounds_per_epoch,
        transport=transport,
        seed=seed,
        epoch_results=membership.results,
        outputs=membership.outputs,
        all_verified=membership.agreed
        and RandomnessBeacon.verify_chain(membership.outputs, membership.contexts),
        end_to_end=max(r.completed_at for r in membership.results),
        wall_clock_s=membership.wall_clock_s,
        words_total=metrics.words_total,
        bytes_total=metrics.bytes_total,
    )
