"""A verifiable randomness beacon over pipelined ADKG epochs.

Threshold VRFs "can be used to implement random beacons" (Section 1 of
the paper, citing RandHound/drand-style systems).  This module turns
that remark into a service:

* each *epoch* establishes a fresh group key via one ADKG session (run
  by the :class:`~repro.service.epochs.EpochDriver`, pipelined);
* within an epoch, ``rounds_per_epoch`` beacon rounds are emitted: any
  ``f+1`` parties publish threshold-VRF shares of the round message and
  anyone combines them into the unique, pairing-verifiable evaluation;
* **key handoff**: the round message includes the previous beacon value
  (across epoch boundaries too), so the stream stays one linked chain
  even though the group key underneath it rotates every epoch — an
  observer can verify both each value (against that epoch's public key)
  and the chain linkage from genesis.

Unbiasability comes from VRF uniqueness (Definition 2): once an epoch's
transcript is agreed, every beacon value of that epoch is a deterministic
function of the transcript and the chain prefix — no party, and no
``f``-subset of parties, can steer it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.crypto import threshold_vrf as tvrf
from repro.crypto.keys import PublicDirectory, TrustedSetup
from repro.net.transport import make_run_transport
from repro.service.epochs import EpochDriver, EpochResult

__all__ = ["BeaconOutput", "BeaconReport", "RandomnessBeacon", "run_beacon"]

#: The chain starts from a fixed, public genesis value.
GENESIS = 0


@dataclass(frozen=True)
class BeaconOutput:
    """One beacon round: a λ-bit value plus what's needed to verify it."""

    epoch: int
    round: int
    prev: int
    value: int
    evaluation: Any

    def message(self) -> tuple:
        """The VRF input this value was derived from (chain-linked)."""
        return ("beacon", self.epoch, self.round, self.prev)


def emit_rounds(
    setup: TrustedSetup,
    transcript: Any,
    signers: Optional[Sequence[int]],
    epoch: int,
    rounds: int,
    prev: int,
) -> list[BeaconOutput]:
    """One epoch's chained rounds under ``setup``: the loop both beacons run.

    Per round: ``EvalSh`` at each signer, ``EvalShVerify``, ``Eval``,
    ``EvalVerify``, ``vrf_output`` — and the value becomes the next
    round's ``prev``, the handoff link into the next round/epoch.  Any
    f+1 distinct signers produce the same unique value (Definition 2);
    ``None`` means the lowest-indexed f+1 parties.
    """
    directory = setup.directory
    signers = tuple(range(directory.f + 1) if signers is None else signers)
    emitted: list[BeaconOutput] = []
    for round_index in range(rounds):
        message = ("beacon", epoch, round_index, prev)
        shares = []
        for signer in signers:
            share = tvrf.EvalSh(directory, setup.secret(signer), transcript, message)
            if tvrf.EvalShVerify(directory, transcript, signer, message, share):
                shares.append(share)
        evaluation, proof = tvrf.Eval(directory, transcript, message, shares)
        if not tvrf.EvalVerify(directory, transcript, message, evaluation, proof):
            raise RuntimeError(f"beacon evaluation failed to verify: {message}")
        value = tvrf.vrf_output(directory, evaluation)
        emitted.append(
            BeaconOutput(
                epoch=epoch,
                round=round_index,
                prev=prev,
                value=value,
                evaluation=evaluation,
            )
        )
        prev = value
    return emitted


def in_chain_order(outputs: Sequence[BeaconOutput], epochs: Iterable[int]) -> bool:
    """The position rule both chain verifiers apply.

    Every epoch in ``epochs`` appears, in ascending order, and each
    epoch's rounds run 0, 1, 2, … with no gap and no repeat — so an empty
    chain, a repeated round or an epoch out of place fails even when every
    ``prev`` link holds.
    """
    walked: list[int] = []
    last: Optional[BeaconOutput] = None
    for output in outputs:
        if last is not None and output.epoch == last.epoch:
            if output.round != last.round + 1:
                return False
        elif output.round != 0:
            return False
        else:
            walked.append(output.epoch)
        last = output
    return bool(walked) and walked == sorted(epochs)


def verify_output(
    directory: PublicDirectory, output: BeaconOutput, transcript: Any
) -> bool:
    """Publicly verify one beacon value against its epoch's group key."""
    if not tvrf.EvalVerify(
        directory, transcript, output.message(), output.evaluation
    ):
        return False
    return tvrf.vrf_output(directory, output.evaluation) == output.value


class RandomnessBeacon:
    """Emit and verify the chained beacon stream over epoch transcripts."""

    def __init__(
        self,
        setup: TrustedSetup,
        *,
        rounds_per_epoch: int = 2,
        signers: Optional[Sequence[int]] = None,
    ) -> None:
        if rounds_per_epoch < 1:
            raise ValueError("rounds_per_epoch must be >= 1")
        self.setup = setup
        self.directory = setup.directory
        self.rounds_per_epoch = rounds_per_epoch
        self.signers = signers
        self.outputs: list[BeaconOutput] = []
        self._prev = GENESIS

    def emit_epoch(self, epoch: int, transcript: Any) -> list[BeaconOutput]:
        """Emit this epoch's beacon rounds from its agreed DKG transcript."""
        if not tvrf.DKGVerify(self.directory, transcript):
            raise ValueError(f"epoch {epoch} transcript does not verify")
        emitted = emit_rounds(
            self.setup, transcript, self.signers, epoch,
            self.rounds_per_epoch, self._prev,
        )
        self.outputs.extend(emitted)
        self._prev = emitted[-1].value
        return emitted

    def verify(self, output: BeaconOutput, transcript: Any) -> bool:
        """Publicly verify one beacon value against its epoch's group key."""
        return verify_output(self.directory, output, transcript)

    def verify_chain(
        self, outputs: Sequence[BeaconOutput], transcripts: dict[int, Any]
    ) -> bool:
        """Verify values *and* the genesis-rooted linkage across epochs,
        against transcripts that pass ``DKGVerify`` themselves (a value can
        check out under the public key of one whose shares do not), in
        :func:`in_chain_order`."""
        if not in_chain_order(outputs, transcripts):
            return False
        prev = GENESIS
        for output in outputs:
            if output.prev != prev:
                return False
            transcript = transcripts.get(output.epoch)
            if (
                transcript is None
                or not tvrf.DKGVerify(self.directory, transcript)
                or not self.verify(output, transcript)
            ):
                return False
            prev = output.value
        return True


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
    wall_clock_s: float = 0.0
    words_total: int = 0
    messages_total: int = 0
    bytes_total: int = 0
    counters: dict = field(default_factory=dict)

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
    """Run the full service: pipelined ADKG epochs + verified beacon stream."""
    setup = TrustedSetup.generate(n, seed=seed)
    runtime = make_run_transport(transport, setup, seed=seed)
    driver = EpochDriver(
        runtime, epochs=epochs, pipeline_depth=pipeline_depth, timeout=timeout
    )
    started = time.perf_counter()
    epoch_results = driver.run()
    wall_clock_s = time.perf_counter() - started

    beacon = RandomnessBeacon(setup, rounds_per_epoch=rounds_per_epoch)
    for result in epoch_results:
        beacon.emit_epoch(result.epoch, result.transcript)
    transcripts = {result.epoch: result.transcript for result in epoch_results}
    all_verified = all(r.agreed for r in epoch_results) and beacon.verify_chain(
        beacon.outputs, transcripts
    )

    return BeaconReport(
        n=runtime.n,
        f=runtime.f,
        epochs=epochs,
        pipeline_depth=pipeline_depth,
        rounds_per_epoch=rounds_per_epoch,
        transport=transport,
        seed=seed,
        epoch_results=epoch_results,
        outputs=list(beacon.outputs),
        all_verified=all_verified,
        end_to_end=max(r.completed_at for r in epoch_results),
        wall_clock_s=wall_clock_s,
        words_total=runtime.metrics.words_total,
        messages_total=runtime.metrics.messages_total,
        bytes_total=runtime.metrics.bytes_total,
        counters={
            name: runtime.metrics.counters(name)
            for name in ("verify", "pending")
        },
    )
