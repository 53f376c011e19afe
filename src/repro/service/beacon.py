"""A verifiable randomness beacon over a committee's epochs.

Threshold VRFs "can be used to implement random beacons" (Section 1 of
the paper, citing RandHound/drand-style systems).  This module turns
that remark into a service:

* each *epoch* holds one group key: a fresh ADKG session on a static
  committee (pipelined by :func:`~repro.service.timeline.run_beacon`),
  or a reshare handoff of the previous epoch's key to a new committee
  (:mod:`repro.service.membership`) — either way the one
  :class:`~repro.service.timeline.MembershipDriver` loop runs it and
  emits its rounds through :class:`RandomnessBeacon`;
* within an epoch, ``rounds_per_epoch`` beacon rounds are emitted under
  that epoch's directory: any ``f+1`` parties publish threshold-VRF
  shares of the round message and anyone combines them into the unique,
  pairing-verifiable evaluation;
* **key handoff**: the round message includes the previous beacon value
  (across epoch boundaries too), so the stream stays one linked chain
  whether the key underneath it rotates every epoch or is handed across
  committees — an observer verifies each value against its epoch's
  directory and transcript, and the chain linkage from genesis.

Unbiasability comes from VRF uniqueness (Definition 2): once an epoch's
transcript is agreed, every beacon value of that epoch is a deterministic
function of the transcript and the chain prefix — no party, and no
``f``-subset of parties, can steer it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.crypto import reshare, threshold_vrf as tvrf
from repro.crypto.keys import PublicDirectory, TrustedSetup

__all__ = ["BeaconOutput", "RandomnessBeacon"]

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


def verify_output(
    directory: PublicDirectory, output: BeaconOutput, transcript: Any
) -> bool:
    """Publicly verify one beacon value against its epoch's group key."""
    if not tvrf.EvalVerify(
        directory, transcript, output.message(), output.evaluation
    ):
        return False
    return tvrf.vrf_output(directory, output.evaluation) == output.value


def transcript_valid(directory: PublicDirectory, transcript: Any) -> bool:
    """``DKGVerify`` or ``verify_reshared``, by the transcript's kind."""
    if isinstance(transcript, reshare.ReshareTranscript):
        return reshare.verify_reshared(directory, transcript)
    return tvrf.DKGVerify(directory, transcript)


class RandomnessBeacon:
    """Emit and verify the chained beacon stream over any epoch timeline.

    Each epoch's rounds are evaluated under that epoch's own setup — one
    setup for every epoch of a static committee, a per-epoch committee
    slice across handoffs (whose session label domain-separates the VRF
    inputs) — and chained through ``prev`` links from genesis.
    """

    def __init__(
        self,
        *,
        rounds_per_epoch: int = 2,
        signers: Optional[Sequence[int]] = None,
    ) -> None:
        if rounds_per_epoch < 1:
            raise ValueError("rounds_per_epoch must be >= 1")
        self.rounds_per_epoch = rounds_per_epoch
        self.signers = None if signers is None else tuple(signers)
        self.outputs: list[BeaconOutput] = []
        self._prev = GENESIS

    def emit_epoch(
        self, epoch: int, setup: TrustedSetup, transcript: Any
    ) -> list[BeaconOutput]:
        """Emit this epoch's chained rounds from its agreed transcript.

        Per round: ``EvalSh`` at each signer, ``EvalShVerify``, ``Eval``,
        ``EvalVerify``, ``vrf_output`` — and the value becomes the next
        round's ``prev``, the handoff link into the next round/epoch.  Any
        f+1 distinct signers produce the same unique value (Definition 2);
        ``None`` means the lowest-indexed f+1 parties.  A fresh or a reshared
        transcript alike: both expose ``public_key`` / ``share_commitment``.
        """
        directory = setup.directory
        if not transcript_valid(directory, transcript):
            raise ValueError(f"epoch {epoch} transcript does not verify")
        signers = range(directory.f + 1) if self.signers is None else self.signers
        emitted: list[BeaconOutput] = []
        for round_index in range(self.rounds_per_epoch):
            message = ("beacon", epoch, round_index, self._prev)
            shares = []
            for signer in signers:
                secret = setup.secret(signer)
                share = tvrf.EvalSh(directory, secret, transcript, message)
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
                    prev=self._prev,
                    value=value,
                    evaluation=evaluation,
                )
            )
            self._prev = value
        self.outputs.extend(emitted)
        return emitted

    @staticmethod
    def verify_chain(
        outputs: Sequence[BeaconOutput],
        contexts: dict[int, tuple[PublicDirectory, Any]],
        handoffs: bool = False,
    ) -> bool:
        """Verify values *and* the genesis-rooted linkage across epochs.

        ``contexts`` maps epoch → ``(directory, transcript)``.  Every epoch
        appears, in ascending order, its rounds numbered 0, 1, 2, … with no
        gap and no repeat — so an empty chain, a repeated round or an epoch
        out of place fails even when every ``prev`` link holds.  The
        verifier, not the transcript's type, says what each epoch is: the
        first must pass ``DKGVerify`` (a value can check out under the
        public key of a transcript whose shares do not), and so must every
        later one — unless ``handoffs``, when every later epoch must pass
        ``verify_reshared`` and carry the first epoch's group key bytes.
        """
        rounds = Counter(output.epoch for output in outputs)
        walk = [(output.epoch, output.round) for output in outputs]
        in_order = [(e, r) for e in sorted(contexts) for r in range(rounds[e])]
        if not outputs or set(rounds) != set(contexts) or walk != in_order:
            return False
        first = min(contexts)
        group = contexts[first][0].pair_group
        key = group.encode_element(contexts[first][1].public_key)
        for epoch, (directory, transcript) in contexts.items():
            reshared = handoffs and epoch != first
            if (
                isinstance(transcript, reshare.ReshareTranscript) != reshared
                or not transcript_valid(directory, transcript)
                or (reshared and group.encode_element(transcript.public_key) != key)
            ):
                return False
        prev = GENESIS
        for output in outputs:
            directory, transcript = contexts[output.epoch]
            if output.prev != prev or not verify_output(directory, output, transcript):
                return False
            prev = output.value
        return True
