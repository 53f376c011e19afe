"""The handoff session: new committee agrees on a reshare bundle via NWH.

Mirrors :mod:`repro.core.adkg` one layer up the key's lifetime: where an
ADKG session *creates* a sharing, a :class:`ReshareAgreement` session
*re-homes* an existing one.  The old committee's dealings are published
before the handoff starts (the membership driver injects each dealing
into at least one new-committee party as an initial input — a departing
party cannot be required to stick around); on start every party fans its
initial dealings out to the whole committee, collects dealings until it
holds ``f_old + 1`` verifying ones from distinct old dealers, bundles
them, and runs NWH with bundle validity
(:func:`repro.crypto.reshare.verify_bundle`, pinned to the locally known
:class:`~repro.crypto.reshare.HandoffSpec`) as the external-validity
predicate.  NWH's certificates (:mod:`repro.core.certificates`) gate the
handoff: the committee commits to *one* valid bundle, and finalization —
a deterministic interpolation of that bundle — gives every party the
same reshared transcript under the invariant group key.

Byzantine or crashed initial holders are tolerated the same way ADKG
tolerates silent dealers: every dealing is signed by its old dealer (a
tampered copy fails verification) and only ``f_old + 1`` of the
``n_old ≥ 3 f_old + 1`` dealings need to survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.nwh import NWH
from repro.crypto import reshare
from repro.net.payload import Payload, words_of
from repro.net.protocol import Protocol

__all__ = ["ReshareAgreement", "ReshareDealingMsg"]


@dataclass(frozen=True)
class ReshareDealingMsg(Payload):
    """One published reshare dealing (⟨reshare_{i,j}⟩), relayed peer-to-peer."""

    dealing: Any

    def word_size(self) -> int:
        return max(1, words_of(self.dealing))


class ReshareAgreement(Protocol):
    """One handoff instance; outputs the finalized reshared transcript."""

    #: Declared mutable state (the ``nwh`` reference is rebuilt by
    #: :meth:`build_child`; ``spec``/``initial`` are constructor inputs
    #: restored by the root factory).
    STATE_FIELDS = ("received", "proposal")

    def __init__(
        self,
        spec: reshare.HandoffSpec,
        initial: tuple = (),
        broadcast_kind: str = "ct",
    ) -> None:
        super().__init__()
        self.spec = spec
        self.initial = tuple(initial)
        self.broadcast_kind = broadcast_kind
        self.received: list = []
        self.proposal: Any = None
        self.nwh: Optional[NWH] = None

    def on_start(self) -> None:
        for dealing in self.initial:
            self.multicast(ReshareDealingMsg(dealing=dealing))

    def on_message(self, sender: int, payload: Payload) -> None:
        if not isinstance(payload, ReshareDealingMsg):
            return
        if self.nwh is not None:
            return  # already bundled and agreeing
        dealing = payload.dealing
        if not isinstance(dealing, reshare.ReshareDealing):
            return
        if any(existing.dealer == dealing.dealer for existing in self.received):
            return
        if not reshare.verify_dealing(self.directory, self.spec, dealing):
            return
        self.received.append(dealing)
        if len(self.received) >= self.spec.threshold:
            chosen = sorted(
                self.received[: self.spec.threshold],
                key=lambda d: d.dealer,
            )
            self.proposal = reshare.ReshareBundle(
                spec=self.spec, dealings=tuple(chosen)
            )
            self.nwh = self._make_nwh()
            self.spawn("nwh", self.nwh)

    def _make_nwh(self) -> NWH:
        directory = self.directory
        spec = self.spec
        return NWH(
            my_value=self.proposal,
            validate=lambda bundle: reshare.verify_bundle(
                directory, bundle, expected=spec
            ),
            broadcast_kind=self.broadcast_kind,
        )

    def build_child(self, name: Any) -> Protocol:
        if name == "nwh":
            self.nwh = self._make_nwh()
            return self.nwh
        raise ValueError(f"unknown ReshareAgreement child {name!r}")

    def on_sub_output(self, name: Any, value: Any) -> None:
        if name == "nwh":
            self.output(reshare.finalize(self.directory, value))
