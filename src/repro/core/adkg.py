"""Asynchronous Distributed Key Generation (Section 6, Algorithm 14, Theorem 5).

The final construction is short because the machinery lives below it:
every party deals one PVSS contribution to every other party, aggregates
the first ``n-f`` well-formed contributions it receives into a proposed DKG
transcript, and runs NWH with ``DKGVerify`` as the external-validity
predicate.  The aggregate is checked as one transcript (the ``DKGVerify``
every peer runs on it); parts are verified only when it fails, and the
dealers of the parts that fail are never taken again.  NWH's agreement +
validity give one verifying transcript that every party outputs; its
termination is almost-sure.

The agreed transcript defines the group public key
(``transcript.public_key = g^{F(0)}``) and commits each party's threshold
share in the exponent — ready for threshold-VRF/BLS-style applications
without any reconstruction step, exactly as the paper argues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.nwh import NWH
from repro.crypto import pvss, threshold_vrf as tvrf
from repro.net.payload import Payload, words_of
from repro.net.protocol import Protocol


@dataclass(frozen=True)
class ADKGShare(Payload):
    """One dealt PVSS contribution (the paper's ⟨share_{i,j}⟩)."""

    contribution: Any

    def word_size(self) -> int:
        return max(1, words_of(self.contribution))


class ADKG(Protocol):
    """One A-DKG instance; outputs the agreed, verifying DKG transcript."""

    #: Declared mutable state (the ``nwh`` instance reference is rebuilt
    #: by :meth:`build_child`, not serialized).
    STATE_FIELDS = ("received", "proposal", "_rejected")

    def __init__(self, broadcast_kind: str = "ct") -> None:
        super().__init__()
        self.broadcast_kind = broadcast_kind
        self.received: list = []
        self.proposal: Any = None
        #: Dealers whose contribution failed verification after a failed
        #: aggregate; a re-sent forgery cannot force another one.
        self._rejected: set[int] = set()
        self.nwh: Optional[NWH] = None

    def on_start(self) -> None:
        for j in range(self.n):
            contribution = tvrf.DKGSh(self.directory, self.secret, self.rng)
            self.send(j, ADKGShare(contribution=contribution))

    def on_message(self, sender: int, payload: Payload) -> None:
        if not isinstance(payload, ADKGShare):
            return
        if self.nwh is not None:
            return  # already aggregated and agreeing
        if sender in self._rejected:
            return
        if any(existing.dealer == sender for existing in self.received):
            return
        if not pvss.well_formed(self.directory, payload.contribution, sender):
            return
        pool = self.received
        pool.append(payload.contribution)
        if len(pool) < self.quorum:
            return
        proposal, kept = pvss.aggregate_checked(self.directory, pool)
        if proposal is None:
            self._rejected |= {c.dealer for c in pool} - {c.dealer for c in kept}
            self.received = kept
            return
        self.proposal = proposal
        self.received = []  # aggregated; ``on_message`` never reads it again
        self.nwh = self._make_nwh()
        self.spawn("nwh", self.nwh)

    def _make_nwh(self) -> NWH:
        directory = self.directory
        return NWH(
            my_value=self.proposal,
            validate=lambda dkg: tvrf.DKGVerify(directory, dkg),
            broadcast_kind=self.broadcast_kind,
        )

    def build_child(self, name: Any) -> Protocol:
        if name == "nwh":
            self.nwh = self._make_nwh()
            return self.nwh
        raise ValueError(f"unknown ADKG child {name!r}")

    def on_sub_output(self, name: Any, value: Any) -> None:
        if name == "nwh":
            self.output(value)
