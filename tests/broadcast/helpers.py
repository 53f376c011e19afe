"""Harness protocols and faulty dealers for broadcast tests."""

from typing import Any, Callable, Optional

from repro.broadcast import erasure
from repro.broadcast.ct_rbc import CTBroadcast, CTVal
from repro.broadcast.validated import make_broadcast
from repro.crypto.merkle import MerkleTree
from repro.net import codec
from repro.net.party import Party
from repro.net.protocol import Protocol
from repro.net.runtime import Simulation
from repro.crypto.keys import TrustedSetup


class BroadcastHarness(Protocol):
    """Root protocol that runs a single broadcast and outputs its value."""

    def __init__(
        self,
        kind: str,
        dealer: int,
        value: Any = None,
        validate: Optional[Callable[[Any], bool]] = None,
        dealer_cls: Optional[type] = None,
    ) -> None:
        super().__init__()
        self.kind = kind
        self.dealer = dealer
        self.value = value
        self.validate = validate
        self.dealer_cls = dealer_cls

    def on_start(self):
        if self.dealer_cls is not None and self.me == self.dealer:
            instance = self.dealer_cls(
                dealer=self.dealer, value=self.value, validate=self.validate
            )
            self.spawn("rbc", instance)
            return
        value = self.value if self.me == self.dealer else None
        self.spawn(
            "rbc",
            make_broadcast(self.kind, self.dealer, value=value, validate=self.validate),
        )

    def on_sub_output(self, name, value):
        self.output(value)


class NonCodewordCTDealer(CTBroadcast):
    """Commits to a fragment vector that is *not* a Reed-Solomon codeword.

    Every opening proof verifies, so honest parties echo; but any decode +
    re-encode fails the root check, so nobody ever delivers.
    """

    def on_start(self):
        data = codec.encode(self.value)
        fragments = erasure.rs_encode(data, self.f + 1, self.n)
        fragments[0] = bytes([fragments[0][0] ^ 0xFF]) + fragments[0][1:]
        tree = MerkleTree(fragments)
        for j in range(self.n):
            self.send(
                j,
                CTVal(
                    root=tree.root,
                    fragment=fragments[j],
                    proof=tree.prove(j),
                    claim_words=8,
                    k=self.f + 1,
                ),
            )


class UndecodableCTDealer(CTBroadcast):
    """Disperses a valid Reed-Solomon codeword of ``value``, a byte string
    the codec rejects.

    Every opening proof and the re-encode root check pass; only the decode
    of the reconstructed bytes fails, so nobody ever delivers.
    """

    def on_start(self):
        fragments = erasure.rs_encode(self.value, self.f + 1, self.n)
        tree = MerkleTree(fragments)
        for j in range(self.n):
            self.send(
                j,
                CTVal(
                    root=tree.root,
                    fragment=fragments[j],
                    proof=tree.prove(j),
                    claim_words=8,
                    k=self.f + 1,
                ),
            )


class TwoFaceCTDealer(CTBroadcast):
    """Sends fragments of two different messages to two halves of the parties."""

    def __init__(self, dealer, value=None, validate=None, other_value=None):
        super().__init__(dealer, value, validate)
        self.other_value = other_value if other_value is not None else ("evil",)

    def on_start(self):
        for which, value in ((0, self.value), (1, self.other_value)):
            data = codec.encode(value)
            fragments = erasure.rs_encode(data, self.f + 1, self.n)
            tree = MerkleTree(fragments)
            for j in range(self.n):
                if j % 2 == which:
                    self.send(
                        j,
                        CTVal(
                            root=tree.root,
                            fragment=fragments[j],
                            proof=tree.prove(j),
                            claim_words=8,
                            k=self.f + 1,
                        ),
                    )


def run_broadcast(
    n: int,
    kind: str,
    value: Any,
    dealer: int = 0,
    validate=None,
    dealer_cls=None,
    seed: int = 1,
    behaviors=None,
    run_to_quiescence: bool = True,
):
    """Run one broadcast simulation; returns the Simulation."""
    setup = TrustedSetup.generate(n, seed=seed)
    sim = Simulation(setup, seed=seed, behaviors=behaviors)

    def factory(party: Party) -> Protocol:
        return BroadcastHarness(
            kind=kind,
            dealer=dealer,
            value=value if party.index == dealer else None,
            validate=validate,
            dealer_cls=dealer_cls,
        )

    sim.start(factory)
    sim.run(stop=None if run_to_quiescence else Simulation.all_honest_output)
    return sim
