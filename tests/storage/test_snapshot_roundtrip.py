"""Snapshot/restore exactness for every protocol class.

The acceptance property: freeze/thaw every party mid-run and the run
completes with *identical* word/message totals and results to an
uninterrupted reference — at the default coalescing cap and at a cap of
one, where every send is flushed on its own.  The
thaw goes through the full codec blob (no in-memory aliasing), so this
also proves every protocol's declared state is genuinely serializable.
"""

import pytest

from repro.baselines.kms_adkg import ACSBasedADKG
from repro.broadcast.validated import make_broadcast
from repro.core.adkg import ADKG
from repro.core.gather import Gather
from repro.core.nwh import NWH
from repro.core.proposal_election import ProposalElection
from repro.crypto.keys import TrustedSetup
from repro.net.delays import FixedDelay
from repro.net.protocol import Protocol
from repro.net.runtime import Simulation


class BroadcastRoot(Protocol):
    """Root hosting one broadcast instance (dealer value from config)."""

    def __init__(self, kind: str, dealer: int, value) -> None:
        super().__init__()
        self.kind = kind
        self.dealer = dealer
        self.value = value

    def on_start(self):
        mine = self.value if self.me == self.dealer else None
        self.spawn("rbc", make_broadcast(self.kind, self.dealer, value=mine))

    def on_sub_output(self, name, value):
        self.output(value)

    def build_child(self, name):
        assert name == "rbc"
        return make_broadcast(self.kind, self.dealer, value=None)


CASES = {
    "bracha": lambda p: BroadcastRoot("bracha", 0, (1, 2, 3)),
    "ct": lambda p: BroadcastRoot("ct", 0, (1,) * 8),
    "gather": lambda p: Gather(my_value=(1, p.index)),
    "proposal-election": lambda p: ProposalElection(proposal=("prop", p.index)),
    "nwh": lambda p: NWH(my_value=("val", p.index)),
    "adkg": lambda p: ADKG(),
    "acs-baseline": lambda p: ACSBasedADKG(),
}

N = 4
SEED = 3


def _build(factory, cap: int = Simulation.batch_cap_envelopes) -> Simulation:
    setup = TrustedSetup.generate(N, seed=SEED)
    sim = Simulation(setup, seed=SEED, delay_model=FixedDelay(1.0))
    sim.batch_cap_envelopes = cap
    sim.start(factory)
    return sim


def _freeze_thaw_all(sim: Simulation, factory) -> None:
    for i in range(sim.n):
        blob = sim.parties[i].freeze()
        assert isinstance(blob, bytes) and blob  # a real codec blob
        clone = sim.build_party(i)
        clone.thaw(blob, root_factory=factory)
        sim.parties[i] = clone


@pytest.mark.parametrize("cap", (256, 1), ids=("batched", "unbatched"))
@pytest.mark.parametrize("name", sorted(CASES))
def test_roundtrip_is_exact(name, cap):
    factory = CASES[name]
    reference = _build(factory, cap)
    reference.run()  # to quiescence: every word the protocol ever sends

    sim = _build(factory, cap)
    # Freeze/thaw every party a third of the way through the reference
    # delivery count — mid-protocol, after real state accumulated.
    for _ in range(max(1, reference.steps // 3)):
        sim.step()
    _freeze_thaw_all(sim, factory)
    sim.run()

    assert sim.metrics.words_total == reference.metrics.words_total
    assert sim.metrics.messages_total == reference.metrics.messages_total
    assert sim.steps == reference.steps
    assert sim.honest_results() == reference.honest_results()


def test_repeated_freeze_points_adkg():
    """The full stack round-trips at several crash depths, not just one."""
    factory = CASES["adkg"]
    reference = _build(factory)
    reference.block_on(reference.wait_session(0))
    for k in (1, reference.steps // 2, reference.steps - 1):
        sim = _build(factory)
        for _ in range(k):
            sim.step()
        _freeze_thaw_all(sim, factory)
        sim.block_on(sim.wait_session(0))
        assert sim.honest_results() == reference.honest_results()
        assert sim.metrics.words_total == reference.metrics.words_total


def test_a_second_freeze_walks_no_aggregate_and_cold_equals_warm():
    """A checkpoint re-meets the transcripts the previous one encoded: an
    unchanged party freezes to equal bytes with zero aggregate walks, and
    the blob is the same whether the codec's memo is warm or empty."""
    from repro.net import codec

    def build() -> Simulation:
        setup = TrustedSetup.generate(7, seed=SEED)
        sim = Simulation(setup, seed=SEED, delay_model=FixedDelay(1.0))
        sim.start(CASES["adkg"])
        return sim

    reference, sim = build(), build()
    reference.block_on(reference.wait_session(0))
    for _ in range(reference.steps // 2):  # mid-run: proposals and keys in flight
        sim.step()
    party = sim.parties[0]
    stats = codec.encode_stats
    first = party.freeze()
    calls, misses = stats["aggregate.calls"], stats["aggregate.misses"]
    assert party.freeze() == first
    assert stats["aggregate.calls"] > calls  # the state does hold aggregates
    assert stats["aggregate.misses"] == misses  # ... and none was walked again
    codec._payload_memo.clear()
    assert party.freeze() == first
    assert stats["aggregate.misses"] > misses


def test_thaw_requires_matching_party():
    factory = CASES["gather"]
    sim = _build(factory)
    for _ in range(10):
        sim.step()
    blob = sim.parties[0].freeze()
    wrong = sim.build_party(1)
    with pytest.raises(ValueError, match="cannot thaw"):
        wrong.thaw(blob, root_factory=factory)


def test_thaw_requires_pristine_party():
    factory = CASES["gather"]
    sim = _build(factory)
    for _ in range(10):
        sim.step()
    blob = sim.parties[0].freeze()
    with pytest.raises(RuntimeError, match="pristine"):
        sim.parties[0].thaw(blob, root_factory=factory)


def _claiming(version: int):
    """``(sim, factory, snapshot value)`` of a mid-run party, the value
    naming ``version``."""
    from repro.net import codec

    factory = CASES["gather"]
    sim = _build(factory)
    for _ in range(10):
        sim.step()
    value = list(codec.decode_shared(sim.parties[0].freeze()))
    value[1] = version
    return sim, factory, tuple(value)


def test_snapshot_rejects_future_version():
    from repro.net import codec
    from repro.net import party as party_mod

    assert party_mod.SNAPSHOT_VERSION == 3
    sim, factory, value = _claiming(party_mod.SNAPSHOT_VERSION + 1)
    with pytest.raises(ValueError, match="version 4"):
        sim.build_party(0).thaw(codec.encode_shared(value), root_factory=factory)


def test_version_1_is_refused_with_the_version_error():
    """Version 1 blobs were plain codec values of the same tuple.  No
    reader is kept for them: ``thaw`` refuses one unread, by the version
    error, whatever it claims — as it refuses a blob in today's format
    that names version 1."""
    from repro.net import codec

    sim, factory, value = _claiming(1)
    for blob in (codec.encode(value), codec.encode((*value[:1], 2, *value[2:]))):
        assert blob[:1] != codec.SHARED_OPEN
        with pytest.raises(ValueError, match="version"):
            sim.build_party(0).thaw(blob, root_factory=factory)
    with pytest.raises(ValueError, match="version 1"):
        sim.build_party(0).thaw(codec.encode_shared(value), root_factory=factory)


def test_thaw_restores_the_sharing_the_party_had():
    """One transcript, one object: the aggregate in what an RBC decoded,
    in what it output and in what Gather collected from it is the same
    object after a thaw, as it was before the freeze."""
    import hashlib

    from repro.net import codec
    from tests.net.helpers import aggregates_in

    setup = TrustedSetup.generate(N, seed=SEED)
    sim = Simulation(setup, seed=SEED, delay_model=FixedDelay(1.0))
    sim.start(CASES["adkg"])
    sim.block_on(sim.wait_session(0))
    blob = sim.parties[0].freeze()
    clone = sim.build_party(0)
    clone.thaw(blob, root_factory=CASES["adkg"])
    for party in (sim.parties[0], clone):
        shared = 0
        for path, rbc in party.sessions.peek(0).instances.items():
            if path[-2:-1] != ("gather",) or path[-1][0] != "vrb":
                continue
            gather = party.instance(path[:-1])
            [decoded] = rbc._decoded.values()
            output = list(aggregates_in(rbc.output_value))
            assert output  # a dealer's value carries its PVSS contribution
            for mine, theirs, collected in zip(
                output,
                aggregates_in(decoded),
                aggregates_in(gather.values[path[-1][1]]),
                strict=True,
            ):
                assert mine is theirs is collected
                # ... and each of the three places names it by reference.
                name = codec.SHARED_OPEN + hashlib.sha256(codec.encode(mine)).digest()
                assert blob.count(name) >= 3
                shared += 1
        assert shared >= N - 1


def test_freezing_a_parked_payload_leaves_the_memo_plain():
    """A payload waits in a pending buffer, carrying a transcript nothing
    has encoded yet.  ``freeze`` names the transcript in the payload and
    walks it once, plainly, for the table; neither the payload nor the
    transcript may come out of it holding reference-bearing bytes."""
    import random

    from repro.core.certificates import KeyTuple
    from repro.core.nwh import Suggest
    from repro.crypto import pvss
    from repro.net import codec
    from repro.net.envelope import Envelope
    from tests.net.helpers import assert_memo_holds_only_plain_walks

    sim = _build(CASES["gather"])
    setup = TrustedSetup.generate(N, seed=SEED)
    dealt = [
        pvss.deal(setup.directory, setup.secret(i), random.Random(f"parked-{i}"))
        for i in range(2)
    ]
    transcript = pvss.aggregate(setup.directory, dealt)
    parked = Suggest(key=KeyTuple(0, transcript, None), view=1)
    party = sim.build_party(0)
    party.deliver(Envelope(("not", "spawned"), 1, 0, parked, 1, 0))
    assert party.pending_messages() == 1
    codec._payload_memo.clear()
    blob = party.freeze()
    assert blob[:2] == codec.SHARED_OPEN + b"\x01"
    assert codec._payload_memo.get(parked) is None  # walked past the memo
    assert codec._payload_memo.get(transcript) is not None
    assert assert_memo_holds_only_plain_walks() >= 1
    clone = sim.build_party(0)
    clone.thaw(blob)
    [(sender, thawed)] = clone.sessions.peek(0).pending[("not", "spawned")]
    assert (sender, thawed) == (1, parked)
    assert codec.encode(thawed) == codec.encode(parked)
    assert clone.freeze() == blob
