"""The session layer: multiplexed roots, GC, bounded buffers, wire format."""

import asyncio
import random

import pytest

from repro import run_adkg
from repro.core.adkg import ADKG
from repro.crypto.keys import TrustedSetup
from repro.net import codec
from repro.net.delays import FixedDelay
from repro.net.envelope import Envelope
from repro.net.party import Party
from repro.net.runtime import Simulation
from repro.net.tcp_runtime import TCPRuntime
from repro.service import EpochDriver

from tests.net.helpers import EchoAll, Ping


def _sim(n=4, f=None, seed=1, **kwargs):
    setup = TrustedSetup.generate(n, f=f, seed=seed)
    kwargs.setdefault("delay_model", FixedDelay(1.0))
    return Simulation(setup, seed=seed, **kwargs)


# -- session multiplexing equivalence --------------------------------------------------


def test_interleaved_adkg_sessions_match_sequential(n=4, seed=7):
    """Two pipelined ADKG epochs == two back-to-back ones, per session.

    At f=0 every party folds all n (seeded, deterministic) contributions,
    so each session's agreed transcript is schedule-independent: running
    the sessions concurrently over one network must give exactly the
    transcripts of running them one after the other.
    """
    transcripts = {}
    for depth in (1, 2):
        sim = _sim(n=n, f=0, seed=seed)
        driver = EpochDriver(sim, epochs=2, pipeline_depth=depth)
        results = driver.run()
        assert [r.epoch for r in results] == [0, 1]
        assert all(r.agreed for r in results)
        transcripts[depth] = [r.transcript for r in results]
    assert transcripts[1] == transcripts[2]
    # Different epochs rotate to genuinely different keys...
    assert transcripts[1][0] != transcripts[1][1]
    # ...and session 0 is exactly what a classic single run produces.
    single = run_adkg(seed=seed, setup=TrustedSetup.generate(n, f=0, seed=seed))
    assert transcripts[1][0] == single.transcript
    # Session 0 lagged: epoch 1 completes first, yet the results come
    # back in epoch order with the same transcripts.
    from repro.net.adversary import SessionLagScheduler

    lagged = _sim(n=n, f=0, seed=seed, scheduler=SessionLagScheduler(0, 50.0))
    first, second = EpochDriver(lagged, epochs=2, pipeline_depth=2).run()
    assert (first.epoch, second.epoch) == (0, 1)
    assert second.completed_at < first.completed_at
    assert [first.transcript, second.transcript] == transcripts[2]


def test_interleaved_adkg_sessions_on_tcp_match_sim(n=4, seed=7):
    """The same two epochs, interleaved over real sockets, agree with sim."""
    sim = _sim(n=n, f=0, seed=seed)
    sim_results = EpochDriver(sim, epochs=2, pipeline_depth=2).run()

    setup = TrustedSetup.generate(n, f=0, seed=seed)
    runtime = TCPRuntime(setup, seed=seed)
    tcp_results = EpochDriver(runtime, epochs=2, pipeline_depth=2, timeout=60).run()
    assert [r.transcript for r in tcp_results] == [
        r.transcript for r in sim_results
    ]
    assert runtime.rejected_frames == 0


def test_sessions_injected_into_live_tcp_network():
    """A fresh session can start while the sockets are already up."""

    async def scenario():
        setup = TrustedSetup.generate(4, seed=2)
        runtime = TCPRuntime(setup, seed=2)
        await runtime.open()
        try:
            runtime.start(lambda party: EchoAll(), session=0)
            first = await runtime.wait_session(0, timeout=30)
            # Session 0 is done; the network is live — inject another.
            runtime.start(lambda party: EchoAll(), session=1)
            second = await runtime.wait_session(1, timeout=30)
        finally:
            await runtime.close()
        return first, second

    first, second = asyncio.run(scenario())
    assert all(value == frozenset(range(4)) for value in first.values())
    assert all(value == frozenset(range(4)) for value in second.values())


def test_cannot_start_same_session_twice():
    sim = _sim()
    sim.start(lambda party: EchoAll())
    with pytest.raises(RuntimeError):
        sim.start(lambda party: EchoAll())
    sim.start(lambda party: EchoAll(), session=1)  # a new sid is fine


# -- garbage collection ----------------------------------------------------------------


def test_completed_session_gc_frees_state_and_drops_stale():
    sim = _sim(n=4, seed=3)
    driver = EpochDriver(sim, epochs=2, pipeline_depth=1, root_factory=lambda p: ADKG())
    driver.run()
    for result in driver.results:
        for party in sim.parties:
            state = party.sessions.peek(result.session)
            assert state is not None and state.collected
            assert not state.instances
            assert not state.pending
            assert state.conditions.pending_count() == 0
            # The result tombstone survives collection.
            assert party.session_has_result(result.session)
    # Late traffic for a collected session is dropped and counted.
    party = sim.parties[0]
    stale_before = party.drop_stats["pending.stale"]
    party.deliver(
        Envelope(
            path=("nwh",), sender=1, recipient=0, payload=Ping(1), depth=1, session=0
        )
    )
    assert party.drop_stats["pending.stale"] == stale_before + 1
    assert "stale" in sim.metrics.counters("pending")


def test_run_root_refused_on_collected_session():
    party = Party(0, n=2, f=0)
    party.run_root(EchoAll(), session=5)
    assert party.collect_session(5)
    assert not party.collect_session(5)  # idempotent, reports no-op
    with pytest.raises(RuntimeError):
        party.run_root(EchoAll(), session=5)


# -- bounded pending buffers -----------------------------------------------------------


def test_pending_buffer_is_capped_and_drops_are_counted():
    party = Party(0, n=2, f=0)
    party.pending_cap = 3
    for i in range(5):
        party.deliver(
            Envelope(
                path=("later",), sender=1, recipient=0, payload=Ping(i), depth=1
            )
        )
    assert party.pending_messages() == 3
    assert party.drop_stats["pending.dropped"] == 2

    from repro.net.protocol import Protocol

    class Root(Protocol):
        def on_start(self):
            self.spawn("later", EchoAll())

    party.run_root(Root())
    # Only the capped prefix was buffered and replayed...
    assert party.instance(("later",)).seen == {1}
    # ...and the buffer accounting went back to zero.
    assert party.pending_messages() == 0


def test_pending_buffers_are_per_session():
    party = Party(0, n=2, f=0)
    party.pending_cap = 2
    for session in (0, 1):
        party.deliver(
            Envelope(
                path=("x",),
                sender=1,
                recipient=0,
                payload=Ping(session),
                depth=1,
                session=session,
            )
        )
    assert party.pending_messages(0) == 1
    assert party.pending_messages(1) == 1
    assert party.pending_messages() == 2
    party.collect_session(1)
    assert party.pending_messages() == 1  # session 1's buffer was freed


def test_unstarted_session_backlog_is_capped():
    """Spraying fictitious session ids cannot allocate unbounded state."""
    party = Party(0, n=2, f=0)
    party.session_backlog_cap = 3
    for sid in range(1, 6):
        party.deliver(
            Envelope(
                path=("x",), sender=1, recipient=0, payload=Ping(sid), depth=1,
                session=sid,
            )
        )
    assert party.sessions.unstarted_count == 3
    assert party.drop_stats["pending.dropped"] == 2
    # Installing a root converts backlog into a started session...
    party.run_root(EchoAll(), session=1)
    assert party.sessions.unstarted_count == 2
    # ...whose traffic is of course still accepted.
    party.deliver(
        Envelope(
            path=(), sender=1, recipient=0, payload=Ping(9), depth=1, session=1
        )
    )
    assert 1 in party.instance((), session=1).seen
    # Local accessors are trusted: reading a session's rng or condition
    # registry must not consume the budget reserved for network traffic.
    party.session_rng(77)
    party.conditions_for(78)
    assert party.sessions.unstarted_count == 2


def test_per_session_budget_bounds_distinct_path_spraying():
    """One message per fictitious path must not grow buckets unboundedly."""
    party = Party(0, n=2, f=0)
    party.pending_cap = 2
    budget = party.pending_budget
    assert budget == 8 * party.pending_cap
    for i in range(budget + 5):
        party.deliver(
            Envelope(
                path=("p", i), sender=1, recipient=0, payload=Ping(i), depth=1
            )
        )
    assert party.pending_messages(0) == budget
    assert len(party.sessions.peek(0).pending) == budget  # no empty buckets
    assert party.drop_stats["pending.dropped"] == 5


# -- per-session determinism -----------------------------------------------------------


def test_session_rng_streams_are_stable_and_distinct():
    party = Party(0, n=4, f=1, rng_label="party-1-0")
    base_draw = random.Random("party-1-0").random()
    assert party.session_rng(0).random() == base_draw  # session 0 = the label's
    first = party.session_rng(3).random()
    # The derived stream starts from the session seed (so it is
    # interleaving-independent)...
    assert random.Random("party-1-0-session-3").random() == first
    # ...is persistent — repeated draws advance, they don't restart
    # (independent samplings within a session must not correlate)...
    assert party.session_rng(3).random() != first
    # ...and differs from other sessions' streams.
    assert party.session_rng(4).random() != first


# -- wire format -----------------------------------------------------------------------


def test_envelope_session_round_trips_through_codec():
    env = Envelope(
        path=("nwh", 2), sender=1, recipient=0, payload=Ping(9), depth=4, session=7
    )
    decoded = codec.decode_envelope(codec.encode_envelope(env))
    assert decoded == env
    assert decoded.session == 7


def test_five_field_envelope_without_a_session_is_rejected():
    """An envelope is six fields; the pre-session spelling fails closed."""
    legacy = bytearray()
    legacy.append(0x10)  # struct tag
    legacy.append(1)  # envelope type id (single-byte varint)
    legacy.append(5)  # the old field count
    for value in (("later",), 1, 0, Ping(3), 2):  # path..depth, no session
        codec._encode_into(legacy, value)
    with pytest.raises(codec.CodecError, match="field count mismatch"):
        codec.decode_envelope(bytes(legacy))


def test_truncated_field_counts_still_rejected_for_other_structs():
    """Every struct requires its exact field count."""
    encoded = bytearray(codec.encode(Ping(3)))
    # Ping has one field; rewrite its field count to zero and drop the field.
    assert encoded[0] == 0x10
    prefix_len = 1
    _type_id, pos = codec._read_uvarint(bytes(encoded), prefix_len)
    truncated = bytes(encoded[:pos]) + b"\x00"
    with pytest.raises(codec.CodecError):
        codec.decode(truncated)


def test_negative_session_rejected_at_the_wire():
    env = Envelope(
        path=(), sender=1, recipient=0, payload=Ping(1), depth=1, session=-3
    )
    with pytest.raises(codec.CodecError):
        codec.decode_envelope(codec.encode_envelope(env))


def test_byzantine_mutation_preserves_the_session_id():
    from repro.net.adversary import MutateBehavior

    behavior = MutateBehavior(lambda payload, recipient, rng: Ping(99))
    env = Envelope(
        path=("x",), sender=0, recipient=1, payload=Ping(1), depth=1, session=6
    )
    [mutated] = behavior.transform_outgoing(env, random.Random(0))
    assert mutated.session == 6
    assert mutated.payload == Ping(99)
