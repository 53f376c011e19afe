"""The shared Transport base and the TCP socket runtime."""

import asyncio
import re

import pytest

from repro import run_adkg
from repro.core.adkg import ADKG
from repro.crypto import schnorr, threshold_vrf as tvrf
from repro.crypto.keys import TrustedSetup
from repro.net import codec
from repro.net.adversary import SilentBehavior
from repro.net.envelope import Envelope
from repro.net.runtime import Simulation
from repro.net.tcp_runtime import HELLO_DOMAIN, HELLO_MAGIC, TCPRuntime
from repro.net.transport import (
    TRANSPORT_KINDS,
    Transport,
    make_run_transport,
    make_transport,
)

from tests.net.helpers import EchoAll, Ping, PingPong


def _run(coro):
    return asyncio.run(coro)


def _frame(body):
    return len(body).to_bytes(4, "big") + body


def _hello(setup, signer, sender, recipient, generation):
    """A hello frame claiming ``sender``, signed with ``signer``'s key."""
    directory = setup.directory
    signature = schnorr.sign(
        directory.sign_group, setup.secret(signer).sign, HELLO_DOMAIN,
        directory.session, sender, recipient, generation,
    )  # fmt: skip
    return _frame(bytes((HELLO_MAGIC,)) + codec.encode((sender, generation, signature)))


async def _open_bound(runtime):
    """Open the runtime and wait until every link's own hello is bound, so
    a raw connection's hello cannot overtake the link it names."""
    await runtime._open()
    pairs = runtime.n * (runtime.n - 1)
    await runtime.wait_until(lambda rt: len(rt._hello_generations) == pairs, timeout=5)


# -- one shared pipeline ---------------------------------------------------------------


def test_runtimes_share_one_pipeline():
    """Flush/behavior/metrics logic exists once, on the Transport base."""
    for runtime in (Simulation, TCPRuntime):
        assert issubclass(runtime, Transport)
        assert "_flush_party" not in runtime.__dict__
        assert "_deliver_buffered" not in runtime.__dict__
        assert runtime._flush_party is Transport._flush_party
        assert runtime._deliver_buffered is Transport._deliver_buffered
    # Frames are built where a socket carries them: TCP holds the framing.
    assert not {"_batch_frame", "batch_cap_bytes"} & set(vars(Transport))
    assert {"_batch_frame", "batch_cap_bytes"} <= set(vars(TCPRuntime))


@pytest.mark.parametrize(
    "kind, n, root, cap",
    [
        ("sim", 4, ADKG, 1),
        ("sim", 16, ADKG, None),
        ("tcp", 4, PingPong, 1),
    ],
)
def test_no_send_leaves_inside_the_delivery_that_caused_it(
    monkeypatch, kind, n, root, cap
):
    """Sends leave only at the flush: no batch is transmitted while a
    delivery is on the stack, so delivery observers (the WAL recorder)
    always run before any of that delivery's reactions reach the wire.
    (Over TCP, PingPong's replies are sends made inside a delivery.)"""
    if cap is not None:
        monkeypatch.setattr(Transport, "batch_cap_envelopes", cap)
    transport = make_run_transport(kind, TrustedSetup.generate(n, seed=9), seed=9)
    deliver, transmit = transport._deliver_buffered, transport._transmit_coalesced
    depth, transmitted, inside = [0], [0], [0]

    def delivering(envelope):
        depth[0] += 1
        try:
            return deliver(envelope)
        finally:
            depth[0] -= 1

    def transmitting(*batch):
        transmitted[0] += 1
        inside[0] += depth[0] > 0
        transmit(*batch)

    transport._deliver_buffered = delivering
    transport._transmit_coalesced = transmitting
    transport.run_sync(lambda party: root(), timeout=30)
    assert transmitted[0] > 0
    assert inside[0] == 0


def test_make_transport_factory():
    setup = TrustedSetup.generate(4, seed=1)
    assert isinstance(make_transport("sim", setup), Simulation)
    assert isinstance(make_transport("tcp", setup), TCPRuntime)
    with pytest.raises(ValueError):
        make_transport("carrier-pigeon", setup)
    # TCP always meters bytes; asking it not to is refused, not ignored.
    with pytest.raises(ValueError):
        make_transport("tcp", setup, measure_bytes=False)


def test_the_asyncio_kind_is_refused_naming_the_remaining_kinds(capsys):
    """Two runtimes remain: every entry point that takes a transport name
    refuses ``"asyncio"`` and names them."""
    from repro.cli import main
    from repro.service import run_beacon

    assert TRANSPORT_KINDS == ("sim", "tcp")
    setup = TrustedSetup.generate(4, seed=1)
    for refuse in (
        lambda: make_transport("asyncio", setup),
        lambda: run_adkg(n=4, seed=1, transport="asyncio"),
        lambda: run_beacon(n=4, epochs=1, transport="asyncio"),
    ):
        with pytest.raises(ValueError, match=r"\('sim', 'tcp'\)"):
            refuse()
    for command in ("run", "beacon"):
        with pytest.raises(SystemExit) as usage:
            main([command, "-n", "4", "--transport", "asyncio"])
        assert usage.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert re.search(r"choose from '?sim'?, '?tcp'?\)", err)


def test_word_and_byte_metrics_agree_across_transports():
    """The same protocol costs the same words *and* codec bytes everywhere."""
    totals = {}
    for kind in ("sim", "tcp"):
        setup = TrustedSetup.generate(4, seed=6)
        kwargs = {"measure_bytes": True} if kind != "tcp" else {}
        transport = make_transport(kind, setup, seed=6, **kwargs)
        if kind == "sim":
            transport.start(lambda party: EchoAll())
            transport.run()
        else:
            _run(transport.run_root(lambda party: EchoAll(), timeout=10))
        totals[kind] = (
            transport.metrics.messages_total,
            transport.metrics.words_total,
            transport.metrics.bytes_total,
        )
    assert totals["sim"] == totals["tcp"]
    messages, words, nbytes = totals["sim"]
    assert messages == 4 * 3
    assert words == 4 * 3 * 2
    assert nbytes > 0


def test_too_many_corruptions_rejected_everywhere():
    setup = TrustedSetup.generate(4, seed=1)
    for kind in TRANSPORT_KINDS:
        with pytest.raises(ValueError):
            make_transport(
                kind,
                setup,
                behaviors={1: SilentBehavior(), 2: SilentBehavior()},
            )


@pytest.mark.parametrize(
    "behaviors, error",
    [
        ({99: SilentBehavior()}, ValueError),
        ({-1: SilentBehavior()}, ValueError),
        ({"a": SilentBehavior()}, ValueError),
        ({1: "x"}, TypeError),
    ],
)
def test_a_behavior_map_names_real_parties(behaviors, error):
    """Each map fits the f = 1 budget but corrupts no party of n = 4."""
    setup = TrustedSetup.generate(4, seed=1)
    for kind in TRANSPORT_KINDS:
        with pytest.raises(error):
            make_transport(kind, setup, behaviors=behaviors)


# -- the TCP runtime -------------------------------------------------------------------


def test_ping_pong_over_tcp():
    setup = TrustedSetup.generate(4, seed=1)
    runtime = TCPRuntime(setup, seed=1)
    results = _run(runtime.run_root(lambda party: PingPong(rounds=3), timeout=30))
    assert results[0] == 3
    assert results[1] == 3
    assert runtime.metrics.counts["tcp.rejected_frames"] == 0


def test_echo_all_over_tcp():
    setup = TrustedSetup.generate(4, seed=2)
    runtime = TCPRuntime(setup, seed=2)
    results = _run(runtime.run_root(lambda party: EchoAll(), timeout=30))
    assert all(value == frozenset(range(4)) for value in results.values())
    assert runtime.metrics.bytes_total > 0


def test_silent_behavior_starves_tcp_echo_all():
    setup = TrustedSetup.generate(4, seed=3)
    runtime = TCPRuntime(setup, behaviors={3: SilentBehavior()}, seed=3)
    with pytest.raises(asyncio.TimeoutError):
        _run(runtime.run_root(lambda party: EchoAll(), timeout=0.5))


def test_malformed_frames_are_dropped_not_delivered():
    setup = TrustedSetup.generate(4, seed=9)
    runtime = TCPRuntime(setup, seed=9)

    async def scenario():
        await _open_bound(runtime)
        try:
            _reader, writer = await asyncio.open_connection(
                runtime.host, runtime.ports[0]
            )
            writer.write(_hello(setup, 1, 1, 0, generation=1))  # party 1 speaks
            # Codec garbage...
            writer.write((3).to_bytes(4, "big") + b"\xfe\xfe\xfe")
            # ...then four bare envelope bodies: none opens with the batch
            # magic, so each is refused as a frame before any check of its
            # envelope (a wrong recipient, an out-of-range sender, an
            # unhashable path, a dict where Ping holds an int) could run.
            # test_a_batch_envelope_the_receiver_cannot_take_is_refused
            # reaches the per-envelope checks.
            for bare in (
                Envelope(path=(), sender=1, recipient=2, payload=Ping(1), depth=1),
                Envelope(path=(), sender=999, recipient=0, payload=Ping(1), depth=1),
                Envelope(path=(["x"],), sender=1, recipient=0, payload=Ping(1), depth=1),
                Envelope(path=(), sender=1, recipient=0, payload=Ping({"a": 1}), depth=1),
            ):
                writer.write(_frame(codec.encode_envelope(bare)))
            await writer.drain()
            await asyncio.sleep(0.2)
            writer.close()
        finally:
            await runtime.close()

    _run(scenario())
    assert runtime.metrics.counts["tcp.rejected_frames"] == 5
    assert runtime.metrics.deliveries == 0


def test_a_batch_envelope_the_receiver_cannot_take_is_refused():
    """Well-formed batch frames after a valid hello reach the receiver's
    per-envelope checks: an envelope addressed to another party and one
    with a negative depth are each counted and never delivered, while the
    valid envelope beside them in the same frame is."""
    setup = TrustedSetup.generate(4, seed=9)
    runtime = TCPRuntime(setup, seed=9)
    delivered = []
    runtime.add_delivery_observer(delivered.append)
    misaddressed = Envelope(path=(), sender=1, recipient=2, payload=Ping(1), depth=1)
    negative = Envelope(path=(), sender=1, recipient=0, payload=Ping(2), depth=-1)
    valid = Envelope(path=(), sender=1, recipient=0, payload=Ping(3), depth=1)

    async def scenario():
        await _open_bound(runtime)
        try:
            _reader, writer = await asyncio.open_connection(
                runtime.host, runtime.ports[0]
            )
            writer.write(_hello(setup, 1, 1, 0, generation=1))
            writer.write(_frame(codec.encode_batch([misaddressed])))
            writer.write(_frame(codec.encode_batch([negative, valid])))
            await writer.drain()
            await runtime.wait_until(
                lambda rt: rt.metrics.counts["tcp.rejected_frames"] >= 2, timeout=5
            )
            await runtime.wait_until(lambda rt: delivered, timeout=5)
            writer.close()
        finally:
            await runtime.close()

    _run(scenario())
    assert runtime.metrics.counts["tcp.rejected_frames"] == 2
    assert delivered == [valid]


@pytest.mark.parametrize(
    "case",
    [
        "no hello",
        "hello signed by another party",
        "replayed hello",
        "sender not the bound peer",
    ],
)
def test_a_connection_speaks_only_as_the_peer_its_hello_binds(case):
    """A raw peer cannot claim party 2: a frame before any hello, a hello
    for 2 under party 3's key, party 2's own hello replayed at the
    generation its link already bound, and an envelope from 2 on a
    connection bound to 3 are each counted and deliver nothing."""
    setup = TrustedSetup.generate(4, seed=9)
    runtime = TCPRuntime(setup, seed=9)
    delivered = []
    runtime.add_delivery_observer(delivered.append)
    forged = _frame(
        codec.encode_batch(
            [Envelope(path=(), sender=2, recipient=0, payload=Ping(1), depth=1)]
        )
    )
    opening = {
        "no hello": b"",
        "hello signed by another party": _hello(setup, 3, 2, 0, generation=1),
        "replayed hello": _hello(setup, 2, 2, 0, generation=0),
        "sender not the bound peer": _hello(setup, 3, 3, 0, generation=1),
    }[case]

    async def scenario():
        await _open_bound(runtime)
        try:
            _reader, writer = await asyncio.open_connection(
                runtime.host, runtime.ports[0]
            )
            writer.write(opening + forged)
            await writer.drain()
            await runtime.wait_until(
                lambda rt: rt.metrics.counts["tcp.rejected_frames"], timeout=5
            )
            await asyncio.sleep(0.05)  # room for a wrongful delivery
            writer.close()
        finally:
            await runtime.close()

    _run(scenario())
    assert runtime.metrics.counts["tcp.rejected_frames"] == 1
    assert delivered == []
    assert runtime.metrics.deliveries == 0


def test_adkg_over_tcp_matches_simulator_transcript():
    """Acceptance: same seed, same agreed transcript as the simulator.

    With ``f=0`` every party aggregates all ``n`` (seeded, deterministic)
    contributions, so the agreed transcript is schedule-independent and
    must be byte-identical to the simulator's for the same seed.
    """
    n, seed = 4, 7
    sim_result = run_adkg(seed=seed, setup=TrustedSetup.generate(n, f=0, seed=seed))
    setup = TrustedSetup.generate(n, f=0, seed=seed)
    runtime = TCPRuntime(setup, seed=seed)
    results = _run(runtime.run_root(lambda party: ADKG(), timeout=60))
    transcripts = list(results.values())
    assert all(t == transcripts[0] for t in transcripts)
    assert transcripts[0] == sim_result.transcript
    assert runtime.metrics.counts["tcp.rejected_frames"] == 0
    assert runtime.metrics.bytes_total > 0


def test_adkg_over_tcp_with_faults_agrees_and_verifies():
    n, seed = 4, 1
    setup = TrustedSetup.generate(n, seed=seed)
    runtime = TCPRuntime(setup, seed=seed)
    results = _run(runtime.run_root(lambda party: ADKG(), timeout=60))
    transcripts = list(results.values())
    assert len(transcripts) == n
    assert all(t == transcripts[0] for t in transcripts)
    assert tvrf.DKGVerify(setup.directory, transcripts[0])


def test_background_task_errors_propagate_not_timeout():
    """A protocol bug must surface as the real exception, not a timeout."""
    from repro.net.protocol import Protocol

    class Exploder(Protocol):
        def on_start(self):
            self.multicast(Ping(self.me))

        def on_message(self, sender, payload):
            raise RuntimeError("handler bug")

    runtime = make_transport("tcp", TrustedSetup.generate(4, seed=4), seed=4)
    with pytest.raises(RuntimeError, match="handler bug"):
        _run(runtime.run_root(lambda party: Exploder(), timeout=5))


def test_forged_unencodable_payload_is_dropped_not_fatal():
    """A Byzantine transform producing codec garbage must not kill the run,
    and both runtimes refuse and count it alike: a corrupted send is bytes,
    and these are bytes the codec cannot make, or (a negative depth) bytes
    a TCP receiver refuses."""
    from dataclasses import dataclass

    from repro.net.adversary import Behavior, MutateBehavior
    from repro.net.payload import Payload

    @dataclass(frozen=True)
    class Unregistered(Payload):
        junk: int

    class NegativeDepth(Behavior):
        def transform_outgoing(self, envelope, rng):
            e = envelope
            return [Envelope(e.path, e.sender, e.recipient, e.payload, -1, e.session)]

    forgeries = {
        "unregistered payload": lambda: MutateBehavior(
            lambda p, recipient, rng: Unregistered(1)
        ),
        "negative depth": NegativeDepth,
    }
    for forgery, behavior in forgeries.items():
        for kind in TRANSPORT_KINDS:
            setup = TrustedSetup.generate(4, seed=5)
            runtime = make_transport(
                kind, setup, behaviors={3: behavior()}, seed=5
            )
            # The forged messages never leave, so the corrupted party is
            # effectively silent: EchoAll (which waits for all n) starves —
            # the simulator quiesces, TCP times out — and nothing dies with
            # a CodecError.
            stalled = RuntimeError if kind == "sim" else asyncio.TimeoutError
            with pytest.raises(stalled):
                runtime.run_sync(lambda party: EchoAll(), timeout=0.5)
            where = (forgery, kind)
            assert runtime.metrics.counters("adversary") == {"codec_refused": 3}, where
            assert runtime.metrics.messages_total == 3 * 3, where
            assert runtime.metrics.counters("tcp") == {}, where
            assert all(3 not in runtime.parties[i].instance(()).seen for i in range(3))


def test_an_unopened_tcp_runtime_meters_its_sends_and_drops_each():
    """A send is metered as offered load; with no connection to carry it
    (the runtime was never opened) it is dropped where its frame would be
    built, and counted."""
    runtime = TCPRuntime(TrustedSetup.generate(4, seed=2), seed=2)
    runtime.start(lambda party: EchoAll())
    assert runtime.metrics.messages_total == 4 * 3
    assert runtime.metrics.counters("tcp") == {"dropped_sends": 4 * 3}
    assert runtime.metrics.frames_total == 0


def test_byte_metering_is_observational_on_in_process_transports():
    """measure_bytes must never change which messages arrive on sim.

    A corrupted party's changed payload crosses the codec whether or not
    bytes are metered: the recipients get the decoded copy either way,
    never the object the adversary built, and turning byte metering on
    only adds its bytes.
    """
    from repro.net.adversary import MutateBehavior

    forged = Ping(99)
    outcomes = []
    for measure in (False, True):
        setup = TrustedSetup.generate(4, seed=5)
        sim = Simulation(
            setup,
            behaviors={3: MutateBehavior(lambda p, r, rng: forged)},
            seed=5,
            measure_bytes=measure,
        )
        received = []
        sim.add_delivery_observer(
            lambda e: received.append(e.payload) if e.sender == 3 else None
        )
        sim.start(lambda party: EchoAll())
        sim.run()
        assert len(received) == 3
        assert all(p == forged and p is not forged for p in received)
        outcomes.append(
            (
                sim.metrics.messages_total,
                sim.metrics.words_total,
                sim.metrics.counters("adversary"),
                [sim.parties[i].instance(()).seen for i in range(4)],
            )
        )
    assert outcomes[0] == outcomes[1]
    messages, _words, refused, seen = outcomes[0]
    assert messages == 4 * 3
    assert refused == {}
    assert all(s == {0, 1, 2, 3} for s in seen)


def test_oversized_frame_refused_at_sender(monkeypatch):
    """The frame bound is enforced at build time, not just at the receiver."""
    import repro.net.tcp_runtime as tcp_runtime_mod
    from tests.net.helpers import Blob

    monkeypatch.setattr(tcp_runtime_mod, "MAX_FRAME_BYTES", 64)
    setup = TrustedSetup.generate(4, seed=1)
    runtime = TCPRuntime(setup, seed=1)
    small = Envelope(path=(), sender=0, recipient=1, payload=Ping(1), depth=1)
    assert runtime._batch_frame(codec.encode_batch([small]))
    big = Envelope(
        path=(), sender=0, recipient=1, payload=Blob(data=tuple(range(64))), depth=1
    )
    with pytest.raises(codec.CodecError):
        runtime._batch_frame(codec.encode_batch([big]))


def test_partial_open_failure_cleans_up_tasks_and_servers():
    """A mid-_open connect failure must cancel pumps and close servers."""
    setup = TrustedSetup.generate(4, seed=6)
    runtime = TCPRuntime(setup, seed=6)
    orig_open = runtime._open

    async def failing_open():
        await orig_open()  # everything opened, tasks spawned...
        raise ConnectionRefusedError("simulated connect failure mid-open")

    runtime._open = failing_open
    with pytest.raises(ConnectionRefusedError):
        _run(runtime.run_root(lambda party: EchoAll(), timeout=5))
    assert not runtime._tasks
    assert not runtime._servers


def test_honest_unencodable_payload_fails_loudly_without_leaking_tasks():
    """An honest unregistered payload raises at start; no tasks leak."""
    from dataclasses import dataclass

    from repro.net.payload import Payload
    from repro.net.protocol import Protocol

    @dataclass(frozen=True)
    class NotRegistered(Payload):
        x: int

    class BadRoot(Protocol):
        def on_start(self):
            self.multicast(NotRegistered(1))

    setup = TrustedSetup.generate(4, seed=6)
    runtime = TCPRuntime(setup, seed=6)
    with pytest.raises(codec.CodecError):
        _run(runtime.run_root(lambda party: BadRoot(), timeout=5))
    assert not runtime._tasks  # pumps/readers were cancelled, not leaked


def test_run_sync_is_uniform_across_transports():
    for kind in TRANSPORT_KINDS:
        setup = TrustedSetup.generate(4, seed=2)
        transport = make_transport(kind, setup, seed=2)
        results = transport.run_sync(lambda party: EchoAll(), timeout=30)
        assert all(value == frozenset(range(4)) for value in results.values())
        assert transport.round_measure() > 0


def test_run_adkg_transport_parameter():
    result = run_adkg(n=4, seed=1, transport="tcp")
    assert result.transport == "tcp"
    assert result.agreed
    assert result.bytes_total > 0
    with pytest.raises(ValueError):
        run_adkg(n=4, seed=1, transport="smoke-signals")
    # Simulator-only knobs are rejected, not silently ignored.
    with pytest.raises(ValueError):
        run_adkg(n=4, seed=1, transport="tcp", to_quiescence=True)


# -- the delivery-observer seam --------------------------------------------------------


@pytest.mark.parametrize("kind", TRANSPORT_KINDS)
def test_delivery_observers_see_each_network_delivery_once(kind):
    """Every observer is called once per delivered network envelope, in
    nondecreasing ``now()``; observers coexist, and removing one detaches
    only that one (removing it again is a no-op)."""
    transport = make_transport(kind, TrustedSetup.generate(4, seed=1), seed=1)
    seen, times, to_zero, removed = [], [], [], []

    def observe(envelope):
        seen.append(envelope)
        times.append(transport.now())

    transport.add_delivery_observer(observe)
    transport.add_delivery_observer(
        lambda envelope: envelope.recipient == 0 and to_zero.append(envelope)
    )
    transport.add_delivery_observer(removed.append)
    transport.remove_delivery_observer(removed.append)
    transport.remove_delivery_observer(removed.append)
    transport.run_sync(lambda party: EchoAll(), timeout=10)
    # 4 parties x 3 remote recipients = 12 network deliveries.
    assert sorted((e.sender, e.recipient) for e in seen) == [
        (i, j) for i in range(4) for j in range(4) if i != j
    ]
    assert all(isinstance(envelope.payload, Ping) for envelope in seen)
    assert times == sorted(times)
    assert len(to_zero) == 3 and not removed


# -- the driving surface ---------------------------------------------------------------


async def _two_sessions(transport):
    """One scenario, written once: every runtime must run it unchanged."""
    clock = [transport.now()]
    await transport.open()
    try:
        for session in (0, 1):
            transport.start(lambda party: EchoAll(), session=session)
        waiting = {0, 1}
        while waiting:
            waiting -= set(await transport.wait_any(waiting, timeout=30))
            clock.append(transport.now())
        for session in (0, 1):
            assert transport.completion_time(session) <= transport.now()
        await transport.sleep(0.01)
        clock.append(transport.now())
    finally:
        await transport.close()
    assert clock == sorted(clock)
    return [transport.honest_results(session) for session in (0, 1)]


def test_one_coroutine_drives_every_runtime():
    seen = {}
    for kind in TRANSPORT_KINDS:
        transport = make_transport(kind, TrustedSetup.generate(4, seed=8), seed=8)
        outputs = transport.block_on(_two_sessions(transport))
        seen[kind] = (outputs, transport.metrics.words_total)
    assert seen["sim"] == seen["tcp"]
    assert seen["sim"][0] == [{i: frozenset(range(4)) for i in range(4)}] * 2
    # The simulator's awaitables never suspend: a bare send(None) runs the
    # whole scenario to its return, no event loop anywhere.
    sim = make_transport("sim", TrustedSetup.generate(4, seed=8), seed=8)
    with pytest.raises(StopIteration) as finished:
        _two_sessions(sim).send(None)
    assert finished.value.value == seen["sim"][0]


def test_a_stalled_session_fails_by_name_not_silently():
    from repro.net.protocol import Protocol

    sim = make_transport("sim", TrustedSetup.generate(4, seed=8), seed=8)
    sim.start(lambda party: Protocol(), session=3)
    with pytest.raises(RuntimeError, match=r"quiesced with sessions \[3\]"):
        sim.block_on(sim.wait_session(3))
    runtime = make_transport("tcp", TrustedSetup.generate(4, seed=8), seed=8)
    with pytest.raises(asyncio.TimeoutError, match=r"\[0\] incomplete after 0.2s"):
        runtime.run_sync(lambda party: Protocol(), timeout=0.2)
