"""Self-healing TCP: supervision and reconnect with backoff.

A link is a bounded queue, a socket and an EOF watcher.  A run whose
connections are hard-killed mid-ADKG still reaches agreement (with
``tcp.conn_lost``/``tcp.reconnects`` proving the healing path actually
ran): these kill tests are the kill-and-heal gate.  A partition of f
parties that heals still reaches agreement, and a killed-and-healed
connection never double-counts ``tcp.rejected_frames`` or inflates the
protocol's word/byte totals (resent frames are wire traffic, not
protocol traffic).
"""

import asyncio

import pytest

from repro import run_adkg
from repro.core.adkg import ADKG
from repro.crypto.keys import TrustedSetup
from repro.net import codec
from repro.net.tcp_runtime import TCPRuntime

from tests.net.helpers import EchoAll


def _agreeing(results, n):
    values = list(results.values())
    return len(values) == n and all(v == values[0] for v in values)


def test_a_former_heartbeat_body_is_a_malformed_frame():
    """``0xE7 0x01`` was the heartbeat's body; no idle timer writes it now,
    so it is one more frame ``decode_batch`` refuses and the receiver counts."""
    with pytest.raises(codec.CodecError):
        codec.decode_batch(b"\xe7\x01")

    async def scenario():
        runtime = TCPRuntime(TrustedSetup.generate(3, seed=2), seed=2)
        await runtime.open()
        try:
            # The runtime's own link 1 -> 0 carries the body, as a frame.
            runtime._links[1, 0].queue.put_nowait(b"\x00\x00\x00\x02\xe7\x01")
            await runtime.wait_until(
                lambda rt: rt.metrics.counts["tcp.rejected_frames"], timeout=5
            )
        finally:
            await runtime.close()
        return runtime

    runtime = asyncio.run(scenario())
    assert runtime.metrics.counts["tcp.rejected_frames"] == 1
    assert runtime.metrics.deliveries == 0


# -- the self-healing gate (hard kill mid-ADKG) ----------------------------------------


def test_adkg_survives_hard_killed_connections():
    """Kill three sockets mid-run: supervision + reconnect must heal them."""

    async def scenario():
        setup = TrustedSetup.generate(4, seed=1)
        runtime = TCPRuntime(setup, seed=1)
        runtime.reconnect_base, runtime.reconnect_cap = 0.02, 0.2
        count = 0

        def killer(envelope):
            nonlocal count
            count += 1
            if count == 40:  # mid-protocol: well after open, before done
                for pair in ((0, 1), (1, 0), (2, 3)):
                    runtime.kill_connection(*pair)

        runtime.add_delivery_observer(killer)
        results = await runtime.run_root(
            lambda party: ADKG(broadcast_kind="ct"), timeout=60
        )
        return runtime, results

    runtime, results = asyncio.run(scenario())
    assert _agreeing(results, 4)
    assert runtime.metrics.counts["tcp.conn_lost"] >= 1
    assert runtime.metrics.counts["tcp.reconnects"] >= 1
    assert runtime.metrics.counts["tcp.rejected_frames"] == 0


def test_adkg_survives_partition_of_f_parties_then_heal():
    """Partition f=1 party away for the opening window, then heal (chaos)."""
    result = run_adkg(
        n=4, seed=1, transport="tcp", chaos="partition:0|1,2,3@0-0.8",
        timeout=60,
    )
    assert result.agreed
    counts = result.metrics_summary["counters"]["chaos"]
    assert counts["partitioned"] > 0


def test_a_closed_runtime_reopens_and_heals():
    """close() then open() builds fresh links: they say hello at
    generation 0 again, carry a new session, and a loss on them heals."""
    runtime = TCPRuntime(TrustedSetup.generate(4, seed=1), seed=1)
    runtime.reconnect_base, runtime.reconnect_cap = 0.02, 0.2
    runtime.run_sync(lambda party: EchoAll(), timeout=30)

    async def reopened():
        await runtime.open()
        try:
            runtime.kill_connection(0, 1)
            runtime.start(lambda party: EchoAll(), session=1)
            await runtime.wait_session(1, timeout=30)
        finally:
            await runtime.close()

    asyncio.run(reopened())
    assert runtime.metrics.counts["tcp.conn_lost"] >= 1
    assert runtime.metrics.counts["tcp.reconnects"] >= 1
    assert runtime.metrics.counts["tcp.rejected_frames"] == 0


def test_kill_connection_validates_pair():
    async def scenario():
        setup = TrustedSetup.generate(3, seed=4)
        runtime = TCPRuntime(setup, seed=4)
        await runtime.open()
        try:
            with pytest.raises(ValueError):
                runtime.kill_connection(0, 0)  # self pairs have no link
        finally:
            await runtime.close()

    asyncio.run(scenario())


# -- accounting: resends are wire traffic, not protocol traffic -----------------------


def test_healed_connections_do_not_inflate_protocol_totals():
    """EchoAll totals are schedule-independent: a killed-and-healed run
    must report exactly the clean run's words/messages/bytes, with zero
    rejected frames — frames re-sent by the healing path are metered
    once (at enqueue), never twice."""

    async def scenario(kill):
        setup = TrustedSetup.generate(4, seed=3)
        runtime = TCPRuntime(setup, seed=3)
        runtime.reconnect_base, runtime.reconnect_cap = 0.02, 0.2
        if kill:
            count = 0

            def killer(envelope):
                nonlocal count
                count += 1
                if count == 2:  # first network deliveries are in flight
                    for recipient in (1, 2, 3):
                        runtime.kill_connection(0, recipient)

            runtime.add_delivery_observer(killer)
        results = await runtime.run_root(lambda party: EchoAll(), timeout=30)
        return runtime, results

    clean_rt, clean = asyncio.run(scenario(kill=False))
    healed_rt, healed = asyncio.run(scenario(kill=True))
    assert _agreeing(clean, 4) and _agreeing(healed, 4)
    assert healed_rt.metrics.counts["tcp.conn_lost"] >= 1
    # Protocol accounting is identical: same words, messages and
    # per-envelope bytes — connection churn is invisible to the
    # protocol-level meters.
    assert healed_rt.metrics.words_total == clean_rt.metrics.words_total
    assert (
        healed_rt.metrics.messages_total == clean_rt.metrics.messages_total
    )
    assert healed_rt.metrics.bytes_total == clean_rt.metrics.bytes_total
    # ...and the healing path never produced garbage frames.
    assert healed_rt.metrics.counts["tcp.rejected_frames"] == 0
    assert clean_rt.metrics.counts["tcp.rejected_frames"] == 0


def test_tcp_chaos_duplicates_are_tolerated():
    """At-least-once delivery (what reconnect re-injection implies) is
    exercised explicitly: a duplicating link still reaches agreement."""
    result = run_adkg(
        n=4, seed=2, transport="tcp", chaos="dup:0.1", timeout=60
    )
    assert result.agreed
    assert result.metrics_summary["counters"]["chaos"]["duplicated"] > 0
