"""The asyncio transport runs the same protocol objects."""

import asyncio

import pytest

from repro.crypto.keys import TrustedSetup
from repro.net.adversary import SilentBehavior
from repro.net.asyncio_runtime import AsyncioRuntime
from repro.net.transport import Transport

from tests.net.helpers import EchoAll, PingPong


def _run(coro):
    return asyncio.run(coro)


def test_ping_pong_over_asyncio():
    setup = TrustedSetup.generate(4, seed=1)
    runtime = AsyncioRuntime(setup, max_delay=0.001, seed=1)
    results = _run(runtime.run_root(lambda party: PingPong(rounds=3), timeout=10))
    assert results[0] == 3
    assert results[1] == 3


def test_echo_all_over_asyncio():
    setup = TrustedSetup.generate(4, seed=2)
    runtime = AsyncioRuntime(setup, max_delay=0.001, seed=2)
    results = _run(runtime.run_root(lambda party: EchoAll(), timeout=10))
    assert all(value == frozenset(range(4)) for value in results.values())


def test_timeout_raises():
    setup = TrustedSetup.generate(4, seed=3)
    # A silent party starves EchoAll (which waits for all n), so we time out.
    runtime = AsyncioRuntime(
        setup, max_delay=0.001, behaviors={3: SilentBehavior()}, seed=3
    )
    with pytest.raises(asyncio.TimeoutError):
        _run(runtime.run_root(lambda party: EchoAll(), timeout=0.2))


def test_metrics_metered_like_simulator():
    setup = TrustedSetup.generate(4, seed=4)
    runtime = AsyncioRuntime(setup, max_delay=0.0005, seed=4)
    _run(runtime.run_root(lambda party: EchoAll(), timeout=10))
    assert runtime.metrics.messages_total == 4 * 3
    assert runtime.metrics.words_total == 4 * 3 * 2


def test_frame_bytes_at_a_cap_of_one(monkeypatch):
    """With bytes metered, every asyncio frame is sized from its sends:
    at a cap of one each message is a batch of one, 5 or 6 B dearer than
    its protocol bytes."""
    monkeypatch.setattr(Transport, "batch_cap_envelopes", 1)
    setup = TrustedSetup.generate(4, seed=5)
    runtime = AsyncioRuntime(setup, max_delay=0.0005, seed=5, measure_bytes=True)
    _run(runtime.run_root(lambda party: EchoAll(), timeout=10))
    metrics = runtime.metrics
    frames = metrics.frames_total
    assert frames == metrics.messages_total == 4 * 3
    assert metrics.batch_occupancy_max == 1
    extra = metrics.wire_bytes_total - metrics.bytes_total
    assert 5 * frames <= extra <= 6 * frames
