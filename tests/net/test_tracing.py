"""Execution tracing."""

from repro.crypto.keys import TrustedSetup
from repro.net.runtime import Simulation
from repro.net.tracing import Tracer

from tests.net.helpers import EchoAll, ParentChild


def _traced_sim(n=4, seed=1, predicate=None):
    setup = TrustedSetup.generate(n, seed=seed)
    sim = Simulation(setup, seed=seed)
    tracer = Tracer(sim, predicate=predicate)
    return sim, tracer


def test_trace_captures_network_deliveries():
    sim, tracer = _traced_sim()
    sim.start(lambda party: EchoAll())
    sim.run()
    # 4 parties x 3 remote recipients = 12 network deliveries.
    assert len(tracer.events) == 12
    assert all(event.payload_type == "Ping" for event in tracer.events)
    assert all(event.words == 2 for event in tracer.events)


def test_trace_events_are_time_ordered():
    sim, tracer = _traced_sim()
    sim.start(lambda party: EchoAll())
    sim.run()
    times = [event.time for event in tracer.events]
    assert times == sorted(times)


def test_predicate_filters():
    sim, tracer = _traced_sim(predicate=lambda env: env.recipient == 0)
    sim.start(lambda party: EchoAll())
    sim.run()
    assert len(tracer.events) == 3
    assert all(event.recipient == 0 for event in tracer.events)


def test_query_helpers_and_rendering():
    sim, tracer = _traced_sim()
    sim.start(lambda party: ParentChild())
    sim.run()
    party0 = tracer.for_party(0)
    assert party0 and all(event.recipient == 0 for event in party0)
    child_events = tracer.for_layer("child")
    assert child_events and len(child_events) == len(tracer.events)
    text = tracer.timeline(party0)
    assert "Ping" in text and "->0" in text
    summary = tracer.summary()
    assert summary["events"] == len(tracer.events)
    assert summary["by_type"]["Ping"] == len(tracer.events)
    assert summary["span"][0] <= summary["span"][1]


def test_capacity_limit():
    sim, tracer = _traced_sim()
    tracer.capacity = 5
    sim.start(lambda party: EchoAll())
    sim.run()
    assert len(tracer.events) == 5


def test_empty_trace_summary():
    sim, tracer = _traced_sim(predicate=lambda env: False)
    sim.start(lambda party: EchoAll())
    sim.run()
    assert tracer.summary() == {"events": 0, "by_type": {}, "span": None}


def test_multiple_tracers_coexist_and_detach_independently():
    sim, tracer1 = _traced_sim()
    tracer2 = Tracer(sim, predicate=lambda env: env.recipient == 0)
    sim.start(lambda party: EchoAll())
    sim.run()
    assert len(tracer1.events) == 12
    assert len(tracer2.events) == 3
    tracer2.detach()  # leaves tracer1 observing
    assert sim._delivery_observers == [tracer1._on_delivery]


def test_tracer_works_on_a_realtime_transport():
    """``now()`` and the delivery count exist on every runtime."""
    from repro.net.asyncio_runtime import AsyncioRuntime

    runtime = AsyncioRuntime(TrustedSetup.generate(4, seed=1), seed=1)
    tracer = Tracer(runtime)
    runtime.run_sync(lambda party: EchoAll(), timeout=10)
    assert len(tracer.events) == 12
    times = [event.time for event in tracer.events]
    assert times == sorted(times) and times[-1] > 0
    assert [event.step for event in tracer.events] == sorted(e.step for e in tracer.events)
    idle = AsyncioRuntime(TrustedSetup.generate(4, seed=1), seed=1)
    detached = Tracer(idle)
    detached.detach()
    idle.run_sync(lambda party: EchoAll(), timeout=10)
    assert idle.metrics.deliveries > 0 and not detached.events
