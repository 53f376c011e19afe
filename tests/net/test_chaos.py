"""The link-level chaos plane (DESIGN §11).

Unit coverage of the declarative schedule (validation, the CLI
mini-language, verdict semantics) plus the end-to-end gates: an idle
plane is byte-identical to no plane at all, same seed + same spec is
byte-identical across runs, and the protocol reaches agreement under
partitions, loss, duplication, reordering, corruption and extra delay —
every chaos schedule is still a legal eventually-delivering adversary.
"""

import math

import pytest

from repro import run_adkg
from repro.crypto.keys import TrustedSetup
from repro.net.chaos import (
    DELIVER,
    DUPLICATE,
    HOLD,
    ChaosPlane,
    ChaosSpec,
    DelayWindow,
    LinkFault,
    Partition,
    coerce_chaos,
)
from repro.net.envelope import Envelope
from repro.net.runtime import Simulation

from tests.net.helpers import EchoAll, Ping


def _env(sender=0, recipient=1, counter=0):
    return Envelope(
        path=(), sender=sender, recipient=recipient,
        payload=Ping(counter), depth=1,
    )


# -- schedule validation ---------------------------------------------------------------


def test_partition_validates_groups():
    with pytest.raises(ValueError):
        Partition(groups=((0, 1),))  # one group is no cut
    with pytest.raises(ValueError):
        Partition(groups=((0,), ()))  # empty group
    with pytest.raises(ValueError):
        Partition(groups=((0, 1), (1, 2)))  # overlapping
    with pytest.raises(ValueError):
        Partition(groups=((0,), (1,), (2,)), oneway=True)  # oneway needs 2
    with pytest.raises(ValueError):
        Partition(groups=((0,), (1,)), start=5.0, heal=5.0)  # empty window
    with pytest.raises(ValueError):
        Partition(groups=((0,), (1,)), heal=math.inf)  # cut must heal


def test_link_fault_validates():
    with pytest.raises(ValueError):
        LinkFault(kind="scramble", rate=0.1)
    with pytest.raises(ValueError):
        LinkFault(kind="drop", rate=1.5)
    with pytest.raises(ValueError):
        LinkFault(kind="drop", rate=0.1, jitter=0.0)
    with pytest.raises(ValueError):
        DelayWindow(extra=0.0)


@pytest.mark.parametrize("clause", ["delay:inf@1-9", "delay:nan@1-2", "delay:-inf"])
def test_a_delay_that_never_ends_is_refused(clause):
    """Every verdict eventually delivers: an envelope held for ``inf`` is a
    drop, and ``nan <= 0`` is false, so neither may reach the plane."""
    with pytest.raises(ValueError, match="positive and finite"):
        ChaosSpec.parse(clause)


def test_partition_severs_semantics():
    cut = Partition(groups=((0, 1), (2, 3)), start=5.0, heal=10.0)
    assert cut.severs(0, 2, 5.0)
    assert cut.severs(3, 1, 9.9)
    assert not cut.severs(0, 1, 7.0)  # same side
    assert not cut.severs(0, 2, 4.9)  # before the cut
    assert not cut.severs(0, 2, 10.0)  # healed
    assert not cut.severs(0, 9, 7.0)  # 9 is in no group

    oneway = Partition(groups=((0,), (1, 2)), start=0.0, heal=10.0, oneway=True)
    assert oneway.severs(0, 1, 1.0)
    assert not oneway.severs(1, 0, 1.0)  # reverse direction flows


def test_link_fault_pair_scoping():
    fault = LinkFault(kind="drop", rate=1.0, pairs={(0, 1)})
    assert fault.applies(0, 1, 0.0)
    assert not fault.applies(1, 0, 0.0)


# -- the CLI mini-language -------------------------------------------------------------


def test_parse_full_mini_language():
    spec = ChaosSpec.parse(
        "partition:0,1|2,3@5-40; partition-oneway:0|1,2@0-20;"
        "drop:0.05; dup:0.02@10-30; reorder:0.1; corrupt:0.01;"
        "delay:+2.5@10-20"
    )
    assert len(spec.partitions) == 2
    assert spec.partitions[0].groups == ((0, 1), (2, 3))
    assert spec.partitions[0].start == 5.0 and spec.partitions[0].heal == 40.0
    assert spec.partitions[1].oneway
    kinds = [f.kind for f in spec.faults]
    assert kinds == ["drop", "duplicate", "reorder", "corrupt"]
    assert spec.faults[1].start == 10.0 and spec.faults[1].end == 30.0
    assert spec.faults[0].end == math.inf
    (window,) = spec.delays
    assert (window.extra, window.start, window.end) == (2.5, 10.0, 20.0)
    assert not spec.idle


@pytest.mark.parametrize(
    "bad",
    [
        "partition:0|1,2",  # no window: a cut must heal
        "drop",  # no colon
        "scramble:0.5",  # unknown kind
        "drop:0.5@7",  # malformed window
        "partition:0|1@9-3",  # end before start
    ],
)
def test_parse_rejects_malformed_clauses(bad):
    with pytest.raises(ValueError):
        ChaosSpec.parse(bad)


def test_coerce_chaos_forms():
    assert coerce_chaos(None, seed=1) is None
    from_str = coerce_chaos("drop:0.5", seed=1)
    assert isinstance(from_str, ChaosPlane) and from_str.active
    idle = coerce_chaos(ChaosSpec(), seed=1)
    assert isinstance(idle, ChaosPlane) and not idle.active
    with pytest.raises(TypeError):
        coerce_chaos(42, seed=1)


# -- verdict semantics (unit) ----------------------------------------------------------


def test_partition_holds_until_heal():
    plane = ChaosPlane(
        ChaosSpec(partitions=(Partition(groups=((0,), (1,)), heal=10.0),))
    )
    action, delay = plane.decide(_env(0, 1), now=4.0)
    assert action is HOLD
    assert delay == pytest.approx(6.0)
    assert plane.counters() == {"partitioned": 1}
    # After heal the same link delivers.
    assert plane.decide(_env(0, 1), now=10.0)[0] is DELIVER


def test_released_envelopes_pass_through_once():
    plane = ChaosPlane(
        ChaosSpec(faults=(LinkFault(kind="drop", rate=1.0),))
    )
    env = _env()
    assert plane.decide(env, 0.0)[0] is HOLD
    plane.release(env)  # the transport requeued it
    assert plane.decide(env, 0.0)[0] is DELIVER  # exempt on re-entry
    assert plane.decide(env, 0.0)[0] is HOLD  # exemption is one-shot


def test_duplicate_verdict_and_delay_window():
    plane = ChaosPlane(
        ChaosSpec(
            faults=(LinkFault(kind="duplicate", rate=1.0),),
            delays=(DelayWindow(extra=2.0, start=0.0, end=5.0),),
        )
    )
    action, delay = plane.decide(_env(), 0.0)
    assert action is DUPLICATE and delay > 0
    # A delay window alone holds inside its window and not outside it.
    plane2 = ChaosPlane(ChaosSpec(delays=(DelayWindow(extra=2.0, end=5.0),)))
    assert plane2.decide(_env(), 1.0) == (HOLD, 2.0)
    assert plane2.decide(_env(), 6.0)[0] is DELIVER
    assert plane2.counters() == {"delayed": 1}


def test_corruption_counter_arithmetic():
    plane = ChaosPlane(
        ChaosSpec(faults=(LinkFault(kind="corrupt", rate=1.0),)), seed=3
    )
    for counter in range(200):
        env = _env(counter=counter)
        action, _delay = plane.decide(env, 0.0)
        assert action is HOLD  # the flip is discarded either way
    counts = plane.counters()
    assert counts["corrupted"] == 200
    # Every corrupted frame got exactly one codec verdict.
    assert counts["corrupted"] == (
        counts.get("corrupt_rejected", 0)
        + counts.get("corrupt_forged", 0)
        + counts.get("corrupt_identity", 0)
    )
    # The fail-closed posture actually fired at least once.
    assert counts.get("corrupt_rejected", 0) >= 1


# -- end-to-end: differential determinism gates ----------------------------------------


def _totals(result):
    return (
        result.words_total,
        result.messages_total,
        result.bytes_total,
        result.public_key,
    )


def test_idle_plane_is_byte_identical_to_no_plane():
    plain = run_adkg(n=4, seed=1, measure_bytes=True)
    idle = run_adkg(n=4, seed=1, measure_bytes=True, chaos=ChaosSpec())
    assert _totals(idle) == _totals(plain)
    assert idle.metrics_summary["counters"].get("chaos", {}) == {}


def test_same_seed_same_spec_is_byte_identical():
    spec = "partition:0|1,2,3@2-20;drop:0.05;reorder:0.05"
    a = run_adkg(n=4, seed=1, measure_bytes=True, chaos=spec)
    b = run_adkg(n=4, seed=1, measure_bytes=True, chaos=spec)
    assert a.agreed and b.agreed
    assert _totals(a) == _totals(b)
    assert (
        a.metrics_summary["counters"]["chaos"]
        == b.metrics_summary["counters"]["chaos"]
    )
    assert a.metrics_summary["counters"]["chaos"]["partitioned"] > 0


def test_agreement_under_combined_link_faults():
    result = run_adkg(
        n=4, seed=1, chaos="drop:0.08;dup:0.05;reorder:0.1;corrupt:0.03"
    )
    assert result.agreed
    counts = result.metrics_summary["counters"]["chaos"]
    for name in ("dropped", "duplicated", "reordered", "corrupted"):
        assert counts[name] > 0, name
    assert counts["corrupted"] == (
        counts.get("corrupt_rejected", 0)
        + counts.get("corrupt_forged", 0)
        + counts.get("corrupt_identity", 0)
    )


def test_agreement_under_oneway_partition_and_delay():
    result = run_adkg(
        n=4, seed=1, chaos="partition-oneway:0|1,2,3@1-15;delay:+3@5-25"
    )
    assert result.agreed
    counts = result.metrics_summary["counters"]["chaos"]
    assert counts["partitioned"] > 0
    assert counts["delayed"] > 0


def test_chaos_composes_with_crash_recover_overlay():
    """A crash window (E14's omission view) on top of a lossy link."""
    from repro.net.adversary import CrashBehavior

    result = run_adkg(
        n=4,
        seed=1,
        behaviors={3: CrashBehavior(after_sends=10, recover_after_drops=5)},
        chaos="drop:0.05;reorder:0.05",
    )
    assert result.agreed


def test_chaos_on_tcp_transport():
    """Held and duplicated envelopes re-enter the pipeline through TCP's
    sleeping re-delivery tasks."""
    result = run_adkg(
        n=4, seed=1, transport="tcp", chaos="drop:0.05;dup:0.05", timeout=30
    )
    assert result.agreed
    counts = result.metrics_summary["counters"]["chaos"]
    assert counts.get("dropped", 0) + counts.get("duplicated", 0) > 0


def test_quiescence_drains_held_envelopes():
    """Chaos holds are in-flight traffic: run() to quiescence delivers them."""
    setup = TrustedSetup.generate(4, seed=5)
    sim = Simulation(setup, seed=5, chaos="drop:0.3;reorder:0.2")
    sim.start(lambda party: EchoAll())
    sim.run()  # true quiescence: queue and coalescing buffer empty
    assert all(
        sim.parties[i].instance(()).seen == {0, 1, 2, 3} for i in range(4)
    )
    assert not sim._queue and not sim._ready
