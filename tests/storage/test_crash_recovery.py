"""End-to-end in-session crash–recovery over the durable storage layer."""

import pytest

from repro.core.adkg import ADKG
from repro.crypto.keys import TrustedSetup
from repro.net.adversary import CrashBehavior, RandomLagScheduler
from repro.net.delays import FixedDelay
from repro.net.runtime import Simulation
from repro.net.transport import Transport
from repro.storage import DurabilityRecorder, SnapshotStore, run_crash_recovery


_PLAN_KEYS = {
    "crash_at", "reattach_at", "rounds", "recovery_latency", "replay",
    "parked_delivered",
}  # fmt: skip


def test_sim_crash_recovery_reaches_agreement():
    report = run_crash_recovery(
        transport="sim",
        n=4,
        seed=1,
        crash_indices=[0],
        crash_after=40,
        recovery_delay=5.0,
        cadence=16,
    )
    assert report["agreement"] and report["valid"]
    assert report["honest_outputs"] == 4
    assert report["public_key"] is not None
    assert report["reattach_at"] >= report["crash_at"] + 5.0
    stats = report["replay"][0]
    # The replay regenerated (and suppressed) traffic the pre-crash
    # process already emitted — the duplicate-suppression invariant.
    assert stats["wal_records"] >= 0
    assert report["parked_delivered"][0] > 0


def test_a_party_replayed_from_its_whole_log_outputs_what_it_output():
    """No checkpoint is due before the crash, so the WAL replay re-makes
    every output the crashed process made — Gather's and PE's, whose
    values hang on delivery order, among them — and the invariant oracle
    holds each to the first one made at that party and instance."""
    report = run_crash_recovery(
        transport="sim",
        n=7,
        seed=2,
        crash_indices=[0],
        crash_after=300,
        recovery_delay=3.0,
        cadence=10_000,
    )
    assert report["agreement"] and report["valid"]
    assert report["replay"][0]["wal_records"] >= 300


def test_report_times_the_thaw_and_the_replay_apart():
    """What a recovery waits for is mostly the thaw; the replay rate is
    records over the replay interval alone."""
    report = run_crash_recovery(
        transport="sim",
        n=7,
        seed=2,
        crash_indices=[0, 3],
        crash_after=150,
        recovery_delay=3.0,
        cadence=64,
    )
    assert report["agreement"] and report["valid"]
    assert set(report["replay"]) == {0, 3}
    for stats in report["replay"].values():
        assert stats["wal_records"] > 0
        assert stats["thaw_seconds"] > 0 and stats["replay_seconds"] > 0
        assert stats["replay_per_second"] == pytest.approx(
            stats["wal_records"] / stats["replay_seconds"]
        )


def test_checkpoints_encode_each_aggregate_once_not_once_per_reference():
    """The structural gate behind the recovery benchmark: a party's state is
    mostly repeated references to a few transcripts and contributions, and
    every checkpoint (and WAL record, RBC value, cache key) meets them all
    again.  Exact counts, no stopwatch: this scenario reads 534 aggregate
    encodings of which 34 walked the value (15.7 per walk; at n=10 a single
    snapshot holds 173 references to 34 objects); the floor is 5.
    The scenario's protocol facts are the ones it read before the memo."""
    from collections import Counter

    from repro.net import codec

    before = Counter(codec.encode_stats)
    report = run_crash_recovery(
        transport="sim",
        n=4,
        seed=1,
        crash_indices=[0],
        crash_after=40,
        recovery_delay=5.0,
        cadence=16,
    )
    encode = Counter(codec.encode_stats)
    encode.subtract(before)
    assert encode["aggregate.misses"] > 0
    assert encode["aggregate.calls"] >= 5 * encode["aggregate.misses"]
    assert report["agreement"] and report["valid"]
    assert report["honest_outputs"] == 4
    assert report["replay"][0]["wal_records"] == 8
    assert report["replay"][0]["suppressed_sends"] == 6
    assert report["parked_delivered"] == {0: 36}
    assert (report["words_total"], report["messages_total"]) == (4716, 564)
    assert report["rounds"] == 19.0


def test_crash_before_first_delivery_recovers():
    """The genesis checkpoint covers a crash at delivery count zero."""
    report = run_crash_recovery(
        transport="sim",
        n=4,
        seed=1,
        crash_indices=[0],
        crash_after=0,
        recovery_delay=3.0,
        cadence=16,
    )
    assert report["agreement"] and report["valid"]
    assert report["replay"][0]["wal_records"] == 0


def test_sim_crash_recovery_same_key_as_uninterrupted_run():
    """At f=0 the recovered run agrees on the very same group public key."""
    from repro import run_adkg

    n, seed = 3, 5  # n=3 -> f=0: every party's aggregate is order-free
    baseline = run_adkg(n=n, seed=seed)
    report = run_crash_recovery(
        transport="sim",
        n=n,
        seed=seed,
        crash_indices=[0],
        crash_after=20,
        recovery_delay=4.0,
        cadence=8,
    )
    assert report["agreement"] and report["valid"]
    assert report["public_key"] == baseline.public_key


@pytest.mark.parametrize("cap", (256, 1), ids=("batched", "unbatched"))
def test_sim_tcp_crash_recovery_same_public_key(cap, monkeypatch):
    """The acceptance gate: sim ≡ tcp group public key at f=0, with a
    mid-session crash–recovery in both runs, at the default coalescing
    cap and at a cap of one."""
    monkeypatch.setattr(Transport, "batch_cap_envelopes", cap)
    n, seed = 3, 7
    reports = {}
    for kind, delay in (("sim", 4.0), ("tcp", 0.05)):
        reports[kind] = run_crash_recovery(
            transport=kind,
            n=n,
            seed=seed,
            crash_indices=[1],
            crash_after=15,
            recovery_delay=delay,
            cadence=8,
        )
        assert reports[kind]["agreement"] and reports[kind]["valid"], kind
        # One crash plan for both: the report has one shape, in now() units.
        report = reports[kind]
        assert _PLAN_KEYS <= set(report), kind
        assert report["crash_at"] <= report["reattach_at"] <= report["rounds"], kind
        assert report["recovery_latency"] == report["rounds"] - report["reattach_at"]
        assert set(report["replay"]) == set(report["parked_delivered"]) == {1}
    assert reports["sim"]["public_key"] == reports["tcp"]["public_key"]
    assert reports["tcp"]["reattach_at"] >= reports["tcp"]["crash_at"] + 0.05


def test_crash_f_parties_under_byzantine_scheduling():
    """f simultaneous crash–recoveries + adversarial lag still agree."""
    report = run_crash_recovery(
        transport="sim",
        n=4,
        seed=2,
        crash_indices=[3],  # f = 1 at n = 4
        crash_after=30,
        recovery_delay=10.0,
        cadence=8,
        scheduler=RandomLagScheduler(factor=15.0, rate=0.3),
    )
    assert report["agreement"] and report["valid"]
    assert report["honest_outputs"] == 4


def test_recorder_checkpoints_and_compacts(tmp_path):
    setup = TrustedSetup.generate(4, seed=1)
    sim = Simulation(setup, seed=1, delay_model=FixedDelay(1.0))
    store = SnapshotStore(tmp_path)
    recorder = DurabilityRecorder(sim, 0, store, cadence=8)
    sim.start(lambda p: ADKG())
    sim.run(stop=lambda s: recorder.deliveries >= 20)
    assert store.has_snapshot(0)
    assert recorder.checkpoints >= 2
    # Compaction: the WAL holds fewer records than one full cadence.
    assert len(store.wal(0).replay()) < 8
    # Only party 0's traffic was journaled.
    assert not store.has_snapshot(1)
    recorder.detach()
    before = recorder.deliveries
    sim.run(stop=lambda s: s.steps >= sim.steps + 50)
    assert recorder.deliveries == before  # detached observers see nothing
    store.close()


def test_crash_recover_behavior_omission_window():
    """The behavior-level crash window (no state loss) also converges."""
    behavior = CrashBehavior(after_sends=10, recover_after_drops=15)
    setup = TrustedSetup.generate(4, seed=4)
    sim = Simulation(
        setup, seed=4, delay_model=FixedDelay(1.0), behaviors={3: behavior}
    )
    sim.start(lambda p: ADKG())
    sim.block_on(sim.wait_session(0))
    assert behavior.crashed and behavior.recovered
    outputs = list(sim.honest_results().values())
    assert outputs and all(o == outputs[0] for o in outputs)


def test_reused_storage_dir_is_cleared(tmp_path):
    """A fresh run over an explicit storage dir must not rehydrate from a
    previous run's stale snapshot/WAL."""
    first = run_crash_recovery(
        transport="sim", n=4, seed=1, crash_indices=[0],
        crash_after=30, recovery_delay=4.0, cadence=8,
        storage_dir=tmp_path,
    )
    assert first["agreement"]
    # Same directory, different seed: stale seed-1 artifacts must not leak.
    second = run_crash_recovery(
        transport="sim", n=4, seed=2, crash_indices=[0],
        crash_after=30, recovery_delay=4.0, cadence=8,
        storage_dir=tmp_path,
    )
    assert second["agreement"] and second["valid"]
    assert second["public_key"] != first["public_key"]  # genuinely seed-2


def test_recovery_rejects_out_of_range_indices():
    with pytest.raises(ValueError, match="out of range"):
        run_crash_recovery(transport="sim", n=4, crash_indices=[9])


@pytest.mark.parametrize(
    "plan",
    [
        {"recovery_delay": -1.0},  # reattached at the crash instant
        {"crash_after": -5},  # crashed at t = 0
        {"crash_after": True},
        {"crash_after": 12.5},
        {"recovery_delay": float("inf")},  # reattached only at quiescence
        {"recovery_delay": float("nan")},
    ],
)
def test_crash_plan_refuses_out_of_range_after_and_delay(plan):
    """``CrashPlan`` checks its own ranges, so every driver that builds
    one (a single committee, a churn handoff) refuses a crash that would
    not crash and come back."""
    from repro.service import run_churn

    with pytest.raises(ValueError, match="crash after|recovery delay"):
        run_crash_recovery(transport="sim", n=4, seed=1, **plan)
    crash = {
        "indices": (1,),
        "after": plan.get("crash_after", 12),
        "delay": plan.get("recovery_delay", 4.0),
    }
    with pytest.raises(ValueError, match="crash after|recovery delay"):
        run_churn(4, epochs=2, crash={1: crash})


def test_nwh_fault_journals_are_bounded():
    """Duplicate Byzantine fault messages must not grow the journals
    (and therefore the freeze() blobs) without bound."""
    from repro.core import certificates as certs
    from repro.core.nwh import NWH, BlameMsg, EchoMsg

    setup = TrustedSetup.generate(4, seed=1)
    sim = Simulation(setup, seed=1, delay_model=FixedDelay(1.0))
    sim.start(lambda p: NWH(my_value=("v", p.index)))
    nwh = sim.parties[0].instance(())
    key = certs.KeyTuple(0, ("v", 1), None)
    vote = certs.make_vote(
        setup.directory, setup.secret(1), certs.KIND_ECHO, key.value, 1
    )
    echo = EchoMsg(key=key, election_proof=frozenset(), vote=vote, view=1)
    for _ in range(10):
        nwh.on_message(1, echo)
    assert len(nwh._echo_seen[1]) == 1  # one pending echo per sender

    def blame(i):
        return BlameMsg(
            key=certs.KeyTuple(5 + i, ("v", 1), None),
            election_proof=frozenset(),
            lock_view=0,
            lock_value=("v", 0),
            lock_proof=None,
            view=1,
        )

    cap = nwh.PER_SENDER_FAULT_CAP
    for i in range(cap + 10):
        nwh.on_message(1, blame(i))
        nwh.on_message(1, blame(i))  # exact duplicates are ignored outright
    assert len(nwh._blame_seen[1]) == cap
    # Per-sender, not shared: a spammer cannot censor another sender's
    # (distinct) fault message out of the journal.
    nwh.on_message(2, blame(cap + 50))
    assert len(nwh._blame_seen[1]) == cap + 1


def test_recovery_refuses_byzantine_crash_indices():
    from repro.net.adversary import SilentBehavior
    from repro.storage import CrashPlan

    setup = TrustedSetup.generate(4, seed=1)
    sim = Simulation(setup, seed=1, behaviors={3: SilentBehavior()})
    with pytest.raises(ValueError, match="honest"):
        CrashPlan(sim, lambda party: ADKG(), indices=[3])


def test_a_one_party_partition_pauses_without_state_loss():
    """Cut off with its memory intact, a party is an omission fault: the
    traffic held across the cut drains at the heal and the run completes
    with the same party object."""
    setup = TrustedSetup.generate(4, seed=6)
    sim = Simulation(
        setup, seed=6, delay_model=FixedDelay(1.0), chaos="partition:2|0,1,3@2-8"
    )
    party = sim.parties[2]
    sim.start(lambda p: ADKG())
    sim.block_on(sim.wait_session(0))
    assert sim.metrics.counters("chaos")["partitioned"] > 0
    assert sim.parties[2] is party and not party.halted
    outputs = list(sim.honest_results().values())
    assert len(outputs) == 4 and all(o == outputs[0] for o in outputs)
