"""Sharded scale-out: coordinator, cross-mode identity, aggregated beacon."""

import dataclasses

import pytest

from concurrent.futures.process import BrokenProcessPool

from repro.net.delays import FixedDelay
from repro.net.runtime import Simulation
from repro.net.sharding import (
    SESSION_STRIDE,
    group_of_session,
    group_seed,
    make_shard_group,
    partition_universe,
)
from repro.service import (
    GroupCoordinator,
    ShardedBeacon,
    ShardExecutor,
    run_sharded,
)
from repro.service import shards as shards_mod
from repro.service.shards import (
    SHARD_MODES,
    _group_result_from_raw,
    _run_group_config,
    shutdown_shard_executor,
)


# -- partitioning and the coordinator --------------------------------------------------


def test_partition_is_deterministic_balanced_and_exhaustive():
    a = partition_universe(23, 5, seed=7)
    b = partition_universe(23, 5, seed=7)
    assert a == b  # pure function of (universe, groups, seed)
    assert partition_universe(23, 5, seed=8) != a
    sizes = [len(members) for members in a]
    assert max(sizes) - min(sizes) <= 1
    flat = [pid for members in a for pid in members]
    assert sorted(flat) == list(range(23))  # every party in exactly one group


def test_partition_validates_arguments():
    with pytest.raises(ValueError):
        partition_universe(8, 0, seed=0)
    with pytest.raises(ValueError):
        partition_universe(3, 4, seed=0)


def test_session_blocks_are_disjoint_per_group():
    group = make_shard_group(3, 4, None, seed=0)
    assert group.session_base == 3 * SESSION_STRIDE
    assert group_of_session(group.session_of(0)) == 3
    assert group_of_session(group.session_of(SESSION_STRIDE - 1)) == 3
    with pytest.raises(ValueError):
        group.session_of(SESSION_STRIDE)
    # Group seeds are pure functions of (universe seed, gid).
    assert group_seed(0, 3) == group.seed
    assert group_seed(0, 2) != group.seed


def test_coordinator_is_reproducible_from_its_seed():
    one = GroupCoordinator(10, 3, seed=5)
    two = GroupCoordinator(10, 3, seed=5)
    assert one.group_sizes == two.group_sizes == (4, 3, 3)
    for left, right in zip(one.groups, two.groups):
        assert left.gid == right.gid
        assert left.seed == right.seed
        assert left.members == right.members
        assert (left.n, left.f) == (right.n, right.f)
    # A different universe seed rotates both membership and key material.
    other = GroupCoordinator(10, 3, seed=6)
    assert [g.seed for g in other.groups] != [g.seed for g in one.groups]


# -- cross-mode byte-identity (the tentpole's differential gate) -----------------------


@pytest.fixture(scope="module")
def mode_reports():
    reports = {
        mode: run_sharded(
            universe=8, groups=2, epochs=2, mode=mode, seed=0, timeout=120.0
        )
        for mode in SHARD_MODES
    }
    shutdown_shard_executor()
    return reports


def test_all_modes_agree_and_verify(mode_reports):
    for mode, report in mode_reports.items():
        assert report.agreed, mode
        assert report.all_verified, mode
        assert len(report.group_results) == 2


def test_per_group_protocol_metrics_identical_across_modes(mode_reports):
    reference = mode_reports["multiplexed"]
    for mode in ("sequential", "process"):
        report = mode_reports[mode]
        for expected, actual in zip(
            reference.group_results, report.group_results
        ):
            # summary() covers words/messages/bytes/deliveries/max_depth,
            # the per-layer/per-type breakdowns and the verify/pairing
            # work counters — all byte-identical by construction.
            assert actual.metrics.summary() == expected.metrics.summary(), mode
        assert (
            report.merged.summary()["words_total"]
            == reference.merged.summary()["words_total"]
        )


def test_group_totals_are_invariant_in_k(mode_reports):
    """Group 0's run is a pure function of (universe seed, gid, group
    size): alone (k = 1) it spends the words and messages it spends
    beside a second group (k = 2), and the merge is the per-group sum."""
    alone = run_sharded(universe=4, groups=1, epochs=2, mode="sequential", seed=0)
    paired = mode_reports["sequential"]
    (solo,), first = alone.group_results, paired.group_results[0]
    assert len(solo.members) == len(first.members) == 4
    assert solo.metrics.words_total == first.metrics.words_total > 0
    assert solo.metrics.messages_total == first.metrics.messages_total > 0
    assert solo.metrics.words_by_layer == first.metrics.words_by_layer
    for total in ("words_total", "messages_total"):
        assert getattr(paired.merged, total) == sum(
            getattr(group.metrics, total) for group in paired.group_results
        )


def test_transcripts_and_beacon_streams_identical_across_modes(mode_reports):
    reference = mode_reports["multiplexed"]
    for mode in ("sequential", "process"):
        report = mode_reports[mode]
        for expected, actual in zip(
            reference.group_results, report.group_results
        ):
            assert actual.members == expected.members
            assert [r.transcript for r in actual.epoch_results] == [
                r.transcript for r in expected.epoch_results
            ], mode
            assert actual.outputs == expected.outputs, mode
        assert report.combined == reference.combined, mode


def test_process_mode_did_not_fall_back(mode_reports):
    assert mode_reports["process"].executor_fallback is False


def test_k8_multiplexed_run_completes_with_all_groups_agreeing():
    report = run_sharded(universe=24, groups=8, epochs=1, mode="multiplexed")
    assert len(report.group_results) == 8
    assert report.agreed
    assert report.all_verified
    # Eight independent groups produce eight distinct key streams.
    keys = {
        str(result.epoch_results[0].public_key)
        for result in report.group_results
    }
    assert len(keys) == 8


def test_run_sharded_validates_mode():
    with pytest.raises(ValueError):
        run_sharded(universe=4, groups=2, mode="threads")


# -- the aggregated beacon -------------------------------------------------------------


@pytest.fixture(scope="module")
def sequential_report():
    return run_sharded(universe=6, groups=2, epochs=1, mode="sequential", seed=2)


def test_combined_value_hashes_every_groups_contribution(sequential_report):
    report = sequential_report
    coordinator = GroupCoordinator(6, 2, seed=2)
    beacon = ShardedBeacon(coordinator.groups)
    for output in report.combined:
        assert output.value == ShardedBeacon.combine_value(
            output.epoch, output.round, output.values
        )
        assert len(output.values) == 2
    assert beacon.verify(report.group_results, report.combined)


def test_tampered_combined_value_fails_verification(sequential_report):
    report = sequential_report
    beacon = ShardedBeacon(GroupCoordinator(6, 2, seed=2).groups)
    tampered = list(report.combined)
    tampered[0] = dataclasses.replace(tampered[0], value=tampered[0].value ^ 1)
    assert not beacon.verify(report.group_results, tampered)


def test_tampered_group_stream_fails_verification(sequential_report):
    report = sequential_report
    beacon = ShardedBeacon(GroupCoordinator(6, 2, seed=2).groups)
    victim = report.group_results[1]
    forged = dataclasses.replace(
        victim.outputs[0], value=victim.outputs[0].value + 1
    )
    tampered = dataclasses.replace(
        victim, outputs=[forged] + victim.outputs[1:]
    )
    results = [report.group_results[0], tampered]
    assert not beacon.verify(results, report.combined)


def test_misaligned_streams_are_rejected(sequential_report):
    report = sequential_report
    beacon = ShardedBeacon(GroupCoordinator(6, 2, seed=2).groups)
    truncated = dataclasses.replace(
        report.group_results[0], outputs=report.group_results[0].outputs[:-1]
    )
    with pytest.raises(ValueError):
        beacon.combine([truncated, report.group_results[1]])
    with pytest.raises(ValueError):
        beacon.combine(report.group_results[:1])


# -- the process executor --------------------------------------------------------------


def test_executor_requires_a_worker():
    with pytest.raises(ValueError):
        ShardExecutor(0)


def test_broken_pool_falls_back_inline_with_identical_results(monkeypatch):
    class _BrokenFuture:
        def result(self):
            raise BrokenProcessPool("worker died")

    class _BrokenExecutor:
        def submit(self, fn, *args):
            return _BrokenFuture()

    monkeypatch.setattr(
        shards_mod, "_get_executor", lambda workers: _BrokenExecutor()
    )
    discarded = []
    monkeypatch.setattr(
        shards_mod, "_discard_executor", lambda: discarded.append(True)
    )
    coordinator = GroupCoordinator(6, 2, seed=2)
    configs = [
        coordinator.group_config(
            group, epochs=1, rounds_per_epoch=2, transport="sim", timeout=60.0
        )
        for group in coordinator.groups
    ]
    executor = ShardExecutor(2)
    raws = executor.run(configs)
    assert executor.broken is True
    assert discarded == [True]
    # Degraded, not different: the inline path produced the exact
    # results the workers would have (all but the wall-clock field).
    direct = [_run_group_config(config) for config in configs]
    assert [raw[:6] for raw in raws] == [raw[:6] for raw in direct]
    results = [
        _group_result_from_raw(group, raw)
        for group, raw in zip(coordinator.groups, raws)
    ]
    assert all(result.agreed for result in results)
    # Once broken, later batches go straight to the inline path.
    assert executor.run(configs[:1])[0][:6] == raws[0][:6]


def test_malformed_configs_and_results_are_rejected():
    with pytest.raises(ValueError):
        _run_group_config(("not-a-shard-config",))
    group = make_shard_group(0, 4, None, seed=0)
    with pytest.raises(ValueError):
        _group_result_from_raw(group, ("shard-result", 1, 99))


# -- sharded transport restrictions ----------------------------------------------------


def test_sharded_transport_rejects_unsupported_features():
    coordinator = GroupCoordinator(8, 2, seed=0)
    groups = coordinator.groups
    with pytest.raises(ValueError, match="setup=None"):
        Simulation(groups[0].setup, seed=0, shards=groups)
    with pytest.raises(ValueError, match="behaviors"):
        Simulation(None, behaviors={0: object()}, seed=0, shards=groups)
    with pytest.raises(ValueError, match="chaos"):
        Simulation(None, seed=0, shards=groups, chaos=object())
    with pytest.raises(ValueError, match="contiguous"):
        Simulation(None, seed=0, shards=groups[::-1])


def test_sharded_transport_routes_by_session_block():
    coordinator = GroupCoordinator(8, 2, seed=0, group_f=0)
    sim = Simulation(
        None, seed=0, shards=coordinator.groups, delay_model=FixedDelay(1.0)
    )
    assert sim.n == 8
    assert len(sim.parties) == 8
    # Group 1's parties sit in the upper slot block but keep local indices.
    base = coordinator.groups[0].n
    for i, party in enumerate(sim.parties[base:]):
        assert party.index == i
        assert party.n == coordinator.groups[1].n
