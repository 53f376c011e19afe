"""Sharded scale-out: coordinator, inline ≡ pooled identity, aggregated beacon."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from concurrent.futures.process import BrokenProcessPool

from repro.service import (
    GroupCoordinator,
    ShardedBeacon,
    ShardExecutor,
    run_sharded,
)
from repro.service import shards as shards_mod
from repro.service.shards import (
    SESSION_STRIDE,
    _group_result_from_raw,
    _run_group_config,
    group_seed,
    make_shard_group,
    partition_universe,
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
    assert group.session_of(0) // SESSION_STRIDE == 3
    assert group.session_of(SESSION_STRIDE - 1) // SESSION_STRIDE == 3
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


# -- cross-path byte-identity (the differential gate) ----------------------------------

#: What ``run_sharded(universe=8, groups=2, epochs=2, seed=0)`` produced on
#: the shared ("multiplexed") transport PR 23 deleted, recorded at its
#: parent commit: the reference both surviving paths must reproduce.
#: Per group: (words_total, messages_total, deliveries), then each
#: epoch's encoded public key.
ANCHOR_TOTALS = [(9432, 1128, 1504), (9432, 1128, 1504)]
ANCHOR_KEYS = [
    [
        "17c6bd34972ee01b1aedead8dc575a3127ce82077a9e8ba5d8eb458a21762813",
        "c9ad18f06d01d507b9cdbe892fbd21c795e861b082c6b0d3d1173d527f80f432",
    ],
    [
        "a2341d307ec334f68e686eafd3f1db140b4b08b15939dfc039a6bdf758bec7b5",
        "932d585bb759396f812970c89824505fd05100b8ea133e27d3bab3085b76d5b3",
    ],
]
ANCHOR_COMBINED = [
    150501124580592238222953386424375635861,
    103370856027451117410311639853798671755,
    268166292520183565693636457937867912565,
    249533004042305776588206776738775941820,
]


@pytest.fixture(scope="module")
def path_reports():
    """The same run on both paths, by ``ShardReport.mode``: inline
    (``"sequential"``) and pooled (``"process"``)."""
    reports = {}
    for workers in (1, 2):  # inline, then the pool
        report = run_sharded(
            universe=8, groups=2, epochs=2, workers=workers, seed=0, timeout=120.0
        )
        reports[report.mode] = report
    shutdown_shard_executor()
    assert sorted(reports) == ["process", "sequential"]
    return reports


def test_all_modes_agree_and_verify(path_reports):
    for mode, report in path_reports.items():
        assert report.agreed, mode
        assert report.all_verified, mode
        assert len(report.group_results) == 2


def test_per_group_protocol_metrics_identical_inline_and_pooled(path_reports):
    reference = path_reports["sequential"]
    for mode in ("sequential", "process"):
        report = path_reports[mode]
        assert [
            (m.words_total, m.messages_total, m.deliveries)
            for m in (result.metrics for result in report.group_results)
        ] == ANCHOR_TOTALS, mode
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


def test_group_totals_are_invariant_in_k(path_reports):
    """Group 0's run is a pure function of (universe seed, gid, group
    size): alone (k = 1) it spends the words and messages it spends
    beside a second group (k = 2), and the merge is the per-group sum."""
    alone = run_sharded(universe=4, groups=1, epochs=2, workers=1, seed=0)
    paired = path_reports["sequential"]
    (solo,), first = alone.group_results, paired.group_results[0]
    assert len(solo.members) == len(first.members) == 4
    assert solo.metrics.words_total == first.metrics.words_total > 0
    assert solo.metrics.messages_total == first.metrics.messages_total > 0
    assert solo.metrics.words_by_layer == first.metrics.words_by_layer
    for total in ("words_total", "messages_total"):
        assert getattr(paired.merged, total) == sum(
            getattr(group.metrics, total) for group in paired.group_results
        )


def test_transcripts_and_beacon_streams_identical_inline_and_pooled(path_reports):
    reference = path_reports["sequential"]
    groups = GroupCoordinator(8, 2, seed=0).groups
    for mode in ("sequential", "process"):
        report = path_reports[mode]
        assert [output.value for output in report.combined] == ANCHOR_COMBINED, mode
        for group, expected, actual in zip(
            groups, reference.group_results, report.group_results
        ):
            encode = group.setup.directory.pair_group.encode_element
            assert [
                encode(r.public_key).hex() for r in actual.epoch_results
            ] == ANCHOR_KEYS[group.gid], mode
            assert actual.members == expected.members
            assert [r.transcript for r in actual.epoch_results] == [
                r.transcript for r in expected.epoch_results
            ], mode
            assert actual.outputs == expected.outputs, mode
        assert report.combined == reference.combined, mode


def test_process_mode_did_not_fall_back(path_reports):
    assert path_reports["process"].executor_fallback is False


def test_k8_inline_run_completes_with_all_groups_agreeing():
    report = run_sharded(universe=24, groups=8, epochs=1, workers=1)
    assert len(report.group_results) == 8
    assert report.agreed
    assert report.all_verified
    # Eight independent groups produce eight distinct key streams.
    keys = {
        str(result.epoch_results[0].public_key)
        for result in report.group_results
    }
    assert len(keys) == 8


def test_groups_under_churn_are_identical_inline_and_pooled():
    """k groups run what one committee runs: the membership schedule —
    under chaos, with a mid-handoff crash — goes through the same config
    tuple and the same pool as the fresh-key epochs."""
    config = dict(
        universe=10, groups=2, epochs=3, churn="join:4@1;leave:0@2", group_f=1,
        chaos="drop:0.05", crash={"indices": (2,), "after": 12, "delay": 4.0},
        seed=1,
    )  # fmt: skip
    inline = run_sharded(workers=1, **config)
    pooled = run_sharded(workers=2, **config)
    shutdown_shard_executor()
    assert inline.all_verified and pooled.all_verified
    assert not pooled.executor_fallback
    assert pooled.combined == inline.combined
    for group, expected, actual in zip(
        GroupCoordinator(10, 2, group_f=1, seed=1).groups,
        inline.group_results,
        pooled.group_results,
    ):
        encode = group.setup.directory.pair_group.encode_element
        keys = {encode(r.public_key) for r in actual.epoch_results}
        assert len(keys) == 1  # one key per group, handed off twice
        assert keys == {encode(r.public_key) for r in expected.epoch_results}
        assert actual.outputs == expected.outputs
        assert actual.metrics.summary() == expected.metrics.summary()
        # Committees are universe ids, and the schedule really moved them.
        committees = [r.committee for r in actual.epoch_results]
        assert committees == [r.committee for r in expected.epoch_results]
        assert all(set(committee) <= set(group.members) for committee in committees)
        assert len(set(committees)) == 3


def test_a_crash_overlay_reaches_every_group(monkeypatch):
    """The crash is in the run, not just in the config: one plan per group
    in the first fresh-key epoch, one per group per handoff under churn,
    each having crashed and rehydrated its party."""
    from repro.service import membership as membership_mod
    from repro.storage import CrashPlan

    fired = []

    class Recorded(CrashPlan):
        async def __call__(self, session):
            await super().__call__(session)
            fired.append((session, self.reattach_at - self.crash_at, set(self.replay)))

    monkeypatch.setattr(shards_mod, "CrashPlan", Recorded)
    monkeypatch.setattr(membership_mod, "CrashPlan", Recorded)
    crash = {"indices": (1,), "after": 12, "delay": 7.0}
    config = dict(universe=8, groups=2, workers=1, seed=0, crash=crash)
    assert run_sharded(epochs=2, **config).all_verified
    assert fired == [(0, 7.0, {1}), (SESSION_STRIDE, 7.0, {1})]
    fired.clear()
    assert run_sharded(epochs=3, churn="", **config).all_verified
    assert fired == [(0, 7.0, {1})] * 4  # 2 groups x 2 handoffs, a transport each


def test_two_groups_over_tcp_match_the_simulator():
    """k=2 at f=0 over real sockets: schedule-independent transcripts.

    Word totals are NOT asserted on tcp (delivery timing is real, so
    per-run framing differs); at f=0 every party folds all n seeded
    contributions, making the agreed transcripts schedule-independent.
    """
    config = dict(universe=8, groups=2, group_f=0, seed=4, workers=1)
    sim = run_sharded(transport="sim", **config)
    tcp = run_sharded(transport="tcp", timeout=60.0, **config)
    assert tcp.all_verified
    for expected, actual in zip(sim.group_results, tcp.group_results):
        assert actual.epoch_results[0].outputs == expected.epoch_results[0].outputs
    assert tcp.combined == sim.combined


@pytest.mark.parametrize("cores, expected", [(1, 1), (64, 3)])
def test_workers_default_is_derived_from_the_host(monkeypatch, cores, expected):
    """``workers=None`` is ``min(groups, usable cores)``; 1 runs inline
    and never builds the pool."""
    made = []

    class _Inline:
        broken = False

        def __init__(self, workers):
            made.append(workers)

        def run(self, configs):
            return [_run_group_config(config) for config in configs]

    monkeypatch.setattr(shards_mod, "_usable_cores", lambda: cores)
    monkeypatch.setattr(shards_mod, "ShardExecutor", _Inline)
    report = run_sharded(universe=9, groups=3)
    assert report.workers == expected and report.all_verified
    assert made == ([] if expected == 1 else [3])
    assert report.mode == ("sequential" if expected == 1 else "process")
    made.clear()
    run_sharded(universe=9, groups=3, workers=1)
    assert made == []


# -- the aggregated beacon -------------------------------------------------------------


@pytest.fixture(scope="module")
def sequential_report():
    return run_sharded(universe=6, groups=2, epochs=1, workers=1, seed=2)


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
    # A transcript that crossed the worker boundary is checked, not just
    # its public key: reversed shares keep the key and every value valid.
    [epoch] = victim.epoch_results
    reversed_shares = dataclasses.replace(
        epoch.transcript, cipher_shares=epoch.transcript.cipher_shares[::-1]
    )
    assert reversed_shares.public_key == epoch.transcript.public_key
    smuggled = dataclasses.replace(
        victim,
        epoch_results=[dataclasses.replace(epoch, transcript=reversed_shares)],
    )
    assert not beacon.verify([report.group_results[0], smuggled], report.combined)


def test_misaligned_streams_are_rejected(sequential_report):
    report = sequential_report
    beacon = ShardedBeacon(GroupCoordinator(6, 2, seed=2).groups)
    truncated = dataclasses.replace(
        report.group_results[0], outputs=report.group_results[0].outputs[:-1]
    )
    with pytest.raises(ValueError):
        beacon.combine([truncated.outputs, report.group_results[1].outputs])
    with pytest.raises(ValueError):
        beacon.combine([])
    assert not beacon.verify(report.group_results[:1], report.combined)


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


#: Replacements for one field of a tuple crossing the process boundary:
#: wrong types, out-of-range values, and small valid ones (a mutant that
#: is still well formed runs for real, so nothing here is large).
_FIELD_MUTANTS = st.one_of(
    st.sampled_from([None, True, 1.5, -1.0, "x", "sim", b"", (), (None,), {}, {"x": None}]),
    st.integers(-2, 5),
    st.tuples(st.integers(-1, 9), st.integers(-1, 9), st.integers(0, 9), st.integers(0, 9)),
)


def test_malformed_configs_and_results_are_rejected():
    with pytest.raises(ValueError):
        _run_group_config(("not-a-shard-config",))
    group = make_shard_group(0, 4, None, seed=0)
    with pytest.raises(ValueError):
        _group_result_from_raw(group, ("shard-result", 1, 99))

    coordinator = GroupCoordinator(4, 1, seed=0)
    config = coordinator.group_config(
        coordinator.groups[0], epochs=1, rounds_per_epoch=1, transport="sim", timeout=60.0
    )
    raw = _run_group_config(config)
    assert _group_result_from_raw(group, raw).agreed

    def mutated(valid, path, value):
        """``valid`` with the field at ``path`` (tuple indices, then a
        dict key for the metrics view) replaced."""
        head, rest = path[0], path[1:]
        inner = mutated(valid[head], rest, value) if rest else value
        if isinstance(valid, dict):
            return {**valid, head: inner}
        return valid[:head] + (inner,) + valid[head + 1 :]

    # Every field of the config, then of the result: its top level, one
    # epoch row, one beacon row, and the metrics view's entries.
    config_paths = [(i,) for i in range(len(config))]
    result_paths = (
        [(i,) for i in range(len(raw))]
        + [(3, 0, i) for i in range(len(raw[3][0]))]
        + [(4, 0, i) for i in range(len(raw[4][0]))]
        + [(5, key) for key in raw[5]]
    )

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(config_paths), _FIELD_MUTANTS)
    def config_fails_closed(path, value):
        try:
            result = _run_group_config(mutated(config, path, value))
        except ValueError as error:
            assert "malformed shard config" in str(error)
        else:
            assert result[0] == "shard-result"

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(result_paths), _FIELD_MUTANTS)
    def result_fails_closed(path, value):
        try:
            result = _group_result_from_raw(group, mutated(raw, path, value))
        except ValueError as error:
            assert "malformed shard result" in str(error)
        else:
            assert result.gid == group.gid

    config_fails_closed()
    result_fails_closed()
