"""Sharded scale-out: coordinator, inline ≡ pooled identity, aggregated beacon."""

import contextlib
import dataclasses
import math
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from concurrent.futures.process import BrokenProcessPool

from repro.service import (
    GroupCoordinator,
    ShardedBeacon,
    run_sharded,
)
from repro.service import shards as shards_mod
from repro.service.shards import (
    SESSION_STRIDE,
    _run_groups,
    group_seed,
    make_shard_group,
    partition_universe,
    shutdown_shard_executor,
)


@contextlib.contextmanager
def cores(count):
    """Run the block as if the host offered ``count`` usable cores: 1 runs
    the groups inline, more in the pool."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shards_mod, "_usable_cores", lambda: count)
        yield


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
    """The same run on both paths: ``"inline"`` and ``"pooled"``."""
    reports = {}
    for path, count in (("inline", 1), ("pooled", 2)):
        with cores(count):
            reports[path] = run_sharded(
                universe=8, groups=2, epochs=2, seed=0, timeout=120.0
            )
    shutdown_shard_executor()
    assert [report.workers for report in reports.values()] == [1, 2]
    return reports


def test_all_modes_agree_and_verify(path_reports):
    for path, report in path_reports.items():
        assert report.agreed, path
        assert report.all_verified, path
        assert len(report.group_results) == 2


def test_per_group_protocol_metrics_identical_inline_and_pooled(path_reports):
    reference = path_reports["inline"]
    for path, report in path_reports.items():
        assert [
            (m.words_total, m.messages_total, m.deliveries)
            for m in (result.metrics for result in report.group_results)
        ] == ANCHOR_TOTALS, path
        for expected, actual in zip(
            reference.group_results, report.group_results
        ):
            # summary() covers words/messages/bytes/deliveries/max_depth,
            # the per-layer/per-type breakdowns and the verify/pairing
            # work counters — all byte-identical by construction.
            assert actual.metrics.summary() == expected.metrics.summary(), path
        assert (
            report.merged.summary()["words_total"]
            == reference.merged.summary()["words_total"]
        )


def test_group_totals_are_invariant_in_k(path_reports):
    """Group 0's run is a pure function of (universe seed, gid, group
    size): alone (k = 1) it spends the words and messages it spends
    beside a second group (k = 2), and the merge is the per-group sum."""
    alone = run_sharded(universe=4, groups=1, epochs=2, seed=0)
    assert alone.workers == 1  # one group never builds the pool
    paired = path_reports["inline"]
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
    reference = path_reports["inline"]
    groups = GroupCoordinator(8, 2, seed=0).groups
    for path, report in path_reports.items():
        assert [output.value for output in report.combined] == ANCHOR_COMBINED, path
        for group, expected, actual in zip(
            groups, reference.group_results, report.group_results
        ):
            encode = group.setup.directory.pair_group.encode_element
            assert [
                encode(r.public_key).hex() for r in actual.epoch_results
            ] == ANCHOR_KEYS[group.gid], path
            assert actual.members == expected.members
            assert [r.transcript for r in actual.epoch_results] == [
                r.transcript for r in expected.epoch_results
            ], path
            assert actual.outputs == expected.outputs, path
        assert report.combined == reference.combined, path


def test_process_mode_did_not_fall_back(path_reports):
    assert path_reports["pooled"].executor_fallback is False


def test_k8_inline_run_completes_with_all_groups_agreeing():
    with cores(1):
        report = run_sharded(universe=24, groups=8, epochs=1)
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
    under chaos, with a mid-handoff crash — goes through the same group
    task and the same pool as the fresh-key epochs."""
    config = dict(
        universe=10, groups=2, epochs=3, churn="join:4@1;leave:0@2", group_f=1,
        chaos="drop:0.05", crash={"indices": (2,), "after": 12, "delay": 4.0},
        seed=1,
    )  # fmt: skip
    with cores(1):
        inline = run_sharded(**config)
    with cores(2):
        pooled = run_sharded(**config)
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
    """The crash is in the run, not just in the arguments: one plan per
    group in the first fresh-key epoch, one per group per handoff under
    churn, each having crashed and rehydrated its party."""
    from repro.service import timeline
    from repro.storage import CrashPlan

    fired = []

    class Recorded(CrashPlan):
        async def __call__(self, session):
            await super().__call__(session)
            fired.append((session, self.reattach_at - self.crash_at, set(self.replay)))

    # Every group's stretches run through the one timeline loop.
    monkeypatch.setattr(timeline, "CrashPlan", Recorded)
    monkeypatch.setattr(shards_mod, "_usable_cores", lambda: 1)
    crash = {"indices": (1,), "after": 12, "delay": 7.0}
    config = dict(universe=8, groups=2, seed=0, crash=crash)
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
    config = dict(universe=8, groups=2, group_f=0, seed=4)
    with cores(1):
        sim = run_sharded(transport="sim", **config)
        tcp = run_sharded(transport="tcp", timeout=60.0, **config)
    assert tcp.all_verified
    for expected, actual in zip(sim.group_results, tcp.group_results):
        assert actual.epoch_results[0].outputs == expected.epoch_results[0].outputs
    assert tcp.combined == sim.combined


class _InlineFuture:
    def __init__(self, task):
        self._task = task

    def result(self):
        return self._task()


@pytest.mark.parametrize("usable, expected", [(1, 1), (64, 3)])
def test_workers_default_is_derived_from_the_host(monkeypatch, usable, expected):
    """The worker count is ``min(groups, usable cores)``; 1 runs inline
    and never builds the pool."""
    made = []

    class _Pool:
        def submit(self, task):
            return _InlineFuture(task)

    def get_executor(workers):
        made.append(workers)
        return _Pool()

    monkeypatch.setattr(shards_mod, "_usable_cores", lambda: usable)
    monkeypatch.setattr(shards_mod, "_get_executor", get_executor)
    report = run_sharded(universe=9, groups=3)
    assert report.workers == expected and report.all_verified
    assert made == ([] if expected == 1 else [3])
    assert report.executor_fallback is False


# -- the aggregated beacon -------------------------------------------------------------


@pytest.fixture(scope="module")
def sequential_report():
    with cores(1):
        return run_sharded(universe=6, groups=2, epochs=1, seed=2)


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


# -- the pool and the arguments -------------------------------------------------------


def test_broken_pool_falls_back_inline_with_identical_results(monkeypatch):
    class _BrokenFuture:
        def result(self):
            raise BrokenProcessPool("worker died")

    class _BrokenExecutor:
        def submit(self, task):
            return _BrokenFuture()

    monkeypatch.setattr(
        shards_mod, "_get_executor", lambda workers: _BrokenExecutor()
    )
    discarded = []
    monkeypatch.setattr(
        shards_mod, "_discard_executor", lambda: discarded.append(True)
    )
    shared = dict(
        f=None, seed=2, params="TESTING", epochs=1, rounds_per_epoch=2,
        transport="sim", timeout=60.0, schedule=None, chaos=None, crash=None,
    )  # fmt: skip
    tasks = [
        partial(shards_mod._run_group, group.gid, group.members, **shared)
        for group in GroupCoordinator(6, 2, seed=2).groups
    ]
    results, fallback = _run_groups(tasks, 2)
    assert fallback is True
    assert discarded == [True]
    # Degraded, not different: the inline path ran the very tasks the
    # workers were sent, and produced what a direct run produces.
    direct, direct_fallback = _run_groups(tasks, 1)
    assert direct_fallback is False and discarded == [True]
    assert all(result.agreed for result in results)
    for expected, actual in zip(direct, results):
        assert actual.gid == expected.gid and actual.members == expected.members
        assert actual.epoch_results == expected.epoch_results
        assert actual.outputs == expected.outputs
        assert actual.metrics.summary() == expected.metrics.summary()


#: One malformed value for each argument ``run_sharded`` checks before a
#: group starts (at ``universe=8, groups=2, epochs=2``: two groups of 4).
_UPFRONT = st.one_of(
    st.tuples(st.just("universe"), st.integers(-3, 1)),
    st.tuples(st.just("groups"), st.integers(-3, 0) | st.integers(9, 12)),
    st.tuples(st.just("group_f"), st.integers(2, 6)),
    st.tuples(
        st.just("epochs"),
        st.integers(-3, 0) | st.integers(SESSION_STRIDE + 1, 2 * SESSION_STRIDE),
    ),
    st.tuples(st.just("rounds_per_epoch"), st.integers(-3, 0)),
    st.tuples(
        st.just("transport"),
        st.text(max_size=6).filter(lambda kind: kind not in ("sim", "asyncio", "tcp")),
    ),
    st.tuples(st.just("timeout"), st.sampled_from([0.0, -1.0, -math.inf, math.nan])),
    st.tuples(
        st.just("chaos"),
        st.sampled_from(["drop", "drop:2", "delay:inf@1-9", "partition:0|1", "x:1"]),
    ),
    st.tuples(
        st.just("churn"),
        st.sampled_from(["grow:1@1", "join:4@1", "leave:0@1", "threshold:2@1", "join:2@2"]),
    ),
)
#: A crash whose ranges :class:`CrashPlan` refuses when a group builds it.
_BAD_CRASH = st.builds(
    lambda after, delay: {"indices": (1,), "after": after, "delay": delay},
    st.sampled_from([-5, -1, True, 1.5]) | st.just(12),
    st.sampled_from([-1.0, math.inf, math.nan]),
) | st.builds(
    lambda after: {"indices": (1,), "after": after, "delay": 4.0},
    st.sampled_from([-5, -1, True, 1.5]),
)


def test_malformed_arguments_raise_before_any_group_starts(monkeypatch):
    started = []
    real = shards_mod._run_group

    def recorded(gid, members, **shared):
        started.append(gid)
        return real(gid, members, **shared)

    monkeypatch.setattr(shards_mod, "_run_group", recorded)
    monkeypatch.setattr(shards_mod, "_usable_cores", lambda: 1)
    valid = dict(universe=8, groups=2, epochs=2, seed=0)

    @settings(max_examples=120, deadline=None)
    @given(_UPFRONT)
    def upfront_fails_before_a_group_starts(malformed):
        name, value = malformed
        with pytest.raises(ValueError):
            run_sharded(**{**valid, name: value})
        assert started == []

    @settings(max_examples=20, deadline=None)
    @given(_BAD_CRASH)
    def crash_fails_when_its_plan_is_built(crash):
        with pytest.raises(ValueError, match="crash after|recovery delay"):
            run_sharded(**valid, crash=crash)
        assert started == [0]  # the first group built the plan and stopped
        started.clear()

    upfront_fails_before_a_group_starts()
    crash_fails_when_its_plan_is_built()
