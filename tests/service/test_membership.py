"""Dynamic membership: the group key survives committee churn."""

import dataclasses

import pytest

from repro.service import GroupCoordinator, run_churn, run_sharded
from repro.service.beacon import RandomnessBeacon
from repro.service.membership import (
    ChurnEvent,
    MembershipSchedule,
    parse_churn,
)
from repro.service import shards
from repro.service.shards import ShardedBeacon

# The acceptance schedule: >=2 joins, >=2 leaves, one threshold change,
# across >=4 epochs — the group key must stay byte-identical throughout.
CHURN_MATRIX = "join:8@1;join:9@2;leave:0@2;leave:1@3;threshold:1@3"


# -- schedules -----------------------------------------------------------------------


def test_parse_churn():
    events = parse_churn("join:7@1; leave:2@2;threshold:1@3")
    assert events == (
        ChurnEvent("join", 7, 1),
        ChurnEvent("leave", 2, 2),
        ChurnEvent("threshold", 1, 3),
    )
    with pytest.raises(ValueError):
        parse_churn("grow:7@1")
    with pytest.raises(ValueError):
        parse_churn("")
    with pytest.raises(ValueError):
        parse_churn("join:7@0")  # epoch 0 is the fresh ADKG


def test_schedule_excludes_future_joiners_from_the_base():
    schedule = MembershipSchedule.build(8, 3, parse_churn("join:7@1;leave:0@2"))
    assert schedule.epochs[0].members == (0, 1, 2, 3, 4, 5, 6)
    assert schedule.epochs[1].members == (0, 1, 2, 3, 4, 5, 6, 7)
    assert schedule.epochs[2].members == (1, 2, 3, 4, 5, 6, 7)
    assert all(spec.n >= 3 * spec.f + 1 for spec in schedule)


def test_schedule_rejects_invalid_plans():
    with pytest.raises(ValueError, match="3f\\+1"):
        MembershipSchedule.build(7, 2, parse_churn("leave:0@1"), base_f=2)
    with pytest.raises(ValueError, match="beyond the last epoch"):
        MembershipSchedule.build(7, 2, parse_churn("join:6@5"))
    with pytest.raises(ValueError, match="already a member"):
        MembershipSchedule.build(
            7, 2, parse_churn("join:3@1"), base_members=range(7)
        )
    with pytest.raises(ValueError, match="not a member"):
        MembershipSchedule.build(7, 2, parse_churn("leave:6@1;join:6@1"))


# -- the key-invariance gate ---------------------------------------------------------


@pytest.fixture(scope="module")
def churn_matrix_report():
    return run_churn(
        10, epochs=5, churn=CHURN_MATRIX, transport="sim", seed=2
    )


def test_churn_matrix_key_is_invariant(churn_matrix_report):
    membership = churn_matrix_report.membership
    assert membership.agreed
    assert membership.key_invariant
    assert membership.handoffs == 4
    group = membership.setups[0].directory.pair_group
    for result in membership.results:
        assert group.encode_element(result.public_key) == membership.key_encoded


def test_handoff_finishes_within_twice_the_fresh_adkg_rounds(churn_matrix_report):
    """A reshare handoff rides the agreement machinery of the ADKG it
    follows (dealing fan-out, then NWH on a bundle): same critical path,
    so at most 2x its simulated rounds, whatever the committee change."""
    adkg, *handoffs = churn_matrix_report.membership.results
    assert len(handoffs) == 4 and adkg.latency > 0
    for handoff in handoffs:
        assert 0 < handoff.latency <= 2.0 * adkg.latency, handoff.epoch


def test_churn_matrix_chain_verifies(churn_matrix_report):
    assert churn_matrix_report.all_verified
    assert RandomnessBeacon.verify_chain(
        churn_matrix_report.outputs,
        churn_matrix_report.membership.contexts,
        handoffs=True,
    )


def test_churn_matrix_records_committees(churn_matrix_report):
    results = churn_matrix_report.membership.results
    assert results[0].committee == (0, 1, 2, 3, 4, 5, 6, 7)
    assert results[1].committee == (0, 1, 2, 3, 4, 5, 6, 7, 8)
    assert results[2].committee == (1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert results[3].committee == (2, 3, 4, 5, 6, 7, 8, 9)
    assert results[3].threshold == 1
    assert results[0].threshold == 2


def test_tampered_chain_rejected(churn_matrix_report):
    outputs = list(churn_matrix_report.outputs)
    contexts = churn_matrix_report.membership.contexts
    tampered = outputs[:1] + [dataclasses.replace(outputs[1], value=outputs[1].value ^ 1)]
    assert not RandomnessBeacon.verify_chain(tampered, contexts, handoffs=True)
    # A chain that skips the genesis-rooted prev link fails too.
    assert not RandomnessBeacon.verify_chain(outputs[1:], contexts, handoffs=True)
    # Swapping one epoch's transcript for another's breaks the walk.
    swapped = dict(contexts)
    swapped[1] = contexts[0]
    assert not RandomnessBeacon.verify_chain(outputs, swapped, handoffs=True)


@pytest.mark.parametrize("transport", ["tcp"])
def test_churn_survives_on_realtime_transports(transport):
    report = run_churn(
        7,
        epochs=3,
        churn="join:6@1;leave:0@2",
        transport=transport,
        seed=3,
        base_f=1,
    )
    assert report.key_invariant
    assert report.all_verified


@pytest.fixture(scope="module")
def crash_partition_report():
    return run_churn(
        8,
        epochs=4,
        churn="join:7@1;leave:0@3",
        transport="sim",
        seed=4,
        base_f=1,
        crash={1: {"indices": (2,), "after": 12, "delay": 4.0}},
        chaos={2: "partition:0,1|2,3,4,5,6,7@3-9"},
    )


def test_crash_and_partition_handoffs_keep_the_key(crash_partition_report):
    """One crash-recover handoff and one healing-partition handoff."""
    report = crash_partition_report
    membership = report.membership
    assert membership.crash_epochs == (1,)
    assert membership.chaos_epochs == (2,)
    replay = membership.replay[1]
    assert any(stats["wal_records"] > 0 for stats in replay.values())
    assert membership.key_invariant
    assert report.all_verified


# -- sharded churn -------------------------------------------------------------------


_SHARDED_CHURN = dict(universe=10, groups=2, group_f=1, seed=1)


@pytest.fixture(scope="module")
def sharded_churn_report():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shards, "_usable_cores", lambda: 1)  # inline
        return run_sharded(epochs=3, churn="join:4@1;leave:0@2", **_SHARDED_CHURN)


def _sharded_churn_verifier():
    return ShardedBeacon(GroupCoordinator(**_SHARDED_CHURN).groups, churn=True)


def test_sharded_churn_verifies(sharded_churn_report):
    report = sharded_churn_report
    assert report.all_verified
    for group in report.group_results:
        # One key per group across both handoffs.
        assert len({str(result.public_key) for result in group.epoch_results}) == 1
    verifier = _sharded_churn_verifier()
    assert verifier.verify(report.group_results, report.combined)
    # The handed-off chains are not fresh-key chains: the verifier has to
    # be told which service it is looking at.
    fresh = ShardedBeacon(verifier.groups)
    assert not fresh.verify(report.group_results, report.combined)


def test_sharded_churn_translates_committees(sharded_churn_report):
    for group in sharded_churn_report.group_results:
        committees = [result.committee for result in group.epoch_results]
        for committee in committees:
            assert set(committee) <= set(group.members)
        # The churn schedule actually changed this group's committee.
        assert len(set(committees)) > 1


def test_sharded_churn_tamper_rejected(sharded_churn_report):
    report = sharded_churn_report
    verifier = _sharded_churn_verifier()
    bad_combined = list(report.combined)
    bad_combined[0] = dataclasses.replace(
        bad_combined[0], value=bad_combined[0].value ^ 1
    )
    assert not verifier.verify(report.group_results, bad_combined)
    # An epoch row that claims a committee the handoff did not run with
    # rebuilds a directory its transcript fails under.
    victim = report.group_results[1]
    rows = list(victim.epoch_results)
    rows[1] = dataclasses.replace(rows[1], committee=rows[0].committee)
    forged = dataclasses.replace(victim, epoch_results=rows)
    assert not verifier.verify([report.group_results[0], forged], report.combined)
    rows[1] = dataclasses.replace(rows[1], committee=(99,) + rows[1].committee[1:])
    stranger = dataclasses.replace(victim, epoch_results=rows)
    assert not verifier.verify([report.group_results[0], stranger], report.combined)


# -- pinned churn runs ---------------------------------------------------------------

#: What the churn paths produced before they were folded into the one epoch
#: loop, recorded at that loop's parent commit.  Per epoch: words, messages,
#: protocol bytes (the simulator meters none) and verify-cache misses; then
#: the encoded group key, committees, thresholds and beacon values.
#: ``deliveries`` and ``max_depth`` are left out: draining each transport's
#: stragglers before it closes moves them without moving the protocol.
PINNED_CHURN = {
    "totals": [(20460, 1950, 0, 154), (37236, 3102, 0, 188), (22665, 1955, 0, 154)],
    "key": "77bf2fb4762d4491109b0593ed89e1a88501532f635f606aa8252f61ecf7284a",
    "committees": [(0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6)],
    "thresholds": [1, 1, 1],
    "beacon": [
        11356929993793021729146219443183693930,
        14279265648074584562462946712786396735,
        8990753196949296250399552592369064725,
        238120561633319362783570991225629088095,
        290819557314029749611071686164712056456,
        172230649450679595800430515644205433123,
    ],
}
PINNED_CRASH_PARTITION = {
    "totals": [
        (34944, 3108, 0, 192),
        (59395, 4641, 0, 240),
        (60312, 4648, 0, 242),
        (38196, 3114, 0, 192),
    ],
    "key": "9e6c0d8122ee8e1ca2a8f8299718a740ecd0ec955ecbea4fc87bc5d6945e7874",
    "committees": [
        (0, 1, 2, 3, 4, 5, 6),
        (0, 1, 2, 3, 4, 5, 6, 7),
        (0, 1, 2, 3, 4, 5, 6, 7),
        (1, 2, 3, 4, 5, 6, 7),
    ],
    "thresholds": [1, 1, 1, 1],
    "beacon": [
        226394332782351699793770176931200237719,
        10214685331427645337506500995257204783,
        96366244865693360427565753968250986603,
        300281119984145528567902805265239314838,
        317110680748892342706099587734563997370,
        69347980054938256939941687098115367840,
        55688715795629364238929354576156053719,
        85649603858532966243289210865178004776,
    ],
}
#: The sharded churn fixture: per group (words, messages, bytes), then the
#: combined beacon values.
PINNED_SHARDED_TOTALS = [(21949, 2247, 0), (21949, 2247, 0)]
PINNED_SHARDED_COMBINED = [
    24534108237495594769823220193299405291,
    123849733756028325614786077359687869219,
    271207419309230439834037047843351518709,
    68717639633054598161820615819393234057,
    325467937809103962330571871979556620320,
    50276170841968258185118090005495032991,
]


def _pinned_facts(report):
    membership = report.membership
    return {
        "totals": [
            (
                metrics.words_total,
                metrics.messages_total,
                metrics.bytes_total,
                sum(
                    count
                    for name, count in metrics.counters("verify").items()
                    if name.endswith(".misses")
                ),
            )
            for metrics in membership.metrics
        ],
        "key": membership.key_encoded.hex(),
        "committees": [result.committee for result in membership.results],
        "thresholds": [result.threshold for result in membership.results],
        "beacon": [output.value for output in report.outputs],
    }


def test_churn_run_is_pinned():
    report = run_churn(7, epochs=3, churn="join:6@1;leave:0@2", base_f=1, seed=3)
    assert report.all_verified
    assert _pinned_facts(report) == PINNED_CHURN


def test_crash_partition_churn_run_is_pinned(crash_partition_report):
    assert _pinned_facts(crash_partition_report) == PINNED_CRASH_PARTITION


def test_sharded_churn_run_is_pinned(sharded_churn_report):
    assert [
        (m.words_total, m.messages_total, m.bytes_total)
        for m in (group.metrics for group in sharded_churn_report.group_results)
    ] == PINNED_SHARDED_TOTALS
    assert [o.value for o in sharded_churn_report.combined] == PINNED_SHARDED_COMBINED


# -- overlays, schedules and counters the timeline must honour ----------------------

_FAULTS = ["--crash", "0@12", "--chaos", "drop:0.05"]
_CRASH = {"indices": (1,), "after": 12, "delay": 4.0}


def _cli(*argv):
    from repro.cli import main

    return main(["run", "--seed", "1", "--reshare", "1", *argv, *_FAULTS])


@pytest.mark.parametrize(
    "attempt",
    [
        lambda: _cli("-n", "4"),
        lambda: _cli("-n", "8", "--groups", "2"),
        lambda: run_sharded(
            universe=8, groups=2, epochs=1, churn="", chaos="drop:0.05", crash=_CRASH
        ),
        lambda: run_churn(4, epochs=2, crash={5: _CRASH}, chaos={-1: "drop:0.05"}),
    ],
    ids=["cli", "cli-groups", "run_sharded", "run_churn"],
)
def test_an_overlay_the_timeline_cannot_carry_is_refused(attempt, monkeypatch, capsys):
    """A fault overlay keyed by an epoch the timeline does not have, or
    meant for handoff epochs in a run that has none, is refused before
    any transport starts — never dropped from a run that then passes."""
    from repro.net.transport import Transport

    built = []
    real = Transport.__init__

    def recorded(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Transport, "__init__", recorded)
    monkeypatch.setattr(shards, "_usable_cores", lambda: 1)
    try:
        status = attempt()
    except ValueError:
        status = "ValueError"
    else:
        assert status == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert built == []


def test_schedule_needs_a_committee_and_a_threshold_at_every_epoch():
    """n >= 1, f >= 0 and int (not bool) event values, at construction."""
    with pytest.raises(ValueError):
        MembershipSchedule.build(7, 2, (), base_members=[])
    with pytest.raises(ValueError):
        MembershipSchedule.build(7, 2, (), base_f=-1)
    with pytest.raises(ValueError):
        MembershipSchedule.build(7, 2, (ChurnEvent("threshold", -1, 1),))
    with pytest.raises(ValueError):
        ChurnEvent("join", True, 1)
    with pytest.raises(ValueError):
        ChurnEvent("threshold", 1, True)


def test_a_churn_run_counts_each_pairing_once():
    """Every epoch transport slices one pairing group: the run's metrics
    report the pairings that group made, not one reading per transport."""
    from repro.net.metrics import Metrics

    report = run_churn(7, epochs=3, churn="join:6@1;leave:0@2", base_f=1, seed=3)
    membership = report.membership
    group = membership.setups[0].directory.pair_group
    merged = Metrics.merged(membership.metrics).counters("pairing")
    assert merged == {"pair_calls": group.pair_calls} and group.pair_calls > 0


def test_every_stretch_after_the_first_is_one_handoff_epoch():
    """Which stretch is a handoff follows from its place in the timeline,
    and a handoff runs one epoch: a longer one is refused up front."""
    from repro.crypto.keys import TrustedSetup
    from repro.service.timeline import MembershipDriver, Stretch

    setup = TrustedSetup.generate(4, seed=0)
    fresh, handoff = Stretch(setup, range(2), 0), Stretch(setup, range(2, 4), 1)
    with pytest.raises(ValueError):
        MembershipDriver([fresh, handoff])
