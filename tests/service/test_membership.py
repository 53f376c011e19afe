"""Dynamic membership: the group key survives committee churn."""

import dataclasses

import pytest

from repro.service import GroupCoordinator, run_churn, run_sharded
from repro.service.membership import (
    ChurnBeacon,
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
    assert ChurnBeacon.verify_chain(
        churn_matrix_report.outputs, churn_matrix_report.membership.contexts
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
    assert not ChurnBeacon.verify_chain(tampered, contexts)
    # A chain that skips the genesis-rooted prev link fails too.
    assert not ChurnBeacon.verify_chain(outputs[1:], contexts)
    # Swapping one epoch's transcript for another's breaks the walk.
    swapped = dict(contexts)
    swapped[1] = contexts[0]
    assert not ChurnBeacon.verify_chain(outputs, swapped)


@pytest.mark.parametrize("transport", ["asyncio", "tcp"])
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


def test_crash_and_partition_handoffs_keep_the_key():
    """One crash-recover handoff and one healing-partition handoff."""
    report = run_churn(
        8,
        epochs=4,
        churn="join:7@1;leave:0@3",
        transport="sim",
        seed=4,
        base_f=1,
        crash={1: {"indices": (2,), "after": 12, "delay": 4.0}},
        chaos={2: "partition:0,1|2,3,4,5,6,7@3-9"},
    )
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
