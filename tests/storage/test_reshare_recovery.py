"""WAL replay mid-handoff: a frozen party rejoins its reshare epoch."""

import pytest

from repro.crypto import reshare
from repro.net.chaos import ChaosSpec
from repro.service import run_churn
from repro.storage import run_crash_recovery


@pytest.mark.parametrize("transport", ["sim", "tcp"])
def test_wal_replay_mid_handoff(transport, tmp_path):
    """Freeze a party during the reshare epoch; it replays to the same key."""
    report = run_churn(
        7,
        epochs=2,
        churn="join:6@1",
        transport=transport,
        seed=6,
        base_f=1,
        crash={1: {"indices": (1,), "after": 10, "delay": 2.0}},
        storage_dir=str(tmp_path / transport),
    )
    membership = report.membership
    assert membership.key_invariant
    assert report.all_verified
    stats = membership.replay[1][1]
    assert stats["wal_records"] > 0
    # The recovered party output the same finalized handoff as everyone.
    result = membership.results[1]
    assert result.agreed and 1 in result.outputs
    transcript = result.transcript
    assert isinstance(transcript, reshare.ReshareTranscript)
    assert reshare.verify_reshared(membership.setups[1].directory, transcript)
    # The durable artifacts really exist where we pointed the WAL.
    assert (tmp_path / transport / "party-1" / "wal.bin").exists()
    assert (tmp_path / transport / "party-1" / "snapshot.bin").exists()


def test_freezing_mid_handoff_leaves_the_memo_plain(monkeypatch, tmp_path):
    """Reshare state nests aggregates (a bundle holds dealings): each
    checkpoint of the handoff epoch names the outer one and must leave
    every memo entry — outer, nested, payload — a plain walk."""
    from repro.net import codec
    from repro.net.party import Party
    from tests.net.helpers import aggregates_in, assert_memo_holds_only_plain_walks

    freeze = Party.freeze
    nested = []

    def freeze_then_check(party):
        blob = freeze(party)
        assert assert_memo_holds_only_plain_walks() > 0
        nested.extend(
            type(inner).__name__
            for outer in aggregates_in(codec.decode_shared(blob))
            if isinstance(outer, reshare.ReshareBundle)
            for inner in outer.dealings
        )
        return blob

    monkeypatch.setattr(Party, "freeze", freeze_then_check)
    report = run_churn(
        7,
        epochs=2,
        churn="join:6@1",
        transport="sim",
        seed=6,
        base_f=1,
        crash={1: {"indices": (1,), "after": 10, "delay": 2.0}},
        storage_dir=str(tmp_path),
    )
    assert report.membership.key_invariant and report.all_verified
    assert "ReshareDealing" in nested


def test_crash_recovery_composes_with_chaos_mid_handoff(tmp_path):
    """A party thaws into a still-degraded network and still converges."""
    report = run_churn(
        8,
        epochs=2,
        churn="join:7@1",
        transport="sim",
        seed=7,
        base_f=1,
        crash={1: {"indices": (2,), "after": 12, "delay": 4.0}},
        chaos={1: "drop:0.05"},
        storage_dir=str(tmp_path),
    )
    membership = report.membership
    assert membership.crash_epochs == (1,)
    assert membership.chaos_epochs == (1,)
    assert membership.key_invariant
    assert report.all_verified


def test_run_crash_recovery_accepts_a_chaos_spec():
    """The storage seam itself takes a chaos plane (CLI --crash --chaos)."""
    report = run_crash_recovery(
        transport="sim",
        n=4,
        seed=1,
        crash_indices=(0,),
        crash_after=30,
        recovery_delay=6.0,
        chaos=ChaosSpec.parse("drop:0.03"),
    )
    assert report["agreement"]
    assert report["valid"]
    assert report["replay"][0]["wal_records"] > 0
