"""The experiment harness at CI size: the functions ``run_experiments``
renders EXPERIMENTS.md from, on smaller grids, every check asserted."""

import functools
import pathlib
import re

import pytest

from repro.analysis import experiments as exp

EXPERIMENTS_MD = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@functools.cache
def quick_sections():
    """Run once, by whichever test asks first — inside a test body, so the
    freeze oracle (``tests/conftest.py``) checks E14's and E18's checkpoints."""
    sections = [
        exp.e1_broadcast(n_fixed=4, ms=(16, 256), ns=(4, 7, 10), m_small=4, m_big=128),
        exp.e2_gather(ns=(4, 7, 10), n_fixed=4, ms=(1, 64)),
        exp.e3_proposal_election(ns=(4, 7, 10)),
        exp.e4_pe_binding(
            benign_runs=4, silent_runs=3, lag_runs=3, n7_runs=2, searched_runs={4: 20, 7: 20}
        ),
        exp.e5_nwh(view_runs=4, ns=(4, 7, 10), seeds=(1,), lag_runs=20),
        exp.e6_adkg(ns=(4, 7, 10), seeds=(1,)),
        exp.e7_baseline(ns=(4, 7, 10), seed=1),
        exp.e8_fault_matrix(cases=((4, 1),)),
        exp.e9_rbc_ablation(ns=(4, 7), seeds=(1,)),
        exp.e10_vc_ablation(ns=(4, 7, 13), m=8),
        exp.e11_transports(ns=(4,), seed=1),
        exp.e12_hotpath(ns=(4, 7), seed=1),
        exp.e13_pipelining(n=4, epochs=3, depths=(1, 2)),
        exp.e14_crash_recovery(n=4, seed=1, cadences=(8, 64), delays=(3.0,)),
        exp.e16_chaos(n=4, seed=1, realtime=()),
        exp.e18_churn(seed=2, rotation_epochs=3, realtime=()),
    ]
    return {section.id: section for section in sections}


def test_run_experiments():
    sections = quick_sections()
    assert exp.failed_checks(sections.values()) == []
    # The same sixteen sections, in order, that ``run_experiments`` last
    # rendered (CI regenerates the file and diffs it).
    rendered = re.findall(r"^## (E\d+) — (.+)$", EXPERIMENTS_MD.read_text(), re.M)
    assert [(s.id, s.title) for s in sections.values()] == rendered
    assert list(sections) == [f"E{i}" for i in range(1, 19) if i not in (15, 17)]
    for section in sections.values():
        assert section.checks
        assert set(section.columns) <= set().union(*section.rows)
        assert section.render().startswith(f"## {section.id} — ")


def test_a_failed_check_is_reported_and_rendered():
    sections = quick_sections()
    broken = exp.Section("E0", "t", "c", (), [], (), {"held": True, "did not": False})
    assert exp.failed_checks([sections["E1"], broken]) == ["E0: did not"]
    assert "- [x] held\n- [ ] did not" in exp.render([broken])


def test_broadcast_rows_have_expected_fields():
    sections = quick_sections()
    rows = sections["E1"].rows
    assert {row["kind"] for row in rows} == {"ct", "bracha"}
    for row in rows:
        assert row["words"] > 0 and row["messages"] > 0
        assert row["rounds"] == 3.0


def test_gather_rows():
    sections = quick_sections()
    for row in sections["E2"].rows:
        assert row["core_size"] >= row["n"] - (row["n"] - 1) // 3
        assert row["words"] > 0


def test_pe_rows_breakdown_fields():
    sections = quick_sections()
    row = sections["E3"].rows[0]
    for field in ("gather_words", "dkg_words", "eval_words", "idx_words"):
        assert row[field] > 0
    assert row["words"] >= row["gather_words"]


def test_pe_quality_runner():
    sections = quick_sections()
    benign = sections["E4"].rows[0]
    assert (benign["setting"], benign["runs"]) == ("benign", 4)
    assert 0.0 <= benign["binding_rate"] <= 1.0
    assert benign["termination_rate"] == 1.0


def test_nwh_rows():
    sections = quick_sections()
    row = sections["E5"].rows[0]
    assert row["runs"] == 4
    assert row["mean_views"] >= 1.0
    assert row["words_per_view"] > 0


def test_adkg_rows():
    sections = quick_sections()
    rows = sections["E6"].rows
    assert [row["n"] for row in rows] == [4, 7, 10]
    assert rows[0]["agreement_rate"] == 1.0
    assert rows[0]["mean_words"] > 0
    # Under three points there is nothing to fit: the shape checks stay.
    assert "words exponent in 2.5–3.9" not in exp.e6_adkg(ns=(4,), seeds=(1,)).checks


def test_baseline_comparison_rows():
    sections = quick_sections()
    row = sections["E7"].rows[0]
    assert row["ours_words"] > 0 and row["baseline_words"] > 0
    assert row["word_ratio"] == pytest.approx(row["baseline_words"] / row["ours_words"])


def test_the_crossover_is_read_off_the_rows():
    def rows(*ratios):
        return [{"n": n, "word_ratio": r} for n, r in zip((4, 7, 10, 13), ratios)]

    assert exp._crossover(rows(0.5, 0.7, 0.9, 0.99)) == "no crossover up to n = 13"
    assert exp._crossover(rows(0.5, 0.9, 1.02, 1.1)) == "the baseline costs more from n = 10"
    # A ratio that dips back under 1 restarts the count.
    assert exp._crossover(rows(0.5, 1.1, 0.9, 1.2)) == "the baseline costs more from n = 13"
    # CI's grid stops short of any crossover, and the finding says so.
    findings = quick_sections()["E7"].findings
    assert "In absolute words, no crossover up to n = 10." in findings


def test_fault_matrix_covers_all_cases():
    sections = quick_sections()
    rows = sections["E8"].rows
    assert [row["fault"] for row in rows] == [
        "none",
        "silent",
        "crash",
        "drop-half",
        "bad-shares",
        "lag-target",
        "lag-random",
        "crash-then-new-session",
    ]
    assert all(row["agreement"] and row["valid"] for row in rows)
    # The fresh session landed while the lagged one was still in flight,
    # and the stalled one still terminated (late).
    assert rows[-1]["fresh_lands_first"]


def test_rbc_ablation_rows():
    sections = quick_sections()
    assert [row["kind"] for row in sections["E9"].rows] == ["ct", "ct", "bracha", "bracha"]


def test_crash_recovery_matrix_rows():
    sections = quick_sections()
    rows = sections["E14"].rows
    assert {row["fault"] for row in rows} == {
        "dealer",
        "leader-candidate",
        "f-parties",
        "dealer+byz-schedule",
    }
    for row in rows:
        assert row["agreement"] and row["valid"], row
        assert row["honest_outputs"] == 4
        assert row["recovery_latency"] >= 0
