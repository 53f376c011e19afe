"""The benchmark's own test: `python -m pytest perf -q` (not part of tier-1).

Runs the ``--quick`` instantiation of the same workload functions the
benchmark times (n = 4/7, a second per pass) and checks that every workload
and metric ``BENCHMARK.json`` names comes out, finite, and that the traced
pass accounts for the time it claims to.
"""

import json
import math
import re

import pytest

from perf import metrics, run
from perf.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    spans = tmp_path_factory.mktemp("perf") / "spans.jsonl"
    found = run.run_all(
        seed=5, seconds=run.QUICK_SECONDS, size="quick",
        trace_out=str(spans), report=False,
    )
    found["spans"] = spans
    return found


def test_contract_names_are_well_formed_and_unique(contract):
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert "setup_s" in {m["name"] for m in contract["end_to_end"]}


def test_every_workload_emits_every_metric_finite(contract, results):
    for workload in WORKLOADS:
        for section in ("end_to_end", "per_layer"):
            result = results[workload][section]
            assert result["correct"], result["problems"]
            assert result["attempted"] >= 1 and result["failed"] == 0
            assert list(result["metrics"]) == [m["name"] for m in contract[section]]
            for name, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), name
            json.loads(run.result_line(result))
        for name, metric in results[workload]["end_to_end"]["metrics"].items():
            assert metric["value"] > 0, name  # the driver refuses a metric at 0


def test_trace_covers_the_sim_workloads(results):
    for name, workload in WORKLOADS.items():
        if workload.sim:
            coverage = results[name]["per_layer"]["metrics"]["trace.coverage"]["value"]
            assert coverage >= 0.85, (name, coverage)


def test_self_time_never_exceeds_traced_wall(results):
    for name in WORKLOADS:
        traced = results[name]["per_layer"]
        self_seconds = sum(
            traced["metrics"][metric]["value"] for metric in metrics.SELF_SECONDS
        )
        assert self_seconds <= traced["timing"]["mean_s"] * (1 + 1e-9), name
        assert all(
            traced["metrics"][metric]["value"] >= 0 for metric in metrics.SELF_SECONDS
        )


def test_layers_work_where_the_workload_says(results):
    def layer(workload, metric):
        return results[workload]["per_layer"]["metrics"][metric]["value"]

    assert layer("recovery_sim_n10", "storage.wal_appends") > 0
    assert layer("recovery_sim_n10", "storage.replay_records") > 0
    assert layer("adkg_sim_n16", "storage.wal_appends") == 0
    assert layer("adkg_sim_n13_hostile", "net.chaos.self_s") > 0
    assert layer("adkg_sim_n16", "net.chaos.self_s") == 0
    assert layer("adkg_tcp_n10", "net.codec.decode_s") > 0
    assert layer("adkg_tcp_n10", "net.runtime.steps") == 0
    assert layer("churn_sim_n13", "crypto.reshare_s") > 0
    assert layer("beacon_sim_n10", "service.beacon_emit_s") > 0
    assert layer("adkg_sim_n16", "trace.unpatched") == 0


def test_spans_nest_inside_their_parents(results):
    # run_all writes one span file per workload when it runs several.
    path = f"{results['spans']}.recovery_sim_n10"
    spans = [json.loads(line) for line in open(path)]
    by_id = {(span["op"], span["id"]): span for span in spans}
    assert any(span["name"] == "op" and span["parent"] == -1 for span in spans)
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] >= 0:
            parent = by_id[(span["op"], span["parent"])]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
