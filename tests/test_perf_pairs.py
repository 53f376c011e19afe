"""The verdict logic of ``scripts/perf_pairs.py`` (the runs themselves are
smoke-tested in CI, where a pair of real ``perf.run`` invocations fits)."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "perf_pairs.py"
spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
perf_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_pairs)


def test_quartiles_of_one_and_many():
    assert perf_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert perf_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parents_spread():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    faster = [value - 0.2 for value in parent]
    row = perf_pairs.compare(parent, faster, "lower", 0.15)
    assert (row["wins"], row["beyond_spread"], row["verdict"]) == (10, True, "gain")
    assert round(row["relative"], 2) == 0.20
    # Eight wins of ten is not a gain, however large the median gap.
    mixed = faster[:8] + [value + 0.01 for value in parent[8:]]
    assert perf_pairs.compare(parent, mixed, "lower", 0.15)["verdict"] == "within bound"
    # Ten wins inside the parent's own quartile spread is not one either.
    hair = [value - 0.001 for value in parent]
    row = perf_pairs.compare(parent, hair, "lower", 0.15)
    assert (row["wins"], row["beyond_spread"], row["verdict"]) == (10, False, "within bound")


def test_direction_ties_and_regression():
    # Higher is better: the same numbers read the other way round.
    row = perf_pairs.compare([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "higher", 0.15)
    assert (row["wins"], row["verdict"]) == (3, "gain")
    row = perf_pairs.compare([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "lower", 0.15)
    assert (row["wins"], row["verdict"]) == (0, "WORSE THAN BOUND")
    # Ties count for neither side.
    row = perf_pairs.compare([5.0, 5.0], [5.0, 5.0], "lower", 0.02)
    assert (row["wins"], row["relative"], row["verdict"]) == (0, 0.0, "within bound")


def test_moved_layers_reads_counts_exactly_and_timings_beyond_five_percent():
    declared = [
        {"name": "storage.snapshots", "unit": "count"},
        {"name": "net.codec.payload_calls", "unit": "count"},
        {"name": "net.codec.encode_s", "unit": "s"},
        {"name": "storage.wal_append_s", "unit": "s"},
        {"name": "net.chaos.self_s", "unit": "s"},
    ]
    values = lambda *numbers: {  # noqa: E731
        metric["name"]: {"value": number} for metric, number in zip(declared, numbers)
    }
    rows = perf_pairs.moved_layers(
        declared, values(45, 2763, 0.137, 0.0160, 0.0), values(45, 2691, 0.054, 0.0155, 0.0)
    )
    assert rows == [
        ("net.codec.payload_calls", "count", 2763, 2691),
        ("net.codec.encode_s", "s", 0.137, 0.054),
    ]


def test_workload_repeats_into_one_table_each_in_order():
    args = perf_pairs.parse_args(
        ["p", "c", "--workload", "beacon_sim_n10", "--workload", "adkg_tcp_n10"]
    )
    assert args.workloads == ["beacon_sim_n10", "adkg_tcp_n10"]
    assert (str(args.parent), str(args.change), args.pairs) == ("p", "c", 10)
    assert perf_pairs.parse_args(["p", "c", "--workload", "w"]).workloads == ["w"]


@pytest.mark.parametrize(
    "argv, message",
    (
        (["p", "c"], "--workload"),
        (["p", "c", "--workload", "w", "--workload", "w"], "--workload given twice: w"),
        (["p", "c", "--workload", "w", "--pairs", "0"], "--pairs must be at least 1"),
    ),
)
def test_workload_is_required_once_each(argv, message, capsys):
    with pytest.raises(SystemExit) as exit:
        perf_pairs.parse_args(argv)
    assert exit.value.code == 2
    assert message in capsys.readouterr().err


TRAJECTORY = SCRIPT.parent.parent / "TRAJECTORY.jsonl"
ROW_KEYS = {"date", "workload", "parent_sha", "change_sha", "change_dirty", "seeds", "metrics"}


def _check_row(row, end_to_end):
    # Rows written before the warm-up procedure carry no ``procedure``.
    assert set(row) - {"procedure"} == ROW_KEYS
    assert isinstance(row["workload"], str) and row["seeds"]
    assert all(isinstance(seed, int) for seed in row["seeds"])
    assert set(row["metrics"]) == end_to_end
    for reading in row["metrics"].values():
        assert set(reading) == {"parent", "change", "wins"}
        for side in ("parent", "change"):
            q1, median, q3 = reading[side]
            assert q1 <= median <= q3
        assert 0 <= reading["wins"] <= len(row["seeds"])


def _end_to_end():
    contract = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in contract["end_to_end"]}


def test_append_writes_one_row_per_workload(tmp_path):
    readings = {
        name: perf_pairs.compare([1.0, 2.0, 3.0], [1.0, 1.5, 2.0], "lower", 0.15)
        for name in _end_to_end()
    }
    row = perf_pairs.trajectory_row(
        "adkg_sim_n16", range(7, 10), ("a" * 40, False), ("b" * 40, True), readings
    )
    _check_row(json.loads(json.dumps(row)), _end_to_end())
    assert (row["seeds"], row["change_dirty"]) == ([7, 8, 9], True)
    assert row["procedure"] == perf_pairs.PROCEDURE
    assert row["metrics"]["op_wall_s"] == {
        "parent": [1.5, 2.0, 2.5], "change": [1.25, 1.5, 1.75], "wins": 2,
    }  # fmt: skip
    assert perf_pairs.parse_args(["p", "c", "--workload", "w", "--append", "t"]).append.name == "t"
    assert perf_pairs.git_state(tmp_path) == (None, None)


def test_every_committed_trajectory_row_keeps_the_schema():
    rows = [json.loads(line) for line in TRAJECTORY.read_text().splitlines()]
    assert rows
    for row in rows:
        _check_row(row, _end_to_end())


def test_each_side_compiles_into_its_own_empty_cache_outside_both_trees(
    tmp_path, monkeypatch
):
    """A stale in-tree ``__pycache__`` on one side only would show up as a
    setup gain: each side's runs get their own ``PYTHONPYCACHEPREFIX``,
    empty when the side's first run starts.  That first run of each
    workload is an untimed warm-up, and no run inherits
    ``PYTHONDONTWRITEBYTECODE``, so the warm-up writes the prefix, every
    timed run of both sides reads it warm and ``setup_s`` does not time
    the compiler."""
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    trees = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for tree in trees.values():
        (tree / "__pycache__").mkdir(parents=True)
    contract = (SCRIPT.parent.parent / "BENCHMARK.json").read_text()
    (trees["parent"] / "BENCHMARK.json").write_text(contract)
    declared = json.loads(contract)
    result = {
        "metrics": {
            metric["name"]: {"value": 1.0}
            for metric in declared["end_to_end"] + declared["per_layer"]
        },
        "correct": True,
        "failed": 0,
        "attempted": 1,
    }
    prefixes = {}
    runs = []  # (tree, workload, --seconds, --trace)

    def run(command, cwd, **kwargs):
        if command[0] == "git":
            return perf_pairs.subprocess.CompletedProcess(command, 128, "", "")
        env = kwargs["env"]
        prefix = pathlib.Path(env["PYTHONPYCACHEPREFIX"])
        if cwd not in prefixes:  # the side's first run finds it empty
            assert prefix.is_dir() and not any(prefix.iterdir())
        prefixes.setdefault(cwd, set()).add(prefix)
        flag = dict(zip(command[3::2], command[4::2]))
        assert "PYTHONDONTWRITEBYTECODE" not in env
        runs.append((cwd, flag["--workload"], float(flag["--seconds"]), flag["--trace"]))
        return perf_pairs.subprocess.CompletedProcess(
            command, 0, json.dumps(result), ""
        )

    monkeypatch.setattr(perf_pairs.subprocess, "run", run)
    argv = [str(trees["parent"]), str(trees["change"]), "--workload", "w"]
    assert perf_pairs.main([*argv, "--workload", "v", "--pairs", "2", "--layers"]) == 0
    assert set(prefixes) == set(trees.values())
    (parent_cache,) = prefixes[trees["parent"]]
    (change_cache,) = prefixes[trees["change"]]
    assert parent_cache != change_cache
    for cache in (parent_cache, change_cache):
        assert not any(cache.is_relative_to(tree) for tree in trees.values())
    warm = perf_pairs.WARM_UP_SECONDS
    for workload in ("w", "v"):
        mine = [run[:1] + run[2:] for run in runs if run[1] == workload]
        # Each side warms up once, untimed, before any of its timed runs.
        assert mine[:2] == [(trees["parent"], warm, "0"), (trees["change"], warm, "0")]
        assert [trace for *_, trace in mine[2:]] == ["0"] * 4 + ["1"] * 2
