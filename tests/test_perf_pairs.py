"""The verdict logic of ``scripts/perf_pairs.py`` (the runs themselves are
smoke-tested in CI, where a pair of real ``perf.run`` invocations fits)."""

import importlib.util
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
