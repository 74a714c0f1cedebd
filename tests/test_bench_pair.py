"""tools/bench_pair.py on synthetic benchmark result files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)

MACHINE = {"cpu_model": "test cpu", "nproc": 2}


def write_result(directory, workload, seed, ops_per_s, p90_ms, correct=True, trace=0):
    directory.mkdir(exist_ok=True)
    result = {
        "correct": correct, "attempted": 10, "failed": 0 if correct else 1,
        "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                    "latency_p90_ms": {"value": p90_ms, "unit": "ms"}},
        "detail": {"machine": MACHINE, "workload": workload, "seed": seed},
    }
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    (directory / name).write_text(json.dumps(result))


@pytest.fixture
def runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, before, after in ((1, 100.0, 150.0), (2, 110.0, 105.0), (3, 90.0, 140.0)):
        write_result(parent, "curves", seed, before, 2.0)
        write_result(change, "curves", seed, after, 1.5)
    write_result(parent, "decide", 7, 50.0, 9.0)
    write_result(change, "decide", 7, 51.0, 9.5, correct=False)
    write_result(change, "verify", 7, 5.0, 300.0)  # no parent run
    (parent / "notes.json").write_text("{}")  # not a result file
    return parent, change


def test_pairs_by_workload_and_seed(runs, tmp_path):
    out = tmp_path / "BENCH.json"
    assert bench_pair.main([str(runs[0]), str(runs[1]), "--out", str(out),
                            "--tier1-s", "41.5"]) == 0
    report = json.loads(out.read_text())
    assert [(p["workload"], p["seed"]) for p in report["pairs"]] == [
        ("curves", 1), ("curves", 2), ("curves", 3), ("decide", 7)]
    first = report["pairs"][0]
    assert first["parent"]["metrics"] == {"latency_p90_ms": 2.0, "ops_per_s": 100.0}
    assert first["change"]["metrics"]["ops_per_s"] == 150.0
    assert report["pairs"][-1]["change"]["correct"] is False
    assert report["seeds"] == {"curves": [1, 2, 3], "decide": [7]}
    assert report["machines"] == [MACHINE]
    assert report["unpaired"] == {"parent": [], "change": [["verify", 7, 0]]}
    assert report["tier1_wall_s"] == 41.5


def test_summary_counts_wins_in_the_metrics_direction(runs, tmp_path):
    out = tmp_path / "BENCH.json"
    bench_pair.main([str(runs[0]), str(runs[1]), "--out", str(out)])
    summary = json.loads(out.read_text())["summary"]
    ops = summary["curves"]["ops_per_s"]
    assert (ops["pairs"], ops["parent_median"], ops["change_median"]) == (3, 100.0, 140.0)
    assert ops["change_wins"] == 2 and ops["better"] == "higher"
    # lower is better for latency: every curves pair improved, decide got worse
    assert summary["curves"]["latency_p90_ms"]["change_wins"] == 3
    assert summary["decide"]["latency_p90_ms"]["change_wins"] == 0


def test_summary_reports_each_sides_interquartile_range(runs, tmp_path):
    out = tmp_path / "BENCH.json"
    bench_pair.main([str(runs[0]), str(runs[1]), "--out", str(out)])
    summary = json.loads(out.read_text())["summary"]
    # statistics.quantiles(n=4) of three values is the values themselves:
    # 90, 100, 110 and 105, 140, 150
    ops = summary["curves"]["ops_per_s"]
    assert (ops["parent_iqr"], ops["change_iqr"]) == (20.0, 45.0)
    assert summary["curves"]["latency_p90_ms"]["parent_iqr"] == 0.0
    # one pair has no spread to report
    decide = summary["decide"]["ops_per_s"]
    assert decide["parent_iqr"] is None and decide["change_iqr"] is None


def test_no_common_run_is_an_error(tmp_path, capsys):
    write_result(tmp_path / "a", "curves", 1, 1.0, 1.0)
    write_result(tmp_path / "b", "curves", 2, 1.0, 1.0)
    code = bench_pair.main([str(tmp_path / "a"), str(tmp_path / "b"),
                            "--out", str(tmp_path / "x.json")])
    assert code == 2 and "no run" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def ten_pairs(tmp_path, p90s, ops):
    """Ten decide pairs, seeds 1-10: p90s and ops are lists of (parent,
    change) values, one a seed."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, ((p90_before, p90_after), (ops_before, ops_after)) in enumerate(zip(p90s, ops), 1):
        write_result(parent, "decide", seed, ops_before, p90_before)
        write_result(change, "decide", seed, ops_after, p90_after)
    out = tmp_path / "BENCH.json"
    assert bench_pair.main([str(parent), str(change), "--out", str(out)]) == 0
    return json.loads(out.read_text())["summary"]["decide"]


class TestVerdicts:
    def test_gain_met_on_nine_of_ten_wins_beyond_the_parents_iqr(self, tmp_path):
        # p90: the parent's runs are 4.0 to 4.9 (IQR 0.55), the change's 0.8
        # lower but for one loss, its median 0.7 lower; ops_per_s: the
        # change loses by 20%
        p90s = [(4.0 + k / 10, 3.2 + k / 10) for k in range(10)]
        p90s[0] = (4.0, 4.5)
        summary = ten_pairs(tmp_path, p90s, [(100.0, 80.0)] * 10)
        p90 = summary["latency_p90_ms"]
        assert p90["change_wins"] == 9 and p90["parent_iqr"] == pytest.approx(0.55)
        assert p90["parent_median"] - p90["change_median"] == pytest.approx(0.7)
        assert p90["gain_met"] is True and p90["within_bound"] is True
        # 20% worse is within the 25% bound of ops_per_s, and no gain
        assert summary["ops_per_s"]["gain_met"] is False
        assert summary["ops_per_s"]["within_bound"] is True

    def test_eight_wins_are_no_gain(self, tmp_path):
        p90s = [(4.0 + k / 10, 3.0 + k / 10) for k in range(10)]
        p90s[0] = p90s[1] = (4.0, 4.1)
        p90 = ten_pairs(tmp_path, p90s, [(100.0, 100.0)] * 10)["latency_p90_ms"]
        assert p90["change_wins"] == 8 and p90["gain_met"] is False

    def test_ten_wins_within_the_parents_iqr_are_no_gain(self, tmp_path):
        # every pair 0.1 lower, against a parent IQR of 0.55
        p90s = [(4.0 + k / 10, 3.9 + k / 10) for k in range(10)]
        p90 = ten_pairs(tmp_path, p90s, [(100.0, 100.0)] * 10)["latency_p90_ms"]
        assert p90["change_wins"] == 10 and p90["gain_met"] is False

    def test_beyond_the_bound_relative_to_the_parents_median(self, tmp_path):
        # ops_per_s 30% lower and p90 30% higher, past both 25% bounds
        summary = ten_pairs(tmp_path, [(4.0, 5.2)] * 10, [(100.0, 70.0)] * 10)
        assert summary["ops_per_s"]["within_bound"] is False
        assert summary["latency_p90_ms"]["within_bound"] is False

    def test_a_metric_without_a_direction_or_bound_has_null_verdicts(self):
        entry = {"pairs": 10, "parent_median": 1.0, "change_median": 0.5,
                 "parent_iqr": 0.1, "change_wins": 10, "better": None}
        assert bench_pair.verdicts(entry, 0.25) == {"gain_met": None, "within_bound": None}
        entry["better"] = "lower"
        assert bench_pair.verdicts(entry, None) == {"gain_met": True, "within_bound": None}

    def test_one_pair_shows_no_gain(self, runs, tmp_path):
        out = tmp_path / "BENCH.json"
        bench_pair.main([str(runs[0]), str(runs[1]), "--out", str(out)])
        decide = json.loads(out.read_text())["summary"]["decide"]["latency_p90_ms"]
        # one pair: no IQR, so no gain can be shown; 9.0 -> 9.5 is 5.6% worse
        assert decide["gain_met"] is False and decide["within_bound"] is True
