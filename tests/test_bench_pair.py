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
