"""Self-tests of the benchmark: deterministic inputs, checkers that catch
planted wrong answers, an oracle that matches closed forms, a tracer that
counts layer entries only, and metric names that fit the result format."""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import walkwait  # noqa: E402
import walkwait.cli  # noqa: E402,F401

import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SCENARIO = {"distance_km": 3.0, "walk_speed_kmh": 6.0, "bus_speed_kmh": 30.0}  # t_delta 24


def output_of(workload, spec, tmp_path):
    op = run.OPS[workload](walkwait, spec, tmp_path, 0)
    op.prepare()
    return op.output(op.run())


# ------------------------------------------------------------- generator


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(workload):
    first = json.dumps(workloads.generate(workload, 7, 3))
    assert json.dumps(workloads.generate(workload, 7, 3)) == first
    assert json.dumps(workloads.generate(workload, 8, 3)) != first
    two = workloads.generate(workload, 7, 2)
    assert workloads.generate(workload, 7, 3)[:len(two)] == two


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_every_input_builds_and_every_kind_is_present(workload):
    pool = workloads.generate(workload, 3, 2)
    kinds = [spec.get("config", spec)["model"]["kind"] for spec in pool]
    counts = {k: kinds.count(k) for k in workloads.KINDS}
    assert min(counts.values()) >= 1
    for spec in pool:
        workloads.build(walkwait, spec)


def test_decide_mix_holds_jumps_spikes_and_known_hard_inputs():
    pool = workloads.generate("decide", 5, 1)
    shapes = {spec["shape"] for spec in pool if spec["model"]["kind"] == "piecewise"}
    assert shapes == set(workloads.SHAPES)
    for hard in workloads.KNOWN_HARD_DECIDE:
        assert any(spec["model"] == hard["model"] for spec in pool)
    knots = [len(s["model"]["knots"]) for s in pool if s["model"]["kind"] == "piecewise"]
    assert min(knots) >= 2 and max(knots) <= 12


# ---------------------------------------------------------------- oracle


def test_reference_matches_closed_forms():
    h, rate = 30.0, 1.0 / 24.0
    uni = oracle.Reference(SCENARIO, {"kind": "uniform", "headway": h})
    expo = oracle.Reference(SCENARIO, {"kind": "exponential", "rate": rate})
    bus, walk, td = 6.0, 30.0, 24.0
    for w in (0.0, 7.5, 29.0, 45.0):
        f = min(w / h, 1.0)
        want = f * bus + min(w, h) ** 2 / (2 * h) + (1 - f) * (walk + w)
        assert uni.expected_tt(w) == pytest.approx(want, rel=1e-13)
        want = bus + 1 / rate + math.exp(-rate * w) * (td - 1 / rate)
        assert expo.expected_tt(w) == pytest.approx(want, rel=1e-13)
    assert expo.expected_tt(math.inf) == pytest.approx(bus + 24.0, rel=1e-13)


def test_reference_piecewise_mean_is_exact():
    ref = oracle.Reference(SCENARIO, {"kind": "piecewise", "knots": [[0, 1], [4, 1], [4, 0], [10, 0]]})
    assert ref.mean == pytest.approx(2.0, rel=1e-14)
    assert ref.cdf_m1(2.0)[0] == pytest.approx(0.5, rel=1e-14)


# -------------------------------------------------------------- checkers


def test_decide_checker_flags_planted_policies(tmp_path):
    # headway 0.3 * t_delta: waiting forever beats walking by about 20 min
    spec = {"scenario": SCENARIO, "model": {"kind": "uniform", "headway": 7.2}}
    points, policy = output_of("decide", spec, tmp_path)
    assert oracle.check_decide(spec, (points, policy)) == oracle.OK
    strategy, e, t_wait = policy
    worse = (points, (strategy, e + 1.0, t_wait))  # E misreported by 1 min
    assert oracle.check_decide(spec, worse)[0] == "wrong"
    walk_now = (points, ("walk_now", 30.0, None))  # true E, 1 min+ worse
    assert oracle.check_decide(spec, walk_now)[0] == "missed"


def test_decide_brute_force_sees_minimum_at_a_jump():
    spec = workloads.KNOWN_HARD_DECIDE[1]
    ref = oracle.Reference(spec["scenario"], spec["model"])
    assert ref.brute_force_min() == pytest.approx(float(ref.expected_tt(4.0)), rel=1e-12)
    assert ref.brute_force_min() < 13.1


def planted_csv(text, row, column, factor):
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    fields[column] = f"{float(fields[column]) * factor:.12g}"
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("var", workloads.SWEEP_VARS)
def test_curves_checker_flags_planted_csv_values(tmp_path, var):
    spec = next(s for s in workloads.generate("curves", 2, 1)
                if s["var"] == var and s["config"]["model"]["kind"] == "late_bus_mixture")
    text = output_of("curves", spec, tmp_path)
    assert oracle.check_curves(spec, text) == oracle.OK
    assert oracle.check_curves(spec, planted_csv(text, 3, 1, 1 + 1e-6))[0] == "wrong"
    assert oracle.check_curves(spec, planted_csv(text, 3, 1, 1 + 1e-8))[0] == "inexact"
    short = "\n".join(text.split("\n")[:-2]) + "\n"
    assert oracle.check_curves(spec, short)[0] == "wrong"
    assert oracle.check_curves(spec, "y" + text)[0] == "wrong"


def test_verify_checker_flags_planted_estimates(tmp_path):
    spec = dict(workloads.generate("verify", 4, 1)[0], n=20_000)
    mean, stderr, n, analytic = output_of("verify", spec, tmp_path)
    assert n == 20_000
    assert oracle.check_verify(spec, (mean, stderr, n, analytic)) == oracle.OK
    assert oracle.check_verify(spec, (analytic + 4 * stderr, stderr, n, analytic))[0] == "missed"
    assert oracle.check_verify(spec, (mean, stderr, n, analytic * (1 + 1e-6)))[0] == "wrong"
    assert oracle.check_verify(spec, (mean, stderr, n - 1, analytic))[0] == "wrong"


def test_a_raising_op_is_counted_as_failed(tmp_path):
    spec = {"scenario": SCENARIO, "model": {"kind": "uniform", "headway": 7.2}}

    class Broken(run.DecideOp):
        def prepare(self):
            super().prepare()
            self.model = None  # the program raises on this op

    p, _ = run.run_pass([Broken(walkwait, spec, tmp_path, 0)])
    verdict = run.check("decide", [spec], [p])
    assert verdict["failed"] == 1 and verdict["statuses"] == {"error": 1}
    assert not verdict["correct"]


def test_each_execution_builds_its_own_objects(tmp_path):
    spec = {"scenario": SCENARIO, "model": {"kind": "uniform", "headway": 7.2}}
    op = run.DecideOp(walkwait, spec, tmp_path, 0)
    models = []
    build = op.prepare

    def prepare():
        build()
        models.append(op.model)

    op.prepare = prepare
    p, _ = run.run_pass([op, op])
    assert len(p.records) == 2 and models[0] is not models[1]


def test_setup_probe_times_a_fresh_interpreter():
    times = run.measure_setup("curves", 1, 1, 1, False)
    assert len(times) == 1
    setup_s, reference_s = times[0]
    assert 0.0 < reference_s < setup_s < run.SETUP_TIMEOUT_S


# ------------------------------------------------------------- reference


def test_reference_slice_runs_after_each_op_off_its_clock(tmp_path):
    spec = {"scenario": SCENARIO, "model": {"kind": "uniform", "headway": 7.2}}
    op = run.DecideOp(walkwait, spec, tmp_path, 0)
    calls = []
    p, _ = run.run_pass([op, op], reference_slice=lambda: calls.append(1))
    assert len(calls) == 2 and len(p.slice_s) == 2 and len(p.latency) == 2


@pytest.mark.parametrize("workload", sorted(run.OPS))
def test_reference_slices_take_about_their_nominal_time(workload):
    fn, nominal_s = reference.work(workload)
    fn()
    times = []
    for _ in range(5):
        t0 = run.time.perf_counter()
        fn()
        times.append(run.time.perf_counter() - t0)
    assert 0.1 * nominal_s < min(times) < 10.0 * nominal_s


def test_scale_factors_use_the_median_slice_of_nearby_ops():
    slices = [2.0, 2.0, 4.0, 2.0, 2.0, 100.0]
    assert reference.scale_factors(slices, 2.0, 0) == [1.0, 1.0, 0.5, 1.0, 1.0, 0.02]
    assert reference.scale_factors(slices, 2.0, 1) == pytest.approx([1.0] * 5 + [2.0 / 51.0])


def test_timing_figures_take_each_inputs_median_over_passes():
    figures, per_input_ms = run.timing_figures([0.1, 0.3, 0.2], [[0.001, 0.004], [0.003, 0.002],
                                                                 [0.002, 0.009]])
    assert per_input_ms == pytest.approx([2.0, 4.0])
    assert figures["setup_s"] == 0.2
    assert figures["ops_per_s"] == pytest.approx(6 / 0.021)
    assert figures["latency_p50_ms"] == pytest.approx(3.0)


# ---------------------------------------------------------------- tracer


def traced(fn):
    tr = tracer.Tracer()
    tr.install(walkwait)
    try:
        fn()
    finally:
        tr.uninstall()
    return tr.metrics()


def test_tracer_counts_layer_entries_only_and_restores():
    original = walkwait.expectation.expected_tt
    s = walkwait.Scenario(3.0, 0.1, 0.5)
    m = walkwait.PiecewiseLinearDensity([[0, 1], [4, 1], [4, 0.01], [100, 0.01]])
    first = traced(lambda: walkwait.optimizer.optimal_policy(s, m))
    assert walkwait.expectation.expected_tt is original
    assert first["optimizer.calls"] == 1  # find_stationary_points is nested
    assert first["expectation.calls"] >= 2
    assert first["quadrature.integrand_evals"] > 0
    assert first["arrivals.scalar_calls"] > 4096
    assert 0 <= first["optimizer.self_s"] <= first["optimizer.busy_s"]
    again = traced(lambda: walkwait.optimizer.optimal_policy(s, m))
    for name, value in first.items():
        if not name.endswith("_s"):
            assert again[name] == value, name


def test_tracer_self_time_excludes_children():
    tr = tracer.Tracer()
    tr.layer.extend([tracer.LAYER_ID["cli"], tracer.LAYER_ID["quadrature"]])
    tr.parent.extend([tracer.ROOT, 0])
    tr.start.extend([0.0, 1.0])
    tr.end.extend([4.0, 3.0])
    tr.outer.extend([1, 1])
    m = tr.metrics()
    assert m["cli.busy_s"] == 4.0 and m["cli.self_s"] == 2.0
    assert m["quadrature.busy_s"] == 2.0


# --------------------------------------------------------------- metrics


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in end_to_end + per_layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert end_to_end == list(run.END_TO_END_UNITS)
    produced = list(tracer.Tracer().metrics()) + ["trace.overhead_frac"]
    assert sorted(per_layer) == sorted(produced)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == u for k, u in run.END_TO_END_UNITS.items())
    assert all(units[k] == run.per_layer_unit(k) for k in per_layer)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.OPS)


def test_latency_percentile_has_samples_beyond_it():
    values = list(np.linspace(1.0, 2.0, 101))
    p90 = run.percentile(values, 90)
    assert sum(v > p90 for v in values) == 10
