"""Command-line interface: configs, reports, CSV sweeps, exit codes."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from walkwait import (
    PiecewiseLinearDensity,
    Scenario,
    Uniform,
    WalkAndWaitPlan,
    expected_tt,
    expected_tt_plan,
    model_from_config,
    plan_gradient_tw,
)
from walkwait import arrivals, cli, quadrature
from walkwait.cli import build_parser, main

from _models import (
    CountingLateBus,
    CountingUniform,
    FallbackLateBus,
    FallbackPiecewise,
    QuadExponential,
    TablePiecewise,
    d1_slope,
    jumpy_knots,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def config(tmp_path):
    def write(model, **overrides):
        payload = {
            "distance_km": 3,
            "walk_speed_kmh": 6,
            "bus_speed_kmh": 30,
            "model": model,
        }
        payload.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestAnalyze:
    def test_uniform_30_waits(self, config, capsys):
        code, out = run(capsys, "analyze", config({"kind": "uniform", "headway": 30}), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["t_delta_min"] == pytest.approx(24.0)
        assert payload["expected_wait_forever_min"] == pytest.approx(21.0)
        assert payload["verdict"] == "wait"

    def test_marginal_headway_indifferent(self, config, capsys):
        code, out = run(capsys, "analyze", config({"kind": "uniform", "headway": 48}), "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "indifferent"

    def test_text_report(self, config, capsys):
        code, out = run(capsys, "analyze", config({"kind": "uniform", "headway": 30}))
        assert code == 0
        assert "verdict" in out and "wait" in out

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 2

    def test_missing_field_names_it(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"distance_km": 3, "walk_speed_kmh": 6}))
        assert main(["analyze", str(path)]) == 2
        assert "bus_speed_kmh" in capsys.readouterr().err

    def test_bad_model_kind(self, config):
        assert main(["analyze", config({"kind": "weibull"})]) == 2

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
    def test_shipped_configs_round_trip(self, name, capsys):
        # the golden file pins these bytes; this states what they mean
        code, out = run(capsys, "analyze", str(CONFIG_DIR / name), "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "t_delta_min", "walk_time_min", "bus_time_min", "mean_arrival_min",
            "expected_wait_forever_min", "expected_walk_now_min", "verdict",
        }
        model = model_from_config(json.loads((CONFIG_DIR / name).read_text())["model"])
        assert payload["mean_arrival_min"] == model.mean()
        assert payload["walk_time_min"] == pytest.approx(payload["t_delta_min"] + payload["bus_time_min"])
        assert payload["expected_walk_now_min"] == payload["walk_time_min"]
        assert payload["expected_wait_forever_min"] == payload["bus_time_min"] + payload["mean_arrival_min"]
        gap = payload["mean_arrival_min"] - payload["t_delta_min"]
        if payload["verdict"] == "indifferent":
            assert gap == pytest.approx(0.0, abs=1e-12 * payload["t_delta_min"])
        else:
            assert payload["verdict"] == ("wait" if gap < 0.0 else "walk")


class TestOptimize:
    def test_uniform_30_reports_interior_max(self, config, capsys):
        code, out = run(capsys, "optimize", config({"kind": "uniform", "headway": 30}), "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["stationary_points"]) == 1
        point = payload["stationary_points"][0]
        assert point["kind"] == "maximum"
        assert point["t_wait"] == pytest.approx(6.0, abs=1e-6)
        assert payload["policy"]["strategy"] == "wait_forever"

    def test_uniform_60_walks(self, config, capsys):
        code, out = run(capsys, "optimize", config({"kind": "uniform", "headway": 60}), "--json")
        assert json.loads(out)["policy"]["strategy"] == "walk_now"

    def test_late_bus_finite_wait(self, config, capsys):
        model = {
            "kind": "late_bus_mixture",
            "still_coming_prob": 0.25,
            "late_window": 4,
            "next_headway_offset": 56,
        }
        code, out = run(capsys, "optimize", config(model), "--json")
        payload = json.loads(out)
        assert payload["policy"]["strategy"] == "wait_then_walk"
        assert 0.0 < payload["policy"]["t_wait"] <= 4.0

    def test_horizon_is_not_an_option(self, capsys):
        # the search ends where the model's quad_bound() says
        config = str(CONFIG_DIR / "exponential24.json")
        with pytest.raises(SystemExit) as exc:  # argparse: unknown option
            main(["optimize", config, "--horizon", "10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --horizon 10" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, twin, name",
        [
            ("piecewise", FallbackPiecewise, "piecewise.json"),
            ("late_bus_mixture", FallbackLateBus, "late_bus.json"),
        ],
    )
    def test_scanned_twin_scans_once(self, monkeypatch, kind, twin, name):
        # the policy is picked from the points already found, not a second
        # scan: through a twin on the scan, whatever route the bundled model takes
        monkeypatch.setitem(arrivals.MODEL_KINDS, kind, (twin, arrivals.MODEL_KINDS[kind][1]))
        scans = []
        scan = arrivals._scan_sign_changes

        def counted(*args):
            scans.append(args)
            return scan(*args)

        monkeypatch.setattr(arrivals, "_scan_sign_changes", counted)
        assert main(["optimize", str(CONFIG_DIR / name), "--json"]) == 0
        assert len(scans) == 1


class TestSweep:
    def test_tw_curve_peaks_at_six(self, config, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code = main(
            [
                "sweep", config({"kind": "uniform", "headway": 30}),
                "--var", "tw", "--from", "0", "--to", "30",
                "--steps", "301", "--out", str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,expected_tt,derivative"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert len(rows) == 301
        best = max(rows, key=lambda r: r[1])
        assert best[0] == pytest.approx(6.0, abs=0.1)

    def test_pc_advantage_crosses_threshold(self, config, tmp_path, capsys):
        out_path = tmp_path / "pc.csv"
        code = main(
            [
                "sweep", config({"kind": "uniform", "headway": 36}, p_catch=0.8),
                "--var", "pc", "--from", "0", "--to", "1",
                "--steps", "2001", "--out", str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,expected_tt,advantage"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        crossing = next(x for x, _, adv in rows if adv >= 0.0)
        assert crossing == pytest.approx(0.75, abs=1e-3)

    def test_single_step_rejected(self, config, tmp_path):
        code = main(
            [
                "sweep", config({"kind": "uniform", "headway": 30}),
                "--var", "tw", "--from", "0", "--to", "30",
                "--steps", "1", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    # and a range with no width
    @pytest.mark.parametrize(
        "field, start, stop", [("to", "0", "inf"), ("from", "nan", "3"), ("to", "5", "5")]
    )
    def test_non_finite_bound_rejected(self, config, tmp_path, capsys, field, start, stop):
        code = main(
            [
                "sweep", config({"kind": "uniform", "headway": 30}),
                "--var", "tw", "--from", start, "--to", stop,
                "--steps", "3", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field}:")

    def test_span_times_step_past_the_floats_ends_at_to(self, config, tmp_path):
        # span * i overflowed on the last row, whose x read inf
        out_path = tmp_path / "tw.csv"
        code = main(
            [
                "sweep", config({"kind": "exponential", "rate": 10}),
                "--var", "tw", "--from", "0", "--to", "1.7e308",
                "--steps", "3", "--out", str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()[1:]
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert len(rows) == 3 and rows[-1][0] == 1.7e308
        assert all(math.isfinite(v) for row in rows for v in row)

    def test_wait_forever_d1_sweep_allowed(self, config, tmp_path):
        out_path = tmp_path / "d1.csv"
        code = main(
            [
                "sweep", config({"kind": "uniform", "headway": 30}),
                "--var", "d1", "--from", "0", "--to", "2",
                "--steps", "3", "--tw", "inf", "--out", str(out_path),
            ]
        )
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 4

    def test_unwritable_path(self, config):
        code = main(
            [
                "sweep", config({"kind": "uniform", "headway": 30}),
                "--var", "tw", "--from", "0", "--to", "30",
                "--steps", "3", "--out", "/nonexistent-dir/x.csv",
            ]
        )
        assert code == 3

    def test_byte_stable_output(self, config, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(
                [
                    "sweep", config({"kind": "uniform", "headway": 30}),
                    "--var", "tw", "--from", "0", "--to", "30",
                    "--steps", "50", "--out", str(path),
                ]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert b"\r" not in paths[0].read_bytes()

    def tw_sweep(self, out, steps):
        argv = ["sweep", str(CONFIG_DIR / "uniform30.json"), "--var", "tw",
                "--from", "0", "--to", "60", "--steps", str(steps), "--out", str(out)]
        return main(argv)

    def test_shorter_rewrite_is_cut_to_length(self, tmp_path):
        # the file is overwritten in place: a rewrite that did not cut it
        # would keep the tail of the 61-step rows
        out, fresh = tmp_path / "tw.csv", tmp_path / "fresh.csv"
        assert self.tw_sweep(out, 61) == 0 and self.tw_sweep(out, 3) == 0
        assert self.tw_sweep(fresh, 3) == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_same_length_rewrite_is_byte_equal(self, tmp_path):
        out = tmp_path / "tw.csv"
        assert self.tw_sweep(out, 61) == 0
        first = out.read_bytes()
        assert self.tw_sweep(out, 61) == 0
        assert out.read_bytes() == first

    def test_new_file_has_the_mode_of_open_w(self, tmp_path):
        out, reference = tmp_path / "tw.csv", tmp_path / "reference.csv"
        with open(reference, "w"):
            pass
        assert self.tw_sweep(out, 3) == 0
        assert out.stat().st_mode == reference.stat().st_mode

    def test_non_regular_target_is_written_as_a_stream(self):
        # the null device is seekable, but cutting it to length raises EINVAL
        assert self.tw_sweep(os.devnull, 61) == 0

    def test_directory_target_exits_3_naming_it(self, tmp_path, capsys):
        assert self.tw_sweep(tmp_path, 3) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")


class TestParserReuse:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_errors_leave_no_state_behind(self, config, tmp_path, capsys):
        good = config({"kind": "late_bus_mixture", "still_coming_prob": 0.3,
                       "late_window": 4, "next_headway_offset": 30})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"distance_km": 3, "walk_speed_kmh": 6,
                                   "bus_speed_kmh": 30, "model": {"kind": "nope"}}))

        def sweep(path, out):
            return main(["sweep", str(path), "--var", "d1", "--tw", "3", "--from", "0",
                         "--to", "3", "--steps", "21", "--out", str(out)])

        assert sweep(good, tmp_path / "first.csv") == 0
        with pytest.raises(SystemExit) as exc:  # argparse: unknown choice
            main(["sweep", good, "--var", "speed", "--from", "0", "--to", "1",
                  "--steps", "3", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert sweep(bad, tmp_path / "x.csv") == 2  # ConfigError
        assert "model" in capsys.readouterr().err
        assert sweep(good, tmp_path / "again.csv") == 0
        first = (tmp_path / "first.csv").read_bytes()
        assert first == (tmp_path / "again.csv").read_bytes() and first.count(b"\n") == 22
        assert not (tmp_path / "x.csv").exists()


class TestSimulate:
    def test_wait_forever_z_score(self, config, capsys):
        code, out = run(
            capsys,
            "simulate", config({"kind": "uniform", "headway": 30}),
            "--strategy", "wait_forever", "--n", "100000", "--seed", "42", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["analytic"] == pytest.approx(21.0)
        assert abs(payload["z"]) < 3.5

    def test_exponential_flatness(self, config, capsys):
        code, out = run(
            capsys,
            "simulate", config({"kind": "exponential", "rate": 1 / 24}),
            "--strategy", "wait_then_walk:12", "--n", "100000", "--seed", "1", "--json",
        )
        payload = json.loads(out)
        assert payload["analytic"] == pytest.approx(30.0)
        assert abs(payload["z"]) < 3.5

    def test_repeated_seed_identical_output(self, config, capsys):
        argv = [
            "simulate", config({"kind": "uniform", "headway": 30}),
            "--strategy", "wait_forever", "--n", "10000", "--seed", "9",
        ]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_unknown_strategy(self, config):
        code = main(
            [
                "simulate", config({"kind": "uniform", "headway": 30}),
                "--strategy", "teleport", "--n", "100", "--seed", "0",
            ]
        )
        assert code == 2

    def test_single_journey_rejected(self, config, capsys):
        argv = ["simulate", config({"kind": "uniform", "headway": 30}), "--strategy", "walk_now",
                "--n", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: n: need at least two samples\n"

    def test_negative_seed_names_seed(self, config, capsys):
        argv = ["simulate", config({"kind": "uniform", "headway": 30}), "--strategy",
                "wait_forever", "--seed", "-1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed: seed must be nonnegative, got -1\n"

    def test_overflowing_estimate_names_model(self, config, capsys):
        # the sum of the journeys overflows: no NaN stderr and passing z
        argv = ["simulate", config({"kind": "exponential", "rate": 2.3e-307}), "--strategy",
                "wait_forever", "--n", "1000", "--json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: model: ") and captured.err.count("\n") == 1

    def test_squares_past_the_largest_float_simulate(self, config, capsys):
        # the squared deviations overflow unscaled: the estimate scales them
        code, out = run(capsys, "simulate", config({"kind": "exponential", "rate": 1e-160}),
                        "--strategy", "wait_forever", "--n", "1000", "--json")
        assert code == 0
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in {out}"))
        assert 0.0 < payload["stderr"] < math.inf and abs(payload["z"]) < 3.5

    def test_walk_and_wait_strategy_string(self, config, capsys):
        code, out = run(
            capsys,
            "simulate", config({"kind": "uniform", "headway": 36}),
            "--strategy", "walk_and_wait:3,0,0.8",
            "--n", "100000", "--seed", "5", "--json",
        )
        payload = json.loads(out)
        assert payload["analytic"] == pytest.approx(23.6)
        assert abs(payload["z"]) < 3.5


# a malformed knots field: not a list, or an item that is not a pair
KNOTS_ERROR = "error: model: knots must be a list of [time, density] pairs\n"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("distance_km", math.inf),
            ("distance_km", True),
            ("walk_speed_kmh", math.nan),
            ("bus_speed_kmh", math.inf),
            ("p_catch", True),
            ("p_catch", math.nan),
            ("distance_km", 0),
            ("bus_speed_kmh", 5),  # slower than the walk
            ("p_catch", 1.5),
        ],
    )
    def test_top_level_field_rejected(self, config, capsys, field, value):
        path = config({"kind": "uniform", "headway": 30}, **{field: value})
        assert main(["analyze", path]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, field",
        [
            ({"kind": "uniform", "headway": True}, "headway"),
            ({"kind": "uniform", "headway": math.inf}, "headway"),
            ({"kind": "exponential", "rate": math.inf}, "rate"),
            (
                {
                    "kind": "late_bus_mixture",
                    "still_coming_prob": 0.5,
                    "late_window": 4,
                    "next_headway_offset": math.inf,
                },
                "next_headway_offset",
            ),
            ({"kind": "piecewise", "knots": [[0, 1], [math.nan, 1], [5, 1]]}, "knot"),
            ({"kind": "piecewise", "knots": [[0, 1], [5, True]]}, "knot"),
            # the table's slope overflows
            (
                {
                    "kind": "late_bus_mixture",
                    "still_coming_prob": 0.5,
                    "late_window": 1e-300,
                    "next_headway_offset": 2e-300,
                },
                "late_window",
            ),
            ({"kind": "piecewise", "knots": [[0, 0], [1e-300, 1], [2e-300, 0]]}, "knot densities"),
            # the table's slope underflows: the head's -2w/L^2, and the
            # sides of a wide normalized peak
            (
                {
                    "kind": "late_bus_mixture",
                    "still_coming_prob": 0.5,
                    "late_window": 1e200,
                    "next_headway_offset": 3e200,
                },
                "late_window",
            ),
            ({"kind": "piecewise", "knots": [[0, 0], [1e200, 1], [2e200, 0]]}, "knot densities"),
            # offset + window rounds: the tail vanishes, or gains 60% mass
            (
                {
                    "kind": "late_bus_mixture",
                    "still_coming_prob": 0.5,
                    "late_window": 1,
                    "next_headway_offset": 1e17,
                },
                "next_headway_offset",
            ),
            (
                {
                    "kind": "late_bus_mixture",
                    "still_coming_prob": 0.5,
                    "late_window": 10,
                    "next_headway_offset": 1e17,
                },
                "next_headway_offset",
            ),
            # the tail widens by 60%, at a weight too small for the mass to show
            (
                {
                    "kind": "late_bus_mixture",
                    "still_coming_prob": 1 - 1e-14,
                    "late_window": 10,
                    "next_headway_offset": 1e17,
                },
                "next_headway_offset",
            ),
            (
                {
                    "kind": "late_bus_mixture",
                    "still_coming_prob": 0.5,
                    "late_window": 0,
                    "next_headway_offset": 25,
                },
                "late_window",
            ),
            ({"kind": "piecewise", "knots": [[0, 1]]}, "knots"),
            ({"kind": "uniform", "headway": 10**400}, "headway must be positive and finite, got inf"),
            ({"kind": "piecewise", "knots": [[-1, 1], [5, 1]]}, "knot times"),
            ({"kind": "piecewise", "knots": [[0, 1], [5, 1], [3, 1]]}, "knot times"),
            ({"kind": "piecewise", "knots": [[0, 1], [5, -1]]}, "knot densities"),
            (5, "model: model config must be an object"),
            # a missing field is named by the rule that names an unknown one
            ({"kind": "uniform"}, "error: model: missing uniform field headway; it takes only"
             " headway\n"),
            (
                {"kind": "late_bus_mixture", "still_coming_prob": 0.5, "late_window": 4},
                "error: model: missing late_bus_mixture field next_headway_offset;",
            ),
            ({"kind": "piecewise", "knots": 5}, KNOTS_ERROR),
            ({"kind": "piecewise", "knots": None}, KNOTS_ERROR),
            ({"kind": "piecewise", "knots": [[0, 1], 5]}, KNOTS_ERROR),
            ({"kind": "piecewise", "knots": [[0, 1], [1]]}, KNOTS_ERROR),
            ({"kind": "piecewise", "knots": "ab"}, KNOTS_ERROR),
        ],
    )
    def test_model_parameter_rejected(self, config, capsys, model, field):
        assert main(["analyze", config(model)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "optimize", "simulate"])
    def test_rate_whose_quad_bound_overflows_rejected(self, config, capsys, command):
        # analyze printed Infinity, optimize named quad_bound() and simulate
        # printed a NaN mean on this rate
        path = config({"kind": "exponential", "rate": 1e-310})
        argv = [command, path] + (["--strategy", "wait_forever"] if command == "simulate" else [])
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: model: rate ")

    @pytest.mark.parametrize("command", ["analyze", "optimize"])
    @pytest.mark.parametrize(
        "journey, error",
        [
            # t_delta rounds to 0: optimize raised ZeroDivisionError
            ({"distance_km": 5e-324, "walk_speed_kmh": 60, "bus_speed_kmh": 90},
             "distance_km, walk_speed_kmh, bus_speed_kmh:"
             " t_delta = d/v_w - d/v_b must be positive and finite, got 0.0"),
            # t_delta is nan: analyze printed it with the verdict walk
            ({"distance_km": 1e300, "walk_speed_kmh": 6e-9, "bus_speed_kmh": 6e-8},
             "distance_km, walk_speed_kmh, bus_speed_kmh:"
             " t_delta = d/v_w - d/v_b must be positive and finite, got nan"),
            # a speed underflows to 0 km/min: the error named scenario
            ({"walk_speed_kmh": 1e-323}, "walk_speed_kmh: v_w must be positive and finite, got 0.0"),
            ({"bus_speed_kmh": 1e-323}, "bus_speed_kmh: v_b must be positive and finite, got 0.0"),
            # a slower bus: q, checked first, is negative
            ({"bus_speed_kmh": 5}, "distance_km, walk_speed_kmh, bus_speed_kmh:"
             " q = 1/v_w - 1/v_b must be positive and finite, got -2.0"),
            # a JSON int beyond the floats raised OverflowError
            ({"distance_km": 10**400}, "distance_km: d must be positive and finite, got inf"),
        ],
        ids=["t_delta_0", "t_delta_nan", "walk_0", "bus_0", "slower_bus", "int_beyond_floats"],
    )
    def test_bad_journey_names_its_fields(self, config, capsys, command, journey, error):
        assert main([command, config({"kind": "exponential", "rate": 0.1}, **journey)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_missing_model_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"distance_km": 3, "walk_speed_kmh": 6, "bus_speed_kmh": 30}))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == "error: model: missing required field\n"

    @pytest.mark.parametrize(
        "text, message", [(None, "cannot read config"), ("[1, 2]", "config must be a JSON object")]
    )
    def test_unusable_config_rejected_naming_its_path(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        if text is not None:  # no file at the path
            path.write_text(text)
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    def test_unknown_top_level_field_rejected(self, config, capsys):
        # a misspelt p_catch would otherwise leave p_catch at 0
        path = config({"kind": "uniform", "headway": 30}, p_cacth=0.8)
        assert main(["analyze", path]) == 2
        assert "p_cacth" in capsys.readouterr().err

    def test_unknown_model_field_rejected(self, config, capsys):
        path = config({"kind": "uniform", "headway": 30, "head_way": 20})
        assert main(["analyze", path]) == 2
        assert "head_way" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "strategy",
        ["wait_then_walk:nan", "wait_then_walk", "walk_now:banana", "walk_now:5",
         "walk_and_wait:1,2", "walk_and_wait:1,2,0.5,4"],
    )
    def test_malformed_strategy_rejected(self, config, capsys, strategy):
        code = main(
            [
                "simulate", config({"kind": "uniform", "headway": 30}),
                "--strategy", strategy, "--n", "100", "--seed", "0",
            ]
        )
        assert code == 2
        assert "strategy" in capsys.readouterr().err


class TestSimulateImpossiblePlan:
    def test_rejected_before_any_journey(self, capsys, monkeypatch):
        def no_draws(self, rng, n):
            raise AssertionError("drew an arrival")

        monkeypatch.setattr(Uniform, "sample", no_draws)
        argv = ["simulate", str(CONFIG_DIR / "uniform30.json"), "--strategy", "walk_and_wait:5,3,0.5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: d1")


class TestPCSweepSavingFoundOnce:
    KNOTS = [[0, 0.2], [5, 1], [9, 0.1], [30, 0.3], [40, 0]]

    def test_one_partial_mean_per_sweep(self, config, tmp_path, monkeypatch):
        calls = []

        class Counting(PiecewiseLinearDensity):
            def partial_mean(self, t):
                calls.append(t)
                return super().partial_mean(t)

        monkeypatch.setattr(cli, "model_from_config", lambda spec: Counting(spec["knots"]))
        out = tmp_path / "pc.csv"
        argv = [
            "sweep", config({"kind": "piecewise", "knots": self.KNOTS}),
            "--var", "pc", "--from", "0", "--to", "1", "--steps", "21", "--out", str(out),
        ]
        assert main(argv) == 0
        assert calls == [24.0]  # M1 at t_delta, once
        # the rows against the paper's expressions, formed here: the vigilant
        # walk saves pc (t_delta F(t_delta) - M1(t_delta)) on walking
        scenario, model = Scenario(d=3.0, v_w=0.1, v_b=0.5), PiecewiseLinearDensity(self.KNOTS)
        td = scenario.t_delta
        saving = td * model.cdf(td) - model.partial_mean(td)
        rows = [
            "%.12g,%.12g,%.12g"
            % (x, scenario.walk_time - x * saving, (model.mean() - td) + x * saving)
            for x in (i / 20 for i in range(21))
        ]
        assert out.read_text() == "\n".join(["x,expected_tt,advantage"] + rows) + "\n"

    def test_catch_probability_outside_unit_interval_rejected(self, config, tmp_path, capsys):
        argv = [
            "sweep", config({"kind": "uniform", "headway": 30}),
            "--var", "pc", "--from", "0", "--to", "2", "--steps", "3",
            "--out", str(tmp_path / "pc.csv"),
        ]
        assert main(argv) == 2
        assert "p_catch" in capsys.readouterr().err


S_CONFIG = Scenario(d=3.0, v_w=0.1, v_b=0.5)  # the scenario of the config fixture
_rng = np.random.default_rng(13)
MODEL_SPECS = [
    {"kind": "uniform", "headway": 30},
    {"kind": "exponential", "rate": 0.05},
    {"kind": "late_bus_mixture", "still_coming_prob": 0.25, "late_window": 4, "next_headway_offset": 56},
    json.loads((CONFIG_DIR / "piecewise.json").read_text())["model"],
] + [
    {"kind": "piecewise", "knots": [[float(t), float(y)] for t, y in jumpy_knots(_rng, 24.0)]}
    for _ in range(20)
]


def sweep_xs(start, stop, steps):
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


class TestSweepRowsAreTheLibrarysRows:
    """Each tw or d1 row is the row of the library's functions, bit for bit
    up to the CSV format."""

    @pytest.mark.parametrize("spec", MODEL_SPECS)
    def test_tw_rows(self, config, tmp_path, spec):
        out = tmp_path / "tw.csv"
        argv = ["sweep", config(spec), "--var", "tw", "--from", "0", "--to", "40",
                "--steps", "61", "--out", str(out)]
        assert main(argv) == 0
        model = model_from_config(spec)
        rows = [
            "%.12g,%.12g,%.12g" % (
                x,
                expected_tt(S_CONFIG, model, x),
                plan_gradient_tw(S_CONFIG, model, WalkAndWaitPlan(0.0, x, 0.0)),
            )
            for x in sweep_xs(0.0, 40.0, 61)
        ]
        assert out.read_text() == "\n".join(["x,expected_tt,derivative"] + rows) + "\n"

    @pytest.mark.parametrize("tw", ["2.5", "0", "inf"])
    @pytest.mark.parametrize("spec", MODEL_SPECS)
    def test_d1_rows(self, config, tmp_path, spec, tw):
        out = tmp_path / "d1.csv"
        # from the origin (x = 0) to the destination (d1 = d = 3 km)
        argv = ["sweep", config(spec, p_catch=0.3), "--var", "d1", "--from", "0", "--to", "3",
                "--steps", "21", "--tw", tw, "--out", str(out)]
        assert main(argv) == 0
        model = model_from_config(spec)
        rows = []
        for x in sweep_xs(0.0, 3.0, 21):
            plan = WalkAndWaitPlan(d1=x, t_wait=float(tw), p_catch=0.3)
            rows.append("%.12g,%.12g,%.12g" % (
                x,
                expected_tt_plan(S_CONFIG, model, plan),
                d1_slope(S_CONFIG, model, plan),
            ))
        assert out.read_text() == "\n".join(["x,expected_tt,derivative"] + rows) + "\n"


class TestSweepLooksUpEachTimeOnce:
    @pytest.fixture(params=[lambda: CountingUniform(30.0), lambda: CountingLateBus(0.25, 4.0, 56.0)])
    def counted(self, request, monkeypatch):
        model = request.param()
        monkeypatch.setattr(cli, "model_from_config", lambda spec: model)
        type(model).lookups = 0
        return type(model)

    def test_tw_row_reads_its_wait_once(self, config, tmp_path, counted):
        argv = ["sweep", config({}), "--var", "tw", "--from", "0", "--to", "40",
                "--steps", "61", "--out", str(tmp_path / "tw.csv")]
        assert main(argv) == 0
        assert counted.lookups == 61

    # t1 and T = t1 + t_wait, which are one time with no wait; waiting
    # forever reads the mean, and p(T) = 0, at T = inf; the last row, d1 = d,
    # is the vigilant walk, which reads F(t_delta) alone
    @pytest.mark.parametrize("tw, per_row", [("4", 2), ("0", 1), ("inf", 1)])
    def test_d1_row_reads_t1_and_its_end_once(self, config, tmp_path, counted, tw, per_row):
        argv = ["sweep", config({}, p_catch=0.3), "--var", "d1", "--from", "0", "--to", "3",
                "--steps", "21", "--tw", tw, "--out", str(tmp_path / "d1.csv")]
        assert main(argv) == 0
        assert counted.lookups == per_row * 20 + 1


class TestSweepErrors:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--var", "tw", "--from", "-1", "--to", "5"], "wait time must be nonnegative, got -1.0"),
            (["--var", "d1", "--from", "-0.5", "--to", "2"], "d1 must be nonnegative and finite"),
            (["--var", "d1", "--from", "0", "--to", "9"], "d1 cannot exceed the journey distance"),
            (["--var", "d1", "--from", "0", "--to", "2", "--tw", "-1"],
             "t_wait must be nonnegative, got -1.0"),
            (["--var", "d1", "--from", "0", "--to", "2", "--tw", "nan"],
             "t_wait must be nonnegative, got nan"),
            # a row checks its d1 before its wait, and its wait before the distance
            (["--var", "d1", "--from", "-0.5", "--to", "2", "--tw", "-1"],
             "d1 must be nonnegative and finite"),
            (["--var", "d1", "--from", "0", "--to", "9", "--tw", "-1"],
             "t_wait must be nonnegative, got -1.0"),
            # --tw sets the wait of a d1 sweep and nothing else
            (["--var", "tw", "--from", "0", "--to", "5", "--tw", "5"], "tw: applies only to --var d1"),
            (["--var", "pc", "--from", "0", "--to", "1", "--tw", "0"], "tw: applies only to --var d1"),
        ],
    )
    def test_exit_2_with_the_row_message_and_no_csv(self, tmp_path, capsys, args, message):
        out = tmp_path / "x.csv"
        argv = ["sweep", str(CONFIG_DIR / "uniform30.json"), *args, "--steps", "5", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_quadrature_twin_interval_cap_is_an_error_line(
        self, config, tmp_path, capsys, monkeypatch
    ):
        # exponential's M1 through the quadrature refines to several hundred
        # intervals to meet its tolerance, so a cap of 100 is exhausted
        monkeypatch.setitem(arrivals.MODEL_KINDS, "exponential", (QuadExponential, ("rate",)))
        monkeypatch.setattr(quadrature, "MAX_INTERVALS", 100)
        out = tmp_path / "tw.csv"
        argv = ["sweep", config({"kind": "exponential", "rate": 0.1}), "--var", "tw",
                "--from", "0", "--to", "30", "--steps", "3", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: model: adaptive quadrature exceeded the interval cap\n")
        assert not out.exists()

    def test_quadrature_at_a_time_scale_of_1e8_minutes(self, config, tmp_path):
        # the tolerance is relative: rounding noise near M1 = 5e7 once kept
        # an absolute 1e-12 out of reach, and the sweep exited 2
        knots = [[0, 0.3], [52910052.91005291, 2.1], [142857142.85714287, 1.3]]
        out = tmp_path / "tw.csv"
        argv = ["sweep", config({"kind": "piecewise", "knots": knots}), "--var", "tw",
                "--from", "0", "--to", "1.1e8", "--steps", "3", "--out", str(out)]
        assert main(argv) == 0
        table = TablePiecewise(knots)
        rows = [
            "%.12g,%.12g,%.12g" % (
                x,
                expected_tt(S_CONFIG, table, x),
                plan_gradient_tw(S_CONFIG, table, WalkAndWaitPlan(0.0, x, 0.0)),
            )
            for x in sweep_xs(0.0, 1.1e8, 3)
        ]
        assert out.read_text() == "\n".join(["x,expected_tt,derivative"] + rows) + "\n"
