"""Command-line interface: configs, reports, CSV sweeps, exit codes."""

import json
import math
from pathlib import Path

import jsonschema
import pytest

from walkwait import (
    PiecewiseLinearDensity,
    Scenario,
    Uniform,
    expected_tt_walk_vigilant,
    walk_vs_wait_advantage,
)
from walkwait import cli
from walkwait.cli import ANALYZE_SCHEMA, build_parser, main

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
        jsonschema.validate(payload, ANALYZE_SCHEMA)
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
        code, out = run(capsys, "analyze", str(CONFIG_DIR / name), "--json")
        assert code == 0
        jsonschema.validate(json.loads(out), ANALYZE_SCHEMA)


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

    def test_infinite_horizon_rejected(self, capsys):
        config = str(CONFIG_DIR / "exponential24.json")
        assert main(["optimize", config, "--horizon", "inf"]) == 2
        assert "horizon" in capsys.readouterr().err


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

    @pytest.mark.parametrize("field, start, stop", [("to", "0", "inf"), ("from", "nan", "3")])
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
        ],
    )
    def test_model_parameter_rejected(self, config, capsys, model, field):
        assert main(["analyze", config(model)]) == 2
        assert field in capsys.readouterr().err

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
        def no_draws(self, rng, size=None):
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
        # the rows are still those of the two library functions
        scenario, model = Scenario(d=3.0, v_w=0.1, v_b=0.5), PiecewiseLinearDensity(self.KNOTS)
        rows = [
            "%.12g,%.12g,%.12g" % (
                x,
                expected_tt_walk_vigilant(scenario, model, x),
                walk_vs_wait_advantage(scenario, model, x),
            )
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
