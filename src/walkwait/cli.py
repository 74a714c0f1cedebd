"""Command-line front end: analyze, optimize, sweep, simulate.

Configs are JSON with human-friendly units (km, km/h); everything internal
runs in km and minutes, and each number is checked there by the library's
rule for it, so a speed that underflows names its field.  Exit codes: 0
success, 2 bad input, named by its field or option (a model whose partial
mean the quadrature cannot resolve, or whose simulated journeys overflow the
floats, is bad input too), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import stat
import sys

from .arrivals import ArrivalModel, _number, _positive, _probability, model_from_config
from .expectation import Scenario, expected_tt, expected_tt_curve
from .intermediate import WalkAndWaitPlan, expected_tt_plan, plan_curve_d1, vigilant_curve
from .mcsim import WaitForever, WaitThenWalk, WalkNow, _sample_count, _seed, estimate
from .optimizer import _best_policy, compare_wait_walk, find_stationary_points
from .quadrature import IntervalCapError

CONFIG_FIELDS = ("distance_km", "walk_speed_kmh", "bus_speed_kmh", "model", "p_catch")


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")


def _named(field: str, check, *args):
    """check(*args), its ValueError raised as a ConfigError naming field."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from exc


def load_config(path: str) -> tuple[Scenario, ArrivalModel, float]:
    """Read a scenario config; returns (scenario, model, p_catch)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(path, "config must be a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_FIELDS))
    if unknown:
        fields = ", ".join(CONFIG_FIELDS)
        raise ConfigError(", ".join(unknown), f"unknown field; a config takes only {fields}")

    def number(field, name, per=1.0):
        """The field in km and minutes, checked as Scenario checks its name."""
        if field not in raw:
            raise ConfigError(field, "missing required field")
        return _named(field, lambda: _positive(_number(raw[field], name) / per, name))

    d = number("distance_km", "d")
    v_w = number("walk_speed_kmh", "v_w", 60.0)
    v_b = number("bus_speed_kmh", "v_b", 60.0)
    # each field passed: only the journey rule can fail
    scenario = _named("distance_km, walk_speed_kmh, bus_speed_kmh", Scenario, d, v_w, v_b)
    if "model" not in raw:
        raise ConfigError("model", "missing required field")
    model = _named("model", model_from_config, raw["model"])
    return scenario, model, _named("p_catch", _probability, raw.get("p_catch", 0.0), "p_catch")


def _analyze_payload(scenario: Scenario, model: ArrivalModel) -> dict:
    return {
        "t_delta_min": scenario.t_delta,
        "walk_time_min": scenario.walk_time,
        "bus_time_min": scenario.bus_time,
        "mean_arrival_min": model.mean(),
        "expected_wait_forever_min": expected_tt(scenario, model, math.inf),
        "expected_walk_now_min": scenario.walk_time,
        "verdict": compare_wait_walk(scenario, model),
    }


def cmd_analyze(args) -> int:
    scenario, model, _ = load_config(args.config)
    payload = _analyze_payload(scenario, model)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"break-even wait (t_delta): {payload['t_delta_min']:.6g} min")
    print(f"walking time:              {payload['walk_time_min']:.6g} min")
    print(f"bus riding time:           {payload['bus_time_min']:.6g} min")
    print(f"mean bus arrival:          {payload['mean_arrival_min']:.6g} min")
    print(f"E[wait forever]:           {payload['expected_wait_forever_min']:.6g} min")
    print(f"E[walk now]:               {payload['expected_walk_now_min']:.6g} min")
    print(f"verdict:                   {payload['verdict']}")
    return 0


def cmd_optimize(args) -> int:
    scenario, model, _ = load_config(args.config)
    points = find_stationary_points(scenario, model)
    policy = _best_policy(scenario, model, points)
    if args.json:
        # PolicyChoice's JSON keys are not in its field order
        policy_json = {"strategy": policy.strategy, "t_wait": policy.t_wait,
                       "expected_tt": policy.expected_tt}
        points_json = [dataclasses.asdict(p) for p in points]
        print(json.dumps({"stationary_points": points_json, "policy": policy_json}, indent=2))
        return 0
    if points:
        for p in points:
            print(f"stationary {p.kind} at t_wait={p.t_wait:.6g} min, E={p.expected_tt:.6g} min")
    else:
        print("no stationary points")
    wait = "" if policy.t_wait is None else f" (t_wait={policy.t_wait:.6g} min)"
    print(f"policy: {policy.strategy}{wait}, E={policy.expected_tt:.6g} min")
    return 0


def cmd_sweep(args) -> int:
    scenario, model, p_catch = load_config(args.config)
    if args.steps < 2:
        raise ConfigError("steps", "must be at least 2")
    if args.tw is not None and args.var != "d1":
        raise ConfigError("tw", "applies only to --var d1")
    for field, value in (("from", args.start), ("to", args.stop)):
        if not math.isfinite(value):
            raise ConfigError(field, "must be a finite number")
    if not args.stop > args.start:
        raise ConfigError("to", "must exceed --from")
    span, last = args.stop - args.start, args.steps - 1
    # x = start + span * i / last; where span * i overflows, span * (i / last)
    # keeps x finite
    xs = [
        args.start + (span * i / last if span * i < math.inf else span * (i / last))
        for i in range(args.steps)
    ]
    if args.var == "tw":
        header = "x,expected_tt,derivative"
        rows = expected_tt_curve(scenario, model, xs)
    elif args.var == "d1":
        header = "x,expected_tt,derivative"
        rows = plan_curve_d1(scenario, model, xs, 0.0 if args.tw is None else args.tw, p_catch)
    else:  # pc
        header = "x,expected_tt,advantage"
        rows = vigilant_curve(scenario, model, xs)
    # one format per row; % and format() share the float formatter
    text = "\n".join([header] + ["%.12g,%.12g,%.12g" % row for row in rows]) + "\n"
    try:
        # overwrite in place, then cut to length: truncating a full file to
        # zero first makes ext4 force its blocks out when it closes; a
        # non-regular target such as /dev/null takes no cut, which would
        # raise EINVAL there
        with open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(text.encode())
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    return 0


# strategy names and the plan each builds from its comma-separated numbers
STRATEGIES = {
    "wait_forever": WaitForever,
    "walk_now": WalkNow,
    "wait_then_walk": WaitThenWalk,
    "walk_and_wait": WalkAndWaitPlan,
}


def parse_strategy(text: str) -> WalkAndWaitPlan:
    name, _, params = text.partition(":")
    if name not in STRATEGIES:
        raise ConfigError("strategy", f"unknown strategy {text!r}")
    try:
        return STRATEGIES[name](*(float(v) for v in params.split(",") if params))
    except (TypeError, ValueError) as exc:  # wrong count or bad value
        raise ConfigError("strategy", f"bad parameters in {text!r}: {exc}") from exc


def cmd_simulate(args) -> int:
    scenario, model, _ = load_config(args.config)
    plan = parse_strategy(args.strategy)
    analytic = expected_tt_plan(scenario, model, plan)  # checks the plan's d1 first
    for name, rule in (("n", _sample_count), ("seed", _seed)):
        _named(name, rule, getattr(args, name))
    # n and seed passed: only the journeys can fail, where they overflow
    result = _named("model", estimate, scenario, model, plan, args.n, args.seed)
    z = (result.mean - analytic) / result.stderr if result.stderr > 0 else 0.0
    if args.json:
        print(json.dumps({**dataclasses.asdict(result), "analytic": analytic, "z": z}, indent=2))
        return 0
    print(f"mean:     {result.mean:.12g} min")
    print(f"stderr:   {result.stderr:.12g} min")
    print(f"n:        {result.n}")
    print(f"analytic: {analytic:.12g} min")
    print(f"z-score:  {z:.6g}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after.

    Reuse is safe while it holds no mutable defaults and no append actions:
    parse_args returns a fresh Namespace each time.  It holds no handler:
    main looks up ``cmd_<subcommand>`` per call.
    """
    parser = argparse.ArgumentParser(
        prog="walkwait",
        description="Wait-for-the-bus versus walk decision analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="break-even summary and wait/walk verdict")
    p.add_argument("config")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("optimize", help="stationary waiting times and best policy")
    p.add_argument("config")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sweep", help="tabulate a curve to CSV")
    p.add_argument("config")
    p.add_argument("--var", choices=["tw", "d1", "pc"], required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tw", type=float, help="wait time for d1 sweeps (default 0)")

    p = sub.add_parser("simulate", help="Monte Carlo estimate vs analytic value")
    p.add_argument("config")
    p.add_argument("--strategy", required=True)
    p.add_argument("--n", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # by name, so a wrapper (a profiler, a tracer) that has since replaced a
    # handler is the one called
    handler = globals()["cmd_" + args.command]
    try:
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntervalCapError as exc:  # the model's M1 fallback cannot meet its tolerance
        print(f"error: model: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
