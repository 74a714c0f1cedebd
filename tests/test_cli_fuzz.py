"""Every command on seeded random configs and on the bundled ones: each
call exits 0, 2 or 3, each ``--json`` output is strict JSON, a sample with
no spread has z 0 at the price and none elsewhere, and every other z-score
is below 5 in size, 3.5 on the bundled configs."""

import json
import math
import random
from pathlib import Path

from walkwait.cli import main

CONFIGS = 200
Z_BOUND = 5.0
N = "3000"
RECHECK_N = "1000000"


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def random_model(rng: random.Random) -> dict:
    """A model config over many time scales, now and then one the
    constructors reject."""
    kind = rng.choice(["uniform", "exponential", "late_bus_mixture", "piecewise"])
    if kind == "uniform":
        return {"kind": kind, "headway": log_uniform(rng, 1e-2, 1e5)}
    if kind == "exponential":
        return {"kind": kind, "rate": log_uniform(rng, 1e-5, 1e2)}
    if kind == "late_bus_mixture":
        late = log_uniform(rng, 1e-2, 1e3)
        return {"kind": kind, "still_coming_prob": rng.random(), "late_window": late,
                "next_headway_offset": late + log_uniform(rng, 1e-2, 1e4)}
    times = sorted(log_uniform(rng, 1e-2, 1e4) for _ in range(rng.randint(1, 5)))
    densities = [rng.choice([0.0, rng.random()]) for _ in times]
    return {"kind": kind, "knots": [[0.0, rng.random()], *map(list, zip(times, densities))]}


def random_config(rng: random.Random) -> dict:
    """A journey of 10 m to 100 km, its bus now and then slower than walking."""
    walk = log_uniform(rng, 0.5, 20.0)
    return {"distance_km": log_uniform(rng, 1e-2, 1e2), "walk_speed_kmh": walk,
            "bus_speed_kmh": walk * log_uniform(rng, 0.9, 20.0), "model": random_model(rng)}


def random_calls(rng: random.Random, config: dict, path: str, out: str) -> list[list[str]]:
    """One call of each command on the config at path; a plan or a sweep now
    and then walks past the journey's end."""
    d, wait = config["distance_km"], repr(log_uniform(rng, 1e-2, 1e4))
    strategy = rng.choice([
        "walk_now", "wait_forever", f"wait_then_walk:{wait}",
        f"walk_and_wait:{d * rng.uniform(0.0, 1.05)!r},{wait},{rng.random()!r}",
    ])
    var = rng.choice(["tw", "d1", "pc"])
    stop = {"tw": log_uniform(rng, 1e-1, 1e4), "d1": d * rng.uniform(0.1, 1.05), "pc": 1.0}[var]
    sweep = ["sweep", path, "--var", var, "--from", "0", "--to", repr(stop),
             "--steps", str(rng.randint(2, 11)), "--out", out]
    return [
        ["analyze", path, "--json"],
        ["optimize", path, "--json"],
        ["simulate", path, "--strategy", strategy, "--n", N, "--seed", str(rng.randrange(100)),
         "--json"],
        sweep + (["--tw", wait] if var == "d1" else []),
    ]


def strict_json(text: str):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def run(argv: list[str], capsys, bound: float = Z_BOUND) -> tuple[int, str | None]:
    """The exit code of one call and what is wrong with it, or None.

    A z-score is read as a normal deviate, which holds only where the n
    journeys show each outcome of the plan many times.  Where a bus that
    comes in time once in a thousand journeys is missed by all of them, the
    estimate lacks its rides and a stderr that stands for them, so a large z
    at N journeys counts only if it stays at RECHECK_N."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: a usage error
        code = exc.code
    out = capsys.readouterr().out
    if code not in (0, 2, 3):
        return code, f"exit {code}"
    if code != 0 or "--json" not in argv:
        return code, None
    try:
        payload = strict_json(out)
    except ValueError as exc:
        return code, f"output is not strict JSON: {exc}"
    if argv[0] != "simulate":
        return code, None
    z = payload["z"]
    if payload["stderr"] == 0.0:  # z is 0 at the price, else there is none
        if z == (0.0 if payload["mean"] == payload["analytic"] else None):
            return code, None
        return code, f"no spread, and z = {z}"
    if abs(z) < bound:
        return code, None
    if argv[5] == N:
        return run([*argv[:5], RECHECK_N, *argv[6:]], capsys, bound)
    return code, f"|z| = {abs(z)} >= {bound} (stderr {payload['stderr']})"


def test_every_command_on_random_configs(tmp_path, capsys):
    rng = random.Random(44)
    path, out = tmp_path / "config.json", str(tmp_path / "out.csv")
    problems, codes = [], set()
    for _ in range(CONFIGS):
        config = random_config(rng)
        path.write_text(json.dumps(config))
        for argv in random_calls(rng, config, str(path), out):
            code, found = run(argv, capsys)
            codes.add(code)
            if found:
                problems.append(f"{found}: {argv[0]} {' '.join(argv[2:])} on {config}")
    assert problems == []
    assert codes == {0, 2}  # each config field and plan reaches both ends


def test_bundled_configs_print_strict_json(capsys):
    # each branch of the kernel: a wait that can end, a walking leg, and a
    # walk to the destination with a wait there, where the price and the
    # journeys both end at d
    configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
    strategies = ["wait_then_walk:5", "walk_and_wait:1,3,0.5", "walk_and_wait:3,4,0.8"]
    problems = []
    for config in configs:
        calls = [["analyze", str(config), "--json"], ["optimize", str(config), "--json"]]
        calls += [["simulate", str(config), "--strategy", strategy, "--n", "100000", "--seed", "0",
                   "--json"] for strategy in strategies]
        for argv in calls:
            code, found = run(argv, capsys, bound=3.5)
            if code or found:
                problems.append(f"exit {code}, {found}: {' '.join(argv)}")
    assert len(configs) == 4 and problems == []
