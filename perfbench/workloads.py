"""Seeded input generator for the three benchmark workloads.

Standard library only, so that the set-up probe can build the inputs before
it starts its clock on ``import walkwait``.  Every input is a plain JSON-able
dict in the CLI config format (km, km/h), so the same spec feeds the library
workloads, the config files of ``curves`` and the independent oracle.

Mixes are stratified rather than drawn: each block of a pool holds the same
number of inputs of every model kind (and, for ``curves`` and ``verify``, of
every sweep variable or strategy).  Per-op cost depends mostly on those
choices, so stratifying keeps a run's cost mix the same from seed to seed while the
continuous parameters still change with the seed.  Kinds get equal weight
because no usage data exists.
"""

from __future__ import annotations

import copy
import random

KINDS = ("uniform", "exponential", "late_bus_mixture", "piecewise")
# piecewise shapes: smooth knots, a density jump (repeated knot time), and a
# narrow spike on a low background; the last two are the shapes on which the
# optimizer's grid scan can miss the optimum
SHAPES = ("smooth", "jump", "spike")
SWEEP_VARS = ("tw", "d1", "pc")
# A d1 or pc sweep costs one set of integrals per step, and the cost of an
# integral varies tenfold from one config to the next, so the workload runs
# many short sweeps rather than a few long ones: more configs per run make
# the run's cost mix, and so its figures, steadier from seed to seed.
SWEEP_STEPS = {"tw": 61, "d1": 21, "pc": 21}
STRATEGIES = ("wait_then_walk", "wait_forever", "walk_and_wait")
MC_SAMPLES = 10**6

# a decide block holds this many inputs of each kind plus the two hard ones
DECIDE_PER_KIND = 12

# the two wrong-policy inputs reproduced for the exact-optimizer work: a
# narrow spike the 4096-point scan steps over, and a minimum at a density jump
KNOWN_HARD_DECIDE = (
    {
        "scenario": {"distance_km": 3.0, "walk_speed_kmh": 6.0, "bus_speed_kmh": 30.0},
        "model": {
            "kind": "piecewise",
            "knots": [[0, 0.001], [5, 0.001], [5.05, 320], [5.1, 0.001], [4000, 0.001]],
        },
        "shape": "spike",
    },
    {
        "scenario": {"distance_km": 3.0, "walk_speed_kmh": 6.0, "bus_speed_kmh": 30.0},
        "model": {"kind": "piecewise", "knots": [[0, 1], [4, 1], [4, 0.01], [100, 0.01]]},
        "shape": "jump",
    },
)


def _r(x: float) -> float:
    """Six significant digits: short, exact-in-JSON configs."""
    return float(f"{x:.6g}")


def _scenario(rng: random.Random) -> dict:
    return {
        "distance_km": _r(rng.uniform(1.0, 6.0)),
        "walk_speed_kmh": _r(rng.uniform(4.0, 6.5)),
        "bus_speed_kmh": _r(rng.uniform(15.0, 40.0)),
    }


def _t_delta_min(scenario: dict) -> float:
    """Break-even wait in minutes, for scaling generated times."""
    d = scenario["distance_km"]
    return 60.0 * d * (1.0 / scenario["walk_speed_kmh"] - 1.0 / scenario["bus_speed_kmh"])


def _piecewise_knots(rng: random.Random, n: int, shape: str, span: float) -> list:
    if shape == "spike":
        # low background over [0, span] plus a rise-peak-fall triangle
        width = span * 10.0 ** rng.uniform(-4.0, -2.0)
        centre = rng.uniform(0.05, 0.6) * span
        low = rng.uniform(0.001, 0.05)
        knots = [[0.0, low], [centre - width, low], [centre, low * rng.uniform(200, 5000)],
                 [centre + width, low]]
        times = sorted(rng.uniform(centre + 2 * width, span) for _ in range(n - 4))
        knots += [[t, rng.uniform(0.5, 2.0) * low] for t in times]
        return [[_r(t), _r(y)] for t, y in knots]
    times = sorted([0.0] + [rng.uniform(0.0, span) for _ in range(n - 1)])
    ys = [rng.uniform(0.0, 1.0) for _ in times]
    ys[rng.randrange(len(ys))] += 0.5  # never all-zero mass
    knots = [[_r(t), _r(y)] for t, y in zip(times, ys)]
    if shape == "jump":
        # repeat an interior knot time with a different density
        i = rng.randrange(1, n - 1)
        knots[i + 1][0] = knots[i][0]
        knots[i + 1][1] = _r(knots[i][1] * rng.choice((0.02, 20.0)) + 0.01)
    return knots


def _model(rng: random.Random, kind: str, td: float, slot: int) -> tuple[dict, str]:
    """A model spec of `kind` scaled to the break-even wait td; `slot`
    cycles the piecewise knot count and shape so every pool covers them."""
    if kind == "uniform":
        return {"kind": "uniform", "headway": _r(rng.uniform(0.3, 3.0) * td)}, "smooth"
    if kind == "exponential":
        return {"kind": "exponential", "rate": _r(1.0 / (rng.uniform(0.3, 3.0) * td))}, "smooth"
    if kind == "late_bus_mixture":
        window = rng.uniform(0.1, 1.0) * td
        return {
            "kind": "late_bus_mixture",
            "still_coming_prob": _r(rng.uniform(0.05, 0.95)),
            "late_window": _r(window),
            "next_headway_offset": _r(window + rng.uniform(0.2, 3.0) * td),
        }, "smooth"
    shape = SHAPES[slot % len(SHAPES)]
    n = 2 + (slot * 7) % 11  # 2..12 knots, cycled
    if shape == "jump":
        n = max(n, 4)
    elif shape == "spike":
        n = max(n, 5)
    return {"kind": "piecewise", "knots": _piecewise_knots(rng, n, shape, rng.uniform(0.5, 3.0) * td)}, shape


def _decide_block(rng: random.Random, block: int) -> list[dict]:
    ops = []
    for j in range(DECIDE_PER_KIND):
        for kind in KINDS:
            scenario = _scenario(rng)
            model, shape = _model(rng, kind, _t_delta_min(scenario), block * DECIDE_PER_KIND + j)
            ops.append({"scenario": scenario, "model": model, "shape": shape})
    ops.extend(copy.deepcopy(KNOWN_HARD_DECIDE))
    return ops


def _curves_block(rng: random.Random, block: int) -> list[dict]:
    ops = []
    for kind in KINDS:
        for v, var in enumerate(SWEEP_VARS):
            scenario = _scenario(rng)
            td = _t_delta_min(scenario)
            model, shape = _model(rng, kind, td, block * len(SWEEP_VARS) + v)
            config = dict(scenario, model=model, p_catch=_r(rng.uniform(0.0, 1.0)))
            op = {"config": config, "var": var, "steps": SWEEP_STEPS[var], "shape": shape,
                  "start": 0.0, "tw": 0.0}
            if var == "tw":
                op["stop"] = _r(rng.uniform(0.5, 2.0) * td)
            elif var == "d1":
                op["stop"] = _r(rng.uniform(0.5, 1.0) * scenario["distance_km"])
                op["tw"] = _r(rng.uniform(0.0, 1.0) * td)
            else:
                op["stop"] = 1.0
            ops.append(op)
    return ops


def _verify_block(rng: random.Random, block: int) -> list[dict]:
    ops = []
    for kind in KINDS:
        for k, strategy in enumerate(STRATEGIES):
            scenario = _scenario(rng)
            td = _t_delta_min(scenario)
            model, shape = _model(rng, kind, td, block * len(STRATEGIES) + k)
            if strategy == "wait_then_walk":
                strat = {"kind": strategy, "t_wait": _r(rng.uniform(0.1, 1.5) * td)}
            elif strategy == "wait_forever":
                strat = {"kind": strategy}
            else:
                strat = {
                    "kind": strategy,
                    "d1": _r(rng.uniform(0.1, 0.9) * scenario["distance_km"]),
                    "t_wait": _r(rng.uniform(0.0, 1.0) * td),
                    "p_catch": _r(rng.uniform(0.0, 1.0)),
                }
            ops.append({"scenario": scenario, "model": model, "shape": shape,
                        "strategy": strat, "n": MC_SAMPLES, "mc_seed": rng.randrange(2**31)})
    return ops


GENERATORS = {"decide": _decide_block, "curves": _curves_block, "verify": _verify_block}


def generate(workload: str, seed: int, blocks: int) -> list[dict]:
    """The first `blocks` blocks of the workload's input pool for `seed`, in
    the order the loop runs them.

    Each block is a complete stratified mix shuffled on its own, so any
    number of whole blocks is the full mix and the cheap and dear ops
    interleave.
    """
    ops = []
    for block in range(blocks):
        rng = random.Random(f"walkwait-bench/{workload}/{seed}/{block}")
        part = GENERATORS[workload](rng, block)
        rng.shuffle(part)
        ops.extend(part)
    return ops


def build(ww, spec: dict):
    """(Scenario, model[, strategy]) for one input, with walkwait module ww.

    Speeds are converted from km/h exactly as the CLI config loader does.
    """
    sc = spec.get("config", spec.get("scenario"))
    scenario = ww.Scenario(d=sc["distance_km"], v_w=sc["walk_speed_kmh"] / 60.0,
                           v_b=sc["bus_speed_kmh"] / 60.0)
    model = ww.model_from_config(sc["model"] if "config" in spec else spec["model"])
    if "strategy" not in spec:
        return scenario, model
    s = spec["strategy"]
    if s["kind"] == "wait_then_walk":
        strategy = ww.WaitThenWalk(t_wait=s["t_wait"])
    elif s["kind"] == "wait_forever":
        strategy = ww.WaitForever()
    else:
        strategy = ww.WalkAndWait(plan=ww.WalkAndWaitPlan(
            d1=s["d1"], t_wait=s["t_wait"], p_catch=s["p_catch"]))
    return scenario, model, strategy
