"""Acceptance suite: closed-form reproduction and property checks, one test
per criterion, each printing a pass/fail line (run with pytest -s to see them).
"""

import math

import numpy as np
import pytest

from walkwait import (
    Exponential,
    Scenario,
    Uniform,
    WaitForever,
    WaitThenWalk,
    WalkAndWaitPlan,
    WalkNow,
    estimate,
    expected_tt,
    expected_tt_curve,
    expected_tt_plan,
    find_stationary_points,
    optimal_policy,
    plan_gradient_tw,
    vigilant_curve,
)
from walkwait.quadrature import integrate_piecewise

from _models import (
    QuadExponential,
    advantage,
    d1_slope,
    near_kink,
    random_model,
    random_scenario,
    smooth_time,
    uniform_pc_threshold,
)

S0 = Scenario(d=3.0, v_w=0.1, v_b=0.5)  # t_delta = 24 min


def report(criterion, ok):
    print(f"{'PASS' if ok else 'FAIL'} acceptance criterion {criterion}")
    assert ok


def test_criterion_1_uniform_three_cases():
    ok = True

    # headway 20: no stationary point, waiting wins
    ok &= find_stationary_points(S0, Uniform(20.0)) == []
    p20 = optimal_policy(S0, Uniform(20.0))
    ok &= p20.strategy == "wait_forever"

    # headway 30: interior maximum at 6.0, waiting wins with E = 21
    points = find_stationary_points(S0, Uniform(30.0))
    ok &= len(points) == 1 and points[0].kind == "maximum"
    ok &= abs(points[0].t_wait - 6.0) < 1e-6
    p30 = optimal_policy(S0, Uniform(30.0))
    ok &= p30.strategy == "wait_forever" and abs(p30.expected_tt - 21.0) < 1e-12

    # headway 60: walking wins with E = 30
    p60 = optimal_policy(S0, Uniform(60.0))
    ok &= p60.strategy == "walk_now" and abs(p60.expected_tt - 30.0) < 1e-12

    # analytic vs Monte Carlo at n = 1e6
    for headway, policy, seed in ((20.0, p20, 101), (30.0, p30, 102), (60.0, p60, 103)):
        model = Uniform(headway)
        if policy.strategy == "walk_now":
            result = estimate(S0, model, WalkNow(), 10**6, seed)
            ok &= result.mean == policy.expected_tt and result.stderr == 0.0
        else:
            result = estimate(S0, model, WaitForever(), 10**6, seed)
            ok &= abs(result.mean - policy.expected_tt) < 3.5 * result.stderr
    report(1, ok)


def test_criterion_2_exponential_flatness():
    model = Exponential(rate=1.0 / 24.0)
    twin = QuadExponential(rate=1.0 / 24.0)  # M1 by quadrature
    deviations = [
        abs(expected_tt(S0, twin, w) - 30.0)
        for w in np.linspace(0.0, 120.0, 1000)
    ]
    ok = max(deviations) < 1e-9
    for seed, w in enumerate((0.0, 6.0, 12.0, 24.0, 48.0), start=201):
        result = estimate(S0, model, WaitThenWalk(w), 10**6, seed)
        if result.stderr == 0.0:
            ok &= result.mean == 30.0
        else:
            ok &= abs(result.mean - 30.0) < 3.5 * result.stderr
    report(2, ok)


def test_criterion_3_marginal_case_inequality():
    model = Uniform(48.0)
    ok = abs(expected_tt(S0, model, 0.0) - 30.0) < 1e-9
    ok &= abs(expected_tt(S0, model, math.inf) - 30.0) < 1e-9
    interior = np.linspace(0.0, 48.0, 1000)[1:-1]
    ok &= all(expected_tt(S0, model, w) >= 30.0 - 1e-12 for w in interior)
    report(3, ok)


def test_criterion_4_gradient_fidelity():
    rng = np.random.default_rng(40)
    h = 1e-4
    ok = True

    checked = 0
    while checked < 100:
        scenario = random_scenario(rng)
        model = random_model(rng)
        t = smooth_time(model, rng)
        if t < 2 * h:
            continue
        ((_, _, g),) = expected_tt_curve(scenario, model, [t])
        fd1 = (
            expected_tt(scenario, model, t + h) - expected_tt(scenario, model, t - h)
        ) / (2 * h)
        ok &= bool(np.isclose(fd1, g, rtol=1e-5, atol=1e-9))
        checked += 1

    # plan gradients in t_wait and in d1
    checked = 0
    while checked < 100:
        scenario = random_scenario(rng)
        model = random_model(rng)
        d1 = float(rng.uniform(0.1, 0.9)) * scenario.d
        w = float(rng.uniform(2 * h, 20.0))
        pc = float(rng.uniform(0.0, 1.0))
        plan = WalkAndWaitPlan(d1=d1, t_wait=w, p_catch=pc)
        t1 = plan.t1(scenario)
        if (
            near_kink(model, t1, 1e-2)
            or near_kink(model, t1 + w, 1e-2)
            or model.survival(t1 + w) < 1e-6
        ):
            continue
        fd_tw = (
            expected_tt_plan(scenario, model, WalkAndWaitPlan(d1, w + h, pc))
            - expected_tt_plan(scenario, model, WalkAndWaitPlan(d1, w - h, pc))
        ) / (2 * h)
        ok &= bool(
            np.isclose(fd_tw, plan_gradient_tw(scenario, model, plan), rtol=1e-5, atol=1e-8)
        )
        hd = 1e-5
        fd_d1 = (
            expected_tt_plan(scenario, model, WalkAndWaitPlan(d1 + hd, w, pc))
            - expected_tt_plan(scenario, model, WalkAndWaitPlan(d1 - hd, w, pc))
        ) / (2 * hd)
        ok &= bool(
            np.isclose(fd_d1, d1_slope(scenario, model, plan),
                       rtol=1e-4, atol=1e-7)
        )
        checked += 1
    report(4, ok)


def test_criterion_5_stationarity_classification():
    rng = np.random.default_rng(50)
    ok = True
    found = 0
    while found < 30:
        scenario = random_scenario(rng)
        model = random_model(rng)
        for sp in find_stationary_points(scenario, model):
            if sp.kind == "flat":
                continue
            found += 1
            residual = abs(
                model.survival(sp.t_wait) - scenario.t_delta * model.density(sp.t_wait)
            )
            ok &= residual < 1e-9
            # E' in the curve rows just below and above: - then + at a minimum
            h = 1e-7 * max(1.0, sp.t_wait)
            if not near_kink(model, sp.t_wait, 10.0 * h):
                rows = expected_tt_curve(scenario, model, [sp.t_wait - h, sp.t_wait + h])
                below, above = (g for _, _, g in rows)
                ok &= (below < 0.0 < above) if sp.kind == "minimum" else (below > 0.0 > above)
    report(5, ok)


def test_criterion_6_pc_threshold_curve():
    ok = True
    for ratio, expected in ((1.25, 0.9375), (1.5, 0.75), (1.75, 0.4375)):
        model = Uniform(ratio * S0.t_delta)
        lo, hi = 0.0, 1.0
        ok &= advantage(S0, model, lo) < 0.0
        ok &= advantage(S0, model, hi) > 0.0
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if advantage(S0, model, mid) < 0.0:
                lo = mid
            else:
                hi = mid
        crossover = 0.5 * (lo + hi)
        ok &= abs(crossover - (2 * ratio - ratio * ratio)) < 1e-6
        ok &= abs(crossover - uniform_pc_threshold(ratio)) < 1e-6

    # ratio 0.8: no crossover in [0, 1] (walking only ties at p_catch = 1)
    model = Uniform(0.8 * S0.t_delta)
    ok &= uniform_pc_threshold(0.8) is None
    ok &= all(
        advantage(S0, model, pc) < 0.0
        for pc in np.linspace(0.0, 1.0, 101)[:-1]
    )
    ok &= advantage(S0, model, 1.0) <= 1e-12
    report(6, ok)


def test_criterion_7_vigilant_walk_consistency():
    rng = np.random.default_rng(70)
    ok = True
    for _ in range(20):
        scenario = random_scenario(rng)
        model = random_model(rng)
        pc = float(rng.uniform(0.0, 1.0))
        plan_value = expected_tt_plan(
            scenario, model, WalkAndWaitPlan(d1=scenario.d, t_wait=0.0, p_catch=pc)
        )
        # independent route: integrate the CDF by parts instead of the density
        td = scenario.t_delta
        bound = model.quad_bound()
        cdf_area = integrate_piecewise(
            model.cdf, 0.0, min(td, bound), model.breakpoints()
        ) + max(0.0, td - bound)  # CDF is 1 past the support
        closed = scenario.walk_time - pc * cdf_area
        ok &= abs(plan_value - closed) < 1e-9
        ok &= abs(plan_value - vigilant_curve(scenario, model, [pc])[0][1]) < 1e-9

    plan = WalkAndWaitPlan(d1=3.0, t_wait=0.0, p_catch=0.8)
    value = expected_tt_plan(S0, Uniform(36.0), plan)
    ok &= abs(value - 23.6) < 1e-9
    result = estimate(S0, Uniform(36.0), plan, 10**6, 701)
    ok &= abs(result.mean - 23.6) < 3.5 * result.stderr
    report(7, ok)


def test_criterion_8_oracle_battery():
    rng = np.random.default_rng(80)
    ok = True
    for trial in range(30):
        scenario = random_scenario(rng)
        model = random_model(rng)
        kind = int(rng.integers(0, 4))
        if kind == 0:
            strategy = WaitForever()
        elif kind == 1:
            strategy = WalkNow()
        elif kind == 2:
            strategy = WaitThenWalk(float(rng.uniform(0.0, 40.0)))
        else:
            strategy = WalkAndWaitPlan(
                d1=float(rng.uniform(0.0, 1.0)) * scenario.d,
                t_wait=float(rng.uniform(0.0, 30.0)),
                p_catch=float(rng.uniform(0.0, 1.0)),
            )
        analytic = expected_tt_plan(scenario, model, strategy)
        result = estimate(scenario, model, strategy, 10**6, 8000 + trial)
        rerun = estimate(scenario, model, strategy, 10**6, 8000 + trial)
        ok &= result == rerun
        if result.stderr < 1e-9:
            ok &= abs(result.mean - analytic) < 1e-9
        else:
            ok &= abs(result.mean - analytic) < 3.5 * result.stderr
    report(8, ok)
