"""Stationary-point search, classification, and policy selection."""

import math

import numpy as np
import pytest

from walkwait import (
    Exponential,
    LateBusMixture,
    PiecewiseLinearDensity,
    Scenario,
    Uniform,
    classify_uniform,
    compare_wait_walk,
    expected_tt,
    expected_tt_gradient,
    expected_tt_wait_forever,
    find_stationary_points,
    optimal_policy,
)
from walkwait.optimizer import SCAN_POINTS
from _models import random_model, random_scenario

S0 = Scenario(d=3.0, v_w=0.1, v_b=0.5)
LATE_BUS = LateBusMixture(still_coming_prob=0.25, late_window=4.0, next_headway_offset=56.0)
# a spike narrower than one cell of the scan grid, and a density drop at t=4
SPIKE = PiecewiseLinearDensity([[0, .001], [5, .001], [5.05, 320], [5.1, .001], [4000, .001]])
DROP = PiecewiseLinearDensity([[0, 1], [4, 1], [4, .01], [100, .01]])


def jumpy_knots(rng: np.random.Generator, t_delta: float) -> list:
    """Random knots with density jumps (repeated knot times) and, half the
    time, a narrow spike; their features are what a plain grid scan misses."""
    span = rng.uniform(0.5, 3.0) * t_delta
    n = int(rng.integers(3, 9))
    ts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, span, n - 1))])
    knots = [(t, rng.uniform(0.05, 1.0)) for t in ts]
    for i in rng.choice(np.arange(1, n), size=int(rng.integers(1, 3)), replace=False):
        knots.append((ts[i], rng.uniform(0.0, 1.0)))  # the jump at ts[i]
    if rng.random() < 0.5:
        width = span * 10.0 ** rng.uniform(-4.0, -2.0)
        centre = rng.uniform(0.05, 0.9) * span
        knots += [(centre - width, 0.05), (centre, rng.uniform(5.0, 300.0)), (centre + width, 0.05)]
    return sorted(knots, key=lambda knot: knot[0])  # stable: jumps keep their order


def piecewise_tt(scenario: Scenario, knots: list, ws: np.ndarray) -> np.ndarray:
    """E(W) for every wait in ws, from the knots in closed form: on a piece
    the density is y0 + s x, so F gains y0 x + s x^2/2 and M1 gains
    t0 (y0 x + s x^2/2) + y0 x^2/2 + s x^3/3 up to x = W - t0."""
    ts, ys = np.array(knots, dtype=float).T
    t0, y0, h = ts[:-1], ys[:-1], np.diff(ts)
    s = np.divide(np.diff(ys), h, out=np.zeros_like(h), where=h > 0.0)
    x = np.clip(ws[:, None] - t0, 0.0, h)
    mass = y0 * x + 0.5 * s * x * x
    total = np.sum(0.5 * (y0 + ys[1:]) * h)
    f = mass.sum(axis=1) / total
    m1 = (t0 * mass + 0.5 * y0 * x * x + s * x**3 / 3.0).sum(axis=1) / total
    return scenario.bus_time * f + m1 + (1.0 - f) * (scenario.walk_time + ws)


class TestFindStationaryPoints:
    def test_uniform_interior_maximum(self):
        points = find_stationary_points(S0, Uniform(30.0))
        assert len(points) == 1
        assert points[0].kind == "maximum"
        assert points[0].t_wait == pytest.approx(6.0, abs=1e-6)

    def test_uniform_short_headway_none(self):
        assert find_stationary_points(S0, Uniform(20.0)) == []

    def test_exponential_break_even_flat_marker(self):
        points = find_stationary_points(S0, Exponential(1.0 / 24.0))
        assert len(points) == 1
        assert points[0].kind == "flat"
        assert points[0].t_wait == 0.0

    def test_late_bus_interior_minimum(self):
        points = find_stationary_points(S0, LATE_BUS)
        assert len(points) == 1
        assert points[0].kind == "minimum"
        assert 0.0 < points[0].t_wait < 4.0

    def test_roots_satisfy_stationarity_condition(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            scenario = random_scenario(rng)
            model = random_model(rng)
            for sp in find_stationary_points(scenario, model):
                if sp.kind == "flat":
                    continue
                residual = abs(
                    model.survival(sp.t_wait)
                    - scenario.t_delta * model.density(sp.t_wait)
                )
                assert residual < 1e-9
                # and the gradient through the expectation module agrees
                assert expected_tt_gradient(scenario, model, sp.t_wait).first == (
                    pytest.approx(0.0, abs=1e-9)
                )

    def test_classification_matches_second_derivative_sign(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            scenario = random_scenario(rng)
            model = random_model(rng)
            for sp in find_stationary_points(scenario, model):
                if sp.kind == "flat" or model.is_kink(sp.t_wait, tol=1e-6):
                    continue
                second = expected_tt_gradient(scenario, model, sp.t_wait).second
                if sp.kind == "minimum":
                    assert second > 0.0
                else:
                    assert second < 0.0

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            find_stationary_points(S0, Uniform(30.0), horizon=0.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            find_stationary_points(S0, Exponential(1.0 / 24.0), horizon=horizon)

    def test_minimum_at_density_drop(self):
        # E' jumps from negative to positive at t=4 without vanishing
        minima = [sp for sp in find_stationary_points(S0, DROP) if sp.kind == "minimum"]
        assert [sp.t_wait for sp in minima] == [4.0]
        assert DROP.is_kink(4.0)
        assert expected_tt_gradient(S0, DROP, 4.0).one_sided

    def test_waits_are_python_floats(self):
        for model in (LATE_BUS, Uniform(30.0), SPIKE, DROP):
            for sp in find_stationary_points(S0, model):
                assert type(sp.t_wait) is float
        assert type(optimal_policy(S0, LATE_BUS).t_wait) is float


def piecewise_twin(model):
    """The PiecewiseLinearDensity with the density of a Uniform or a
    LateBusMixture, which the optimizer scans rather than solves."""
    if isinstance(model, Uniform):
        return PiecewiseLinearDensity([[0, 1], [model.headway, 1]])
    w, L, H = model.still_coming_prob, model.late_window, model.next_headway_offset
    return PiecewiseLinearDensity(
        [[0, 2 * w / L], [L, 0], [H, 0], [H, (1 - w) / L], [H + L, (1 - w) / L]]
    )


def counting(cls):
    """A subclass of cls that counts appearance_rate calls on the class:
    the frozen models take no instance attributes."""

    class Counting(cls):
        calls = 0

        def appearance_rate(self, t):
            type(self).calls += 1
            return super().appearance_rate(t)

    return Counting


class TestClosedFormSignChanges:
    def test_finds_every_root_the_scan_of_a_piecewise_twin_finds(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            scenario = random_scenario(rng)
            model = random_model(rng, kinds=["uniform", "late_bus"])
            exact = find_stationary_points(scenario, model)
            for sp in find_stationary_points(scenario, piecewise_twin(model)):
                assert any(
                    e.kind == sp.kind and abs(e.t_wait - sp.t_wait) <= 1e-9 for e in exact
                ), (scenario, model, sp, exact)

    @pytest.mark.parametrize(
        "cls, args",
        [
            (Uniform, (30.0,)),
            (Uniform, (20.0,)),
            (Exponential, (1.0 / 24.0,)),
            (Exponential, (0.1,)),
            (LateBusMixture, (0.25, 4.0, 56.0)),
        ],
    )
    def test_parametric_models_make_no_rate_calls(self, cls, args):
        model = counting(cls)(*args)
        assert find_stationary_points(S0, model) == find_stationary_points(S0, cls(*args))
        assert type(model).calls == 0

    def test_piecewise_models_are_scanned(self):
        model = counting(PiecewiseLinearDensity)([[0, 1], [4, 1], [4, .01], [100, .01]])
        assert find_stationary_points(S0, model) == find_stationary_points(S0, DROP)
        assert type(model).calls > SCAN_POINTS

    def test_late_bus_minimum_before_the_first_grid_point(self):
        scenario = Scenario(4.70919, 5.9643 / 60, 17.3726 / 60)
        model = LateBusMixture(0.0850255, 5.28192, 47.5513)
        policy = optimal_policy(scenario, model)
        assert policy.strategy == "wait_then_walk"
        assert policy.t_wait == pytest.approx(0.00997326, abs=1e-8)
        assert policy.t_wait < model.support_end / (SCAN_POINTS + 1)
        assert expected_tt_gradient(scenario, model, policy.t_wait).first == (
            pytest.approx(0.0, abs=1e-12)
        )
        walk_now = expected_tt(scenario, model, 0.0)
        assert policy.expected_tt < walk_now - 5e-6
        for w in np.linspace(0.0, 0.05, 501):
            assert policy.expected_tt <= expected_tt(scenario, model, w) + 1e-12

    def test_uniform_maximum_before_the_first_grid_point(self):
        scenario = Scenario(5.4125, 4.38339 / 60, 22.9395 / 60)
        points = find_stationary_points(scenario, Uniform(59.944))
        assert [sp.kind for sp in points] == ["maximum"]
        assert points[0].t_wait == pytest.approx(59.944 - scenario.t_delta, abs=1e-12)
        assert points[0].t_wait < 59.944 / (SCAN_POINTS + 1)

    @pytest.mark.parametrize("model", [LATE_BUS, Uniform(30.0)])
    def test_roots_do_not_depend_on_the_horizon(self, model):
        points = find_stationary_points(S0, model)
        assert len(points) == 1
        assert find_stationary_points(S0, model, horizon=10.0) == points


class TestOptimalPolicy:
    def test_uniform_case2_waits(self):
        policy = optimal_policy(S0, Uniform(30.0))
        assert policy.strategy == "wait_forever"
        assert policy.expected_tt == pytest.approx(21.0)

    def test_uniform_case3_walks(self):
        policy = optimal_policy(S0, Uniform(60.0))
        assert policy.strategy == "walk_now"
        assert policy.expected_tt == pytest.approx(30.0)

    def test_late_bus_finite_wait(self):
        policy = optimal_policy(S0, LATE_BUS)
        assert policy.strategy == "wait_then_walk"
        assert policy.t_wait <= 4.0
        # grid-search oracle over the same horizon
        grid = np.arange(0.0, 60.0, 1e-3)
        best = min(expected_tt(S0, LATE_BUS, w) for w in grid)
        assert policy.expected_tt == pytest.approx(best, abs=1e-6)

    def test_exponential_tiny_rate_walks(self):
        # the mean wait is 1e300 minutes: walking now (30 min) must win, at
        # its exact walking time
        policy = optimal_policy(Scenario(3.0, 0.1, 0.5), Exponential(rate=1e-300))
        assert policy.strategy == "walk_now"
        assert policy.expected_tt == 30.0

    def test_narrow_spike_wait(self):
        policy = optimal_policy(S0, SPIKE)
        assert policy.strategy == "wait_then_walk"
        assert policy.t_wait == pytest.approx(5.1, abs=1e-3)
        assert policy.expected_tt == pytest.approx(15.8532, abs=1e-4)

    def test_wait_until_density_drop(self):
        policy = optimal_policy(S0, DROP)
        assert policy.strategy == "wait_then_walk"
        assert policy.t_wait == 4.0
        assert policy.expected_tt == pytest.approx(13.0323, abs=1e-4)

    def test_matches_brute_force_with_jumps_and_spikes(self):
        rng = np.random.default_rng(4)
        for _ in range(150):
            scenario = random_scenario(rng)
            knots = jumpy_knots(rng, scenario.t_delta)
            model = PiecewiseLinearDensity(knots)
            ws = np.concatenate(
                [np.linspace(0.0, model.support_end, 20_001), model.breakpoints()]
            )
            brute = piecewise_tt(scenario, knots, ws)
            best = min(brute.min(), expected_tt_wait_forever(scenario, model))
            policy = optimal_policy(scenario, model)
            assert policy.expected_tt <= best + 1e-9 * max(1.0, best), knots
            if policy.t_wait is not None:
                at_wait = piecewise_tt(scenario, knots, np.array([policy.t_wait]))[0]
                assert policy.expected_tt == pytest.approx(at_wait, rel=1e-9)

    def test_marginal_tie_prefers_walking(self):
        policy = optimal_policy(S0, Uniform(48.0))
        assert policy.strategy == "walk_now"
        assert policy.expected_tt == pytest.approx(30.0)

    def test_uniform_never_waits_interior(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            scenario = random_scenario(rng)
            model = random_model(rng, kinds=["uniform"])
            assert optimal_policy(scenario, model).strategy != "wait_then_walk"

    def test_matches_brute_force_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scenario = random_scenario(rng)
            model = random_model(rng)
            horizon = model.quad_bound()
            policy = optimal_policy(scenario, model)
            candidates = [
                expected_tt(scenario, model, w)
                for w in np.linspace(0.0, horizon, 10_000)
            ]
            candidates.append(expected_tt_wait_forever(scenario, model))
            assert policy.expected_tt == pytest.approx(min(candidates), abs=1e-6)
            assert policy.expected_tt <= min(candidates) + 1e-6


class TestCompareWaitWalk:
    def test_wait(self):
        assert compare_wait_walk(S0, Uniform(30.0)) == "wait"

    def test_walk(self):
        assert compare_wait_walk(S0, Uniform(60.0)) == "walk"

    def test_indifferent_at_marginal_headway(self):
        assert compare_wait_walk(S0, Uniform(48.0)) == "indifferent"


class TestClassifyUniform:
    @pytest.mark.parametrize(
        "headway, expected",
        [
            (20.0, "case1_wait"),
            (30.0, "case2_wait_with_interior_max"),
            (48.0, "marginal"),
            (60.0, "case3_walk"),
        ],
    )
    def test_cases(self, headway, expected):
        assert classify_uniform(S0, headway) == expected

    def test_bad_headway(self):
        with pytest.raises(ValueError):
            classify_uniform(S0, 0.0)


class TestMarginalCase:
    def test_never_better_to_give_up(self):
        model = Uniform(48.0)
        assert expected_tt(S0, model, 0.0) == pytest.approx(30.0, abs=1e-9)
        assert expected_tt(S0, model, math.inf) == pytest.approx(30.0, abs=1e-9)
        for w in np.linspace(0.0, 48.0, 1000)[1:-1]:
            assert expected_tt(S0, model, w) >= 30.0 - 1e-12
