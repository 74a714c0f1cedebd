"""Stationary-point search, classification, and policy selection."""

import math

import numpy as np
import pytest

from walkwait import (
    Exponential,
    LateBusMixture,
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
from walkwait.optimizer import default_horizon

from _models import random_model, random_scenario

S0 = Scenario(d=3.0, v_w=0.1, v_b=0.5)
LATE_BUS = LateBusMixture(still_coming_prob=0.25, late_window=4.0, next_headway_offset=56.0)


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
            horizon = default_horizon(model)
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
