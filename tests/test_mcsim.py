"""Monte Carlo simulator: trajectory semantics, determinism, oracle checks."""

import math

import numpy as np
import pytest

from walkwait import (
    Exponential,
    Scenario,
    Uniform,
    WaitForever,
    WaitThenWalk,
    WalkAndWait,
    WalkAndWaitPlan,
    WalkNow,
    analytic_expectation,
    estimate,
    simulate_once,
)

from _models import random_model, random_scenario

S0 = Scenario(d=3.0, v_w=0.1, v_b=0.5)


class TestSimulateOnce:
    def test_walk_now_is_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert simulate_once(S0, Uniform(30.0), WalkNow(), rng) == 30.0

    def test_zero_wait_never_boards(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = simulate_once(S0, Uniform(30.0), WaitThenWalk(0.0), rng)
            assert t == 30.0

    def test_wait_forever_rides_the_bus(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = simulate_once(S0, Uniform(30.0), WaitForever(), rng)
            assert 6.0 <= t <= 36.0

    def test_caught_bus_clocked_from_starting_point(self):
        # certain catch while walking the full distance: travel time is the
        # bus's arrival at the origin plus the full ride
        plan = WalkAndWaitPlan(d1=3.0, t_wait=0.0, p_catch=1.0)
        strategy = WalkAndWait(plan)
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = simulate_once(S0, Uniform(30.0), strategy, rng)
            if t != 30.0:  # caught: tau + 6 with tau < t_delta = 24
                assert 6.0 <= t < 30.0

    def test_walk_and_wait_branches(self):
        plan = WalkAndWaitPlan(d1=1.5, t_wait=5.0, p_catch=0.0)  # t1 = 12
        strategy = WalkAndWait(plan)
        rng = np.random.default_rng(4)
        seen = set()
        for _ in range(500):
            t = simulate_once(S0, Uniform(30.0), strategy, rng)
            if t == 30.0:
                seen.add("missed")  # bus passed, not caught
            elif t == 35.0:
                seen.add("gave_up")  # waited 5 min at the stop, then walked
            else:
                assert 18.0 <= t <= 23.0  # boarded at the stop
                seen.add("boarded")
        assert seen == {"missed", "gave_up", "boarded"}


class TestEstimate:
    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            estimate(S0, Uniform(30.0), WalkNow(), 1, 0)

    def test_bit_identical_reruns(self):
        a = estimate(S0, Uniform(30.0), WaitForever(), 200_000, 123)
        b = estimate(S0, Uniform(30.0), WaitForever(), 200_000, 123)
        assert a == b

    def test_seed_changes_result(self):
        a = estimate(S0, Uniform(30.0), WaitForever(), 10_000, 1)
        b = estimate(S0, Uniform(30.0), WaitForever(), 10_000, 2)
        assert a.mean != b.mean

    def test_constant_strategy_zero_stderr(self):
        plan = WalkAndWaitPlan(d1=3.0, t_wait=0.0, p_catch=0.0)
        result = estimate(S0, Uniform(36.0), WalkAndWait(plan), 10_000, 0)
        assert result.mean == 30.0
        assert result.stderr == 0.0

    def test_wait_forever_uniform(self):
        result = estimate(S0, Uniform(30.0), WaitForever(), 10**6, 42)
        assert abs(result.mean - 21.0) < 3.0 * result.stderr

    def test_exponential_flatness(self):
        result = estimate(S0, Exponential(1.0 / 24.0), WaitThenWalk(12.0), 10**6, 7)
        assert abs(result.mean - 30.0) < 3.0 * result.stderr

    def test_vigilant_walk(self):
        plan = WalkAndWaitPlan(d1=3.0, t_wait=0.0, p_catch=0.8)
        result = estimate(S0, Uniform(36.0), WalkAndWait(plan), 10**6, 11)
        assert abs(result.mean - 23.6) < 3.0 * result.stderr


class TestAnalyticExpectation:
    def test_matches_simulation_for_random_strategies(self):
        rng = np.random.default_rng(100)
        for _ in range(10):
            scenario = random_scenario(rng)
            model = random_model(rng)
            kind = rng.integers(0, 4)
            if kind == 0:
                strategy = WaitForever()
            elif kind == 1:
                strategy = WalkNow()
            elif kind == 2:
                strategy = WaitThenWalk(float(rng.uniform(0.0, 40.0)))
            else:
                strategy = WalkAndWait(
                    WalkAndWaitPlan(
                        d1=float(rng.uniform(0.0, 1.0)) * scenario.d,
                        t_wait=float(rng.uniform(0.0, 30.0)),
                        p_catch=float(rng.uniform(0.0, 1.0)),
                    )
                )
            analytic = analytic_expectation(scenario, model, strategy)
            result = estimate(scenario, model, strategy, 200_000, 314)
            if result.stderr < 1e-9:  # effectively constant trajectories
                assert result.mean == pytest.approx(analytic, abs=1e-9)
            else:
                assert abs(result.mean - analytic) < 4.0 * result.stderr


class TestStrategiesArePlans:
    def test_constructors_build_plans(self):
        assert WalkNow() == WalkAndWaitPlan(d1=0.0, t_wait=0.0, p_catch=0.0)
        assert WaitThenWalk(t_wait=7.0) == WalkAndWaitPlan(d1=0.0, t_wait=7.0, p_catch=0.0)
        assert WaitForever() == WalkAndWaitPlan(d1=0.0, t_wait=math.inf, p_catch=0.0)
        plan = WalkAndWaitPlan(d1=1.0, t_wait=2.0, p_catch=0.3)
        assert WalkAndWait(plan=plan) is plan

    def test_nan_wait_rejected(self):
        # a NaN wait would otherwise simulate to a NaN mean
        with pytest.raises(ValueError):
            WaitThenWalk(math.nan)

    def test_walk_now_exact_for_every_model(self):
        rng = np.random.default_rng(50)
        for _ in range(8):
            model = random_model(rng)
            result = estimate(S0, model, WalkNow(), 70_000, 3)
            assert result.mean == 30.0
            assert result.stderr == 0.0
            assert analytic_expectation(S0, model, WalkNow()) == 30.0

    def test_walk_then_wait_forever(self):
        plan = WalkAndWaitPlan(d1=1.5, t_wait=math.inf, p_catch=0.5)  # t1 = 12
        analytic = analytic_expectation(S0, Uniform(30.0), plan)
        assert analytic == pytest.approx(24.6, abs=1e-12)
        result = estimate(S0, Uniform(30.0), plan, 200_000, 17)
        assert abs(result.mean - analytic) < 4.0 * result.stderr
