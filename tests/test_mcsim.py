"""Monte Carlo simulator: trajectory semantics, determinism, oracle checks."""

import math

import numpy as np
import pytest

from walkwait import (
    Exponential,
    LateBusMixture,
    PiecewiseLinearDensity,
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
from walkwait.mcsim import _travel_times

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


MODELS = [
    Uniform(30.0),
    Exponential(1.0 / 24.0),
    LateBusMixture(still_coming_prob=0.4, late_window=4.0, next_headway_offset=25.0),
    PiecewiseLinearDensity([(0.0, 0.0), (5.0, 1.0), (5.0, 0.2), (20.0, 0.6), (30.0, 0.0)]),
]


class TestBranchFreeSelects:
    @pytest.mark.parametrize("w, lo, hi", [(0.0, 25.0, 29.0), (1.0, 0.0, 4.0)])
    def test_late_bus_windows(self, w, lo, hi):
        # nobody still coming: every draw is in the late window; everybody:
        # every draw is in the early one
        model = LateBusMixture(still_coming_prob=w, late_window=4.0, next_headway_offset=25.0)
        draws = model.sample(np.random.default_rng(21), 100_000)
        assert ((draws >= lo) & (draws <= hi)).all()

    @pytest.mark.parametrize("model", MODELS)
    def test_huge_finite_wait_rides_like_waiting_forever(self, model):
        a = _travel_times(S0, model, WaitThenWalk(1e300), np.random.default_rng(5), 50_000)
        b = _travel_times(S0, model, WaitForever(), np.random.default_rng(5), 50_000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("model", MODELS)
    def test_draw_order_replayed_by_hand(self, model):
        # one arrival per journey, then one uniform per journey whose bus
        # passes the walking leg, in journey order
        plan = WalkAndWaitPlan(d1=1.5, t_wait=5.0, p_catch=0.4)  # t1 = 12
        rng = np.random.default_rng(9)
        got = _travel_times(S0, model, plan, rng, 20_000)
        replay = np.random.default_rng(9)
        tau = model.sample(replay, 20_000)
        t1 = plan.t1(S0)
        passing = int((tau < t1).sum())
        assert 0 < passing < tau.size
        catches = iter(replay.random(passing))
        expected = []
        for t in tau:
            if t < t1:
                caught = next(catches) < plan.p_catch
                expected.append(t + S0.bus_time if caught else S0.walk_time)
            elif t < t1 + plan.t_wait:
                expected.append(t + S0.bus_time)
            else:
                expected.append(S0.walk_time + plan.t_wait)
        assert np.array_equal(got, np.array(expected))
        assert rng.random() == replay.random()  # the same number of draws


class NoDraws(Uniform):
    """A uniform model whose sampler must not be reached."""

    def sample(self, rng, size=None):
        raise AssertionError("drew an arrival")


class TestImpossiblePlan:
    # S0 is 3 km long: a plan cannot walk 5 km of it
    PLAN = WalkAndWaitPlan(d1=5.0, t_wait=3.0, p_catch=0.5)

    def test_estimate_rejects_before_any_draw(self):
        with pytest.raises(ValueError, match="d1"):
            estimate(S0, NoDraws(30.0), self.PLAN, 1000, 1)

    def test_simulate_once_rejects_before_any_draw(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="d1"):
            simulate_once(S0, NoDraws(30.0), self.PLAN, rng)
        assert rng.bit_generator.state == state
