"""Walk-and-wait plans, vigilant walking, and catch-probability thresholds."""

import math

import numpy as np
import pytest

from walkwait import (
    Exponential,
    PiecewiseLinearDensity,
    Scenario,
    Uniform,
    WalkAndWaitPlan,
    expected_tt,
    expected_tt_gradient,
    expected_tt_plan,
    expected_tt_wait_forever,
    expected_tt_walk_vigilant,
    plan_gradient_d1,
    plan_gradient_tw,
    prob_miss,
    uniform_pc_threshold,
    walk_vs_wait_advantage,
)

from _models import random_model, random_scenario

S0 = Scenario(d=3.0, v_w=0.1, v_b=0.5)


def d1_for_t1(scenario, t1):
    """Walking distance that erodes exactly t1 minutes of head start."""
    return t1 / scenario.q


class TestProbMiss:
    def test_uniform_value(self):
        plan = WalkAndWaitPlan(d1=d1_for_t1(S0, 12.0), t_wait=0.0, p_catch=0.0)
        assert prob_miss(S0, Uniform(30.0), plan) == pytest.approx(0.4)

    def test_no_walking_no_miss(self):
        plan = WalkAndWaitPlan(d1=0.0, t_wait=5.0, p_catch=0.5)
        assert prob_miss(S0, Uniform(30.0), plan) == 0.0

    def test_exponential_closed_form(self):
        plan = WalkAndWaitPlan(d1=S0.d, t_wait=0.0, p_catch=0.0)  # t1 = 24
        assert prob_miss(S0, Exponential(1.0 / 24.0), plan) == pytest.approx(
            1.0 - math.exp(-1.0)
        )

    def test_d1_beyond_journey_rejected(self):
        plan = WalkAndWaitPlan(d1=4.0, t_wait=0.0, p_catch=0.0)
        with pytest.raises(ValueError):
            prob_miss(S0, Uniform(30.0), plan)


class TestExpectedTTPlan:
    def test_degenerate_reduces_to_wait_then_walk(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            scenario = random_scenario(rng)
            model = random_model(rng)
            w = rng.uniform(0.0, 30.0)
            plan = WalkAndWaitPlan(d1=0.0, t_wait=w, p_catch=rng.uniform(0.0, 1.0))
            assert expected_tt_plan(scenario, model, plan) == pytest.approx(
                expected_tt(scenario, model, w), abs=1e-12
            )

    def test_pure_walking(self):
        plan = WalkAndWaitPlan(d1=S0.d, t_wait=0.0, p_catch=0.0)
        assert expected_tt_plan(S0, Uniform(30.0), plan) == pytest.approx(30.0, abs=1e-12)

    def test_vigilant_walk_closed_value(self):
        plan = WalkAndWaitPlan(d1=3.0, t_wait=0.0, p_catch=0.8)
        assert expected_tt_plan(S0, Uniform(36.0), plan) == pytest.approx(23.6, abs=1e-9)

    def test_matches_vigilant_walk_for_random_models(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            scenario = random_scenario(rng)
            model = random_model(rng)
            pc = rng.uniform(0.0, 1.0)
            plan = WalkAndWaitPlan(d1=scenario.d, t_wait=0.0, p_catch=pc)
            assert expected_tt_plan(scenario, model, plan) == pytest.approx(
                expected_tt_walk_vigilant(scenario, model, pc), abs=1e-9
            )


class TestPlanGradientTW:
    def test_degenerate_matches_origin_gradient(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            scenario = random_scenario(rng)
            model = random_model(rng)
            w = rng.uniform(0.0, 20.0)
            plan = WalkAndWaitPlan(d1=0.0, t_wait=w, p_catch=0.3)
            got = plan_gradient_tw(scenario, model, plan)
            want = expected_tt_gradient(scenario, model, w)
            assert got.first == pytest.approx(want.first, abs=1e-14)
            assert got.second == pytest.approx(want.second, abs=1e-14)

    def test_uniform_offset_value(self):
        # t1 = 12 on a 30-minute headway: R(12) - 12 * p(12) = 0.6 - 0.4
        plan = WalkAndWaitPlan(d1=d1_for_t1(S0, 12.0), t_wait=0.0, p_catch=0.0)
        assert plan_gradient_tw(S0, Uniform(30.0), plan).first == pytest.approx(0.2)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        h = 1e-4
        checked = 0
        while checked < 50:
            scenario = random_scenario(rng)
            model = random_model(rng)
            d1 = rng.uniform(0.05, 0.9) * scenario.d
            w = rng.uniform(2 * h, 20.0)
            plan = WalkAndWaitPlan(d1=d1, t_wait=w, p_catch=rng.uniform(0.0, 1.0))
            t = plan.t1(scenario) + w
            if model.is_kink(t, tol=1e-2) or model.survival(t) < 1e-6:
                continue
            fd = (
                expected_tt_plan(
                    scenario, model, WalkAndWaitPlan(d1, w + h, plan.p_catch)
                )
                - expected_tt_plan(
                    scenario, model, WalkAndWaitPlan(d1, w - h, plan.p_catch)
                )
            ) / (2 * h)
            assert np.isclose(fd, plan_gradient_tw(scenario, model, plan).first,
                              rtol=1e-5, atol=1e-8)
            checked += 1


class TestPlanGradientD1:
    def test_vanishes_without_catching(self):
        plan = WalkAndWaitPlan(d1=1.0, t_wait=0.0, p_catch=0.0)
        assert plan_gradient_d1(S0, Uniform(30.0), plan) == 0.0

    def test_negative_when_catching_possible(self):
        plan = WalkAndWaitPlan(d1=1.0, t_wait=0.0, p_catch=0.5)
        assert plan_gradient_d1(S0, Uniform(30.0), plan) < 0.0

    def test_positive_when_waiting_past_support(self):
        plan = WalkAndWaitPlan(d1=1.0, t_wait=40.0, p_catch=0.5)  # t1 + 40 > 30
        assert plan_gradient_d1(S0, Uniform(30.0), plan) > 0.0

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        checked = 0
        while checked < 50:
            scenario = random_scenario(rng)
            model = random_model(rng)
            d1 = rng.uniform(0.1, 0.9) * scenario.d
            w = rng.uniform(0.0, 15.0)
            pc = rng.uniform(0.0, 1.0)
            plan = WalkAndWaitPlan(d1=d1, t_wait=w, p_catch=pc)
            t1 = plan.t1(scenario)
            if model.is_kink(t1, tol=1e-2) or model.is_kink(t1 + w, tol=1e-2):
                continue
            fd = (
                expected_tt_plan(scenario, model, WalkAndWaitPlan(d1 + h, w, pc))
                - expected_tt_plan(scenario, model, WalkAndWaitPlan(d1 - h, w, pc))
            ) / (2 * h)
            grad = plan_gradient_d1(scenario, model, plan)
            assert np.isclose(fd, grad, rtol=1e-4, atol=1e-7)
            checked += 1


class TestWalkVigilant:
    def test_no_catching_is_pure_walking(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            scenario = random_scenario(rng)
            model = random_model(rng)
            assert expected_tt_walk_vigilant(scenario, model, 0.0) == pytest.approx(
                scenario.walk_time
            )

    def test_uniform_long_headway(self):
        # walk - pc * t_delta^2 / (2 T) with T=36
        assert expected_tt_walk_vigilant(S0, Uniform(36.0), 1.0) == pytest.approx(
            22.0, abs=1e-9
        )

    def test_uniform_short_headway(self):
        # walk - pc * (t_delta - T/2) with T=12
        assert expected_tt_walk_vigilant(S0, Uniform(12.0), 1.0) == pytest.approx(
            12.0, abs=1e-9
        )


    def test_a_plan_that_walks_part_way_can_beat_it(self):
        # a gap, a one-unit step, then a long thin tail: walking 1.25 km
        # (t1 = 10 min, the step's start) and waiting 2 min there beats the
        # vigilant walk unless every passing bus is caught
        scenario = Scenario(d=3.0, v_w=0.1, v_b=0.5)
        model = PiecewiseLinearDensity(
            [[0, 0], [10, 0], [10, 1], [12, 1], [12, 0.01], [200, 0.01]]
        )
        for p_catch, vigilant in ((0.0, 30.0), (0.3, 27.934), (0.8, 24.4907), (1.0, 23.113)):
            plan = expected_tt_plan(scenario, model, WalkAndWaitPlan(1.25, 2.0, p_catch))
            walk = expected_tt_walk_vigilant(scenario, model, p_catch)
            assert plan == pytest.approx(24.26804, abs=1e-5)
            assert walk == pytest.approx(vigilant, abs=1e-3)
            assert (plan < walk) is (p_catch < 1.0)


class TestAdvantage:
    def test_uniform_example(self):
        assert walk_vs_wait_advantage(S0, Uniform(36.0), 0.8) == pytest.approx(
            0.4, abs=1e-9
        )

    def test_short_headway_waiting_wins(self):
        # walking only ties at p_catch = 1, never strictly beats waiting
        assert walk_vs_wait_advantage(S0, Uniform(12.0), 1.0) <= 1e-12
        for pc in (0.0, 0.5, 0.9, 0.999):
            assert walk_vs_wait_advantage(S0, Uniform(12.0), pc) < 0.0

    def test_marginal_no_catch_is_a_tie(self):
        assert walk_vs_wait_advantage(S0, Uniform(48.0), 0.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_two_formulas_agree(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            scenario = random_scenario(rng)
            model = random_model(rng)
            pc = rng.uniform(0.0, 1.0)
            direct = expected_tt_wait_forever(scenario, model) - expected_tt_walk_vigilant(
                scenario, model, pc
            )
            assert walk_vs_wait_advantage(scenario, model, pc) == pytest.approx(
                direct, abs=1e-9
            )

    def test_nondecreasing_in_catch_probability(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            scenario = random_scenario(rng)
            model = random_model(rng)
            values = [
                walk_vs_wait_advantage(scenario, model, pc)
                for pc in np.linspace(0.0, 1.0, 21)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("ratio", [1.25, 1.5, 1.75])
    def test_crossover_matches_threshold(self, ratio):
        model = Uniform(ratio * S0.t_delta)
        lo, hi = 0.0, 1.0
        assert walk_vs_wait_advantage(S0, model, lo) < 0.0
        assert walk_vs_wait_advantage(S0, model, hi) > 0.0
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if walk_vs_wait_advantage(S0, model, mid) < 0.0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(
            uniform_pc_threshold(ratio), abs=1e-6
        )


class TestPCThreshold:
    def test_midpoint(self):
        assert uniform_pc_threshold(1.5) == pytest.approx(0.75)

    def test_boundary_two(self):
        assert uniform_pc_threshold(2.0) == pytest.approx(0.0)

    def test_long_headways_always_walk(self):
        assert uniform_pc_threshold(2.5) == 0.0

    def test_short_headways_infeasible(self):
        assert uniform_pc_threshold(0.8) is None

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            uniform_pc_threshold(0.0)


class TestPlanValidation:
    def test_nan_wait_rejected(self):
        with pytest.raises(ValueError, match="t_wait"):
            WalkAndWaitPlan(d1=1.0, t_wait=math.nan, p_catch=0.5)

    @pytest.mark.parametrize("d1", [math.nan, math.inf, -1.0])
    def test_bad_distance_rejected(self, d1):
        with pytest.raises(ValueError, match="d1"):
            WalkAndWaitPlan(d1=d1, t_wait=1.0, p_catch=0.5)

    def test_nan_catch_probability_rejected(self):
        with pytest.raises(ValueError, match="p_catch"):
            WalkAndWaitPlan(d1=1.0, t_wait=1.0, p_catch=math.nan)

    @pytest.mark.parametrize(
        "args, field",
        [((True, 1, 0.5), "d1"), ((0, 1, True), "p_catch"), ((0, "3", 0), "t_wait")],
    )
    def test_boolean_or_string_rejected(self, args, field):
        # a string wait used to pass its float check and fail later in arithmetic
        with pytest.raises(ValueError, match=field):
            WalkAndWaitPlan(*args)

    def test_ints_and_numpy_floats_accepted(self):
        plan = WalkAndWaitPlan(np.int64(0), np.float64(3.0), 0)
        assert expected_tt_plan(S0, Uniform(30), plan) == expected_tt(S0, Uniform(30), 3.0)

    def test_unbounded_wait_at_origin_is_wait_forever(self):
        plan = WalkAndWaitPlan(d1=0.0, t_wait=math.inf, p_catch=0.0)
        for model in (Uniform(30.0), Exponential(1.0 / 17.0)):
            assert expected_tt_plan(S0, model, plan) == expected_tt_wait_forever(S0, model)

    def test_unbounded_wait_after_walking(self):
        # wait forever, plus (1 - p_catch) * (t_delta F(t1) - M1(t1)) for the
        # buses that pass uncaught on the way: 21 + 0.5 * (24 * 0.4 - 2.4)
        plan = WalkAndWaitPlan(d1=d1_for_t1(S0, 12.0), t_wait=math.inf, p_catch=0.5)
        assert expected_tt_plan(S0, Uniform(30.0), plan) == pytest.approx(24.6, abs=1e-12)

    def test_no_walking_is_expected_tt_exactly(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            scenario = random_scenario(rng)
            model = random_model(rng)
            w = float(rng.uniform(0.0, 40.0))
            plan = WalkAndWaitPlan(d1=0.0, t_wait=w, p_catch=float(rng.uniform()))
            assert expected_tt_plan(scenario, model, plan) == expected_tt(scenario, model, w)
            assert plan_gradient_tw(scenario, model, plan) == expected_tt_gradient(
                scenario, model, w
            )


class TestVigilantCatchProbability:
    @pytest.mark.parametrize("p_catch", [True, False, "0.5", None, math.nan, -0.1, 1.5])
    def test_rejected(self, p_catch):
        for function in (expected_tt_walk_vigilant, walk_vs_wait_advantage):
            with pytest.raises(ValueError, match="p_catch"):
                function(S0, Uniform(30.0), p_catch)

    def test_ints_and_numpy_floats_accepted(self):
        for function in (expected_tt_walk_vigilant, walk_vs_wait_advantage):
            want = function(S0, Uniform(30.0), 1.0)
            assert function(S0, Uniform(30.0), 1) == function(S0, Uniform(30.0), np.float64(1.0)) == want
