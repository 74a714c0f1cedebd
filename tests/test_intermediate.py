"""Walk-and-wait plans, vigilant walking, and catch-probability thresholds."""

import math
from fractions import Fraction

import numpy as np
import pytest

from walkwait import (
    Exponential,
    LateBusMixture,
    PiecewiseLinearDensity,
    Scenario,
    Uniform,
    WalkAndWaitPlan,
    expected_tt,
    expected_tt_curve,
    expected_tt_plan,
    plan_curve_d1,
    plan_gradient_tw,
    vigilant_curve,
    vigilant_threshold,
)
from walkwait.arrivals import TIE_TOL

from _models import (
    Triangle,
    advantage,
    d1_slope,
    near_kink,
    random_model,
    random_scenario,
    uniform_pc_threshold,
)

S0 = Scenario(d=3.0, v_w=0.1, v_b=0.5)


def d1_for_t1(scenario, t1):
    """Walking distance that erodes exactly t1 minutes of head start."""
    return t1 / scenario.q


class TestProbMiss:
    # the probability that the bus passes before the stop is reached, F(t1)
    def test_uniform_value(self):
        plan = WalkAndWaitPlan(d1=d1_for_t1(S0, 12.0), t_wait=0.0, p_catch=0.0)
        assert Uniform(30.0).cdf(plan.t1(S0)) == pytest.approx(0.4)

    def test_no_walking_no_miss(self):
        plan = WalkAndWaitPlan(d1=0.0, t_wait=5.0, p_catch=0.5)
        assert Uniform(30.0).cdf(plan.t1(S0)) == 0.0

    def test_exponential_closed_form(self):
        plan = WalkAndWaitPlan(d1=S0.d, t_wait=0.0, p_catch=0.0)  # t1 = 24
        assert Exponential(1.0 / 24.0).cdf(plan.t1(S0)) == pytest.approx(
            1.0 - math.exp(-1.0)
        )

    # every entry that prices a plan meets the journey rule where t1 is formed
    @pytest.mark.parametrize(
        "price",
        [lambda scenario, _, plan: plan.t1(scenario),
         lambda scenario, model, plan: model.cdf(plan.t1(scenario)), expected_tt_plan,
         plan_gradient_tw, d1_slope],
        ids=["t1", "prob_miss", "expected_tt_plan", "plan_gradient_tw", "plan_curve_d1"],
    )
    def test_d1_beyond_journey_rejected(self, price):
        plan = WalkAndWaitPlan(d1=4.0, t_wait=0.0, p_catch=0.0)
        with pytest.raises(ValueError, match="^d1 cannot exceed the journey distance$"):
            price(S0, Uniform(30.0), plan)


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
                vigilant_curve(scenario, model, [pc])[0][1], abs=1e-9
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
            want = expected_tt_curve(scenario, model, [w])[0][2]
            assert got == pytest.approx(want, abs=1e-14)

    def test_uniform_offset_value(self):
        # t1 = 12 on a 30-minute headway: R(12) - 12 * p(12) = 0.6 - 0.4
        plan = WalkAndWaitPlan(d1=d1_for_t1(S0, 12.0), t_wait=0.0, p_catch=0.0)
        assert plan_gradient_tw(S0, Uniform(30.0), plan) == pytest.approx(0.2)

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
            if near_kink(model, t, 1e-2) or model.survival(t) < 1e-6:
                continue
            fd = (
                expected_tt_plan(
                    scenario, model, WalkAndWaitPlan(d1, w + h, plan.p_catch)
                )
                - expected_tt_plan(
                    scenario, model, WalkAndWaitPlan(d1, w - h, plan.p_catch)
                )
            ) / (2 * h)
            assert np.isclose(fd, plan_gradient_tw(scenario, model, plan), rtol=1e-5, atol=1e-8)
            checked += 1
        # at d1 = d the walk ends the journey, so E does not vary with the wait
        for model in (Uniform(30.0), Exponential(1.0 / 24.0), LateBusMixture(0.25, 4.0, 56.0)):
            fd = (
                expected_tt_plan(S0, model, WalkAndWaitPlan(S0.d, 4.0 + h, 0.8))
                - expected_tt_plan(S0, model, WalkAndWaitPlan(S0.d, 4.0 - h, 0.8))
            ) / (2 * h)
            assert fd == plan_gradient_tw(S0, model, WalkAndWaitPlan(S0.d, 4.0, 0.8)) == 0.0


class TestPlanGradientD1:
    def test_vanishes_without_catching(self):
        plan = WalkAndWaitPlan(d1=1.0, t_wait=0.0, p_catch=0.0)
        assert d1_slope(S0, Uniform(30.0), plan) == 0.0

    def test_negative_when_catching_possible(self):
        plan = WalkAndWaitPlan(d1=1.0, t_wait=0.0, p_catch=0.5)
        assert d1_slope(S0, Uniform(30.0), plan) < 0.0

    def test_positive_when_waiting_past_support(self):
        plan = WalkAndWaitPlan(d1=1.0, t_wait=40.0, p_catch=0.5)  # t1 + 40 > 30
        assert d1_slope(S0, Uniform(30.0), plan) > 0.0

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
            if near_kink(model, t1, 1e-2) or near_kink(model, t1 + w, 1e-2):
                continue
            fd = (
                expected_tt_plan(scenario, model, WalkAndWaitPlan(d1 + h, w, pc))
                - expected_tt_plan(scenario, model, WalkAndWaitPlan(d1 - h, w, pc))
            ) / (2 * h)
            grad = d1_slope(scenario, model, plan)
            assert np.isclose(fd, grad, rtol=1e-4, atol=1e-7)
            checked += 1


class TestPlanCurveD1:
    # the last d1 lies in the journey, an earlier one does not
    @pytest.mark.parametrize(
        "d1s, message",
        [
            ([5.0, 3.0], "d1 cannot exceed the journey distance"),
            ([2.0, -1.0, 1.0], "d1 must be nonnegative and finite"),
        ],
    )
    def test_every_rows_plan_checked(self, d1s, message):
        with pytest.raises(ValueError, match=message):
            plan_curve_d1(S0, Uniform(30.0), d1s, 0.0, 0.5)

    # a sweep with no rows still fails as its plan would
    @pytest.mark.parametrize(
        "t_wait, p_catch, message",
        [
            (math.nan, 5.0, "t_wait must be nonnegative"),
            (-1.0, 0.5, "t_wait must be nonnegative"),
            (4.0, 5.0, r"p_catch must lie in \[0, 1\]"),
            (4.0, True, "p_catch"),
        ],
    )
    def test_no_rows_checks_the_shared_inputs(self, t_wait, p_catch, message):
        with pytest.raises(ValueError, match=message):
            plan_curve_d1(S0, Uniform(30.0), [], t_wait, p_catch)
        with pytest.raises(ValueError, match=message):
            expected_tt_plan(S0, Uniform(30.0), WalkAndWaitPlan(1.0, t_wait, p_catch))

    def test_no_rows_with_good_inputs_is_empty(self):
        assert plan_curve_d1(S0, Uniform(30.0), [], math.inf, 0.5) == []

    def test_a_rows_d1_is_checked_before_the_shared_inputs(self):
        with pytest.raises(ValueError, match="d1 must be nonnegative"):
            plan_curve_d1(S0, Uniform(30.0), [-1.0], math.nan, 5.0)


class TestPlanCurveRows:
    # each row is checked as its plan is, with the plan's message
    @pytest.mark.parametrize("d1", [math.nan, True, "1", math.inf, 4.0])
    def test_every_row_fails_as_its_plan_does(self, d1):
        with pytest.raises(ValueError) as plan:
            expected_tt_plan(S0, Uniform(30.0), WalkAndWaitPlan(d1, 4.0, 0.5))
        with pytest.raises(ValueError, match="d1") as row:
            plan_curve_d1(S0, Uniform(30.0), [1.0, d1, 2.0], 4.0, 0.5)
        assert str(row.value) == str(plan.value)

    @pytest.mark.parametrize("t_wait", [0.0, 2.5, math.inf])
    @pytest.mark.parametrize(
        "model",
        [
            Uniform(30.0),
            LateBusMixture(0.25, 4.0, 56.0),
            PiecewiseLinearDensity([[0, 0], [10, 0], [10, 1], [12, 1], [12, 0.01], [200, 0.01]]),
        ],
    )
    def test_rows_in_any_order_are_the_scalars(self, model, t_wait):
        d1s = [3.0, 2.0, 1.25, 0.5, 0.0, 1.0]
        rows = plan_curve_d1(S0, model, d1s, t_wait, 0.3)
        assert [row[0] for row in rows] == d1s
        for d1, (_, e, slope) in zip(d1s, rows):
            plan = WalkAndWaitPlan(d1, t_wait, 0.3)
            assert e == expected_tt_plan(S0, model, plan)
            assert slope == d1_slope(S0, model, plan)

    def test_slope_is_the_papers_expression_bit_for_bit(self):
        # q^2 (d - d1) ((1 - p_catch) p(t1) - p(T)), from two density lookups,
        # and +0.0 at d1 = d, the limit from below
        rng = np.random.default_rng(21)
        for _ in range(300):
            scenario, model = random_scenario(rng), random_model(rng)
            d1 = float(rng.choice([0.0, scenario.d, rng.uniform(0.0, scenario.d)]))
            t_wait = float(rng.choice([0.0, math.inf, rng.uniform(0.0, 60.0)]))
            p_catch = float(rng.choice([0.0, 1.0, rng.uniform()]))
            t1, q = d1 * scenario.q, scenario.q
            want = q * q * (scenario.d - d1) * (
                (1.0 - p_catch) * model.density(t1) - model.density(t1 + t_wait)
            ) if d1 < scenario.d else 0.0
            got = d1_slope(scenario, model, WalkAndWaitPlan(d1, t_wait, p_catch))
            assert got.hex() == want.hex()


class TestWalkVigilant:
    def test_no_catching_is_pure_walking(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            scenario = random_scenario(rng)
            model = random_model(rng)
            assert vigilant_curve(scenario, model, [0.0])[0][1] == pytest.approx(
                scenario.walk_time
            )

    @pytest.mark.parametrize("t_wait", [0.0, 4.0, math.inf])
    def test_a_plan_to_the_destination_is_the_vigilant_walk(self, t_wait):
        # the walk ends the journey at d, so a wait there is no wait: the plan
        # and its curve row price the vigilant walk bit for bit, the row's
        # slope is 0, its limit from below, and the slope in the wait is 0
        assert expected_tt_plan(S0, Uniform(30.0), WalkAndWaitPlan(3.0, t_wait, 0.8)) == 22.32
        rng = np.random.default_rng(38)
        for _ in range(200):
            scenario, model = random_scenario(rng), random_model(rng)
            p_catch = float(rng.choice([0.0, 1.0, rng.uniform()]))
            vigilant = vigilant_curve(scenario, model, [p_catch])[0][1]
            plan = WalkAndWaitPlan(scenario.d, t_wait, p_catch)
            assert expected_tt_plan(scenario, model, plan) == vigilant
            rows = plan_curve_d1(scenario, model, [scenario.d], t_wait, p_catch)
            assert rows == [(scenario.d, vigilant, 0.0)]
            assert math.copysign(1.0, rows[0][2]) == 1.0
            assert plan_gradient_tw(scenario, model, plan) == 0.0

    def test_uniform_long_headway(self):
        # walk - pc * t_delta^2 / (2 T) with T=36
        assert vigilant_curve(S0, Uniform(36.0), [1.0])[0][1] == pytest.approx(
            22.0, abs=1e-9
        )

    def test_uniform_short_headway(self):
        # walk - pc * (t_delta - T/2) with T=12
        assert vigilant_curve(S0, Uniform(12.0), [1.0])[0][1] == pytest.approx(
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
            walk = vigilant_curve(scenario, model, [p_catch])[0][1]
            assert plan == pytest.approx(24.26804, abs=1e-5)
            assert walk == pytest.approx(vigilant, abs=1e-3)
            assert (plan < walk) is (p_catch < 1.0)


class TestAdvantage:
    def test_uniform_example(self):
        assert advantage(S0, Uniform(36.0), 0.8) == pytest.approx(
            0.4, abs=1e-9
        )

    def test_short_headway_waiting_wins(self):
        # walking only ties at p_catch = 1, never strictly beats waiting
        assert advantage(S0, Uniform(12.0), 1.0) <= 1e-12
        for pc in (0.0, 0.5, 0.9, 0.999):
            assert advantage(S0, Uniform(12.0), pc) < 0.0

    def test_marginal_no_catch_is_a_tie(self):
        assert advantage(S0, Uniform(48.0), 0.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_two_formulas_agree(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            scenario = random_scenario(rng)
            model = random_model(rng)
            pc = rng.uniform(0.0, 1.0)
            walk = expected_tt_plan(scenario, model, WalkAndWaitPlan(scenario.d, 0.0, pc))
            direct = expected_tt(scenario, model, math.inf) - walk
            assert advantage(scenario, model, pc) == pytest.approx(
                direct, abs=1e-9
            )

    def test_nondecreasing_in_catch_probability(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            scenario = random_scenario(rng)
            model = random_model(rng)
            values = [
                advantage(scenario, model, pc)
                for pc in np.linspace(0.0, 1.0, 21)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("ratio", [1.25, 1.5, 1.75])
    def test_crossover_matches_threshold(self, ratio):
        model = Uniform(ratio * S0.t_delta)
        lo, hi = 0.0, 1.0
        assert advantage(S0, model, lo) < 0.0
        assert advantage(S0, model, hi) > 0.0
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if advantage(S0, model, mid) < 0.0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(
            uniform_pc_threshold(ratio), abs=1e-6
        )


class TestVigilantThreshold:
    """vigilant_threshold, the root of the line advantage(p_catch),
    with each end judged by the one tie rule."""

    def test_uniform_is_the_closed_form(self):
        rng = np.random.default_rng(34)
        for scenario in [S0] + [random_scenario(rng) for _ in range(20)]:
            td = scenario.t_delta
            for r in np.linspace(1.0, 2.0, 101)[1:-1]:
                threshold = vigilant_threshold(scenario, Uniform(r * td))
                assert abs(threshold - uniform_pc_threshold(r)) <= 1e-12, (scenario, r)
            for r in (2.0, 2.5, 10.0):
                assert vigilant_threshold(scenario, Uniform(r * td)) == 0.0, (scenario, r)
            for r in (0.1, 0.5, 0.8, 1.0):
                assert vigilant_threshold(scenario, Uniform(r * td)) is None, (scenario, r)

    def test_every_model_kind_is_the_root_of_the_advantage_line(self):
        rng = np.random.default_rng(35)
        kinds = ["uniform", "exponential", "late_bus", "piecewise"]
        interior = 0
        for i in range(400):
            scenario = random_scenario(rng)
            model = Triangle() if i % 5 == 0 else random_model(rng, [kinds[i % 4]])
            td = scenario.t_delta
            threshold = vigilant_threshold(scenario, model)
            if advantage(scenario, model, 0.0) >= -TIE_TOL * td:
                assert threshold == 0.0, (scenario, model)
            elif advantage(scenario, model, 1.0) <= TIE_TOL * td:
                assert threshold is None, (scenario, model)
            else:
                lo, hi = 0.0, 1.0
                while hi - lo > 1e-11:
                    mid = 0.5 * (lo + hi)
                    if advantage(scenario, model, mid) < 0.0:
                        lo = mid
                    else:
                        hi = mid
                assert abs(threshold - 0.5 * (lo + hi)) <= 1e-9, (scenario, model)
                interior += 1
        assert interior >= 80

    def test_walking_that_only_ties_at_full_catch_is_none(self):
        # Uniform(t_delta): the advantage at p_catch 1 is 0.0, a tie, as at
        # ratio 0.8; the closed form answers 1.0 there
        assert advantage(S0, Uniform(24.0), 1.0) == 0.0
        assert vigilant_threshold(S0, Uniform(24.0)) is None
        assert uniform_pc_threshold(1.0) == 1.0
        # just above it walking wins at p_catch 1 by t_delta (r - 1)^2 / 2r:
        # within TIE_TOL t_delta that is still a tie, beyond it a root near 1
        for r, tied in [(1 + 1e-7, True), (1 + 1e-6, True), (1 + 1e-5, False)]:
            saved = advantage(S0, Uniform(r * 24.0), 1.0)
            assert (saved <= TIE_TOL * 24.0) == tied, r
            threshold = vigilant_threshold(S0, Uniform(r * 24.0))
            assert threshold is None if tied else 1.0 - 1e-9 < threshold < 1.0, r


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
            assert expected_tt_plan(S0, model, plan) == S0.bus_time + model.mean()

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
            assert plan_gradient_tw(scenario, model, plan) == expected_tt_curve(
                scenario, model, [w]
            )[0][2]


class TestVigilantCatchProbability:
    # the vigilant walk's price by its two routes, the one-row curve and the
    # plan (d, 0, p_catch), and its advantage over waiting forever
    ROUTES = (lambda s, m, p: vigilant_curve(s, m, [p])[0][1],
              lambda s, m, p: expected_tt_plan(s, m, WalkAndWaitPlan(s.d, 0.0, p)), advantage)

    @pytest.mark.parametrize("p_catch", [True, False, "0.5", None, math.nan, -0.1, 1.5])
    def test_rejected(self, p_catch):
        for function in self.ROUTES:
            with pytest.raises(ValueError, match="p_catch"):
                function(S0, Uniform(30.0), p_catch)

    def test_ints_and_numpy_floats_accepted(self):
        for function in self.ROUTES:
            want = function(S0, Uniform(30.0), 1.0)
            assert function(S0, Uniform(30.0), 1) == function(S0, Uniform(30.0), np.float64(1.0)) == want
        # a row holds the checked float, not the caller's object
        for p in (1, np.float32(0.3), Fraction(3, 10)):
            (row,) = vigilant_curve(S0, Uniform(30.0), [p])
            assert [type(v) for v in row] == [float] * 3
            assert row == vigilant_curve(S0, Uniform(30.0), [float(p)])[0]
