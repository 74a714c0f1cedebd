"""Expected travel time functional and its derivative in the wait."""

import math
import re

import numpy as np
import pytest

from walkwait import (
    ArrivalModel,
    Exponential,
    LateBusMixture,
    Scenario,
    Uniform,
    WaitForever,
    WalkAndWaitPlan,
    expected_tt,
    expected_tt_curve,
    expected_tt_plan,
)

from _models import (
    ALL_MODELS,
    CountingLateBus,
    CountingUniform,
    QuadExponential,
    QuadLateBus,
    QuadUniform,
    e_prime,
    random_model,
    random_scenario,
    smooth_time,
)

S0 = Scenario(d=3.0, v_w=0.1, v_b=0.5)


class TestScenario:
    def test_t_delta_direct(self):
        assert S0.t_delta == pytest.approx(24.0)

    def test_t_delta_small(self):
        assert Scenario(d=2.0, v_w=1.0, v_b=2.0).t_delta == pytest.approx(1.0)

    def test_equal_speed_limit(self):
        eps = 1e-9
        s = Scenario(d=1.0, v_w=0.1, v_b=0.1 + eps)
        assert 0.0 < s.t_delta < 1e-5

    def test_derived_quantities(self):
        assert S0.walk_time == pytest.approx(30.0)
        assert S0.bus_time == pytest.approx(6.0)
        assert S0.q == pytest.approx(8.0)

    def test_bus_must_be_faster(self):
        with pytest.raises(ValueError):
            Scenario(d=1.0, v_w=0.2, v_b=0.1)

    @pytest.mark.parametrize(
        "args, rule",
        [
            # d/v_b rounds to d/v_w, so t_delta is 0: optimal_policy divided by it
            ((5e-324, 1.0, 1.5), "t_delta = d/v_w - d/v_b"),
            # d/v_w and d/v_b overflow, so t_delta is inf - inf = nan
            ((1e300, 1e-10, 1e-9), "t_delta = d/v_w - d/v_b"),
            # 1/v_w overflows while t_delta is 1e10
            ((1e-300, 1e-310, 1.0), "q = 1/v_w - 1/v_b"),
        ],
    )
    def test_journey_rule_holds_where_v_w_below_v_b_does(self, args, rule):
        with pytest.raises(ValueError, match=re.escape(f"{rule} must be positive and finite")):
            Scenario(*args)

    def test_journey_worked_out_once_and_left_out_of_repr_and_equality(self):
        s = Scenario(d=3, v_w=0.1, v_b=0.5)
        assert (s.walk_time, s.bus_time, s.t_delta, s.q) == (
            3 / 0.1, 3 / 0.5, 3 / 0.1 - 3 / 0.5, 1.0 / 0.1 - 1.0 / 0.5)
        assert repr(s) == "Scenario(d=3.0, v_w=0.1, v_b=0.5)"
        assert s == S0 and hash(s) == hash(S0)
        with pytest.raises(TypeError):
            Scenario(3.0, 0.1, 0.5, 30.0)


class TestExpectedTT:
    def test_zero_wait_is_walking(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            scenario = random_scenario(rng)
            model = random_model(rng)
            assert expected_tt(scenario, model, 0.0) == scenario.walk_time

    def test_uniform_closed_form_value(self):
        assert expected_tt(S0, Uniform(30.0), 6.0) == pytest.approx(30.6, abs=1e-12)

    def test_uniform_quadrature_agrees_with_closed(self):
        model, twin = Uniform(30.0), QuadUniform(30.0)
        assert type(model).partial_mean is not ArrivalModel.partial_mean
        for w in (0.0, 3.0, 6.0, 17.5, 29.0, 45.0):
            closed = expected_tt(S0, model, w)
            quad = expected_tt(S0, twin, w)
            assert quad == pytest.approx(closed, abs=1e-10)

    def test_exponential_quadrature_agrees_with_closed(self):
        model, twin = Exponential(1.0 / 17.0), QuadExponential(1.0 / 17.0)
        assert type(model).partial_mean is not ArrivalModel.partial_mean
        for w in (0.0, 2.0, 10.0, 40.0, 200.0):
            closed = expected_tt(S0, model, w)
            quad = expected_tt(S0, twin, w)
            assert quad == pytest.approx(closed, abs=1e-10)

    def test_exponential_flat_at_break_even_rate(self):
        model = Exponential(1.0 / 24.0)
        for w in np.linspace(0.0, 120.0, 50):
            assert expected_tt(S0, model, w) == pytest.approx(30.0, abs=1e-12)

    def test_beyond_support_equals_wait_forever(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            scenario = random_scenario(rng)
            model = random_model(rng, kinds=["uniform", "late_bus", "piecewise"])
            w = model.support_end + rng.uniform(0.0, 20.0)
            assert expected_tt(scenario, model, w) == pytest.approx(
                expected_tt(scenario, model, math.inf), abs=1e-9
            )

    def test_negative_wait_rejected(self):
        with pytest.raises(ValueError):
            expected_tt(S0, Uniform(30.0), -1.0)


class TestWaitForever:
    # strategy A is the wait W = inf, at the origin and as a plan
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_is_bus_time_plus_mean_bit_for_bit(self, model):
        want = S0.bus_time + model.mean()
        assert expected_tt(S0, model, math.inf) == want
        assert expected_tt_plan(S0, model, WaitForever()) == want

    def test_uniform_30(self):
        assert expected_tt(S0, Uniform(30.0), math.inf) == pytest.approx(21.0)

    def test_marginal_headway_matches_walk(self):
        assert expected_tt(S0, Uniform(48.0), math.inf) == pytest.approx(30.0)

    def test_exponential(self):
        assert expected_tt(S0, Exponential(1.0 / 24.0), math.inf) == pytest.approx(30.0)


class TestGradient:
    def test_stationary_at_headway_minus_t_delta(self):
        g = e_prime(S0, Uniform(30.0), 6.0)
        assert g == pytest.approx(0.0, abs=1e-12)
        fd = (
            expected_tt(S0, Uniform(30.0), 6.0 + 1e-4)
            - expected_tt(S0, Uniform(30.0), 6.0 - 1e-4)
        ) / 2e-4
        assert g == pytest.approx(fd, abs=1e-8)

    def test_negative_slope_value(self):
        assert e_prime(S0, Uniform(20.0), 10.0) == pytest.approx(-0.7)

    def test_exponential_break_even_vanishes(self):
        for w in (0.0, 5.0, 60.0):
            assert e_prime(S0, Exponential(1.0 / 24.0), w) == pytest.approx(0.0, abs=1e-15)

    def test_first_matches_finite_difference(self):
        rng = np.random.default_rng(10)
        h = 1e-4
        checked = 0
        while checked < 100:
            scenario = random_scenario(rng)
            model = random_model(rng)
            t = smooth_time(model, rng)
            if t < 2 * h:
                continue
            fd = (
                expected_tt(scenario, model, t + h)
                - expected_tt(scenario, model, t - h)
            ) / (2 * h)
            assert np.isclose(fd, e_prime(scenario, model, t), rtol=1e-5, atol=1e-9)
            checked += 1

    def test_stationarity_matches_appearance_rate_condition(self):
        # |dE/dW| ~ 0 at t implies lambda(t) = 1/t_delta there
        rng = np.random.default_rng(30)
        for _ in range(50):
            scenario = random_scenario(rng)
            model = random_model(rng)
            t = smooth_time(model, rng)
            if abs(e_prime(scenario, model, t)) < 1e-12:
                residual = abs(
                    model.appearance_rate(t) - 1.0 / scenario.t_delta
                ) * model.survival(t)
                assert residual < 1e-10


class TestInputValidation:
    def test_nan_wait_rejected(self):
        with pytest.raises(ValueError):
            expected_tt(S0, Uniform(30.0), math.nan)

    @pytest.mark.parametrize(
        "args",
        [(math.inf, 0.1, 0.5), (math.nan, 0.1, 0.5), (3.0, math.nan, 0.5), (3.0, 0.1, math.inf),
         (True, 0.1, 0.5), (3.0, "0.1", 0.5)],
    )
    def test_non_finite_scenario_rejected(self, args):
        with pytest.raises(ValueError):
            Scenario(*args)


class TestOneWaitRule:
    # a wait is a number >= 0, where inf waits forever: the scalars, a plan
    # and every curve row check it alike
    @pytest.mark.parametrize("wait", [True, "5"])
    def test_scalars_reject_what_a_plan_rejects(self, wait):
        with pytest.raises(ValueError, match="t_wait"):
            WalkAndWaitPlan(0, wait, 0)
        with pytest.raises(ValueError, match="wait time"):
            expected_tt(S0, Uniform(30.0), wait)

    @pytest.mark.parametrize("wait", [True, "5", math.nan, -1.0])
    def test_every_curve_row_is_checked(self, wait):
        # a NaN row used to come back as the wait-forever row (nan, 21.0, 0.0)
        with pytest.raises(ValueError, match="wait time"):
            expected_tt_curve(S0, Uniform(30.0), [1.0, wait, 2.0])

    @pytest.mark.parametrize(
        "model", [Uniform(30.0), Exponential(0.05), LateBusMixture(0.25, 4.0, 56.0)]
    )
    def test_rows_in_any_order_are_the_scalars(self, model):
        waits = [math.inf, 70.0, 30.0, 4.0, 2.5, 0.5, 0.0, 12.0]
        # E' = R - t_delta p, from the model's own lookup
        slopes = [model.at(w)[2] - S0.t_delta * model.at(w)[0] for w in waits]
        assert expected_tt_curve(S0, model, waits) == [
            (w, expected_tt(S0, model, w), g) for w, g in zip(waits, slopes)
        ]


class TestRoutes:
    def test_late_bus_closed_agrees_with_quadrature(self):
        model, twin = LateBusMixture(0.25, 4.0, 56.0), QuadLateBus(0.25, 4.0, 56.0)
        assert type(model).partial_mean is not ArrivalModel.partial_mean
        for w in (0.0, 2.0, 4.0, 30.0, 57.0, 70.0):
            closed = expected_tt(S0, model, w)
            quad = expected_tt(S0, twin, w)
            assert quad == pytest.approx(closed, abs=1e-10)

    def test_exponential_tiny_rate_is_walking_after_the_wait(self):
        # 1/rate is 1e300 here; a form that adds and subtracts it loses the
        # whole walk
        model = Exponential(rate=1e-300)
        for w in (1.0, 12.0, 1000.0):
            assert expected_tt(S0, model, w) == S0.walk_time + w


class TestOneLookupPerTime:
    @pytest.mark.parametrize(
        "model", [CountingUniform(30.0), CountingLateBus(0.25, 4.0, 56.0)]
    )
    def test_expected_tt_and_its_gradient_each_look_up_once(self, model):
        counter = type(model)
        for w in (0.5, 2.0, 4.0, 12.0, 30.0, 70.0):
            counter.lookups = 0
            expected_tt(S0, model, w)
            assert counter.lookups == 1
            expected_tt_curve(S0, model, [w])
            assert counter.lookups == 2
