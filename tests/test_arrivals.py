"""Arrival-model contracts: densities, survival, appearance rates, sampling."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from walkwait import (
    ArrivalModel,
    Exponential,
    LateBusMixture,
    PiecewiseLinearDensity,
    Scenario,
    UndefinedRateError,
    Uniform,
    WaitForever,
    WaitThenWalk,
    WalkAndWaitPlan,
    classify_uniform,
    compare_wait_walk,
    estimate,
    expected_tt,
    expected_tt_plan,
    find_stationary_points,
    model_from_config,
    optimal_policy,
    plan_gradient_tw,
)

from walkwait.arrivals import _LinearDensity

from _models import ALL_MODELS, Triangle, jumpy_knots, near_kink, random_model

def grid_integral(f, a, b, n=200_001, breakpoints=()):
    """Trapezoid oracle, split at density jumps and nudged off the edges."""
    cuts = [a] + sorted(t for t in breakpoints if a < t < b) + [b]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        pts = max(n // len(cuts), 1001)
        xs = np.linspace(lo + 1e-9, hi - 1e-9, pts)
        total += np.trapezoid([f(x) for x in xs], xs)
    return total


class TestDensity:
    def test_uniform_inside_support(self):
        assert Uniform(30.0).density(10.0) == pytest.approx(1.0 / 30.0)

    def test_uniform_outside_support(self):
        assert Uniform(30.0).density(35.0) == 0.0

    def test_piecewise_normalized_interpolation(self):
        model = PiecewiseLinearDensity([(0.0, 0.4), (4.0, 0.1), (4.0, 0.0)])
        # raw trapezoid mass is exactly 1, so knots are unchanged
        assert model.density(2.0) == pytest.approx(0.25)
        assert grid_integral(model.density, 0.0, 4.0) == pytest.approx(1.0, abs=1e-9)

    def test_piecewise_rescales_unnormalized_knots(self):
        model = PiecewiseLinearDensity([(0.0, 0.8), (4.0, 0.2), (4.0, 0.0)])
        assert model.density(2.0) == pytest.approx(0.25)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Uniform(30.0).density(-1.0)


class TestSurvival:
    def test_uniform_value(self):
        assert Uniform(30.0).survival(6.0) == pytest.approx(0.8)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_no_mass_before_zero(self, model):
        assert model.survival(0.0) == pytest.approx(1.0)

    def test_exponential_closed_form(self):
        assert Exponential(1.0 / 24.0).survival(24.0) == pytest.approx(math.exp(-1.0))

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_matches_density_integral(self, model):
        rng = np.random.default_rng(5)
        end = min(model.quad_bound(), 120.0)
        times = rng.uniform(0.0, end, 100)
        # one cumulative trapezoid on a grid with steps of at most end/40,000
        # that holds every test time and both sides of each breakpoint
        inner = [b for b in model.breakpoints() if 0.0 < b < end]
        xs = np.unique(np.concatenate(
            [np.linspace(0.0, end, 40_001), times, inner, np.subtract(inner, 1e-9)]))
        ys = np.array([model.density(x) for x in xs])
        mass = np.concatenate([[0.0], np.cumsum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0)])
        for t in times:
            expected = 1.0 - mass[np.searchsorted(xs, t)]
            assert model.survival(t) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_non_increasing(self, model):
        ts = np.linspace(0.0, model.quad_bound(), 500)
        values = [model.survival(t) for t in ts]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Exponential(0.05).survival(-0.1)


class TestAppearanceRate:
    def test_uniform_midpoint(self):
        assert Uniform(30.0).appearance_rate(15.0) == pytest.approx(1.0 / 15.0)

    def test_uniform_at_zero(self):
        assert Uniform(30.0).appearance_rate(0.0) == pytest.approx(1.0 / 30.0)

    def test_exponential_constant(self):
        model = Exponential(0.05)
        for t in (0.0, 3.0, 70.0):
            assert model.appearance_rate(t) == 0.05

    def test_undefined_beyond_support(self):
        with pytest.raises(UndefinedRateError):
            Uniform(30.0).appearance_rate(30.0)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_rate_times_survival_is_density(self, model):
        for t in np.linspace(0.0, model.quad_bound() * 0.99, 200):
            r = model.survival(t)
            if r > 1e-12:
                assert model.appearance_rate(t) * r == pytest.approx(
                    model.density(t), abs=1e-13
                )

    def test_uniform_strictly_increasing(self):
        model = Uniform(30.0)
        ts = np.linspace(0.0, 30.0, 1002)[1:-1]
        rates = [model.appearance_rate(t) for t in ts]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("w", [0.25, 0.7])
    def test_late_bus_rate_falls_over_the_window_only_for_small_w(self, w):
        # falling rate over the late window needs a small enough
        # still-coming probability; w=0.7 actually rises at t=1
        model = LateBusMixture(still_coming_prob=w, late_window=4.0, next_headway_offset=25.0)
        h = 1e-6
        fd = (model.appearance_rate(1.0 + h) - model.appearance_rate(1.0 - h)) / (2 * h)
        assert (fd < 0) == (w == 0.25)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_is_minus_the_slope_of_log_survival_everywhere_smooth(self, model):
        # lambda = p / R = -d/dt log R: the density the rate reads is the
        # slope of the survival it divides by
        rng = np.random.default_rng(11)
        end = min(model.quad_bound(), 100.0)
        h = 1e-6
        checked = 0
        for _ in range(30):
            t = rng.uniform(h, end)
            if model.survival(t) < 1e-3 or near_kink(model, t, 1e-3):
                continue
            fd = -(math.log(model.survival(t + h)) - math.log(model.survival(t - h))) / (2 * h)
            assert model.appearance_rate(t) == pytest.approx(fd, rel=1e-5, abs=1e-9)
            checked += 1
        assert checked >= 10


class TestMean:
    def test_uniform(self):
        assert Uniform(30.0).mean() == pytest.approx(15.0)

    def test_exponential(self):
        assert Exponential(1.0 / 24.0).mean() == pytest.approx(24.0)

    def test_late_bus_closed_form(self):
        model = LateBusMixture(still_coming_prob=0.25, late_window=4.0, next_headway_offset=56.0)
        expected = 0.25 * 4.0 / 3.0 + 0.75 * (56.0 + 2.0)
        assert model.mean() == pytest.approx(expected)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_matches_quadrature(self, model):
        expected = grid_integral(
            lambda t: t * model.density(t),
            0.0,
            min(model.quad_bound(), 2000.0),
            breakpoints=model.breakpoints(),
        )
        assert model.mean() == pytest.approx(expected, abs=1e-5)


class TestMassNormalization:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_density_integrates_to_one(self, model):
        total = grid_integral(
            model.density, 0.0, min(model.quad_bound(), 2000.0), breakpoints=model.breakpoints()
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_all_zero_knots_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLinearDensity([(0.0, 0.0), (5.0, 0.0)])

    def test_subnormal_mass_fails_the_mass_rule(self):
        # the knots' mass, 1e-320, is subnormal: its few significant bits
        # leave the normalized table's mass off one by about 1e-5
        with pytest.raises(ValueError) as info:
            PiecewiseLinearDensity([(0, 1e-200), (2e-120, 0)])
        assert str(info.value).startswith("knot densities do not normalize to a mass of one")

    def test_piecewise_repr_lists_the_normalized_knots(self):
        assert repr(PiecewiseLinearDensity([[0, 2], [1, 2], [1, 0], [3, 0]])) == (
            "PiecewiseLinearDensity([(0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (3.0, 0.0)])"
        )


class TestSampling:
    def test_uniform_mean_within_three_stderr(self):
        rng = np.random.default_rng(42)
        draws = Uniform(30.0).sample(rng, 10**6)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 15.0) < 3.0 * se

    def test_exponential_survival_within_three_stderr(self):
        rng = np.random.default_rng(43)
        draws = Exponential(1.0 / 24.0).sample(rng, 10**6)
        frac = (draws > 24.0).mean()
        se = math.sqrt(frac * (1 - frac) / draws.size)
        assert abs(frac - math.exp(-1.0)) < 3.0 * se

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_same_seed_same_sequence(self, model):
        a = model.sample(np.random.default_rng(7), 1000)
        b = model.sample(np.random.default_rng(7), 1000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_kolmogorov_smirnov(self, model):
        n = 10**5
        draws = np.sort(np.asarray(model.sample(np.random.default_rng(99), n)))
        cdf = np.array([model.cdf(x) for x in draws])
        empirical_hi = np.arange(1, n + 1) / n
        empirical_lo = np.arange(0, n) / n
        statistic = max(np.max(empirical_hi - cdf), np.max(cdf - empirical_lo))
        # Kolmogorov critical value at significance 0.001
        critical = math.sqrt(-0.5 * math.log(0.0005)) / math.sqrt(n)
        assert statistic < critical

    @pytest.mark.parametrize("seed", range(5))
    def test_draws_are_numpys_scaled_draws(self, seed):
        # sample skips numpy's scaled-distribution loop, with the same draws
        # and the generator left in the same state
        for model, numpy_draw in (
            (Uniform(30.0), lambda rng, n: rng.uniform(0.0, 30.0, n)),
            (Exponential(0.07), lambda rng, n: rng.exponential(1.0 / 0.07, n)),
        ):
            for size in (1, 70_000):
                ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
                drawn = model.sample(ours, size)
                expected = numpy_draw(numpys, size)
                assert type(drawn) is type(expected)
                assert np.array_equal(drawn, expected)
                assert ours.bit_generator.state == numpys.bit_generator.state

    def test_random_models_sane(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = random_model(rng)
            total = grid_integral(
                model.density, 0.0, min(model.quad_bound(), 2000.0), 50_001,
                model.breakpoints(),
            )
            assert total == pytest.approx(1.0, abs=1e-6)


class TestConstructionErrors:
    def test_bad_uniform(self):
        with pytest.raises(ValueError):
            Uniform(headway=0.0)

    def test_bad_exponential(self):
        with pytest.raises(ValueError):
            Exponential(rate=-1.0)

    def test_bad_mixture_window(self):
        with pytest.raises(ValueError):
            LateBusMixture(still_coming_prob=0.5, late_window=4.0, next_headway_offset=3.0)

    def test_bad_mixture_weight(self):
        with pytest.raises(ValueError):
            LateBusMixture(still_coming_prob=1.5, late_window=4.0, next_headway_offset=25.0)

    @pytest.mark.parametrize(
        "knots", [None, 5, [[0, 1], 5], [[0, 1], [1]], [[0, 1], [1, 2, 3]], "ab"], ids=repr
    )
    def test_malformed_knots_rejected_naming_knots(self, knots):
        # each raised a bare unpacking TypeError or ValueError
        message = re.escape("knots must be a list of [time, density] pairs") + "$"
        with pytest.raises(ValueError, match=message):
            PiecewiseLinearDensity(knots)


class TestPartialMean:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_matches_quadrature_fallback(self, model):
        for t in (0.0, 1.0, 3.9, 4.0, 10.0, 24.0, 30.0, 57.5, 200.0):
            fallback = ArrivalModel.partial_mean(model, t)
            assert model.partial_mean(t) == pytest.approx(fallback, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_runs_from_zero_to_the_mean(self, model):
        assert model.partial_mean(0.0) == 0.0
        assert model.partial_mean(math.inf) == pytest.approx(model.mean(), rel=1e-15)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_nan_time_rejected(self, model):
        methods = (
            model.density,
            model.cdf,
            model.survival,
            model.partial_mean,
            model.appearance_rate,
            model.at,
        )
        for method in methods:
            for t in (math.nan, -1.0):
                with pytest.raises(ValueError):
                    method(t)


class TestPiecewiseMeanExact:
    def test_narrow_spikes_match_exact_rational_mean(self):
        # a narrow spike far from zero: the global-coordinate moment formula
        # cancels catastrophically in floating point, so the reference
        # evaluates it in exact rationals
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(200):
            centre = float(rng.uniform(100.0, 5000.0))
            width = float(rng.uniform(1e-4, 1e-2))
            peak = float(rng.uniform(10.0, 500.0))
            knots = [
                (0.0, 1e-3),
                (centre, 1e-3),
                (centre + width, peak),
                (centre + 2.0 * width, 1e-3),
                (1.5 * centre, 1e-3),
            ]
            exact = [(Fraction(t), Fraction(y)) for t, y in knots]
            mass = moment = Fraction(0)
            for (t0, y0), (t1, y1) in zip(exact, exact[1:]):
                slope = (y1 - y0) / (t1 - t0)
                a = y0 - slope * t0  # density = a + slope * t on the piece
                mass += (y0 + y1) / 2 * (t1 - t0)
                moment += a / 2 * (t1**2 - t0**2) + slope / 3 * (t1**3 - t0**3)
            reference = moment / mass
            got = Fraction(PiecewiseLinearDensity(knots).mean())
            worst = max(worst, float(abs(got - reference) / reference))
        assert worst < 1e-14


class TestNonFiniteRejected:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Uniform(math.inf),
            lambda: Uniform(math.nan),
            lambda: Exponential(math.inf),
            lambda: Exponential(math.nan),
            lambda: LateBusMixture(0.5, 4.0, math.inf),
            lambda: LateBusMixture(math.nan, 4.0, 25.0),
            lambda: PiecewiseLinearDensity([[0, 1], [math.nan, 1], [5, 1]]),
            lambda: PiecewiseLinearDensity([[0, 1], [5, math.inf]]),
            lambda: PiecewiseLinearDensity([[0, 1], [math.inf, 1]]),
            lambda: Uniform(True),
            lambda: Exponential(True),
            lambda: LateBusMixture(True, 4, 25),
            lambda: PiecewiseLinearDensity([[0, True], [1, 1]]),
            lambda: Uniform("30"),
            lambda: PiecewiseLinearDensity([[0, 1], ["5", 1]]),
        ],
    )
    def test_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize(
        "build, field",
        [
            # 1/headway overflows, and at 1e-308 the table's sum 2/headway does
            (lambda: Uniform(1e-310), "headway"),
            (lambda: Uniform(1e-308), "headway"),
            # the mass sum overflows
            (lambda: PiecewiseLinearDensity([[0, 1e300], [1e10, 1e300]]), "knot densities"),
            # a normalized density, or the table's sum of two, overflows
            (lambda: PiecewiseLinearDensity([[0, 1], [1e-310, 1]]), "knot densities"),
            (lambda: PiecewiseLinearDensity([[0, 1], [1e-308, 1]]), "knot densities"),
            # a table slope overflows: the triangular head's -2w/L^2, and the
            # sides of a narrow normalized peak
            (lambda: LateBusMixture(0.5, 1e-300, 2e-300), "late_window"),
            (lambda: PiecewiseLinearDensity([[0, 0], [1e-300, 1], [2e-300, 0]]), "knot densities"),
            # quad_bound() 40/rate overflows, with the mean 1/rate finite or not
            (lambda: Exponential(1e-310), "rate"),
            (lambda: Exponential(1e-308), "rate"),
            (lambda: Exponential(2.2e-307), "rate"),
        ],
    )
    def test_overflow_rejected_naming_the_field(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    def test_smallest_rate_answers_optimize(self):
        # just above 40 / DBL_MAX, where quad_bound(), the optimizer's search end, is finite
        model = Exponential(2.3e-307)
        assert math.isfinite(model.quad_bound())
        policy = optimal_policy(Scenario(3.0, 0.1, 0.5), model)
        assert (policy.strategy, policy.expected_tt) == ("walk_now", 30.0)

    def test_rounded_tail_rejected_naming_the_offset(self):
        # H + L rounds to 16 past H, which moves the mean from 1002.53 to
        # 1602.05; the tail's weight of 1e-14 hides that from the mass check
        with pytest.raises(ValueError, match="next_headway_offset"):
            LateBusMixture(1.0 - 1e-14, 10.0, 1e17)
        # a tail with no weight has no row, so its rounding moves nothing
        assert LateBusMixture(1.0, 10.0, 1e17).mean() == pytest.approx(10.0 / 3.0)

    def test_smallest_spans_accepted(self):
        for model in (Uniform(1.7e-308), PiecewiseLinearDensity([[0, 1], [1.7e-308, 1]])):
            assert model.mean() == 8.5e-309 and model.cdf(1.7e-308) == 1.0

    def test_ints_beyond_the_floats_read_as_inf(self):
        # float() raises OverflowError on them; a JSON config can hold one
        with pytest.raises(ValueError, match="headway must be positive and finite, got inf"):
            Uniform(10**400)
        with pytest.raises(ValueError, match="knot times and densities must be finite"):
            PiecewiseLinearDensity([[0, 1], [-10**400, 1]])

    def test_ints_and_numpy_floats_accepted(self):
        assert Uniform(30).cdf(15) == Uniform(np.float64(30.0)).cdf(15) == 0.5
        assert Exponential(np.float32(0.5)).mean() == 2.0
        # float32 holds 0.5 exactly, but not 0.1: the mean is that of the
        # float, compared as floats (a float32 compares in float32)
        assert float(Exponential(np.float32(0.1)).mean()) == 1.0 / float(np.float32(0.1))
        assert LateBusMixture(np.float64(0.25), 4, np.int64(56)).cdf(4) == 0.25
        assert PiecewiseLinearDensity([[0, 1], [np.float64(2.0), np.int64(1)]]).cdf(1) == 0.5


# each input type with a field rule, with inputs of whole and of fractional values
RULED_TYPES = [
    (Scenario, (3, 6, 30), (3.3, 0.1, 0.5)),
    (WalkAndWaitPlan, (2, 5, 1), (0.7, 2.5, 0.3)),
    (Uniform, (30,), (30.3,)),
    (Exponential, (2,), (1.0 / 24.0,)),
    (LateBusMixture, (1, 4, 56), (0.25, 4.1, 56.3)),
]
NUMBER_TYPES = [int, np.int64, np.float32, np.float64, Fraction]


class TestOneValuePerInput:
    """Each input type stores the float its rule returns, so an input's own
    type never reaches the arithmetic: a float32, an int or a Fraction gives
    the answers of the float it stands for, bit for bit."""

    @pytest.mark.parametrize("number", NUMBER_TYPES, ids=lambda t: t.__name__)
    @pytest.mark.parametrize("cls, whole, fractional", RULED_TYPES,
                             ids=[c.__name__ for c, _, _ in RULED_TYPES])
    def test_every_field_is_the_float_of_its_input(self, cls, whole, fractional, number):
        for values in (whole,) if number in (int, np.int64) else (whole, fractional):
            built = cls(*(number(v) for v in values))
            stored = [getattr(built, f.name) for f in dataclasses.fields(built) if f.init]
            assert [type(v) for v in stored] == [float] * len(values), (cls, number, values)
            assert stored == [float(number(v)) for v in values]
            # the derived values too: the tables and the journey times
            assert vars(built) == vars(cls(*(float(number(v)) for v in values)))

    def test_float32_rate_decides_as_its_float(self):
        scenario, rate = Scenario(3, 0.1, 0.5), np.float32(1.0 / 24.0)
        model, twin = Exponential(rate), Exponential(float(rate))
        for decide in (compare_wait_walk, find_stationary_points, optimal_policy):
            assert decide(scenario, model) == decide(scenario, twin), decide
        # the mean 24.0000005 beats t_delta = 24 beyond the tie rule's 2.4e-11
        assert compare_wait_walk(scenario, model) == "wait"
        policy = optimal_policy(scenario, model)
        assert (policy.strategy, policy.expected_tt) == ("wait_forever", 29.999999284744284)

    def test_float32_headway_classifies_as_its_float(self):
        # t_delta 24.000002: the float32 headway compared in float32 read as
        # case 2, while its float is below t_delta, case 1
        scenario, headway = Scenario(48.000004, 1.0, 2.0), np.float32(24.000002)
        assert classify_uniform(scenario, headway) == classify_uniform(scenario, float(headway))
        assert classify_uniform(scenario, headway) == "case1_wait"

    def test_float32_journey_and_plan_price_as_their_floats(self):
        model = LateBusMixture(0.25, 4.0, 56.0)
        values = (3.3, 0.1, 0.5)
        scenario = Scenario(*map(np.float32, values))
        twin = Scenario(*(float(np.float32(v)) for v in values))
        assert type(scenario.t_delta) is float
        for w in (0.0, 2.5, 10.0, 60.0, math.inf):
            assert expected_tt(scenario, model, w) == expected_tt(twin, model, w)
        plan = WalkAndWaitPlan(*map(np.float32, (0.7, 2.5, 0.3)))
        plan_twin = WalkAndWaitPlan(*(float(np.float32(v)) for v in (0.7, 2.5, 0.3)))
        assert expected_tt_plan(twin, model, plan) == expected_tt_plan(twin, model, plan_twin)
        assert estimate(twin, model, plan, 10_000, 3) == estimate(twin, model, plan_twin, 10_000, 3)

    def test_wait_beyond_the_floats_waits_forever(self):
        # 10**400 meets the time rule as inf: pricing it raised OverflowError
        scenario, model = Scenario(3.0, 0.1, 0.5), Uniform(30.0)
        plan = WalkAndWaitPlan(0, 10**400, 0)
        assert plan == WaitForever()
        assert expected_tt_plan(scenario, model, plan) == 21.0
        assert plan_gradient_tw(scenario, model, plan) == plan_gradient_tw(
            scenario, model, WaitForever())
        assert estimate(scenario, model, plan, 1000, 0) == estimate(
            scenario, model, WaitForever(), 1000, 0)

    def test_rate_names_a_time_beyond_the_floats(self):
        # the time rule reads 10**400 as inf, where the error message's
        # float(t) raised OverflowError
        with pytest.raises(UndefinedRateError, match="survival is zero at t=inf"):
            Uniform(30.0).appearance_rate(10**400)


class TestModelFromConfig:
    @pytest.mark.parametrize(
        "config, message",
        [
            ({"kind": "uniform"}, "missing uniform field headway; it takes only headway"),
            (
                {"kind": "late_bus_mixture", "still_coming_prob": 0.5, "late_window": 4},
                "missing late_bus_mixture field next_headway_offset; it takes only"
                " still_coming_prob, late_window, next_headway_offset",
            ),
            # an unknown field is named first, by the same rule
            ({"kind": "uniform", "head_way": 20},
             "unknown uniform field head_way; it takes only headway"),
        ],
    )
    def test_missing_or_unknown_field_named(self, config, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            model_from_config(config)


# every bundled kind and a subclass on the base-class routes, each with t = 5
# inside its support, where every time method has a value
TIME_MODELS = [
    Uniform(30.0),
    Exponential(1.0 / 24.0),
    LateBusMixture(0.25, 4.0, 56.0),
    PiecewiseLinearDensity([(0.0, 0.0), (5.0, 1.0), (12.0, 0.2), (20.0, 0.0)]),
    Triangle(),
]
TIME_METHODS = ("at", "density", "cdf", "survival", "appearance_rate", "partial_mean")


class TestOneTimeRule:
    """Every public time method checks its time by the rule of a wait: a
    number >= 0, where booleans, strings, bytes, None and NaN are rejected."""

    @pytest.mark.parametrize("method", TIME_METHODS)
    @pytest.mark.parametrize("t", [True, False, "5", b"5", None, math.nan, -1.0], ids=repr)
    def test_rejected_naming_the_time(self, method, t):
        for model in TIME_MODELS:
            with pytest.raises(ValueError, match="^time must be"):
                getattr(model, method)(t)

    @pytest.mark.parametrize("method", TIME_METHODS)
    def test_ints_and_numpy_numbers_give_the_float_value(self, method):
        for model in TIME_MODELS:
            value = getattr(model, method)(5.0)
            for t in (5, np.int64(5), np.float32(5), np.float64(5)):
                assert getattr(model, method)(t) == value, (model, t)

    @pytest.mark.parametrize("method", TIME_METHODS)
    def test_negative_zero_is_time_zero(self, method):
        # -0.0 >= 0.0, so a plain float -0.0 takes any fast path a time may have
        for model in TIME_MODELS:
            assert getattr(model, method)(-0.0) == getattr(model, method)(0.0), model


class TestPiecewiseLookup:
    def test_bisection_matches_linear_scan(self):
        # pieces are found by bisection; a linear scan over the normalized
        # knots, with the same arithmetic, is the reference
        rng = np.random.default_rng(8)
        for _ in range(20):
            ts = np.sort(rng.choice(np.arange(0.0, 40.0, 2.0), 8)).tolist()  # repeats jump
            ys = rng.uniform(0.0, 1.0, 8).tolist()
            if len(set(ts)) < 2:
                continue
            model = PiecewiseLinearDensity(list(zip(ts, ys)))
            total = sum(
                0.5 * (y0 + y1) * (t1 - t0)
                for t0, t1, y0, y1 in zip(ts, ts[1:], ys, ys[1:])
            )
            knots = [(t, y / total) for t, y in zip(ts, ys)]

            def reference(t):
                for (t0, y0), (t1, y1) in zip(knots, knots[1:]):
                    if t0 <= t < t1:
                        return y0 + (y1 - y0) * (t - t0) / (t1 - t0)
                return 0.0

            probes = ts + [t + 1.0 for t in ts] + rng.uniform(0.0, 45.0, 50).tolist()
            for t in probes:
                assert model.density(t) == reference(t)


# the two wrong-policy inputs of the optimizer tests: a narrow spike and a
# density drop
SPIKE_KNOTS = [[0, .001], [5, .001], [5.05, 320], [5.1, .001], [4000, .001]]
DROP_KNOTS = [[0, 1], [4, 1], [4, .01], [100, .01]]
# the jump and spike shapes that the optimizer's random models draw
_JUMPY_RNG = np.random.default_rng(12)
JUMPY_MODELS = [PiecewiseLinearDensity(jumpy_knots(_JUMPY_RNG, 24.0)) for _ in range(4)]


class TestOneLookupAppearanceRate:
    @pytest.mark.parametrize(
        "model",
        [
            PiecewiseLinearDensity(SPIKE_KNOTS),
            PiecewiseLinearDensity(DROP_KNOTS),
            PiecewiseLinearDensity(
                [(2.0, 0.0), (3.0, 1.0), (3.0, 4.0), (5.0, 0.5), (5.0, 0.0), (6.0, 0.0)]
            ),
            LateBusMixture(still_coming_prob=0.3, late_window=3.7, next_headway_offset=41.3),
            LateBusMixture(still_coming_prob=1.0, late_window=3.7, next_headway_offset=25.0),
            Uniform(30.0),
            *JUMPY_MODELS,
        ],
    )
    def test_equals_density_over_survival_exactly(self, model):
        # the rate reads the row that density and survival read, with the
        # same expressions, so they agree bit for bit, and fail at the same
        # times with the message of the base class
        cuts = [t for b in model.breakpoints() for t in (b, math.nextafter(b, 0.0))]
        grid = np.linspace(0.0, model.support_end * 1.01, 2001).tolist()
        for t in grid + cuts + [math.inf]:
            r = model.survival(t)
            if r <= 0.0:
                message = re.escape(f"survival is zero at t={t}") + "$"
                with pytest.raises(UndefinedRateError, match=message):
                    model.appearance_rate(t)
            else:
                assert model.appearance_rate(t) == model.density(t) / r

    @pytest.mark.parametrize("method", ["at", "density", "cdf", "survival", "appearance_rate"])
    def test_one_lookup(self, method):
        # the base class's pointwise methods each read one row of _at
        model = Triangle()
        calls = []
        lookup = model._at

        def counted(t):
            calls.append(t)
            return lookup(t)

        model._at = counted  # on the instance: the class keeps its own
        getattr(model, method)(3.0)
        assert calls == [3.0]


class FixedUniforms:
    """Stands in for a generator: random() hands out the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size=None):
        return self.u.copy()


def two_branch_inverse(t0, width, y0, slope, m):
    """Reference in-piece inverse CDF: (disc - y0) / slope on a sloped
    piece, m / y0 on a flat one."""
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(np.maximum(y0 * y0 + 2.0 * slope * m, 0.0))
        x = np.where(
            np.abs(slope) > 1e-300,
            (disc - y0) / slope,
            np.divide(m, y0, out=np.zeros_like(m), where=y0 > 0),
        )
    return t0 + np.clip(x, 0.0, width)


def gather_first_draws(model, u):
    """The sampler's arithmetic, step for step, with every per-piece column
    gathered before it starts: the reference for the sampler's bits."""
    columns, (edges, _, _) = model._draw_table()
    idx = np.minimum(np.searchsorted(edges, u, side="right") - 1, len(model._pieces) - 1)
    t0, width, y0, slope, cum = (np.take(column, idx) for column in columns)
    m = u - cum
    root = np.sqrt(np.maximum(slope * m * 2.0 + y0 * y0, 0.0)) + y0
    root = root + (root == 0.0)
    return np.minimum(m * 2.0 / root, width) + t0


def many_pieces(count, seed):
    rng = np.random.default_rng(seed)
    ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 2.0, count))])
    return list(zip(ts.tolist(), rng.uniform(0.0, 1.0, count + 1).tolist()))


class TestGuideTableSampler:
    MODELS = {
        "repeated_times": [(0, 1), (2, 1), (2, 3), (4, 3), (4, 3), (4, 0.5), (6, 0)],
        "zero_start": [(0, 0), (3, 0), (5, 1), (8, 0.5)],
        "zero_middle": [(0, 1), (3, 1), (3, 0), (6, 0), (6, 1), (9, 1)],
        "zero_end": [(0, 1), (4, 0.5), (4, 0), (9, 0)],
        "zero_first_knot": [(0, 0), (5, 1), (7, 0)],
        "spike": SPIKE_KNOTS,
        "drop": DROP_KNOTS,
        "pieces_200": many_pieces(200, 5),
        "pieces_2000": many_pieces(2000, 6),  # past the 2^16-cell cap
    }

    @pytest.fixture(params=sorted(MODELS))
    def model(self, request):
        return PiecewiseLinearDensity(self.MODELS[request.param])

    @staticmethod
    def probes(model):
        _, (edges, cells, _) = model._draw_table()
        return np.concatenate([
            edges[edges < 1.0],
            np.arange(cells) / cells,
            [0.0, math.nextafter(1.0, 0.0)],
            np.random.default_rng(11).random(20_000),
        ])

    def test_piece_index_matches_full_search(self, model):
        _, (edges, _, _) = model._draw_table()
        u = self.probes(model)
        reference = np.minimum(
            np.searchsorted(edges, u, side="right") - 1, len(model._pieces) - 1
        )
        assert np.array_equal(model._piece_index(u), reference)

    def test_draws_lie_in_their_piece_and_match_the_two_branch_formula(self, model):
        u = self.probes(model)
        draws = model.sample(FixedUniforms(u), u.size)
        columns, (edges, _, _) = model._draw_table()
        idx = np.minimum(np.searchsorted(edges, u, side="right") - 1, len(model._pieces) - 1)
        t0, width, y0, slope, cum = (column[idx] for column in columns)
        assert np.isfinite(draws).all()
        assert (draws >= t0).all() and (draws <= t0 + width).all()
        reference = two_branch_inverse(t0, width, y0, slope, u - cum)
        assert (np.abs(draws - reference) <= 1e-9 * width).all()

    def test_draws_are_the_gather_first_draws_bit_for_bit(self, model):
        u = self.probes(model)
        draws = model.sample(FixedUniforms(u), u.size)
        assert (draws == gather_first_draws(model, u)).all()

    def test_zero_uniform_on_a_zero_density_knot(self):
        model = PiecewiseLinearDensity([(1.0, 0.0), (5.0, 1.0), (7.0, 0.0)])
        assert model.sample(FixedUniforms([0.0]), 1)[0] == 1.0

    def test_tables_are_built_on_the_first_draw(self):
        # read with getattr, as the model reads it: vars() would build the
        # instance's dict, which the model never does; after its draws the
        # model answers with the bits of a twin that never drew
        model, fresh = PiecewiseLinearDensity(DROP_KNOTS), PiecewiseLinearDensity(DROP_KNOTS)
        model.cdf(3.0)
        assert getattr(model, "_draws", None) is None
        model.sample(np.random.default_rng(0), 10)
        table = model._draws
        model.sample(np.random.default_rng(1), 10)
        assert model._draw_table() is table is model._draws
        scenario = Scenario(3.0, 0.1, 0.5)
        assert find_stationary_points(scenario, model) == find_stationary_points(scenario, fresh)
        assert optimal_policy(scenario, model) == optimal_policy(scenario, fresh)
        ts = [0.0, 0.5, 4.0, 5.07, 24.0, 99.0, 1e4]
        assert [model.partial_mean(t) for t in ts] == [fresh.partial_mean(t) for t in ts]


class ExactTriangle(Triangle):
    """The triangle with its survival stated exactly, (10 - t)^2 / 100, not
    as 1 - F."""

    def _at(self, t):
        p, F, _ = super()._at(t)
        return p, F, (10.0 - min(t, 10.0)) ** 2 / 100.0


class TestPublicLookup:
    @pytest.mark.parametrize(
        "model",
        [
            Uniform(headway=30.0),
            Exponential(rate=1.0 / 24.0),
            Exponential(rate=1e-300),
            LateBusMixture(still_coming_prob=0.25, late_window=4.0, next_headway_offset=56.0),
            PiecewiseLinearDensity(DROP_KNOTS),
            PiecewiseLinearDensity(SPIKE_KNOTS),
            Triangle(),
        ],
    )
    def test_at_is_the_three_pointwise_quantities_bit_for_bit(self, model):
        end = model.support_end if math.isfinite(model.support_end) else 200.0
        cuts = [t for b in model.breakpoints() for t in (b, math.nextafter(b, 0.0))]
        for t in np.linspace(0.0, end * 1.01, 2001).tolist() + cuts + [math.inf]:
            want = (model.density(t), model.cdf(t), model.survival(t))
            # hex tells -0.0 from 0.0
            assert list(map(float.hex, model.at(t))) == list(map(float.hex, want))
        for bad in (math.nan, -1.0, -1e-300):
            with pytest.raises(ValueError):
                model.at(bad)

    def test_exponential_survival_is_exact_not_one_minus_cdf(self):
        model = Exponential(rate=0.7)
        p, F, R = model.at(40.0)
        assert R == math.exp(-28.0) and R != 1.0 - F and p == 0.7 * R


class TestSubclassContract:
    TRIANGLE = Triangle()
    # walk 10 min, ride 6 min: t_delta = 4, so the rate 2 / (10 - t) crosses
    # 1 / t_delta at t = 2 from below, a maximum of E
    SCENARIO = Scenario(d=1.0, v_w=0.1, v_b=1.0 / 6.0)
    TIMES = [0.0, 0.5, 2.0, 7.25, 9.99]

    def test_pointwise_quantities_come_from_the_lookup(self):
        m = self.TRIANGLE
        for t in self.TIMES:
            p, F, R = m._at(t)
            assert (m.density(t), m.cdf(t)) == (p, F)
            assert m.survival(t) == R == 1.0 - F
        assert (m.density(10.0), m.density(12.0), m.cdf(math.inf)) == (0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            m.density(-1.0)

    def test_survival_stated_in_the_lookup_reaches_every_reader(self):
        m, s = ExactTriangle(), self.SCENARIO
        rounded = 0
        for t in np.linspace(0.0, 9.99, 1000).tolist():
            R = (10.0 - t) ** 2 / 100.0
            rounded += R != 1.0 - m.cdf(t)
            assert m.at(t)[2].hex() == m.survival(t).hex() == R.hex()
            assert m.appearance_rate(t) == m.density(t) / R
            want = s.bus_time * m.cdf(t) + m.partial_mean(t) + R * (s.walk_time + t)
            assert expected_tt(s, m, t) == want
        assert rounded > 100  # 1 - F is not this R

    def test_appearance_rate_is_density_over_survival(self):
        m = self.TRIANGLE
        for t in self.TIMES:
            assert m.appearance_rate(t) == m.density(t) / m.survival(t)
            # R = 1 - F cancels near the end of the support
            assert m.appearance_rate(t) == pytest.approx(2.0 / (10.0 - t), rel=1e-9)
        with pytest.raises(UndefinedRateError):
            m.appearance_rate(10.0)

    def test_partial_mean_falls_back_to_quadrature(self):
        m = self.TRIANGLE
        assert type(m).partial_mean is ArrivalModel.partial_mean
        for t in self.TIMES:
            closed = (5.0 * t * t - t**3 / 3.0) / 50.0
            assert m.partial_mean(t) == pytest.approx(closed, abs=1e-10)
        assert m.partial_mean(10.0) == m.partial_mean(math.inf) == m.mean()

    def test_optimizer_and_simulator_agree(self):
        m, s = self.TRIANGLE, self.SCENARIO
        (peak,) = find_stationary_points(s, m)
        assert peak.kind == "maximum" and peak.t_wait == pytest.approx(2.0, abs=1e-9)
        policy = optimal_policy(s, m)
        assert policy.strategy == "wait_forever"
        for strategy, analytic in (
            (WaitForever(), policy.expected_tt),
            (WaitThenWalk(peak.t_wait), peak.expected_tt),
        ):
            est = estimate(s, m, strategy, n=200_000, seed=11)
            assert abs(est.mean - analytic) / est.stderr < 3.5


def exact_partial_mean(model, t):
    """M1(t) of a piecewise model's normalized knots, in exact rationals."""
    knots = [(Fraction(a), Fraction(b)) for a, b in zip(model._ts, model._ys)]
    t = Fraction(t) if math.isfinite(t) else knots[-1][0]
    total = Fraction(0)
    for (t0, y0), (t1, y1) in zip(knots, knots[1:]):
        if t1 > t0 and t > t0:
            slope = (y1 - y0) / (t1 - t0)
            a = y0 - slope * t0  # density = a + slope * tau on the piece
            hi = min(t, t1)
            total += a / 2 * (hi**2 - t0**2) + slope / 3 * (hi**3 - t0**3)
    return total


class TestLinearTable:
    @pytest.mark.parametrize("h", [30.0, 7.3, 1e-3, 48.0, 1e5 / 3.0])
    def test_uniform_is_the_flat_piecewise_model_bit_for_bit(self, h):
        uniform, flat = Uniform(h), PiecewiseLinearDensity([[0, 1], [h, 1]])
        assert uniform.breakpoints() == flat.breakpoints() == (0.0, h)
        assert uniform.support_end == flat.support_end == h
        assert uniform.mean().hex() == flat.mean().hex()
        cuts = [t for b in flat.breakpoints() for t in (b, math.nextafter(b, 0.0))]
        for t in np.linspace(0.0, 1.2 * h, 1001).tolist() + cuts + [math.inf]:
            for name in ("density", "cdf", "survival"):
                got, want = getattr(uniform, name)(t), getattr(flat, name)(t)
                assert got.hex() == want.hex(), (name, t)

    @pytest.mark.parametrize(
        "knots",
        [
            DROP_KNOTS,
            SPIKE_KNOTS,
            [(2.0, 0.0), (3.0, 1.0), (3.0, 4.0), (5.0, 0.5), (5.0, 0.0), (6.0, 0.0)],
            [(0, 1), (2, 1), (2, 3), (4, 3), (4, 3), (4, 0.5), (6, 0)],
            [(0, 1), (3, 1), (3, 0), (6, 0), (6, 1), (9, 1)],
            [(100.0, 0.3), (100.0, 2.0), (100.25, 0.0), (100.25, 0.0), (400.0, 0.01)],
        ],
    )
    def test_closed_partial_mean_matches_exact_rationals(self, knots):
        # the piecewise model still integrates M1 by quadrature; the table's
        # closed form is called on it directly
        model = PiecewiseLinearDensity(knots)
        cuts = [t for b in model.breakpoints() for t in (b, math.nextafter(b, 0.0))]
        grid = np.linspace(0.0, model.support_end * 1.01, 401).tolist()
        for t in grid + cuts + [math.inf]:
            got = _LinearDensity.partial_mean(model, t)
            exact = exact_partial_mean(model, t)
            if exact == 0:
                assert got == 0.0, t
            else:
                assert abs(Fraction(got) - exact) <= Fraction(1e-12) * exact, t

    def test_wide_pieces_do_not_overflow(self):
        # the width squared overflows a float; the moments do not
        for model in (Uniform(1e200), PiecewiseLinearDensity([[0, 1], [1e200, 1]])):
            assert model.mean() == pytest.approx(5e199, rel=1e-15)
            assert _LinearDensity.partial_mean(model, 5e199) == pytest.approx(1.25e199, rel=1e-15)

    def test_closed_partial_mean_on_random_jumpy_knots(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            ts = np.sort(rng.choice(np.arange(0.0, 60.0, 3.0), 9)).tolist()  # repeats jump
            ys = rng.uniform(0.0, 1.0, 9).tolist()
            if len(set(ts)) < 2:
                continue
            model = PiecewiseLinearDensity(list(zip(ts, ys)))
            for t in rng.uniform(0.0, 65.0, 40).tolist() + ts:
                exact = exact_partial_mean(model, t)
                got = _LinearDensity.partial_mean(model, t)
                assert abs(Fraction(got) - exact) <= Fraction(1e-12) * exact, t
