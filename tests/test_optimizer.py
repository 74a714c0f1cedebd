"""Stationary-point search, classification, and policy selection."""

import bisect
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
    classify_uniform,
    compare_wait_walk,
    expected_tt,
    expected_tt_gradient,
    expected_tt_wait_forever,
    find_stationary_points,
    optimal_policy,
)
from walkwait.arrivals import FLAT_TOL, ArrivalModel, _LinearDensity
from walkwait.optimizer import BISECT_WIDTH, SCAN_POINTS, _best_policy, _scan_sign_changes
from _models import (
    FallbackLateBus,
    FallbackPiecewise,
    TablePiecewise,
    Triangle,
    drop_knots,
    exact_best_wait,
    jumpy_knots,
    near_kink,
    random_model,
    random_scenario,
)

S0 = Scenario(d=3.0, v_w=0.1, v_b=0.5)
LATE_BUS = LateBusMixture(still_coming_prob=0.25, late_window=4.0, next_headway_offset=56.0)
# a spike narrower than one cell of the scan grid, and a density drop at t=4
SPIKE = PiecewiseLinearDensity([[0, .001], [5, .001], [5.05, 320], [5.1, .001], [4000, .001]])
DROP_KNOTS = [[0, 1], [4, 1], [4, .01], [100, .01]]
DROP = PiecewiseLinearDensity(DROP_KNOTS)


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
                if sp.kind == "flat" or near_kink(model, sp.t_wait, 1e-6):
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
        assert 4.0 in DROP.breakpoints()
        assert expected_tt_gradient(S0, DROP, 4.0).one_sided

    def test_one_sided_only_at_the_breakpoint_itself(self):
        # the float just below the drop is on the smooth piece before it
        assert not expected_tt_gradient(S0, DROP, math.nextafter(4.0, 0.0)).one_sided

    @pytest.mark.parametrize("horizon", [True, False, "5"])
    def test_non_number_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            find_stationary_points(S0, Uniform(30.0), horizon=horizon)
        with pytest.raises(ValueError, match="horizon"):
            optimal_policy(S0, Uniform(30.0), horizon=horizon)

    @pytest.mark.parametrize("horizon", [10, np.float64(10.0), np.float32(10.0)])
    def test_number_horizon_accepted(self, horizon):
        assert find_stationary_points(S0, LATE_BUS, horizon=horizon) == (
            find_stationary_points(S0, LATE_BUS, horizon=10.0)
        )
        assert optimal_policy(S0, DROP, horizon=horizon) == optimal_policy(S0, DROP, horizon=10.0)

    def test_no_horizon_is_the_models_default(self):
        for model in (LATE_BUS, Uniform(30.0), DROP):
            assert find_stationary_points(S0, model, horizon=None) == (
                find_stationary_points(S0, model, horizon=model.quad_bound())
            )

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
            twin = piecewise_twin(model)
            for t, kind in _scan_sign_changes(twin, 1.0 / scenario.t_delta, scan_end(twin)):
                assert any(
                    e.kind == kind and abs(e.t_wait - t) <= 1e-9 for e in exact
                ), (scenario, model, t, kind, exact)

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

    @pytest.mark.parametrize(
        "twin, args, exact",
        [
            (FallbackPiecewise, (DROP_KNOTS,), TablePiecewise(DROP_KNOTS)),
            (FallbackLateBus, (0.25, 4.0, 56.0), LATE_BUS),
        ],
    )
    def test_fallback_twins_are_scanned(self, twin, args, exact):
        # the twins keep the scan and the quadrature reachable whatever
        # routes the bundled models take: each finds the closed-form points
        model = counting(twin)(*args)
        points = find_stationary_points(S0, model)
        assert type(model).calls > SCAN_POINTS
        expected = find_stationary_points(S0, exact)
        assert [sp.kind for sp in points] == [sp.kind for sp in expected]
        for sp, closed in zip(points, expected):
            assert sp.t_wait == pytest.approx(closed.t_wait, abs=1e-9)
            assert sp.expected_tt == pytest.approx(closed.expected_tt, rel=1e-12)

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


def reference_scan(model, target: float, end: float) -> list:
    """The grid scan as a plain Python loop over every neighbouring pair of
    nonzero samples: the optimizer's numpy pass must return exactly this."""
    rate = model.appearance_rate
    inner = [b for b in model.breakpoints() if 0.0 < b < end]
    ts = np.linspace(0.0, end, SCAN_POINTS + 2)[1:-1].tolist()
    ts = sorted(ts + inner + [math.nextafter(b, 0.0) for b in inner])
    grid = ts[: bisect.bisect_left(ts, True, key=lambda t: model.survival(t) <= 1e-15)]
    if not grid:
        return []
    gs = [target - rate(t) for t in grid]
    if max(map(abs, gs)) < FLAT_TOL:
        return [(0.0, "flat")]
    changes = []
    signs = [(t, v < 0.0) for t, v in zip(grid, gs) if v != 0.0]
    for (a, a_neg), (b, b_neg) in zip(signs, signs[1:]):
        if a_neg == b_neg:
            continue
        if a == math.nextafter(b, 0.0):
            if not a_neg:
                continue
            root = b
        else:
            lo, hi = a, b
            while hi - lo > BISECT_WIDTH:
                mid = 0.5 * (lo + hi)
                gm = target - rate(mid)
                if gm == 0.0:
                    lo = hi = mid
                    break
                if (gm < 0.0) == a_neg:
                    lo = mid
                else:
                    hi = mid
            root = 0.5 * (lo + hi)
        changes.append((root, "minimum" if a_neg else "maximum"))
    return changes


def scan_end(model) -> float:
    """The end of the scan that find_stationary_points runs by default."""
    return min(model.quad_bound(), model.support_end)


class TestGridScan:
    def test_matches_the_pairwise_reference_loop(self):
        rng = np.random.default_rng(6)
        models = [(S0, SPIKE), (S0, DROP)]
        for _ in range(100):
            scenario = random_scenario(rng)
            models.append((scenario, PiecewiseLinearDensity(jumpy_knots(rng, scenario.t_delta))))
        cases = [(model, 1.0 / scenario.t_delta, scan_end(model)) for scenario, model in models]
        # E' exactly zero on a grid point: the zero is skipped, not read as a sign
        flat = PiecewiseLinearDensity([[0, 1], [30, 1]])
        on_grid = np.linspace(0.0, 30.0, SCAN_POINTS + 2)[1000]
        cases.append((flat, flat.appearance_rate(on_grid), 30.0))
        for model, target, end in cases:
            assert _scan_sign_changes(model, target, end) == reference_scan(model, target, end)

    @pytest.mark.parametrize(
        "model, knots, calls",
        [
            (DROP, [[0, 1], [4, 1], [4, .01], [100, .01]], 4126),
            (SPIKE, [[0, .001], [5, .001], [5.05, 320], [5.1, .001], [4000, .001]], 4194),
        ],
    )
    def test_one_rate_call_per_grid_point_and_bisection_step(self, model, knots, calls):
        class ScannedPiecewise(PiecewiseLinearDensity):
            sign_changes = ArrivalModel.sign_changes

        counted = counting(ScannedPiecewise)(knots)
        points = [(sp.t_wait, sp.kind) for sp in find_stationary_points(S0, counted)]
        assert type(counted).calls == calls
        assert points == _scan_sign_changes(model, 1.0 / S0.t_delta, scan_end(model))

    def test_flat_marker_from_the_scan(self):
        class ScannedExponential(Exponential):
            sign_changes = ArrivalModel.sign_changes

        for rate in (1.0 / 24.0, 0.1, 0.01):
            assert find_stationary_points(S0, ScannedExponential(rate)) == (
                find_stationary_points(S0, Exponential(rate))
            )
        target = 1.0 / S0.t_delta
        assert _scan_sign_changes(ScannedExponential(target), target, 100.0) == [(0.0, "flat")]
        assert _scan_sign_changes(ScannedExponential(0.1), target, 100.0) == []


class TestTableJumpMinima:
    def test_minimum_at_a_density_drop(self):
        changes = _LinearDensity.sign_changes(DROP, 24.0, 100.0)
        assert [kind for _, kind in changes] == ["minimum", "maximum"]
        assert changes[0][0] == 4.0
        assert changes[1][0] == pytest.approx(76.0, abs=1e-12)

    def test_a_rise_at_a_jump_is_no_sign_change(self):
        # E' falls from + to - across the jump up at t = 4
        rise = PiecewiseLinearDensity([[0, .01], [4, .01], [4, 1], [8, 1]])
        assert _LinearDensity.sign_changes(rise, 24.0, 8.0) == []

    def test_finds_every_root_the_scan_finds_and_the_best_wait(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            scenario = random_scenario(rng)
            knots = jumpy_knots(rng, scenario.t_delta)
            model = PiecewiseLinearDensity(knots)
            table = _LinearDensity.sign_changes(model, scenario.t_delta, scan_end(model))
            for t_scan, kind_scan in _scan_sign_changes(
                model, 1.0 / scenario.t_delta, scan_end(model)
            ):
                assert any(
                    kind == kind_scan and abs(t - t_scan) <= 1e-9 for t, kind in table
                ), (knots, t_scan, kind_scan, table)
            minima = [t for t, kind in table if kind == "minimum"]
            best = min(
                piecewise_tt(scenario, knots, np.array([0.0, *minima])).min(),
                expected_tt_wait_forever(scenario, model),
            )
            ws = np.concatenate([np.linspace(0.0, model.support_end, 20_001), model.breakpoints()])
            brute = min(piecewise_tt(scenario, knots, ws).min(), expected_tt_wait_forever(scenario, model))
            assert best <= brute + 1e-9 * max(1.0, brute), knots


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

    def test_within_1e12_of_the_exact_minimum(self):
        # a certificate in rationals, which no grid limits: a jump minimum
        # or a narrow spike that the optimizer misses shows as a gap; the
        # drop_knots models mostly have their optimum at a density drop
        rng = np.random.default_rng(11)
        cases = [jumpy_knots(rng, S0.t_delta) for _ in range(100)]
        cases += [drop_knots(rng, S0.t_delta) for _ in range(50)]
        for knots in cases:
            exact = exact_best_wait(S0, knots)
            for model in (PiecewiseLinearDensity(knots), TablePiecewise(knots)):
                found = Fraction(optimal_policy(S0, model).expected_tt)
                assert abs(found - exact) <= Fraction(1e-12) * exact, (type(model), knots)

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


class Recording:
    """Mixin that records, on the class, every time a model looks up."""

    def _at(self, t):
        type(self).times.append(t)
        return super()._at(t)

    def partial_mean(self, t):
        type(self).times.append(t)
        return super().partial_mean(t)


class TestPricesOnlyWhatItWeighs:
    @pytest.mark.parametrize(
        "cls, args",
        [(Uniform, (30.0,)), (LateBusMixture, (0.99, 60.0, 80.0))],
    )
    def test_no_lookup_at_a_maximum(self, cls, args):
        model = type("Recorded", (Recording, cls), {"times": []})(*args)
        points = find_stationary_points(S0, cls(*args))
        assert "maximum" in [sp.kind for sp in points]
        policy = optimal_policy(S0, model)
        minima = {sp.t_wait for sp in points if sp.kind == "minimum"}
        # the late-bus model waits for its minimum between two maxima
        assert set(type(model).times) == minima
        assert policy == optimal_policy(S0, cls(*args))

    @pytest.mark.parametrize(
        "model",
        [Uniform(30.0), Exponential(1.0 / 24.0), LATE_BUS, DROP, SPIKE, Triangle()],
        ids=["uniform", "exponential", "late_bus", "drop", "spike", "triangle"],
    )
    def test_walk_now_is_the_walk_time(self, model):
        rng = np.random.default_rng(12)
        slow_bus = Scenario(3.0, 0.1, 0.1 * (1.0 + 1e-6))  # walking now wins
        assert optimal_policy(slow_bus, model).strategy == "walk_now"
        for scenario in [slow_bus, S0, *(random_scenario(rng) for _ in range(20))]:
            walk = scenario.walk_time.hex()
            assert expected_tt(scenario, model, 0.0).hex() == walk
            policy = optimal_policy(scenario, model)
            if policy.strategy == "walk_now":
                assert policy.expected_tt.hex() == walk

    def test_same_choice_from_the_priced_points(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            scenario = random_scenario(rng)
            knots = jumpy_knots(rng, scenario.t_delta)
            for model in (PiecewiseLinearDensity(knots), TablePiecewise(knots)):
                points = find_stationary_points(scenario, model)
                assert optimal_policy(scenario, model) == _best_policy(scenario, model, points)


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
