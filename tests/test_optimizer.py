"""Stationary-point search, classification, and policy selection."""

import bisect
import hashlib
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
    expected_tt_curve,
    find_stationary_points,
    optimal_policy,
    vigilant_threshold,
)
from walkwait.arrivals import (
    SCAN_POINTS,
    TIE_TOL,
    ArrivalModel,
    _LinearDensity,
    _scan_sign_changes,
    _tie,
)
from walkwait.optimizer import _best_policy
from _models import (
    FallbackLateBus,
    FallbackPiecewise,
    TablePiecewise,
    Triangle,
    drop_knots,
    e_prime,
    exact_best_wait,
    jumpy_knots,
    near_kink,
    random_model,
    random_scenario,
)

S0 = Scenario(d=3.0, v_w=0.1, v_b=0.5)
LATE_BUS = LateBusMixture(still_coming_prob=0.25, late_window=4.0, next_headway_offset=56.0)
# a spike narrower than one cell of the scan grid, and a density drop at t=4
SPIKE_KNOTS = [[0, .001], [5, .001], [5.05, 320], [5.1, .001], [4000, .001]]
SPIKE = PiecewiseLinearDensity(SPIKE_KNOTS)
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
                assert e_prime(scenario, model, sp.t_wait) == pytest.approx(0.0, abs=1e-9)

    def test_classification_matches_the_sign_change_of_e_prime(self):
        # E' in the curve rows just below and above: - then + at a minimum
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(30):
            scenario = random_scenario(rng)
            model = random_model(rng)
            for sp in find_stationary_points(scenario, model):
                h = 1e-7 * max(1.0, sp.t_wait)
                if sp.kind == "flat" or near_kink(model, sp.t_wait, 10.0 * h):
                    continue
                rows = expected_tt_curve(scenario, model, [sp.t_wait - h, sp.t_wait + h])
                below, above = (g for _, _, g in rows)
                if sp.kind == "minimum":
                    assert below < 0.0 < above
                else:
                    assert below > 0.0 > above
                checked += 1
        assert checked > 10

    def test_minimum_at_density_drop(self):
        # E' jumps from negative to positive at t=4 without vanishing
        minima = [sp for sp in find_stationary_points(S0, DROP) if sp.kind == "minimum"]
        assert [sp.t_wait for sp in minima] == [4.0]
        assert 4.0 in DROP.breakpoints()
        assert e_prime(S0, DROP, math.nextafter(4.0, 0.0)) < 0.0 < e_prime(S0, DROP, 4.0)

    def test_an_infinite_quad_bound_is_named(self):
        # unbounded support with the base class's quad_bound: the search has
        # no finite end
        model = OpenEndedExponential(1.0 / 20.0)
        for call in (find_stationary_points, optimal_policy):
            with pytest.raises(ValueError, match=r"^quad_bound\(\) must be positive and finite"):
                call(S0, model)
        # a subclass that states a finite quad_bound once gets its answer
        assert optimal_policy(S0, BoundedExponential(1.0 / 20.0)).strategy == "wait_forever"

    # quad_bound() is the search end, checked as every positive time is
    @pytest.mark.parametrize("bound", [0.0, -1.0, math.inf, math.nan])
    def test_a_bad_quad_bound_is_named(self, bound):
        model = ending_at(Uniform, bound)(30.0)
        for call in (find_stationary_points, optimal_policy):
            with pytest.raises(ValueError, match=r"^quad_bound\(\) must be positive and finite"):
                call(S0, model)

    @pytest.mark.parametrize("bound", [True, False, "5"])
    def test_a_non_number_quad_bound_is_named(self, bound):
        model = ending_at(Uniform, bound)(30.0)
        for call in (find_stationary_points, optimal_policy):
            with pytest.raises(ValueError, match=r"^quad_bound\(\) must be a number"):
                call(S0, model)

    @pytest.mark.parametrize("bound", [10, np.float64(10.0), np.float32(10.0)])
    def test_a_number_quad_bound_is_accepted(self, bound):
        late_bus = (0.25, 4.0, 56.0)
        assert find_stationary_points(S0, ending_at(LateBusMixture, bound)(*late_bus)) == (
            find_stationary_points(S0, ending_at(LateBusMixture, 10.0)(*late_bus))
        )
        assert optimal_policy(S0, ending_at(PiecewiseLinearDensity, bound)(DROP_KNOTS)) == (
            optimal_policy(S0, ending_at(PiecewiseLinearDensity, 10.0)(DROP_KNOTS))
        )

    @pytest.mark.parametrize(
        "cls, args",
        [(LateBusMixture, (0.25, 4.0, 56.0)), (Uniform, (30.0,)), (PiecewiseLinearDensity, (DROP_KNOTS,))],
    )
    def test_the_support_end_ends_a_later_search(self, cls, args):
        model = cls(*args)
        later = ending_at(cls, 2.0 * model.support_end)(*args)
        assert find_stationary_points(S0, later) == find_stationary_points(S0, model)
        assert optimal_policy(S0, later) == optimal_policy(S0, model)

    def test_an_earlier_quad_bound_ends_the_search(self):
        # the late bus's one minimum, near 2.98, lies past an end of 2
        assert [sp.kind for sp in find_stationary_points(S0, LATE_BUS)] == ["minimum"]
        early = ending_at(LateBusMixture, 2.0)(0.25, 4.0, 56.0)
        assert find_stationary_points(S0, early) == []
        assert optimal_policy(S0, early).strategy != "wait_then_walk"

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


class ScannedExponential(Exponential):
    _sign_changes = ArrivalModel._sign_changes


class OpenEndedExponential(Exponential):
    quad_bound = ArrivalModel.quad_bound


class BoundedExponential(OpenEndedExponential):
    def quad_bound(self):
        return 30.0


def ending_at(cls, bound):
    """A subclass of cls whose quad_bound(), the optimizer's search end, is bound."""

    class Ending(cls):
        def quad_bound(self):
            return bound

    return Ending


def counting(cls, limit=math.inf):
    """A subclass of cls that counts appearance_rate calls on the class:
    the frozen models take no instance attributes.  It raises past limit
    calls, so a scan that cannot end fails instead of hanging."""

    class Counting(cls):
        calls = 0

        def appearance_rate(self, t):
            type(self).calls += 1
            if type(self).calls > limit:
                raise RuntimeError(f"more than {limit} appearance_rate calls")
            return super().appearance_rate(t)

    return Counting


class TestClosedFormSignChanges:
    def test_finds_every_root_the_scan_of_a_piecewise_twin_finds(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            scenario = random_scenario(rng)
            model = random_model(rng, kinds=["uniform", "late_bus"])
            exact = find_stationary_points(scenario, model)
            # _best_policy reads the points in this order
            assert all(a.t_wait < b.t_wait for a, b in zip(exact, exact[1:])), (scenario, model)
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
            (TablePiecewise, (DROP_KNOTS,)),
        ],
    )
    def test_parametric_models_make_no_rate_calls(self, cls, args):
        model = counting(cls)(*args)
        assert find_stationary_points(S0, model) == find_stationary_points(S0, cls(*args))
        assert type(model).calls == 0

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
        assert e_prime(scenario, model, policy.t_wait) == pytest.approx(0.0, abs=1e-12)
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
    def test_roots_do_not_depend_on_the_end(self, model):
        # the table's roots below an earlier end are those found up to the full one
        points = find_stationary_points(S0, model)
        assert len(points) == 1 and points[0].t_wait < 10.0
        full = model._sign_changes(S0.t_delta, min(model.quad_bound(), model.support_end))
        assert model._sign_changes(S0.t_delta, 10.0) == full
        assert full == [(sp.t_wait, sp.kind) for sp in points]


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
    if max(map(abs, gs)) <= TIE_TOL * target:
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
            while lo < (mid := 0.5 * (lo + hi)) < hi:  # a float lies between them
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
            (DROP, [[0, 1], [4, 1], [4, .01], [100, .01]], 4139),
            (SPIKE, [[0, .001], [5, .001], [5.05, 320], [5.1, .001], [4000, .001]], 4234),
        ],
    )
    def test_one_rate_call_per_grid_point_and_bisection_step(self, model, knots, calls):
        class ScannedPiecewise(PiecewiseLinearDensity):
            _sign_changes = ArrivalModel._sign_changes

        counted = counting(ScannedPiecewise)(knots)
        points = [(sp.t_wait, sp.kind) for sp in find_stationary_points(S0, counted)]
        assert type(counted).calls == calls
        assert points == _scan_sign_changes(model, 1.0 / S0.t_delta, scan_end(model))

    def test_mass_below_the_first_grid_point(self):
        # R reaches the floor at the float below the breakpoint 1, the first
        # time the scan lists, so it has no grid and reads no rate
        counted = counting(PiecewiseLinearDensity)([[0, 1], [1, 1], [1, 0], [5000, 0]])
        assert _scan_sign_changes(counted, 1.0 / S0.t_delta, 5000.0) == []
        assert type(counted).calls == 0
        assert find_stationary_points(S0, counted) == []
        assert optimal_policy(S0, counted).strategy == "wait_forever"
        assert type(counted).calls == 0

    def test_flat_marker_from_the_scan(self):
        for rate in (1.0 / 24.0, 0.1, 0.01):
            assert find_stationary_points(S0, ScannedExponential(rate)) == (
                find_stationary_points(S0, Exponential(rate))
            )
        target = 1.0 / S0.t_delta
        assert _scan_sign_changes(ScannedExponential(target), target, 100.0) == [(0.0, "flat")]
        assert _scan_sign_changes(ScannedExponential(0.1), target, 100.0) == []

    def test_flat_is_relative_to_one_over_t_delta(self):
        # 1/t_delta = 1.25e-14 and the rate differ by less than an absolute
        # 1e-12, but E' = R (1 - t_delta rate) = -7 R never vanishes
        scenario = Scenario(1e13, 0.1, 0.5)
        for model in (Exponential(1e-13), ScannedExponential(1e-13)):
            assert e_prime(scenario, model, 0.0) == pytest.approx(-7.0)
            assert find_stationary_points(scenario, model) == []
        rate = 1.0 / scenario.t_delta
        for model in (Exponential(rate), ScannedExponential(rate)):
            assert [sp.kind for sp in find_stationary_points(scenario, model)] == ["flat"]


# the knots of TestPinnedScan: the drop, the spike and four seeded models,
# whose policies are wait_then_walk, wait_forever and walk_now
PINNED_KNOTS = {
    "drop": DROP_KNOTS,
    "spike": SPIKE_KNOTS,
    **{f"jumpy-{k}": jumpy_knots(np.random.default_rng(k), S0.t_delta) for k in (1, 4)},
    **{f"drop-{k}": drop_knots(np.random.default_rng(k), S0.t_delta) for k in (1, 2)},
}
# float.hex of (t_wait, kind, expected_tt) of every point of
# find_stationary_points(S0, model), then (strategy, expected_tt, t_wait) of
# optimal_policy(S0, model), for the model of each PINNED_KNOTS entry
PINNED_SCAN = {
    "drop": (
        [
            ("0x1.0000000000000p+2", "minimum", "0x1.a10842108420fp+3"),
            ("0x1.2fffffffffffep+6", "maximum", "0x1.242108421083fp+4"),
        ],
        ("wait_then_walk", "0x1.a10842108420fp+3", "0x1.0000000000000p+2"),
    ),
    "spike": (
        [
            ("0x1.400221571dc72p+2", "maximum", "0x1.17f2909e21358p+5"),
            ("0x1.4665f9f7b1f8ap+2", "minimum", "0x1.fb4dbc46fd214p+3"),
            ("0x1.f0ffffffffffep+11", "maximum", "0x1.9a0e2e880cbd8p+8"),
        ],
        ("wait_then_walk", "0x1.fb4dbc46fd214p+3", "0x1.4665f9f7b1f8ap+2"),
    ),
    "jumpy-1": (
        [
            ("0x1.85cc1f7d37c28p+3", "maximum", "0x1.3c2769a740180p+5"),
            ("0x1.8e65005151caep+3", "minimum", "0x1.b9167683ddae4p+4"),
            ("0x1.a650f1a7ceb64p+3", "maximum", "0x1.bb5e9cde5f424p+4"),
            ("0x1.17a02f566785fp+4", "minimum", "0x1.b8d70d4e6e05fp+4"),
            ("0x1.63f09a8b4649ep+4", "maximum", "0x1.be009139f538ap+4"),
        ],
        ("wait_forever", "0x1.7b34549db6c38p+4", None),
    ),
    "jumpy-4": (
        [
            ("0x1.4b4983923ecbcp+5", "maximum", "0x1.6ec77f6cdbf40p+5"),
            ("0x1.4d3c6e706defep+5", "minimum", "0x1.6ec5b0a82bd7cp+5"),
            ("0x1.66d365e741cb0p+5", "maximum", "0x1.700541a6ac28ap+5"),
        ],
        ("walk_now", "0x1.e000000000000p+4", None),
    ),
    "drop-1": (
        [
            ("0x1.ae92341160ab0p+2", "minimum", "0x1.7e05a6f190900p+4"),
            ("0x1.e56ef2411eea4p+6", "maximum", "0x1.7b79a5a9a0d32p+5"),
        ],
        ("wait_then_walk", "0x1.7e05a6f190900p+4", "0x1.ae92341160ab0p+2"),
    ),
    "drop-2": (
        [
            ("0x1.01a055ab0fbb7p+2", "minimum", "0x1.9ac3e50a92750p+3"),
            ("0x1.d6f7c96e624bep+5", "maximum", "0x1.03f9f48b358eap+4"),
        ],
        ("wait_then_walk", "0x1.9ac3e50a92750p+3", "0x1.01a055ab0fbb7p+2"),
    ),
}


class TestPinnedScan:
    """Every point and policy of the scan on a piecewise model bit for bit: a
    change of one ulp in a rate, a grid point or a bisection step shows here.
    The twin on the scan keeps it pinned whatever route the bundled model takes."""

    @pytest.mark.parametrize("name", PINNED_KNOTS)
    def test_scan_is_bit_identical(self, name):
        model = FallbackPiecewise(PINNED_KNOTS[name])
        points, policy = PINNED_SCAN[name]
        found = find_stationary_points(S0, model)
        assert [(p.t_wait.hex(), p.kind, p.expected_tt.hex()) for p in found] == points
        choice = optimal_policy(S0, model)
        t_wait = None if choice.t_wait is None else choice.t_wait.hex()
        assert (choice.strategy, choice.expected_tt.hex(), t_wait) == policy


# the models of TestPinnedTable: both bundled table models and the table
# twin of each PINNED_KNOTS entry
TABLE_MODELS = {
    "uniform": Uniform(30.0),
    "late-bus": LateBusMixture(0.75, 6.0, 40.0),
    **{name: TablePiecewise(knots) for name, knots in PINNED_KNOTS.items()},
}
# for each TABLE_MODELS entry: the points and policy as in PINNED_SCAN, then
# the SHA-256 of table_values(model)
PINNED_TABLE = {
    "uniform": (
        [
            ("0x1.7ffffffffffffp+2", "maximum", "0x1.e99999999999ap+4"),
        ],
        ("wait_forever", "0x1.5000000000000p+4", None),
        "287a8b90ffa953d2dce40f68c6ec51f6730a7bee6c4f1409415b547d5bf5d23a",
    ),
    "late-bus": (
        [
            ("0x1.6fea7106ac100p+2", "minimum", "0x1.deff1aa5de166p+3"),
        ],
        ("wait_then_walk", "0x1.deff1aa5de166p+3", "0x1.6fea7106ac100p+2"),
        "358e13b68f0413b2783590656e0bce5411eb71f5c18a1061090915287318fd3a",
    ),
    "drop": (
        [
            ("0x1.0000000000000p+2", "minimum", "0x1.a108421084210p+3"),
            ("0x1.2fffffffffffep+6", "maximum", "0x1.242108421083fp+4"),
        ],
        ("wait_then_walk", "0x1.a108421084210p+3", "0x1.0000000000000p+2"),
        "9adeb27b72ffb783dc16d6f9cd7d1eee4acfbdbde11ec7ab6b290a9ae24f9930",
    ),
    "spike": (
        [
            ("0x1.400221571dc73p+2", "maximum", "0x1.17f2909e21358p+5"),
            ("0x1.4665f9f7b1f8ap+2", "minimum", "0x1.fb4dbc46fd216p+3"),
            ("0x1.f0fffffffffffp+11", "maximum", "0x1.9a0e2e880cbd4p+8"),
        ],
        ("wait_then_walk", "0x1.fb4dbc46fd216p+3", "0x1.4665f9f7b1f8ap+2"),
        "24f95582ce719d0b76042e69d05faf400e5447060b0d83208fb84299a1b59d65",
    ),
    "jumpy-1": (
        [
            ("0x1.85cc1f7d37c29p+3", "maximum", "0x1.3c2769a74017fp+5"),
            ("0x1.8e65005151caep+3", "minimum", "0x1.b9167683ddae0p+4"),
            ("0x1.a650f1a7ceb64p+3", "maximum", "0x1.bb5e9cde5f41bp+4"),
            ("0x1.17a02f566785fp+4", "minimum", "0x1.b8d70d4e6e056p+4"),
            ("0x1.63f09a8b4649ep+4", "maximum", "0x1.be009139f5382p+4"),
        ],
        ("wait_forever", "0x1.7b34549db6c38p+4", None),
        "a7e39c3b8df38e42d2da81fc038ea6bea04765e2fff1fa0b905d2056b9ce160a",
    ),
    "jumpy-4": (
        [
            ("0x1.4b4983923ecbbp+5", "maximum", "0x1.6ec77f6cdbf40p+5"),
            ("0x1.4d3c6e706defep+5", "minimum", "0x1.6ec5b0a82bd7cp+5"),
            ("0x1.66d365e741cb1p+5", "maximum", "0x1.700541a6ac28ap+5"),
        ],
        ("walk_now", "0x1.e000000000000p+4", None),
        "936f2c7a6115d2c16d8d8ed4abbcfc9332841f2e820b2970d19de44e663172b6",
    ),
    "drop-1": (
        [
            ("0x1.ae92341160ab0p+2", "minimum", "0x1.7e05a6f190900p+4"),
            ("0x1.e56ef2411eea6p+6", "maximum", "0x1.7b79a5a9a0d32p+5"),
        ],
        ("wait_then_walk", "0x1.7e05a6f190900p+4", "0x1.ae92341160ab0p+2"),
        "722b37d18f1ba8dc669b5ccd35206d243e1cab0dd45aa5ff19a6f10400fdb38b",
    ),
    "drop-2": (
        [
            ("0x1.01a055ab0fbb7p+2", "minimum", "0x1.9ac3e50a92750p+3"),
            ("0x1.d6f7c96e624bep+5", "maximum", "0x1.03f9f48b358eap+4"),
        ],
        ("wait_then_walk", "0x1.9ac3e50a92750p+3", "0x1.01a055ab0fbb7p+2"),
        "dce6d49bcf4c16b37aae2370b30c3abaaf40ba4a5dd1d9357b31c64189b2da9f",
    ),
}


def table_slope(model, t):
    """The slope column of the table row that _at reads at t, 0.0 off the
    support: the density's slope, which sample and partial_mean read."""
    i = bisect.bisect_right(model._starts, t) - 1
    return model._pieces[i][7] if i >= 0 and t < model._pieces[i][1] else 0.0


def table_values(model):
    """float.hex of at(t) with the table's slope after p, appearance_rate(t)
    (or its error message) and partial_mean(t), one line per t of a grid
    past the support end plus every breakpoint and the float just below it."""
    end = model.support_end
    ts = [end * k / 64 for k in range(81)]
    ts += [x for b in model.breakpoints() for x in (math.nextafter(b, 0.0), b)]
    lines = []
    for t in ts:
        try:
            rate = model.appearance_rate(t).hex()
        except ValueError as exc:
            rate = str(exc)
        p, F, R = model.at(t)
        values = [v.hex() for v in (p, table_slope(model, t), F, R)]
        values += [rate, model.partial_mean(t).hex()]
        lines.append(" ".join([t.hex()] + values))
    return "\n".join(lines)


class TestPinnedTable:
    """The closed forms of the piece table bit for bit: a change of one ulp in
    a row, in _at, in the rate, in M1 or in a root of E' shows here."""

    @pytest.mark.parametrize("name", TABLE_MODELS)
    def test_table_is_bit_identical(self, name):
        model = TABLE_MODELS[name]
        points, policy, digest = PINNED_TABLE[name]
        found = find_stationary_points(S0, model)
        assert [(p.t_wait.hex(), p.kind, p.expected_tt.hex()) for p in found] == points
        choice = optimal_policy(S0, model)
        t_wait = None if choice.t_wait is None else choice.t_wait.hex()
        assert (choice.strategy, choice.expected_tt.hex(), t_wait) == policy
        assert hashlib.sha256(table_values(model).encode()).hexdigest() == digest


class TestEveryTimeScale:
    @pytest.mark.parametrize("k", [1e-6, 1.0, 1e3, 1e5, 1e6, 1e9, 1e12])
    def test_scanned_late_bus_shape_matches_its_closed_form(self, k):
        # the late-bus shape in minutes times k: where one ulp of the wait
        # passed 1e-10 min, a bisection to that absolute width never ended,
        # and at small k the width was a large part of the wait
        knots = [[0, 0.25 / k], [6 * k, 0], [40 * k, 0], [40 * k, 0.25 / (6 * k)],
                 [46 * k, 0.25 / (6 * k)]]
        scenario = Scenario(3 * k, 0.1, 0.5)
        scanned = counting(FallbackPiecewise, limit=10**5)(knots)
        policy = optimal_policy(scenario, scanned)
        closed = optimal_policy(scenario, LateBusMixture(0.75, 6 * k, 40 * k))
        assert type(scanned).calls > SCAN_POINTS  # the scan ran
        assert policy.strategy == closed.strategy == "wait_then_walk"
        assert policy.t_wait == pytest.approx(closed.t_wait, rel=1e-12, abs=0.0)
        assert policy.expected_tt == pytest.approx(closed.expected_tt, rel=1e-12, abs=0.0)


class TestTableJumpMinima:
    def test_minimum_at_a_density_drop(self):
        changes = _LinearDensity._sign_changes(DROP, 24.0, 100.0)
        assert [kind for _, kind in changes] == ["minimum", "maximum"]
        assert changes[0][0] == 4.0
        assert changes[1][0] == pytest.approx(76.0, abs=1e-12)

    def test_a_rise_at_a_jump_is_no_sign_change(self):
        # E' falls from + to - across the jump up at t = 4
        rise = PiecewiseLinearDensity([[0, .01], [4, .01], [4, 1], [8, 1]])
        assert _LinearDensity._sign_changes(rise, 24.0, 8.0) == []

    @pytest.mark.parametrize("cls", [PiecewiseLinearDensity, TablePiecewise], ids=["scan", "table"])
    def test_a_zero_reached_from_above_below_a_drop_is_no_minimum(self, cls):
        # t_delta = 1: E' = (1 - t) / 2 falls to exactly 0 just below the drop
        # at 1 and is 1/4 past it, so it never changes sign there; its one
        # sign change is the maximum at 2, on dyadic knots where every
        # table value is exact
        scenario = Scenario(1.0, 0.5, 1.0)
        assert scenario.t_delta == 1.0
        points = find_stationary_points(scenario, cls([[0, .5], [1, .5], [1, .25], [3, .25]]))
        assert [sp.kind for sp in points] == ["maximum"]
        assert points[0].t_wait == pytest.approx(2.0, abs=1e-15)

    def test_a_tangent_root_is_no_sign_change(self):
        # E' = R - t_delta p on the head of this mixture touches 0 at
        # L - t_delta = 56, as w (1 + (t_delta / L)^2) = 1, without a sign
        # change; the table lists no root there.  Its b^2 + 2 s c is exactly
        # 0 only by rounding: no row with exact arithmetic has a tangent root
        # inside it, as b^2 + 2 s c = 0 needs a rational point of
        # (z + 1)^2 + r^2 = 2 with z = t_delta b / R0, and the only dyadic
        # ones, z = 0 and -2, put the root at the row start or before it
        model = LateBusMixture(1.0 / 1.09, 80.0, 170.0)
        _, _, y0, _, _, F0, _, s, _, _ = model._pieces[0]
        b, c = y0 + S0.t_delta * s, (1.0 - F0) - S0.t_delta * y0
        assert b * b + 2.0 * s * c == 0.0 and -b / s == pytest.approx(56.0)
        points = find_stationary_points(S0, model)
        assert [(sp.t_wait, sp.kind) for sp in points] == [(226.0, "maximum")]

    def test_finds_every_root_the_scan_finds_and_the_best_wait(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            scenario = random_scenario(rng)
            knots = jumpy_knots(rng, scenario.t_delta)
            model = PiecewiseLinearDensity(knots)
            table = _LinearDensity._sign_changes(model, scenario.t_delta, scan_end(model))
            for t_scan, kind_scan in _scan_sign_changes(
                model, 1.0 / scenario.t_delta, scan_end(model)
            ):
                assert any(
                    kind == kind_scan and abs(t - t_scan) <= 1e-9 for t, kind in table
                ), (knots, t_scan, kind_scan, table)
            minima = [t for t, kind in table if kind == "minimum"]
            best = min(
                piecewise_tt(scenario, knots, np.array([0.0, *minima])).min(),
                scenario.bus_time + model.mean(),
            )
            ws = np.concatenate([np.linspace(0.0, model.support_end, 20_001), model.breakpoints()])
            brute = min(piecewise_tt(scenario, knots, ws).min(), scenario.bus_time + model.mean())
            assert best <= brute + 1e-9 * max(1.0, brute), knots


@pytest.mark.parametrize("cls", [PiecewiseLinearDensity, TablePiecewise], ids=["scan", "table"])
class TestSurvivalFloor:
    """Roots where R <= SURVIVAL_FLOOR (1e-15) are dropped, on the scan and
    the table alike: a lower floor keeps a rounding artefact, a higher one
    drops a real minimum."""

    def test_survival_that_rounds_up_past_zero_adds_no_root(self, cls):
        # 1 - F rounds to 0.0 at the float below the drop and up to 1.1e-16
        # at it: with no floor the scan reads a rate where R is 0, and the
        # table lists a minimum at the drop
        drop = 50.14590623519218
        model = cls([[1.7008485913203786, 1.3039735330361097],
                     [5.631575206454094, 2.2892174465492463],
                     [drop, 0.016297099519820973], [drop, 0.0], [86.3314945655215, 0.0]])
        assert model.survival(math.nextafter(drop, 0.0)) == 0.0 < model.survival(drop) < 1e-15
        points = find_stationary_points(S0, model)
        assert [sp.kind for sp in points] == ["maximum"]
        assert points[0].t_wait == pytest.approx(5.1919, abs=1e-4)
        policy = optimal_policy(S0, model)
        assert (policy.strategy, policy.expected_tt) == ("wait_forever", 24.550851326618382)

    def test_minimum_where_survival_is_1e12_is_kept(self, cls):
        # past the drop at 1, R is (101 - t) 1e-14 / (1 + 1e-12), about
        # 1e-12 at 1; E' = p (77 - t) there, so the exact maximum is at 77,
        # which the rounding of 1 - F moves by up to about 0.01
        model = cls([[0, 1], [1, 1], [1, 1e-14], [101, 1e-14]])
        assert model.survival(1.0) == pytest.approx(1e-12)
        points = find_stationary_points(S0, model)
        assert [sp.kind for sp in points] == ["minimum", "maximum"]
        assert (points[0].t_wait, points[0].expected_tt) == (1.0, 6.500000000024502)
        assert points[1].t_wait == pytest.approx(77.0, abs=0.02)
        policy = optimal_policy(S0, model)
        assert (policy.strategy, policy.expected_tt, policy.t_wait) == (
            "wait_then_walk", 6.500000000024502, 1.0)


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
        # grid-search oracle over the late bus's support
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
            best = min(brute.min(), scenario.bus_time + model.mean())
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
            end = model.quad_bound()
            policy = optimal_policy(scenario, model)
            candidates = [
                expected_tt(scenario, model, w)
                for w in np.linspace(0.0, end, 10_000)
            ]
            candidates.append(scenario.bus_time + model.mean())
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
                assert all(a.t_wait < b.t_wait for a, b in zip(points, points[1:])), (scenario, model)
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

    @pytest.mark.parametrize("headway", [True, "48", math.nan, math.inf])
    def test_headway_follows_the_uniform_rule(self, headway):
        with pytest.raises(ValueError, match="^headway must be"):
            classify_uniform(S0, headway)
        with pytest.raises(ValueError, match="^headway must be"):
            Uniform(headway)

    @pytest.mark.parametrize("k", [1e-9, 1e-6, 1.0, 1e5, 1e9])
    def test_case2_exactly_when_the_optimizer_finds_a_maximum(self, k):
        # at H = t_delta, E'(W) = -W/H < 0 on (0, H): no interior maximum
        scenario = Scenario(3 * k, 0.1, 0.5)
        td = scenario.t_delta
        below, above = math.nextafter(td, 0.0), math.nextafter(td, math.inf)
        for headway in [td * (1 + 1e-3 * i) for i in range(-5, 6)] + [below, td, above]:
            maxima = [sp for sp in find_stationary_points(scenario, Uniform(headway))
                      if sp.kind == "maximum"]
            case = classify_uniform(scenario, headway)
            assert (case == "case2_wait_with_interior_max") == bool(maxima), (k, headway)
            assert case == ("case1_wait" if headway <= td else "case2_wait_with_interior_max")

    def test_headway_whose_density_overflows_rejected(self):
        # the regimes come from the verdict on Uniform(headway), so the
        # headway meets Uniform's whole rule; 1e-310 read "case1_wait" before
        with pytest.raises(ValueError, match="^headway 1e-310 is out of range"):
            classify_uniform(S0, 1e-310)


# the scales of the tie tests: Scenario(3 k, 0.1, 0.5) has t_delta = 24 k min
TIE_SCALES = [1e-9, 1e-6, 1.0, 1e5, 1e9]


class TestOneTieRule:
    """compare_wait_walk, the flat marker, _best_policy, classify_uniform and
    vigilant_threshold decide a tie by one rule, TIE_TOL relative to t_delta,
    at every scale."""

    @pytest.mark.parametrize("k", TIE_SCALES)
    @pytest.mark.parametrize(
        "factor, expected",
        [
            (1.0, ("indifferent", "walk_now", "marginal")),
            # waiting forever beats walking by 1e-6 relative
            (1 - 1e-6, ("wait", "wait_forever", "case2_wait_with_interior_max")),
        ],
    )
    def test_near_the_marginal_headway_every_scale_answers_as_k_1(self, k, factor, expected):
        scenario = Scenario(3 * k, 0.1, 0.5)
        headway = 2 * scenario.t_delta * factor
        assert (
            compare_wait_walk(scenario, Uniform(headway)),
            optimal_policy(scenario, Uniform(headway)).strategy,
            classify_uniform(scenario, headway),
        ) == expected

    @pytest.mark.parametrize("k", TIE_SCALES)
    def test_flat_exactly_when_indifferent(self, k):
        scenarios = [Scenario(3 * k, 0.1, 0.5),
                     Scenario(4420.385489116159 * k, 0.11306303442254359, 0.35660298232657217)]
        for scenario in scenarios:
            for eps in [0.0, 5e-16, -5e-16, 2e-13, -2e-13, 9e-13, -9e-13, 2e-12, -2e-12]:
                rate = 1.0 / (scenario.t_delta * (1 + eps))
                for model in (Exponential(rate), ScannedExponential(rate)):
                    verdict = compare_wait_walk(scenario, model)
                    kinds = [sp.kind for sp in find_stationary_points(scenario, model)]
                    assert ("flat" in kinds) == (verdict == "indifferent"), (eps, type(model))
                    # walking ties or wins with no bus caught exactly when the verdict is not wait
                    threshold = vigilant_threshold(scenario, model)
                    assert (threshold == 0.0) == (verdict != "wait"), (eps, type(model))
                    if verdict == "indifferent":
                        assert optimal_policy(scenario, model).strategy == "walk_now"

    @pytest.mark.parametrize(
        "scenario, model",
        [
            # analyze said "wait" here while optimize reported a flat rate and walked
            (Scenario(4420.385489116159, 0.11306303442254359, 0.35660298232657217),
             Exponential(3.745202068439596e-05)),
            # configs/exponential24.json (3 km at 6 and 30 km/h) with the mean
            # 5e-13 relative off t_delta
            (Scenario(3.0, 6.0 / 60.0, 30.0 / 60.0), Exponential(0.041666666666645834)),
        ],
    )
    def test_the_verdict_of_analyze_is_the_choice_of_optimize(self, scenario, model):
        assert compare_wait_walk(scenario, model) == "indifferent"
        assert [sp.kind for sp in find_stationary_points(scenario, model)] == ["flat"]
        assert optimal_policy(scenario, model).strategy == "walk_now"

    @pytest.mark.parametrize("k", [1e-9, 1e-3, 1.0, 1e3, 1e5, 1e9])
    def test_wait_forever_over_walk_now_exactly_when_the_verdict_is_wait(self, k):
        rng = np.random.default_rng(21)
        for _ in range(40):
            scenario = Scenario(rng.uniform(0.5, 10) * k, 0.1, rng.uniform(0.15, 0.5))
            td = scenario.t_delta
            for eps in [0.0, 3e-13, -3e-13, 9e-13, -9e-13, 1.1e-12, -1.1e-12]:
                for model in (Uniform(2 * td * (1 + eps)), Exponential(1.0 / (td * (1 + eps)))):
                    wait = compare_wait_walk(scenario, model) == "wait"
                    strategy = _best_policy(scenario, model, []).strategy
                    assert strategy == ("wait_forever" if wait else "walk_now"), (eps, model)

    def test_a_saving_of_exactly_the_tolerance_ties(self):
        # the bound is inclusive: a saving of TIE_TOL t_delta is no saving
        assert _tie(TIE_TOL * 3.0, 3.0) == _tie(-TIE_TOL * 3.0, 3.0) == "indifferent"

    def test_a_minimum_within_the_margin_does_not_win(self):
        # the wait of 1 min before the drop beats waiting forever by about
        # 1.2e-11 min, inside TIE_TOL t_delta = 2.4e-11 min
        model = PiecewiseLinearDensity([[0, 1], [1, 1], [1, 1e-18], [5000, 1e-18]])
        (minimum,) = find_stationary_points(S0, model)
        assert minimum.kind == "minimum" and minimum.t_wait == 1.0
        policy = optimal_policy(S0, model)
        assert policy.strategy == "wait_forever"
        assert 0.0 < policy.expected_tt - minimum.expected_tt <= TIE_TOL * S0.t_delta


class TestMarginalCase:
    def test_never_better_to_give_up(self):
        model = Uniform(48.0)
        assert expected_tt(S0, model, 0.0) == pytest.approx(30.0, abs=1e-9)
        assert expected_tt(S0, model, math.inf) == pytest.approx(30.0, abs=1e-9)
        for w in np.linspace(0.0, 48.0, 1000)[1:-1]:
            assert expected_tt(S0, model, w) >= 30.0 - 1e-12
