"""Shared randomized scenario/model generators and exact oracles for the
test suite."""

from fractions import Fraction

import numpy as np

from walkwait import (
    ArrivalModel,
    Exponential,
    LateBusMixture,
    PiecewiseLinearDensity,
    Scenario,
    Uniform,
    expected_tt_curve,
    plan_curve_d1,
    vigilant_curve,
)
from walkwait.arrivals import _LinearDensity

# the models that every model contract is checked on
ALL_MODELS = [
    Uniform(headway=30.0),
    Exponential(rate=1.0 / 24.0),
    LateBusMixture(still_coming_prob=0.25, late_window=4.0, next_headway_offset=56.0),
    LateBusMixture(still_coming_prob=0.7, late_window=4.0, next_headway_offset=25.0),
    PiecewiseLinearDensity([(0.0, 0.4), (4.0, 0.1), (4.0, 0.0)]),
    PiecewiseLinearDensity([(0.0, 0.0), (5.0, 1.0), (12.0, 0.2), (20.0, 0.0)]),
]


# twins that opt into the base-class quadrature for M1: the reference that
# each closed form is checked against
class QuadUniform(Uniform):
    partial_mean = ArrivalModel.partial_mean


class QuadExponential(Exponential):
    partial_mean = ArrivalModel.partial_mean


class QuadLateBus(LateBusMixture):
    partial_mean = ArrivalModel.partial_mean


class TablePiecewise(PiecewiseLinearDensity):
    """The piecewise model with M1 and the roots of E' from its table, the
    closed forms the other table models use, in place of the quadrature and
    the scan that PiecewiseLinearDensity itself still takes."""

    partial_mean = _LinearDensity.partial_mean
    _sign_changes = _LinearDensity._sign_changes


class FallbackPiecewise(PiecewiseLinearDensity):
    """The piecewise model on the base class's routes, the grid scan for the
    roots of E' and the quadrature for M1, which a model without closed
    forms takes, whatever routes PiecewiseLinearDensity itself takes."""

    _sign_changes = ArrivalModel._sign_changes
    partial_mean = ArrivalModel.partial_mean


class FallbackLateBus(LateBusMixture):
    _sign_changes = ArrivalModel._sign_changes
    partial_mean = ArrivalModel.partial_mean


class Triangle(ArrivalModel):
    """Density (10 - t) / 50 on [0, 10], with only the members a subclass
    must implement."""

    @property
    def support_end(self):
        return 10.0

    def _at(self, t):
        if t >= 10.0:
            return 0.0, 1.0, 0.0
        F = t / 5.0 - t * t / 100.0
        return (10.0 - t) / 50.0, F, 1.0 - F

    def mean(self):
        return 10.0 / 3.0

    def sample(self, rng, n):
        return 10.0 * (1.0 - np.sqrt(1.0 - rng.random(n)))  # inverse CDF


class CountingUniform(Uniform):
    """Uniform that counts its lookups on the class: the frozen instance's
    __dict__ is left alone."""

    lookups = 0

    def _at(self, t):
        CountingUniform.lookups += 1
        return super()._at(t)


class CountingLateBus(LateBusMixture):
    lookups = 0

    def _at(self, t):
        CountingLateBus.lookups += 1
        return super()._at(t)


def random_scenario(rng: np.random.Generator) -> Scenario:
    d = rng.uniform(0.5, 5.0)
    v_w = rng.uniform(0.05, 0.12)
    v_b = v_w * rng.uniform(2.0, 8.0)
    return Scenario(d=d, v_w=v_w, v_b=v_b)


def random_model(rng: np.random.Generator, kinds=None):
    kind = rng.choice(kinds or ["uniform", "exponential", "late_bus", "piecewise"])
    if kind == "uniform":
        return Uniform(headway=rng.uniform(5.0, 60.0))
    if kind == "exponential":
        return Exponential(rate=1.0 / rng.uniform(5.0, 60.0))
    if kind == "late_bus":
        late = rng.uniform(2.0, 8.0)
        return LateBusMixture(
            still_coming_prob=rng.uniform(0.05, 0.95),
            late_window=late,
            next_headway_offset=late + rng.uniform(1.0, 40.0),
        )
    ts = np.concatenate([[0.0], np.cumsum(rng.uniform(1.0, 8.0, 4))])
    ys = rng.uniform(0.1, 1.0, 5)
    return PiecewiseLinearDensity(list(zip(ts, ys)))


def uniform_pc_threshold(headway_ratio: float) -> float | None:
    """The least catch probability at which vigilant walking beats waiting
    for Uniform(headway_ratio * t_delta), derived by hand: 2r - r^2 for r in
    [1, 2], 0 above 2, and None below 1, where no probability suffices."""
    if headway_ratio < 1.0:
        return None
    if headway_ratio > 2.0:
        return 0.0
    return 2.0 * headway_ratio - headway_ratio * headway_ratio


def e_prime(scenario, model, w: float) -> float:
    """E'(w) = R(w) - t_delta p(w), from the one-row expected_tt_curve."""
    return expected_tt_curve(scenario, model, [w])[0][2]


def d1_slope(scenario, model, plan) -> float:
    """dE/dd1 of the plan, from its one-row plan_curve_d1."""
    return plan_curve_d1(scenario, model, [plan.d1], plan.t_wait, plan.p_catch)[0][2]


def advantage(scenario, model, p_catch) -> float:
    """Minutes a vigilant walk saves over waiting forever, from the one-row
    vigilant_curve."""
    return vigilant_curve(scenario, model, [p_catch])[0][2]


def near_kink(model, t: float, tol: float) -> bool:
    """Whether t lies within tol of one of the model's breakpoints."""
    return any(abs(t - k) <= tol for k in model.breakpoints())


def smooth_time(model, rng: np.random.Generator, margin: float = 1e-2) -> float:
    """A time inside the support, away from density kinks."""
    end = model.quad_bound()
    for _ in range(1000):
        t = rng.uniform(margin, end * 0.95)
        if model.survival(t) > 1e-6 and not near_kink(model, t, margin):
            return t
    raise RuntimeError("could not find a smooth interior time")


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


def drop_knots(rng: np.random.Generator, t_delta: float) -> list:
    """Random knots whose best wait is usually a density drop: a dense head
    that ends in a drop before t_delta / 2, where E' goes from - to +
    without vanishing, then a sparse tail of 2 to 6 t_delta that holds 5% to
    100% of the head's mass, too long to be worth sitting out."""
    drop = rng.uniform(0.05, 0.5) * t_delta
    end = drop + rng.uniform(2.0, 6.0) * t_delta
    head = np.sort(rng.uniform(0.0, drop, int(rng.integers(0, 3))))
    tail = np.sort(rng.uniform(drop, end, int(rng.integers(0, 3))))
    low = rng.uniform(0.05, 1.0) * drop / (end - drop)
    knots = [(t, rng.uniform(0.5, 1.0)) for t in [0.0, *head, drop]]
    return knots + [(t, low * rng.uniform(0.5, 1.0)) for t in [drop, *tail, end]]


def exact_pieces(knots) -> list:
    """The pieces of positive width of the knots normalized in exact
    rationals: (t0, t1, y0, slope, F(t0), M1(t0)) each."""
    knots = [(Fraction(t), Fraction(y)) for t, y in knots]
    lines = [(t0, t1, y0, (y1 - y0) / (t1 - t0))
             for (t0, y0), (t1, y1) in zip(knots, knots[1:]) if t1 > t0]
    total = sum((y0 + s * (t1 - t0) / 2) * (t1 - t0) for t0, t1, y0, s in lines)
    pieces, F, M1 = [], Fraction(0), Fraction(0)
    for t0, t1, y0, s in lines:
        piece = (t0, t1, y0 / total, s / total, F, M1)
        pieces.append(piece)
        F, M1 = exact_at(piece, t1)
    return pieces


def exact_at(piece, t):
    """F(t) and M1(t) for a time t on the piece: with the density y0 + s x
    at x = t - t0, F gains y0 x + s x^2/2 and M1 gains t0 times that plus
    y0 x^2/2 + s x^3/3."""
    t0, _, y0, s, F0, M0 = piece
    x = t - t0
    mass = x * (y0 + s * x / 2)
    return F0 + mass, M0 + t0 * mass + x * x * (y0 / 2 + s * x / 3)


def exact_piecewise(knots):
    """F and M1 of the knots normalized in exact rationals."""
    pieces = exact_pieces(knots)

    def exact(t):
        F = M1 = Fraction(0)
        for piece in pieces:
            if t <= piece[0]:
                break
            F, M1 = exact_at(piece, min(t, piece[1]))
        return F, M1

    return exact


def exact_best_wait(scenario, knots, width=Fraction(1, 2**90)) -> Fraction:
    """The minimum of E(W) = bus F(W) + M1(W) + R(W) (walk + W) over W in
    [0, inf] for the knots' model, in exact rationals.

    On a piece E' = R - t_delta p is a quadratic in x = W - t0, monotone on
    each side of its vertex.  The minimum lies at walk-now, wait-forever, an
    end of such a monotone stretch, or a root where E' goes from - to + on
    one, which is bisected to the given width.
    """
    bus, walk = Fraction(scenario.bus_time), Fraction(scenario.walk_time)
    td = walk - bus
    pieces = exact_pieces(knots)

    def tt(piece, t):
        F, M1 = exact_at(piece, t)
        return bus * F + M1 + (1 - F) * (walk + t)

    best = min(walk, bus + exact_at(pieces[-1], pieces[-1][1])[1])
    for piece in pieces:
        t0, t1, y0, s, F0, _ = piece

        def slope(t):  # E'(t) on this piece
            x = t - t0
            return 1 - F0 - x * (y0 + s * x / 2) - td * (y0 + s * x)

        ends = [t0, t1]
        if s != 0 and t0 < t0 - y0 / s - td < t1:  # the vertex of E'
            ends.insert(1, t0 - y0 / s - td)
        for a, b in zip(ends, ends[1:]):
            best = min(best, tt(piece, a), tt(piece, b))
            if slope(a) < 0 < slope(b):
                while b - a > width:
                    mid = (a + b) / 2
                    a, b = (mid, b) if slope(mid) < 0 else (a, mid)
                best = min(best, tt(piece, a))
    return best
