"""Shared randomized scenario/model generators for the test suite."""

import numpy as np

from walkwait import (
    ArrivalModel,
    Exponential,
    LateBusMixture,
    PiecewiseLinearDensity,
    Scenario,
    Uniform,
)


# twins that opt into the base-class quadrature for M1: the reference that
# each closed form is checked against
class QuadUniform(Uniform):
    partial_mean = ArrivalModel.partial_mean


class QuadExponential(Exponential):
    partial_mean = ArrivalModel.partial_mean


class QuadLateBus(LateBusMixture):
    partial_mean = ArrivalModel.partial_mean


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
