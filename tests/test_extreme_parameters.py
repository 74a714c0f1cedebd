"""Every model either rejects its parameters, naming a field, or gives sane,
exact answers, for parameters drawn log-uniformly from [1e-300, 1e300]."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from walkwait import (
    Exponential,
    LateBusMixture,
    Scenario,
    Uniform,
    expected_tt,
    optimal_policy,
)

from _models import TablePiecewise, exact_piecewise

# walk 30 min, ride 6 min
SCENARIO = Scenario(d=3.0, v_w=0.1, v_b=0.5)
DRAWS = 500  # per model kind
REL = 1e-12
# a table's mass may differ from one by up to about this much rounding (the
# bound of _LinearDensity._tabulate), and its F may pass one by as much just
# below the support end, where it then falls back to exactly one
MASS_ROUNDING = 2e-13


def log_uniform(rng, low=1e-300, high=1e300):
    return float(10.0 ** rng.uniform(math.log10(low), math.log10(high)))


def clamp(t, lo, hi):
    return min(max(t, lo), hi)


def exact_uniform(h):
    h = Fraction(h)

    def exact(t):
        c = clamp(t, 0, h)
        return c / h, c * c / (2 * h)

    return exact


def exact_late_bus(w, L, H):
    """F and M1 of the triangular head 2w/L (1 - tau/L) on [0, L] and the
    uniform tail (1 - w)/L on [H, H + L]."""
    w, L, H = map(Fraction, (w, L, H))

    def exact(t):
        c = clamp(t, 0, L)
        e = clamp(t, H, H + L)
        tail = (1 - w) / L
        F = 2 * w / L * (c - c * c / (2 * L)) + tail * (e - H)
        M1 = 2 * w / L * (c * c / 2 - c**3 / (3 * L)) + tail * (e * e - H * H) / 2
        return F, M1

    return exact


def draw(kind, rng):
    """(constructor, the fields it may name, exact F and M1 or None)."""
    if kind == "uniform":
        h = log_uniform(rng)
        return lambda: Uniform(h), ("headway",), exact_uniform(h)
    if kind == "exponential":
        rate = log_uniform(rng)
        return lambda: Exponential(rate), ("rate",), None
    if kind == "late_bus":
        # the offset as the window plus a gap of log-uniform ratio to it: at
        # independent scales, the offset would almost always equal the window
        # in floats or dwarf it
        w, L = log_uniform(rng, high=1.0), log_uniform(rng)
        H = L + L * log_uniform(rng, 1e-20, 1e20)
        fields = ("still_coming_prob", "late_window", "next_headway_offset")
        return lambda: LateBusMixture(w, L, H), fields, exact_late_bus(w, L, H)
    n = int(rng.integers(2, 6))
    ts = sorted(log_uniform(rng) for _ in range(n))
    if rng.random() < 0.5:
        ts[0] = 0.0
    knots = [(t, log_uniform(rng)) for t in ts]
    if rng.random() < 0.5:  # a jump at an interior knot
        i = int(rng.integers(0, n))
        knots.insert(i + 1, (knots[i][0], log_uniform(rng)))
    return lambda: TablePiecewise(knots), ("knot",), exact_piecewise(knots)


def probe_times(model):
    """Times across every piece of the model, on both sides of each
    breakpoint and the largest float, sorted."""
    if isinstance(model, Exponential):
        scaled = (t / model.rate for t in [0.0, *np.logspace(-20, 2, 45).tolist()])
        return sorted([*scaled, sys.float_info.max])
    cuts = model.breakpoints()
    times = {0.0, model.support_end * 1.01, sys.float_info.max}
    for b in cuts:
        times |= {b, math.nextafter(b, 0.0), math.nextafter(b, math.inf)}
    for t0, t1 in zip(cuts, cuts[1:]):
        times |= {t0 + (t1 - t0) * z for z in (1e-9, 1e-3, 0.25, 0.5, 0.75, 0.999)}
    return sorted(times)


def close(value, exact):
    """value within REL of exact, or, below the normal floats, where the
    relative precision runs out, within the smallest normal float."""
    return abs(Fraction(value) - exact) <= REL * abs(exact) + Fraction(sys.float_info.min)


@pytest.mark.parametrize("kind", ["uniform", "exponential", "late_bus", "piecewise"])
def test_extreme_parameters_are_rejected_or_exact(kind):
    rng = np.random.default_rng(["uniform", "exponential", "late_bus", "piecewise"].index(kind))
    accepted = 0
    for _ in range(DRAWS):
        build, fields, exact = draw(kind, rng)
        try:
            model = build()
        except ValueError as error:
            assert any(field in str(error) for field in fields), error
            continue
        accepted += 1
        mean = model.mean()
        assert 0.0 < mean < math.inf, model
        last = 0.0
        for t in probe_times(model):
            values = (*model.at(t), model.partial_mean(t), expected_tt(SCENARIO, model, t))
            assert not any(map(math.isnan, values)), (model, t)
            F, M1, E = values[1], values[3], values[4]
            assert last - MASS_ROUNDING <= F <= 1.0 + MASS_ROUNDING, (model, t)
            last = F
            # M1 just below the support end and the mean round the same sum
            assert 0.0 <= M1 <= mean * (1.0 + MASS_ROUNDING), (model, t)
            assert math.isfinite(E), (model, t)
            if exact is not None:
                want_F, want_M1 = exact(Fraction(t))
                assert close(F, want_F) and close(M1, want_M1), (model, t)
        assert math.isfinite(optimal_policy(SCENARIO, model).expected_tt), model
    assert accepted >= DRAWS // 10  # enough draws pass to exercise the checks
