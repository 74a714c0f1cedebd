"""Stationary waiting times and the globally optimal simple strategy.

E'(W) = R(W) - t_delta p(W) has the sign of 1/t_delta - lambda(W), where
lambda = p/R is the appearance rate.  A root where E' goes from negative to
positive is a minimum, one where it goes from positive to negative a maximum.
A minimum can also sit at a density jump, where E' changes sign without
vanishing.

On each piece of a linear density E' is a polynomial of degree at most 2.
``Uniform`` and ``LateBusMixture`` solve it, jump minima included, on their
shared piece table, and ``Exponential``, whose rate is constant, has no root
or is flat; all three through ``ArrivalModel.sign_changes``.
``PiecewiseLinearDensity``, like user subclasses, is scanned on a grid and
bisected while a benchmark self-test pins the scan (ROADMAP items 1 and 2).

``optimal_policy`` prices only what it weighs, the minima and wait-forever.
Walk-now's E is the walk time, as ``analyze`` reports it: a zero wait never
boards.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .arrivals import FLAT_TOL, SURVIVAL_FLOOR, ArrivalModel, _number
from .expectation import Scenario, expected_tt, expected_tt_wait_forever

SCAN_POINTS = 4096
BISECT_WIDTH = 1e-10
TIE_TOL = 1e-12


@dataclass(frozen=True)
class StationaryPoint:
    t_wait: float
    kind: str  # "minimum" | "maximum" | "flat"
    expected_tt: float


@dataclass(frozen=True)
class PolicyChoice:
    strategy: str  # "wait_forever" | "walk_now" | "wait_then_walk"
    expected_tt: float
    t_wait: float | None = None


def find_stationary_points(
    scenario: Scenario,
    model: ArrivalModel,
    horizon: float | None = None,
) -> list[StationaryPoint]:
    """The sign changes of E'(W) in (0, horizon), classified by their
    direction (see ``_sign_changes``) and each priced by ``expected_tt``."""
    return [StationaryPoint(t, kind, expected_tt(scenario, model, t))
            for t, kind in _sign_changes(scenario, model, horizon)]


def _sign_changes(scenario: Scenario, model: ArrivalModel, horizon) -> list[tuple[float, str]]:
    """(t, kind) for each sign change of E'(W) in (0, horizon), from
    ``model.sign_changes`` or else ``_scan_sign_changes``; a rate flat at
    exactly 1/t_delta gives one "flat" marker at t = 0."""
    horizon = model.quad_bound() if horizon is None else _number(horizon, "horizon")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    end = min(horizon, model.support_end)
    changes = model.sign_changes(scenario.t_delta, end)
    if changes is None:
        changes = _scan_sign_changes(model, 1.0 / scenario.t_delta, end)
    return changes


def _scan_sign_changes(model: ArrivalModel, target: float, end: float) -> list[tuple[float, str]]:
    """The sign changes of E' in (0, end) found by a grid scan.

    Scans a fixed grid plus every breakpoint b and the float just below it,
    so no bracket spans a breakpoint, and bisects each crossing on a smooth
    piece.  The one-ulp bracket below b is a density jump: a change from
    negative to positive there is a minimum at exactly b, the other way is
    dropped.  Two crossings inside one grid cell, or one before the first
    grid point, are missed.  numpy finds the flips among the samples, so the
    cost is one ``appearance_rate`` call per grid point and bisection step.
    """
    rate = model.appearance_rate  # E'(t) has the sign of target - rate(t)
    inner = [b for b in model.breakpoints() if 0.0 < b < end]
    ts = np.linspace(0.0, end, SCAN_POINTS + 2)[1:-1].tolist()
    # a time listed twice makes an empty bracket, skipped as it has no sign change
    ts = sorted(ts + inner + [math.nextafter(b, 0.0) for b in inner])
    # R never increases, so the scan ends at the first time where R <= SURVIVAL_FLOOR
    grid = ts[: bisect.bisect_left(ts, True, key=lambda t: model.survival(t) <= SURVIVAL_FLOOR)]
    if not grid:
        return []
    gs = target - np.fromiter(map(rate, grid), float, len(grid))
    if np.abs(gs).max() < FLAT_TOL:
        return [(0.0, "flat")]

    changes = []
    keep = np.flatnonzero(gs)  # a zero of E' lies inside the bracket of its neighbours
    neg = gs[keep] < 0.0
    for i in np.flatnonzero(neg[1:] != neg[:-1]).tolist():
        a, b, a_neg = grid[keep[i]], grid[keep[i + 1]], bool(neg[i])
        if a == math.nextafter(b, 0.0):  # a jump: E' never vanishes
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


def optimal_policy(
    scenario: Scenario,
    model: ArrivalModel,
    horizon: float | None = None,
) -> PolicyChoice:
    """Best of walk-now, wait-forever, and every interior minimum; only the
    minima are priced.  Ties within 1e-12 min go to walk_now, then
    wait_forever, then the smallest finite wait.
    """
    minima = [StationaryPoint(t, kind, expected_tt(scenario, model, t))
              for t, kind in _sign_changes(scenario, model, horizon) if kind == "minimum"]
    return _best_policy(scenario, model, minima)


def _best_policy(
    scenario: Scenario,
    model: ArrivalModel,
    points: list[StationaryPoint],
) -> PolicyChoice:
    """``optimal_policy`` given the stationary points it would find.  Walk-now's
    E is the walk time: a zero wait never boards."""
    best = ("walk_now", scenario.walk_time, None)  # (strategy, E, t_wait)
    minima = sorted((sp for sp in points if sp.kind == "minimum"), key=lambda sp: sp.t_wait)
    candidates = [("wait_forever", expected_tt_wait_forever(scenario, model), None)]
    for cand in candidates + [("wait_then_walk", sp.expected_tt, sp.t_wait) for sp in minima]:
        if cand[1] < best[1] - TIE_TOL:
            best = cand
    return PolicyChoice(*best)


def compare_wait_walk(scenario: Scenario, model: ArrivalModel) -> str:
    """"wait" if the mean arrival beats t_delta, "walk" if not, else tied."""
    diff = model.mean() - scenario.t_delta
    if abs(diff) < TIE_TOL:
        return "indifferent"
    return "wait" if diff < 0.0 else "walk"


def classify_uniform(scenario: Scenario, headway: float) -> str:
    """The three uniform-headway regimes, plus the knife-edge between 2 and 3."""
    if not headway > 0.0:
        raise ValueError("headway must be positive")
    td = scenario.t_delta
    if abs(headway - 2.0 * td) < TIE_TOL:
        return "marginal"
    if headway < td:
        return "case1_wait"
    if headway < 2.0 * td:
        return "case2_wait_with_interior_max"
    return "case3_walk"
