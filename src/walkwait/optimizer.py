"""Stationary waiting times and the globally optimal simple strategy.

E'(W) = R(W) - t_delta p(W) has the sign of 1/t_delta - lambda(W), where
lambda = p/R is the appearance rate.  A root where E' goes from negative to
positive is a minimum, one where it goes from positive to negative a maximum.
A minimum can also sit at a density jump, where E' changes sign without
vanishing.

Each model finds these sign changes by its own route, its
``_sign_changes``: a closed form, or the grid scan that ``arrivals``
describes.  This module holds only policy, the search end and the pricing;
its verdict, mean - t_delta, is judged by the one tie rule, ``arrivals._tie``.

``optimal_policy`` prices only what it weighs, the minima and wait-forever
where ``compare_wait_walk`` says "wait".  Walk-now's E is the walk time, as
``analyze`` reports it: a zero wait never boards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arrivals import TIE_TOL, ArrivalModel, Uniform, _positive, _tie
from .expectation import Scenario, expected_tt


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


def find_stationary_points(scenario: Scenario, model: ArrivalModel) -> list[StationaryPoint]:
    """The sign changes of E'(W) in (0, end), where end is the model's
    ``quad_bound()`` or its support end if sooner, classified by their
    direction (see ``_sign_changes``) and each priced by ``expected_tt``."""
    return [StationaryPoint(t, kind, expected_tt(scenario, model, t))
            for t, kind in _sign_changes(scenario, model)]


def _sign_changes(scenario: Scenario, model: ArrivalModel) -> list[tuple[float, str]]:
    """(t, kind) for each sign change of E'(W) in (0, end), from the model's
    own route, ``ArrivalModel._sign_changes``.  ``quad_bound()`` states where
    the search ends: a model with an open support overrides it."""
    end = min(_positive(model.quad_bound(), "quad_bound()"), model.support_end)
    return model._sign_changes(scenario.t_delta, end)


def optimal_policy(scenario: Scenario, model: ArrivalModel) -> PolicyChoice:
    """Best of walk-now, wait-forever, and every interior minimum; only the
    minima are priced.  A minimum wins only by more than TIE_TOL t_delta, so
    ties go to walk_now, then wait_forever, then the smallest finite wait.
    """
    minima = [StationaryPoint(t, kind, expected_tt(scenario, model, t))
              for t, kind in _sign_changes(scenario, model) if kind == "minimum"]
    return _best_policy(scenario, model, minima)


def _best_policy(
    scenario: Scenario,
    model: ArrivalModel,
    points: list[StationaryPoint],
) -> PolicyChoice:
    """``optimal_policy`` given its stationary points in increasing t, the order
    ``_sign_changes`` returns.  Walk-now's E is the walk time: a zero wait never boards;
    wait-forever's is ``expected_tt`` at an infinite wait."""
    if compare_wait_walk(scenario, model) == "wait":
        best = PolicyChoice("wait_forever", expected_tt(scenario, model, math.inf))
    else:
        best = PolicyChoice("walk_now", scenario.walk_time)
    for sp in points:
        if sp.kind == "minimum" and sp.expected_tt < best.expected_tt - TIE_TOL * scenario.t_delta:
            best = PolicyChoice("wait_then_walk", sp.expected_tt, sp.t_wait)
    return best


def compare_wait_walk(scenario: Scenario, model: ArrivalModel) -> str:
    """"wait" if the mean arrival beats t_delta, "walk" if not, else "indifferent" (``_tie``)."""
    return _tie(model.mean() - scenario.t_delta, scenario.t_delta)


def classify_uniform(scenario: Scenario, headway: float) -> str:
    """The three uniform-headway regimes, read from ``compare_wait_walk`` on
    ``Uniform(headway)``, plus "marginal" where it ties."""
    model = Uniform(headway)  # its headway is the checked float, whatever the input type
    verdict = compare_wait_walk(scenario, model)
    if verdict == "wait":
        return "case1_wait" if model.headway <= scenario.t_delta else "case2_wait_with_interior_max"
    return "case3_walk" if verdict == "walk" else "marginal"
