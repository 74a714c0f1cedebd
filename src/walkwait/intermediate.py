"""Walk-and-wait plans: walk to an intermediate stop, maybe catch a bus
en route, then wait there for a bounded time.

While walking a distance d1 the traveller's head start over the bus shrinks
by t1 = d1 * q minutes; a bus passing in that window is caught with
probability p_catch.  Caught-bus travel times are clocked by the bus's
arrival at the *starting* point, since the arrival density refers to a fixed
point on the route.

Every strategy is a plan: walking now is (0, 0, 0), waiting up to W minutes
at the origin is (0, W, 0) and waiting forever is (0, inf, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arrivals import ArrivalModel, _check_time, _number
from .expectation import GradientPair, Scenario, _wait_gradient, _walk_and_wait_tt


def _p_catch(value) -> float:
    """value as a catch probability; booleans and values outside [0, 1] are rejected."""
    p = _number(value, "p_catch")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p_catch must lie in [0, 1]")
    return p


@dataclass(frozen=True)
class WalkAndWaitPlan:
    """Walk d1 km (catching a passing bus with probability p_catch), then
    wait up to t_wait minutes at the intermediate stop."""

    d1: float
    t_wait: float
    p_catch: float

    def __post_init__(self):
        if not 0.0 <= _number(self.d1, "d1") < math.inf:
            raise ValueError("d1 must be nonnegative and finite")
        _check_time(_number(self.t_wait, "t_wait"), "t_wait")  # inf waits forever
        _p_catch(self.p_catch)

    def t1(self, scenario: Scenario) -> float:
        """Head start eroded while walking to the stop (minutes)."""
        return self.d1 * scenario.q

    def t_delta1(self, scenario: Scenario) -> float:
        """Break-even wait from the intermediate stop."""
        return scenario.t_delta - self.t1(scenario)


def _check_plan(scenario: Scenario, plan: WalkAndWaitPlan) -> None:
    if plan.d1 > scenario.d:
        raise ValueError("d1 cannot exceed the journey distance")


def prob_miss(
    scenario: Scenario, model: ArrivalModel, plan: WalkAndWaitPlan
) -> float:
    """Probability a bus passes before the intermediate stop is reached."""
    _check_plan(scenario, plan)
    return model.cdf(plan.t1(scenario))


def expected_tt_plan(
    scenario: Scenario, model: ArrivalModel, plan: WalkAndWaitPlan
) -> float:
    """Expected travel time of a walk-and-wait plan (minutes).

    A caught bus is clocked by its arrival at the starting point, so the
    caught, missed and boarded legs sum to one expression in F and M1 at t1
    and t1 + t_wait; with d1 = 0 it is expected_tt.
    """
    _check_plan(scenario, plan)
    return _walk_and_wait_tt(
        scenario, model, plan.t1(scenario), plan.t_wait, plan.p_catch, model.partial_mean
    )


def plan_gradient_tw(
    scenario: Scenario, model: ArrivalModel, plan: WalkAndWaitPlan
) -> GradientPair:
    """Derivatives of the plan's expected time in t_wait.

    The origin-stop gradient, shifted by t1 and with the reduced break-even
    wait t_delta1.
    """
    _check_plan(scenario, plan)
    return _wait_gradient(model, plan.t1(scenario) + plan.t_wait, plan.t_delta1(scenario))


def plan_gradient_d1(
    scenario: Scenario, model: ArrivalModel, plan: WalkAndWaitPlan
) -> float:
    """Derivative of the plan's expected time in d1 (minutes per km)."""
    _check_plan(scenario, plan)
    t1 = plan.t1(scenario)
    q = scenario.q
    return (
        q
        * q
        * (scenario.d - plan.d1)
        * ((1.0 - plan.p_catch) * model.density(t1) - model.density(t1 + plan.t_wait))
    )


def _vigilant_saving(scenario: Scenario, model: ArrivalModel) -> float:
    """Minutes a vigilant walk saves on walking, per unit of p_catch: the
    integral of (t_delta - tau) p(tau) over [0, t_delta], i.e. t_delta F - M1
    there."""
    td = scenario.t_delta
    return td * model.cdf(td) - model.partial_mean(td)


def expected_tt_walk_vigilant(
    scenario: Scenario, model: ArrivalModel, p_catch: float
) -> float:
    """Expected time when walking the whole way, alert for passing buses:
    the plan d1 = d with no terminal waiting.

    It is not always the best plan: where the density has a gap or a step,
    walking part-way and then waiting briefly can beat it.
    """
    return scenario.walk_time - _p_catch(p_catch) * _vigilant_saving(scenario, model)


def walk_vs_wait_advantage(
    scenario: Scenario, model: ArrivalModel, p_catch: float
) -> float:
    """Expected minutes saved by vigilant walking over waiting at the origin.

    Positive favours walking; equals expected_tt_wait_forever -
    expected_tt_walk_vigilant.
    """
    saving = _p_catch(p_catch) * _vigilant_saving(scenario, model)
    return model.mean() - scenario.t_delta + saving


def uniform_pc_threshold(headway_ratio: float) -> float | None:
    """Minimum catch probability for vigilant walking to beat waiting, for a
    uniform headway with ratio = headway / t_delta.

    Returns None when no probability in [0, 1] suffices (ratio below 1).
    """
    if not headway_ratio > 0.0:
        raise ValueError("headway ratio must be positive")
    if headway_ratio < 1.0:
        return None
    if headway_ratio > 2.0:
        return 0.0
    return 2.0 * headway_ratio - headway_ratio * headway_ratio
