"""Walk-and-wait plans: walk to an intermediate stop, maybe catch a bus
en route, then wait there for a bounded time.

While walking a distance d1 the traveller's head start over the bus shrinks
by t1 = d1 * q minutes; a bus passing in that window is caught with
probability p_catch.  Caught-bus travel times are clocked by the bus's
arrival at the *starting* point, since the arrival density refers to a fixed
point on the route.  There is one bus: a walker it passes and who does not
catch it walks on to the destination, with no wait at the stop.  A stop at
the destination ends the journey: the plan (d, t_wait, p_catch) is the
vigilant walk for every t_wait.

Every strategy is a plan: walking now is (0, 0, 0), waiting up to W minutes
at the origin is (0, W, 0) and waiting forever is (0, inf, 0).  Each plan
input has one rule, which the plan and every curve row apply in one order:
``_d1``, ``arrivals._check_time`` (a wait is a time), ``_probability``, then
``_head_start`` (d1 lies in the journey), which forms every head start t1;
the plan stores the floats the first three return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arrivals import ArrivalModel, _check_time, _number, _probability, _tie
from .expectation import Scenario, _walk_and_wait


def _d1(value) -> float:
    """value as a walked distance; booleans, NaN, inf and negatives are rejected."""
    d1 = _number(value, "d1")
    if not 0.0 <= d1 < math.inf:
        raise ValueError("d1 must be nonnegative and finite")
    return d1


def _head_start(scenario: Scenario, d1: float) -> float:
    """t1 = d1 * q, for a d1 that lies in the journey."""
    if d1 > scenario.d:
        raise ValueError("d1 cannot exceed the journey distance")
    return d1 * scenario.q


@dataclass(frozen=True)
class WalkAndWaitPlan:
    """Walk d1 km (catching a passing bus with probability p_catch), then
    wait up to t_wait minutes at the intermediate stop."""

    d1: float
    t_wait: float
    p_catch: float

    def __post_init__(self):
        self.__dict__.update(d1=_d1(self.d1), t_wait=_check_time(self.t_wait, "t_wait"),
                             p_catch=_probability(self.p_catch, "p_catch"))

    def t1(self, scenario: Scenario) -> float:
        """Head start eroded while walking to the stop (minutes); d1 must lie in the journey."""
        return _head_start(scenario, self.d1)


def expected_tt_plan(
    scenario: Scenario, model: ArrivalModel, plan: WalkAndWaitPlan
) -> float:
    """Expected travel time of a walk-and-wait plan (minutes).

    A caught bus is clocked by its arrival at the starting point, so the
    caught, missed and boarded legs sum to one expression in F and M1 at t1
    and t1 + t_wait; with d1 = 0 it is expected_tt.
    """
    return plan_curve_d1(scenario, model, [plan.d1], plan.t_wait, plan.p_catch)[0][1]


def plan_gradient_tw(scenario: Scenario, model: ArrivalModel, plan: WalkAndWaitPlan) -> float:
    """dE/dt_wait of the plan: R(T) - (t_delta - t1) p(T) at T = t1 + t_wait, the
    origin's E' shifted by t1, with the break-even wait from the stop, t_delta - t1."""
    t1 = plan.t1(scenario)
    p, _, R = model.at(t1 + plan.t_wait)
    return R - (scenario.t_delta - t1) * p


def plan_curve_d1(
    scenario: Scenario, model: ArrivalModel, d1s, t_wait: float, p_catch: float
) -> list[tuple]:
    """Rows (d1, E, dE/dd1) of the plans (d1, t_wait, p_catch) for each d1,
    in any order: E is expected_tt_plan's value, bit for bit, and

        dE/dd1 = q^2 (d - d1) ((1 - p_catch) p(t1) - p(T))

    is formed from the lookups of E, so each row reads t1 and T = t1 + t_wait
    once.  At d1 = d, where the walk ends the journey, E is the vigilant
    walk's, whatever the wait, and the slope is 0, its limit from below.
    Each row is checked as its plan is, and fails with the same message;
    with no rows, the shared t_wait and p_catch are still checked.  A plan's
    dE/dd1 (minutes per km) is the slope of its one-row curve.
    """
    q = scenario.q
    rows = []
    for d1 in d1s:
        d1 = _d1(d1)
        if not rows:  # every row shares its wait and p_catch: check them once
            t_wait, p_catch = _check_time(t_wait, "t_wait"), _probability(p_catch, "p_catch")
        t1 = _head_start(scenario, d1)
        if d1 == scenario.d:  # test d1, not t1 = d1 * q, which rounds apart from t_delta
            rows.append((d1, vigilant_curve(scenario, model, [p_catch])[0][1], 0.0))
            continue
        e, p, _, p1 = _walk_and_wait(scenario, model, t1, t_wait, p_catch)
        if p1 is None:  # t1 = 0 < T, where E reads nothing at t1
            p1 = model.density(t1)
        rows.append((d1, e, q * q * (scenario.d - d1) * ((1.0 - p_catch) * p1 - p)))
    if not rows:  # no row checked the shared wait and p_catch
        _check_time(t_wait, "t_wait")
        _probability(p_catch, "p_catch")
    return rows


def expected_tt_walk_vigilant(
    scenario: Scenario, model: ArrivalModel, p_catch: float
) -> float:
    """Expected time when walking the whole way, alert for passing buses:
    the plan (d, t_wait, p_catch) for any t_wait, as a stop at d has no wait.

    It is not always the best plan: where the density has a gap or a step,
    walking part-way and then waiting briefly can beat it.
    """
    return vigilant_curve(scenario, model, [p_catch])[0][1]


def vigilant_curve(scenario: Scenario, model: ArrivalModel, p_catches) -> list[tuple]:
    """Rows (p_catch, E, advantage) for each catch probability: E is the
    vigilant walk's expected time and the advantage the minutes it saves over
    waiting forever, expected_tt at t_wait = inf minus E, so a positive
    advantage favours walking.  The saving per unit of p_catch, the integral
    of (t_delta - tau) p(tau) over [0, t_delta], is found once."""
    td = scenario.t_delta
    saving = td * model.cdf(td) - model.partial_mean(td)
    walk = scenario.walk_time
    advantage = model.mean() - td
    rows = []
    for p in p_catches:
        p = _probability(p, "p_catch")
        rows.append((p, walk - p * saving, advantage + p * saving))
    return rows


def vigilant_threshold(scenario: Scenario, model: ArrivalModel) -> float | None:
    """Least p_catch at which a vigilant walk beats waiting at the origin: 0.0 if it ties
    or wins at 0, None if it does not win at 1 (both by ``_tie``), else the line's root."""
    (_, _, a0), (_, _, a1) = vigilant_curve(scenario, model, [0.0, 1.0])
    if _tie(a0, scenario.t_delta) != "wait":
        return 0.0
    return a0 / (a0 - a1) if _tie(a1, scenario.t_delta) == "walk" else None
