"""Expected travel time under a wait-then-walk policy, and its slope in the wait.

The traveller waits up to ``t_wait`` minutes for a bus, boarding if it comes,
and otherwise walks the whole way.  ``t_wait = math.inf`` means wait forever;
``t_wait = 0`` means walk immediately.  ``arrivals._check_time``, the one
rule for a time, checks every wait, a plan's and a curve row's too: NaN,
negatives, booleans and strings are rejected.
``Scenario`` keeps its checked floats and the journey times worked from them.

Every expectation here and in :mod:`walkwait.intermediate` is one expression
in the model's CDF F, its survival R = 1 - F and its partial mean M1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arrivals import ArrivalModel, _check_time, _positive


@dataclass(frozen=True)
class Scenario:
    """Journey distance d (km) and the two speeds v_w and v_b (km/min).

    The journey is worked out once: ``walk_time`` d/v_w, ``bus_time`` d/v_b,
    the break-even wait ``t_delta`` = walk_time - bus_time and the pace
    difference ``q`` = 1/v_w - 1/v_b (min/km).  Each of d, v_w, v_b, t_delta
    and q must lie in (0, inf): stated on t_delta and q rather than as
    v_w < v_b, the rule also rejects what rounding makes 0, inf or NaN.
    """

    d: float
    v_w: float
    v_b: float
    walk_time: float = field(init=False, repr=False, compare=False)
    bus_time: float = field(init=False, repr=False, compare=False)
    t_delta: float = field(init=False, repr=False, compare=False)
    q: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d, v_w, v_b = (_positive(getattr(self, name), name) for name in ("d", "v_w", "v_b"))
        walk, bus = d / v_w, d / v_b
        t_delta, q = walk - bus, 1.0 / v_w - 1.0 / v_b
        _positive(q, "q = 1/v_w - 1/v_b")
        _positive(t_delta, "t_delta = d/v_w - d/v_b")
        for name, value in zip(("d", "v_w", "v_b", "walk_time", "bus_time", "t_delta", "q"),
                               (d, v_w, v_b, walk, bus, t_delta, q)):
            object.__setattr__(self, name, value)


def _walk_and_wait(scenario, model, t1, t_wait, p_catch) -> tuple:
    """Expected time of walking until the head start over the bus has shrunk
    by t1 minutes (catching a passing bus with probability p_catch), then
    waiting up to t_wait.  With T = t1 + t_wait:

        bus F(T) + M1(T) + R(T) (walk + t_wait)
            + (1 - p_catch) (t_delta F(t1) - M1(t1)).

    Returns (E, p(T), R(T), p(t1)): E with the density and survival it
    looked up, so a caller can form a derivative without a second lookup.
    Each distinct time is read once, by one ``at`` and one ``partial_mean``.
    Waiting at the origin is t1 = 0, where the last term is exactly +0.0 and
    is skipped, and p(t1) is None unless T is 0 too.  An infinite T waits
    forever: E reads the mean, and p(T) = R(T) = 0.
    """
    end = t1 + t_wait
    if math.isfinite(end):
        p, F, R = model.at(end)
        m = model.partial_mean(end)
        e = scenario.bus_time * F + m + R * (scenario.walk_time + t_wait)
    else:
        p = R = 0.0
        e = scenario.bus_time + model.mean()
    p1 = p if end == t1 else None  # with no wait, T is t1
    if t1 > 0.0:
        if p1 is None:
            p1, F, _ = model.at(t1)
            m = model.partial_mean(t1)
        e += (1.0 - p_catch) * (scenario.t_delta * F - m)
    return e, p, R, p1


def expected_tt(scenario: Scenario, model: ArrivalModel, t_wait: float) -> float:
    """Expected travel time (minutes) when waiting up to t_wait, then walking:
    E(W) = bus F(W) + M1(W) + R(W) (walk + W), with M1 from the model's
    partial_mean.  At t_wait = inf, waiting forever, it is bus + mean.
    """
    return _walk_and_wait(scenario, model, 0.0, _check_time(t_wait, "wait time"), 0.0)[0]


def expected_tt_curve(scenario: Scenario, model: ArrivalModel, waits) -> list[tuple]:
    """Rows (W, E(W), E'(W)) for each wait W, in any order: E is
    expected_tt's value, bit for bit, and E' = R(W) - t_delta p(W) is formed
    from the lookups of E, so each row reads its wait once.  Each wait is
    checked as expected_tt checks it.
    """
    td = scenario.t_delta
    rows = []
    for w in waits:
        w = _check_time(w, "wait time")
        e, p, R, _ = _walk_and_wait(scenario, model, 0.0, w, 0.0)
        rows.append((w, e, R - td * p))
    return rows
