"""Monte Carlo journey simulator: the independent check on every analytic
expectation in the package.

Estimates are chunked, with one RNG substream per chunk keyed by (seed,
chunk index), so results are bit-identical for a fixed seed no matter how
the chunks would be distributed across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrivals import ArrivalModel
from .expectation import Scenario
from .intermediate import WalkAndWaitPlan, _check_plan, expected_tt_plan

CHUNK = 1 << 16

# every strategy is a walk-and-wait plan; the names below build the simple ones
Strategy = WalkAndWaitPlan


def WaitForever() -> WalkAndWaitPlan:
    return WalkAndWaitPlan(d1=0.0, t_wait=math.inf, p_catch=0.0)


def WalkNow() -> WalkAndWaitPlan:
    return WalkAndWaitPlan(d1=0.0, t_wait=0.0, p_catch=0.0)


def WaitThenWalk(t_wait: float) -> WalkAndWaitPlan:
    return WalkAndWaitPlan(d1=0.0, t_wait=t_wait, p_catch=0.0)


def WalkAndWait(plan: WalkAndWaitPlan) -> WalkAndWaitPlan:
    return plan


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    stderr: float
    n: int


def simulate_once(
    scenario: Scenario,
    model: ArrivalModel,
    strategy: Strategy,
    rng: np.random.Generator,
) -> float:
    """One journey's travel time in minutes.

    Draw order is fixed: the bus arrival first, then (only when a bus passes
    during the walking leg of the plan) one uniform for the catch.
    """
    _check_plan(scenario, strategy)
    return float(_travel_times(scenario, model, strategy, rng, 1)[0])


def _travel_times(
    scenario: Scenario,
    model: ArrivalModel,
    strategy: Strategy,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    # the bus is boarded at the stop iff it arrives strictly before the wait
    # ends, so a zero wait never boards
    tau = np.asarray(model.sample(rng, size), dtype=float)
    t1 = strategy.t1(scenario)
    end = t1 + strategy.t_wait
    # each select is x * keep + y * ~keep: exact, and without branches
    out = tau + scenario.bus_time
    if end < math.inf:
        board = tau < end
        out *= board
        out += (scenario.walk_time + strategy.t_wait) * ~board
    if t1 > 0.0:  # there is a walking leg
        # a bus passing it is ridden from the origin if caught; otherwise
        # the whole distance is walked
        legs = np.flatnonzero(tau < t1)
        if legs.size:
            caught = rng.random(legs.size) < strategy.p_catch
            rides = out[legs]
            rides *= caught
            rides += scenario.walk_time * ~caught
            out[legs] = rides
    return out


def estimate(
    scenario: Scenario,
    model: ArrivalModel,
    strategy: Strategy,
    n: int,
    seed: int,
) -> SimEstimate:
    """Mean travel time over n independent journeys, with its standard error.

    Deterministic for a fixed (n, seed).
    """
    if n < 2:
        raise ValueError("need at least two samples")
    _check_plan(scenario, strategy)
    total_n = 0
    mean = 0.0
    m2 = 0.0
    for chunk_idx, start in enumerate(range(0, n, CHUNK)):
        size = min(CHUNK, n - start)
        rng = np.random.default_rng([seed, chunk_idx])
        x = _travel_times(scenario, model, strategy, rng, size)
        c_mean = float(x.mean())
        c_m2 = float(((x - c_mean) ** 2).sum())
        # Chan et al. pairwise merge
        delta = c_mean - mean
        new_n = total_n + size
        m2 += c_m2 + delta * delta * total_n * size / new_n
        mean += delta * size / new_n
        total_n = new_n
    stderr = math.sqrt(m2 / (total_n - 1) / total_n)
    return SimEstimate(mean=mean, stderr=stderr, n=total_n)


def analytic_expectation(
    scenario: Scenario, model: ArrivalModel, strategy: Strategy
) -> float:
    """The analytic expectation matching a simulated strategy."""
    return expected_tt_plan(scenario, model, strategy)
