"""Monte Carlo journey simulator: the independent check on every analytic
expectation in the package.

Estimates are chunked, with one RNG substream per chunk keyed by (seed,
chunk index), so results are bit-identical for a fixed seed no matter how
the chunks would be distributed across workers.

Each chunk works in place, and only in arrays the kernel allocated: the
arrival times a model's ``sample`` returns are read, never written, since a
sampler may hand out a cached or read-only array.  The bundled samplers
scale and blend their own fresh draws in place, and the piecewise sampler
gathers each per-piece column at the line that reads it, so a chunk's peak is
about five chunk-sized arrays on a piecewise model and three to four and a
quarter on the others, the previous chunk's journeys included.  Two cuts were
measured and left out: ``np.putmask`` for the boarding blend made an
estimate 1.1-1.4x slower, and releasing the previous chunk's journeys before
the next draw more than tripled the page faults of an estimate without pinned
malloc thresholds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .arrivals import ArrivalModel
from .expectation import Scenario
from .intermediate import WalkAndWaitPlan, expected_tt_plan

CHUNK = 1 << 16


# every strategy is a walk-and-wait plan; the names below build the simple ones
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
    plan: WalkAndWaitPlan,
    rng: np.random.Generator,
) -> float:
    """One journey's travel time in minutes.

    Draw order is fixed: the bus arrival first, then (only when a bus passes
    during the walking leg of the plan) one uniform for the catch.
    """
    return float(_travel_times(scenario, model, plan, rng, 1)[0])


def _travel_times(
    scenario: Scenario,
    model: ArrivalModel,
    plan: WalkAndWaitPlan,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    # t1 rejects a d1 past the journey before any draw; the bus is boarded at
    # the stop iff it arrives strictly before the wait ends, so a zero wait never boards
    t1 = plan.t1(scenario)
    tau = np.asarray(model.sample(rng, size), dtype=float)
    end = t1 + plan.t_wait
    # out is the one array written: tau may be the sampler's own, cached or
    # read-only
    out = tau + scenario.bus_time
    if end < math.inf:
        # boarded or not: out * board + (walk + wait) * ~board, an exact
        # select without branches
        board = tau < end
        out *= board
        out += (scenario.walk_time + plan.t_wait) * np.logical_not(board, out=board)
    if t1 > 0.0:  # there is a walking leg
        # a bus passing it is ridden from the origin if caught; otherwise
        # the whole distance is walked
        legs = np.flatnonzero(tau < t1)
        out[legs.compress(rng.random(legs.size) >= plan.p_catch)] = scenario.walk_time
    return out


def _integer(value, name: str) -> int:
    """value as an int; booleans and non-integers, 1000.0 too, are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _sample_count(n) -> int:
    """n as an int of at least 2, the fewest journeys with a standard error."""
    n = _integer(n, "n")
    if n < 2:
        raise ValueError("need at least two samples")
    return n


def _seed(seed) -> int:
    """seed as an int of at least 0, as an RNG seed sequence takes it."""
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return seed


def estimate(
    scenario: Scenario,
    model: ArrivalModel,
    plan: WalkAndWaitPlan,
    n: int,
    seed: int,
) -> SimEstimate:
    """Mean travel time over n independent journeys, with its standard error.

    Deterministic for a fixed (n, seed); n is an integer of at least 2 and
    seed one of at least 0.  Raises ValueError when the mean or its standard
    error is not finite: the squared deviations of travel times past about
    1.3e154 min, or the sums of times near the largest float, overflow.
    """
    n = _sample_count(n)
    seed = _seed(seed)
    total_n = 0
    mean = 0.0
    m2 = 0.0
    # an overflow leaves inf or nan in the sums, which the check below
    # rejects, rather than a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk_idx, start in enumerate(range(0, n, CHUNK)):
            size = min(CHUNK, n - start)
            rng = np.random.default_rng([seed, chunk_idx])
            x = _travel_times(scenario, model, plan, rng, size)
            c_mean = float(x.mean())
            # the squared deviations, in place: x is _travel_times' own array
            x -= c_mean
            x *= x
            c_m2 = float(x.sum())
            # Chan et al. pairwise merge
            delta = c_mean - mean
            new_n = total_n + size
            m2 += c_m2 + delta * delta * total_n * size / new_n
            mean += delta * size / new_n
            total_n = new_n
    stderr = math.sqrt(m2 / (total_n - 1) / total_n)
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise ValueError(
            f"the estimate overflows the floats (mean {mean}, stderr {stderr}):"
            " the model's arrival times are too large to simulate"
        )
    return SimEstimate(mean=mean, stderr=stderr, n=total_n)


# the analytic value an estimate checks is the plan's own expectation
analytic_expectation = expected_tt_plan
