"""Monte Carlo journey simulator: the independent check on every analytic
expectation in the package.

Estimates are chunked, with one RNG substream per chunk keyed by (seed,
chunk index), and the chunks' means and sums of squared deviations are
merged in chunk order, so results are bit-identical for a fixed seed however
the chunks are spread over threads.  ``estimate`` runs them on the calling
thread and one helper thread per further CPU the process may use, at most
one per chunk; numpy releases the GIL in the draws, the kernel and the
reductions.  A one-chunk estimate starts no thread, and neither does a model
whose ``sample`` is defined outside ``walkwait.arrivals``, as
``ArrivalModel.sample`` states: another sampler may hand every call one
cached array, which two chunks in flight would share.

Each chunk works in place, and only in arrays the kernel allocated: the
arrival times a model's ``sample`` returns are read, never written, as its
contract allows a cached or read-only array.  The bundled samplers
scale and blend their own fresh draws in place, and the piecewise sampler
gathers each per-piece column at the line that reads it, so a chunk's peak is
about five chunk-sized arrays on a piecewise model and three to four and a
quarter on the others, the calling thread's previous journeys included; each
chunk in flight on a helper adds at most one more such set.  Two cuts were
measured and left out: ``np.putmask`` for the boarding blend made an
estimate 1.1-1.4x slower, and releasing the previous chunk's journeys before
the next draw more than tripled the page faults of an estimate without pinned
malloc thresholds.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
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


def _travel_times(
    scenario: Scenario,
    model: ArrivalModel,
    plan: WalkAndWaitPlan,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    # t1 rejects a d1 past the journey before any draw; the bus is boarded at
    # the stop iff it arrives strictly before the wait ends, so a zero wait
    # never boards, and a walk to the destination ends the journey: no wait
    t1 = plan.t1(scenario)
    tau = np.asarray(model.sample(rng, size), dtype=float)
    t_wait = 0.0 if plan.d1 == scenario.d else plan.t_wait
    end = t1 + t_wait
    # out is the one array written: tau may be the sampler's own, cached or
    # read-only
    out = tau + scenario.bus_time
    if end < math.inf:
        # boarded or not: out * board + (walk + wait) * ~board, an exact
        # select without branches
        board = tau < end
        out *= board
        out += (scenario.walk_time + t_wait) * np.logical_not(board, out=board)
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


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    keeps one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bundled_sampler(model: ArrivalModel) -> bool:
    """True when the model's ``sample`` is a bundled one, which returns a
    fresh array per call.  Judged by the defining module, which a
    ``functools.wraps`` wrapper keeps."""
    return type(model).sample.__module__ == ArrivalModel.__module__


def _run_chunks(chunk, chunks: int, helpers: int) -> list:
    """The results of chunk(0), ..., chunk(chunks - 1), run on the calling
    thread and ``helpers`` helper threads, which all take indices from one
    iterator.  chunk(i) returns (result, journeys).  The caller keeps its
    last journeys alive through its next chunk, as the one-thread loop
    always has: freed first, their pages went back to the OS and faulted in
    again.  A helper frees them at once, which keeps each helper's malloc
    arena one array smaller.

    A failure stops the hand-out and, once every helper has joined, the
    exception of the lowest failing chunk is raised: every chunk below a
    handed-out one was handed out first, so that chunk always runs.  An
    interrupt of the calling thread also stops the hand-out and is raised
    after the joins.
    """
    indices = iter(range(chunks))
    results = [None] * chunks
    failed = {}  # chunk index: its exception

    def work(helper: bool):
        for i in indices:
            try:
                results[i], journeys = chunk(i)
                if helper:
                    del journeys
            except (BaseException if helper else Exception) as exc:
                failed[i] = exc
                for _ in indices:  # hand out no more chunks
                    pass

    threads = [threading.Thread(target=work, args=(True,)) for _ in range(helpers)]
    for thread in threads:
        thread.start()
    try:
        work(False)
    finally:
        for _ in indices:
            pass
        for thread in threads:
            thread.join()
    if failed:
        raise failed[min(failed)]
    return results


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
    error is not finite, as where sums of times near the largest float overflow.
    """
    n = _sample_count(n)
    seed = _seed(seed)
    sizes = [min(CHUNK, n - start) for start in range(0, n, CHUNK)]

    def chunk(chunk_idx, scale):
        rng = np.random.default_rng([seed, chunk_idx])
        # an overflow leaves inf or nan in the sums, which the check below
        # rejects, rather than a warning; each thread starts from numpy's
        # default error state
        with np.errstate(over="ignore", invalid="ignore"):
            x = _travel_times(scenario, model, plan, rng, sizes[chunk_idx])
            c_mean = float(x.mean())
            # the squared deviations, in place: x is _travel_times' own array
            x -= c_mean
            x *= scale
            x *= x
            return (c_mean * scale, float(x.sum())), x

    helpers = min(len(sizes), _cpus()) - 1 if _bundled_sampler(model) else 0
    for scale in (1.0, 2.0**-600):  # where the squares overflow, run again scaled exactly
        total_n, mean, m2 = 0, 0.0, 0.0
        results = _run_chunks(lambda i: chunk(i, scale), len(sizes), helpers)
        # Chan et al. pairwise merge, in chunk order
        for size, (c_mean, c_m2) in zip(sizes, results):
            delta = c_mean - mean
            new_n = total_n + size
            m2 += c_m2 + delta * delta * total_n * size / new_n
            mean += delta * size / new_n
            total_n = new_n
        if m2 < math.inf or not math.isfinite(mean):  # scaling cannot mend the mean
            break
    mean, stderr = mean / scale, math.sqrt(m2 / (total_n - 1) / total_n) / scale
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise ValueError(
            f"the estimate overflows the floats (mean {mean}, stderr {stderr}):"
            " the model's arrival times are too large to simulate"
        )
    return SimEstimate(mean=mean, stderr=stderr, n=total_n)


# the analytic value an estimate checks is the plan's own expectation
analytic_expectation = expected_tt_plan
