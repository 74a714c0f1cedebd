"""Monte Carlo simulator: trajectory semantics, determinism, oracle checks."""

import functools
import math
import os
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest

from walkwait import (
    Exponential,
    LateBusMixture,
    PiecewiseLinearDensity,
    Scenario,
    Uniform,
    WaitForever,
    WaitThenWalk,
    WalkAndWait,
    WalkAndWaitPlan,
    WalkNow,
    analytic_expectation,
    estimate,
    expected_tt_plan,
)
from walkwait import mcsim
from walkwait.mcsim import CHUNK, _travel_times

from _models import random_model, random_scenario

S0 = Scenario(d=3.0, v_w=0.1, v_b=0.5)


class NoDraws(Uniform):
    """A uniform model whose sampler must not be reached."""

    def sample(self, rng, n):
        raise AssertionError("drew an arrival")


class ZeroDraws(Uniform):
    """A uniform model whose every bus comes at exactly 0, a draw the
    bundled samplers all but never make."""

    def sample(self, rng, n):
        return np.zeros(n)


class TestSimulateOnce:
    def test_walk_now_is_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert float(_travel_times(S0, Uniform(30.0), WalkNow(), rng, 1)[0]) == 30.0

    def test_zero_wait_never_boards(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = float(_travel_times(S0, Uniform(30.0), WaitThenWalk(0.0), rng, 1)[0])
            assert t == 30.0

    def test_zero_wait_never_boards_a_bus_at_time_zero(self):
        # the bus is boarded only if it comes strictly before the wait ends
        est = estimate(S0, ZeroDraws(30.0), WaitThenWalk(0.0), 1000, 0)
        assert (est.mean, est.stderr) == (S0.walk_time, 0.0) == (30.0, 0.0)

    def test_wait_forever_rides_the_bus(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = float(_travel_times(S0, Uniform(30.0), WaitForever(), rng, 1)[0])
            assert 6.0 <= t <= 36.0

    def test_caught_bus_clocked_from_starting_point(self):
        # certain catch while walking the full distance: travel time is the
        # bus's arrival at the origin plus the full ride
        plan = WalkAndWaitPlan(d1=3.0, t_wait=0.0, p_catch=1.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = float(_travel_times(S0, Uniform(30.0), plan, rng, 1)[0])
            if t != 30.0:  # caught: tau + 6 with tau < t_delta = 24
                assert 6.0 <= t < 30.0

    def test_walk_and_wait_branches(self):
        plan = WalkAndWaitPlan(d1=1.5, t_wait=5.0, p_catch=0.0)  # t1 = 12
        rng = np.random.default_rng(4)
        seen = set()
        for _ in range(500):
            t = float(_travel_times(S0, Uniform(30.0), plan, rng, 1)[0])
            if t == 30.0:
                seen.add("missed")  # bus passed, not caught
            elif t == 35.0:
                seen.add("gave_up")  # waited 5 min at the stop, then walked
            else:
                assert 18.0 <= t <= 23.0  # boarded at the stop
                seen.add("boarded")
        assert seen == {"missed", "gave_up", "boarded"}


class TestEstimate:
    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            estimate(S0, Uniform(30.0), WalkNow(), 1, 0)

    @pytest.mark.parametrize(
        "n, seed, message",
        [
            (1000.0, 0, "n must be an integer, got 1000.0"),
            (True, 0, "n must be an integer, got True"),
            (np.True_, 0, "n must be an integer, got "),
            (1000, 1.5, "seed must be an integer, got 1.5"),
            (1000, True, "seed must be an integer, got True"),
            (1000, "7", "seed must be an integer, got '7'"),
            (1000, -1, "seed must be nonnegative, got -1"),
        ],
    )
    def test_n_and_seed_rules_name_their_field(self, n, seed, message):
        with pytest.raises(ValueError) as info:
            estimate(S0, NoDraws(30.0), WaitForever(), n, seed)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("rate, n", [(2.3e-307, 10**5)])
    def test_overflowing_estimate_rejected(self, rate, n, monkeypatch):
        # near the largest float the chunk's sum overflows: a NaN is no
        # estimate, and scaling cannot mend the mean, so no chunk runs twice
        sizes = []
        monkeypatch.setattr(mcsim, "_travel_times", lambda *args: sizes.append(args[-1])
                            or _travel_times(*args))
        with pytest.raises(ValueError, match="overflows the floats"):
            estimate(S0, Exponential(rate), WaitForever(), n, 0)
        assert sorted(sizes) == sorted(min(CHUNK, n - start) for start in range(0, n, CHUNK))

    @pytest.mark.parametrize("n", [1000, 10**5, 3 * CHUNK])
    def test_squares_past_the_largest_float_are_scaled(self, n):
        # deviations of about 1e160 min square past the largest float: the
        # estimate scales them, and its stderr is the mean's, sigma / sqrt(n)
        model = Exponential(1e-160)
        result = estimate(S0, model, WaitForever(), n, 0)
        analytic = expected_tt_plan(S0, model, WaitForever())
        assert 0.0 < result.stderr < math.inf and result.n == n
        assert result.stderr == pytest.approx(1e160 / math.sqrt(n), rel=0.1)
        assert abs(result.mean - analytic) < 3.5 * result.stderr

    def test_scaled_estimate_matches_compensated_sums(self):
        # the reference scales the journeys by 2^-600, exactly, and sums
        # them and their squared deviations with math.fsum
        model, plan, n = Exponential(1e-160), WaitForever(), 3 * CHUNK
        result = estimate(S0, model, plan, n, 0)
        x = np.concatenate([
            _travel_times(S0, model, plan, np.random.default_rng([0, i]), CHUNK) for i in range(3)
        ]) * 2.0**-600
        mean = math.fsum(x) / n
        stderr = math.sqrt(math.fsum((x - mean) ** 2) / (n - 1) / n)
        assert result.mean == pytest.approx(mean * 2.0**600, rel=1e-14)
        assert result.stderr == pytest.approx(stderr * 2.0**600, rel=1e-12)

    def test_large_finite_estimate_accepted(self):
        result = estimate(S0, Exponential(1e-150), WaitForever(), 1000, 0)
        assert math.isfinite(result.mean) and 0.0 < result.stderr < math.inf

    def test_numpy_integers_count_as_integers(self):
        a = estimate(S0, Uniform(30.0), WaitForever(), 10_000, 5)
        b = estimate(S0, Uniform(30.0), WaitForever(), np.int64(10_000), np.uint32(5))
        assert a == b and type(b.n) is int

    def test_bit_identical_reruns(self):
        a = estimate(S0, Uniform(30.0), WaitForever(), 200_000, 123)
        b = estimate(S0, Uniform(30.0), WaitForever(), 200_000, 123)
        assert a == b

    def test_seed_changes_result(self):
        a = estimate(S0, Uniform(30.0), WaitForever(), 10_000, 1)
        b = estimate(S0, Uniform(30.0), WaitForever(), 10_000, 2)
        assert a.mean != b.mean

    def test_constant_strategy_zero_stderr(self):
        plan = WalkAndWaitPlan(d1=3.0, t_wait=0.0, p_catch=0.0)
        result = estimate(S0, Uniform(36.0), plan, 10_000, 0)
        assert result.mean == 30.0
        assert result.stderr == 0.0

    def test_wait_forever_uniform(self):
        result = estimate(S0, Uniform(30.0), WaitForever(), 10**6, 42)
        assert abs(result.mean - 21.0) < 3.0 * result.stderr

    def test_exponential_flatness(self):
        result = estimate(S0, Exponential(1.0 / 24.0), WaitThenWalk(12.0), 10**6, 7)
        assert abs(result.mean - 30.0) < 3.0 * result.stderr

    @pytest.mark.parametrize("t_wait", [0.0, 4.0, math.inf])
    def test_vigilant_walk(self, t_wait):
        # a walk to the destination ends the journey, whatever the wait
        plan = WalkAndWaitPlan(d1=3.0, t_wait=t_wait, p_catch=0.8)
        result = estimate(S0, Uniform(36.0), plan, 10**6, 11)
        assert abs(result.mean - 23.6) < 3.0 * result.stderr


class TestAnalyticExpectation:
    def test_matches_simulation_for_random_strategies(self):
        rng = np.random.default_rng(100)
        for _ in range(10):
            scenario = random_scenario(rng)
            model = random_model(rng)
            kind = rng.integers(0, 4)
            if kind == 0:
                strategy = WaitForever()
            elif kind == 1:
                strategy = WalkNow()
            elif kind == 2:
                strategy = WaitThenWalk(float(rng.uniform(0.0, 40.0)))
            else:
                strategy = WalkAndWaitPlan(
                    d1=float(rng.uniform(0.0, 1.0)) * scenario.d,
                    t_wait=float(rng.uniform(0.0, 30.0)),
                    p_catch=float(rng.uniform(0.0, 1.0)),
                )
            analytic = expected_tt_plan(scenario, model, strategy)
            result = estimate(scenario, model, strategy, 200_000, 314)
            if result.stderr < 1e-9:  # effectively constant trajectories
                assert result.mean == pytest.approx(analytic, abs=1e-9)
            else:
                assert abs(result.mean - analytic) < 4.0 * result.stderr


class TestStrategiesArePlans:
    def test_constructors_build_plans(self):
        assert WalkNow() == WalkAndWaitPlan(d1=0.0, t_wait=0.0, p_catch=0.0)
        assert WaitThenWalk(t_wait=7.0) == WalkAndWaitPlan(d1=0.0, t_wait=7.0, p_catch=0.0)
        assert WaitForever() == WalkAndWaitPlan(d1=0.0, t_wait=math.inf, p_catch=0.0)
        plan = WalkAndWaitPlan(d1=1.0, t_wait=2.0, p_catch=0.3)
        assert WalkAndWait(plan=plan) is plan
        assert analytic_expectation is expected_tt_plan

    def test_nan_wait_rejected(self):
        # a NaN wait would otherwise simulate to a NaN mean
        with pytest.raises(ValueError):
            WaitThenWalk(math.nan)

    def test_walk_now_exact_for_every_model(self):
        rng = np.random.default_rng(50)
        for _ in range(8):
            model = random_model(rng)
            result = estimate(S0, model, WalkNow(), 70_000, 3)
            assert result.mean == 30.0
            assert result.stderr == 0.0
            assert expected_tt_plan(S0, model, WalkNow()) == 30.0

    def test_walk_then_wait_forever(self):
        plan = WalkAndWaitPlan(d1=1.5, t_wait=math.inf, p_catch=0.5)  # t1 = 12
        analytic = expected_tt_plan(S0, Uniform(30.0), plan)
        assert analytic == pytest.approx(24.6, abs=1e-12)
        result = estimate(S0, Uniform(30.0), plan, 200_000, 17)
        assert abs(result.mean - analytic) < 4.0 * result.stderr


MODELS = [
    Uniform(30.0),
    Exponential(1.0 / 24.0),
    LateBusMixture(still_coming_prob=0.4, late_window=4.0, next_headway_offset=25.0),
    PiecewiseLinearDensity([(0.0, 0.0), (5.0, 1.0), (5.0, 0.2), (20.0, 0.6), (30.0, 0.0)]),
]


def by_hand(tau, plan, rng):
    """One journey with arrival tau, in the documented draw order: one
    uniform for the catch, only when the bus passes the walking leg."""
    t1 = plan.t1(S0)
    if tau < t1:
        return tau + S0.bus_time if rng.random() < plan.p_catch else S0.walk_time
    if tau < t1 + plan.t_wait:
        return tau + S0.bus_time
    return S0.walk_time + plan.t_wait


def position_and_clock(scenario, model, plan, n, seed):
    """Mean and standard error of n journeys followed in place and time, with
    no head start t1, wait end T or pricing: the bus leaves the origin at tau
    at speed v_b, and the walker at 0 at speed v_w.  The bus overtakes the
    walker at tau / q, before the stop if that is short of d1; a walker it
    passes rides it if caught and otherwise, as there is one bus, walks on
    to d.  The journey ends on reaching d, so a stop at d has no wait."""
    d, v_w, v_b, d1 = scenario.d, scenario.v_w, scenario.v_b, plan.d1
    rng = np.random.default_rng(seed)
    tau = np.asarray(model.sample(rng, n), dtype=float)
    overtaken = tau / scenario.q < d1
    caught = overtaken & (rng.random(n) < plan.p_catch)
    leave = d1 / v_w + (plan.t_wait if d1 < d else 0.0)  # the walker leaves the stop
    boards = ~overtaken & (tau + d1 / v_b < leave)
    times = np.where(caught | boards, tau + d / v_b,
                     np.where(overtaken, d / v_w, leave + (d - d1) / v_w))
    return times.mean(), times.std(ddof=1) / math.sqrt(n)


# (3, 4, 0.8) walks to the destination, where the journey ends: no wait
ORACLE_PLANS = [WalkNow(), WaitForever(), WaitThenWalk(5.0), WalkAndWaitPlan(1.25, 2.0, 0.5),
                WalkAndWaitPlan(2.9, 4.0, 0.8), WalkAndWaitPlan(3.0, 0.0, 0.8),
                WalkAndWaitPlan(1.0, math.inf, 0.5), WalkAndWaitPlan(3.0, 4.0, 0.8)]


class TestPositionAndClock:
    @pytest.mark.parametrize(
        "j", range(len(ORACLE_PLANS)),
        ids=[f"{p.d1}-{p.t_wait}-{p.p_catch}" for p in ORACLE_PLANS])
    @pytest.mark.parametrize("i", range(len(MODELS)), ids=[type(m).__name__ for m in MODELS])
    def test_oracle_agrees_with_the_plan_price(self, i, j):
        # |z| stayed below 2.7 over five seeds per case; priced as a wait at
        # the destination, the plan (3, 4, 0.8) gave z from -11 to -83
        model, plan = MODELS[i], ORACLE_PLANS[j]
        mean, stderr = position_and_clock(S0, model, plan, 1 << 18, [i, j])
        analytic = expected_tt_plan(S0, model, plan)
        # a walk-now plan walks every journey: no spread, and the exact time
        assert abs(mean - analytic) < 3.5 * stderr or mean == analytic


class TestBranchFreeSelects:
    @pytest.mark.parametrize("w, lo, hi", [(0.0, 25.0, 29.0), (1.0, 0.0, 4.0)])
    def test_late_bus_windows(self, w, lo, hi):
        # nobody still coming: every draw is in the late window; everybody:
        # every draw is in the early one
        model = LateBusMixture(still_coming_prob=w, late_window=4.0, next_headway_offset=25.0)
        draws = model.sample(np.random.default_rng(21), 100_000)
        assert ((draws >= lo) & (draws <= hi)).all()

    @pytest.mark.parametrize("model", MODELS)
    def test_huge_finite_wait_rides_like_waiting_forever(self, model):
        a = _travel_times(S0, model, WaitThenWalk(1e300), np.random.default_rng(5), 50_000)
        b = _travel_times(S0, model, WaitForever(), np.random.default_rng(5), 50_000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("t_wait", [4.0, math.inf])
    @pytest.mark.parametrize("model", MODELS)
    def test_a_walk_to_the_destination_boards_nothing_after_arrival(self, model, t_wait):
        # the journey ends at d: the journeys of any wait there are the no-wait ones
        plans = [WalkAndWaitPlan(3.0, wait, 0.8) for wait in (t_wait, 0.0)]
        a, b = (_travel_times(S0, model, plan, np.random.default_rng(6), 50_000) for plan in plans)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("model", MODELS)
    def test_draw_order_replayed_by_hand(self, model):
        # one arrival per journey, then one uniform per journey whose bus
        # passes the walking leg, in journey order
        plan = WalkAndWaitPlan(d1=1.5, t_wait=5.0, p_catch=0.4)  # t1 = 12
        rng = np.random.default_rng(9)
        got = _travel_times(S0, model, plan, rng, 20_000)
        replay = np.random.default_rng(9)
        tau = model.sample(replay, 20_000)
        assert 0 < (tau < plan.t1(S0)).sum() < tau.size
        expected = [by_hand(t, plan, replay) for t in tau]
        assert np.array_equal(got, np.array(expected))
        assert rng.random() == replay.random()  # the same number of draws


class TestImpossiblePlan:
    # S0 is 3 km long: a plan cannot walk 5 km of it
    PLAN = WalkAndWaitPlan(d1=5.0, t_wait=3.0, p_catch=0.5)

    def test_estimate_rejects_before_any_draw(self):
        with pytest.raises(ValueError, match="d1"):
            estimate(S0, NoDraws(30.0), self.PLAN, 1000, 1)

    def test_simulate_once_rejects_before_any_draw(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="d1"):
            _travel_times(S0, NoDraws(30.0), self.PLAN, rng, 1)
        assert rng.bit_generator.state == state


# the four strategy kinds of the kernel: no wait end and no walking leg, no
# walking leg, a finite wait, and a walking leg with a chance of a catch
STRATEGIES = [WalkNow(), WaitForever(), WaitThenWalk(5.0), WalkAndWaitPlan(1.0, 3.0, 0.5)]
# float.hex of (mean, stderr) of estimate(S0, model, strategy, PINNED_N, 2024),
# a row per model of MODELS and a column per strategy of STRATEGIES
PINNED_N = 2 * CHUNK + 17  # two whole chunks and a partial one
PINNED = [
    [
        ("0x1.e000000000000p+4", "0x0.0p+0"),
        ("0x1.4f95b2f337373p+4", "0x1.86f29ff4008cfp-6"),
        ("0x1.e9cef63148d4bp+4", "0x1.be7316114efcep-6"),
        ("0x1.bc5ddc0df8c66p+4", "0x1.8aa1f01bdc461p-6"),
    ],
    [
        ("0x1.e000000000000p+4", "0x0.0p+0"),
        ("0x1.dfe1ea524cd70p+4", "0x1.10d5358fdec1cp-4"),
        ("0x1.e0310af20b5e8p+4", "0x1.d6943e7a3e55bp-6"),
        ("0x1.bcd171cf69ff0p+4", "0x1.8e31796cb2d32p-6"),
    ],
    [
        ("0x1.e000000000000p+4", "0x0.0p+0"),
        ("0x1.6b3b733a6cfbbp+4", "0x1.1db5d5713af0bp-5"),
        ("0x1.7e68759d78bc3p+4", "0x1.33297a25cc3cfp-5"),
        ("0x1.b3b54f089930fp+4", "0x1.c7ca1159307f2p-6"),
    ],
    [
        ("0x1.e000000000000p+4", "0x0.0p+0"),
        ("0x1.3f5b1460c9a68p+4", "0x1.587eed9f49f2cp-6"),
        ("0x1.d6c29db02e49ap+4", "0x1.df83298e69097p-6"),
        ("0x1.be5586df565a3p+4", "0x1.883d7804974fbp-6"),
    ],
]


def pinned_cases(models=MODELS):
    return [
        pytest.param(model, strategy, PINNED[i][j], id=f"{type(model).__name__}-{j}")
        for i, model in enumerate(models)
        for j, strategy in enumerate(STRATEGIES)
    ]


class TestPinnedStream:
    """Every estimate bit for bit: a change of one ulp anywhere in a
    sampler or the kernel, or of one draw, shows here."""

    @pytest.mark.parametrize("model, strategy, pinned", pinned_cases())
    def test_estimate_is_bit_identical(self, model, strategy, pinned):
        result = estimate(S0, model, strategy, PINNED_N, 2024)
        assert (result.mean.hex(), result.stderr.hex()) == pinned
        assert result.n == PINNED_N


class ReadOnlyDraws(Uniform):
    """Hands out its draws read-only."""

    def sample(self, rng, size=None):
        draws = super().sample(rng, size)
        draws.flags.writeable = False
        return draws


class CachedDraws(Uniform):
    """Draws into one array it keeps and hands out on every call, as a
    sampler that reuses its buffer might."""

    @functools.cached_property
    def buffer(self):
        return np.empty(CHUNK)

    def sample(self, rng, size=None):
        draws = self.buffer[:size]
        rng.random(out=draws)
        draws *= self.headway
        return draws


class TestSamplerArraysAreOnlyRead:
    @pytest.mark.parametrize("model, strategy, pinned", pinned_cases([ReadOnlyDraws(30.0)]))
    def test_read_only_draws(self, model, strategy, pinned):
        result = estimate(S0, model, strategy, PINNED_N, 2024)
        assert (result.mean.hex(), result.stderr.hex()) == pinned

    @pytest.mark.parametrize("model, strategy, pinned", pinned_cases([CachedDraws(30.0)]))
    def test_cached_draws(self, model, strategy, pinned):
        result = estimate(S0, model, strategy, PINNED_N, 2024)
        assert (result.mean.hex(), result.stderr.hex()) == pinned
        # the buffer still holds the draws of the last two chunks, as drawn
        tail = Uniform(30.0).sample(np.random.default_rng([2024, 2]), 17)
        before = Uniform(30.0).sample(np.random.default_rng([2024, 1]), CHUNK)
        assert np.array_equal(model.buffer[:17], tail)
        assert np.array_equal(model.buffer[17:], before[17:])


class TestSimulateOnceEveryModel:
    @pytest.mark.parametrize("model", MODELS[1:], ids=lambda model: type(model).__name__)
    def test_one_journey_replays_the_scalar_draw(self, model):
        # one journey is an array of one: the one draw sample(rng, 1)[0]
        # from the same stream
        plan = WalkAndWaitPlan(d1=1.5, t_wait=5.0, p_catch=0.4)  # t1 = 12
        outcomes = set()
        for k in range(200):
            rng, replay = np.random.default_rng(k), np.random.default_rng(k)
            got = float(_travel_times(S0, model, plan, rng, 1)[0])
            tau = float(model.sample(replay, 1)[0])
            assert type(got) is float
            expected = by_hand(tau, plan, replay)
            assert got == expected
            assert rng.random() == replay.random()  # the same number of draws
            outcomes.add("walked" if got == S0.walk_time else "rode" if got < 35.0 else "gave up")
        assert len(outcomes) >= 2


# the traced peak of one estimate in chunk-sized float arrays, a row per model
# of MODELS and a column per strategy of STRATEGIES[1:]: the previous chunk's
# journeys are alive while the next chunk's arrivals are drawn, and the
# piecewise sampler gathers each per-piece column where it reads it
WORKING_SET = [[3.0, 4.25, 4.25], [3.0, 4.25, 4.25], [3.25, 4.25, 4.25], [5.0, 5.0, 5.0]]
# the estimate's small Python objects and numpy's bookkeeping
WORKING_SET_SLACK = 0.05


@pytest.fixture
def helpers(monkeypatch):
    """Sets the helper threads an estimate of enough chunks starts, through
    the CPU count it reads."""

    def set_helpers(count):
        monkeypatch.setattr(mcsim, "_cpus", lambda: count + 1)

    return set_helpers


@pytest.fixture
def started(monkeypatch):
    """The helper threads that estimates start, in order."""
    threads = []

    def thread(*args, **kwargs):
        threads.append(threading.Thread(*args, **kwargs))
        return threads[-1]

    monkeypatch.setattr(mcsim, "threading", types.SimpleNamespace(Thread=thread))
    return threads


def traced_peak(model, strategy):
    """The traced peak of estimate(S0, model, strategy, PINNED_N, 2024), in
    chunk-sized float arrays."""
    estimate(S0, model, strategy, 1000, 0)  # builds the model's tables
    tracemalloc.start()
    try:
        estimate(S0, model, strategy, PINNED_N, 2024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * CHUNK)


WORKING_SET_CASES = [
    pytest.param(model, strategy, WORKING_SET[i][j], id=f"{type(model).__name__}-{j + 1}")
    for i, model in enumerate(MODELS)
    for j, strategy in enumerate(STRATEGIES[1:])
]


class TestWorkingSet:
    @pytest.mark.parametrize("model, strategy, arrays", WORKING_SET_CASES)
    def test_estimate_peak_in_chunk_arrays(self, model, strategy, arrays, helpers):
        helpers(0)
        chunks = traced_peak(model, strategy)
        # at least the draws and the journeys: numpy reports its arrays
        assert chunks >= 2.0
        assert chunks <= arrays + WORKING_SET_SLACK

    @pytest.mark.parametrize("model, strategy, arrays", WORKING_SET_CASES)
    def test_each_chunk_in_flight_adds_one_working_set(self, model, strategy, arrays, helpers):
        # two chunks in flight, the caller's and one helper's: each holds at
        # most one chunk's set, so the peak depends on how the two interleave
        # but never passes twice the set (8.02 arrays at most on the
        # piecewise model, and 6.52 on the others, over 20 runs of each)
        helpers(1)
        chunks = traced_peak(model, strategy)
        assert chunks >= 2.0
        assert chunks <= 2 * arrays + WORKING_SET_SLACK


def chunk_index(rng):
    """The chunk an estimate's generator was keyed for."""
    return rng.bit_generator.seed_seq.entropy[1]


@pytest.fixture
def runs(monkeypatch):
    """(chunk index, the thread that ran it), in the order estimates run
    their chunks; the calling thread sleeps 10 ms before each of its chunks,
    so that its helpers take the others."""
    record = []
    caller = threading.get_ident()

    def slowed(scenario, model, plan, rng, size):
        record.append((chunk_index(rng), threading.get_ident()))
        if threading.get_ident() == caller:
            time.sleep(0.01)
        return _travel_times(scenario, model, plan, rng, size)

    monkeypatch.setattr(mcsim, "_travel_times", slowed)
    return record


def helper_ran(runs):
    return any(thread != threading.get_ident() for _, thread in runs)


class TestUsableCpus:
    def test_every_cpu_where_the_os_keeps_no_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert mcsim._cpus() == 5

    def test_one_cpu_where_the_os_cannot_count_them(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert mcsim._cpus() == 1


class TestHelperThreads:
    """The chunks of one estimate, on the calling thread and its helpers:
    the same bits, errors and warnings as on one thread."""

    @pytest.mark.parametrize("count", [0, 1, 3])
    @pytest.mark.parametrize("model, strategy, pinned", pinned_cases())
    def test_pinned_stream_for_any_helper_count(self, model, strategy, pinned, count, helpers):
        # three helpers are more than the partial estimate's other chunks
        helpers(count)
        result = estimate(S0, model, strategy, PINNED_N, 2024)
        assert (result.mean.hex(), result.stderr.hex()) == pinned

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=range(len(STRATEGIES)))
    @pytest.mark.parametrize("model", MODELS, ids=lambda model: type(model).__name__)
    def test_a_million_journeys_for_any_helper_count(self, model, strategy, helpers):
        bits = set()
        for count in (0, 1, 3):
            helpers(count)
            result = estimate(S0, model, strategy, 10**6, 99)
            bits.add((result.mean.hex(), result.stderr.hex()))
        assert len(bits) == 1

    def test_more_threads_than_cpus_run_each_chunk_once(self, helpers, runs):
        # eight threads on one shared iterator, switching every microsecond:
        # a chunk handed out twice, or lost, shows in the record
        helpers(0)
        expected = estimate(S0, MODELS[3], STRATEGIES[3], 32 * CHUNK, 7)
        runs.clear()
        helpers(7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = estimate(S0, MODELS[3], STRATEGIES[3], 32 * CHUNK, 7)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(chunk for chunk, _ in runs) == list(range(32))
        assert helper_ran(runs)
        assert result == expected

    def test_helpers_start_for_bundled_samplers(self, helpers, started, runs):
        helpers(3)
        result = estimate(S0, Uniform(30.0), WaitForever(), PINNED_N, 2024)
        assert (result.mean.hex(), result.stderr.hex()) == PINNED[0][1]
        assert len(started) == 2  # one per chunk past the caller's
        assert sorted(chunk for chunk, _ in runs) == [0, 1, 2]
        assert helper_ran(runs)

    def test_a_wrapped_sampler_keeps_its_helpers(self, helpers, started, monkeypatch):
        # a tracer wraps methods with functools.wraps: the wrapper is no
        # sampler of another module
        sample = Uniform.sample

        @functools.wraps(sample)
        def wrapped(self, rng, n):
            return sample(self, rng, n)

        monkeypatch.setattr(Uniform, "sample", wrapped)
        helpers(3)
        estimate(S0, Uniform(30.0), WaitForever(), PINNED_N, 2024)
        assert len(started) == 2

    def test_one_chunk_starts_no_thread(self, helpers, started):
        helpers(3)
        estimate(S0, Uniform(30.0), WaitForever(), CHUNK, 2024)
        assert started == []

    @pytest.mark.parametrize("model, strategy, pinned", pinned_cases([CachedDraws(30.0)]))
    def test_own_sampler_runs_on_one_thread(self, model, strategy, pinned, helpers, started):
        helpers(3)
        result = estimate(S0, model, strategy, PINNED_N, 2024)
        assert (result.mean.hex(), result.stderr.hex()) == pinned
        assert started == []

    def test_overflow_in_a_helper_is_the_estimate_error(self, helpers, runs):
        # numpy's error state is per thread: a helper that did not ignore
        # the overflow would warn, an error under the suite's filter
        helpers(1)
        before = threading.active_count()
        with pytest.raises(ValueError, match="overflows the floats"):
            estimate(S0, Exponential(2.3e-307), WaitForever(), 3 * CHUNK, 0)
        assert threading.active_count() == before
        assert helper_ran(runs)

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_the_lowest_failing_chunk_raises(self, count, helpers, monkeypatch):
        # chunk 5 fails last: the chunks after it fail at once, on the
        # other threads, while it sleeps
        def failing(scenario, model, plan, rng, size):
            if chunk_index(rng) == 5:
                time.sleep(0.02)
            if chunk_index(rng) >= 5:
                raise RuntimeError(f"chunk {chunk_index(rng)}")
            return _travel_times(scenario, model, plan, rng, size)

        monkeypatch.setattr(mcsim, "_travel_times", failing)
        helpers(count)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^chunk 5$"):
            estimate(S0, Uniform(30.0), WaitForever(), 16 * CHUNK, 0)
        assert threading.active_count() == before

    def test_an_interrupted_caller_stops_the_hand_out(self, helpers, monkeypatch):
        ran = []
        caller = threading.get_ident()

        def interrupted(scenario, model, plan, rng, size):
            if threading.get_ident() == caller:
                raise KeyboardInterrupt
            ran.append(chunk_index(rng))
            time.sleep(0.01)
            return _travel_times(scenario, model, plan, rng, size)

        monkeypatch.setattr(mcsim, "_travel_times", interrupted)
        helpers(1)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            estimate(S0, Uniform(30.0), WaitForever(), 16 * CHUNK, 0)
        assert threading.active_count() == before
        # the helper's chunks end with the one it held
        assert len(ran) < 15
