"""Adaptive Simpson quadrature: right-continuous integrands, the partial-mean
fallback that rests on it, and the interval cap."""

import functools
import math
import sys
import threading
import time

import numpy as np
import pytest

from walkwait import PiecewiseLinearDensity
from walkwait.arrivals import ArrivalModel, _LinearDensity
from walkwait import quadrature
from walkwait.quadrature import QUAD_TOL, adaptive_simpson, integrate_piecewise

from _models import (
    FallbackPiecewise,
    QuadExponential,
    QuadLateBus,
    QuadUniform,
    Triangle,
    jumpy_knots,
    random_scenario,
)


def counted(f):
    """f wrapped, and the list of the points the wrapper was called at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


class TestRightEndIsTheLeftLimit:
    # right-continuous: at the jump the step already takes its new value
    @staticmethod
    def step(x):
        return 1.0 if x < 2.0 else 3.0

    def test_jump_at_a_listed_breakpoint(self):
        f, calls = counted(self.step)
        assert integrate_piecewise(f, 0.0, 5.0, (2.0,)) == pytest.approx(11.0, rel=1e-15)
        # 5 calls per piece: both ends, the midpoint and the two quarter points
        assert len(calls) <= 2 * 5
        assert math.nextafter(2.0, 0.0) in calls

    def test_jump_at_the_upper_limit(self):
        f, calls = counted(self.step)
        assert adaptive_simpson(f, 0.0, 2.0) == pytest.approx(2.0, rel=1e-15)
        assert len(calls) <= 5 and max(calls) == math.nextafter(2.0, 0.0)

    def test_smooth_integrand_keeps_its_accuracy(self):
        assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-11)
        assert integrate_piecewise(math.exp, 0.0, 3.0, (1.0, 2.0)) == pytest.approx(
            math.expm1(3.0), abs=1e-11
        )


class CountingLookup(PiecewiseLinearDensity):
    """The piecewise model on the quadrature fallback, counting its lookups."""

    partial_mean = ArrivalModel.partial_mean

    def __init__(self, knots):
        super().__init__(knots)
        self.lookups = 0

    def _at(self, t):
        self.lookups += 1
        return super()._at(t)


class TestPartialMeanFallback:
    def test_matches_the_table_on_random_jumpy_knots(self):
        # Simpson's rule is exact on tau p(tau), a quadratic on each piece,
        # so a piece costs 5 lookups whether or not p jumps at its ends.  The
        # exception is a narrow spike far from zero: its integrand is so
        # steep that rounding the node times alone moves the error estimate
        # past the piece's tolerance, so such a piece may refine, and its
        # error may pass QUAD_TOL a little (up to 1.6e-12 over seeds 0-11)
        rng = np.random.default_rng(10)
        lookups = pieces_total = spike_free = 0
        for _ in range(300):
            model = CountingLookup(jumpy_knots(rng, random_scenario(rng).t_delta))
            assert type(model).partial_mean is ArrivalModel.partial_mean
            end = model.support_end
            cuts = model.breakpoints()
            no_spike = min(np.diff(cuts)) >= 1e-2 * end
            spike_free += no_spike
            for t in list(cuts) + rng.uniform(0.0, 1.05 * end, 10).tolist():
                model.lookups = 0
                error = abs(model.partial_mean(t) - _LinearDensity.partial_mean(model, t))
                pieces = 1 + sum(0.0 < b < min(t, end) for b in cuts) if t < end else 0
                assert error <= (1.0 if no_spike else 2.0) * QUAD_TOL, (model, t)
                if no_spike:
                    assert model.lookups <= 5 * pieces, (model, t)
                lookups += model.lookups
                pieces_total += pieces
        assert spike_free >= 100
        assert lookups <= 5 * pieces_total

    DROP = [[0, 1], [4, 1], [4, .01], [100, .01]]

    def test_drop_costs_five_lookups_per_piece(self):
        # on a fresh model, which has integrated no piece yet
        for t, pieces in ((3.0, 1), (4.0, 1), (10.0, 2), (50.0, 2)):
            model = CountingLookup(self.DROP)
            assert model.partial_mean(t) == pytest.approx(
                _LinearDensity.partial_mean(model, t), abs=1e-12
            )
            assert model.lookups == 5 * pieces

    def test_a_reused_model_integrates_each_whole_piece_once(self):
        # t = 10 integrates the whole piece [0, 4] and keeps it, so t = 50
        # integrates only its last piece
        model = CountingLookup(self.DROP)
        for t, lookups in ((3.0, 5), (4.0, 5), (10.0, 10), (50.0, 5)):
            model.lookups = 0
            model.partial_mean(t)
            assert model.lookups == lookups, t


# each a way to build a fresh model on the quadrature fallback
FRESH_FALLBACKS = [
    *(functools.partial(FallbackPiecewise, jumpy_knots(np.random.default_rng(seed), 24.0))
      for seed in range(4)),
    functools.partial(QuadUniform, 30.0),
    functools.partial(QuadLateBus, 0.25, 4.0, 56.0),
    functools.partial(QuadExponential, 0.05),
    Triangle,
]


def from_zero(model, t):
    """M1(t) integrated from zero over every piece, with no sums kept."""
    if t >= model.support_end:
        return model.mean()
    return integrate_piecewise(
        lambda tau: tau * model._at(tau)[0], 0.0, min(t, model.quad_bound()), model.breakpoints()
    )


def query_times(model, seed):
    """0, each breakpoint and the float below it, random times and times
    past the support, shuffled."""
    rng = np.random.default_rng(seed)
    end = model.quad_bound()
    times = [0.0, 1.5 * end, math.inf] + rng.uniform(0.0, 1.1 * end, 12).tolist()
    for b in model.breakpoints():
        times += [b, math.nextafter(b, 0.0)]
    rng.shuffle(times)
    return times


class TestReusedModelKeepsItsBits:
    @pytest.mark.parametrize("fresh", FRESH_FALLBACKS)
    def test_each_answer_is_a_fresh_models(self, fresh):
        model = fresh()
        for t in query_times(model, 7):
            want = from_zero(model, t).hex()
            assert model.partial_mean(t).hex() == fresh().partial_mean(t).hex() == want, t

    @pytest.mark.parametrize("fresh", FRESH_FALLBACKS)
    def test_threads_racing_on_one_model(self, fresh):
        # a call that loses the race may only integrate a piece again
        model = fresh()
        times = [query_times(model, seed) for seed in range(4)]
        want = [[fresh().partial_mean(t).hex() for t in ts] for ts in times]
        assert want == [[from_zero(model, t).hex() for t in ts] for ts in times]
        got = [None] * len(times)
        start = threading.Barrier(len(times))

        def query(k):
            start.wait(60.0)
            got[k] = [model.partial_mean(t).hex() for t in times[k]]

        threads = [threading.Thread(target=query, args=(k,)) for k in range(len(times))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want


class TestRelativeTolerance:
    def test_partial_mean_at_a_time_scale_of_1e8_minutes(self):
        # rounding noise near M1 = 5e7 is far above an absolute 1e-12, which
        # once refined this to the interval cap, about 1.6 s; against M1
        # itself each piece is exact at once
        T = 1e9 / 7
        model = CountingLookup([[0, 0.3], [T / 2.7, 2.1], [T, 1.3]])
        start = time.perf_counter()
        m1 = model.partial_mean(0.77 * T)
        elapsed_ms = 1e3 * (time.perf_counter() - start)
        assert m1 == pytest.approx(_LinearDensity.partial_mean(model, 0.77 * T), rel=1e-12)
        assert model.lookups == 5 * 2
        assert elapsed_ms < 50.0


def test_empty_or_reversed_interval_is_zero():
    f, calls = counted(math.exp)
    assert adaptive_simpson(f, 1.0, 1.0) == adaptive_simpson(f, 2.0, 1.0) == 0.0
    assert calls == []


def test_interval_cap_raises(monkeypatch):
    def wild(x):
        return math.sin(1.0 / x) if x > 0.0 else 0.0

    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 1000)
    with pytest.raises(RuntimeError, match="interval cap"):
        adaptive_simpson(wild, 0.0, 1.0)
