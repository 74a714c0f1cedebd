"""Bus arrival-time distributions.

Each model exposes the density p(t), the CDF F(t), the survival function
R(t) = 1 - F(t) = Pr{bus not yet arrived by t}, the partial mean
M1(t) = integral of tau p(tau) over [0, t], the appearance rate
lambda(t) = p(t)/R(t) together with its slope, the mean arrival time, and
seeded sampling for the simulator.  Every expected travel time in the
package is linear in F and M1.  Time is measured in minutes throughout.

Each model states p, p' and F once, in ``_at``; the base class derives the
rest, and ``at`` hands the expectation layer all of p, p', F and R from one
lookup.  ``Uniform``, ``LateBusMixture`` and ``PiecewiseLinearDensity`` are
linear on each of a few pieces and list them once; ``_LinearDensity`` builds
one table from them, which gives ``_at``, the mean, the breakpoints and, in
closed form, M1 and the roots of E' (the piecewise model still integrates M1
and scans for the roots).
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate_piecewise

# absolute tolerance of the quadrature fallback for the partial mean
QUAD_TOL = 1e-12
# |1/t_delta - rate| below which E' counts as zero rather than as a sign
FLAT_TOL = 1e-12


class UndefinedRateError(ValueError):
    """Appearance rate requested where the survival function is zero."""


def _check_time(t: float, name: str = "time") -> float:
    """t as a float; NaN and negative values are rejected, inf is allowed."""
    t = float(t)
    if not t >= 0.0:
        raise ValueError(f"{name} must be nonnegative, got {t}")
    return t


def _number(value, name: str) -> float:
    """value as a float; booleans and non-numbers are rejected."""
    # int and float first: the abstract numbers.Real check is slow
    if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


class ArrivalModel(ABC):
    """A bus arrival-time distribution on a subset of [0, inf).

    Subclasses implement ``support_end``, ``_at``, ``mean`` and ``sample``;
    density, slope, CDF, survival and appearance rate all come from ``_at``.
    """

    @property
    @abstractmethod
    def support_end(self) -> float:
        """Upper end of the support (math.inf for unbounded models)."""

    @abstractmethod
    def _at(self, t: float) -> tuple[float, float, float]:
        """(p(t), p'(t), F(t)) at a checked time t >= 0; p and p' are zero
        outside the support and right-continuous at kinks."""

    @abstractmethod
    def mean(self) -> float:
        """Expected arrival time."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, size=None):
        """Draw arrival times; deterministic given the generator state."""

    def partial_mean(self, t: float) -> float:
        """M1(t) = integral of tau p(tau) over [0, t].

        Default is adaptive quadrature split at the breakpoints; models with
        a closed form override it.
        """
        t = _check_time(t)
        if t >= self.support_end:
            return self.mean()
        return integrate_piecewise(
            lambda tau: tau * self.density(tau),
            0.0,
            min(t, self.quad_bound()),
            self.breakpoints(),
            QUAD_TOL,
        )

    def breakpoints(self) -> tuple[float, ...]:
        """Times where the density or its slope is discontinuous."""
        return ()

    def at(self, t: float) -> tuple[float, float, float, float]:
        """(p(t), p'(t), F(t), R(t)) from one lookup; R is ``survival(t)``
        bit for bit. Raises on NaN and negative t.

        A subclass that overrides ``survival`` overrides this too.
        """
        p, slope, F = self._at(_check_time(t))
        return p, slope, F, 1.0 - F

    def density(self, t: float) -> float:
        """p(t); zero outside the support. Raises on negative t."""
        return self._at(_check_time(t))[0]

    def density_slope(self, t: float) -> float:
        """p'(t), right-continuous at kinks."""
        return self._at(_check_time(t))[1]

    def cdf(self, t: float) -> float:
        """F(t) = Pr{arrival <= t}."""
        return self._at(_check_time(t))[2]

    def survival(self, t: float) -> float:
        return 1.0 - self._at(_check_time(t))[2]

    def appearance_rate(self, t: float) -> float:
        t = _check_time(t)
        p, _, F = self._at(t)
        r = 1.0 - F
        if r <= 0.0:
            raise UndefinedRateError(f"survival is zero at t={t}")
        return p / r

    def appearance_rate_slope(self, t: float) -> float:
        """lambda'(t) = p'(t) / R(t) + lambda(t)^2."""
        rate = self.appearance_rate(t)
        return self.density_slope(t) / self.survival(t) + rate * rate

    def sign_changes(self, t_delta: float, end: float) -> list[tuple[float, str]] | None:
        """Where E'(t) = R(t) - t_delta p(t) changes sign in (0, end), as
        (t, kind) pairs sorted by t; None when the model has no closed form,
        and the optimizer scans instead.

        kind is "minimum" where E' goes from negative to positive, "maximum"
        the other way, and "flat" (alone, at t = 0) where E' is zero
        throughout.
        """
        return None

    def is_kink(self, t: float, tol: float = 1e-9) -> bool:
        return any(abs(t - k) <= tol for k in self.breakpoints())

    def quad_bound(self) -> float:
        """Finite time beyond which remaining mass is negligible."""
        return self.support_end


class _LinearDensity(ArrivalModel):
    """A density that is linear on each piece of one table, built once by
    ``_tabulate``: a row (t0, t1, y0, y1, F(t0), width, slope, M1(t0)) per
    piece of positive width, which every other member reads."""

    def _tabulate(self, segments) -> None:
        """Build the table from (t0, t1, y0, y1) segments that tile the
        support in order; segments of zero width (jumps) add no row."""
        pieces = []
        cum = moment = 0.0
        for t0, t1, y0, y1 in segments:
            if t1 > t0:
                width = t1 - t0
                pieces.append((t0, t1, y0, y1, cum, width, (y1 - y0) / width, moment))
                cum += 0.5 * (y0 + y1) * width
                # the piece's moment in local coordinates, t0 * mass + the
                # integral of x p(t0 + x), so narrow pieces far from zero
                # lose no precision; width^2 is never formed, so it cannot
                # overflow where the moment does not
                moment += width * (t0 * 0.5 * (y0 + y1) + width * (y0 + 2.0 * y1) / 6.0)
        # object.__setattr__ also sets them on frozen dataclasses
        object.__setattr__(self, "_pieces", pieces)
        object.__setattr__(self, "_starts", [piece[0] for piece in pieces])
        object.__setattr__(self, "_breakpoints", (*self._starts, pieces[-1][1]))
        object.__setattr__(self, "_moment", moment)

    @property
    def support_end(self) -> float:
        return self._breakpoints[-1]

    def _at(self, t):
        # the pieces tile [first start, support end) with no gap
        i = bisect.bisect_right(self._starts, t) - 1
        if i < 0:
            return 0.0, 0.0, 0.0
        t0, t1, y0, y1, cum, width, slope, _ = self._pieces[i]
        if t >= t1:
            return 0.0, 0.0, 1.0
        x = t - t0
        return y0 + (y1 - y0) * x / width, slope, cum + y0 * x + 0.5 * slope * x * x

    def partial_mean(self, t):
        t = _check_time(t)
        i = bisect.bisect_right(self._starts, t) - 1
        if i < 0:
            return 0.0
        t0, t1, y0, _, _, _, slope, moment = self._pieces[i]
        if t >= t1:
            return self._moment
        x = t - t0
        # t0 * mass on [t0, t] + integral of x p(t0 + x), as in _tabulate
        return moment + x * (t0 * (y0 + 0.5 * slope * x) + x * (0.5 * y0 + slope * x / 3.0))

    def mean(self):
        return self._moment

    def breakpoints(self):
        return self._breakpoints

    def sign_changes(self, t_delta, end):
        """On a piece, in local x = t - t0, E' = R - t_delta p is the polynomial
        g(x) = (R0 - t_delta y0) - (y0 + t_delta s) x - (s/2) x^2.  A root
        where g rises is a minimum, one where it falls a maximum; a tangent
        root is no sign change.  At a row start t0 where the density jumps,
        E' goes from R0 - t_delta y1 of the row before to g(0): a change from
        negative to positive is a minimum at t0, the other way is dropped, as
        the scan drops it.  Roots where R <= 1e-15 are dropped too."""
        changes = []
        y_below = 0.0  # the density just below the row start
        for t0, t1, y0, y1, F0, _, s, _ in self._pieces:
            stop = min(t1, end)
            if not t0 < stop:
                break
            c = (1.0 - F0) - t_delta * y0
            if (1.0 - F0) - t_delta * y_below < 0.0 < c and 1.0 - F0 > 1e-15:
                changes.append((t0, "minimum"))
            y_below = y1
            b = y0 + t_delta * s
            if s == 0.0:
                roots = [(c / b, "maximum" if b > 0.0 else "minimum")] if b != 0.0 else []
            else:
                disc = b * b + 2.0 * s * c
                if not disc > 0.0:
                    continue
                # the two roots of (s/2) x^2 + b x - c, in the form with no cancellation
                q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
                # g opens downward when s > 0: it rises through the lower root
                kinds = ("minimum", "maximum") if s > 0.0 else ("maximum", "minimum")
                roots = zip(sorted((2.0 * q / s, -c / q)), kinds)
            for x, kind in roots:
                t = t0 + x
                if t0 < t < stop and 1.0 - (F0 + x * (y0 + 0.5 * s * x)) > 1e-15:
                    changes.append((t, kind))
        return changes


@dataclass(frozen=True)
class Uniform(_LinearDensity):
    """Punctual service with unknown phase: arrival uniform on [0, headway]."""

    headway: float

    def __post_init__(self):
        if not 0.0 < _number(self.headway, "headway") < math.inf:
            raise ValueError("headway must be positive and finite")
        h = float(self.headway)
        self._tabulate([(0.0, h, 1.0 / h, 1.0 / h)])

    def sample(self, rng, size=None):
        # the draws of rng.uniform(0, headway, size), without its scaling loop
        return rng.random(size) * self.headway


@dataclass(frozen=True)
class Exponential(ArrivalModel):
    """Poisson arrivals: constant appearance rate."""

    rate: float

    def __post_init__(self):
        if not 0.0 < _number(self.rate, "rate") < math.inf:
            raise ValueError("rate must be positive and finite")

    @property
    def support_end(self) -> float:
        return math.inf

    def _at(self, t):
        r = self.rate
        e = math.exp(-r * t)
        return r * e, -r * r * e, -math.expm1(-r * t)

    def at(self, t):
        # R is the exact e^-rt, as in survival, not 1 - F
        t = _check_time(t)
        r = self.rate
        e = math.exp(-r * t)
        return r * e, -r * r * e, -math.expm1(-r * t), e

    def survival(self, t):
        t = _check_time(t)
        return math.exp(-self.rate * t)

    def appearance_rate(self, t):
        _check_time(t)
        return self.rate

    def appearance_rate_slope(self, t):
        _check_time(t)
        return 0.0

    def sign_changes(self, t_delta, end):
        # the rate is constant: E' keeps one sign or is zero throughout
        return [(0.0, "flat")] if abs(1.0 / t_delta - self.rate) < FLAT_TOL else []

    def partial_mean(self, t):
        t = _check_time(t)
        if math.isinf(t):
            return self.mean()
        # (1 - e^-x (1 + x)) / rate with x = rate * t; expm1 keeps the
        # leading 1 from cancelling when x is tiny
        x = self.rate * t
        return (-math.expm1(-x) - x * math.exp(-x)) / self.rate

    def mean(self):
        return 1.0 / self.rate

    def sample(self, rng, size=None):
        # the draws of rng.exponential(1 / rate, size), without its scaling loop
        return rng.standard_exponential(size) * (1.0 / self.rate)

    def quad_bound(self):
        # survival ~ 4e-18 here, far below every tolerance in use
        return 40.0 / self.rate


@dataclass(frozen=True)
class LateBusMixture(_LinearDensity):
    """Arriving after the scheduled time of a possibly-late bus.

    With probability ``still_coming_prob`` the current bus is still on its
    way, arriving with a decreasing triangular density on [0, late_window];
    otherwise it already passed and the next bus arrives uniformly on
    [next_headway_offset, next_headway_offset + late_window].  The triangular
    head gives a falling appearance rate over the first window.
    """

    still_coming_prob: float
    late_window: float
    next_headway_offset: float

    def __post_init__(self):
        if not 0.0 <= _number(self.still_coming_prob, "still_coming_prob") <= 1.0:
            raise ValueError("still_coming_prob must lie in [0, 1]")
        if not 0.0 < _number(self.late_window, "late_window") < math.inf:
            raise ValueError("late_window must be positive and finite")
        offset = _number(self.next_headway_offset, "next_headway_offset")
        if not self.late_window < offset < math.inf:
            raise ValueError("next_headway_offset must be finite and exceed late_window")
        w, L, H = map(float, (self.still_coming_prob, self.late_window, offset))
        tail = (1.0 - w) / L
        # the triangular head, the gap, the uniform tail
        self._tabulate([(0.0, L, 2.0 * w / L, 0.0), (L, H, 0.0, 0.0), (H, H + L, tail, tail)])

    def sample(self, rng, size=None):
        w, L, H = self.still_coming_prob, self.late_window, self.next_headway_offset
        coming = np.atleast_1d(rng.random(size)) < w
        u = np.atleast_1d(rng.random(size))
        early = L * (1.0 - np.sqrt(1.0 - u))  # inverse triangular CDF
        late = H + L * u
        # early * coming + late * ~coming: an exact select without branches
        early *= coming
        late *= ~coming
        early += late
        if size is None:
            return float(early[0])
        return early


class PiecewiseLinearDensity(_LinearDensity):
    """Density given by linear interpolation between knots, auto-normalized.

    Knots are (time, density) pairs with nondecreasing times; a repeated time
    encodes a jump.  The knot densities are scaled at construction so the
    total mass is one.
    """

    # M1 by quadrature and E' roots by the scan, not from the table, until a
    # benchmark self-test stops pinning both (ROADMAP item 1)
    partial_mean = ArrivalModel.partial_mean
    sign_changes = ArrivalModel.sign_changes

    def __init__(self, knots):
        knots = [(_number(t, "knot time"), _number(y, "knot density")) for t, y in knots]
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        ts = [t for t, _ in knots]
        ys = [y for _, y in knots]
        if not all(math.isfinite(v) for v in ts + ys):
            raise ValueError("knot times and densities must be finite")
        if ts[0] < 0.0:
            raise ValueError("knot times must be nonnegative")
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("knot times must be nondecreasing")
        if any(y < 0.0 for y in ys):
            raise ValueError("knot densities must be nonnegative")
        total = sum(
            0.5 * (y0 + y1) * (t1 - t0)
            for (t0, y0), (t1, y1) in zip(knots, knots[1:])
        )
        if total <= 0.0:
            raise ValueError("knot densities integrate to zero; cannot normalize")
        self._ts = ts
        self._ys = [y / total for y in ys]
        self._tabulate(zip(ts, ts[1:], self._ys, self._ys[1:]))

    @functools.cached_property
    def _columns(self):
        """Per-piece (t0, width, y0, slope, cdf at t0) as arrays, built on
        the first draw, so models that are never sampled skip the cost."""
        t0, _, y0, _, cum, width, slope, _ = (np.array(column) for column in zip(*self._pieces))
        return t0, width, y0, slope, cum

    @functools.cached_property
    def _guide(self):
        """Indexed-search table for the inverse CDF, built on the first draw.

        Returns (edges, cells, guide): ``edges`` is the CDF at every piece
        start plus 1.0; ``guide[k]`` is the piece of every u in the cell
        [k, k + 1) / cells when one piece covers the whole cell, else -1.
        """
        edges = np.append(self._columns[4], 1.0)
        last = len(self._pieces) - 1
        # a power of two, so floor(u * cells) is exact
        cells = min(1 << (64 * len(self._pieces) - 1).bit_length(), 1 << 16)
        guide = np.minimum(
            np.searchsorted(edges, np.arange(cells) / cells, side="right") - 1, last
        )
        # the piece of u never falls as u grows, so the piece at the next
        # cell's start bounds it
        guide[guide != np.append(guide[1:], last)] = -1
        return edges, cells, guide

    def _piece_index(self, u):
        """Piece holding each CDF value u in [0, 1):
        searchsorted(edges, u, "right") - 1, clamped to the last piece."""
        edges, cells, guide = self._guide
        idx = np.take(guide, (u * cells).astype(np.intp))
        # the few draws in a cell that spans a piece edge: full search
        split = np.flatnonzero(idx < 0)
        if split.size:
            idx[split] = np.minimum(
                np.searchsorted(edges, u[split], side="right") - 1, len(self._pieces) - 1
            )
        return idx

    def sample(self, rng, size=None):
        u = np.atleast_1d(rng.random(size))
        idx = self._piece_index(u)
        t0, width, y0, slope, cum = (np.take(column, idx) for column in self._columns)
        # x in [0, width] solves y0*x + slope/2 * x^2 = m, in the form that
        # has no cancellation and no division by the slope:
        # x = 2m / (y0 + sqrt(y0^2 + 2*slope*m))
        m = np.subtract(u, cum, out=u)
        root = slope
        root *= m
        root *= 2.0
        root += y0 * y0
        np.maximum(root, 0.0, out=root)
        np.sqrt(root, out=root)
        root += y0
        # zero only where m = 0 or on a zero-mass piece (reached through the
        # rounding of the cumulative mass); dividing by 1 there gives x = 2m
        root += root == 0.0
        m *= 2.0
        m /= root
        np.minimum(m, width, out=m)
        m += t0
        if size is None:
            return float(m[0])
        return m

    def __repr__(self):
        return f"PiecewiseLinearDensity({list(zip(self._ts, self._ys))})"


def model_from_config(config: dict) -> ArrivalModel:
    """Build a model from a dict with a `kind` discriminator.

    The model constructors reject booleans, strings and non-finite values.
    """
    if not isinstance(config, dict):
        raise ValueError("model config must be an object")
    kind = config.get("kind")
    if kind == "uniform":
        return Uniform(headway=config["headway"])
    if kind == "exponential":
        return Exponential(rate=config["rate"])
    if kind == "late_bus_mixture":
        fields = ("still_coming_prob", "late_window", "next_headway_offset")
        return LateBusMixture(**{f: config[f] for f in fields})
    if kind == "piecewise":
        return PiecewiseLinearDensity(config["knots"])
    raise ValueError(f"unknown model kind: {kind!r}")
