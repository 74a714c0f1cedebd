"""Bus arrival-time distributions.

Each model exposes the density p(t), the CDF F(t), the survival function
R(t) = 1 - F(t) = Pr{bus not yet arrived by t}, the partial mean
M1(t) = integral of tau p(tau) over [0, t], the appearance rate
lambda(t) = p(t)/R(t) together with its slope, the mean arrival time, and
seeded sampling for the simulator.  Every expected travel time in the
package is linear in F and M1.  Time is measured in minutes throughout.

Each model states p, p' and F once, in ``_at``; the base class derives the
rest, and ``at`` hands the expectation layer all of p, p', F and R from one
lookup.  Subclasses implement ``support_end``, ``_at``, ``mean`` and ``sample``
and may override ``partial_mean``, ``breakpoints``, ``quad_bound`` and
``sign_changes``, which gives the optimizer the roots of E' in closed form.
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


def _linear_sign_changes(pieces, t_delta: float, end: float) -> list[tuple[float, str]]:
    """Sign changes of E' in (0, end) for a density that is linear on each
    of ``pieces``, given in order as (t0, t1, y0, slope, F(t0)).

    In local x = t - t0, E' = R - t_delta p is the polynomial
    g(x) = (R0 - t_delta y0) - (y0 + t_delta s) x - (s/2) x^2.  A root where
    g rises is a minimum, one where it falls a maximum; a tangent root is no
    sign change.  Roots where R <= 1e-15 are dropped, as the scan drops them.
    """
    changes = []
    for t0, t1, y0, s, F0 in pieces:
        stop = min(t1, end)
        if not t0 < stop:
            break
        c = (1.0 - F0) - t_delta * y0
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


@dataclass(frozen=True)
class Uniform(ArrivalModel):
    """Punctual service with unknown phase: arrival uniform on [0, headway]."""

    headway: float

    def __post_init__(self):
        if not 0.0 < _number(self.headway, "headway") < math.inf:
            raise ValueError("headway must be positive and finite")

    @property
    def support_end(self) -> float:
        return self.headway

    def _at(self, t):
        if t < self.headway:
            return 1.0 / self.headway, 0.0, t / self.headway
        return 0.0, 0.0, 1.0

    def appearance_rate(self, t):
        t = _check_time(t)
        if t >= self.headway:
            raise UndefinedRateError(f"survival is zero at t={t}")
        return 1.0 / (self.headway - t)

    def sign_changes(self, t_delta, end):
        h = self.headway
        return _linear_sign_changes([(0.0, h, 1.0 / h, 0.0, 0.0)], t_delta, end)

    def partial_mean(self, t):
        w = min(_check_time(t), self.headway)
        return w * w / (2.0 * self.headway)

    def mean(self):
        return self.headway / 2.0

    def sample(self, rng, size=None):
        # the draws of rng.uniform(0, headway, size), without its scaling loop
        return rng.random(size) * self.headway

    def breakpoints(self):
        return (0.0, self.headway)


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
class LateBusMixture(ArrivalModel):
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

    @property
    def support_end(self) -> float:
        return self.next_headway_offset + self.late_window

    def _at(self, t):
        w, L, H = self.still_coming_prob, self.late_window, self.next_headway_offset
        if t < L:
            u = t / L
            return w * 2.0 * (L - t) / (L * L), -2.0 * w / (L * L), w * (2.0 * u - u * u)
        if t < H:
            return 0.0, 0.0, w
        if t < H + L:
            return (1.0 - w) / L, 0.0, w + (1.0 - w) * (t - H) / L
        return 0.0, 0.0, 1.0

    def sign_changes(self, t_delta, end):
        w, L, H = self.still_coming_prob, self.late_window, self.next_headway_offset
        pieces = [
            (0.0, L, 2.0 * w / L, -2.0 * w / (L * L), 0.0),  # the triangular head
            (L, H, 0.0, 0.0, w),
            (H, H + L, (1.0 - w) / L, 0.0, w),  # the uniform tail
        ]
        return _linear_sign_changes(pieces, t_delta, end)

    def partial_mean(self, t):
        t = _check_time(t)
        w, L, H = self.still_coming_prob, self.late_window, self.next_headway_offset
        u = min(t, L) / L  # progress through the triangular head
        late = min(max(t - H, 0.0), L)  # time spent in the uniform tail
        return w * L * u * u * (1.0 - 2.0 * u / 3.0) + (1.0 - w) * late * (H + 0.5 * late) / L

    def mean(self):
        w, L, H = self.still_coming_prob, self.late_window, self.next_headway_offset
        return w * L / 3.0 + (1.0 - w) * (H + L / 2.0)

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

    def breakpoints(self):
        L, H = self.late_window, self.next_headway_offset
        return (0.0, L, H, H + L)


class PiecewiseLinearDensity(ArrivalModel):
    """Density given by linear interpolation between knots, auto-normalized.

    Knots are (time, density) pairs with nondecreasing times; a repeated time
    encodes a jump.  The knot densities are scaled at construction so the
    total mass is one.
    """

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
        # pieces with positive width:
        # (t0, t1, y0, y1, cumulative mass at t0, width, slope)
        pieces = []
        cum = 0.0
        for t0, t1, y0, y1 in zip(ts, ts[1:], self._ys, self._ys[1:]):
            if t1 > t0:
                pieces.append((t0, t1, y0, y1, cum, t1 - t0, (y1 - y0) / (t1 - t0)))
                cum += 0.5 * (y0 + y1) * (t1 - t0)
        self._pieces = pieces
        self._starts = [piece[0] for piece in pieces]
        self._breakpoints = tuple(sorted(set(ts)))

    @property
    def support_end(self) -> float:
        return self._ts[-1]

    def _at(self, t):
        # pieces tile [first knot, last knot) with no gap
        i = bisect.bisect_right(self._starts, t) - 1
        if i < 0:
            return 0.0, 0.0, 0.0
        t0, t1, y0, y1, cum, width, slope = self._pieces[i]
        if t >= t1:
            return 0.0, 0.0, 1.0
        x = t - t0
        return y0 + (y1 - y0) * x / width, slope, cum + y0 * x + 0.5 * slope * x * x

    def mean(self):
        # each piece's moment in local coordinates, t0 * mass + integral of
        # x p(t0 + x), so narrow pieces far from zero lose no precision
        return sum(
            t0 * 0.5 * (y0 + y1) * (t1 - t0) + (t1 - t0) ** 2 * (y0 + 2.0 * y1) / 6.0
            for t0, t1, y0, y1, *_ in self._pieces
        )

    @functools.cached_property
    def _columns(self):
        """Per-piece (t0, width, y0, slope, cdf at t0) as arrays, built on
        the first draw, so models that are never sampled skip the cost."""
        t0, _, y0, _, cum, width, slope = (np.array(column) for column in zip(*self._pieces))
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

    def breakpoints(self):
        return self._breakpoints

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
