"""Bus arrival-time distributions.

Each model exposes the density p(t), the CDF F(t), the survival function
R(t) = 1 - F(t) = Pr{bus not yet arrived by t}, the partial mean
M1(t) = integral of tau p(tau) over [0, t], the appearance rate
lambda(t) = p(t)/R(t), the mean arrival time, and seeded sampling for the
simulator.  Every expected travel time in the package is linear in F and
M1.  Time is measured in minutes throughout.

Each model states p, F and R once, in ``_at``; the base class derives the
rest, and ``at`` hands the expectation layer all three from one lookup.
``Uniform``, ``LateBusMixture`` and ``PiecewiseLinearDensity`` are linear on
each of a few pieces and list them once; ``_LinearDensity`` builds one table
from them, one row per piece, which gives ``_at``, the appearance rate (the
scan's one call per grid point, with the bits of p / R from ``_at``), the
mean, the breakpoints, the sampler's table and, in closed form, M1 and the
roots of E' (the piecewise model still integrates M1 and scans for the
roots).  Every model draws through ``sample(rng, n)``, whose contract
``ArrivalModel.sample`` states.  ``_check_time`` is the one rule for a time
or a wait.

The base class integrates M1 by adaptive quadrature split at the
breakpoints.  A model keeps the running sums of its whole pieces, so a call
integrates only its last, partial piece, with the bits of integrating from
zero; its density must not change after its first ``partial_mean``.  Every
attribute of a model, plan or scenario is stored with object.__setattr__, as
a frozen dataclass's ``__init__`` stores its fields, and read back with
getattr if built lazily (the M1 sums, the sampler's table); never through
``__dict__``, whose first read builds the dict and slows every later lookup.

The model alone picks the route to the sign changes of E'(W) = R(W) -
t_delta p(W), through ``_sign_changes``: the table solves E', a polynomial
of degree at most 2 on each piece, jump minima included; ``Exponential``,
whose rate is constant, has no root or is flat; the base class scans a grid
and bisects each crossing until no float lies between its ends, at every
time scale.  Every tie, a flat E' and the walk-or-wait verdict among them,
is the one rule of ``_tie`` on a saving of walking over waiting.
"""

from __future__ import annotations

import math
import numbers
import sys
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .quadrature import adaptive_simpson

# the relative tolerance of _tie, the one tie rule
TIE_TOL = 1e-12
# survival R at or below which a root of E' is dropped
SURVIVAL_FLOOR = 1e-15
# grid points of the scan that finds the roots of E' without a closed form
SCAN_POINTS = 4096


def _tie(saving: float, scale: float) -> str:
    """"indifferent" if a saving of walking over waiting is within TIE_TOL scale (t_delta,
    or 1/t_delta for the scan's 1/t_delta - lambda), else "wait" if negative, "walk" if not."""
    if abs(saving) <= TIE_TOL * scale:
        return "indifferent"
    return "wait" if saving < 0.0 else "walk"


class UndefinedRateError(ValueError):
    """Appearance rate requested where the survival function is zero."""


def _check_time(t: float, name: str = "time") -> float:
    """t as a time or a wait, a float >= 0 where inf is allowed; booleans,
    non-numbers, NaN and negative values are rejected, naming the field."""
    if t.__class__ is not float:  # a plain float skips the slower type rule
        t = _number(t, name)
    if not t >= 0.0:
        raise ValueError(f"{name} must be nonnegative, got {t}")
    return t


def _number(value, name: str) -> float:
    """value as a float; booleans and non-numbers are rejected, and an int
    beyond the floats becomes +-inf, as float arithmetic rounds it."""
    # int and float first: the abstract numbers.Real check is slow
    if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _positive(value, name: str) -> float:
    """value as a float greater than 0 and finite."""
    x = _number(value, name)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x}")
    return x


def _probability(value, name: str) -> float:
    """value as a float in [0, 1]."""
    p = _number(value, name)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")
    return p


class ArrivalModel(ABC):
    """A bus arrival-time distribution on a subset of [0, inf).

    Subclasses implement ``support_end``, ``_at``, ``mean`` and ``sample``;
    density, CDF, survival and appearance rate all come from ``_at``.
    """

    @property
    @abstractmethod
    def support_end(self) -> float:
        """Upper end of the support (math.inf for unbounded models)."""

    @abstractmethod
    def _at(self, t: float) -> tuple[float, float, float]:
        """(p(t), F(t), R(t)) at a checked time t >= 0; p is zero outside
        the support and right-continuous at jumps."""

    @abstractmethod
    def mean(self) -> float:
        """Expected arrival time."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """The model's n arrival times as a flat float array, deterministic
        given the generator state: one draw is ``sample(rng, 1)[0]``, a shaped
        one ``sample(rng, n).reshape(shape)``.

        The simulator only reads the array returned, so a sampler may hand
        out a cached or read-only array.  An estimate runs its chunks on
        several threads, each with its own generator, only when ``sample`` is
        one of this module's, each of which returns a fresh array per call; a
        subclass that defines its own keeps every chunk on the calling
        thread."""

    def partial_mean(self, t: float) -> float:
        """M1(t) = integral of tau p(tau) over [0, t].

        Default is adaptive quadrature to ``QUAD_TOL`` relative, split at the
        breakpoints, which reads p from ``_at`` (every node lies in the
        checked range [0, t]) and each piece's right end as its left limit,
        so a density jump costs no refinement; models with a closed form
        override it.

        The model keeps the running sums of its whole pieces, the pieces
        between the sorted breakpoints in (0, quad_bound()), each sum the
        last plus one more piece, as ``integrate_piecewise`` adds them.  A
        call adds its last, partial piece to the sum below it and integrates
        a whole piece only the first time a call reaches past it, so every
        answer has the bits of a fresh model's, and the density must not
        change after the first call.  The sums are read with getattr and
        stored with object.__setattr__, as the module states for every
        stored attribute.
        """
        t = _check_time(t)
        if t >= self.support_end:
            return self.mean()
        at = self._at

        def f(tau):
            return tau * at(tau)[0]

        bound = self.quad_bound()
        end = min(t, bound)
        # edges: 0 and the cuts; sums[j]: the integral over [0, edges[j]]
        edges, sums = getattr(self, "_m1_sums", None) or (
            (0.0, *sorted(b for b in self.breakpoints() if 0.0 < b < bound)),
            (0.0,),
        )
        j = bisect_left(edges, end, 1) - 1  # the number of cuts below end
        if j >= len(sums):
            grown = list(sums)
            for k in range(len(sums), j + 1):
                grown.append(grown[-1] + adaptive_simpson(f, edges[k - 1], edges[k]))
            sums = tuple(grown)
            # a racing call may store fewer sums: it only repeats work
            object.__setattr__(self, "_m1_sums", (edges, sums))
        return sums[j] + adaptive_simpson(f, edges[j], end)

    def breakpoints(self) -> tuple[float, ...]:
        """Times where the density or its slope is discontinuous."""
        return ()

    def at(self, t: float) -> tuple[float, float, float]:
        """(p(t), F(t), R(t)) from one lookup. Raises on NaN and negative t."""
        return self._at(_check_time(t))

    def density(self, t: float) -> float:
        """p(t); zero outside the support. Raises on negative t."""
        return self._at(_check_time(t))[0]

    def cdf(self, t: float) -> float:
        """F(t) = Pr{arrival <= t}."""
        return self._at(_check_time(t))[1]

    def survival(self, t: float) -> float:
        return self._at(_check_time(t))[2]

    def appearance_rate(self, t: float) -> float:
        t = _check_time(t)
        p, _, r = self._at(t)
        if r <= 0.0:
            raise UndefinedRateError(f"survival is zero at t={t}")
        return p / r

    def _sign_changes(self, t_delta: float, end: float) -> list[tuple[float, str]]:
        """Where E'(t) = R(t) - t_delta p(t) changes sign in (0, end), as
        (t, kind) pairs sorted by t.

        kind is "minimum" where E' goes from negative to positive, "maximum"
        the other way, and "flat" (alone, at t = 0) where E' is zero
        throughout.  Default is the grid scan, ``_scan_sign_changes``; models
        with a closed form override it.
        """
        return _scan_sign_changes(self, 1.0 / t_delta, end)

    def quad_bound(self) -> float:
        """Finite time beyond which remaining mass is negligible; the
        optimizer's search for the roots of E' ends here or at support_end."""
        return self.support_end


def _scan_sign_changes(model: ArrivalModel, target: float, end: float) -> list[tuple[float, str]]:
    """The sign changes of E' in (0, end) found by a grid scan.

    Scans a fixed grid plus every breakpoint b and the float just below it,
    so no bracket spans a breakpoint, and bisects each crossing on a smooth
    piece until no float lies between the bracket's ends.  The one-ulp
    bracket below b is a density jump: a change from negative to positive
    there is a minimum at exactly b, the other way is dropped.  Two
    crossings inside one grid cell, or one before the first grid point, are
    missed.  numpy finds the flips among the samples, so the cost is one
    ``appearance_rate`` call per grid point and bisection step.
    """
    rate = model.appearance_rate  # E'(t) has the sign of target - rate(t)
    inner = [b for b in model.breakpoints() if 0.0 < b < end]
    ts = np.linspace(0.0, end, SCAN_POINTS + 2)[1:-1].tolist()
    # a time listed twice makes an empty bracket, skipped as it has no sign change
    ts = sorted(ts + inner + [math.nextafter(b, 0.0) for b in inner])
    # R never increases, so the scan ends at the first time where R <= SURVIVAL_FLOOR
    grid = ts[: bisect_left(ts, True, key=lambda t: model.survival(t) <= SURVIVAL_FLOOR)]
    if not grid:
        return []
    gs = target - np.fromiter(map(rate, grid), float, len(grid))
    if _tie(np.abs(gs).max(), target) == "indifferent":
        return [(0.0, "flat")]

    changes = []
    keep = np.flatnonzero(gs)  # a zero of E' lies inside the bracket of its neighbours
    neg = gs[keep] < 0.0
    for i in np.flatnonzero(neg[1:] != neg[:-1]).tolist():
        a, b, a_neg = grid[keep[i]], grid[keep[i + 1]], bool(neg[i])
        if a == math.nextafter(b, 0.0):  # a jump: E' never vanishes
            if not a_neg:
                continue
            root = b
        else:
            lo, hi = a, b
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                gm = target - rate(mid)
                if gm == 0.0:
                    lo = hi = mid
                elif (gm < 0.0) == a_neg:
                    lo = mid
                else:
                    hi = mid
            root = 0.5 * (lo + hi)
        changes.append((root, "minimum" if a_neg else "maximum"))
    return changes


class _LinearDensity(ArrivalModel):
    """A density that is linear on each piece of one table, built once by
    ``_tabulate``: a row (t0, t1, y0, y1, y1 - y0, F(t0), width, slope,
    slope / 2, M1(t0)) per piece of positive width, which every member reads."""

    def _tabulate(self, segments, range_error: str, mass_error: str) -> None:
        """Build the table from (t0, t1, y0, y1) segments that tile the
        support in order; segments of zero width (jumps) add no row.

        Raises ValueError(range_error) when the mean or a piece's slope is
        not finite, or when a density or a piece's change in density falls
        below the normal floats, where it loses its relative precision; and
        ValueError(mass_error) when the total mass is off by more than
        rounding explains."""
        pieces = []
        cum = moment = 0.0
        for t0, t1, y0, y1 in segments:
            if t1 > t0:
                width, dy = t1 - t0, y1 - y0
                slope = dy / width
                pieces.append((t0, t1, y0, y1, dy, cum, width, slope, 0.5 * slope, moment))
                cum += 0.5 * (y0 + y1) * width
                # the piece's moment in local coordinates, t0 * mass + the
                # integral of x p(t0 + x), so narrow pieces far from zero
                # lose no precision; width^2 is never formed, so it cannot
                # overflow where the moment does not
                moment += width * (t0 * 0.5 * (y0 + y1) + width * (y0 + 2.0 * y1) / 6.0)
        tiny = sys.float_info.min
        if not (
            math.isfinite(moment)
            and all(
                math.isfinite(s)
                and (y0 == y1 or abs(s) >= tiny)
                and (y0 == 0.0 or y0 >= tiny)
                and (y1 == 0.0 or y1 >= tiny)
                for _, _, y0, y1, _, _, _, s, _, _ in pieces
            )
        ):
            raise ValueError(range_error)
        # Rounding moves the mass off one by a few ulps per piece, in the sums
        # here and in normalizing knot densities, and by (1 - w) |fl(H + L) -
        # (H + L)| / L where LateBusMixture's tail end H + L rounds: up to
        # about 17 ulps at the ratios H / L <= 31 of the benchmark's models.
        # 1e-13 (450 ulps) plus 4 ulps a piece covers both, for H / L up to
        # about 900 / (1 - w), and rejects a tail that rounding drops or
        # widens by more than that.  The mass sees a rounded tail only in
        # proportion to its weight, so LateBusMixture checks the width too.
        if not abs(cum - 1.0) <= 1e-13 + 4.0 * len(pieces) * sys.float_info.epsilon:
            raise ValueError(f"{mass_error} (the table's mass is {cum!r})")
        object.__setattr__(self, "_pieces", pieces)
        object.__setattr__(self, "_starts", [piece[0] for piece in pieces])
        object.__setattr__(self, "_breakpoints", (*self._starts, pieces[-1][1]))
        object.__setattr__(self, "_moment", moment)

    @property
    def support_end(self) -> float:
        return self._breakpoints[-1]

    def _at(self, t):
        # the pieces tile [first start, support end) with no gap
        i = bisect_right(self._starts, t) - 1
        if i < 0:
            return 0.0, 0.0, 1.0
        t0, t1, y0, _, dy, cum, width, _, half_slope, _ = self._pieces[i]
        if t >= t1:
            return 0.0, 1.0, 0.0
        x = t - t0
        F = cum + y0 * x + half_slope * x * x
        return y0 + dy * x / width, F, 1.0 - F

    def appearance_rate(self, t):
        # p / R from the row _at reads, with its operands in its order: the
        # base class's value and error, bit for bit.
        # The scan calls it once per grid point, so a plain float >= 0 skips
        # the call of the time rule.
        if t.__class__ is not float or not t >= 0.0:
            t = _check_time(t)
        i = bisect_right(self._starts, t) - 1
        if i < 0:
            return 0.0
        t0, t1, y0, _, dy, cum, width, _, half_slope, _ = self._pieces[i]
        if t < t1:
            x = t - t0
            r = 1.0 - (cum + y0 * x + half_slope * x * x)
            if r > 0.0:
                return (y0 + dy * x / width) / r
        raise UndefinedRateError(f"survival is zero at t={t}")

    def partial_mean(self, t):
        t = _check_time(t)
        i = bisect_right(self._starts, t) - 1
        if i < 0:
            return 0.0
        t0, t1, y0, _, _, _, _, slope, half_slope, moment = self._pieces[i]
        if t >= t1:
            return self._moment
        x = t - t0
        # t0 * mass on [t0, t] + integral of x p(t0 + x), as in _tabulate
        return moment + x * (t0 * (y0 + half_slope * x) + x * (0.5 * y0 + slope * x / 3.0))

    def mean(self):
        return self._moment

    def breakpoints(self):
        return self._breakpoints

    def _sign_changes(self, t_delta, end):
        """On a piece, in local x = t - t0, E' = R - t_delta p is the polynomial
        g(x) = (R0 - t_delta y0) - (y0 + t_delta s) x - (s/2) x^2.  A root
        where g rises is a minimum, one where it falls a maximum; a tangent
        root is no sign change.  At a row start t0 where the density jumps,
        E' goes from R0 - t_delta y1 of the row before to g(0): a change from
        negative to positive is a minimum at t0, the other way is dropped, as
        the scan drops it; a left limit of exactly 0 counts as negative when
        the row before's g rose at its end, -(b + s width) > 0.  Roots where
        R <= SURVIVAL_FLOOR are dropped too."""
        changes = []
        y_below = 0.0  # the density just below the row start
        rising = False  # whether E' rose at the end of the row before
        for t0, t1, y0, y1, _, F0, width, s, half_s, _ in self._pieces:
            stop = min(t1, end)
            if not t0 < stop:
                break
            c = (1.0 - F0) - t_delta * y0
            left = (1.0 - F0) - t_delta * y_below
            if (left < 0.0 or left == 0.0 and rising) and 0.0 < c and 1.0 - F0 > SURVIVAL_FLOOR:
                changes.append((t0, "minimum"))
            y_below = y1
            b = y0 + t_delta * s
            rising = b + s * width < 0.0
            if s == 0.0:
                roots = [(c / b, "maximum" if b > 0.0 else "minimum")] if b != 0.0 else []
            else:
                disc = b * b + 2.0 * s * c
                # a tangent's disc rounds to a few ulps of the sizes of b's and c's terms
                sb, sc = y0 + t_delta * abs(s), abs(1.0 - F0) + t_delta * y0
                if not disc > 4.0 * sys.float_info.epsilon * (sb * sb + 2.0 * abs(s) * sc):
                    continue
                # the two roots of (s/2) x^2 + b x - c, in the form with no cancellation
                q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
                # g opens downward when s > 0: it rises through the lower root
                kinds = ("minimum", "maximum") if s > 0.0 else ("maximum", "minimum")
                roots = zip(sorted((2.0 * q / s, -c / q)), kinds)
            for x, kind in roots:
                t = t0 + x
                if t0 < t < stop and 1.0 - (F0 + x * (y0 + half_s * x)) > SURVIVAL_FLOOR:
                    changes.append((t, kind))
        return changes


@dataclass(frozen=True)
class Uniform(_LinearDensity):
    """Punctual service with unknown phase: arrival uniform on [0, headway]."""

    headway: float

    def __post_init__(self):
        object.__setattr__(self, "headway", h := _positive(self.headway, "headway"))
        error = f"headway {h} is out of range: 1/headway or its sums leave the normal floats"
        self._tabulate([(0.0, h, 1.0 / h, 1.0 / h)], error, error)

    def sample(self, rng, n):
        # the draws of rng.uniform(0, headway, n), without its scaling
        # loop, scaled in place
        u = rng.random(n)
        u *= self.headway
        return u


@dataclass(frozen=True)
class Exponential(ArrivalModel):
    """Poisson arrivals: constant appearance rate."""

    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", rate := _positive(self.rate, "rate"))
        if 40.0 / rate == math.inf:
            raise ValueError(f"rate {rate} is out of range: quad_bound() 40/rate overflows")

    @property
    def support_end(self) -> float:
        return math.inf

    def _at(self, t):
        # R is the exact e^-rt, not 1 - F
        r = self.rate
        e = math.exp(-r * t)
        return r * e, -math.expm1(-r * t), e

    def appearance_rate(self, t):
        _check_time(t)
        return self.rate

    def _sign_changes(self, t_delta, end):
        # the rate is constant: E' keeps one sign, or is flat where the mean ties t_delta
        return [(0.0, "flat")] if _tie(self.mean() - t_delta, t_delta) == "indifferent" else []

    def partial_mean(self, t):
        # (1 - e^-x (1 + x)) / rate with x = rate * t; expm1 keeps the
        # leading 1 from cancelling when x is tiny, and an x past the floats
        # (t = inf among them) is the mean, not inf * 0
        x = self.rate * _check_time(t)
        if x == math.inf:
            return self.mean()
        return (-math.expm1(-x) - x * math.exp(-x)) / self.rate

    def mean(self):
        return 1.0 / self.rate

    def sample(self, rng, n):
        # the draws of rng.exponential(1 / rate, n), without its scaling
        # loop, scaled in place
        e = rng.standard_exponential(n)
        e *= 1.0 / self.rate
        return e

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
        for name, rule in (("still_coming_prob", _probability), ("late_window", _positive),
                           ("next_headway_offset", _number)):
            object.__setattr__(self, name, rule(getattr(self, name), name))
        w, L, H = self.still_coming_prob, self.late_window, self.next_headway_offset
        if not L < H < math.inf:
            raise ValueError("next_headway_offset must be finite and exceed late_window")
        head, tail = 2.0 * w / L, (1.0 - w) / L
        error = (
            f"late_window {L} is out of range for still_coming_prob {w}: the density of the"
            " head or the tail, or the head's slope, overflows or underflows"
        )
        # a density that underflows to zero would drop its weight from the table
        if head == 0.0 < w or tail == 0.0 < 1.0 - w:
            raise ValueError(error)
        too_large = (
            f"next_headway_offset {H} is too large for late_window {L}: their sum rounds"
            f" to {H + L}, which moves the mass of the uniform tail"
        )
        # a tail that rounding widens or narrows keeps a wrong mean, even where
        # its mass is too small for the table's mass check to see
        if w < 1.0 and not abs(((H + L) - H) - L) <= 1e-13 * L:
            raise ValueError(too_large)
        # the triangular head, the gap, the uniform tail
        self._tabulate(
            [(0.0, L, head, 0.0), (L, H, 0.0, 0.0), (H, H + L, tail, tail)], error, too_large
        )

    def sample(self, rng, n):
        w, L, H = self.still_coming_prob, self.late_window, self.next_headway_offset
        coming = rng.random(n) < w
        u = rng.random(n)
        late = L * u
        late += H
        # early = L * (1 - sqrt(1 - u)), the inverse triangular CDF, in u's place
        early = np.subtract(1.0, u, out=u)
        np.sqrt(early, out=early)
        np.subtract(1.0, early, out=early)
        early *= L
        # early * coming + late * ~coming: an exact select without branches
        early *= coming
        late *= np.logical_not(coming, out=coming)
        early += late
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
    _sign_changes = ArrivalModel._sign_changes

    def __init__(self, knots):
        try:
            pairs = [(t, y) for t, y in knots]
        except (TypeError, ValueError):  # not iterable, or an item is not a pair
            raise ValueError("knots must be a list of [time, density] pairs") from None
        knots = [(_number(t, "knot time"), _number(y, "knot density")) for t, y in pairs]
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
        if total == math.inf:
            raise ValueError("knot densities integrate to an overflowing mass; cannot normalize")
        self._ts = ts
        self._ys = [y / total for y in ys]
        error = (
            "normalized knot densities or their slopes overflow or underflow: the knots"
            " hold too little or too much mass for their densities and spacing"
        )
        if any(n == 0.0 < y for y, n in zip(ys, self._ys)):
            raise ValueError(error)
        self._tabulate(
            zip(ts, ts[1:], self._ys, self._ys[1:]),
            error,
            "knot densities do not normalize to a mass of one",
        )

    def _draw_table(self):
        """The sampler's one table, built on the first draw, so models that
        are never sampled skip the cost: ((t0, width, y0, slope, cum), (edges,
        cells, guide)), the per-piece columns as arrays, cum the CDF at t0,
        and the indexed search for the inverse CDF: ``edges`` is cum plus
        1.0, and ``guide[k]`` the piece of every u in the cell [k, k + 1) /
        cells when one piece covers the whole cell, else -1."""
        table = getattr(self, "_draws", None)
        if table is None:
            t0, _, y0, _, _, cum, width, slope, _, _ = (np.array(c) for c in zip(*self._pieces))
            edges = np.append(cum, 1.0)
            last = len(self._pieces) - 1
            # a power of two, so floor(u * cells) is exact
            cells = min(1 << (64 * len(self._pieces) - 1).bit_length(), 1 << 16)
            guide = np.minimum(
                np.searchsorted(edges, np.arange(cells) / cells, side="right") - 1, last
            )
            # the piece of u never falls as u grows, so the piece at the next
            # cell's start bounds it
            guide[guide != np.append(guide[1:], last)] = -1
            table = (t0, width, y0, slope, cum), (edges, cells, guide)
            # a racing draw may store an equal table: it only repeats work
            object.__setattr__(self, "_draws", table)
        return table

    def _piece_index(self, u):
        """Piece holding each CDF value in the 1-D array u, each in [0, 1):
        searchsorted(edges, u, "right") - 1, clamped to the last piece."""
        edges, cells, guide = self._draw_table()[1]
        idx = np.take(guide, (u * cells).astype(np.intp))
        # the few draws in a cell that spans a piece edge: full search
        split = np.flatnonzero(idx < 0)
        if split.size:
            idx[split] = np.minimum(
                np.searchsorted(edges, u[split], side="right") - 1, len(self._pieces) - 1
            )
        return idx

    def sample(self, rng, n):
        u = rng.random(n)
        idx = self._piece_index(u)
        t0, width, y0, slope, cum = self._draw_table()[0]
        # x in [0, width] solves y0*x + slope/2 * x^2 = m, in the form that
        # has no cancellation and no division by the slope:
        # x = 2m / (y0 + sqrt(y0^2 + 2*slope*m))
        # Each column is gathered at the line that reads it and dropped after,
        # so at most four arrays of the draw's size are alive at once (u, idx,
        # root and one column); y0^2 is squared per piece before its gather,
        # which gives the same bits.
        m = np.subtract(u, np.take(cum, idx), out=u)
        root = np.take(slope, idx)
        root *= m
        root *= 2.0
        root += np.take(y0 * y0, idx)
        np.maximum(root, 0.0, out=root)
        np.sqrt(root, out=root)
        root += np.take(y0, idx)
        # zero only where m = 0 or on a zero-mass piece (reached through the
        # rounding of the cumulative mass); dividing by 1 there gives x = 2m
        root += root == 0.0
        m *= 2.0
        m /= root
        np.minimum(m, np.take(width, idx), out=m)
        m += np.take(t0, idx)
        return m

    def __repr__(self):
        return f"PiecewiseLinearDensity({list(zip(self._ts, self._ys))})"


# each config kind: its class and the fields passed to it by name
MODEL_KINDS = {
    "uniform": (Uniform, ("headway",)),
    "exponential": (Exponential, ("rate",)),
    "late_bus_mixture": (
        LateBusMixture,
        ("still_coming_prob", "late_window", "next_headway_offset"),
    ),
    "piecewise": (PiecewiseLinearDensity, ("knots",)),
}


def model_from_config(config: dict) -> ArrivalModel:
    """Build a model from a dict with a `kind` discriminator and that kind's
    fields; an unknown or a missing field is rejected, naming it.

    The model constructors reject booleans, strings and non-finite values,
    and each stores the float its rule returns.
    """
    if not isinstance(config, dict):
        raise ValueError("model config must be an object")
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind: {kind!r}")
    cls, fields = MODEL_KINDS[kind]
    only = ", ".join(fields)
    for problem, names in (("unknown", sorted(set(config) - {"kind", *fields})),
                           ("missing", [f for f in fields if f not in config])):
        if names:
            raise ValueError(f"{problem} {kind} field {', '.join(names)}; it takes only {only}")
    return cls(**{f: config[f] for f in fields})
