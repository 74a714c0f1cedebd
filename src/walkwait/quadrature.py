"""Adaptive Simpson quadrature with optional breakpoints.

Densities in this package are smooth between a handful of kink times, so the
integrators below split at those kinks and refine adaptively inside each
smooth piece.  The integrands are right-continuous: at a kink b they take the
value of the piece that starts at b.  So each pass reads its right end as the
left limit, at the float just below b, and the piece it integrates is smooth
up to its end; reading f(b) there would make Simpson's rule refine some forty
levels toward a density jump that does not change the integral.

The integrands are nonnegative (tau p(tau), a CDF), so a panel is accepted
once its error estimate is within QUAD_TOL of its own integral, and the total
is within QUAD_TOL of the whole integral, relative, at every time scale.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

QUAD_TOL = 1e-12  # relative, for a nonnegative integrand
MAX_INTERVALS = 2**20


class IntervalCapError(RuntimeError):
    """Adaptive quadrature needed more than its cap of intervals: the
    integrand has an unlisted kink or a sign change Simpson's rule cannot resolve."""


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate a right-continuous f >= 0 over [a, b] to QUAD_TOL relative.

    The right end is read as the left limit f(b-), at math.nextafter(b, a):
    the integral does not depend on f(b), and when f jumps at b only the
    left limit continues the smooth piece that Simpson's rule fits.  For a
    smooth f this moves the end value by about f'(b) times one ulp of b.
    """
    if b <= a:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(math.nextafter(b, a))
    whole = _simpson(fa, fm, fb, b - a)
    # stack of (a, fa, m, fm, b, fb, whole)
    stack = [(a, fa, m, fm, b, fb, whole)]
    total = 0.0
    used = 1
    while stack:
        a, fa, m, fm, b, fb, whole = stack.pop()
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        if abs(delta) <= 15.0 * QUAD_TOL * abs(left + right):
            total += left + right + delta / 15.0
            continue
        used += 2
        if used > MAX_INTERVALS:
            raise IntervalCapError("adaptive quadrature exceeded the interval cap")
        stack.append((a, fa, lm, flm, m, fm, left))
        stack.append((m, fm, rm, frm, b, fb, right))
    return total


def integrate_piecewise(
    f: Callable[[float], float],
    a: float,
    b: float,
    breakpoints: Iterable[float] = (),
) -> float:
    """Integrate f >= 0 over [a, b], splitting at the interior breakpoints.

    Kinks of f must be listed in breakpoints so each adaptive pass sees a
    smooth integrand.  The pieces are added left to right, the order of the
    running sums that ``ArrivalModel.partial_mean`` keeps; sum() would
    compensate its additions from Python 3.12 on.
    """
    cuts = sorted(t for t in breakpoints if a < t < b)
    edges = [a] + cuts + [b]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += adaptive_simpson(f, lo, hi)
    return total
