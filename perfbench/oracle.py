"""Independent reference values and the output checkers built on them.

Every density is re-derived from the generated spec, not taken from
walkwait, and integrated by composite Gauss-Legendre on a fine partition
that is split at the density's breakpoints.  Each sub-piece is smooth, so
the rule is exact for the polynomial densities and far below the tolerances
below for the exponential one.

A checker returns a verdict ``(status, detail)``, the worst of its
comparisons, with status one of:

- ``ok``;
- ``inexact``: a value is off the reference by more than VALUE_RTOL, the
  accuracy the program's own quadrature and 12-digit CSV promise, but by no
  more than GROSS_RTOL;
- ``missed``: the values are right but the op missed its goal: a policy
  worse than the brute-force minimum, or an MC mean with |z| >= 3.5;
- ``wrong``: a value off by more than GROSS_RTOL, or a malformed output.

The runner adds ``error`` for an op that raised.  Every status but ``ok``
counts as a failed op; ``wrong`` and ``error`` also make the run incorrect.
"""

from __future__ import annotations

import math

import numpy as np

GL_X, GL_W = np.polynomial.legendre.leggauss(8)
GL_U = 0.5 * (GL_X + 1.0)  # nodes mapped to [0, 1]
PIECES_PER_SPAN = 16  # sub-pieces between consecutive breakpoints
EXP_SPAN = 50.0  # exponential tail beyond 50 mean lifetimes is e^-50
EXP_PIECES = 400

# A value is exact enough within VALUE_RTOL * max(1, |reference|) of the
# reference: the program's quadrature works to 1e-12 and the CSV keeps 12
# significant digits.  Beyond GROSS_RTOL it is wrong; in between, inexact.
VALUE_RTOL = 1e-9
GROSS_RTOL = 1e-7
# A policy misses when its true E exceeds the brute-force minimum by more
# than OPT_TOL * max(1, minimum) minutes.  Bisection puts the program's roots
# within 1e-10 min, so a larger gap is a missed candidate, not round-off.
OPT_TOL = 1e-6
BRUTE_GRID = 20001
Z_BOUND = 3.5  # the acceptance tests' bound on MC-vs-analytic z-scores

OK = ("ok", "")
RANK = {"ok": 0, "inexact": 1, "missed": 2, "wrong": 3}


def _value(what: str, got: float, ref: float) -> tuple[str, str]:
    err = abs(got - ref) / max(1.0, abs(ref))
    if err <= VALUE_RTOL:
        return OK
    status = "inexact" if err <= GROSS_RTOL else "wrong"  # NaN lands here
    return status, f"{what}={got!r}, reference {ref!r}"


def _worst(verdicts) -> tuple[str, str]:
    return max(verdicts, key=lambda v: RANK[v[0]], default=OK)


class Reference:
    """F, the partial mean M1, the density and the expectations of one
    (scenario, model) spec, evaluated on numpy arrays."""

    def __init__(self, scenario: dict, model: dict):
        # same unit conversion as the CLI config loader
        self.d = float(scenario["distance_km"])
        self.v_w = float(scenario["walk_speed_kmh"]) / 60.0
        self.v_b = float(scenario["bus_speed_kmh"]) / 60.0
        self.walk = self.d / self.v_w
        self.bus = self.d / self.v_b
        self.td = self.d / self.v_w - self.d / self.v_b
        self.q = 1.0 / self.v_w - 1.0 / self.v_b
        self.end, breaks, pieces = self._density_spec(model)
        nodes = np.unique(np.concatenate(
            [np.linspace(a, b, pieces + 1) for a, b in zip(breaks[:-1], breaks[1:])]
        ))
        self.breaks = breaks
        self.nodes = nodes
        lo, width = nodes[:-1], np.diff(nodes)
        pts = lo[:, None] + width[:, None] * GL_U
        p = self.density(pts)
        f = 0.5 * width * (p @ GL_W)
        m = 0.5 * width * ((pts * p) @ GL_W)
        self._cum_f = np.concatenate([[0.0], np.cumsum(f)])
        self._cum_m = np.concatenate([[0.0], np.cumsum(m)])
        self.mean = float(self._cum_m[-1])

    def _density_spec(self, model: dict):
        kind = model["kind"]
        if kind == "uniform":
            h = float(model["headway"])
            self.density = lambda t: np.where((t >= 0.0) & (t < h), 1.0 / h, 0.0)
            return h, np.array([0.0, h]), PIECES_PER_SPAN
        if kind == "exponential":
            r = float(model["rate"])
            self.density = lambda t: np.where(t >= 0.0, r * np.exp(-r * np.maximum(t, 0.0)), 0.0)
            return math.inf, np.array([0.0, EXP_SPAN / r]), EXP_PIECES
        if kind == "late_bus_mixture":
            w = float(model["still_coming_prob"])
            L = float(model["late_window"])
            H = float(model["next_headway_offset"])

            def density(t):
                tri = w * 2.0 * (L - t) / (L * L)
                return np.where(t < 0.0, 0.0, np.where(
                    t < L, tri, np.where(t < H, 0.0, np.where(t < H + L, (1.0 - w) / L, 0.0))))

            self.density = density
            return H + L, np.array([0.0, L, H, H + L]), PIECES_PER_SPAN
        if kind == "piecewise":
            knots = np.array(model["knots"], dtype=float)
            ts, ys = knots[:, 0], knots[:, 1]
            ys = ys / np.sum(0.5 * (ys[:-1] + ys[1:]) * np.diff(ts))
            keep = np.diff(ts) > 0.0
            a, b = ts[:-1][keep], ts[1:][keep]
            ya, yb = ys[:-1][keep], ys[1:][keep]

            def density(t):
                # right-continuous: the piece with a <= t < b, zero elsewhere
                i = np.clip(np.searchsorted(a, t, side="right") - 1, 0, len(a) - 1)
                inside = (t >= a[i]) & (t < b[i])
                return np.where(inside, ya[i] + (yb[i] - ya[i]) * (t - a[i]) / (b[i] - a[i]), 0.0)

            self.density = density
            return float(ts[-1]), np.unique(ts), PIECES_PER_SPAN
        raise ValueError(f"unknown model kind {kind!r}")

    def cdf_m1(self, x):
        """(F(x), M1(x)) with M1(x) = integral of tau p(tau) over [0, x]."""
        x = np.clip(np.asarray(x, dtype=float), 0.0, self.nodes[-1])
        j = np.clip(np.searchsorted(self.nodes, x, side="right") - 1, 0, len(self.nodes) - 2)
        lo = self.nodes[j]
        width = x - lo
        pts = lo[..., None] + width[..., None] * GL_U
        p = self.density(pts)
        f = self._cum_f[j] + 0.5 * width * (p @ GL_W)
        m = self._cum_m[j] + 0.5 * width * ((pts * p) @ GL_W)
        return f, m

    def expected_tt(self, w):
        """Wait up to w minutes, then walk; w may be inf (wait forever)."""
        w = np.asarray(w, dtype=float)
        f, m = self.cdf_m1(np.where(np.isfinite(w), w, 0.0))
        finite = self.bus * f + m + (1.0 - f) * (self.walk + np.where(np.isfinite(w), w, 0.0))
        return np.where(np.isfinite(w), finite, self.bus + self.mean)

    def tw_derivative(self, w):
        f, _ = self.cdf_m1(w)
        return (1.0 - f) - self.td * self.density(np.asarray(w, dtype=float))

    def expected_tt_plan(self, d1, t_wait, p_catch):
        d1 = np.asarray(d1, dtype=float)
        t1 = d1 * self.q
        f1, m1 = self.cdf_m1(t1)
        f2, m2 = self.cdf_m1(t1 + t_wait)
        rest_walk = (self.d - d1) / self.v_w
        rest_bus = (self.d - d1) / self.v_b
        caught = p_catch * (self.bus * f1 + m1)
        missed = (1.0 - p_catch) * f1 * self.walk
        boarded = (rest_bus - t1) * (f2 - f1) + (m2 - m1)
        at_stop = d1 / self.v_w * (1.0 - f1) + boarded + (1.0 - f2) * (rest_walk + t_wait)
        return caught + missed + at_stop

    def plan_d1_derivative(self, d1, t_wait, p_catch):
        d1 = np.asarray(d1, dtype=float)
        t1 = d1 * self.q
        return self.q * self.q * (self.d - d1) * (
            (1.0 - p_catch) * self.density(t1) - self.density(t1 + t_wait))

    def vigilant(self, p_catch):
        f, m = self.cdf_m1(self.td)
        return self.walk - np.asarray(p_catch) * (self.td * f - m)

    def advantage(self, p_catch):
        f, m = self.cdf_m1(self.td)
        pc = np.asarray(p_catch, dtype=float)
        return pc * self.td * f + (1.0 - pc) * m + (self.mean - m) - self.td

    def brute_force_min(self) -> float:
        """Least E over a dense grid, every breakpoint, and waiting forever."""
        horizon = self.end if math.isfinite(self.end) else self.nodes[-1]
        grid = np.concatenate([np.linspace(0.0, horizon, BRUTE_GRID),
                               self.breaks[self.breaks <= horizon]])
        return float(min(np.min(self.expected_tt(grid)), self.bus + self.mean))


# ---------------------------------------------------------------- checkers


def check_decide(op: dict, output) -> tuple[str, str]:
    """output: (stationary points as (t_wait, kind, E) tuples,
    policy as (strategy, E, t_wait))."""
    ref = Reference(op["scenario"], op["model"])
    points, (strategy, e_policy, t_wait) = output
    verdicts = []
    for t, kind, e in points:
        if kind not in ("minimum", "maximum", "flat"):
            return "wrong", f"stationary point kind {kind!r}"
        verdicts.append(_value(f"stationary E({t!r})", e, float(ref.expected_tt(t))))
    waits = {"walk_now": 0.0, "wait_forever": math.inf, "wait_then_walk": t_wait}
    if waits.get(strategy) is None:
        return "wrong", f"policy {strategy!r} with t_wait={t_wait!r}"
    e_true = float(ref.expected_tt(waits[strategy]))
    verdicts.append(_value(f"policy {strategy} E", e_policy, e_true))
    best = ref.brute_force_min()
    if e_true > best + OPT_TOL * max(1.0, best):
        verdicts.append(("missed", f"policy {strategy} E={e_true:.9g} > brute-force minimum {best:.9g}"))
    return _worst(verdicts)


def sweep_xs(op: dict) -> list[float]:
    """The sweep grid, computed exactly as the CLI documents it."""
    start, stop, steps = op["start"], op["stop"], op["steps"]
    span = stop - start
    return [start + span * i / (steps - 1) for i in range(steps)]


def curves_reference(op: dict) -> tuple[str, np.ndarray, np.ndarray]:
    """(header, values, derivative-or-advantage) the CSV should hold."""
    cfg = op["config"]
    ref = Reference(cfg, cfg["model"])
    xs = np.array(sweep_xs(op))
    pc = float(cfg["p_catch"])
    if op["var"] == "tw":
        return "x,expected_tt,derivative", ref.expected_tt(xs), ref.tw_derivative(xs)
    if op["var"] == "d1":
        tw = float(op["tw"])
        return ("x,expected_tt,derivative", ref.expected_tt_plan(xs, tw, pc),
                ref.plan_d1_derivative(xs, tw, pc))
    return "x,expected_tt,advantage", ref.vigilant(xs), ref.advantage(xs)


def check_curves(op: dict, text: str) -> tuple[str, str]:
    """text: the CSV the sweep wrote."""
    header, values, second = curves_reference(op)
    xs = sweep_xs(op)
    if not text.endswith("\n"):
        return "wrong", "CSV does not end with a newline"
    lines = text[:-1].split("\n")
    if lines[0] != header:
        return "wrong", f"header {lines[0]!r}, expected {header!r}"
    rows = lines[1:]
    if len(rows) != len(xs):
        return "wrong", f"{len(rows)} rows, expected {len(xs)}"
    names = header.split(",")
    verdicts = []
    for i, row in enumerate(rows):
        fields = row.split(",")
        if len(fields) != 3 or fields[0] != f"{xs[i]:.12g}":
            return "wrong", f"row {i}: {row!r}"
        try:
            got = [float(v) for v in fields[1:]]
        except ValueError:
            return "wrong", f"row {i}: {row!r}"
        verdicts.append(_value(f"row {i} {names[1]}", got[0], float(values[i])))
        verdicts.append(_value(f"row {i} {names[2]}", got[1], float(second[i])))
    return _worst(verdicts)


def verify_reference(op: dict) -> float:
    ref = Reference(op["scenario"], op["model"])
    s = op["strategy"]
    if s["kind"] == "wait_then_walk":
        return float(ref.expected_tt(s["t_wait"]))
    if s["kind"] == "wait_forever":
        return ref.bus + ref.mean
    return float(ref.expected_tt_plan(s["d1"], s["t_wait"], s["p_catch"]))


def check_verify(op: dict, output) -> tuple[str, str]:
    """output: (mean, stderr, n, analytic)."""
    mean, stderr, n, analytic = output
    if n != op["n"]:
        return "wrong", f"n={n}, expected {op['n']}"
    if not (math.isfinite(mean) and math.isfinite(stderr) and stderr > 0.0):
        return "wrong", f"mean={mean!r}, stderr={stderr!r}"
    verdicts = [_value("analytic", analytic, verify_reference(op))]
    z = (mean - analytic) / stderr
    if not abs(z) < Z_BOUND:
        verdicts.append(("missed", f"|z|={abs(z):.3f} >= {Z_BOUND}"))
    return _worst(verdicts)


CHECKERS = {"decide": check_decide, "curves": check_curves, "verify": check_verify}
