"""Cusp-excursion traces for geodesic rays from i to a point of (0, 1).

The ray from i to xi is the oriented geodesic with endpoints (-1/xi, xi); the
standard horoballs are the Ford circles at the continued-fraction convergents
p_n/q_n of xi.  The excursion at convergent n is governed by digit a_{n+1},
a convention frozen here once and used everywhere (the calibration tests pin
the resulting digit/depth constant).

Numerics: the Ford circle at p_n/q_n is microscopic (diameter 1/q_n^2), so
naive floating-point geometry cancels catastrophically.  Each excursion is
instead computed in a normalized picture that sends the base point p_n/q_n to
infinity by an integer unimodular map, where the ball becomes the half-plane
above height 1 and every needed quantity is an O(1) ratio of big integers:

* the ray becomes the semicircle over (A_n, x_{n+1}) where x_{n+1} is the
  complete quotient [a_{n+1}; a_{n+2}, ...] and
  A_n = -(q_{n-1} + xi p_{n-1}) / (q_n + xi p_n),
* the base point i lands at (X_n, Y_n) with
  X_n = -(q_{n-1} q_n + p_{n-1} p_n) / (q_n^2 + p_n^2) and
  Y_n = 1 / (q_n^2 + p_n^2), carried as log Y_n,
* depth_n = log R_n with R_n the semicircle radius, and entry/exit times are
  distances from (X_n, Y_n) to the height-1 crossings of the semicircle.

Depths can be formally non-positive (the ray misses the convergent's ball,
possible whenever the governing digit is 1); such balls are recorded as
skipped and excluded from times and gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .contfrac import ContinuedFraction
from .halfplane import chord_length
from .numerics import InsufficientDigitsError

_LOOKAHEAD = 44  # extra digits used to evaluate complete quotients


@dataclass(frozen=True)
class ExcursionRecord:
    """Bookkeeping for the excursion at the n-th convergent (1-based)."""

    index: int
    p: int | None
    q: int | None
    digit: int | None         # governing digit a_{n+1}
    depth: float              # formal penetration depth; <= 0 means skipped
    entered: bool
    entry_dist: float | None  # d(i, entry point) along the ray
    exit_dist: float | None
    time: float | None        # t_n = entry_dist + depth
    gap_to_next: float | None = None  # travel to the next entered ball


@dataclass
class ExcursionTrace:
    records: list
    horizon: int
    xi: float | None = None

    def entered(self):
        return [r for r in self.records if r.entered]

    def depths(self, entered_only=True):
        recs = self.entered() if entered_only else self.records
        return [r.depth for r in recs]

    def times(self):
        return [r.time for r in self.entered()]

    def entry_dists(self):
        return [r.entry_dist for r in self.entered()]

    def gaps(self):
        return [r.gap_to_next for r in self.entered() if r.gap_to_next is not None]


def _dist_to_unit_height(x_src, log_y_src, x_dst):
    """Distance from (x_src, exp(log_y_src)) to (x_dst, 1), stable for
    arbitrarily small source heights."""
    dx = x_src - x_dst
    if log_y_src > -600.0:
        y = math.exp(log_y_src)
        c = 1.0 + (dx * dx + (1.0 - y) ** 2) / (2.0 * y)
        return math.acosh(c)
    return math.log(dx * dx + 1.0) - log_y_src


def excursion_trace(cf: ContinuedFraction, horizon: int) -> ExcursionTrace:
    """Trace the first ``horizon`` excursions of the ray from i to the value
    of ``cf``.

    Needs at least horizon + 2 reliable digits; uses up to ``_LOOKAHEAD``
    extra digits (when available) to pin the complete quotients.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if cf.reliable_digits() < horizon + 2:
        raise InsufficientDigitsError(
            f"need {horizon + 2} reliable digits, have {cf.reliable_digits()}"
        )
    avail = cf.available()
    n_digits = int(min(avail, cf.reliable_digits(), horizon + _LOOKAHEAD))
    ds = cf.digits(n_digits)

    # Complete quotients x_k = [a_k; a_{k+1}, ...] by backward evaluation,
    # 0-based: quot[j] is the value of the tail starting at digit j+1.
    quot = [0.0] * n_digits
    v = float(ds[-1])
    quot[-1] = v
    for j in range(n_digits - 2, -1, -1):
        v = ds[j] + 1.0 / v
        quot[j] = v
    xi = 1.0 / quot[0]

    records = []
    p_prev, q_prev = 1, 0   # p_{-1}, q_{-1}
    p_cur, q_cur = 0, 1     # p_0, q_0
    for n in range(1, horizon + 1):
        a = ds[n - 1]
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        digit_next = ds[n]
        cn = p_cur / q_cur
        cnm = p_prev / q_prev
        r = q_prev / q_cur
        A = -r * (1.0 + xi * cnm) / (1.0 + xi * cn)
        B = quot[n]  # x_{n+1}
        R = 0.5 * (B - A)
        depth = math.log(R)
        if R <= 1.0:
            records.append(ExcursionRecord(n, p_cur, q_cur, digit_next, depth,
                                           False, None, None, None))
            continue
        X = -r * (1.0 + cn * cnm) / (1.0 + cn * cn)
        log_y = -math.log(q_cur * q_cur + p_cur * p_cur)
        m = 0.5 * (A + B)
        s = math.sqrt((R - 1.0) * (R + 1.0))
        entry_x = (A * B + 1.0) / (m + s)   # m - s without cancellation
        exit_x = m + s
        entry_dist = _dist_to_unit_height(X, log_y, entry_x)
        exit_dist = _dist_to_unit_height(X, log_y, exit_x)
        records.append(ExcursionRecord(n, p_cur, q_cur, digit_next, depth,
                                       True, entry_dist, exit_dist,
                                       entry_dist + depth))

    _fill_gaps(records)
    return ExcursionTrace(records, horizon, xi=xi)


def _fill_gaps(records):
    prev = None
    for i, rec in enumerate(records):
        if not rec.entered:
            continue
        if prev is not None:
            gap = rec.entry_dist - records[prev].exit_dist
            records[prev] = _with_gap(records[prev], gap)
        prev = i


def _with_gap(rec: ExcursionRecord, gap: float) -> ExcursionRecord:
    return ExcursionRecord(rec.index, rec.p, rec.q, rec.digit, rec.depth,
                           rec.entered, rec.entry_dist, rec.exit_dist,
                           rec.time, gap)


def synthesize_trace(depths, gap=0.25, initial=1.0) -> ExcursionTrace:
    """Build a trace directly from prescribed depths (hyperbolic lengths).

    Models a ray that enters ball n at the running position, travels the true
    in-ball chord 2*arccosh(e^depth), then covers ``gap`` (a scalar or one
    value per inter-ball stretch) before the next entry.  Used to realize
    depth sequences whose digits are astronomically large.
    """
    depths = list(depths)
    if any(d <= 0 for d in depths):
        raise ValueError("synthesize_trace needs strictly positive depths")
    if isinstance(gap, (int, float)):
        gaps = [float(gap)] * len(depths)
    else:
        gaps = [float(g) for g in gap]
        if len(gaps) < len(depths):
            raise ValueError("need one gap per excursion")
    records = []
    pos = float(initial)
    for k, d in enumerate(depths):
        chord = chord_length(d)
        records.append(ExcursionRecord(k + 1, None, None, None, d, True,
                                       pos, pos + chord, pos + d))
        pos += chord + gaps[k]
    _fill_gaps(records)
    return ExcursionTrace(records, len(depths))


def gap_bound_estimate(traces) -> float:
    """Empirical bound on inter-excursion travel: the maximum observed gap
    across a sample of traces."""
    best = None
    for tr in traces:
        for g in tr.gaps():
            if best is None or g > best:
                best = g
    if best is None:
        raise ValueError("no gaps observed (need traces with >= 2 entered excursions)")
    return best


@dataclass(frozen=True)
class Membership:
    flags: list
    verdict: bool


def good_membership(trace: ExcursionTrace, tau: float, kappa: float) -> Membership:
    """Finite-horizon membership test for the deep-excursion set: every
    recorded depth exceeds log(tau) and every inter-excursion gap stays below
    kappa.  The verdict only speaks for the horizon of the trace."""
    if not 0 < tau < math.inf or kappa < 0:
        raise ValueError("tau must be positive and finite and kappa nonnegative")
    return corridor_membership(trace, tau, math.inf, kappa)


def corridor_membership(trace: ExcursionTrace, tau_lo: float, tau_hi: float,
                        kappa: float) -> Membership:
    """Two-sided variant: log(tau_lo) < depth <= log(tau_hi) with gaps below
    kappa.  This is the corridor set used to mass lower bounds from inside."""
    if not 0 < tau_lo < tau_hi:
        raise ValueError("need 0 < tau_lo < tau_hi")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    lo, hi = math.log(tau_lo), math.log(tau_hi)
    recs = trace.entered()
    if not recs:
        raise ValueError("empty trace")
    flags = []
    for rec in recs:
        ok = lo < rec.depth <= hi
        if rec.gap_to_next is not None:
            ok = ok and rec.gap_to_next < kappa
        flags.append(ok)
    return Membership(flags, all(flags))


@dataclass(frozen=True)
class JarnikRatios:
    """Finite-horizon limsup data for the two excursion ratio forms.

    ``depth_over_time`` is d_n / t_n; ``depth_over_sum`` is
    d_n / (2 (d_1 + ... + d_{n-1})).  The two tail suprema estimate theta and
    theta/(1-theta) respectively; ``theta_hat`` and ``ratio_hat`` are the
    suprema over the second half of the horizon.
    """

    depth_over_time: list
    depth_over_sum: list
    tail_sup_time: list
    tail_sup_sum: list
    theta_hat: float
    ratio_hat: float


def _tail_sup(values):
    out = [0.0] * len(values)
    run = -math.inf
    for i in range(len(values) - 1, -1, -1):
        run = max(run, values[i])
        out[i] = run
    return out


def jarnik_ratios(trace: ExcursionTrace) -> JarnikRatios:
    recs = trace.entered()
    if len(recs) < 2:
        raise ValueError("need at least two entered excursions")
    d = [r.depth for r in recs]
    t = [r.time for r in recs]
    dot = [di / ti for di, ti in zip(d, t)]
    dos = []
    acc = d[0]
    for n in range(1, len(d)):
        dos.append(d[n] / (2.0 * acc))
        acc += d[n]
    sup_t = _tail_sup(dot)
    sup_s = _tail_sup(dos)
    theta_hat = sup_t[len(dot) // 2]
    ratio_hat = sup_s[len(dos) // 2]
    return JarnikRatios(dot, dos, sup_t, sup_s, theta_hat, ratio_hat)


def theta_to_ratio(theta: float) -> float:
    """theta -> theta / (1 - theta), the growth form of the same limsup."""
    if not 0 <= theta < 1:
        raise ValueError("theta must lie in [0, 1)")
    return theta / (1.0 - theta)


def ratio_to_theta(ratio: float) -> float:
    if ratio < 0:
        raise ValueError("ratio must be nonnegative")
    return ratio / (1.0 + ratio)
