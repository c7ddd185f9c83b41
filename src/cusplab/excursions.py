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
above height 1 and every needed quantity is an O(1) ratio:

* the ray becomes the semicircle over (A_n, x_{n+1}) where x_{n+1} is the
  complete quotient [a_{n+1}; a_{n+2}, ...] and
  A_n = -(q_{n-1} + xi p_{n-1}) / (q_n + xi p_n)
      = -r_n (1 + xi c_{n-1}) / (1 + xi c_n),
* the base point i lands at (X_n, Y_n) with
  X_n = -(q_{n-1} q_n + p_{n-1} p_n) / (q_n^2 + p_n^2)
      = -r_n (1 + c_{n-1} c_n) / (1 + c_n^2) and
  Y_n = 1 / (q_n^2 + p_n^2), carried as log Y_n = -(2 log q_n + log1p(c_n^2)),
* depth_n = log R_n with R_n the semicircle radius, and entry/exit times are
  distances from (X_n, Y_n) to the height-1 crossings of the semicircle.

The ratios are floats: r_n = q_{n-1}/q_n follows the recurrence
r_n = 1/(a_n + r_{n-1}), r_0 = 0, which contracts errors by r_n^2 per step;
c_n = p_n/q_n is one big-integer division per step until p_n reaches 2^64,
after which its rounded value no longer changes; log q_n is the log of a big
integer, which costs O(1).  No step squares or divides big integers beyond
that, so a trace costs the big-integer recurrence for p_n and q_n (kept for
the records) plus O(1) float work per excursion.  Complete quotients come
from backward evaluation in floats, where a digit beyond float range gives
inf, and a complete quotient x beyond 2^500 enters only through its log:
the crossings are A_n + 1/x and x, the depth log x - log 2 and the exit
distance 2 log x - log Y_n, all to double precision.

Depths can be formally non-positive (the ray misses the convergent's ball,
possible whenever the governing digit is 1); such balls are recorded as
skipped and excluded from times and gaps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .contfrac import ContinuedFraction, complete_quotients
from .halfplane import chord_length
from .numerics import InsufficientDigitsError

_LOOKAHEAD = 44  # extra digits used to evaluate complete quotients
_HUGE_QUOTIENT = 2.0 ** 500  # beyond it, a complete quotient enters via its log
_LOG2 = math.log(2.0)
_FLOAT_MAX = sys.float_info.max
# Once p_n >= 2^64, every later convergent lies within a relative
# 1/(p_n q_{n+1}) < 2^-128 of p_n/q_n, so its rounded ratio stops changing
# (up to one ulp, if p_n/q_n sits that close to a rounding boundary).
_RATIO_SETTLED = 1 << 64


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


def _dist_to_unit_height(dx, log_y):
    """Distance from (x, exp(log_y)) to (x + dx, 1), stable for arbitrarily
    small source heights and arbitrarily large offsets."""
    if log_y > -600.0:
        y = math.exp(log_y)
        c = 1.0 + (dx * dx + (1.0 - y) ** 2) / (2.0 * y)
        if c < 1e300:
            return math.acosh(c)
    elif abs(dx) < 1e150:
        return math.log(dx * dx + 1.0) - log_y
    # dx^2 / y dominates c, and acosh(c) = log(2c) to double precision
    return 2.0 * math.log(abs(dx)) - log_y


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
    quot = complete_quotients(ds)  # quot[n] = x_{n+1}
    xi = 1.0 / quot[0]
    records = _build_records(_excursion_rows(ds, quot, xi, horizon))
    return ExcursionTrace(records, horizon, xi=xi)


def _excursion_rows(ds, quot, xi, horizon):
    """(n, p_n, q_n, a_{n+1}, depth, entry_dist, exit_dist) for n = 1..horizon,
    the distances None where the ray misses the ball."""
    p_prev, p_cur = 1, 0    # p_{-1}, p_0
    q_prev, q_cur = 0, 1    # q_{-1}, q_0
    cn, r = 0.0, 0.0        # p_0/q_0, q_{-1}/q_0
    for n in range(1, horizon + 1):
        a = ds[n - 1]
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        cnm = cn
        if p_prev < _RATIO_SETTLED:
            cn = p_cur / q_cur
        # q_{n-1}/q_n; below 2^-1024 after a digit beyond float range
        r = 1.0 / (a + r) if a <= _FLOAT_MAX else 0.0
        A = -r * (1.0 + xi * cnm) / (1.0 + xi * cn)
        B = quot[n]
        if B < _HUGE_QUOTIENT:
            R = 0.5 * (B - A)
            depth = math.log(R)
            if R <= 1.0:
                yield n, p_cur, q_cur, ds[n], depth, None, None
                continue
            m = 0.5 * (A + B)
            s = math.sqrt((R - 1.0) * (R + 1.0))
            entry_x = (A * B + 1.0) / (m + s)   # m - s without cancellation
            exit_x = m + s
        else:
            # B = a_{n+1} + 1/x_{n+2} beyond 2^500 (inf beyond float range):
            # the crossings are A + 1/B and B, and log B = log a_{n+1}, to
            # double precision
            log_b = math.log(ds[n])
            depth = log_b - _LOG2
            entry_x = A + 1.0 / B
            exit_x = None
        X = -r * (1.0 + cn * cnm) / (1.0 + cn * cn)
        log_y = -(2.0 * math.log(q_cur) + math.log1p(cn * cn))
        entry_dist = _dist_to_unit_height(X - entry_x, log_y)
        if exit_x is None:
            exit_dist = 2.0 * log_b - log_y
        else:
            exit_dist = _dist_to_unit_height(X - exit_x, log_y)
        yield n, p_cur, q_cur, ds[n], depth, entry_dist, exit_dist


def _build_records(rows):
    """ExcursionRecords from (index, p, q, digit, depth, entry_dist,
    exit_dist) rows, entry_dist None for a skipped ball.  Each record is
    built once: an entered one waits in its slot until the next entered row
    gives its gap."""
    records = []
    slot = pending = None
    for index, p, q, digit, depth, entry_dist, exit_dist in rows:
        if entry_dist is None:
            records.append(ExcursionRecord(index, p, q, digit, depth,
                                           False, None, None, None))
            continue
        if pending is not None:  # pending[7] is its exit_dist
            records[slot] = ExcursionRecord(*pending, entry_dist - pending[7])
        slot = len(records)
        pending = (index, p, q, digit, depth, True, entry_dist, exit_dist,
                   entry_dist + depth)
        records.append(None)
    if pending is not None:
        records[slot] = ExcursionRecord(*pending)
    return records


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

    def rows():
        pos = float(initial)
        for k, d in enumerate(depths):
            chord = chord_length(d)
            yield k + 1, None, None, None, d, pos, pos + chord
            pos += chord + gaps[k]

    return ExcursionTrace(_build_records(rows()), len(depths))


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
