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
the records; it lives in ``contfrac.convergent_pairs``) plus O(1) float work
per excursion.  Complete quotients come from backward evaluation in floats,
where a digit beyond float range gives inf, and a complete quotient x beyond
2^500 enters only through its log: the crossings are A_n + 1/x and x, the
depth log x - log 2 and the exit distance 2 log x - log Y_n, all to double
precision.

Depths can be formally non-positive (the ray misses the convergent's ball,
possible whenever the governing digit is 1); such balls are recorded as
skipped and excluded from times and gaps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate

from .contfrac import ContinuedFraction, complete_quotients, convergent_pairs
from .halfplane import chord_length
from .numerics import InsufficientDigitsError, tail_extreme

_LOOKAHEAD = 44  # extra digits used to evaluate complete quotients
_HUGE_QUOTIENT = 2.0 ** 500  # beyond it, a complete quotient enters via its log
_LOG2 = math.log(2.0)
_FLOAT_MAX = sys.float_info.max
# Once p_n >= 2^64, every later convergent lies within a relative
# 1/(p_n q_{n+1}) < 2^-128 of p_n/q_n, so its rounded ratio stops changing
# (up to one ulp, if p_n/q_n sits that close to a rounding boundary).
_RATIO_SETTLED = 1 << 64


@dataclass(slots=True)
class ExcursionRecord:
    """Bookkeeping for the excursion at the n-th convergent (1-based).

    The trace that builds a record fills its ``gap_to_next``; callers treat
    records as read-only and take a modified copy with
    ``dataclasses.replace``.
    """

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

    def depths(self):
        return [r.depth for r in self.entered()]

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
    records = list(_excursion_records(ds, quot, xi, horizon))
    _link_gaps(records)
    return ExcursionTrace(records, horizon, xi=xi)


def _excursion_records(ds, quot, xi, horizon):
    """ExcursionRecords for n = 1..horizon, gaps not yet linked."""
    cn, r = 0.0, 0.0        # p_0/q_0, q_{-1}/q_0
    settled = False         # p_{n-1} >= 2^64
    for n, (a, (p_cur, q_cur)) in enumerate(zip(ds[:horizon], convergent_pairs(ds)), 1):
        cnm = cn
        if not settled:
            cn = p_cur / q_cur
            settled = p_cur >= _RATIO_SETTLED
        # q_{n-1}/q_n; below 2^-1024 after a digit beyond float range
        r = 1.0 / (a + r) if a <= _FLOAT_MAX else 0.0
        A = -r * (1.0 + xi * cnm) / (1.0 + xi * cn)
        B = quot[n]
        if B < _HUGE_QUOTIENT:
            R = 0.5 * (B - A)
            depth = math.log(R)
            if R <= 1.0:
                yield ExcursionRecord(n, p_cur, q_cur, ds[n], depth,
                                      False, None, None, None)
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
        yield ExcursionRecord(n, p_cur, q_cur, ds[n], depth, True,
                              entry_dist, exit_dist, entry_dist + depth)


def _link_gaps(records):
    """Set each entered record's gap_to_next to the travel from its exit to
    the next entered record's entry; the last entered record keeps None."""
    prev = None
    for rec in records:
        if rec.entered:
            if prev is not None:
                prev.gap_to_next = rec.entry_dist - prev.exit_dist
            prev = rec


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
    _link_gaps(records)
    return ExcursionTrace(records, len(depths))


def gap_bound_estimate(traces) -> float:
    """Empirical bound on inter-excursion travel: the maximum observed gap
    across a sample of traces."""
    gaps = [g for tr in traces for g in tr.gaps()]
    if not gaps:
        raise ValueError("no gaps observed (need traces with >= 2 entered excursions)")
    return max(gaps)


@dataclass(frozen=True)
class Membership:
    flags: list
    verdict: bool


def good_membership(trace: ExcursionTrace, tau: float, kappa: float) -> Membership:
    """Finite-horizon membership test for the deep-excursion set: every
    recorded depth exceeds log(tau) and every inter-excursion gap stays below
    kappa.  The verdict only speaks for the horizon of the trace."""
    if not 0 < tau < math.inf or not kappa >= 0:
        raise ValueError("tau must be positive and finite and kappa nonnegative")
    recs = trace.entered()
    if not recs:
        raise ValueError("empty trace")
    log_tau = math.log(tau)
    flags = [rec.depth > log_tau and (rec.gap_to_next is None or rec.gap_to_next < kappa)
             for rec in recs]
    return Membership(flags, all(flags))


@dataclass(frozen=True)
class JarnikRatios:
    """Finite-horizon limsup estimates for the two excursion ratio forms,
    each the supremum over the second half of the entered excursions
    (``numerics.tail_extreme``).

    ``theta_hat``: of d_n / t_n, estimating theta.
    ``ratio_hat``: of d_n / (2 (d_1 + ... + d_{n-1})), estimating
    theta / (1 - theta).
    """

    theta_hat: float
    ratio_hat: float


def jarnik_ratios(trace: ExcursionTrace) -> JarnikRatios:
    recs = trace.entered()
    if len(recs) < 2:
        raise ValueError("need at least two entered excursions")
    d = [r.depth for r in recs]
    over_time = [r.depth / r.time for r in recs]
    over_sum = [dn / (2.0 * acc) for dn, acc in zip(d[1:], accumulate(d))]
    return JarnikRatios(tail_extreme(max, over_time), tail_extreme(max, over_sum))

