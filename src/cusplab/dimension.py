"""Hausdorff-dimension machinery for restricted-digit continued fraction sets.

Three routes are implemented and cross-checked against each other:

* ``crude_critical_exponent`` solves sum_{a=N..M} (a + shift)^{-2s} = 1, the
  critical exponent of an elementary cover sum: by zeta(2s, N + shift) = 1
  for M = infinity, by that sum cut to M - N + 1 terms for a finite M.  On
  [0, 1/N] the transfer operator satisfies sum (a + 1/N)^{-2s} <= (L_s 1)(x)
  <= sum a^{-2s} pointwise, so its unit-eigenvalue root is pinned between the
  roots for shift 1/N (1 for {a >= N}) and shift 0.
* ``transfer_dimension`` solves lambda(s) = 1 for the leading eigenvalue of
  the Gauss-map transfer operator (L_s f)(x) = sum_a (a+x)^{-2s} f(1/(a+x)),
  discretized by polynomial collocation on Chebyshev-Lobatto nodes.  The
  first 128 digits N..M of any range are summed directly, through basis
  values built once; beyond them the interpolant, rewritten as a degree-4
  polynomial on the tail interval [0, 1/(M + 1)] through its values at 5
  Lobatto points there, needs per node x only the tail sums of
  (a + x)^{-2s-m}, m = 0..4: Hurwitz zeta values, cut to a finite range's
  last digit, so no mass is dropped and no cost grows with the width.  The
  basis values on the tail interval are bounded, so the tail's rounding does
  not grow with the node count; its one error is the degree-4 interpolation,
  which falls like (MN)^-5 M^(1-2s).  The root lies within 1.1e-16 of a
  direct sum to 1024N for {a >= N} (N in {1, 2, 3, 5, 10, 100}, 12-100
  nodes) and within 3.3e-16 of an all-direct sum for finite ranges up to
  {3..4000} (12-40 nodes); a head of 64 digits leaves {1..100} 3.1e-15 off.
* ``ulam_dimension`` repeats the computation on a uniform grid of bins
  (bin-center collocation), purely as an independent oracle.  Digits a with
  a(a + 1) <= lower * bins are gather digits, whose target column moves
  every ~a^2 rows; the rest land in a head block of ~sqrt(lower * bins)
  columns.  For an infinite range the head is Hurwitz zeta differences
  between bin boundaries, which keep the full tail, held as Taylor series
  in the row's offset from the row centre: J zeta values per column at
  each s and no (rows, columns) array.  The gather digits from a split A
  on join it: each one's weight is a Taylor series too, and each step of
  its column an event in the same cumulative sum.  A minimises (A - N) +
  J(A), so on 1024 bins {a >= 2} keeps digits 2 and 3 as one gather entry
  per row (J = 18), and from N = 5 on no digit is (J = 5 at N = 200).  A
  finite range gathers every gather digit, one entry per row, and
  scatters its head digits into a dense block.  It is a Cantor set, and its
  matrix is built only on its kept bins, those its maps keep reaching from
  the whole domain (at 1024 bins a median 7 % of them over the benchmark's
  finite sets, 2 for {15, 16}).
  Kept rows reach only kept bins, and the dropped bins' block is nilpotent,
  so the kept block has every nonzero eigenvalue of the full matrix; its
  leading one differs only by rounding.  An infinite range keeps every bin.

Both discretizations find the root of lambda(s) = 1 with Brent's method
(``numerics.bracketed_root``), as the sign change of the pressure
log lambda(s), inside a rigorous crude bracket of two crude exponents; every
set with N = 1 takes s = 2 as its upper end.  The search runs 1e-9 past
each end, and an estimate that lands in that margin is moved to the end it
passed, so it never leaves the bracket it reports.  Each operator builds
what does not depend on s once, when it is made, so each trial s costs the
s-dependent part of one assembly and one power iteration; a solve takes 4-8
of them (about 5 on average).  The reported residual |lambda(root) - 1|
comes from the evaluation at the root.

All three routes take their Hurwitz zeta sums, whole or cut to a count, from
``hurwitz_zeta``: direct terms plus an Euler-Maclaurin tail, scalar or array.

Gap constants enter the underlying cover sums only as fixed per-level
factors; their k-th roots tend to 1, so they cannot move critical exponents
and are omitted here.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .numerics import NumericError, bracketed_root


# the Bernoulli numbers B_2, B_4, ..., B_16 as (numerator, denominator)
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510))
# (B_2k / (2k)!, 2k - 1, 2k) for k = 1..8: the Euler-Maclaurin coefficient of
# the zeta tail, and the factors x + 2k - 1, x + 2k that take x(x+1)...(x+2k-2)
# to the next k
_EM_TERMS = tuple((num / (den * math.factorial(2 * k)), 2.0 * k - 1.0, 2.0 * k)
                  for k, (num, den) in enumerate(_BERNOULLI, start=1))
_EM_START = 24.0  # terms (q + j)^{-x} with q + j below this are summed directly
_POWER_TOL = 1e-12  # relative move of the Rayleigh quotient that ends power iteration
_POWER_MAX_ITER = 200_000


def hurwitz_zeta(x, q, count=None):
    """Hurwitz zeta(x, q) = sum_{k >= 0} (k + q)^{-x} for real x > 1 and
    q > 0, each a float or an array; arrays are broadcast against each
    other and taken elementwise.  An integer ``count`` >= 0 cuts the sum to
    the terms k < count, for any finite x.

    The terms with q + k < 24 are summed directly; the rest is the
    Euler-Maclaurin sum at the first q' = q + k >= 24, T(q') =
    q'^{-x} (q'/(x-1) + 1/2 + sum_{j=1..8} B_2j/(2j)! x(x+1)...(x+2j-2) q'^{1-2j}),
    whose first omitted term is below 1e-16 of the value for x <= 12.  The
    c terms a count leaves at q' sum to T(q') - T(q' + c), the integral terms
    taken as q'^{1-x} L expm1(u)/u, L = log1p(c/q'), u = (1 - x) L, which
    does not cancel and holds at x = 1.  A scalar x and q, Python or numpy,
    return a float.  Arrays run the same operations per element, so a stack
    of x against an array q gives the bits of one call per x.
    """
    if count is not None and (count := operator.index(count)) < 0:
        raise ValueError(f"hurwitz_zeta needs a count >= 0, got {count}")
    # np.ndim of a Python number costs a microsecond, and the crude exponents
    # make a dozen scalar calls per solve
    scalar_x = isinstance(x, float) or np.ndim(x) == 0
    if scalar_x:
        x = float(x)
        good_x = (count is not None or x > 1.0) and math.isfinite(x)
    else:
        x = np.asarray(x, dtype=float)
        good_x = bool(np.all(((count is not None) | (x > 1.0)) & np.isfinite(x)))
    if not good_x:
        raise ValueError(f"hurwitz_zeta needs every x finite, and > 1 with no count, got {x}")
    if scalar_x and (isinstance(q, (int, float)) or np.ndim(q) == 0):
        q = lo = hi = float(q)
    else:
        q = np.array(np.broadcast_to(q, np.broadcast_shapes(np.shape(x), np.shape(q))),
                     dtype=float)
        lo, hi = q.min(initial=_EM_START), q.max(initial=_EM_START)
    if not (lo > 0.0 and hi < math.inf):
        raise ValueError(f"hurwitz_zeta needs every q finite and > 0, got min {lo}, max {hi}")
    total, left, steps = 0.0, count, math.ceil(_EM_START - lo)
    # enough steps to lift the smallest q to 24 or to use up the count; a q already there adds 0
    for _ in range(steps if count is None else min(steps, count)):
        small = q < _EM_START
        total += small * q ** -x
        q += small
        if count is not None:
            left -= small
    if count is not None and count < math.ceil(_EM_START - hi):  # all direct (only a scalar q)
        return total
    # x(x+1)...(x+2j-2) B_2j/(2j)!, innermost (j = 8) first for Horner's rule
    coeffs, rising = [], x
    for c, u, v in _EM_TERMS:
        coeffs.append(c * rising)
        rising = rising * ((x + u) * (x + v))  # not in place: rising starts as x
    coeffs.reverse()

    def series(q):  # q^x T(q) - q/(x-1), by augmented steps, in place on arrays
        r2 = 1.0 / q
        r2 *= r2
        h = r2 * coeffs[0]
        for c in coeffs[1:-1]:
            h += c
            h *= r2
        h += coeffs[-1]
        h /= q
        h += 0.5
        return h

    h = series(q)
    if count is None:
        h += q / (x - 1.0)
        h *= q ** -x
    else:  # a q still below 24 has no terms left, and both its ends are q
        end = q + left
        h *= q ** -x
        h -= series(end) * end ** -x
        log1p, expm1 = (math.log1p, math.expm1) if isinstance(q, float) else (np.log1p, np.expm1)
        span = log1p(left / q)
        u = (1.0 - x) * span
        u += (u == 0.0) * 1e-300  # expm1(u)/u is 1 at u = 0; expm1 returns a tiny u itself
        h += q ** (1.0 - x) * span * (expm1(u) / u)
    h += total
    return h


def power_iteration(mat, v0=None):
    """Dominant eigenvalue of a square matrix by plain power iteration.

    Returns (eigenvalue, eigenvector, iterations).  Convergence is declared
    when the Rayleigh quotient moves by less than ``_POWER_TOL * max(1, |lam|)``.
    Raises NumericError with diagnostics if the iteration does not settle.
    """
    n = mat.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n)) if v0 is None else v0 / np.linalg.norm(v0)
    lam_prev = None
    for it in range(1, _POWER_MAX_ITER + 1):
        w = mat @ v
        nrm = math.sqrt(float(w @ w))  # np.linalg.norm's sum for a 1-D float array
        if nrm == 0.0 or not math.isfinite(nrm):
            raise NumericError(f"power iteration degenerated at step {it} (norm={nrm})")
        lam = float(v @ w)
        w /= nrm
        v = w
        if lam_prev is not None and abs(lam - lam_prev) <= _POWER_TOL * max(1.0, abs(lam)):
            return lam, v, it
        lam_prev = lam
    raise NumericError(
        f"power iteration did not converge in {_POWER_MAX_ITER} steps "
        f"(last eigenvalue estimate {lam_prev!r}, matrix size {n})"
    )


@dataclass(frozen=True)
class DigitAlphabet:
    """Contiguous digit range {lower, ..., upper} of ints; upper = None means infinite."""

    lower: int
    upper: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "lower", operator.index(self.lower))
        if self.upper is not None:
            object.__setattr__(self, "upper", operator.index(self.upper))
        if self.lower < 1:
            raise ValueError("lower digit bound must be >= 1")
        if self.upper is not None and self.upper < self.lower:
            raise ValueError("upper digit bound must be >= lower")

    @property
    def infinite(self) -> bool:
        return self.upper is None

    @property
    def domain(self) -> float:
        """The maps 1/(a+x) send [0, 1/lower] into itself."""
        return 1.0 / self.lower


# ---------------------------------------------------------------------------
# crude critical exponents
# ---------------------------------------------------------------------------

def crude_critical_exponent(n, shift, tol=1e-10, upper=None):
    """The s with sum_{a=n..upper} (a + shift)^{-2s} = 1; upper = None sums
    zeta(2s, n + shift) and searches (1/2, 4], a finite upper sums directly
    and searches [0, 2], as such a root can lie below 1/2.  shift lies in
    [0, 1] and n + shift >= 2 (for n = 1, shift = 0 the full zeta series
    always exceeds 1)."""
    if not 0 <= shift <= 1:
        raise ValueError(f"shift must lie in [0, 1], got {shift!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if upper is not None and upper < n:
        raise ValueError(f"upper end {upper} is below n = {n}")
    m = n + shift
    if m < 2:
        raise ValueError("no root: the full-alphabet sum always exceeds 1")
    if upper is None:
        return bracketed_root(lambda s: hurwitz_zeta(2.0 * s, m) - 1.0, 0.5 + 1e-9, 4.0, xtol=tol)
    count = upper - n + 1
    return bracketed_root(lambda s: math.log(hurwitz_zeta(2.0 * s, m, count)), 0.0, 2.0, xtol=tol)


# ---------------------------------------------------------------------------
# collocation discretization
# ---------------------------------------------------------------------------

def _lobatto_nodes(k, h):
    j = np.arange(k)
    return 0.5 * h * (1.0 - np.cos(np.pi * j / (k - 1)))


def _bary_weights(k):
    w = np.ones(k)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _basis_at(nodes, bw, u):
    """Lagrange basis values l_j(u) for a flat array of evaluation points."""
    vals = u[:, None] - nodes[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(bw[None, :], vals, out=vals)
        total = vals.sum(axis=1, keepdims=True)
        vals /= total
    # a point on a node divides by zero, which leaves its row sum non-finite
    rows = ~np.isfinite(total[:, 0])
    if rows.any():
        vals[rows] = u[rows, None] == nodes[None, :]
    return vals


def _digit_blocks(x, lo, hi, entries):
    """The (len(x), digits) blocks a + x for the digits a = lo..hi in order,
    max(1, entries // len(x)) digits each (the last may hold fewer).  A
    caller that folds each block in before taking the next holds O(entries)
    values at a time, however many digits the range has."""
    step = max(1, entries // len(x))
    for start in range(lo, hi + 1, step):
        a = np.arange(start, min(start + step, hi + 1), dtype=float)
        yield x[:, None] + a[None, :]


_TAIL_ORDER = 5  # polynomial terms of the interpolant used for the tail
# (digit, bin) pairs per block of a finite Ulam head scatter or of its
# kept-bins count (512 KB a temporary).  On the benchmark's Ulam solves 2^14,
# 2^16 and 2^18 ran equally fast, with 9.4k, 23k and 47k minor page faults.
_SCATTER_BLOCK = 1 << 16
_DIRECT_DIGITS = 128  # the first digits of any range, summed one by one


class _CollocationOperator:
    """The collocation matrix at any s.  What does not depend on s, a + x and
    the basis values of the direct digits and the tail's coefficients, is
    built once, here."""

    def __init__(self, alphabet: DigitAlphabet, nodes: int):
        if nodes < 8:
            raise ValueError("need at least 8 collocation nodes")
        self.alphabet = alphabet
        self.x, bw = _lobatto_nodes(nodes, alphabet.domain), _bary_weights(nodes)
        direct_hi = min(alphabet.lower + _DIRECT_DIGITS - 1, alphabet.upper or math.inf)
        a = np.arange(alphabet.lower, direct_hi + 1, dtype=float)
        self.denom = self.x[:, None] + a[None, :]  # (nodes, digits)
        self.basis = _basis_at(self.x, bw, (1.0 / self.denom).ravel()).reshape(
            *self.denom.shape, nodes)
        self.coef = None
        if direct_hi != alphabet.upper:
            # the interpolant on the tail interval [0, eps] through its values at
            # _TAIL_ORDER Lobatto points there, as a polynomial sum_m c_m u^m
            # (solved in u/eps, where the Vandermonde matrix is well conditioned)
            eps, self.tail_q = 1.0 / (direct_hi + 1.0), direct_hi + 1 + self.x
            self.tail_count = None if alphabet.infinite else alphabet.upper - direct_hi
            t = _lobatto_nodes(_TAIL_ORDER, 1.0)
            self.coef = np.linalg.solve(np.vander(t, increasing=True),
                                        _basis_at(self.x, bw, eps * t))  # (m, nodes)
            self.coef *= eps ** -np.arange(_TAIL_ORDER, dtype=float)[:, None]

    def matrix(self, s):
        out = np.einsum("kc,kcj->kj", self.denom ** (-2.0 * s), self.basis)
        if self.coef is not None:
            # (m, node) sums over the tail digits a of (a + x)^{-2s-m}, m < _TAIL_ORDER
            out += hurwitz_zeta(2.0 * s + np.arange(_TAIL_ORDER)[:, None], self.tail_q,
                                self.tail_count).T @ self.coef
        return out


# ---------------------------------------------------------------------------
# piecewise-constant (Ulam-type) discretization
# ---------------------------------------------------------------------------

# an infinite range's Taylor series stop where their first omitted term falls
# below this share of the value
_TAYLOR_TOL = 2.0 ** -60


def _taylor_order(x, first):
    """The least J with (max|t| / (first + x0))^J (J + 1)^3 < 2^-60: the
    Taylor order in the offsets t = x - x0 of the rows x from their centre
    x0 for terms in digits a >= ``first``."""
    x0 = 0.5 * (x[0] + x[-1])
    reach = (x0 - x[0]) / (first + x0)
    order = 1
    while reach ** order * (order + 1) ** 3 >= _TAYLOR_TOL:
        order += 1
    return order


def _first_rows(below, n, rows):
    """For each of n entries, by bisection, the first row r < ``rows`` at
    which ``below`` holds (``rows`` if none); ``below`` takes an array of
    one row per entry, and per entry turns from false to true along the
    rows."""
    first, past = np.zeros(n, dtype=np.intp), np.full(n, rows)
    while (open_ := first < past).any():
        mid = np.minimum((first + past) // 2, rows - 1)
        falls = below(mid)
        past = np.where(open_ & falls, mid, past)
        first = np.where(open_ & ~falls, mid + 1, first)
    return first


class _UlamMatrix:
    """An Ulam matrix on the operator's bins: per direct digit a weight in
    every row and the runs (column, length) of its target columns, plus a
    head, a dense block on the first columns for a finite range and a
    ``_ZetaHead`` over every column for an infinite one."""

    def __init__(self, runs, wgt, head):
        self.runs, self.wgt, self.head = runs, wgt, head
        self.shape = (head.shape[0], head.shape[0])

    def __matmul__(self, v):
        out = self.head @ v[:self.head.shape[1]]  # zeros for a narrow finite range's empty head
        if len(self.wgt):  # {a >= N} has none from N = 5 on at 1024 bins
            gathered = np.repeat(v[self.runs[0]], self.runs[1]).reshape(self.wgt.shape)
            out += np.einsum("ji,ji->i", self.wgt, gathered)
        return out


class _ZetaHead:
    """The digits of {a >= N} from the stair split A on, at one s: the head
    digits a >= head_lo and the gather digits A..head_lo - 1, held as Taylor
    coefficients in the row offset t = x - x0 from the row centre x0, with
    no (rows, digits) or (rows, columns) array.

    Head column k - 1 is Z_k - Z_{k-1}, where Z_k(x) sums (a + x)^{-2s} over
    the head digits a >= m_k(x) = max(floor(1/(k w) - x) + 1, head_lo), a
    zeta value per boundary k (Z_0 = 0).  The rows span less than 1/N <= 1,
    so m_k is an integer M_k up to a row r_k and M_k - 1 from r_k on, and

        Z_k(x0 + t) = zeta(2s, M_k + x0 + t) + [row >= r_k] (M_k - 1 + x0 + t)^{-2s}:

    at row r_k the switching digit M_k - 1 enters column k - 1 from column
    k.  A gather digit a weighs (a + x0 + t)^{-2s} in the column the
    operator's ``_columns`` gives it, which falls every ~a^2 rows: the digit
    starts in its row-0 column and enters column L from L + 1 at the first
    row whose column is at most L, found by bisection with that same
    expression, so every (digit, row) pair keeps its bin.

    Every term is a Taylor series in t with radius at least A + x0
    (head_lo - 1 + x0 with no gather digits), and the coefficient of t^j is
    (-1)^j binom(2s + j - 1, j) times zeta(2s + j, M_k + x0), or (a +
    x0)^{-2s-j} for one digit a, a binomial below (j + 1)^3 for 2s <= 4.
    So the first ``order`` powers, J = ``_taylor_order`` at A, leave out
    less than 2^-60 of each value: on 1024 bins J is 18 at N = 2 (A = 4)
    and 5 at N = 200 (A = 200).  That bound also scales each order's
    rounding, so the orders whose zeta values ``hurwitz_zeta`` takes at
    2s + j > 12, a little less accurately, add under 1e-16 of the value.

    M_k, r_k, the gather digits' row-0 columns and their events (a digit
    entering column L from L + 1 at a row) and the powers of t are built
    once; ``at(s)`` takes J zeta values per boundary, differenced per column
    at the coefficient level, and J coefficients per gather or switching
    digit.  A product sums the coefficients against v at their row-0
    columns, adds the events' coefficients times v_L - v_{L+1} as one
    cumulative sum in row order (row i takes the events at rows <= i), and
    sums the J rows against the powers of t."""

    def __init__(self, x, w, lo, cols, digits, columns):
        b, nd = len(x), len(digits)
        self.shape = (b, b)
        x0 = 0.5 * (x[0] + x[-1])
        inv_kw = 1.0 / (np.arange(1, cols + 1, dtype=float) * w)

        def first_digit(rows):
            """m_k at one row per boundary."""
            return np.maximum(np.floor(inv_kw - x[rows]) + 1.0, lo)

        m = first_digit(0)
        switch = _first_rows(lambda rows: first_digit(rows) < m, cols, b)
        # the last boundary is clamped to head_lo at every row, so it never
        # switches, and each step has a next column
        steps = np.flatnonzero(switch < b)
        # each gather digit's row-0 column, and the columns L it enters after
        # row 0, from the highest down
        base = columns(digits + x[0])
        falls = base - columns(digits + x[-1])
        owner = np.repeat(np.arange(nd), falls)
        level = base[owner] - 1 - (np.arange(len(owner)) - (np.cumsum(falls) - falls)[owner])
        entered = _first_rows(lambda rows: columns(digits[owner] + x[rows]) <= level,
                              len(owner), b)
        order = _taylor_order(x, digits[0] if nd else lo - 1.0)
        self.j = np.arange(order, dtype=float)
        # (order, rows), by repeated products, far cheaper than np.power's general powers
        self.tpow = np.ones((order, b))
        np.cumprod(np.broadcast_to(x - x0, (order - 1, b)), axis=0, out=self.tpow[1:])
        self.q = m + x0
        self.cols = np.concatenate((np.arange(cols), base))  # a coefficient column each
        self.coef = np.empty((order, len(self.cols)))  # refilled at each s
        # the digits with a coefficient per s: the gather digits, then each
        # boundary's switching digit
        self.step_q = np.concatenate((digits, m[steps] - 1.0)) + x0
        # every event in the order of its row: the column it enters and its digit
        rows = np.concatenate((switch[steps], entered))
        by_row = np.argsort(rows, kind="stable")
        self.steps = np.concatenate((steps, level))[by_row]
        self.step_digit = np.concatenate((nd + np.arange(len(steps)), owner))[by_row]
        # the rows of each stair: row i takes the events at rows <= i
        self.stair_rows = np.diff(rows[by_row], prepend=0, append=b)
        self.stair = np.zeros((order, len(self.steps) + 1))  # column 0: rows before any event
        self.step_coef = None  # refilled at each s

    def at(self, s):
        """The head at s, valid until the next call."""
        sigma, j, cols = 2.0 * s, self.j, len(self.q)
        # (-1)^j binom(2s + j - 1, j)
        binom = np.cumprod(np.concatenate(([1.0], -(sigma + j[:-1]) / j[1:])))[:, None]
        zeta = hurwitz_zeta(sigma + j[:, None], self.q)
        zeta *= binom
        self.coef[:, :cols] = np.diff(zeta, axis=1, prepend=0.0)
        power = self.step_q ** -(sigma + j[:, None])
        power *= binom
        self.coef[:, cols:] = power[:, :len(self.cols) - cols]  # the gather digits
        self.step_coef = power[:, self.step_digit]
        return self

    def __matmul__(self, v):
        # an event entering column L from L + 1 adds to L and takes from L + 1
        u = v[self.steps]
        u -= v[self.steps + 1]
        stair = self.stair
        np.cumsum(self.step_coef * u, axis=1, out=stair[:, 1:])
        stair[:, 0] = 0.0
        stair += (self.coef @ v[self.cols])[:, None]
        return np.einsum("ji,ji->i", np.repeat(stair, self.stair_rows, axis=1), self.tpow)


class _UlamOperator:
    """The Ulam matrix at any s: the digits with a(a + 1) <= lower * bins are
    gathered, the rest fill the head.  A finite range keeps only the bins its
    maps keep reaching (``_kept_bins``): ``x`` holds their centers and ``pos``
    maps a bin to its place among them; an infinite range keeps every bin and
    has no ``pos``, and its gather digits from the stair split on
    (``_stair_split``) join its ``_ZetaHead``.  The direct digits' target
    columns and a + x, and an infinite range's ``_ZetaHead`` geometry, do
    not depend on s, so they are built once, here; a finite range's dense
    head is filled at each s."""

    def __init__(self, alphabet: DigitAlphabet, bins: int):
        if bins < 64:
            raise ValueError("need at least 64 bins")
        self.alphabet = alphabet
        self.bins = bins
        self.w = alphabet.domain / bins
        x = (np.arange(bins) + 0.5) * self.w
        top = min(self._gather_top(), alphabet.upper or math.inf)
        # a head digit a lands in a column of at most int(1/(a w)) <= int(1/(head_lo w));
        # one column more keeps the last zeta boundary clear of rounding
        self.head_lo = max(top + 1, alphabet.lower)
        head_cols = 0 if top == alphabet.upper else min(
            int(1.0 / (self.head_lo * self.w)) + 2, bins)
        self.pos = None
        if not alphabet.infinite:
            kept = self._kept_bins(x, top)
            self.pos = np.cumsum(kept) - 1
            x = x[kept]
            head_cols = int(np.count_nonzero(kept[:head_cols]))
        self.x, self.head_cols = x, head_cols
        # the head: a dense block per s for a finite range, filled at its first
        # evaluation, Taylor coefficients for an infinite one
        self.head, direct_hi = None, top
        if alphabet.infinite:
            direct_hi = self._stair_split(x) - 1
            self.head = _ZetaHead(x, self.w, self.head_lo, head_cols,
                                  np.arange(direct_hi + 1, top + 1, dtype=float), self._columns)
        # a + x per direct digit (a row each); a digit's column moves every ~a^2 rows
        self.ax = np.arange(alphabet.lower, direct_hi + 1, dtype=float)[:, None] + x
        col = self._columns(self.ax).ravel()
        if self.pos is not None:
            # in place (mode "raise" would buffer a copy); every target is a kept bin
            np.take(self.pos, col, out=col, mode="clip")
        starts = np.flatnonzero(np.diff(col, prepend=-1))
        self.runs = col[starts], np.diff(starts, append=col.size)
        self.wgt = np.empty_like(self.ax)  # refilled at each s

    def _gather_top(self):
        """The last gather digit: the largest a with a(a + 1) <= lower * bins."""
        return (math.isqrt(4 * self.alphabet.lower * self.bins + 1) - 1) // 2

    def _stair_split(self, x):
        """The first gather digit A of {a >= N} that joins the Taylor stair:
        the least A in N..head_lo that minimises (A - N) + J(A), J(A) the
        Taylor order ``_ZetaHead`` takes from A on, as a direct digit and an
        order each cost a product about one pass over the rows.  On 1024
        bins that keeps 2 direct digits at N = 2, 1 at N = 3 and none from
        N = 5 on."""
        lo, last = self.alphabet.lower, self.head_lo - 1

        def cost(a):
            return a - lo + _taylor_order(x, min(a, last))

        # past A = N + cost(N) the direct digits alone cost more
        return min(range(lo, min(self.head_lo, lo + cost(lo)) + 1), key=cost)

    def _columns(self, ax):
        """Target bins min(int(1/((a + x) w)), bins - 1) of a block of a + x."""
        col = ax * self.w
        np.divide(1.0, col, out=col)
        # clamped before the cast, which floors: the same bins, one float temporary
        np.minimum(col, self.bins - 1, out=col)
        return col.astype(np.intp)

    def _kept_bins(self, x, top):
        """Mask of the bins a finite range's maps keep reaching from the
        whole domain: starting from every bin, a bin that no kept row reaches
        is dropped, until every kept bin is reached from a kept row.

        A bin that a kept row reaches is then kept, and a dropped row reaches
        only kept bins or bins dropped after it, so the dropped block of the
        full matrix is nilpotent and the kept block has all its nonzero
        eigenvalues.  The head digits of a row land less than a bin apart
        (a(a + 1) > lower * bins), so they reach the one run of columns from
        the last digit's to head_lo's, and only its ends are computed."""
        lo, hi, b = self.alphabet.lower, self.alphabet.upper, self.bins

        def hits(rows):
            """Per bin, the (row, digit) pairs of the rows that reach it, one
            per row for the head's run."""
            xs = x[rows]
            # +1 where a run starts, -1 past where it ends
            edges = np.zeros(b + 1, dtype=np.intp)
            if top < hi:
                edges += np.bincount(self._columns(hi + xs), minlength=b + 1)
                edges -= np.bincount(self._columns(self.head_lo + xs) + 1, minlength=b + 1)
            out = np.cumsum(edges[:-1])
            for ax in _digit_blocks(xs, lo, top, _SCATTER_BLOCK):
                out += np.bincount(self._columns(ax).ravel(), minlength=b)
            return out

        kept = np.ones(b, dtype=bool)
        count = hits(kept)
        while (dropped := kept & (count == 0)).any():
            kept ^= dropped
            # the cheaper of counting the kept rows again and taking the dropped rows away
            if np.count_nonzero(dropped) > np.count_nonzero(kept):
                count = hits(kept)
            else:
                count -= hits(dropped)
        return kept

    def matrix(self, s):
        """The matrix at s.  It holds the operator's own weight and head
        arrays, so it is valid until the operator's next ``matrix`` call."""
        np.power(self.ax, -2.0 * s, out=self.wgt)
        return _UlamMatrix(self.runs, self.wgt, self._head(s))

    def _head(self, s):
        if self.alphabet.infinite:
            return self.head.at(s)
        b, x = len(self.x), self.x
        if self.head is None:  # made by the first evaluation, when the solve needs it
            self.head = np.empty((b, self.head_cols))
        head = self.head
        head.fill(0.0)
        row_start = self.head_cols * np.arange(b)[:, None]
        for ax in _digit_blocks(x, self.head_lo, self.alphabet.upper, _SCATTER_BLOCK):
            cols = self._columns(ax)
            np.take(self.pos, cols, out=cols, mode="clip")
            cols += row_start
            # unbuffered, in digit order per cell, as a loop over digits would add
            np.add.at(head.ravel(), cols.ravel(), (ax ** (-2.0 * s)).ravel())
        return head


# ---------------------------------------------------------------------------
# pressure roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionEstimate:
    dim: float
    residual: float           # |lambda(dim) - 1|
    bracket_lo: float         # the rigorous crude bracket the root was searched in
    bracket_hi: float


def _crude_bracket(alphabet, tol):
    """Bounds (lower, upper) on the pressure root.

    On [0, 1/N], N the least digit, sum (a + 1/N)^{-2s} <= (L_s 1)(x) <=
    sum a^{-2s} pointwise for s >= 0, so the root lies between the roots of
    the two sums; {a >= N} takes shift 1 in place of 1/N.  For N = 1 the
    upper sum has no root, and s = 2, where every sub-alphabet of the Gauss
    map has negative pressure, is the upper bound.  The bounds are solved to
    at least 1e-10 so that the 1e-9 margin the root search adds keeps the
    bracket valid.
    """
    n, m, tol = alphabet.lower, alphabet.upper, min(tol, 1e-10)
    upper = 2.0 if n == 1 else crude_critical_exponent(n, 0, tol, m)
    return crude_critical_exponent(n, 1 if m is None else 1.0 / n, tol, m), upper


def _pressure_root(op, crude, tol):
    """(root, |lambda(root) - 1|) of the operator's leading eigenvalue.

    A one-digit alphabet {a} is a single point, of dimension 0, and L_0 maps
    f to f(1/(a + x)), with eigenvalue 1 exactly, so it is not solved.  (Its
    Ulam matrix has one entry per row, and power iteration on it does not
    converge at 1024 bins.)
    """
    if op.alphabet.upper == op.alphabet.lower:
        return 0.0, 0.0
    lams, vec = {}, [None]  # each power iteration starts from the last eigenvector

    def f(s):
        lams[s], vec[0], _ = power_iteration(op.matrix(s), v0=vec[0])
        # the pressure log(lambda) has the sign of lambda - 1 and is convex
        # and nearly linear in s, so interpolation steps converge fast
        return math.log(lams[s])

    lo, hi = crude[0] - 1e-9, crude[1] + 1e-9
    # both ends are rigorous: f(lo) <= 0 or f(hi) > 0 signals a defect
    f_lo, f_hi = f(lo), f(hi)
    if f_lo <= 0 or f_hi > 0:
        raise NumericError(
            f"pressure root not bracketed on [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}"
        )
    root = bracketed_root(f, lo, hi, xtol=tol, flo=f_lo, fhi=f_hi)
    root = min(max(root, crude[0]), crude[1])  # a point in a margin moves to its end
    if root not in lams:
        f(root)
    return root, abs(lams[root] - 1.0)


def _estimate(op, tol):
    """The operator's pressure root, with the crude bracket it lies in."""
    crude = _crude_bracket(op.alphabet, tol)
    return DimensionEstimate(*_pressure_root(op, crude, tol), *crude)


def transfer_dimension(alphabet: DigitAlphabet, nodes=20, tol=1e-10) -> DimensionEstimate:
    """Dimension of the digit-restricted set via collocation of the transfer
    operator, with the crude bounds that bracket it."""
    return _estimate(_CollocationOperator(alphabet, nodes), tol)


def ulam_dimension(alphabet: DigitAlphabet, bins=4096, tol=1e-8) -> DimensionEstimate:
    """Independent piecewise-constant estimate of the same pressure root."""
    return _estimate(_UlamOperator(alphabet, bins), tol)


def good_dimension_sweep(n_list, nodes=20, tol=1e-9, ulam_bins=None, threads=1):
    """Rows (N, bracket_lo, bracket_hi, dim_estimate, residual) for the sets
    with all digits >= N, plus ulam_estimate when ``ulam_bins`` is given (its
    root is solved to max(tol, 1e-7)).  The N are solved on ``threads``
    worker threads; rows come back in the order of ``n_list``.  Each N is
    an integer (``operator.index``), kept as a Python int."""
    n_list = [operator.index(n) for n in n_list]
    if not n_list:
        raise ValueError("empty N list")
    if min(n_list) < 2:
        raise ValueError("dimension sweep needs every N >= 2 (its bracket_hi column, "
                         "the shift-0 crude exponent, has no root at N = 1)")

    def row(n):
        alphabet = DigitAlphabet(n, None)
        est = transfer_dimension(alphabet, nodes=nodes, tol=tol)
        out = (n, est.bracket_lo, est.bracket_hi, est.dim, est.residual)
        if ulam_bins is None:
            return out
        ulam = ulam_dimension(alphabet, bins=ulam_bins, tol=max(tol, 1e-7))
        return out + (ulam.dim,)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(row, n_list))


def jarnik_dimension(theta: float) -> float:
    """Dimension (1 - theta)/2 of the strict limsup-ratio set at level theta.

    Consistent with the growth calculus: a sequence with omega = theta/(1-theta)
    has critical exponent 1/(2(1+omega)) = (1-theta)/2 exactly.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    return 0.5 * (1.0 - theta)
