"""Hausdorff-dimension machinery for restricted-digit continued fraction sets.

Three routes are implemented and cross-checked against each other:

* ``crude_critical_exponent`` solves sum_{a=N..M} (a + shift)^{-2s} = 1, the
  critical exponent of an elementary cover sum: by zeta(2s, N + shift) = 1
  for M = infinity, by the direct sum for a finite M.  On [0, 1/N] the
  transfer operator satisfies sum (a + 1/N)^{-2s} <= (L_s 1)(x) <=
  sum a^{-2s} pointwise, so its unit-eigenvalue root is pinned between the
  roots for shift 1/N (1 for {a >= N}) and shift 0.
* ``transfer_dimension`` solves lambda(s) = 1 for the leading eigenvalue of
  the Gauss-map transfer operator (L_s f)(x) = sum_a (a+x)^{-2s} f(1/(a+x)),
  discretized by polynomial collocation on Chebyshev-Lobatto nodes.  The
  first 128 digits N..M of any range are summed directly, through basis
  values built once; beyond them the interpolant, rewritten as a degree-4
  polynomial on the tail interval [0, 1/(M + 1)] through its values at 5
  Lobatto points there, needs per node x only the tail sums of
  (a + x)^{-2s-m}, m = 0..4: Hurwitz zeta values for {a >= N}, so no mass is
  dropped, and a digit walk of 5 values per node and digit for a finite
  range.  The basis values on the tail interval are bounded, so the tail's
  rounding does not grow with the node count; its one error is the degree-4
  interpolation, which falls like (MN)^-5 M^(1-2s).  The root lies within
  1.1e-16 of a direct sum to 1024N for {a >= N} (N in {1, 2, 3, 5, 10, 100},
  12-100 nodes) and within 3.3e-16 of an all-direct sum for finite ranges up
  to {3..4000} (12-40 nodes); a head of 64 digits leaves {1..100} 3.1e-15 off.
* ``ulam_dimension`` repeats the computation on a uniform grid of bins
  (bin-center collocation), purely as an independent oracle.  Digits a with
  a(a + 1) <= lower * bins take one gather entry per row; the rest land in a
  dense head block of ~sqrt(lower * bins) columns, summed for an infinite
  range by exact Hurwitz zeta differences, which keeps the full tail.  A
  finite range is a Cantor set, and its matrix is built only on its kept
  bins, those its maps keep reaching from the whole domain (at 1024 bins a
  median 7 % of them over the benchmark's finite sets, 2 for {15, 16}).
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

All three routes take their Hurwitz zeta values from ``hurwitz_zeta``, a
direct sum plus an Euler-Maclaurin tail in numpy (scalar or array q).

Gap constants enter the underlying cover sums only as fixed per-level
factors; their k-th roots tend to 1, so they cannot move critical exponents
and are omitted here.
"""

from __future__ import annotations

import math
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


def hurwitz_zeta(x, q):
    """Hurwitz zeta(x, q) = sum_{k >= 0} (k + q)^{-x} for a real x > 1 and
    q > 0, a float or an array (elementwise).

    The terms with q + k < 24 are summed directly; the rest is the
    Euler-Maclaurin sum at the first q' = q + k >= 24,
    q'^{-x} (q'/(x-1) + 1/2 + sum_{j=1..8} B_2j/(2j)! x(x+1)...(x+2j-2) q'^{1-2j}),
    whose first omitted term is below 1e-16 of the value for x <= 12.  A
    scalar q, Python or numpy, returns a float; both run the same operations.
    """
    x = float(x)
    if not (x > 1.0 and math.isfinite(x)):
        raise ValueError(f"hurwitz_zeta needs a finite x > 1, got {x}")
    if np.ndim(q) == 0:
        q = lo = hi = float(q)
    else:
        q = np.array(q, dtype=float)
        lo, hi = q.min(initial=_EM_START), q.max(initial=_EM_START)
    if not (lo > 0.0 and hi < math.inf):
        raise ValueError(f"hurwitz_zeta needs every q finite and > 0, got min {lo}, max {hi}")
    total = 0.0
    # enough steps to lift the smallest q to 24; a q already there adds 0
    for _ in range(math.ceil(_EM_START - lo)):
        small = q < _EM_START
        total += small * q ** -x
        q += small
    # x(x+1)...(x+2j-2) B_2j/(2j)!, innermost (j = 8) first for Horner's rule
    coeffs, rising = [], x
    for c, u, v in _EM_TERMS:
        coeffs.append(c * rising)
        rising *= (x + u) * (x + v)
    coeffs.reverse()
    # augmented steps, in place on arrays: the Ulam tail passes a
    # (boundaries x bins) grid
    r2 = 1.0 / q
    r2 *= r2
    h = r2 * coeffs[0]
    for c in coeffs[1:-1]:
        h += c
        h *= r2
    h += coeffs[-1]
    h /= q
    h += 0.5
    h += q / (x - 1.0)
    h *= q ** -x
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
    """Contiguous digit range {lower, ..., upper}; upper = None means infinite."""

    lower: int
    upper: int | None = None

    def __post_init__(self):
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
        def f(s):
            return hurwitz_zeta(2.0 * s, m) - 1.0
        lo, hi = 0.5 + 1e-9, 4.0
    else:
        shifted = np.array([shift])
        # a range that fits one block keeps it for every s
        kept = (list(_digit_blocks(shifted, n, upper, _ASSEMBLY_BLOCK))
                if upper - n < _ASSEMBLY_BLOCK else None)

        def f(s):
            blocks = kept or _digit_blocks(shifted, n, upper, _ASSEMBLY_BLOCK)
            return math.log(sum(float(np.sum(blk ** (-2.0 * s))) for blk in blocks))
        lo, hi = 0.0, 2.0
    return bracketed_root(f, lo, hi, xtol=tol)


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
_ASSEMBLY_BLOCK = 1 << 20  # values a + x per block of a long digit walk
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
            eps, self.tail_lo = 1.0 / (direct_hi + 1.0), direct_hi + 1
            t = _lobatto_nodes(_TAIL_ORDER, 1.0)
            self.coef = np.linalg.solve(np.vander(t, increasing=True),
                                        _basis_at(self.x, bw, eps * t))  # (m, nodes)
            self.coef *= eps ** -np.arange(_TAIL_ORDER, dtype=float)[:, None]

    def matrix(self, s):
        out = np.einsum("kc,kcj->kj", self.denom ** (-2.0 * s), self.basis)
        if self.coef is not None:
            out += self._tail_sums(s).T @ self.coef
        return out

    def _tail_sums(self, s):
        """(m, node) sums over the tail digits a of (a + x)^{-2s-m}, m <
        _TAIL_ORDER: Hurwitz zeta values for an infinite range, a walk over
        the digits for a finite one."""
        if self.alphabet.infinite:
            return np.array([hurwitz_zeta(2.0 * s + m, self.tail_lo + self.x)
                             for m in range(_TAIL_ORDER)])
        sums = np.zeros((_TAIL_ORDER, len(self.x)))
        for ax in _digit_blocks(self.x, self.tail_lo, self.alphabet.upper, _ASSEMBLY_BLOCK):
            term = ax ** (-2.0 * s)
            np.divide(1.0, ax, out=ax)
            for m in range(_TAIL_ORDER):
                sums[m] += term.sum(axis=1)
                term *= ax
        return sums


# ---------------------------------------------------------------------------
# piecewise-constant (Ulam-type) discretization
# ---------------------------------------------------------------------------

# (digit, bin) pairs of a finite head scatter, or zeta values of an infinite
# head, per block (512 KB a temporary).  On the benchmark's Ulam solves 2^14,
# 2^16 and 2^18 ran equally fast, with 9.4k, 23k and 47k minor page faults.
_SCATTER_BLOCK = 1 << 16


class _UlamMatrix:
    """An Ulam matrix on the operator's bins: per gather digit a weight in
    every row and the runs (column, length) of its target columns, plus a
    dense head block."""

    def __init__(self, runs, wgt, head):
        self.runs, self.wgt, self.head = runs, wgt, head
        self.shape = (len(head), len(head))

    def __matmul__(self, v):
        gathered = np.repeat(v[self.runs[0]], self.runs[1]).reshape(self.wgt.shape)
        out = np.einsum("ji,ji->i", self.wgt, gathered)
        if self.head.shape[1]:  # a narrow finite range has none; skip the empty product
            out += self.head @ v[:self.head.shape[1]]
        return out


class _UlamOperator:
    """The Ulam matrix at any s: the digits with a(a + 1) <= lower * bins are
    gathered, the rest fill the head.  A finite range keeps only the bins its
    maps keep reaching (``_kept_bins``): ``x`` holds their centers and ``pos``
    maps a bin to its place among them; an infinite range keeps every bin and
    has no ``pos``.  The gather digits' target columns and a + x do not depend
    on s, so they are built once, here."""

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
        # a + x per gather digit (a row each); a digit's column moves every ~a^2 rows
        self.ax = np.arange(alphabet.lower, top + 1, dtype=float)[:, None] + x
        col = self._columns(self.ax).ravel()
        if self.pos is not None:
            # in place (mode "raise" would buffer a copy); every target is a kept bin
            np.take(self.pos, col, out=col, mode="clip")
        starts = np.flatnonzero(np.diff(col, prepend=-1))
        self.runs = col[starts], np.diff(starts, append=col.size)
        self.wgt, self.head = np.empty_like(self.ax), None  # refilled at each s

    def _gather_top(self):
        """The last gather digit: the largest a with a(a + 1) <= lower * bins."""
        return (math.isqrt(4 * self.alphabet.lower * self.bins + 1) - 1) // 2

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
        b, x, lo = len(self.x), self.x, self.head_lo
        if self.head is None:  # made by the first evaluation, when the solve needs it
            self.head = np.empty((b, self.head_cols))
        head = self.head
        if not self.alphabet.infinite:
            head.fill(0.0)
            row_start = self.head_cols * np.arange(b)[:, None]
            for ax in _digit_blocks(x, lo, self.alphabet.upper, _SCATTER_BLOCK):
                cols = self._columns(ax)
                np.take(self.pos, cols, out=cols, mode="clip")
                cols += row_start
                # unbuffered, in digit order per cell, as a loop over digits would add
                np.add.at(head.ravel(), cols.ravel(), (ax ** (-2.0 * s)).ravel())
            return head
        # Z_k, the sum of (a + x)^{-2s} over the head digits a > 1/(k w) - x (a
        # zeta series; the root search keeps 2s > 1), takes one value per bin
        # boundary k; column k is Z_{k+1} - Z_k with Z_0 = 0, exactly 0 where no
        # digit lands, as both boundaries then clamp alike
        inv_kw = 1.0 / (np.arange(1, self.head_cols + 1, dtype=float) * self.w)
        rows = max(1, _SCATTER_BLOCK // self.head_cols)
        for r in range(0, b, rows):
            xr = x[r:r + rows, None]
            z = hurwitz_zeta(2.0 * s, np.maximum(np.floor(inv_kw - xr) + 1.0, lo) + xr)
            head[r:r + rows] = np.diff(z, axis=1, prepend=0.0)
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
    worker threads; rows come back in the order of ``n_list``."""
    n_list = [int(n) for n in n_list]
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
