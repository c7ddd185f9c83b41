"""Hausdorff-dimension machinery for restricted-digit continued fraction sets.

Three routes are implemented and cross-checked against each other:

* ``crude_critical_exponent`` solves zeta(2s, N + shift) = 1, i.e.
  sum_{a >= N} (a + shift)^{-2s} = 1, the critical exponents of the
  elementary cover sums.  With shift = 1 and 0 they bracket the true
  dimension of the digit set {a >= N}: the transfer operator satisfies
  sum (a+1)^{-2s} <= (L_s 1)(x) <= sum a^{-2s} pointwise, so its
  unit-eigenvalue root is pinned between the two roots.
* ``transfer_dimension`` solves lambda(s) = 1 for the leading eigenvalue of
  the Gauss-map transfer operator (L_s f)(x) = sum_a (a+x)^{-2s} f(1/(a+x)),
  discretized by polynomial collocation on Chebyshev-Lobatto nodes.  Infinite
  digit ranges keep an exact polynomial tail: beyond an explicit cutoff the
  interpolant's Taylor terms at 0 sum against Hurwitz zeta values, so no mass
  is dropped.
* ``ulam_dimension`` repeats the computation with a piecewise-constant
  discretization on a uniform grid (bin-center collocation).  Digit ranges
  are aggregated per bin by exact Hurwitz zeta differences, which again keeps
  the full infinite tail.  Used purely as an independent oracle.

Both discretizations find the root of lambda(s) = 1 with Brent's method
(``numerics.bracketed_root``), inside the crude bracket for {a >= N}, N >= 2,
and inside a fixed bracket otherwise, as the sign change of the pressure
log lambda(s).  Each trial s costs one operator assembly and one power
iteration; a solve takes about 4-10 of them.  The reported residual
|lambda(root) - 1| comes from the evaluation at the root.

All three routes take their Hurwitz zeta values from ``hurwitz_zeta``, a
direct sum plus an Euler-Maclaurin tail in numpy (float or array q), so that
no solve of an infinite range needs scipy; only a finite-range Ulam solve
imports ``scipy.sparse``.

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


def hurwitz_zeta(x, q):
    """Hurwitz zeta(x, q) = sum_{k >= 0} (k + q)^{-x} for a real x > 1 and
    q > 0, a float or an array (elementwise).

    The terms with q + k < 24 are summed directly; the rest is the
    Euler-Maclaurin sum at the first q' = q + k >= 24,
    q'^{-x} (q'/(x-1) + 1/2 + sum_{j=1..8} B_2j/(2j)! x(x+1)...(x+2j-2) q'^{1-2j}),
    whose first omitted term is below 1e-16 of the value for x <= 12.  A
    float q takes a plain float path and returns a float.
    """
    x = float(x)
    if not (x > 1.0 and math.isfinite(x)):
        raise ValueError(f"hurwitz_zeta needs a finite x > 1, got {x}")
    # x(x+1)...(x+2j-2) B_2j/(2j)!, innermost (j = 8) first for Horner's rule
    coeffs, rising = [], x
    for c, u, v in _EM_TERMS:
        coeffs.append(c * rising)
        rising *= (x + u) * (x + v)
    coeffs.reverse()
    if isinstance(q, (int, float)):
        q = float(q)
        if not (q > 0.0 and math.isfinite(q)):
            raise ValueError(f"hurwitz_zeta needs a finite q > 0, got {q}")
        total, nx = 0.0, -x
        while q < _EM_START:
            total += q ** nx
            q += 1.0
        r2 = 1.0 / q
        r2 *= r2
        h = coeffs[0]
        for c in coeffs[1:]:
            h = h * r2 + c
        return total + q ** nx * (h / q + 0.5 + q / (x - 1.0))
    q = np.array(q, dtype=float)
    if q.size and not (q.min() > 0.0 and q.max() < math.inf):
        raise ValueError("hurwitz_zeta needs every q finite and > 0")
    small = q < _EM_START
    total = np.zeros_like(q) if small.any() else 0.0
    while small.any():
        total[small] += q[small] ** -x
        q[small] += 1.0
        small = q < _EM_START
    # each step in place: the Ulam tail passes a (boundaries x bins) grid
    r2 = np.reciprocal(q)
    r2 *= r2
    h = np.multiply(r2, coeffs[0])
    for c in coeffs[1:-1]:
        h += c
        h *= r2
    h += coeffs[-1]
    h /= q
    h += 0.5
    np.divide(q, x - 1.0, out=r2)
    h += r2
    np.power(q, -x, out=r2)
    h *= r2
    h += total
    return h


def power_iteration(mat, tol=1e-12, max_iter=200_000, v0=None):
    """Dominant eigenvalue of a square matrix by plain power iteration.

    Returns (eigenvalue, eigenvector, iterations).  Convergence is declared
    when the Rayleigh quotient moves by less than ``tol * max(1, |lam|)``.
    Raises NumericError with diagnostics if the iteration does not settle.
    """
    n = mat.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n)) if v0 is None else v0 / np.linalg.norm(v0)
    lam_prev = None
    for it in range(1, max_iter + 1):
        w = mat @ v
        nrm = np.linalg.norm(w)
        if nrm == 0.0 or not np.isfinite(nrm):
            raise NumericError(f"power iteration degenerated at step {it} (norm={nrm})")
        lam = float(v @ w)
        v = w / nrm
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            return lam, v, it
        lam_prev = lam
    raise NumericError(
        f"power iteration did not converge in {max_iter} steps "
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

def crude_critical_exponent(n, shift, tol=1e-10):
    """The unique s > 1/2 with sum_{a >= n} (a + shift)^{-2s} = 1.

    shift in {0, 1}; n + shift must be at least 2 (for n = 1, shift = 0 the
    sum is the full zeta series, which never equals 1).
    """
    if shift not in (0, 1):
        raise ValueError("shift must be 0 or 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n + shift
    if m < 2:
        raise ValueError("no root: the full-alphabet sum always exceeds 1")

    def f(s):
        return hurwitz_zeta(2.0 * s, m) - 1.0

    lo, hi = 0.5 + 1e-9, 4.0
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


def _diff_matrix(nodes, bw):
    k = len(nodes)
    d = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                d[i, j] = (bw[j] / bw[i]) / (nodes[i] - nodes[j])
    d[np.diag_indices(k)] = -d.sum(axis=1)
    return d


_TAIL_ORDER = 5  # Taylor terms of the interpolant used for the zeta tail
_ASSEMBLY_BLOCK = 1 << 22  # basis values (nodes^2 per digit) per assembly chunk


class _CollocationOperator:
    def __init__(self, alphabet: DigitAlphabet, nodes: int):
        if nodes < 8:
            raise ValueError("need at least 8 collocation nodes")
        self.alphabet = alphabet
        h = alphabet.domain
        self.x = _lobatto_nodes(nodes, h)
        self.bw = _bary_weights(nodes)
        if alphabet.infinite:
            self.m_eff = max(64 * alphabet.lower, 4096)
            d1 = _diff_matrix(self.x, self.bw)
            rows = [np.eye(nodes)[0]]
            m = np.eye(nodes)
            for order in range(1, _TAIL_ORDER):
                m = d1 @ m
                rows.append(m[0] / math.factorial(order))
            self.tail_rows = np.array(rows)  # (order, nodes): f^(m)(0)/m! weights
        else:
            self.m_eff = alphabet.upper

    def matrix(self, s):
        k = len(self.x)
        a_lo, a_hi = self.alphabet.lower, self.m_eff
        out = np.zeros((k, k))
        chunk = min(4096, max(1, _ASSEMBLY_BLOCK // (k * k)))
        for start in range(a_lo, a_hi + 1, chunk):
            avals = np.arange(start, min(start + chunk, a_hi + 1), dtype=float)
            denom = self.x[:, None] + avals[None, :]          # (k, c)
            wgt = denom ** (-2.0 * s)
            # a temporary basis block, freed before the next chunk builds its own
            out += np.einsum("kc,kcj->kj", wgt, _basis_at(
                self.x, self.bw, (1.0 / denom).ravel()).reshape(k, len(avals), k))
        if self.alphabet.infinite:
            for order in range(_TAIL_ORDER):
                zet = hurwitz_zeta(2.0 * s + order, self.m_eff + 1.0 + self.x)
                out += np.outer(zet, self.tail_rows[order])
        return out


# ---------------------------------------------------------------------------
# piecewise-constant (Ulam-type) discretization
# ---------------------------------------------------------------------------

_SCATTER_BLOCK = 1 << 18  # (digit, bin) pairs per block of the Ulam scatter


class _UlamOperator:
    def __init__(self, alphabet: DigitAlphabet, bins: int):
        if bins < 64:
            raise ValueError("need at least 64 bins")
        self.alphabet = alphabet
        self.bins = bins
        self.h = alphabet.domain
        self.w = self.h / bins
        self.x = (np.arange(bins) + 0.5) * self.w
        # Infinite ranges: digits below the split are scattered bin-by-bin,
        # the tail beyond it is aggregated per target bin with Hurwitz zeta
        # differences (valid there since the root search keeps 2s > 1).
        # Finite ranges are summed directly (sparse), so any s is allowed.
        if alphabet.infinite:
            self.direct_hi = alphabet.lower + max(
                64, int(2.5 * math.sqrt(alphabet.lower * bins)))
        else:
            self.direct_hi = alphabet.upper

    def _direct_blocks(self, s):
        """Target columns and weights (a + x)^{-2s} of the direct digits as
        (bins, digits) arrays, one block of digits at a time, so that memory
        stays O(_SCATTER_BLOCK) however many digits are direct."""
        b = self.bins
        step = max(1, _SCATTER_BLOCK // b)
        for start in range(self.alphabet.lower, self.direct_hi + 1, step):
            a = np.arange(start, min(start + step, self.direct_hi + 1), dtype=float)
            ax = self.x[:, None] + a[None, :]
            col = np.minimum((1.0 / (ax * self.w)).astype(np.intp), b - 1)
            yield col, ax ** (-2.0 * s)

    def matrix(self, s):
        b, w, x = self.bins, self.w, self.x
        if not self.alphabet.infinite:
            from scipy import sparse

            parts = [sparse.csr_matrix(
                (wgt.ravel(), (np.repeat(np.arange(b), col.shape[1]), col.ravel())),
                shape=(b, b)) for col, wgt in self._direct_blocks(s)]
            return sum(parts[1:], parts[0])
        mat = np.zeros((b, b))
        row_start = b * np.arange(b)[:, None]
        for col, wgt in self._direct_blocks(s):
            # unbuffered, in digit order per cell, as a loop over digits would add
            np.add.at(mat.ravel(), (col + row_start).ravel(), wgt.ravel())
        # Z_k = sum over tail digits a of (a + x)^{-2s} with 1/(a + x) < k w,
        # one zeta value per bin boundary k; bin 0 takes Z_1 and bin k the
        # digits between boundaries k and k + 1, Z_{k+1} - Z_k (exactly 0
        # where no digit lands, as both boundaries then clamp alike)
        zeta_lo = self.direct_hi + 1
        k_top = min(int(1.0 / (zeta_lo * w)) + 1, b - 1)
        kv = np.arange(1, k_top + 2, dtype=float)[:, None]
        a_lo = np.maximum(np.floor(1.0 / (kv * w) - x[None, :]) + 1.0, zeta_lo)
        z = hurwitz_zeta(2.0 * s, a_lo + x[None, :])
        mat[:, 0] += z[0]
        mat[:, 1:k_top + 1] += (z[1:] - z[:-1]).T
        return mat


# ---------------------------------------------------------------------------
# pressure roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionEstimate:
    dim: float
    residual: float           # |lambda(dim) - 1|
    method: str
    bracket_lo: float | None = None
    bracket_hi: float | None = None


def _crude_bracket(alphabet, tol):
    """The crude exponents (shift 1, shift 0) for {a >= N}, N >= 2, else None.

    They bracket the pressure root rigorously, since sum (a+1)^{-2s} <=
    (L_s 1)(x) <= sum a^{-2s} pointwise.  They are solved to at least 1e-10
    so that the 1e-9 margin the root search adds keeps the bracket valid.
    """
    if not (alphabet.infinite and alphabet.lower >= 2):
        return None
    tol = min(tol, 1e-10)
    return (crude_critical_exponent(alphabet.lower, 1, tol),
            crude_critical_exponent(alphabet.lower, 0, tol))


def _pressure_root(op, crude, tol, power_tol):
    """(root, |lambda(root) - 1|) of the operator's leading eigenvalue.

    A one-digit alphabet {a} is a single point, of dimension 0, and L_0 maps
    f to f(1/(a + x)), with eigenvalue 1 exactly, so it is not solved.  (Its
    Ulam matrix has one entry per row, and power iteration on it does not
    converge at 1024 bins.)
    """
    if op.alphabet.upper == op.alphabet.lower:
        return 0.0, 0.0
    state = {"v": None}
    lams = {}

    def f(s):
        lam, vec, _ = power_iteration(op.matrix(s), tol=power_tol, v0=state["v"])
        state["v"] = vec
        lams[s] = lam
        # the pressure log(lambda) has the sign of lambda - 1 and is convex
        # and nearly linear in s, so interpolation steps converge fast
        return math.log(lam)

    if crude is not None:
        lo, hi = crude[0] - 1e-9, crude[1] + 1e-9
    elif op.alphabet.infinite:
        lo, hi = 0.5 + 1e-9, 2.0
    else:
        lo, hi = -1.0, 2.0
    # hi is the rigorous crude exponent, or s = 2, where every sub-alphabet
    # of the Gauss map has negative pressure: f(hi) > 0 signals a defect
    f_lo, f_hi = f(lo), f(hi)
    if f_lo <= 0 or f_hi > 0:
        raise NumericError(
            f"pressure root not bracketed on [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}"
        )
    root = bracketed_root(f, lo, hi, xtol=tol, flo=f_lo, fhi=f_hi)
    return root, abs(lams[root] - 1.0)


def transfer_dimension(alphabet: DigitAlphabet, nodes=20, tol=1e-10,
                       power_tol=1e-12) -> DimensionEstimate:
    """Dimension of the digit-restricted set via collocation of the transfer
    operator; for infinite ranges the crude-exponent bracket is attached."""
    op = _CollocationOperator(alphabet, nodes)
    crude = _crude_bracket(alphabet, tol)
    root, residual = _pressure_root(op, crude, tol, power_tol)
    lo, hi = crude or (None, None)
    return DimensionEstimate(root, residual, "collocation", lo, hi)


def ulam_dimension(alphabet: DigitAlphabet, bins=4096, tol=1e-8,
                   power_tol=1e-12) -> DimensionEstimate:
    """Independent piecewise-constant estimate of the same pressure root."""
    op = _UlamOperator(alphabet, bins)
    crude = _crude_bracket(alphabet, tol)
    root, residual = _pressure_root(op, crude, tol, power_tol)
    return DimensionEstimate(root, residual, "ulam")


def good_dimension_sweep(n_list, nodes=20, tol=1e-9, power_tol=1e-12, ulam_bins=None,
                         threads=1):
    """Rows (N, bracket_lo, bracket_hi, dim_estimate, residual) for the sets
    with all digits >= N, plus ulam_estimate when ``ulam_bins`` is given (its
    root is solved to max(tol, 1e-7)).  The N are solved on ``threads``
    worker threads; rows come back in the order of ``n_list``."""
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise ValueError("empty N list")
    if min(n_list) < 2:
        raise ValueError("dimension sweep needs every N >= 2 (bracket undefined at N = 1)")

    def row(n):
        alphabet = DigitAlphabet(n, None)
        est = transfer_dimension(alphabet, nodes=nodes, tol=tol, power_tol=power_tol)
        out = (n, est.bracket_lo, est.bracket_hi, est.dim, est.residual)
        if ulam_bins is None:
            return out
        ulam = ulam_dimension(alphabet, bins=ulam_bins, tol=max(tol, 1e-7),
                              power_tol=power_tol)
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
