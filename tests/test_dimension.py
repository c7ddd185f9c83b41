import tracemalloc

import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

import cusplab.dimension as dimension_module
from cusplab.dimension import (
    DigitAlphabet,
    _CollocationOperator,
    _UlamOperator,
    _bary_weights,
    _basis_at,
    _lobatto_nodes,
    _pressure_root,
    crude_critical_exponent,
    good_dimension_sweep,
    jarnik_dimension,
    transfer_dimension,
    ulam_dimension,
)
from cusplab.numerics import NumericError, power_iteration


# -- crude exponents -----------------------------------------------------------

def tail_sum_oracle(s2, m):
    """sum_{a >= m} a^{-s2}: explicit terms up to m + 20000, then the
    Euler-Maclaurin tail integral + f(cut)/2 - f'(cut)/12, leaving a residual
    of order cut^{-s2-3}."""
    cut = m + 20_000
    a = np.arange(m, cut, dtype=float)
    partial = float(np.sum(a ** (-s2)))
    tail = (cut ** (1.0 - s2) / (s2 - 1.0)
            + 0.5 * cut ** (-s2)
            + (s2 / 12.0) * cut ** (-s2 - 1.0))
    return partial + tail


def test_hurwitz_tail_matches_explicit_sum():
    # the crude exponents sum the cover series with Hurwitz zeta; an explicit
    # sum with an Euler-Maclaurin tail must agree over the whole search range
    for m in (2, 3, 11, 101, 1001):
        for s in (0.5 + 1e-9, 0.5 + 1e-6, 0.55, 0.7, 0.9, 1.5, 4.0):
            exact = hurwitz_zeta(2 * s, m)
            assert tail_sum_oracle(2 * s, m) == pytest.approx(exact, rel=1e-12)


def test_crude_matches_hurwitz_oracle():
    # independent oracle: bisect zeta(2s, n+shift) = 1 with scipy's Hurwitz zeta
    for n, shift in [(2, 0), (2, 1), (5, 0), (10, 1), (100, 0)]:
        target = n + shift

        def f(s):
            return hurwitz_zeta(2 * s, target) - 1.0

        lo, hi = 0.5 + 1e-9, 4.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert crude_critical_exponent(n, shift) == pytest.approx(oracle, abs=1e-8)


def test_crude_n2_value():
    # zeta(2s) = 2 at 2s ~ 1.7286, s ~ 0.86432
    assert crude_critical_exponent(2, 0) == pytest.approx(0.86432, abs=5e-5)


def test_crude_monotone_to_half():
    roots = [crude_critical_exponent(n, 0) for n in (2, 10, 100, 1000, 10_000)]
    assert all(a > b for a, b in zip(roots, roots[1:]))
    assert all(r > 0.5 for r in roots)
    assert roots[-1] < 0.62


def test_crude_shift_ordering():
    for n in (2, 3, 10, 50):
        assert crude_critical_exponent(n, 1) < crude_critical_exponent(n, 0)


def test_crude_no_root_full_alphabet():
    with pytest.raises(ValueError):
        crude_critical_exponent(1, 0)


# -- operator internals ----------------------------------------------------------

def test_collocation_rowsum_identity():
    # applied to the constant function the operator must reproduce the
    # Hurwitz zeta tail exactly; this exercises the polynomial tail blocks
    for lower in (1, 2, 17):
        op = _CollocationOperator(DigitAlphabet(lower, None), 16)
        for s in (0.6, 0.8, 1.1):
            rowsum = op.matrix(s) @ np.ones(16)
            exact = hurwitz_zeta(2 * s, lower + op.x)
            assert np.max(np.abs(rowsum - exact)) < 1e-12


def basis_oracle(nodes, bw, u):
    """Barycentric Lagrange basis with separate temporaries, nodes hit exactly."""
    diff = u[:, None] - nodes[None, :]
    hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        tmp = bw[None, :] / diff
        vals = tmp / tmp.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    vals[rows] = hit[rows].astype(float)
    return vals


def test_basis_at_matches_oracle():
    nodes, bw = _lobatto_nodes(20, 0.5), _bary_weights(20)
    u = np.concatenate([np.random.default_rng(3).uniform(0.0, 0.5, 500), nodes,
                        1.0 / (np.arange(2.0, 40.0)[:, None] + nodes).ravel()])
    assert np.array_equal(_basis_at(nodes, bw, u), basis_oracle(nodes, bw, u))


def test_ulam_rowsum_identity():
    for lower in (2, 9):
        op = _UlamOperator(DigitAlphabet(lower, None), 256)
        for s in (0.7, 1.0):
            rowsum = op.matrix(s) @ np.ones(256)
            exact = hurwitz_zeta(2 * s, lower + op.x)
            assert np.max(np.abs(rowsum - exact)) < 1e-12


def ulam_direct_oracle(op, s):
    """The direct-digit part of the Ulam matrix, one digit at a time."""
    b, w, x = op.bins, op.w, op.x
    rows = np.arange(b)
    mat = np.zeros((b, b))
    for a in range(op.alphabet.lower, op.direct_hi + 1):
        kidx = np.minimum((1.0 / ((a + x) * w)).astype(np.int64), b - 1)
        mat[rows, kidx] += (a + x) ** (-2.0 * s)  # one entry per row: no clashes
    return mat


@pytest.mark.parametrize("alphabet, bins", [
    (DigitAlphabet(2, None), 128), (DigitAlphabet(13, None), 256),
    (DigitAlphabet(1, 61), 256), (DigitAlphabet(3, 40), 128)])
def test_ulam_direct_digits_match_loop(monkeypatch, alphabet, bins):
    # with the zeta tail switched off, matrix(s) is the direct-digit scatter
    monkeypatch.setattr(dimension_module, "hurwitz_zeta", lambda s2, q: 0.0 * q)
    op = _UlamOperator(alphabet, bins)
    for s in (-0.5, 0.6, 0.95):
        if alphabet.infinite and s < 0.5:
            continue
        mat = op.matrix(s)
        ref = ulam_direct_oracle(op, s)
        if alphabet.infinite:
            # the same terms, summed per cell in the same digit order
            assert np.array_equal(mat, ref)
            continue
        # the sparse build sums a cell's terms in its own order
        mat = mat.toarray()
        assert np.array_equal(mat != 0.0, ref != 0.0)
        assert np.allclose(mat, ref, rtol=1e-13, atol=0.0)


def test_ulam_direct_digits_match_loop_across_blocks(monkeypatch):
    # blocks of one digit: every cell is summed over several blocks
    monkeypatch.setattr(dimension_module, "hurwitz_zeta", lambda s2, q: 0.0 * q)
    monkeypatch.setattr(dimension_module, "_SCATTER_BLOCK", 1)
    for alphabet in (DigitAlphabet(5, None), DigitAlphabet(2, 30)):
        op = _UlamOperator(alphabet, 128)
        mat = op.matrix(0.8)
        mat = mat if alphabet.infinite else mat.toarray()
        assert np.allclose(mat, ulam_direct_oracle(op, 0.8), rtol=1e-13, atol=0.0)


def ulam_two_sided_oracle(op, s):
    """The full Ulam matrix of an infinite range with the zeta tail summed
    per (row, bin) from both ends, zeta(a_lo + x) - zeta(a_hi + 1 + x) on the
    nonempty cells, and bin 0 from a separate call."""
    b, w, x = op.bins, op.w, op.x
    mat = ulam_direct_oracle(op, s)
    zeta_lo = op.direct_hi + 1
    a_lo0 = np.maximum(np.floor(1.0 / w - x) + 1.0, zeta_lo)
    mat[:, 0] += hurwitz_zeta(2.0 * s, a_lo0 + x)
    k_top = min(int(1.0 / (zeta_lo * w)) + 1, b - 1)
    kv = np.arange(1, k_top + 1, dtype=float)[:, None]
    a_lo = np.floor(1.0 / ((kv + 1.0) * w) - x[None, :]) + 1.0
    a_lo = np.maximum(a_lo, zeta_lo)
    a_hi = np.floor(1.0 / (kv * w) - x[None, :])
    ok = a_hi >= a_lo
    xg = np.broadcast_to(x[None, :], a_lo.shape)
    vals = np.zeros_like(a_lo)
    vals[ok] = (hurwitz_zeta(2.0 * s, a_lo[ok] + xg[ok])
                - hurwitz_zeta(2.0 * s, a_hi[ok] + 1.0 + xg[ok]))
    mat[:, 1:k_top + 1] += vals.T
    return mat


@pytest.mark.parametrize("lower", [2, 13, 200])
@pytest.mark.parametrize("bins", [128, 1024])
def test_ulam_tail_matches_two_sided_oracle(lower, bins):
    # one zeta value per bin boundary and adjacent differences give the
    # same bits as two zeta values per cell
    op = _UlamOperator(DigitAlphabet(lower, None), bins)
    for s in (0.55, 0.7, 0.95):
        assert np.array_equal(op.matrix(s), ulam_two_sided_oracle(op, s))


@pytest.mark.parametrize("lower, bins", [(2, 128), (200, 1024)])
def test_ulam_tail_one_zeta_value_per_boundary(monkeypatch, lower, bins):
    sizes = []

    def counting(s2, q):
        sizes.append(np.size(q))
        return hurwitz_zeta(s2, q)

    monkeypatch.setattr(dimension_module, "hurwitz_zeta", counting)
    op = _UlamOperator(DigitAlphabet(lower, None), bins)
    op.matrix(0.7)
    k_top = min(int(1.0 / ((op.direct_hi + 1) * op.w)) + 1, bins - 1)
    assert sum(sizes) == (k_top + 1) * bins


def test_ulam_memory_does_not_grow_with_n():
    # the operator keeps no per-digit arrays, even at 4096 bins and N = 1e5,
    # where (digit, bin) pairs would take about 3 GB
    op = _UlamOperator(DigitAlphabet(100_000, None), 4096)
    held = sum(v.nbytes for v in vars(op).values() if isinstance(v, np.ndarray))
    assert held <= 16 * 4096
    # an assembly with 11,000 direct digits (183 MB of pairs) stays within a
    # few dense matrices
    bins = 1024
    tracemalloc.start()
    try:
        _UlamOperator(DigitAlphabet(20_000, None), bins).matrix(0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * bins * bins


def test_ulam_finite_rowsum():
    op = _UlamOperator(DigitAlphabet(3, 40), 128)
    rowsum = op.matrix(0.9) @ np.ones(128)
    exact = (hurwitz_zeta(1.8, 3 + op.x) - hurwitz_zeta(1.8, 41 + op.x))
    assert np.max(np.abs(rowsum - exact)) < 1e-12


def test_pressure_monotone_in_s():
    for alphabet in (DigitAlphabet(1, 2), DigitAlphabet(2, None), DigitAlphabet(5, 10)):
        op = _CollocationOperator(alphabet, 14)
        lams = []
        for s in np.linspace(0.55 if alphabet.infinite else 0.2, 1.2, 7):
            lam, _, _ = power_iteration(op.matrix(s), tol=1e-12)
            lams.append(lam)
        assert all(a > b for a, b in zip(lams, lams[1:]))


# -- dimension values --------------------------------------------------------------

def test_singleton_dimension_zero():
    assert abs(transfer_dimension(DigitAlphabet(1, 1), nodes=14).dim) < 1e-8
    assert abs(transfer_dimension(DigitAlphabet(7, 7), nodes=14).dim) < 1e-8


def test_two_digit_set_dimension():
    # published value: Jenkinson-Pollicott 2018, Hensley 1996
    est = transfer_dimension(DigitAlphabet(1, 2), nodes=24)
    assert est.dim == pytest.approx(0.53128050627720514, abs=1e-12)
    assert abs(est.dim - ulam_dimension(DigitAlphabet(1, 2), bins=4096).dim) < 1e-4
    assert abs(est.dim - ulam_dimension(DigitAlphabet(1, 2), bins=8192).dim) < 1e-6


def test_full_alphabet_dimension_one():
    # the operator at s = 1 preserves the Gauss density, so lambda(1) = 1
    # exactly; the root must come back as 1 to high accuracy
    est = transfer_dimension(DigitAlphabet(1, None), nodes=18)
    assert est.dim == pytest.approx(1.0, abs=1e-8)


def test_wide_finite_alphabet():
    est = transfer_dimension(DigitAlphabet(1, 50), nodes=24)
    assert est.dim > 0.98


def test_restricted_sets_bracketed():
    for n in (2, 3, 7, 20, 50, 100):
        est = transfer_dimension(DigitAlphabet(n, None), nodes=14, tol=1e-7)
        assert est.bracket_lo < est.dim < est.bracket_hi
        assert est.dim > 0.5


def test_dimension_increases_with_alphabet_width():
    d20 = transfer_dimension(DigitAlphabet(1, 20), nodes=20).dim
    d50 = transfer_dimension(DigitAlphabet(1, 50), nodes=20).dim
    assert d20 < d50 < 1.0


def test_ulam_collocation_agreement_random_finite():
    rng = np.random.default_rng(31)
    for _ in range(20):
        lo = int(rng.integers(1, 30))
        hi = lo + int(rng.integers(0, 30))
        c = transfer_dimension(DigitAlphabet(lo, hi), nodes=20)
        u = ulam_dimension(DigitAlphabet(lo, hi), bins=4096)
        assert abs(c.dim - u.dim) < 1e-4


def test_ulam_agreement_shifted_range():
    c = transfer_dimension(DigitAlphabet(10, 20), nodes=20)
    u = ulam_dimension(DigitAlphabet(10, 20), bins=4096)
    assert abs(c.dim - u.dim) < 1e-4


def test_ulam_singleton():
    # one digit is one point: dimension 0, without a solve (power iteration
    # on the singleton's Ulam matrix does not converge at 1024 bins)
    for bins in (256, 512, 1024, 2048):
        for a in (1, 2, 7):
            est = ulam_dimension(DigitAlphabet(a, a), bins=bins)
            assert (est.dim, est.residual) == (0.0, 0.0)


@pytest.mark.parametrize("alphabet", [DigitAlphabet(1, 2), DigitAlphabet(20, None)])
def test_pressure_root_assembly_budget(monkeypatch, alphabet):
    calls = []

    def counting(mat, **kwargs):
        calls.append(mat.shape)
        return power_iteration(mat, **kwargs)

    monkeypatch.setattr(dimension_module, "power_iteration", counting)
    est = transfer_dimension(alphabet)
    assert est.residual < 1e-8
    assert len(calls) <= 10


def test_pressure_root_without_sign_change_raises_at_once():
    # lambda = 2 at both ends of the bracket: no root, and no evaluations
    # beyond the two endpoints
    calls = []

    class Doubling:
        alphabet = DigitAlphabet(1, 2)

        def matrix(self, s):
            calls.append(s)
            return 2.0 * np.eye(4)

    with pytest.raises(NumericError, match="not bracketed"):
        _pressure_root(Doubling(), None, 1e-8, 1e-12)
    assert len(calls) == 2


def test_residual_is_lambda_at_the_returned_root():
    for alphabet in (DigitAlphabet(1, 2), DigitAlphabet(7, None)):
        est = transfer_dimension(alphabet, nodes=16)
        op = _CollocationOperator(alphabet, 16)
        lam, _, _ = power_iteration(op.matrix(est.dim), tol=1e-12)
        assert est.residual == pytest.approx(abs(lam - 1.0), abs=1e-11)


def test_good_dimension_sweep_rows():
    rows = good_dimension_sweep([2, 5], nodes=16, tol=1e-8)
    for n, lo, hi, est, resid in rows:
        assert lo < est < hi
        assert resid < 1e-6
    assert rows[0][3] > rows[1][3]
    with pytest.raises(ValueError):
        good_dimension_sweep([1])
    with pytest.raises(ValueError):
        good_dimension_sweep([])


def test_good_dimension_sweep_threads_and_ulam_column():
    kwargs = dict(nodes=12, tol=1e-7, ulam_bins=128)
    rows = good_dimension_sweep([2, 5], threads=2, **kwargs)
    assert rows == good_dimension_sweep([2, 5], threads=1, **kwargs)
    assert [len(r) for r in rows] == [6, 6]
    assert [r[0] for r in rows] == [2, 5]
    for r in rows:
        assert abs(r[3] - r[5]) < 1e-3  # coarse bins, loose check


def test_good_dimension_sweep_checks_every_n_before_solving(monkeypatch):
    solved = []
    monkeypatch.setattr(dimension_module, "transfer_dimension",
                        lambda alphabet, **kw: solved.append(alphabet))
    with pytest.raises(ValueError, match="N >= 2"):
        good_dimension_sweep([3, 1])
    assert solved == []


# -- ratio-set dimension -------------------------------------------------------------

def test_jarnik_dimension_endpoints():
    assert jarnik_dimension(0.0) == 0.5
    assert jarnik_dimension(1.0) == 0.0
    assert jarnik_dimension(0.5) == 0.25


def test_jarnik_dimension_growth_consistency():
    # 1/(2 (1 + theta/(1-theta))) == (1 - theta)/2 algebraically
    for theta in np.linspace(0.0, 0.999, 211):
        ratio = theta / (1.0 - theta)
        assert jarnik_dimension(theta) == pytest.approx(
            1.0 / (2.0 * (1.0 + ratio)), abs=1e-14)


def test_jarnik_dimension_domain():
    with pytest.raises(ValueError):
        jarnik_dimension(-0.1)
    with pytest.raises(ValueError):
        jarnik_dimension(1.1)
