import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma
from scipy.special import zeta as hurwitz_zeta

import cusplab.dimension as dimension_module
from cusplab.dimension import (
    DigitAlphabet,
    _CollocationOperator,
    _UlamOperator,
    _bary_weights,
    _basis_at,
    _digit_blocks,
    _lobatto_nodes,
    _pressure_root,
    crude_critical_exponent,
    good_dimension_sweep,
    jarnik_dimension,
    power_iteration,
    transfer_dimension,
    ulam_dimension,
)
from cusplab.numerics import NumericError


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


@pytest.mark.parametrize("x", [1 + 2e-9, 1 + 1e-6, 1.1, 1.7, 2.0, 3.3, 8.0, 12.0])
def test_hurwitz_zeta_matches_scipy(x):
    # the library's kernel against scipy's, on both sides of the direct-sum
    # cutoff at q = 24, for float q and for 1-D and 2-D arrays
    kernel = dimension_module.hurwitz_zeta
    for q in (1, 2, 23.5, 24.0, 1e9):
        value = kernel(x, q)
        assert type(value) is float
        assert value == pytest.approx(hurwitz_zeta(x, q), rel=1e-14, abs=0.0)
    q1 = np.concatenate([np.linspace(1.0, 30.0, 59), np.geomspace(1.0, 1e7, 400)])
    q2 = np.random.default_rng(5).uniform(1.0, 1e7, (7, 13))
    q2[0, :4] = (1.0, 1.5, 23.999, 24.0)
    for q in (q1, q2):
        value = kernel(x, q)
        assert value.shape == q.shape
        assert np.max(np.abs(value / hurwitz_zeta(x, q) - 1.0)) <= 1e-14


def test_hurwitz_zeta_numpy_scalar_q():
    # a numpy or 0-d q runs the float computation and returns a float, so a
    # numpy digit bound solves like a Python int
    kernel = dimension_module.hurwitz_zeta
    for x in (1.1, 2.0, 7.5):
        for v in (np.int64(2), np.array(23.5), np.float32(3.0)):
            value = kernel(x, v)
            assert type(value) is float
            assert value == kernel(x, float(v))
    plain = transfer_dimension(DigitAlphabet(5, None), nodes=12, tol=1e-7)
    numpy_bound = transfer_dimension(DigitAlphabet(np.int64(5), None), nodes=12, tol=1e-7)
    assert numpy_bound.dim == plain.dim


def test_hurwitz_zeta_stacked_x_matches_one_call_per_x():
    # an array x broadcast against an array q gives, per x, the bits of a
    # call with that x alone, for q below and above the direct-sum cutoff at
    # 24: the collocation tail and the Ulam head take all their orders in
    # one call
    kernel = dimension_module.hurwitz_zeta
    rng = np.random.default_rng(11)
    for lo in (1.0, 24.0, 1000.0) * 10:
        x = rng.uniform(1.0 + 1e-9, 20.0, rng.integers(1, 12))
        q = rng.uniform(lo, 100.0 * lo, rng.integers(1, 40))
        stacked = kernel(x[:, None], q)
        assert stacked.shape == (len(x), len(q))
        for row, one in zip(stacked, x):
            assert np.array_equal(row, kernel(one, q))
    assert kernel(np.array([2.0, 3.0]), 1.0) == pytest.approx([np.pi ** 2 / 6, 1.2020569031595942],
                                                             rel=1e-14)


@pytest.mark.parametrize("x, q", [
    (1.0, 2.0), (0.5, 2.0), (float("nan"), 2.0), (float("inf"), 2.0),
    (2.0, 0.0), (2.0, -1.0), (2.0, float("nan")), (2.0, float("inf")),
    (2.0, np.array([3.0, 0.0])), (2.0, np.array([[3.0], [float("nan")]])),
    (np.array([2.0, 1.0]), 2.0), (np.array([[2.0], [float("inf")]]), np.array([3.0, 4.0])),
])
def test_hurwitz_zeta_rejects_bad_arguments(x, q):
    with pytest.raises(ValueError):
        dimension_module.hurwitz_zeta(x, q)


def relative_error(value, exact):
    return np.max(np.abs(np.asarray(value) / exact - 1.0))


@pytest.mark.parametrize("x", [0.0, 0.3, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.7, 3.3, 8.0])
def test_hurwitz_zeta_count_matches_fsum(x):
    # a finite count against math.fsum of its terms, for q on both sides of
    # the direct-sum cutoff at 24 and counts that end inside the direct
    # terms, just past them and far past them, as scalars and as an array
    kernel = dimension_module.hurwitz_zeta
    qs = np.array([0.05, 1.0, 1.5, 3.0, 20.5, 23.999, 24.0, 24.5, 700.25, 1e5])
    for count in (1, 2, 5, 21, 22, 23, 40, 1000, 20_000):
        exact = np.array([math.fsum((q + np.arange(count)) ** -x) for q in qs])
        for q, one in zip(qs, exact):
            value = kernel(x, float(q), count)
            assert type(value) is float
            assert relative_error(value, one) <= 1e-14, (q, count)
        assert relative_error(kernel(x, qs, count), exact) <= 1e-14, count


@pytest.mark.parametrize("q", [1.0, 2.5, 24.0, 1000.0])
def test_hurwitz_zeta_count_at_one_matches_digamma(q):
    # at x = 1 the sum over k < count is digamma(q + count) - digamma(q),
    # up to a billion terms
    kernel = dimension_module.hurwitz_zeta
    counts = np.array([1000, 12_345, 10**6, 10**7, 10**9])
    exact = digamma(q + counts) - digamma(q)
    assert relative_error([kernel(1.0, q, int(c)) for c in counts], exact) <= 1e-14
    assert relative_error(kernel(np.ones(len(counts)), q, 10**9), exact[-1]) <= 1e-14


@pytest.mark.parametrize("x", [1.5, 2.0, 3.3, 8.0])
def test_hurwitz_zeta_count_matches_scipy_difference(x):
    # zeta(x, q) - zeta(x, q + count) with count >= q, where the two zeta
    # values stay apart and their difference keeps its digits
    kernel = dimension_module.hurwitz_zeta
    for q in (1.0, 7.5, 24.0, 333.0, 1e6):
        for ratio in (1, 3, 100, 10**4):
            count = math.ceil(ratio * q)
            exact = hurwitz_zeta(x, q) - hurwitz_zeta(x, q + count)
            assert relative_error(kernel(x, q, count), exact) <= 1e-14, (q, count)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(0.0, 8.0), q=st.floats(0.01, 1e6), first=st.integers(0, 10**6),
       second=st.integers(0, 10**6))
def test_hurwitz_zeta_count_splits_additively(x, q, first, second):
    # the first + second terms are the first terms and the second ones that
    # follow them; all terms are positive, so the split cannot cancel
    kernel = dimension_module.hurwitz_zeta
    whole = kernel(x, q, first + second)
    parts = kernel(x, q, first) + kernel(x, q + first, second)
    assert whole == pytest.approx(parts, rel=1e-14, abs=0.0)
    if x > 1.0:
        assert kernel(x, q) == pytest.approx(whole + kernel(x, q + first + second),
                                             rel=1e-14, abs=0.0)


def test_hurwitz_zeta_count_edge_cases():
    # count 0 is an empty sum; a count must be a non-negative integer; a
    # count takes any finite x, and x = 1 or an exhausted count warns of
    # nothing (pytest turns a RuntimeWarning into an error)
    kernel = dimension_module.hurwitz_zeta
    q = np.array([[0.5, 23.0], [24.0, 1e9]])
    assert kernel(2.0, 3.0, 0) == 0.0
    assert np.array_equal(kernel(np.array([0.0, 1.0, 4.0])[:, None, None], q, 0),
                          np.zeros((3, 2, 2)))
    assert kernel(1.0, 1.0, 1) == 1.0
    # a count that ends among the direct terms gives a scalar call the bits
    # of an array call, which adds Euler-Maclaurin ends that cancel exactly
    for q0, count in ((1.0, 2), (3.5, 20), (0.05, 23), (22.5, 1)):
        for x in (0.0, 1.0, 1.7):
            assert kernel(x, q0, count) == kernel(x, np.array([q0]), count)[0]
    assert kernel(0.0, 1.5, 10**9) == pytest.approx(1e9, rel=1e-15)
    assert kernel(-1.0, 1.0, 4) == pytest.approx(10.0, rel=1e-15)
    assert kernel(np.int64(2), np.float32(3.0), np.int64(2)) == pytest.approx(
        1 / 9 + 1 / 16, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (0.0, 1.0, np.array([1.0, 2.0])[:, None]):
            for count in (0, 1, 3, 30, 10**9):
                assert np.all(np.isfinite(kernel(x, q, count)))
    with pytest.raises(ValueError, match="count >= 0"):
        kernel(2.0, 3.0, -1)
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(TypeError):
            kernel(2.0, 3.0, bad)
    for x in (float("nan"), float("inf"), np.array([1.0, float("nan")])):
        with pytest.raises(ValueError, match="finite"):
            kernel(x, 3.0, 5)
    with pytest.raises(ValueError, match="q finite and > 0"):
        kernel(2.0, 0.0, 5)


def test_crude_matches_hurwitz_oracle():
    # independent oracle: bisect zeta(2s, n+shift) = 1 with scipy's Hurwitz zeta
    for n, shift in [(2, 0), (2, 1), (5, 0), (10, 1), (100, 0), (3, 0.5), (7, 1 / 7)]:
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


@pytest.mark.parametrize("n, upper, shift", [(20, 21, 0.0), (20, 21, 1 / 20), (5, 40, 0.0),
                                             (5, 40, 0.2), (1, 2, 1.0), (3, 4000, 1 / 3)])
def test_crude_finite_range_matches_direct_sum_oracle(n, upper, shift):
    # a finite upper end is summed directly; oracle: bisect
    # sum_{a=n..upper} (a + shift)^{-2s} = 1 on [0, 2] with exact summation
    a = np.arange(n, upper + 1, dtype=float) + shift
    lo, hi = 0.0, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if math.fsum(a ** (-2.0 * mid)) > 1.0:
            lo = mid
        else:
            hi = mid
    assert crude_critical_exponent(n, shift, upper=upper) == pytest.approx(lo, abs=1e-9)


@pytest.mark.parametrize("args, message", [
    ((2, -0.1), r"shift must lie in \[0, 1\]"),
    ((2, 1.5), r"shift must lie in \[0, 1\]"),
    ((0, 1), "n must be >= 1"),
    ((5, 0, 1e-10, 4), "upper end 4 is below n = 5"),
])
def test_crude_rejects_bad_arguments(args, message):
    with pytest.raises(ValueError, match=message):
        crude_critical_exponent(*args)


@pytest.mark.parametrize("args, message", [((0,), "lower digit bound must be >= 1"),
                                           ((5, 4), "upper digit bound must be >= lower")])
def test_digit_alphabet_rejects_bad_bounds(args, message):
    with pytest.raises(ValueError, match=message):
        DigitAlphabet(*args)


def test_digit_alphabet_takes_integer_bounds_only():
    # a float bound is refused when the alphabet is made, not rounded or
    # left to fail deep in a solve; numpy integers become Python ints
    for args in ((2.5, None), (1, 2.0), (np.float64(3.0), 5)):
        with pytest.raises(TypeError, match="integer"):
            DigitAlphabet(*args)
    alphabet = DigitAlphabet(np.int64(3), np.int32(40))
    assert (type(alphabet.lower), type(alphabet.upper)) == (int, int)
    assert alphabet == DigitAlphabet(3, 40)
    assert transfer_dimension(alphabet).dim == transfer_dimension(DigitAlphabet(3, 40)).dim


def test_discretizations_reject_too_few_points():
    with pytest.raises(ValueError, match="need at least 8 collocation nodes"):
        transfer_dimension(DigitAlphabet(2, None), nodes=7)
    with pytest.raises(ValueError, match="need at least 64 bins"):
        ulam_dimension(DigitAlphabet(2, None), bins=63)


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


@pytest.mark.parametrize("lo, hi, entries", [
    (3, 40, 64), (3, 40, 16), (3, 40, 5), (1, 1, 100), (7, 7, 1), (2, 1000, 1 << 20)])
def test_digit_blocks_tile_the_range_in_order(lo, hi, entries):
    # every digit once, in order, at most max(1, entries // len(x)) per
    # block, every block full but the last; entries below len(x) still
    # give one digit a block
    x = np.linspace(0.0, 0.5, 16)
    step = max(1, entries // len(x))
    blocks = list(_digit_blocks(x, lo, hi, entries))
    digits = np.concatenate([blk[0] - x[0] for blk in blocks])
    assert np.array_equal(digits, np.arange(lo, hi + 1, dtype=float))
    assert [blk.shape[1] for blk in blocks[:-1]] == [step] * (len(blocks) - 1)
    assert 1 <= blocks[-1].shape[1] <= step
    for blk in blocks:
        assert np.array_equal(blk, x[:, None] + (blk[0] - x[0])[None, :])


def test_collocation_assembly_memory_bounded():
    # an operator keeps basis values for at most its first 128 digits, built
    # once, and sends every later digit through the tail, so an evaluation
    # at 64 nodes peaks near those 4.2 MB however large N is: summing the
    # digits of {a >= 64} to 16N one by one would take 31 MB of basis values,
    # and all of {3..4000} 131 MB
    for alphabet in (DigitAlphabet(17, None), DigitAlphabet(64, None),
                     DigitAlphabet(10**6, None), DigitAlphabet(3, 4000)):
        tracemalloc.start()
        try:
            op = _CollocationOperator(alphabet, 64)
            op.matrix(0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.basis.shape[1] <= 128
        # a finite range's tail is one zeta call of 5 values per node, as an
        # infinite range's is, so {3..4000} peaks at the same 4.5 MB
        assert peak < 8e6


@pytest.mark.parametrize("make, kind", [
    (lambda: _CollocationOperator(DigitAlphabet(1, 2), 20), "direct"),
    (lambda: _CollocationOperator(DigitAlphabet(5, None), 20), "zeta_tail"),
    (lambda: _CollocationOperator(DigitAlphabet(3, 4000), 40), "digit_tail"),
    (lambda: _UlamOperator(DigitAlphabet(5, 12), 256), "gather"),
    (lambda: _UlamOperator(DigitAlphabet(1, 61), 256), "head"),
    (lambda: _UlamOperator(DigitAlphabet(2, None), 256), "head")])
def test_operator_geometry_is_not_changed_by_an_evaluation(make, kind):
    # the geometry an operator builds once, and the arrays an Ulam operator
    # refills, serve every s: one operator evaluated at 0.6, 0.9, 0.6 gives
    # the bytes of a fresh operator at each s
    op = make()
    if isinstance(op, _CollocationOperator):
        assert (kind == "direct") == (op.coef is None)
        assert (kind == "zeta_tail") == (op.coef is not None and op.alphabet.infinite)
    else:
        assert (kind == "gather") == (op.head_cols == 0)

    def as_bytes(m):
        if isinstance(m, np.ndarray):
            return m.tobytes()
        # an infinite head is read through every array it holds, and a
        # product, which runs through its stair buffer
        head = [m.head] if isinstance(m.head, np.ndarray) else [
            a for _, a in sorted(vars(m.head).items()) if isinstance(a, np.ndarray)]
        product = m @ np.linspace(0.5, 1.5, m.shape[1])
        return b"".join(a.tobytes() for a in (*m.runs, m.wgt, *head, product))

    for s in (0.6, 0.9, 0.6):
        assert as_bytes(op.matrix(s)) == as_bytes(make().matrix(s))


@pytest.mark.parametrize("alphabet, calls_per_solve", [
    (DigitAlphabet(1, 2), 1), (DigitAlphabet(5, None), 2), (DigitAlphabet(3, 4000), 2)])
def test_collocation_basis_built_once_per_solve(monkeypatch, alphabet, calls_per_solve):
    # the basis values of the direct digits, and those of a range with a tail
    # for its tail coefficients, are built once per solve, not once per
    # evaluation
    basis_calls, evals = [], []
    monkeypatch.setattr(dimension_module, "_basis_at",
                        lambda *args: basis_calls.append(1) or _basis_at(*args))
    monkeypatch.setattr(dimension_module, "power_iteration",
                        lambda mat, **kw: evals.append(1) or power_iteration(mat, **kw))
    transfer_dimension(alphabet)
    assert len(evals) >= 4
    assert len(basis_calls) == calls_per_solve


@pytest.mark.parametrize("lower", [1000, 10**6])
def test_collocation_basis_points_do_not_grow_with_n(monkeypatch, lower):
    # a solve of {a >= N} builds basis values for its 128 direct digits and
    # the tail's Lobatto points only, at any N; summing the digits up to 16N
    # one by one took about 15001 nodes points per evaluation at N = 1000
    nodes, points = 20, []
    monkeypatch.setattr(dimension_module, "_basis_at",
                        lambda *args: points.append(len(args[2])) or _basis_at(*args))
    est = transfer_dimension(DigitAlphabet(lower, None), nodes=nodes)
    assert est.bracket_lo <= est.dim <= est.bracket_hi
    assert sum(points) <= (128 + 5) * nodes


class DirectCollocationOracle:
    """The collocation matrix of an alphabet with every digit up to
    ``direct_hi`` summed one by one, from basis values built at each
    evaluation in blocks of 64 digits, and for an infinite range the rest
    through a degree-4 interpolant on [0, 1/(direct_hi + 1)] summed against
    scipy's Hurwitz zeta."""

    def __init__(self, alphabet, nodes, direct_hi=None):
        self.alphabet = alphabet
        self.x, self.bw = _lobatto_nodes(nodes, alphabet.domain), _bary_weights(nodes)
        self.direct_hi = alphabet.upper if direct_hi is None else direct_hi
        if alphabet.infinite:
            self.eps = 1.0 / (self.direct_hi + 1.0)
            t = _lobatto_nodes(5, 1.0)
            self.coef = np.linalg.solve(np.vander(t, increasing=True),
                                        _basis_at(self.x, self.bw, self.eps * t))

    def matrix(self, s):
        k = len(self.x)
        out = np.zeros((k, k))
        for start in range(self.alphabet.lower, self.direct_hi + 1, 64):
            a = np.arange(start, min(start + 64, self.direct_hi + 1), dtype=float)
            denom = self.x[:, None] + a[None, :]
            basis = _basis_at(self.x, self.bw, (1.0 / denom).ravel()).reshape(k, len(a), k)
            out += np.einsum("kc,kcj->kj", denom ** (-2.0 * s), basis)
        if self.alphabet.infinite:
            for m in range(5):
                zet = hurwitz_zeta(2.0 * s + m, self.direct_hi + 1.0 + self.x)
                out += np.outer(zet * self.eps ** -m, self.coef[m])
        return out


def oracle_root(alphabet, nodes, direct_hi=None):
    oracle = DirectCollocationOracle(alphabet, nodes, direct_hi)
    crude = dimension_module._crude_bracket(alphabet, 1e-10)
    return _pressure_root(oracle, crude, 1e-10)[0]


@pytest.mark.parametrize("n, nodes", [(2, 12), (3, 12), (5, 12), (2, 20), (3, 20),
                                      (5, 20), (2, 40), (2, 64), (5, 64), (2, 80),
                                      (5, 80), (2, 100), (5, 100)])
def test_collocation_cutoff_matches_far_reference(monkeypatch, n, nodes):
    # the tail after 128 direct digits gives the root of a direct sum to
    # 1024N within 5e-15 at any node count, as its coefficients come from
    # basis values on [0, 1/(N + 128)], which stay bounded; after 8 direct
    # digits it is off by more than that at N = 2
    ref = oracle_root(DigitAlphabet(n, None), nodes, 1024 * n)
    assert transfer_dimension(DigitAlphabet(n, None), nodes=nodes).dim == pytest.approx(
        ref, abs=5e-15)
    if n == 2:
        monkeypatch.setattr(dimension_module, "_DIRECT_DIGITS", 8)
        assert abs(transfer_dimension(DigitAlphabet(n, None), nodes=nodes).dim - ref) > 5e-15


@pytest.mark.parametrize("nodes", [12, 20, 40])
@pytest.mark.parametrize("lower, upper", [(1, 200), (2, 1000), (3, 4000), (10, 500),
                                          (100, 1000)])
def test_wide_finite_range_matches_all_direct_root(lower, upper, nodes):
    # the digits past the first 128 of a finite range go through the tail
    # polynomial, summed over them by one cut hurwitz_zeta call per
    # evaluation; the root stays within 1e-15 of the one that sums every
    # digit through its basis values
    alphabet = DigitAlphabet(lower, upper)
    assert transfer_dimension(alphabet, nodes=nodes).dim == pytest.approx(
        oracle_root(alphabet, nodes), abs=1e-15)


def hensley(n):
    """Hensley's asymptotic dim E_{1..N} = 1 - 6/(pi^2 N) - 72 ln N/(pi^4 N^2)
    + O(1/N^2) (J. Number Theory 1992), without its O(1/N^2) term."""
    return 1.0 - 6.0 / (math.pi ** 2 * n) - 72.0 * math.log(n) / (math.pi ** 4 * n ** 2)


@pytest.mark.parametrize("nodes", [20, 40])
def test_wide_finite_ranges_follow_hensley(nodes):
    # {1..N} against Hensley's asymptotic: the O(1/N^2) remainder, times N^2,
    # reads 1.011, 1.019 and 1.020 at N = 10^4, 10^5, 10^6, and at N = 10^9
    # the two agree to rounding; a finite tail costs one zeta call per
    # evaluation, so even {1..10^9} solves in milliseconds
    for n in (10**4, 10**5, 10**6):
        est = transfer_dimension(DigitAlphabet(1, n), nodes=nodes, tol=1e-15)
        assert 1.00 <= (est.dim - hensley(n)) * n ** 2 <= 1.03, n
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        est = transfer_dimension(DigitAlphabet(1, 10**9), nodes=nodes, tol=1e-15)
        seconds.append(time.perf_counter() - start)
        assert abs(est.dim - hensley(10**9)) <= 1e-15
    assert min(seconds) < 0.1, seconds


@pytest.mark.parametrize("alphabet", [DigitAlphabet(3, 4000), DigitAlphabet(1, 10**9),
                                      DigitAlphabet(7, None)])
def test_collocation_tail_is_one_zeta_call_per_evaluation(monkeypatch, alphabet):
    # every tail digit of a range, finite or not, goes through one
    # hurwitz_zeta call of 5 values per node at each s
    nodes, sizes = 20, []
    op = _CollocationOperator(alphabet, nodes)
    kernel = dimension_module.hurwitz_zeta
    monkeypatch.setattr(dimension_module, "hurwitz_zeta",
                        lambda *args: sizes.append(np.size(kernel(*args))) or kernel(*args))
    op.matrix(0.7)
    assert sizes == [5 * nodes]


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


def ulam_direct_oracle(op, s, lo, hi):
    """The Ulam matrix of the digits lo..hi on the operator's kept bins, one
    digit at a time: rows at op.x, columns through op.pos (every bin, for an
    infinite range)."""
    b, w, x = op.bins, op.w, op.x
    pos = np.arange(b) if op.pos is None else op.pos
    rows = np.arange(len(x))
    mat = np.zeros((len(x), len(x)))
    for a in range(lo, hi + 1):
        kidx = np.minimum((1.0 / ((a + x) * w)).astype(np.int64), b - 1)
        mat[rows, pos[kidx]] += (a + x) ** (-2.0 * s)  # one entry per row: no clashes
    return mat


def ulam_gathered(m):
    """The direct digits of matrix(s), its per-row gather, as a bins x bins
    matrix, their entries added per cell in digit order."""
    dense = np.zeros(m.shape)
    rows = np.broadcast_to(np.arange(m.shape[0]), m.wgt.shape)
    cols = np.repeat(*m.runs).reshape(m.wgt.shape)  # (digits, bins) targets
    np.add.at(dense, (rows, cols), m.wgt)  # digit by digit
    return dense


def ulam_direct_hi(op):
    """The operator's last direct digit: head_lo - 1 for a finite range, the
    digit below the stair split for an infinite one."""
    return op.alphabet.lower + len(op.ax) - 1


def ulam_head(m):
    """The head block of matrix(s): a finite range's array, or an infinite
    range's head, its stair digits with it, applied to each unit vector."""
    if isinstance(m.head, np.ndarray):
        return m.head
    return np.column_stack([m.head @ e for e in np.eye(m.head.shape[1])])


def ulam_dense(m):
    """The bins x bins matrix of matrix(s): the direct entries added per cell
    in digit order, then the head block."""
    dense = ulam_gathered(m)
    dense[:, :m.head.shape[1]] += ulam_head(m)
    return dense


def ulam_split_oracle(op, s):
    """The Ulam matrix of a finite range at the operator's split: the gather
    digits one at a time, plus, summed on their own, the head digits one at
    a time."""
    a = op.alphabet
    return (ulam_direct_oracle(op, s, a.lower, op.head_lo - 1)
            + ulam_direct_oracle(op, s, op.head_lo, a.upper))


def assert_direct_digits_match_loop(op, s):
    """matrix(s) with the zeta tail switched off holds the direct digits,
    the same terms summed per cell in the same digit order as one digit at a
    time: for a finite range the gather digits and a head scattered digit by
    digit, for an infinite range the digits below the stair split (its
    stair, Taylor coefficients, is checked against the two-sided oracle)."""
    m = op.matrix(s)
    if op.alphabet.infinite:
        ref = ulam_direct_oracle(op, s, op.alphabet.lower, ulam_direct_hi(op))
        assert np.array_equal(ulam_gathered(m), ref)
    else:
        assert np.array_equal(ulam_dense(m), ulam_split_oracle(op, s))


@pytest.fixture
def no_zeta(monkeypatch):
    monkeypatch.setattr(dimension_module, "hurwitz_zeta", lambda s2, q: 0.0 * (s2 + q))


@pytest.mark.parametrize("alphabet, bins", [
    (DigitAlphabet(2, None), 128), (DigitAlphabet(1, None), 256),
    (DigitAlphabet(1, 61), 256), (DigitAlphabet(3, 40), 128)])
def test_ulam_direct_digits_match_loop(no_zeta, alphabet, bins):
    # the finite ranges here pass the split, so they have a head; {a >= 2}
    # and {a >= 1} keep 2 and 5 digits below their stair splits
    op = _UlamOperator(alphabet, bins)
    assert len(op.ax) > 0 and op.head_cols > 0
    for s in (-0.5, 0.6, 0.95):
        if alphabet.infinite and s < 0.5:
            continue
        assert_direct_digits_match_loop(op, s)


def test_ulam_direct_digits_match_loop_across_blocks(no_zeta, monkeypatch):
    # blocks of one digit: every head cell of the finite range is summed
    # over several blocks; {a >= 2} keeps its 2 direct digits
    monkeypatch.setattr(dimension_module, "_SCATTER_BLOCK", 1)
    for alphabet in (DigitAlphabet(2, None), DigitAlphabet(2, 30)):
        op = _UlamOperator(alphabet, 128)
        assert op.head_cols > 0 and len(op.ax) > 0
        assert_direct_digits_match_loop(op, 0.8)


@pytest.mark.parametrize("alphabet, bins", [
    (DigitAlphabet(1, 2), 256), (DigitAlphabet(5, 12), 256), (DigitAlphabet(3, 27), 256),
    (DigitAlphabet(1, 31), 1024)])
def test_ulam_narrow_finite_range_is_a_gather(alphabet, bins):
    # up to the last digit a with a(a + 1) <= lower * bins: one (column,
    # weight) pair per digit and row and no head, with the products of the
    # digit-by-digit matrix
    op = _UlamOperator(alphabet, bins)
    digits, kept = alphabet.upper - alphabet.lower + 1, len(op.x)
    rng = np.random.default_rng(digits)
    for s in (-0.5, 0.6, 0.95):
        m = op.matrix(s)
        assert m.shape == (kept, kept) and m.wgt.shape == (digits, kept)
        assert m.head.shape == (kept, 0)
        ref = ulam_direct_oracle(op, s, alphabet.lower, alphabet.upper)
        for v in rng.uniform(0.0, 1.0, (3, kept)):
            assert np.allclose(m @ v, ref @ v, rtol=1e-14, atol=0.0)
    # {3..27} and {1..31} end at the split, so one digit more goes into a
    # head; {1..3} and {5..13} are still all gather
    at_split = (alphabet.upper + 1) * (alphabet.upper + 2) > alphabet.lower * bins
    assert at_split == (alphabet.upper in (27, 31))
    wider_op = _UlamOperator(DigitAlphabet(alphabet.lower, alphabet.upper + 1), bins)
    wider = wider_op.matrix(0.6)
    assert wider.wgt.shape == (digits + (not at_split), len(wider_op.x))
    assert (wider.head.shape[1] > 0) == at_split


def test_ulam_gather_and_head_roots_agree_at_the_split(monkeypatch):
    # at 256 bins {1..15} is all gather and {1..16} one head digit past the
    # split; each range is solved at its split, with every digit in the head,
    # and (finite ranges) with every digit gathered
    bins = 256
    for alphabet in (DigitAlphabet(1, 15), DigitAlphabet(1, 16), DigitAlphabet(2, None)):
        roots = [ulam_dimension(alphabet, bins=bins, tol=1e-13).dim]
        for top in [0] if alphabet.infinite else [0, alphabet.upper]:
            monkeypatch.setattr(_UlamOperator, "_gather_top", lambda self: top)
            roots.append(ulam_dimension(alphabet, bins=bins, tol=1e-13).dim)
        monkeypatch.undo()
        assert max(roots) - min(roots) <= 1e-12


def ulam_zeta_oracle(op, s, zeta_lo, hurwitz_zeta=None):
    """The digits a >= zeta_lo summed per (row, bin) from both ends, zeta(a_lo
    + x) - zeta(a_hi + 1 + x) on the nonempty cells, and bin 0 from a separate
    call.  Its zeta values come from the library's own kernel unless another
    is given; test_hurwitz_zeta_matches_scipy checks the kernel."""
    hurwitz_zeta = hurwitz_zeta or dimension_module.hurwitz_zeta
    b, w, x = op.bins, op.w, op.x
    mat = np.zeros((b, b))
    a_lo0 = np.maximum(np.floor(1.0 / w - x) + 1.0, zeta_lo)
    mat[:, 0] += hurwitz_zeta(2.0 * s, a_lo0 + x)
    kv = np.arange(1, b, dtype=float)[:, None]
    a_lo = np.floor(1.0 / ((kv + 1.0) * w) - x[None, :]) + 1.0
    a_lo = np.maximum(a_lo, zeta_lo)
    a_hi = np.floor(1.0 / (kv * w) - x[None, :])
    ok = a_hi >= a_lo
    xg = np.broadcast_to(x[None, :], a_lo.shape)
    vals = np.zeros_like(a_lo)
    vals[ok] = (hurwitz_zeta(2.0 * s, a_lo[ok] + xg[ok])
                - hurwitz_zeta(2.0 * s, a_hi[ok] + 1.0 + xg[ok]))
    mat[:, 1:] += vals.T
    return mat


@pytest.mark.parametrize("lower", [2, 13, 200])
@pytest.mark.parametrize("bins", [128, 1024])
def test_ulam_tail_matches_two_sided_oracle(lower, bins):
    # the whole infinite matrix, direct digits plus Taylor stair, against the
    # gather digits one at a time and the head digits summed per cell by two
    # scipy zeta values: every head digit lands in the head's columns, and
    # per row the largest error is at most 9.3e-16 of the row's sum over
    # these cases (measured); the digits below the stair split are the
    # one-digit-at-a-time sum, bit for bit
    op = _UlamOperator(DigitAlphabet(lower, None), bins)
    for s in (0.55, 0.7, 0.95):
        m = op.matrix(s)
        assert np.array_equal(ulam_gathered(m),
                              ulam_direct_oracle(op, s, lower, ulam_direct_hi(op)))
        zeta_part = ulam_zeta_oracle(op, s, op.head_lo, hurwitz_zeta)
        assert not zeta_part[:, op.head_cols:].any()
        ref = ulam_direct_oracle(op, s, lower, op.head_lo - 1) + zeta_part
        err = np.abs(ulam_dense(m) - ref).max(axis=1)
        assert np.all(err <= 4e-15 * ref.sum(axis=1))


def taylor_order(op, first):
    """The least J with (max|t| / (first + x0))^J (J + 1)^3 < 2^-60, x0 the
    domain's centre."""
    x0 = 0.5 * op.alphabet.domain
    reach = (x0 - op.x[0]) / (first + x0)
    return next(j for j in range(1, 100) if reach ** j * (j + 1) ** 3 < 2.0 ** -60)


# (N, bins): the stair split A and the Taylor order J
_STAIR_PINS = {(2, 128): (4, 18), (2, 1024): (4, 18), (3, 1024): (4, 16), (5, 1024): (5, 13),
               (200, 1024): (200, 5)}


@pytest.mark.parametrize("lower, bins", list(_STAIR_PINS))
def test_ulam_tail_one_zeta_value_per_boundary(monkeypatch, lower, bins):
    # one call per evaluation, of J zeta values per head column and none per
    # row or per stair digit.  The stair split A is the least A in
    # N..head_lo minimising (A - N) + J(A), J(A) the least order with
    # (max|t| / (A + x0))^J (J + 1)^3 < 2^-60 (head_lo - 1 + x0 for A =
    # head_lo), which is at least the head's own order
    sizes = []

    def counting(s2, q):
        sizes.append(np.broadcast(s2, q).size)
        return hurwitz_zeta(s2, q)

    monkeypatch.setattr(dimension_module, "hurwitz_zeta", counting)
    op = _UlamOperator(DigitAlphabet(lower, None), bins)
    op.matrix(0.7)
    assert op.head_cols == min(int(1.0 / (op.head_lo * op.w)) + 2, bins)
    split, order = _STAIR_PINS[lower, bins]
    assert ulam_direct_hi(op) + 1 == split and len(op.head.j) == order
    costs = {a: a - lower + taylor_order(op, min(a, op.head_lo - 1))
             for a in range(lower, op.head_lo + 1)}
    assert split == min(costs, key=costs.get)
    assert order == taylor_order(op, split) >= taylor_order(op, op.head_lo - 1)
    assert sizes == [order * op.head_cols]


def test_ulam_stair_holds_no_digits_by_bins_array():
    # {a >= 200} on 1024 bins puts all 253 gather digits in the stair: after
    # an evaluation and a product the operator and its stair hold 89 KB, not
    # the 4.1 MB of a + x and weights per (digit, bin), and the build,
    # evaluation and product peak at 0.17 MB
    tracemalloc.start()
    try:
        op = _UlamOperator(DigitAlphabet(200, None), 1024)
        op.matrix(0.7) @ np.ones(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(op.ax) == 0 and len(op.head.cols) - op.head_cols == 253
    held = sum(a.nbytes for part in (op, op.head) for v in vars(part).values()
               for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray))
    assert held < 100e3
    assert peak < 0.5e6


@pytest.mark.parametrize("alphabet", [DigitAlphabet(2, None), DigitAlphabet(1, 200)])
def test_ulam_matrix_memory_bounded(alphabet):
    # matrix(s) at the default 4096 bins peaks below an eighth of a dense
    # bins x bins matrix (134 MB): gather weights plus a head of about
    # sqrt(lower * bins) columns
    op = _UlamOperator(alphabet, 4096)
    tracemalloc.start()
    try:
        op.matrix(0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("alphabet, bins", [
    (DigitAlphabet(1, None), 256), (DigitAlphabet(1, 61), 1024),
    (DigitAlphabet(5000, None), 1024)])
def test_ulam_products_match_digit_by_digit_oracle(alphabet, bins):
    # gather plus head ({a >= 1}, {1..61}) and head only ({a >= 5000}, past
    # the split): products match a matrix summed one digit at a time, for an
    # infinite range to 4 head_lo and by two zeta values per cell beyond
    op = _UlamOperator(alphabet, bins)
    assert op.head_cols > 0 and (len(op.ax) == 0) == (alphabet.lower >= bins)
    rng = np.random.default_rng(bins)
    for s in (0.55, 0.7, 0.95):
        if alphabet.infinite:
            cut = 4 * op.head_lo
            ref = (ulam_direct_oracle(op, s, alphabet.lower, cut - 1)
                   + ulam_zeta_oracle(op, s, cut))
        else:
            ref = ulam_direct_oracle(op, s, alphabet.lower, alphabet.upper)
        m = op.matrix(s)
        for v in rng.uniform(0.0, 1.0, (3, len(op.x))):
            assert np.allclose(m @ v, ref @ v, rtol=1e-14, atol=0.0)


def test_ulam_memory_does_not_grow_with_n():
    # the operator keeps no per-digit arrays, even at 4096 bins and N = 1e5,
    # where (digit, bin) pairs would take about 3 GB, and its head keeps no
    # (bins, head columns) array after an evaluation, 134 MB there.  It holds
    # x and the head's first digits (a value per bin at most), its powers of
    # t and coefficient rows (J <= 3 values per bin each from N = 10^4 on)
    # and its steps (1 at N = 20,000, 3 at N = 10^5): 262 KB and 197 KB
    for lower in (20_000, 100_000):
        op = _UlamOperator(DigitAlphabet(lower, None), 4096)
        tracemalloc.start()
        try:
            op.matrix(0.7) @ np.ones(4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # no (bins, head columns) temporary either
        assert len(op.head.j) <= 3 and len(op.head.steps) <= 8
        held = sum(v.nbytes for part in (op, op.head) for v in vars(part).values()
                   if isinstance(v, np.ndarray))
        assert held <= 12 * 8 * 4096
    # at 1024 bins the last gather digit of N = 20,000 is 4524 < N, so the
    # operator is all head: its build and an evaluation stay within a few
    # dense matrices (the gather digits' case is
    # test_ulam_stair_holds_no_digits_by_bins_array)
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


def ulam_full_oracle(alphabet, bins, s, split=None):
    """The bins x bins Ulam matrix of a finite range on every bin, one digit
    at a time, with its bin centers; the digits from ``split`` on are summed
    on their own and then added, as an operator's head is."""
    w = alphabet.domain / bins
    full = SimpleNamespace(bins=bins, w=w, x=(np.arange(bins) + 0.5) * w, pos=None)
    split = alphabet.upper + 1 if split is None else split
    return (ulam_direct_oracle(full, s, alphabet.lower, split - 1)
            + ulam_direct_oracle(full, s, split, alphabet.upper)), full.x


_KEPT_CASES = [(DigitAlphabet(1, 2), 512), (DigitAlphabet(2, 5), 512),
               (DigitAlphabet(15, 16), 512), (DigitAlphabet(1, 40), 512),
               (DigitAlphabet(3, 60), 512), (DigitAlphabet(1, 61), 256)]


@pytest.mark.parametrize("alphabet, bins", _KEPT_CASES)
def test_ulam_kept_bins_are_closed(alphabet, bins):
    # every column a kept row reaches is kept, so the dropped columns of the
    # full matrix are zero on every kept row; the dropped block has no cycle
    # (it is nilpotent), so the kept block holds every nonzero eigenvalue
    op = _UlamOperator(alphabet, bins)
    kept = np.diff(op.pos, prepend=-1) == 1
    full, x = ulam_full_oracle(alphabet, bins, 0.7, split=op.head_lo)
    assert np.array_equal(op.x, x[kept])
    assert 0 < len(op.x) < bins
    reached = np.flatnonzero(full[kept].any(axis=0))
    assert kept[reached].all()
    assert not full[np.ix_(kept, ~kept)].any()
    dropped = (full[np.ix_(~kept, ~kept)] != 0).astype(float)
    power = dropped
    for _ in range(int(np.log2(len(power))) + 1):  # power ** 2^k with 2^k > len
        power = ((power @ power) != 0).astype(float)
    assert not power.any()
    # the kept block is the full matrix's, bit for bit
    assert np.array_equal(ulam_dense(op.matrix(0.7)), full[np.ix_(kept, kept)])


@pytest.mark.parametrize("alphabet, bins", _KEPT_CASES[:5])
def test_ulam_kept_block_has_the_leading_eigenvalue(alphabet, bins):
    op = _UlamOperator(alphabet, bins)
    for s in (0.3, 0.7):
        full = np.linalg.eigvals(ulam_full_oracle(alphabet, bins, s)[0])
        kept = np.linalg.eigvals(ulam_dense(op.matrix(s)))
        lead = full[np.argmax(np.abs(full))]
        assert kept[np.argmax(np.abs(kept))] == pytest.approx(lead, rel=1e-14)


def test_ulam_kept_bins_of_a_two_digit_cantor_set():
    # {15, 16} lies in [1/17, 1/15]; at 512 bins of [0, 1/15] its maps keep
    # coming back to 2 bins
    op = _UlamOperator(DigitAlphabet(15, 16), 512)
    assert len(op.x) == 2 and op.matrix(0.5).shape == (2, 2)


@pytest.mark.parametrize("lower", [1, 2, 300])
def test_ulam_infinite_range_keeps_every_bin(lower):
    op = _UlamOperator(DigitAlphabet(lower, None), 256)
    assert op.pos is None
    assert np.array_equal(op.x, (np.arange(256) + 0.5) * op.w)
    assert op.matrix(0.7).shape == (256, 256)


@pytest.mark.parametrize("alphabet", [DigitAlphabet(1, 2), DigitAlphabet(2, 5),
                                      DigitAlphabet(15, 16), DigitAlphabet(1, 40),
                                      DigitAlphabet(3, 60), DigitAlphabet(5, 40),
                                      DigitAlphabet(1, 61)])
def test_ulam_kept_bins_root_matches_a_full_bins_solve(monkeypatch, alphabet):
    # the same solve with every bin kept, as before the kept bins: the root
    # and residual move by rounding only
    est = ulam_dimension(alphabet, bins=1024)
    monkeypatch.setattr(_UlamOperator, "_kept_bins",
                        lambda self, x, top: np.ones(self.bins, dtype=bool))
    full = ulam_dimension(alphabet, bins=1024)
    assert abs(est.dim - full.dim) <= 1e-12
    assert abs(est.residual - full.residual) <= 1e-12


def test_ulam_kept_bins_build_holds_no_digits_by_bins_array():
    # {3..4000} at 1024 bins: its 3946 head digits times 1024 bins would take
    # 32 MB; the build, which walks only each row's run of head columns,
    # peaks below one assembly, which scatters them in blocks
    op = _UlamOperator(DigitAlphabet(3, 4000), 1024)
    peaks = []
    for make in (lambda: _UlamOperator(DigitAlphabet(3, 4000), 1024), lambda: op.matrix(0.7)):
        tracemalloc.start()
        try:
            make()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] < 4e6


def test_pressure_monotone_in_s():
    for alphabet in (DigitAlphabet(1, 2), DigitAlphabet(2, None), DigitAlphabet(5, 10)):
        op = _CollocationOperator(alphabet, 14)
        lams = []
        for s in np.linspace(0.55 if alphabet.infinite else 0.2, 1.2, 7):
            lam, _, _ = power_iteration(op.matrix(s))
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


def test_full_alphabet_bracket_and_evaluations(monkeypatch):
    # {a >= 1} is searched in the crude bracket [s_crude(1, shift 1), 2] by
    # both discretizations; on the fixed [1/2, 2] they took 10 and 9
    # evaluations
    calls = []
    monkeypatch.setattr(dimension_module, "power_iteration",
                        lambda mat, **kw: calls.append(1) or power_iteration(mat, **kw))
    crude = (crude_critical_exponent(1, 1), 2.0)
    assert crude[0] == crude_critical_exponent(2, 0) == pytest.approx(0.86432, abs=1e-5)
    for solve, err in ((transfer_dimension, 1e-10),
                       (lambda a: ulam_dimension(a, bins=1024), 1e-6)):
        calls.clear()
        est = solve(DigitAlphabet(1, None))
        assert (est.bracket_lo, est.bracket_hi) == crude
        assert est.bracket_lo < est.dim < est.bracket_hi
        assert abs(est.dim - 1.0) < err
        assert len(calls) <= 8


@pytest.mark.parametrize("alphabet", [DigitAlphabet(2, None), DigitAlphabet(5, None),
                                      DigitAlphabet(100, None), DigitAlphabet(1, 2),
                                      DigitAlphabet(5, 40)])
def test_ulam_keeps_the_collocation_bracket(alphabet):
    c = transfer_dimension(alphabet)
    u = ulam_dimension(alphabet, bins=1024)
    assert (u.bracket_lo, u.bracket_hi) == (c.bracket_lo, c.bracket_hi)
    assert u.bracket_lo < u.dim < u.bracket_hi


# the second eigenvalue of the Gauss operator at s = 1 (Wirsing, Acta Arith. 1974)
_WIRSING = -0.303663002898732658597


def gauss_spectrum(nodes, s=1.0):
    """Eigenvalues of the {a >= 1} collocation matrix at s, largest modulus
    first, with their eigenvectors as columns, and the nodes."""
    op = _CollocationOperator(DigitAlphabet(1, None), nodes)
    lam, vec = np.linalg.eig(op.matrix(s))
    order = np.argsort(-np.abs(lam))
    return lam[order], vec[:, order], op.x


@pytest.mark.parametrize("nodes", [20, 30, 40])
def test_gauss_operator_eigenvalues_and_density(nodes):
    # at s = 1 the Gauss operator fixes the Gauss density 1/(1 + x); a 16-digit
    # direct sum left lambda_1 4.3e-13 and lambda_2 4.9e-12 off at every node count
    lam, vec, x = gauss_spectrum(nodes)
    assert abs(lam[0] - 1.0) < 1e-13
    assert abs(lam[1] - _WIRSING) < 1e-13
    ratio = vec[:, 0].real * (1.0 + x)
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-13


def test_gauss_pressure_derivative_is_twice_levy():
    # -P'(1) = pi^2 / (6 log 2), the t_n / n of a typical ray; central
    # difference of log lambda at h = 1e-5
    h = 1e-5
    lam_hi, lam_lo = (gauss_spectrum(20, 1.0 + d)[0][0].real for d in (h, -h))
    slope = (math.log(lam_lo) - math.log(lam_hi)) / (2.0 * h)
    assert slope == pytest.approx(math.pi ** 2 / (6.0 * math.log(2.0)), abs=1e-8)


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


def seeded_finite_ranges(seed, count):
    """{1, 2}, {20, 21} and {3..4000}, then ``count`` ranges {lo..lo + w},
    lo uniform in 1..20 and w in 1..60."""
    rng = np.random.default_rng(seed)
    out = [(1, 2), (20, 21), (3, 4000)]
    for _ in range(count):
        lo = int(rng.integers(1, 21))
        out.append((lo, lo + int(rng.integers(1, 61))))
    return [DigitAlphabet(lo, hi) for lo, hi in out]


def test_finite_crude_bracket_holds_both_roots():
    # on [0, 1/lo], sum (a + 1/lo)^{-2s} <= (L_s 1)(x) <= sum a^{-2s}, so the
    # roots of the two direct sums (s = 2 above, for lo = 1) bracket the
    # collocation root and the Ulam root; {20, 21} has its root near 0.115
    for alphabet in seeded_finite_ranges(41, 20):
        c = transfer_dimension(alphabet)
        u = ulam_dimension(alphabet, bins=1024)
        assert c.bracket_lo < c.dim < c.bracket_hi
        assert c.bracket_lo < u.dim < c.bracket_hi
        assert c.bracket_hi == 2.0 if alphabet.lower == 1 else c.bracket_hi < 1.0
    assert transfer_dimension(DigitAlphabet(20, 21)).dim == pytest.approx(0.1147, abs=1e-4)


def test_finite_solves_take_fewer_evaluations(monkeypatch):
    # 15 finite ranges solved by collocation and (but {3..4000}) by Ulam at
    # 1024 bins took 216 evaluations on the fixed bracket [-1, 2], and take
    # 146 in their crude brackets
    calls = []
    monkeypatch.setattr(dimension_module, "power_iteration",
                        lambda mat, **kw: calls.append(1) or power_iteration(mat, **kw))
    for alphabet in seeded_finite_ranges(7, 12):
        transfer_dimension(alphabet)
        if alphabet.upper < 1000:
            ulam_dimension(alphabet, bins=1024)
    assert len(calls) <= 160


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
        _pressure_root(Doubling(), (0.2, 0.8), 1e-8)
    assert len(calls) == 2


def test_estimate_never_leaves_its_bracket():
    # {a >= 5000}: the crude bracket is 1.4e-6 wide and the Ulam root lies
    # within the default tol 1e-8 of its upper end, so the search stops in the
    # 1e-9 margin past it; the estimate is that end, with lambda evaluated there
    alphabet = DigitAlphabet(5000, None)
    est = ulam_dimension(alphabet, bins=1024)
    assert est.bracket_lo <= est.dim <= est.bracket_hi
    assert est.dim == est.bracket_hi
    lam, _, _ = power_iteration(_UlamOperator(alphabet, 1024).matrix(est.dim))
    assert est.residual == pytest.approx(abs(lam - 1.0), abs=1e-11)
    assert abs(est.dim - transfer_dimension(alphabet).dim) < 1e-4


@pytest.mark.parametrize("root, end", [(0.3 - 5e-10, 0), (0.8 + 5e-10, 1)])
def test_pressure_root_in_a_margin_moves_to_the_end(root, end):
    # lambda(s) = exp(root - s) crosses 1 inside the 1e-9 margin of a crude end
    calls = []

    class Exponential:
        alphabet = DigitAlphabet(1, 2)

        def matrix(self, s):
            calls.append(s)
            return math.exp(root - s) * np.eye(4)

    crude = (0.3, 0.8)
    got, residual = _pressure_root(Exponential(), crude, 1e-12)
    assert got == crude[end]
    assert calls[-1] == crude[end]
    assert residual == pytest.approx(abs(math.exp(root - got) - 1.0), rel=1e-6)


# each set is solved where importing scipy raises; {a >= 5000} at the
# default tol is the case whose Ulam search ends in the bracket's margin, so
# its estimate may sit on bracket_hi; every other estimate lies strictly inside
_NO_SCIPY_PROBE = """
from cusplab.dimension import DigitAlphabet as A, ulam_dimension as u, transfer_dimension as t
u(A(1, 2), bins=1024)  # a narrow finite range: the per-row gather
u(A(1, 200), bins=256)  # a wide one: gather plus dense scatter
e2 = t(A(1, 2), nodes=24)
assert abs(e2.dim - 0.53128050627720514) < 1e-12, e2
e = t(A(5, 40))
assert e.bracket_lo < e.dim < e.bracket_hi, e
e = t(A(1, 10**9), tol=1e-15)  # a finite range whose tail goes through a cut zeta sum
assert e.bracket_lo < e.dim < e.bracket_hi and abs(e.dim - 0.999999999392073) < 1e-15, e
g, gu = t(A(1, None)), u(A(1, None), bins=256)
assert all(e.bracket_lo < e.dim < e.bracket_hi for e in (g, gu)), (g, gu)
assert abs(g.dim - 1.0) < 1e-9, g
e, c = u(A(2, None)), t(A(2, None))
assert e.bracket_lo < e.dim < e.bracket_hi and abs(e.dim - c.dim) < 1e-4, (e, c)
e, c = u(A(5000, None), bins=1024), t(A(5000, None))
assert e.bracket_lo <= e.dim <= e.bracket_hi and abs(e.dim - c.dim) < 1e-4, (e, c)
print("ok")
"""


def test_solves_without_scipy(tmp_path):
    # the library computes every dimension with numpy alone: a scipy that
    # raises on import must not stop any solve
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text('raise ImportError("scipy is hidden")\n')
    src = Path(dimension_module.__file__).resolve().parents[1]
    path = os.pathsep.join([str(tmp_path), str(src), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


def test_residual_is_lambda_at_the_returned_root():
    for alphabet in (DigitAlphabet(1, 2), DigitAlphabet(7, None)):
        est = transfer_dimension(alphabet, nodes=16)
        op = _CollocationOperator(alphabet, 16)
        lam, _, _ = power_iteration(op.matrix(est.dim))
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


def test_good_dimension_sweep_takes_integer_n_only():
    # a float N is refused, not floored to a neighbouring set; numpy integers
    # give the rows of Python ints, N included
    with pytest.raises(TypeError):
        good_dimension_sweep([2.5], nodes=12, tol=1e-7)
    kwargs = dict(nodes=12, tol=1e-7, ulam_bins=128)
    rows = good_dimension_sweep([np.int64(2), np.int32(5)], **kwargs)
    assert rows == good_dimension_sweep([2, 5], **kwargs)
    assert [type(r[0]) for r in rows] == [int, int]


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
