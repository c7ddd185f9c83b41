import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cusplab as cl
import cusplab.contfrac as contfrac_module
from cusplab.contfrac import ContinuedFraction
from cusplab.numerics import InsufficientDigitsError


def test_rational_expansion():
    assert ContinuedFraction.from_rational(3, 10).prefix == (3, 3)
    assert ContinuedFraction.from_rational(1, 3).prefix == (3,)


def test_rational_out_of_range():
    with pytest.raises(ValueError):
        ContinuedFraction.from_rational(3, 2)
    with pytest.raises(ValueError):
        ContinuedFraction.from_rational(0, 1)


def test_golden_ratio_digits():
    g = ContinuedFraction.from_quadratic(5, -1, 2)
    assert g.digits(30) == [1] * 30
    assert g.value() == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-14)


def test_sqrt2_digits():
    s = ContinuedFraction.from_quadratic(2, -1, 1)
    assert s.digits(20) == [2] * 20


def test_quadratic_periods():
    # sqrt(3) - 1 = [0; 1, 2, 1, 2, ...], sqrt(7) - 2 = [0; (1, 1, 1, 4)]
    assert ContinuedFraction.from_quadratic(3, -1, 1).digits(6) == [1, 2, 1, 2, 1, 2]
    s7 = ContinuedFraction.from_quadratic(7, -2, 1)
    assert s7.digits(8) == [1, 1, 1, 4, 1, 1, 1, 4]
    assert s7.value() == pytest.approx(math.sqrt(7) - 2, abs=1e-14)


def test_quadratic_validation():
    with pytest.raises(ValueError):
        ContinuedFraction.from_quadratic(4, -1, 1)   # square
    with pytest.raises(ValueError):
        ContinuedFraction.from_quadratic(2, 1, 1)    # value > 1


def _quadratic_by_state_table(d, add, den, max_steps=10**6):
    """(prefix, period) of (add + sqrt(d))/den from the same integer
    recursion, with the period found as the first (P, Q) state seen twice,
    every state kept in a table."""
    P, Q, D = add, den, d
    if (D - P * P) % Q != 0:
        P, D, Q = P * Q, D * Q * Q, Q * Q
    s = math.isqrt(D)
    digits, seen = [], {}
    for step in range(max_steps):
        a = (P + s) // Q if Q > 0 else (P + s + 1) // Q
        if step > 0:
            if (P, Q) in seen:
                start = seen[P, Q]
                return tuple(digits[:start]), tuple(digits[start:])
            seen[P, Q] = len(digits)
            digits.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    raise AssertionError("no period")


@st.composite
def _quadratics(draw):
    """(d, add, den) with d <= 10^6 not a square, den <= 50 and the value
    (add + sqrt(d))/den in (0, 1)."""
    d = draw(st.integers(min_value=2, max_value=10**6).filter(
        lambda d: math.isqrt(d) ** 2 != d))
    den = draw(st.integers(min_value=1, max_value=50))
    return d, draw(st.integers(min_value=0, max_value=den - 1)) - math.isqrt(d), den


@settings(max_examples=300, deadline=None)
@given(_quadratics())
@example((2, -1, 1))
@example((7, -2, 1))
@example((5, -1, 2))       # den divides d - add^2: no rescaling
@example((3, 0, 2))        # den does not: rescaled to d den^2
@example((999_999, -950, 50))
def test_quadratic_period_matches_state_table(args):
    cf = ContinuedFraction.from_quadratic(*args)
    assert (cf.prefix, cf.period) == _quadratic_by_state_table(*args)


def test_quadratic_long_period():
    # sqrt(10^12 + 39) has a period of 532572 digits, far past a table of
    # 10^4 states; only the first reduced state is kept
    cf = ContinuedFraction.from_quadratic(10**12 + 39, -10**6, 1)
    assert cf.prefix == () and len(cf.period) == 532_572
    assert cf.period[-1] == 2 * 10**6


def test_quadratic_period_past_the_step_cap_raises(monkeypatch):
    # sqrt(1000000007) - 31622 has a period of 12352 digits, which closes
    # at the 12354th complete quotient
    monkeypatch.setattr(contfrac_module, "_QUADRATIC_MAX_STEPS", 12_353)
    with pytest.raises(ValueError, match="period detection failed"):
        ContinuedFraction.from_quadratic(1_000_000_007, -31_622, 1)
    # x, the 12352 period quotients and the first of them once more
    monkeypatch.setattr(contfrac_module, "_QUADRATIC_MAX_STEPS", 12_354)
    assert len(ContinuedFraction.from_quadratic(1_000_000_007, -31_622, 1).period) == 12_352


def test_float_expansion_flags_unreliable():
    f = ContinuedFraction.from_float((math.sqrt(5) - 1) / 2)
    assert f.digits(25) == [1] * 25
    # the binary double eventually stops looking like the golden ratio
    assert 25 <= f.reliable <= 45
    assert f.available() > f.reliable


def test_float_matches_exact_binary_rational():
    # float(0.3) is not 3/10; its expansion is that of the exact binary
    # rational behind the double (here [3, 2, ...], one notch below 3/10)
    f = ContinuedFraction.from_float(0.3)
    exact = Fraction(0.3)
    oracle = ContinuedFraction.from_rational(exact.numerator, exact.denominator)
    k = min(6, len(oracle.prefix))
    assert f.digits(k) == oracle.digits(k)
    assert f.digits(2) == [3, 2]
    assert f.reliable >= 1


def _from_float_reference(x, max_digits):
    """Euclid and the q_n recurrence interleaved in one loop, against the
    exact rational 1/(4 eps), eps half an ulp of x."""
    budget = Fraction(1, 2) / Fraction(math.ulp(x))
    frac = Fraction(x)
    num, den = frac.numerator, frac.denominator
    digits = []
    q_prev, q_cur = 0, 1
    reliable = 0
    while num and len(digits) < max_digits:
        a, rem = divmod(den, num)
        digits.append(a)
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if q_cur * q_cur < budget and reliable == len(digits) - 1:
            reliable = len(digits)
        den, num = num, rem
    return tuple(digits), reliable


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
       st.integers(min_value=1, max_value=80))
@example(5e-324, 3)   # subnormals: half an ulp underflows to 0 in floats
@example(1e-310, 80)
@example(0.3, 80)
@example(1.0 - 2.0 ** -53, 80)
def test_from_float_matches_interleaved_loop(x, max_digits):
    cf = ContinuedFraction.from_float(x, max_digits=max_digits)
    assert (cf.prefix, cf.reliable) == _from_float_reference(x, max_digits)


def test_digit_count_must_be_nonnegative():
    cf = ContinuedFraction([1, 2, 3])
    assert cf.digits(0) == [] and cl.convergents(cf, 0) == []
    with pytest.raises(ValueError, match=">= 0"):
        cf.digits(-1)
    with pytest.raises(ValueError, match=">= 0"):
        cl.convergents(cf, -2)
    with pytest.raises(ValueError, match=">= 0"):
        ContinuedFraction.from_periodic((), (2,)).digits(-3)


@pytest.mark.parametrize("prefix, period, message", [
    ([], (), "empty digit sequence"),
    ([2, 0, 3], (), "digits must be >= 1, got 0"),
    ([1, 2], (3, 0), "digits must be >= 1, got 0"),
])
def test_digits_checked_on_construction(prefix, period, message):
    with pytest.raises(ValueError, match=message):
        ContinuedFraction(prefix, period)


def test_periodic_lazy_expansion():
    cf = ContinuedFraction.from_periodic((1, 1, 100), (1,))
    assert cf.digits(6) == [1, 1, 100, 1, 1, 1]


def test_terminating_digit_exhaustion():
    cf = ContinuedFraction([2, 3, 4])
    with pytest.raises(InsufficientDigitsError):
        cf.digits(5)


def test_convergents_fibonacci():
    convs = cl.convergents(ContinuedFraction([1, 1, 1, 1]), 4)
    assert [(c.p, c.q) for c in convs] == [(1, 1), (1, 2), (2, 3), (3, 5)]


def test_convergents_recurrence_example():
    convs = cl.convergents(ContinuedFraction([2, 2]), 2)
    assert [(c.p, c.q) for c in convs] == [(1, 2), (2, 5)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=24))
def test_convergents_coprime_and_approximation(digits):
    cf = ContinuedFraction(digits)
    convs = cl.convergents(cf, len(digits))
    x = Fraction(0)
    for a in reversed(digits):
        x = Fraction(1, a + x)
    for k, c in enumerate(convs):
        assert math.gcd(c.p, c.q) == 1
        if k + 1 < len(convs):
            nxt = convs[k + 1]
            # |x - p_k/q_k| <= 1/(q_k q_{k+1})
            assert abs(x - Fraction(c.p, c.q)) <= Fraction(1, c.q * nxt.q)


def test_ford_circle_values():
    b = cl.ford_circle(1, 2)
    assert b.base == pytest.approx(0.5) and b.size == pytest.approx(0.25)
    b = cl.ford_circle(0, 1)
    assert b.base == 0.0 and b.size == 1.0


def test_ford_circle_infinity_cusp():
    b = cl.ford_circle(1, 0)
    assert math.isinf(b.base) and b.size == 1.0


def test_ford_circle_not_reduced():
    with pytest.raises(ValueError):
        cl.ford_circle(2, 4)


def test_ford_circles_disjoint_or_tangent():
    # exact integer check for all reduced p/q, r/s with q, s <= 50:
    # (center distance)^2 - (radius sum)^2 = ((p s - r q)^2 - 1) / (q s)^2 >= 0
    fracs = [(p, q) for q in range(1, 51) for p in range(0, q + 1)
             if math.gcd(p, q) == 1]
    worst_tangent = 0
    for i, (p, q) in enumerate(fracs):
        for r, s in fracs[i + 1:]:
            det = p * s - r * q
            assert det * det >= 1
            if det * det == 1:
                worst_tangent += 1
    assert worst_tangent > 0  # tangencies do occur (Farey neighbours)


def test_value_with_digit_beyond_float_range():
    # a digit beyond float range contributes 1/inf = 0 to its neighbour
    assert ContinuedFraction([3, 2 ** 1100, 2]).value() == 1.0 / 3.0
    assert ContinuedFraction([2 ** 1100, 5]).value() == 0.0
    assert ContinuedFraction.from_periodic((1, 10 ** 400), (2,)).value() == 1.0


def test_numpy_digit_arrays_become_python_ints():
    # the trace workload passes uint64 streams: tolist() keeps digits at and
    # past 2^63 exact, and an int64 array gives the Python ints' expansion
    np = pytest.importorskip("numpy")
    big = [2 ** 63, 3, 2 ** 64 - 1, 1]
    cf = ContinuedFraction(np.array(big, dtype=np.uint64), np.array([2, 5], dtype=np.uint64))
    assert cf.prefix == tuple(big) and cf.period == (2, 5)
    assert all(type(d) is int for d in cf.prefix + cf.period)
    small = [4, 1, 7, 300, 2]
    from_array = ContinuedFraction(np.array(small, dtype=np.int64))
    from_list = ContinuedFraction(small)
    assert from_array.prefix == from_list.prefix and type(from_array.prefix[0]) is int
    assert cl.convergents(from_array, 5) == cl.convergents(from_list, 5)
    # other arrays still go through int()
    assert ContinuedFraction(np.array([2.0, 3.0])).prefix == (2, 3)
    with pytest.raises(ValueError, match="got 0"):
        ContinuedFraction(np.array([2, 0], dtype=np.int64))
