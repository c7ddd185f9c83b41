import itertools
import math
import random
import time
import tracemalloc
import warnings
from fractions import Fraction

import pytest

from cusplab.contfrac import ContinuedFraction, convergent_pairs
from cusplab.dimension import DigitAlphabet, transfer_dimension
from cusplab.frostman import (
    CylinderMeasure,
    ball_mass,
    cdf,
    frostman_sampler,
    good_measure,
    good_weight_range,
    sample_point,
    sample_rows,
)

import numpy as np


def enum_cdf(digits, weights, x, depth):
    """Brute-force oracle: enumerate every depth-level cylinder, sum the full
    product weights of cylinders lying entirely left of x (straddling
    cylinders contribute their exact sub-mass only if x is an endpoint, so
    test points are chosen at cylinder endpoints or deep inside gaps)."""
    wmap = dict(zip(digits, weights))
    total = 0.0
    for word in itertools.product(digits, repeat=depth):
        p0, q0, p1, q1 = 1, 0, 0, 1
        for a in word:
            p0, p1 = p1, a * p1 + p0
            q0, q1 = q1, a * q1 + q0
        lo, hi = sorted((Fraction(p1, q1), Fraction(p1 + p0, q1 + q0)))
        if hi <= x:
            total += math.prod(wmap[a] for a in word)
    return total


def test_cdf_against_enumeration():
    m = CylinderMeasure.from_rule(1, 2, "uniform")
    # endpoints of low-level cylinders and points in measure-zero gaps
    for x in (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5),
              Fraction(5, 8), Fraction(13, 21), Fraction(7, 10), Fraction(1, 7)):
        assert cdf(m, x) == pytest.approx(enum_cdf([1, 2], [0.5, 0.5], x, 14), abs=1e-4)


def test_cdf_against_enumeration_weighted():
    m = CylinderMeasure.from_rule(2, 4, "inverse_successor")
    digits = [2, 3, 4]
    weights = list(m.weights)
    for x in (Fraction(1, 4), Fraction(3, 10), Fraction(1, 3), Fraction(2, 5),
              Fraction(9, 22), Fraction(5, 11)):
        assert cdf(m, x) == pytest.approx(enum_cdf(digits, weights, x, 9), abs=1e-4)


def fraction_cdf(measure, x):
    """Reference descent: the CDF as it was computed in Fraction arithmetic,
    one floor(1/y) and one y -> 1/y - d per level."""
    x = Fraction(x)
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    total, scale, flipped = 0.0, 1.0, False
    y = x
    for _ in range(64):
        d = math.floor(1 / y)
        below = measure.mass_above(d)
        inside = measure.weight(d)
        if not flipped:
            total += scale * below
        else:
            total += scale * (1.0 - below - inside)
        if inside == 0.0:
            return total
        scale *= inside
        y = 1 / y - d
        if y == 0:
            if not flipped:
                total += scale
            return total
        flipped = not flipped
        if scale < 1e-18:
            return total + 0.5 * scale
    return total + 0.5 * scale


def _points(rng):
    """Random rationals, cylinder endpoints p/q, and x with 63-80 digits,
    the lengths around the 64-level cap."""
    points = [Fraction(rng.randrange(1, 10 ** 12), 10 ** 12 + rng.randrange(1, 10 ** 6))
              for _ in range(300)]
    points += [Fraction(rng.randrange(1, q), q) for q in (2, 3, 7, 64, 10 ** 9, 2 ** 200)
               for _ in range(20)]
    for length in (1, 2, 5, 63, 64, 65, 66, 80):
        for digit_range in ((1, 1), (1, 2), (1, 5), (1, 40), (10, 60)):
            for _ in range(6):
                digits = [rng.randint(*digit_range) for _ in range(length)]
                (p0, q0), (p, q) = ([(0, 1)] + list(convergent_pairs(digits)))[-2:]
                # both endpoints of the cylinder of the digit string
                points += [Fraction(p, q), Fraction(p + p0, q + q0)]
    return points + [Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(4, 3)]


@pytest.mark.parametrize("measure", [
    CylinderMeasure(1, 1, (1.0,)),                       # reaches level 64
    CylinderMeasure(1, 2, (1.0 - 1e-9, 1e-9)),
    CylinderMeasure.from_rule(1, 5, "uniform"),
    good_measure(10, 2.0),
], ids=["single:a=1", "skewed:1,2", "range:1-5-uniform", "good:tau=10,kappa=2"])
def test_cdf_bit_identical_to_fraction_descent(measure):
    points = _points(random.Random(20261019))
    assert ([cdf(measure, x).hex() for x in points]
            == [fraction_cdf(measure, x).hex() for x in points])


def test_cdf_monotone_and_normalized():
    m = CylinderMeasure.from_rule(3, 9, "inverse_successor")
    assert cdf(m, Fraction(0)) == 0.0
    assert cdf(m, Fraction(1)) == 1.0
    values = [cdf(m, Fraction(k, 64)) for k in range(65)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_cylinder_additivity():
    # mass of the level-1 cylinder of digit a equals its weight: the cylinder
    # is (1/(a+1), 1/a], and masses of disjoint cylinders add up to 1
    m = CylinderMeasure.from_rule(2, 5, "uniform")
    total = 0.0
    for a in range(2, 6):
        mass = cdf(m, Fraction(1, a)) - cdf(m, Fraction(1, a + 1))
        assert mass == pytest.approx(m.weight(a), abs=1e-12)
        total += mass
    assert total == pytest.approx(1.0, abs=1e-12)


def test_weights_validation():
    with pytest.raises(ValueError):
        CylinderMeasure(2, 3, (0.5, 0.6))
    with pytest.raises(ValueError):
        CylinderMeasure(2, 3, (0.5,))
    with pytest.raises(ValueError):
        CylinderMeasure.from_rule(2, 4, "mystery")
    # rejected before the weights are computed: 1/(a+1) at a = -1 would
    # divide by zero
    with pytest.raises(ValueError, match="1 <= lo <= hi"):
        CylinderMeasure.from_rule(-1, 3)
    with pytest.raises(ValueError, match="1 <= lo <= hi"):
        CylinderMeasure.from_rule(5, 4, "uniform")
    # more than 10^7 digits: rejected before numpy allocates the weights
    for lo, hi in ((1, 10 ** 12), (5, 10 ** 7 + 5)):
        with pytest.raises(ValueError, match=rf"digit range \[{lo}, {hi}\] exceeds 10000000"):
            CylinderMeasure.from_rule(lo, hi)


def test_weights_held_as_read_only_array():
    # any sequence is taken; the measure holds its own float64 copy
    source = [0.25, 0.75]
    for weights in (source, tuple(source), np.array(source)):
        m = CylinderMeasure(3, 4, weights)
        assert m.weights.dtype == np.float64 and m.weights.tolist() == source
        assert not m.weights.flags.writeable
        with pytest.raises(ValueError):
            m.weights[0] = 0.5
        assert type(m.weight(4)) is float and m.weight(4) == 0.75
    for bad in ((0.5, math.nan), (math.inf, 0.0), ((0.5, 0.5),), [[0.5], [0.5]]):
        with pytest.raises(ValueError):
            CylinderMeasure(3, 4, bad)


def test_wide_range_sample_memory_bounded():
    # 10^6 digits: the weights, their cumulative and suffix sums and the
    # from_rule temporaries are float64 arrays of 8 MB each; held as a tuple
    # of Python floats they took 62 MB and 1.4 s
    tracemalloc.start()
    try:
        sample_rows(CylinderMeasure.from_rule(1, 10 ** 6), 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 45e6


def test_wide_range_sample_holds_one_array_per_sum():
    # 10^6 digits: the weights, their cumulative sums and their suffix sums
    # take 8 MB each, and none of them is built through a second full-size
    # temporary (the weights were formed in three arrays, the suffix sums in
    # two: 33 MB)
    tracemalloc.start()
    try:
        sample_rows(CylinderMeasure.from_rule(1, 10 ** 6), 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 26e6


def test_good_weight_range_rule():
    lo, hi, total = good_weight_range(10, 2.0)
    assert lo == 10
    # minimality: dropping the last digit puts the sum at or below e^(kappa/2)
    assert total > math.exp(1.0)
    assert total - 1.0 / (hi + 1.0) <= math.exp(1.0)
    m = good_measure(10, 2.0)
    assert math.fsum(m.weights) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("tau, kappa", [(1, 0.1), (10, 2.0), (1, 5.0)])
def test_good_measure_weights_match_from_rule(tau, kappa):
    # good_measure normalizes the weights its range search summed; they are
    # bit-identical to the inverse-successor rule over the same range
    lo, hi, _ = good_weight_range(tau, kappa)
    m = good_measure(tau, kappa)
    assert (m.lo, m.hi) == (lo, hi)
    assert m.weights.tobytes() == CylinderMeasure.from_rule(lo, hi).weights.tobytes()


def test_good_weight_range_unreachable_kappa_fails_fast():
    # no support of up to 10^7 digits sums past e^(kappa/2) here (kappa = 6
    # from tau = 1 needs about 8e8); the check must not walk the digits first
    start = time.perf_counter()
    for tau, kappa in ((3, math.inf), (10, 1e4), (1, 6.1), (1, 6.0), (10 ** 9 + 5, 1.0)):
        with pytest.raises(ValueError, match="too large"):
            good_weight_range(tau, kappa)
    assert time.perf_counter() - start < 1.0
    assert good_weight_range(1, 4.0)[1] == 2469
    lo, hi, _ = good_weight_range(1, 5.0)
    assert hi - lo + 1 == 298127


def _good_weight_range_loop(tau, kappa):
    """Reference: add 1/(a+1) digit by digit until the sum passes e^(kappa/2)."""
    target = math.exp(0.5 * kappa)
    total, hi = 0.0, tau - 1
    while total <= target:
        hi += 1
        total += 1.0 / (hi + 1.0)
    return tau, hi, total


@pytest.mark.parametrize("tau, kappa", [(1, 0.1), (1, 2.0), (1, 4.0), (2, 3.0), (10, 2.0),
                                        (100, 3.0), (1000, 1.0), (10 ** 5, 0.2)])
def test_good_weight_range_matches_digit_loop(tau, kappa):
    # the range and the normalizer are bit-identical to the digit-order sum
    assert good_weight_range(tau, kappa) == _good_weight_range_loop(tau, kappa)


def test_good_weight_range_at_the_support_cap():
    # from tau = 1 the sum passes e^(kappa/2) within 10^7 digits up to kappa
    # about 5.506, but the fail-fast check stops only kappa >= 5.56, so the
    # search itself must find the cap; values from the digit loop
    assert good_weight_range(1, 5.505) == (1, 9865670, 15.68178742895182)
    with pytest.raises(ValueError, match="too large"):
        good_weight_range(1, 5.51)


def test_good_weight_range_rejects_nan_kappa():
    # NaN fails every comparison, so the check must be "not kappa > 0"
    for kappa in (math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="kappa must be positive"):
            good_weight_range(10, kappa)


def test_sample_point_lands_in_support():
    # digits at and past 2^63 stay exact integers, not int64 that wrap
    for measure in (good_measure(10, 2.0),
                    CylinderMeasure.from_rule(2 ** 63 - 3, 2 ** 63 + 3, "uniform"),
                    CylinderMeasure(10 ** 23 - 1, 10 ** 23 - 1, (1.0,))):
        rng = np.random.Generator(np.random.Philox(key=[3, 0]))
        xi = sample_point(measure, rng, 8)
        assert 0 < xi < Fraction(1, measure.lo)
        digits = ContinuedFraction.from_rational(xi.numerator, xi.denominator).prefix
        assert len(digits) == 8
        assert all(measure.lo <= a <= measure.hi for a in digits)


def per_call_sample_point(measure, rng, depth):
    """sample_point with its cumulative weights rebuilt on every call."""
    cum = np.cumsum(np.asarray(measure.weights))
    digits = measure.lo + np.searchsorted(cum, rng.random(depth) * cum[-1])
    *_, (p, q) = convergent_pairs(digits.tolist())
    return Fraction(p, q)


@pytest.mark.parametrize("measure", [
    CylinderMeasure(7, 7, (1.0,)),
    CylinderMeasure.from_rule(2, 40, "uniform"),
    CylinderMeasure.from_rule(1, 100_000),
    good_measure(10, 2.0),
], ids=["single:a=7", "range:2-40-uniform", "range:1-100000", "good:tau=10,kappa=2"])
def test_sample_point_bit_identical_to_per_call_cumsum(measure):
    # the cumulative weights are built once per measure and reused
    for idx in range(20):
        key = np.array([11, idx], dtype=np.uint64)
        got = sample_point(measure, np.random.Generator(np.random.Philox(key=key)), 12)
        ref = per_call_sample_point(measure, np.random.Generator(np.random.Philox(key=key)), 12)
        assert got == ref
    assert measure._cumulative is measure._cumulative


def test_single_digit_exponent_zero():
    m = CylinderMeasure(7, 7, (1.0,))
    rep = frostman_sampler(m, 3, seed=5)
    # a point mass direction: every ball carries full mass, ratio ~ 0
    assert rep.fitted_exponent == pytest.approx(0.0, abs=1e-3)


def test_deterministic_given_seed():
    m = good_measure(10, 2.0)
    a = frostman_sampler(m, 6, seed=11)
    b = frostman_sampler(m, 6, seed=11)
    assert a.rows == b.rows and a.fitted_exponent == b.fitted_exponent
    c = frostman_sampler(m, 6, seed=12)
    assert c.rows != a.rows


def test_every_64_bit_seed_keys_its_own_stream():
    # seeds from 2^63 on must stay integers in the Philox key, not collapse
    # through a float to one another or to seed 0
    m = good_measure(10, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = [sample_rows(m, seed, 0) for seed in (0, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1)]
    assert len({tuple(r) for r in rows}) == 4


def test_fitted_exponent_good_measure():
    m = good_measure(10, 2.0)
    rep = frostman_sampler(m, 40, seed=2)
    assert rep.fitted_exponent >= 0.45


def test_stability_under_doubling():
    m = good_measure(10, 2.0)
    a = frostman_sampler(m, 40, seed=2)
    b = frostman_sampler(m, 80, seed=2)
    assert b.fitted_exponent <= a.fitted_exponent + 1e-12  # inf over a superset
    assert abs(a.fitted_exponent - b.fitted_exponent) < 0.02


def test_certificate_below_transfer_dimension():
    # Frostman soundness: the certificate must not exceed the dimension of
    # the digit-range set it lives on (finite-scale slack 0.02)
    m = CylinderMeasure.from_rule(5, 40, "inverse_successor")
    rep = frostman_sampler(m, 30, seed=9)
    dim = transfer_dimension(DigitAlphabet(5, 40), nodes=20).dim
    assert rep.fitted_exponent <= dim + 0.02


def test_ball_mass_positive_radius_required():
    m = good_measure(10, 2.0)
    with pytest.raises(ValueError):
        ball_mass(m, Fraction(1, 20), 0)
