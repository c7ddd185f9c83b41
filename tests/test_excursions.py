import math

import numpy as np
import pytest

import cusplab as cl
from cusplab.contfrac import ContinuedFraction
from cusplab.excursions import (
    excursion_trace,
    gap_bound_estimate,
    good_membership,
    corridor_membership,
    jarnik_ratios,
    synthesize_trace,
    theta_to_ratio,
    ratio_to_theta,
)
from cusplab.numerics import InsufficientDigitsError

SQRT2 = ContinuedFraction.from_quadratic(2, -1, 1)
LOG2 = math.log(2)


def sample_digit_traces(count, length, rng, lo=1, hi=9):
    traces = []
    for _ in range(count):
        digits = rng.integers(lo, hi + 1, size=length + 8).tolist()
        traces.append(excursion_trace(ContinuedFraction(digits), length))
    return traces


# -- geometric traces ---------------------------------------------------------

def test_bounded_type_depths():
    tr = excursion_trace(SQRT2, 40)
    depths = tr.depths()
    assert len(depths) == 40
    # constant-digit ray: every depth is log sqrt(2), well below 2
    for d in depths:
        assert abs(d - LOG2) < 1.5
        assert d < 2.0
    assert max(depths) - min(depths) < 1e-9


def test_entry_times_strictly_increase():
    tr = excursion_trace(SQRT2, 60)
    entries = tr.entry_dists()
    times = tr.times()
    assert all(b > a for a, b in zip(entries, entries[1:]))
    assert all(b > a for a, b in zip(times, times[1:]))


def test_depth_spike_at_large_digit():
    cf = ContinuedFraction.from_periodic((1, 1, 100), (1,))
    tr = excursion_trace(cf, 12)
    spikes = [r for r in tr.records if r.entered and r.depth > math.log(50)]
    assert len(spikes) == 1
    # digit a_3 = 100 governs the excursion at convergent n = 2
    assert spikes[0].index == 2
    assert abs(spikes[0].depth - math.log(100)) < 2.0


def test_trace_against_float_geometry():
    # dual route: while the convergent denominators stay small the naive
    # floating geometry is still accurate (its error grows like ulp * q^2 *
    # digit, so q <= 2e4 keeps it near 1e-6) and the normalized big-integer
    # route must agree with it
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(10):
        digits = rng.integers(1, 7, size=16).tolist()
        tr = excursion_trace(ContinuedFraction(digits), 8)
        ray = cl.Geodesic(-1.0 / tr.xi, tr.xi)
        for rec in tr.entered():
            if rec.q > 20_000:
                continue
            ball = cl.ford_circle(rec.p, rec.q)
            assert rec.depth == pytest.approx(cl.penetration_depth(ball, ray), abs=2e-6)
            entry, exit_ = cl.entry_exit_points(ball, ray)
            assert rec.entry_dist == pytest.approx(
                cl.hyp_distance(cl.BASE_POINT, entry), abs=2e-6)
            assert rec.exit_dist == pytest.approx(
                cl.hyp_distance(cl.BASE_POINT, exit_), abs=2e-6)
            checked += 1
    assert checked > 30


def test_trace_chord_identity():
    tr = excursion_trace(ContinuedFraction([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9]), 8)
    for rec in tr.entered():
        chord = rec.exit_dist - rec.entry_dist
        assert chord == pytest.approx(cl.chord_length(rec.depth), abs=1e-9)
        assert 0 < chord - 2 * rec.depth < 2 * LOG2 + 1e-12


def test_skipped_balls_on_digit_one_runs():
    # a digit 1 sandwiched between large digits makes the ray miss the
    # corresponding convergent's ball; the trace records it as skipped
    cf = ContinuedFraction.from_periodic((), (50, 1, 50, 1))
    tr = excursion_trace(cf, 20)
    skipped = [r for r in tr.records if not r.entered]
    assert skipped, "expected skipped balls for the 50,1,50,1 pattern"
    for r in skipped:
        assert r.depth <= 0
        assert r.digit == 1


def test_gaps_nonnegative_and_bounded():
    rng = np.random.default_rng(22)
    traces = sample_digit_traces(30, 30, rng)
    for tr in traces:
        for g in tr.gaps():
            assert g > -1e-9
    kappa = gap_bound_estimate(traces)
    assert 0 < kappa < 6.0
    # a single trace reports its own maximal gap
    assert gap_bound_estimate([traces[0]]) == max(traces[0].gaps())


def test_gap_bound_does_not_grow_with_digits():
    rng = np.random.default_rng(23)
    small = gap_bound_estimate(sample_digit_traces(25, 30, rng, lo=1, hi=5))
    big = gap_bound_estimate(sample_digit_traces(25, 30, rng, lo=50, hi=500))
    print(f"\ngap bound: small digits {small:.4f}, large digits {big:.4f}")
    assert big <= small + 0.5


def test_digit_depth_link_constant():
    rng = np.random.default_rng(24)
    worst = 0.0
    for tr in sample_digit_traces(40, 40, rng, lo=1, hi=400):
        for rec in tr.records:
            worst = max(worst, abs(rec.depth - math.log(rec.digit)))
    print(f"\ndigit/depth constant over sample: {worst:.4f}")
    assert worst < 2.5


def test_time_sandwich():
    # 2 sum_{i<n} d_i <= entry_n <= 2 sum + n (kappa* + 2 log 2) + C'
    # the 2 log 2 term covers the chord excess over twice the depth
    rng = np.random.default_rng(25)
    traces = sample_digit_traces(20, 40, rng)
    kappa = gap_bound_estimate(traces)
    worst_c = -math.inf
    for tr in traces:
        recs = tr.entered()
        acc = 0.0
        for n, rec in enumerate(recs):
            if n >= 1:
                assert rec.entry_dist >= 2 * acc - 1e-9
                slack = rec.entry_dist - 2 * acc - n * (kappa + 2 * LOG2)
                worst_c = max(worst_c, slack)
            acc += rec.depth
    print(f"\ntime-sandwich offset constant C' = {worst_c:.4f}")
    assert worst_c < 5.0


def test_shadow_convergent_link():
    # |shadow of the ball at p_n/q_n from i| ~ 1/q_n^2, constants measured
    tr = excursion_trace(ContinuedFraction([2, 1, 3, 1, 2, 4, 2, 3, 1, 2, 5, 2]), 8)
    ratios = []
    for rec in tr.records:
        if rec.q > 3000:
            continue
        iv = cl.shadow(cl.ford_circle(rec.p, rec.q), cl.BASE_POINT)
        ratios.append(iv.length * rec.q * rec.q)
    print(f"\nshadow*q^2 over convergents: min={min(ratios):.4f} max={max(ratios):.4f}")
    assert 0.3 < min(ratios) and max(ratios) < 10.0


def test_insufficient_digits():
    with pytest.raises(InsufficientDigitsError):
        excursion_trace(ContinuedFraction([2, 3, 4]), 10)
    f = ContinuedFraction.from_float(0.37781, max_digits=64)
    with pytest.raises(InsufficientDigitsError):
        excursion_trace(f, 60)


# -- membership ----------------------------------------------------------------

def test_good_membership_deep_digits():
    cf = ContinuedFraction.from_periodic((), (10,))
    tr = excursion_trace(cf, 30)
    kappa = max(tr.gaps()) + 0.1
    verdict = good_membership(tr, 5.0, kappa)
    assert verdict.verdict and all(verdict.flags)


def test_good_membership_tau_too_large():
    tr = excursion_trace(SQRT2, 20)
    big_tau = math.exp(max(tr.depths())) * 2
    assert not good_membership(tr, big_tau, 10.0).verdict


def test_good_membership_kappa_zero():
    cf = ContinuedFraction.from_periodic((), (3,))
    tr = excursion_trace(cf, 20)
    assert not good_membership(tr, 1.0, 0.0).verdict


def good_membership_oracle(trace, tau, kappa):
    """The one-sided membership test written out on its own."""
    flags = []
    for rec in trace.entered():
        ok = rec.depth > math.log(tau)
        if rec.gap_to_next is not None:
            ok = ok and rec.gap_to_next < kappa
        flags.append(ok)
    return flags, all(flags)


def test_good_membership_is_one_sided_corridor():
    tr = excursion_trace(ContinuedFraction.from_periodic((1,), (3, 1, 7)), 40)
    gaps = sorted(tr.gaps())
    for tau in (0.5, 1.0, 2.0, 3.0, 5.0):
        for kappa in (0.0, gaps[len(gaps) // 2], gaps[-1] + 0.1, 1e9):
            got = good_membership(tr, tau, kappa)
            assert (got.flags, got.verdict) == good_membership_oracle(tr, tau, kappa)
    with pytest.raises(ValueError):
        good_membership(tr, math.inf, 1.0)


def test_corridor_membership_rejects_negative_kappa():
    tr = excursion_trace(SQRT2, 10)
    with pytest.raises(ValueError, match="kappa"):
        corridor_membership(tr, 1.0, 2.0, -0.5)


def test_corridor_membership():
    # constant digit 10 gives depths log((x + r)/2) = log(5.099...)
    cf = ContinuedFraction.from_periodic((), (10,))
    tr = excursion_trace(cf, 20)
    kappa = max(tr.gaps()) + 0.1
    assert corridor_membership(tr, 4.0, 50.0, kappa).verdict
    assert not corridor_membership(tr, 4.0, 5.0, kappa).verdict
    assert not corridor_membership(tr, 5.5, 50.0, kappa).verdict


# -- ratio estimators -----------------------------------------------------------

def test_jarnik_ratios_bounded_type():
    tr = excursion_trace(SQRT2, 300)
    jr = jarnik_ratios(tr)
    assert jr.theta_hat < 0.05
    assert jr.ratio_hat < 0.05


def test_jarnik_ratios_omega_half_sequence():
    # depths 2^n log 2 realize log s_n = 2^n log 2, the omega = 1/2 pattern:
    # d/t -> theta = 1/3 and d/(2 sum) -> theta/(1-theta) = 1/2
    depths = [(2.0 ** n) * LOG2 for n in range(1, 420)]
    jr = jarnik_ratios(synthesize_trace(depths, gap=0.3))
    assert jr.theta_hat == pytest.approx(1 / 3, abs=1e-3)
    assert jr.ratio_hat == pytest.approx(1 / 2, abs=1e-3)


def test_theta_ratio_round_trip():
    for theta in (0.0, 0.25, 1 / 3, 0.5, 0.9):
        assert ratio_to_theta(theta_to_ratio(theta)) == pytest.approx(theta, abs=1e-15)
    assert theta_to_ratio(0.5) == 1.0


def test_synthesize_trace_structure():
    tr = synthesize_trace([1.0, 2.0, 3.0], gap=0.5, initial=2.0)
    assert tr.entry_dists()[0] == 2.0
    assert all(b > a for a, b in zip(tr.times(), tr.times()[1:]))
    for g in tr.gaps():
        assert g == pytest.approx(0.5, abs=1e-12)
    assert tr.times() == [tr.entry_dists()[k] + tr.depths()[k] for k in range(3)]


def test_synthesize_trace_huge_depths():
    # depths near the float ceiling must survive the stable chord formula
    tr = synthesize_trace([1e300, 2e300], gap=1.0)
    assert tr.records[0].exit_dist == pytest.approx(2e300 + 2 * LOG2 + 1.0, rel=1e-12)
