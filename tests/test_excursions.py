import dataclasses
import math
import pickle
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

import cusplab as cl
from cusplab.contfrac import ContinuedFraction, convergents
from cusplab.excursions import (
    ExcursionRecord,
    excursion_trace,
    gap_bound_estimate,
    good_membership,
    jarnik_ratios,
    synthesize_trace,
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


def test_good_membership_rejects_nan_and_negative_kappa():
    tr = excursion_trace(SQRT2, 10)
    for kappa in (math.nan, -0.5):
        with pytest.raises(ValueError, match="kappa"):
            good_membership(tr, 1.0, kappa)
    # an infinite kappa puts no bound on the gaps
    assert good_membership(tr, 1.0, math.inf).flags == good_membership(tr, 1.0, 1e300).flags


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


def test_synthesize_trace_structure():
    tr = synthesize_trace([1.0, 2.0, 3.0], gap=0.5, initial=2.0)
    assert tr.entry_dists()[0] == 2.0
    assert all(b > a for a, b in zip(tr.times(), tr.times()[1:]))
    for g in tr.gaps():
        assert g == pytest.approx(0.5, abs=1e-12)
    assert tr.times() == [tr.entry_dists()[k] + tr.depths()[k] for k in range(3)]


def test_records_are_slotted_and_replaceable():
    # records carry no per-instance __dict__, and replace, == and pickling
    # work on records and on whole traces
    for tr in (excursion_trace(ContinuedFraction([50, 1, 50, 1] * 8), 20),
               synthesize_trace([1.0, 2.0, 3.0], gap=0.5)):
        rec = tr.records[0]
        assert isinstance(rec, ExcursionRecord)
        assert not hasattr(rec, "__dict__")
        moved = dataclasses.replace(rec, depth=rec.depth + 1.0)
        assert moved.depth == rec.depth + 1.0 and moved.index == rec.index
        assert moved != rec and dataclasses.replace(rec) == rec
        short = dataclasses.replace(tr, records=tr.records[:2])
        assert short.records == tr.records[:2] and short.horizon == tr.horizon
        assert pickle.loads(pickle.dumps(tr)) == tr


def test_synthesize_trace_huge_depths():
    # depths near the float ceiling must survive the stable chord formula
    tr = synthesize_trace([1e300, 2e300], gap=1.0)
    assert tr.records[0].exit_dist == pytest.approx(2e300 + 2 * LOG2 + 1.0, rel=1e-12)


# -- big-integer oracle -------------------------------------------------------

def big_int_trace_oracle(cf, horizon):
    """The trace as computed before the float ratio recurrences: the ratios
    p_n/q_n, p_{n-1}/q_{n-1} and q_{n-1}/q_n by big-integer division and
    log Y_n = -log(q_n^2 + p_n^2) at every step, and gaps filled in a second
    pass.  Its float crossings and distances overflow once the complete
    quotient passes about 1e154 (an infinite exit distance and an entry point
    at 0), so there they are evaluated in 40-digit decimal arithmetic.

    Returns (index, p, q, digit, depth, entered, entry_dist, exit_dist,
    time, gap_to_next) tuples."""
    n_digits = int(min(cf.available(), cf.reliable_digits(), horizon + 44))
    ds = cf.digits(n_digits)
    quot = [0.0] * n_digits
    v = float(ds[-1])
    quot[-1] = v
    for j in range(n_digits - 2, -1, -1):
        v = ds[j] + 1.0 / v
        quot[j] = v
    xi = 1.0 / quot[0]

    rows = []
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    for n in range(1, horizon + 1):
        a = ds[n - 1]
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        cn = p_cur / q_cur
        cnm = p_prev / q_prev
        r = q_prev / q_cur
        A = -r * (1.0 + xi * cnm) / (1.0 + xi * cn)
        B = quot[n]
        R = 0.5 * (B - A)
        depth = math.log(R)
        if R <= 1.0:
            rows.append([n, p_cur, q_cur, ds[n], depth, False, None, None, None, None])
            continue
        X = -r * (1.0 + cn * cnm) / (1.0 + cn * cn)
        log_y = -math.log(q_cur * q_cur + p_cur * p_cur)
        m = 0.5 * (A + B)
        s = math.sqrt((R - 1.0) * (R + 1.0))
        entry_x = (A * B + 1.0) / (m + s)
        exit_x = m + s
        entry_dist = _oracle_dist(X, log_y, entry_x)
        exit_dist = _oracle_dist(X, log_y, exit_x)
        if not (math.isfinite(s) and math.isfinite(exit_dist)):
            entry_dist, exit_dist = _decimal_dists(A, B, X, log_y)
        rows.append([n, p_cur, q_cur, ds[n], depth, True, entry_dist, exit_dist,
                     entry_dist + depth, None])
    prev = None
    for row in rows:
        if row[5]:
            if prev is not None:
                prev[9] = row[6] - prev[7]
            prev = row
    return [tuple(row) for row in rows]


def _oracle_dist(x_src, log_y_src, x_dst):
    dx = x_src - x_dst
    if log_y_src > -600.0:
        y = math.exp(log_y_src)
        return math.acosh(1.0 + (dx * dx + (1.0 - y) ** 2) / (2.0 * y))
    return math.log(dx * dx + 1.0) - log_y_src


def _decimal_dists(A, B, X, log_y):
    with localcontext() as ctx:
        ctx.prec = 40
        A, B, X = Decimal(A), Decimal(B), Decimal(X)
        y = Decimal(log_y).exp()
        R = (B - A) / 2
        s = ((R - 1) * (R + 1)).sqrt()
        exit_x = (A + B) / 2 + s

        def dist(x):
            c = 1 + ((X - x) ** 2 + (1 - y) ** 2) / (2 * y)
            return float((c + (c * c - 1).sqrt()).ln())

        return dist((A * B + 1) / exit_x), dist(exit_x)


def _oracle_streams(count, seed):
    """(digits, horizon) for ``count`` streams cycling through three families:
    digits 1-9, heavy-tailed floor(1/U), and digits 1-3 with a term of 1 to
    1000 random bits (log-uniform, so that q_n stays small enough for the
    oracle) spliced in every 3-8 digits."""
    rng = np.random.default_rng(seed)
    bits = random.Random(seed)
    for k in range(count):
        horizon = int(rng.integers(1, 301))
        size = horizon + 44
        if k % 3 == 0:
            digits = rng.integers(1, 10, size=size).tolist()
        elif k % 3 == 1:
            digits = np.floor(1.0 / (1.0 - rng.random(size))).astype(np.int64).tolist()
        else:
            digits = rng.integers(1, 4, size=size).tolist()
            pos = int(rng.integers(0, 8))
            while pos < size:
                b = round(1000.0 ** bits.random())
                digits[pos] = bits.getrandbits(b) | (1 << (b - 1))
                pos += int(rng.integers(3, 9))
        yield digits, horizon


def assert_matches_oracle(cf, horizon):
    got = excursion_trace(cf, horizon).records
    want = big_int_trace_oracle(cf, horizon)
    convs = convergents(cf, horizon)
    assert len(got) == len(want) == horizon
    for rec, row, conv in zip(got, want, convs):
        index, p, q, digit, depth, entered, entry, exit_, time, gap = row
        assert (rec.index, rec.p, rec.q, rec.digit, rec.entered) == (
            index, p, q, digit, entered)
        assert (rec.p, rec.q) == (conv.p, conv.q)
        assert abs(rec.depth - depth) <= 1e-12 * max(1.0, abs(depth))
        if not entered:
            assert rec.entry_dist is rec.exit_dist is rec.time is None
            continue
        for x, y in ((rec.entry_dist, entry), (rec.exit_dist, exit_), (rec.time, time)):
            assert math.isfinite(x) and abs(x - y) <= 1e-12 * max(1.0, abs(y))
        if gap is None:
            assert rec.gap_to_next is None
        else:
            assert abs(rec.gap_to_next - gap) <= 1e-12 * max(1.0, exit_)


def test_trace_matches_big_int_oracle():
    for digits, horizon in _oracle_streams(1000, 31):
        assert_matches_oracle(ContinuedFraction(digits), horizon)


def test_trace_matches_big_int_oracle_long_quadratic():
    # sqrt(123457) - 351 has a period of several hundred digits
    cf = ContinuedFraction.from_quadratic(123457, -351, 1)
    assert len(cf.period) > 100
    assert_matches_oracle(cf, 3000)


def test_oracle_streams_reach_huge_quotients():
    # the spliced family exercises both the decimal branch of the oracle and
    # the log branch of the trace (complete quotients beyond 2^500)
    huge = [max(digits[1:horizon + 1]) for k, (digits, horizon)
            in enumerate(_oracle_streams(60, 31)) if k % 3 == 2]
    assert max(huge) > 2 ** 900 and min(huge) < 2 ** 500


def synthesize_oracle(depths, gaps, initial):
    """(entry_dist, exit_dist, time, gap_to_next) rows of synthesize_trace as
    earlier versions built them."""
    rows, pos = [], float(initial)
    for d, g in zip(depths, gaps):
        chord = cl.chord_length(d)
        rows.append([pos, pos + chord, pos + d, None])
        pos += chord + g
    for row, nxt in zip(rows, rows[1:]):
        row[3] = nxt[0] - row[1]
    return [tuple(row) for row in rows]


def test_synthesize_trace_gaps_bit_identical():
    rng = np.random.default_rng(32)
    depths = rng.exponential(3.0, size=200).tolist()
    gaps = rng.uniform(0.0, 2.0, size=200).tolist()
    tr = synthesize_trace(depths, gap=gaps, initial=0.7)
    got = [(r.entry_dist, r.exit_dist, r.time, r.gap_to_next) for r in tr.records]
    assert got == synthesize_oracle(depths, gaps, 0.7)
    assert [r.index for r in tr.records] == list(range(1, 201))


# -- digits beyond float range -------------------------------------------------

@pytest.mark.parametrize("digits", [
    [1, 2, 10 ** 400, 3] + [2, 1, 5] * 20,
    [10 ** 400, 1, 2] + [2, 1, 5] * 20,
    [3, 10 ** 400, 2 ** 1100, 7] + [2, 1, 5] * 20,
])
def test_digit_beyond_float_range(digits):
    tr = excursion_trace(ContinuedFraction(digits), 40)
    for rec in tr.records:
        assert abs(rec.depth - math.log(rec.digit)) < 2.5   # criterion 3
    times = tr.times()
    assert all(b > a for a, b in zip(times, times[1:]))
    entries = tr.entry_dists()
    assert all(b > a for a, b in zip(entries, entries[1:]))
    assert all(math.isfinite(x) for r in tr.entered() for x in (r.exit_dist, r.time))
    assert all(-1e-9 < g < 6.0 for g in tr.gaps())
    assert tr.xi == ContinuedFraction(digits).value()

