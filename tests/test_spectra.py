import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cusplab.dimension import jarnik_dimension
from cusplab.excursions import jarnik_ratios, synthesize_trace
from cusplab.spectra import (
    DegenerateSpectrumError,
    MeasureProbe,
    fp,
    global_measure_log,
    local_dim_sequence,
    spectrum_table,
    stratmann_spectrum,
    strict_spectrum,
    theta_to_beta,
)
from test_acceptance import _spike_depths

DELTAS = st.floats(min_value=0.55, max_value=0.95)


def test_measure_log_lattice_case():
    # delta = 1 kills the correction for any probe
    for excursion in (0.0, 3.0, 17.0):
        probe = MeasureProbe(5.0, excursion, 1.0)
        assert global_measure_log(probe, 1.0) == pytest.approx(-5.0)


def test_measure_log_outside_horoballs():
    # with k = delta the excursion correction must drop out entirely
    for excursion in (0.0, 1.0, 7.0, 123.0):
        probe = MeasureProbe(12.0, excursion, 0.8)
        assert global_measure_log(probe, 0.8) == pytest.approx(-12.0 * 0.8)


def test_measure_log_arithmetic():
    probe = MeasureProbe(10.0, 4.0, 1.0)
    assert global_measure_log(probe, 0.75) == pytest.approx(-6.5)


def test_measure_probe_validation():
    with pytest.raises(ValueError):
        MeasureProbe(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        MeasureProbe(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        global_measure_log(MeasureProbe(1.0, 1.0, 0.9), 0.75)


def test_theta_beta_endpoints():
    assert theta_to_beta(0.0, 0.75) == 0.75
    assert theta_to_beta(1.0, 0.75) == pytest.approx(0.5)


def test_fp_endpoints_and_midpoint():
    assert fp(2 * 0.75 - 1, 0.75) == 0.0
    assert fp(0.75, 0.75) == pytest.approx(1.0, abs=1e-15)
    assert fp(0.625, 0.75) == pytest.approx(0.5)


def test_fp_range_errors():
    with pytest.raises(ValueError):
        fp(0.3, 0.75)
    with pytest.raises(DegenerateSpectrumError):
        fp(0.9, 1.0)


def test_strict_spectrum_values():
    assert strict_spectrum(0.75, 0.75) == pytest.approx(0.5, abs=1e-15)
    assert strict_spectrum(0.5, 0.75) == 0.0
    assert strict_spectrum(0.625, 0.75) == pytest.approx(0.25)
    assert strict_spectrum(0.625, 0.75) == jarnik_dimension(0.5)


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), DELTAS)
def test_cross_module_identity(theta, delta):
    lhs = strict_spectrum(theta_to_beta(theta, delta), delta)
    assert abs(lhs - jarnik_dimension(theta)) <= 1e-14


def test_stratmann_pieces():
    delta = 0.75
    assert stratmann_spectrum(0.2, delta) == 0.0
    assert stratmann_spectrum(0.5 + 1e-9, delta) == pytest.approx(0.0, abs=1e-6)
    assert stratmann_spectrum(0.625, delta) == pytest.approx(delta * 0.5)
    assert stratmann_spectrum(0.9, delta) == delta
    assert stratmann_spectrum(2.0, delta) == delta


def test_stratmann_dominates_strict():
    for delta in (0.6, 0.75, 0.9):
        for beta, s, t in spectrum_table(delta, 101):
            assert t >= s - 1e-14


def test_spectrum_table_endpoints_and_affinity():
    delta = 0.8
    rows = spectrum_table(delta, 41)
    assert rows[0][0] == pytest.approx(2 * delta - 1)
    assert rows[0][1] == 0.0 and rows[0][2] == 0.0
    assert rows[-1][1] == pytest.approx(0.5, abs=1e-14)
    assert rows[-1][2] == pytest.approx(delta, abs=1e-14)
    strict = np.array([r[1] for r in rows])
    strat = np.array([r[2] for r in rows])
    assert np.max(np.abs(np.diff(strict, 2))) < 1e-12
    assert np.max(np.abs(np.diff(strat, 2))) < 1e-12


@pytest.mark.parametrize("delta", [0.551, 0.5617, 0.644, 0.6783, 0.8])
def test_spectrum_table_ends_exactly_at_delta(delta):
    # for all but 0.8 the interpolated last point lo + (delta - lo) * 200/200
    # rounds one ulp above delta, outside the domain the spectra accept
    rows = spectrum_table(delta, 201)
    assert rows[-1][0] == delta
    assert rows[-1][1] == pytest.approx(0.5, abs=1e-14)
    assert rows[-1][2] == pytest.approx(delta, abs=1e-14)


def test_spectrum_monotone():
    for delta in (0.6, 0.85):
        rows = spectrum_table(delta, 64)
        for (b0, s0, t0), (b1, s1, t1) in zip(rows, rows[1:]):
            assert s1 >= s0 and t1 >= t0


def test_degenerate_delta():
    with pytest.raises(DegenerateSpectrumError):
        spectrum_table(1.0, 10)
    with pytest.raises(DegenerateSpectrumError):
        strict_spectrum(1.0, 1.0)
    with pytest.raises(ValueError):
        spectrum_table(0.4, 10)


def test_local_dim_endpoint_theta_zero():
    # slowly growing depths: d/t -> 0 and beta_n -> delta
    depths = [math.log(n + 2) for n in range(400)]
    tr = synthesize_trace(depths, gap=0.3)
    est = local_dim_sequence(tr, 0.7)
    assert est.tail_liminf == pytest.approx(0.7, abs=0.01)


def test_local_dim_known_growth():
    # log-geometric alpha = 2 gives theta = 1/3; beta -> delta - (1-delta)/3
    depths = [(2.0 ** n) * math.log(2) for n in range(1, 600)]
    tr = synthesize_trace(depths, gap=0.3)
    for delta in (0.6, 0.75, 0.9):
        est = local_dim_sequence(tr, delta)
        assert est.tail_liminf == pytest.approx(delta - (1 - delta) / 3, abs=0.01)
        lo, hi = 2 * delta - 1, delta
        assert all(lo - 1e-12 <= b <= hi + 1e-12 for b in est.beta_seq)


def test_local_dim_half_ratio():
    # d/t -> 1/2 needs depth ratio 3 per step (t_n ~ 2 sum + d_n); at delta =
    # 3/4 the local dimensions converge to 3/4 - 1/8 = 5/8.  Horizon stays
    # below the float ceiling for 3^n growth.
    depths = [(3.0 ** n) * math.log(2) for n in range(1, 600)]
    tr = synthesize_trace(depths, gap=0.3)
    est = local_dim_sequence(tr, 0.75)
    assert est.tail_liminf == pytest.approx(5 / 8, abs=0.01)


def test_local_dim_oscillating_ratio():
    # criterion-7 spike trace: d/t reaches 1/2 on a sparse subsequence and is
    # negligible elsewhere, so beta_n oscillates between delta and 5/8.  The
    # level indexed by theta = limsup d/t = 1/2 is the tail infimum 5/8, not
    # the tail maximum delta.
    spike = synthesize_trace(_spike_depths(1000, ratio=1.0), gap=0.3)
    est = local_dim_sequence(spike, 0.75)
    assert est.tail_liminf == pytest.approx(0.625, abs=0.01)
    # the identity is exact for every delta, not only where 1 - delta is a
    # power of two, on this file's traces
    traces = {
        "log": synthesize_trace([math.log(n + 2) for n in range(400)], gap=0.3),
        "2^n": synthesize_trace([(2.0 ** n) * math.log(2) for n in range(1, 600)], gap=0.3),
        "3^n": synthesize_trace([(3.0 ** n) * math.log(2) for n in range(1, 600)], gap=0.3),
        "spike": spike,
    }
    for name, tr in traces.items():
        theta_hat = jarnik_ratios(tr).theta_hat
        for delta in (0.55, 0.6, 0.75, 0.9):
            assert (local_dim_sequence(tr, delta).tail_liminf
                    == theta_to_beta(theta_hat, delta)), (name, delta)


def test_local_dim_liminf_is_the_tail_minimum_of_its_sequence():
    # the liminf is computed from theta_hat; it must be what the tail
    # infimum of the returned beta_n reads
    for depths in ([math.log(n + 2) for n in range(400)],
                   [(2.0 ** n) * math.log(2) for n in range(1, 600)],
                   _spike_depths(1000, ratio=1.0)):
        tr = synthesize_trace(depths, gap=0.3)
        for delta in (0.55, 0.6, 0.75, 0.9):
            est = local_dim_sequence(tr, delta)
            assert est.beta_seq == [theta_to_beta(t, delta)
                                    for t in jarnik_ratios(tr).theta_seq]
            assert est.tail_liminf == min(est.beta_seq[len(est.beta_seq) // 2:])


def test_local_dim_degenerate():
    depths = [1.0, 2.0, 3.0]
    with pytest.raises(DegenerateSpectrumError):
        local_dim_sequence(synthesize_trace(depths), 1.0)
