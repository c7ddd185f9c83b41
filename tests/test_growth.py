import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cusplab.growth import GrowthSequence, seq_omega_rho


def test_log_geometric_closed_forms():
    seq = GrowthSequence.log_geometric(2.0, 40)
    assert seq.closed_form_omega == pytest.approx(0.5)
    assert seq.closed_form_rho == pytest.approx(1 / 3)
    # each generator states its closed forms; an explicit prefix has none
    for alpha in (1.5, 3.0):
        seq = GrowthSequence.log_geometric(alpha, 10, base=3.0)
        assert seq.closed_form_omega == (alpha - 1) / 2
        assert seq.closed_form_rho == pytest.approx(1 / (1 + alpha), abs=1e-15)
    for seq in (GrowthSequence.geometric(3, 10), GrowthSequence.polynomial(2.5, 10)):
        assert (seq.closed_form_omega, seq.closed_form_rho) == (0.0, 0.5)
    seq = GrowthSequence.explicit([2, 3, 5, 9])
    assert seq.closed_form_omega is None and seq.closed_form_rho is None


def test_log_geometric_prefix_estimates():
    # rho_hat_n = (a^{n+1} - a)/(a^{n+1}(1+a) - 2a) -> 1/(1+a), error ~ a^-n
    for alpha in (1.5, 2.0, 3.0):
        est = seq_omega_rho(GrowthSequence.log_geometric(alpha, 34))
        assert est.rho_hat[29] == pytest.approx(1 / (1 + alpha), abs=1e-3)
        assert est.omega_estimate == pytest.approx((alpha - 1) / 2, abs=5e-3)


def test_k_inflation_insensitive():
    for alpha in (1.5, 2.0, 3.0):
        seq = GrowthSequence.log_geometric(alpha, 34)
        plain = seq_omega_rho(seq)
        inflated = seq_omega_rho(seq, inflation_k=100.0)
        assert abs(plain.rho_hat[29] - inflated.rho_hat[29]) < 1e-3


def test_geometric_sequence():
    seq = GrowthSequence.geometric(2, 400)
    est = seq_omega_rho(seq)
    assert seq.closed_form_rho == pytest.approx(0.5)
    # rho_hat_n = n/(2n + 2) climbs to 1/2 like 1/n
    assert est.rho_hat[-1] == pytest.approx(0.5, abs=5e-3)
    assert est.omega_estimate < 0.01


def test_polynomial_sequence():
    seq = GrowthSequence.polynomial(2, 600)
    est = seq_omega_rho(seq)
    assert seq.closed_form_rho == pytest.approx(0.5)
    assert est.rho_estimate == pytest.approx(0.5, abs=5e-3)


def test_rho_hat_definition_spot_check():
    # explicit oracle at n = 2 for s = (2, 4, 8, 16, ...):
    # L_2 = log(2*4) = log 8, denominator = 2 log 8 + log s_3 = 3 log 8
    seq = GrowthSequence.geometric(2, 10)
    est = seq_omega_rho(seq)
    expected = math.log(8) / (2 * math.log(8) + math.log(8))
    assert est.rho_hat[1] == pytest.approx(expected, abs=1e-14)
    # and the omega form at n = 2: log s_2 / (2 log s_1)
    assert est.omega_hat[0] == pytest.approx(math.log(4) / (2 * math.log(2)), abs=1e-14)


def test_explicit_growing_accepted():
    seq = GrowthSequence.explicit([2, 3, 5, 9, 17, 33, 65])
    est = seq_omega_rho(seq)
    assert len(est.rho_hat) == 6


def test_bounded_explicit_rejected():
    with pytest.raises(ValueError):
        GrowthSequence.explicit([2, 2, 2, 2, 2, 2])
    with pytest.raises(ValueError):
        GrowthSequence.explicit([5, 4, 3, 2, 2, 2])
    for values in ([0, 4, 8, 16], [-2, 4, 8]):
        with pytest.raises(ValueError, match="must be >= 1"):
            GrowthSequence.explicit(values)


def test_sequence_checked_when_built():
    # not nondecreasing: rejected by the constructor, before any estimate
    with pytest.raises(ValueError, match="does not look unbounded"):
        GrowthSequence((0.0, 1.0, 0.5))
    # a closed form does not exempt a sequence from the check
    with pytest.raises(ValueError, match="does not look unbounded"):
        GrowthSequence((1.0, 1.0, 1.0), closed_form_omega=0.0)


def test_generator_validation():
    with pytest.raises(ValueError):
        GrowthSequence.log_geometric(1.0, 10)
    with pytest.raises(ValueError):
        GrowthSequence.geometric(1, 10)
    with pytest.raises(ValueError):
        seq_omega_rho(GrowthSequence.geometric(2, 10), inflation_k=0.0)


def test_non_finite_parameters_rejected():
    for make in (lambda: GrowthSequence.log_geometric(math.nan, 10),
                 lambda: GrowthSequence.log_geometric(2.0, 10, base=math.inf),
                 lambda: GrowthSequence.log_geometric(1e11, 31),
                 lambda: GrowthSequence.polynomial(math.inf, 10),
                 lambda: GrowthSequence.explicit([1, 2, math.inf])):
        with pytest.raises(ValueError, match="non-finite"):
            make()
    for k in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            seq_omega_rho(GrowthSequence.geometric(2, 10), inflation_k=k)


def test_leading_unit_terms_give_nan_and_inf_without_warnings():
    # s = 1, 1, 1, 3, ...: omega_hat is 0/0 (nan) until the first term > 1,
    # then x/0 (inf); rho_hat is 0/0 until the product passes 1
    est = seq_omega_rho(GrowthSequence.explicit([1, 1, 1, 3, 9, 27]))
    assert np.isnan(est.omega_hat[:2]).all() and est.omega_hat[2] == math.inf
    assert np.isnan(est.rho_hat[:2]).all() and est.rho_hat[2] == 0.0
    assert np.isfinite(est.omega_hat[3:]).all() and np.isfinite(est.rho_hat[3:]).all()


# -- bit identity with the former numpy formulas -------------------------------

def numpy_omega_rho(seq, n_max, inflation_k):
    """seq_omega_rho's estimates as numpy computed them (cumsum, element-wise
    ratios, np.max/np.min over the tail halves)."""
    logs = np.asarray(seq.log_s, dtype=float)[:n_max]
    n = len(logs)
    log_k = math.log(inflation_k)

    def ratio(num, den):
        return np.divide(num, den, out=np.where(num > 0, np.inf, np.nan), where=den != 0)

    with np.errstate(all="ignore"):
        partial = np.cumsum(logs)
        omega_hat = ratio(logs[1:], 2.0 * partial[:-1])
        rho_hat = ratio(partial[:-1],
                        2.0 * (np.arange(1, n) * log_k + partial[:-1]) + logs[1:])
        omega_est = float(np.max(omega_hat[len(omega_hat) // 2:]))
        rho_est = float(np.min(rho_hat[len(rho_hat) // 2:]))
    return omega_hat.tolist(), rho_hat.tolist(), omega_est, rho_est


def bits(values):
    return [struct.pack("<d", v) for v in values]


def assert_matches_numpy(seq, n_max, inflation_k):
    est = seq_omega_rho(seq, n_max=n_max, inflation_k=inflation_k)
    omega_hat, rho_hat, omega_est, rho_est = numpy_omega_rho(seq, n_max, inflation_k)
    assert isinstance(est.omega_hat, tuple) and isinstance(est.rho_hat, tuple)
    assert bits(est.omega_hat) == bits(omega_hat)
    assert bits(est.rho_hat) == bits(rho_hat)
    # Where np.max/np.min pick among equal values, their choice follows the
    # SIMD reduction order: the sign of a nan result, and of a zero result
    # from a tail holding both 0.0 and -0.0.  Only the value is compared then.
    assert math.isnan(est.omega_estimate) == math.isnan(omega_est)
    if not math.isnan(omega_est):
        assert bits([est.omega_estimate]) == bits([omega_est])
    zero_signs = {math.copysign(1.0, v) for v in rho_hat[len(rho_hat) // 2:] if v == 0.0}
    assert math.isnan(est.rho_estimate) == math.isnan(rho_est)
    if rho_est == 0.0 and len(zero_signs) == 2:
        assert est.rho_estimate == 0.0
    elif not math.isnan(rho_est):
        assert bits([est.rho_estimate]) == bits([rho_est])


_INFLATION = st.one_of(st.just(1.0), st.floats(1e-3, 1e3))


@settings(max_examples=300, deadline=None)
@given(ones=st.integers(0, 12),
       rest=st.lists(st.floats(1.0, 1e6), min_size=2, max_size=30),
       n_max=st.integers(3, 45), inflation_k=_INFLATION)
def test_explicit_with_leading_ones_matches_numpy(ones, rest, n_max, inflation_k):
    values = [1.0] * ones + sorted(rest) + [2.0 * max(rest) + 1.0]
    assert_matches_numpy(GrowthSequence.explicit(values), n_max, inflation_k)


_GENERATED = st.one_of(
    st.builds(GrowthSequence.log_geometric, st.floats(1.01, 4.0), st.integers(3, 60),
              base=st.floats(1.01, 1e3)),
    st.builds(GrowthSequence.geometric, st.integers(2, 10 ** 6), st.integers(3, 400)),
    st.builds(GrowthSequence.polynomial, st.floats(1.0, 50.0), st.integers(3, 400)),
)


@settings(max_examples=300, deadline=None)
@given(seq=_GENERATED, n_max=st.one_of(st.none(), st.integers(3, 400)),
       inflation_k=st.floats(1e-3, 1e3).filter(lambda k: k != 1.0))
def test_generated_sequences_match_numpy(seq, n_max, inflation_k):
    assert_matches_numpy(seq, n_max, inflation_k)


def test_overflowing_partial_products_match_numpy():
    # log(s_1 ... s_n) overflows to inf, so the last rho_hat are inf/inf = nan
    # behind finite ones in the tail: the tail infimum must still be nan
    seq = GrowthSequence(tuple(map(float, range(1, 16))) + tuple(k * 1e307 for k in range(10, 15)))
    est = seq_omega_rho(seq)
    tail = est.rho_hat[len(est.rho_hat) // 2:]
    assert math.isfinite(tail[0]) and math.isnan(tail[-1]) and math.isnan(est.rho_estimate)
    assert_matches_numpy(seq, None, 1.0)
    assert_matches_numpy(seq, None, 0.5)
