import math

import numpy as np
import pytest

from cusplab.growth import GrowthSequence, seq_omega_rho


def test_log_geometric_closed_forms():
    seq = GrowthSequence.log_geometric(2.0, 40)
    assert seq.closed_form_omega == pytest.approx(0.5)
    assert seq.closed_form_rho == pytest.approx(1 / 3)


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
    est = seq_omega_rho(GrowthSequence.geometric(2, 400))
    assert est.closed_form_rho == pytest.approx(0.5)
    # rho_hat_n = n/(2n + 2) climbs to 1/2 like 1/n
    assert est.rho_hat[-1] == pytest.approx(0.5, abs=5e-3)
    assert est.omega_estimate < 0.01


def test_polynomial_sequence():
    est = seq_omega_rho(GrowthSequence.polynomial(2, 600))
    assert est.closed_form_rho == pytest.approx(0.5)
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
