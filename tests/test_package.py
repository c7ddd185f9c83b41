"""The package namespace: its public names are exactly the listed exports,
each resolves to its submodule's object, and the numpy-backed ones load only
when first used."""

import importlib
import inspect
import subprocess
import sys

import pytest

import cusplab

EXPORTS = {
    "halfplane": [
        "BASE_POINT", "INFINITY", "Geodesic", "Horoball", "HPoint", "Interval",
        "MoebiusMap", "chord_length", "cross_ratio", "distance_via_crossratio",
        "entry_exit_points", "geodesic_through", "hyp_distance", "mobius_apply",
        "mobius_apply_geodesic", "mobius_apply_horoball", "penetration_depth",
        "petal_span", "shadow",
    ],
    "contfrac": ["ContinuedFraction", "Convergent", "convergents", "ford_circle"],
    "excursions": [
        "ExcursionRecord", "ExcursionTrace", "excursion_trace", "gap_bound_estimate",
        "good_membership", "jarnik_ratios", "synthesize_trace",
    ],
    "growth": ["GrowthSequence", "seq_omega_rho"],
    "dimension": [
        "DigitAlphabet", "crude_critical_exponent", "good_dimension_sweep",
        "jarnik_dimension", "transfer_dimension", "ulam_dimension",
    ],
    "frostman": ["CylinderMeasure", "ball_mass", "cdf", "frostman_sampler",
                 "good_measure", "good_weight_range"],
    "spectra": [
        "DegenerateSpectrumError", "MeasureProbe", "fp",
        "global_measure_log", "local_dim_sequence", "spectrum_table",
        "stratmann_spectrum", "strict_spectrum", "theta_to_beta",
    ],
    "numerics": ["InsufficientDigitsError", "NumericError"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items()
                                          for n in names])
def test_export_is_the_submodule_object(module, name):
    sub = importlib.import_module(f"cusplab.{module}")
    assert getattr(cusplab, name) is getattr(sub, name)
    assert name in dir(cusplab)


def test_public_names_are_exactly_the_exports():
    # a removed function must not leave a stale import or lazy entry behind
    public = {n for n in dir(cusplab)
              if not n.startswith("_") and not inspect.ismodule(getattr(cusplab, n))}
    assert public == {n for names in EXPORTS.values() for n in names}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cusplab.no_such_name


def test_from_import_of_lazy_names_in_fresh_interpreter():
    probe = ("import sys\n"
             "from cusplab import transfer_dimension, frostman_sampler\n"
             "import cusplab.dimension, cusplab.frostman\n"
             "assert transfer_dimension is cusplab.dimension.transfer_dimension\n"
             "assert frostman_sampler is cusplab.frostman.frostman_sampler\n"
             "print('ok')")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]
