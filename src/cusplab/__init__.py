"""cusplab: cusp-excursion geometry on the modular surface, restricted
continued fractions, and Hausdorff-dimension estimation."""

import importlib

from .halfplane import (
    BASE_POINT,
    INFINITY,
    Geodesic,
    Horoball,
    HPoint,
    Interval,
    MoebiusMap,
    chord_length,
    cross_ratio,
    distance_via_crossratio,
    entry_exit_points,
    geodesic_through,
    hyp_distance,
    mobius_apply,
    mobius_apply_geodesic,
    mobius_apply_horoball,
    penetration_depth,
    petal_span,
    shadow,
)
from .contfrac import ContinuedFraction, Convergent, convergents, ford_circle
from .excursions import (
    ExcursionRecord,
    ExcursionTrace,
    excursion_trace,
    gap_bound_estimate,
    good_membership,
    jarnik_ratios,
    synthesize_trace,
)
from .growth import GrowthSequence, seq_omega_rho
from .spectra import (
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
from .numerics import InsufficientDigitsError, NumericError

__version__ = "0.1.0"

# The numpy-backed modules load on first use of one of their names, so that
# the stdlib-only subcommands start without numpy.
_LAZY = {
    "DigitAlphabet": "dimension",
    "crude_critical_exponent": "dimension",
    "good_dimension_sweep": "dimension",
    "jarnik_dimension": "dimension",
    "transfer_dimension": "dimension",
    "ulam_dimension": "dimension",
    "CylinderMeasure": "frostman",
    "ball_mass": "frostman",
    "cdf": "frostman",
    "frostman_sampler": "frostman",
    "good_measure": "frostman",
    "good_weight_range": "frostman",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
