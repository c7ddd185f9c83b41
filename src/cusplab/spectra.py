"""Closed-form local-dimension spectra for conformal boundary measures.

The group's exponent of convergence delta is a user-supplied parameter in
(1/2, 1); this package does not construct the measure itself.  At delta = 1
the spectrum interval [2 delta - 1, delta] collapses to a point and every
spectrum function raises ``DegenerateSpectrumError`` (the measure formula
evaluator still accepts delta = 1, where the excursion correction vanishes).
"""

from __future__ import annotations

from dataclasses import dataclass

from .excursions import jarnik_ratios


class DegenerateSpectrumError(ValueError):
    """delta = 1 collapses the spectrum interval to a point."""


def _check_delta(delta, allow_one=False):
    if allow_one:
        if not 0.5 < delta <= 1.0:
            raise ValueError(f"delta must lie in (1/2, 1], got {delta}")
    else:
        if delta == 1.0:
            raise DegenerateSpectrumError(
                "delta = 1 is degenerate: the spectrum interval [2d-1, d] is a point"
            )
        if not 0.5 < delta < 1.0:
            raise ValueError(f"delta must lie in (1/2, 1), got {delta}")


@dataclass(frozen=True)
class MeasureProbe:
    """Inputs of the global measure formula at time t along a ray: the
    current excursion penetration ``excursion`` (0 outside every standard
    horoball) and the indicator ``k`` (1 inside a standard horoball, delta
    outside)."""

    t: float
    excursion: float
    k: float

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("probe time must be positive")
        if self.excursion < 0:
            raise ValueError("excursion depth must be >= 0")


def global_measure_log(probe: MeasureProbe, delta) -> float:
    """log of the ball measure at scale e^{-t}, up to the (unmodeled)
    comparability constant: -t*delta - (delta - k)*excursion."""
    _check_delta(delta, allow_one=True)
    if not (probe.k == 1.0 or probe.k == delta):
        raise ValueError(f"indicator k must be 1 or delta, got {probe.k}")
    return -probe.t * delta - (delta - probe.k) * probe.excursion


def theta_to_beta(theta, delta) -> float:
    """Affine bridge theta -> beta = delta - (1 - delta) theta."""
    _check_delta(delta)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    return delta - (1.0 - delta) * theta


def fp(beta, delta) -> float:
    """Normalized position of beta inside [2 delta - 1, delta]: affine with
    fp(2 delta - 1) = 0 and fp(delta) = 1."""
    _check_delta(delta)
    lo = 2.0 * delta - 1.0
    if not lo <= beta <= delta:
        raise ValueError(f"beta must lie in [{lo}, {delta}], got {beta}")
    return (beta - lo) / (1.0 - delta)


def strict_spectrum(beta, delta) -> float:
    """Dimension of the strict level set at beta: fp(beta, delta) / 2.

    Exactly consistent with the ratio sets: strict_spectrum(theta_to_beta(t))
    equals jarnik_dimension(t) = (1 - t)/2.
    """
    return 0.5 * fp(beta, delta)


def stratmann_spectrum(beta, delta) -> float:
    """The comparison spectrum of the lower-limit level sets: 0 left of
    2 delta - 1, then delta * fp, then the plateau delta past beta = delta."""
    _check_delta(delta)
    if beta <= 0:
        raise ValueError("beta must be positive")
    lo = 2.0 * delta - 1.0
    if beta <= lo:
        return 0.0
    if beta <= delta:
        return delta * fp(beta, delta)
    return delta


def spectrum_table(delta, grid):
    """Rows (beta, strict, stratmann) on a uniform beta grid over
    [2 delta - 1, delta], where both curves are defined."""
    _check_delta(delta)
    if grid < 2:
        raise ValueError("grid resolution must be >= 2")
    lo = 2.0 * delta - 1.0
    rows = []
    for j in range(grid):
        # the last point is delta itself: the interpolation formula can round
        # one ulp above delta, outside the spectra's domain
        beta = delta if j == grid - 1 else lo + (delta - lo) * j / (grid - 1)
        rows.append((beta, strict_spectrum(beta, delta), stratmann_spectrum(beta, delta)))
    return rows


@dataclass(frozen=True)
class LocalDimensionEstimate:
    beta_seq: list
    tail_liminf: float


def local_dim_sequence(trace, delta) -> LocalDimensionEstimate:
    """Per-excursion local dimensions beta_n = delta - (1 - delta) d_n / t_n
    along a trace, with the tail infimum over the second half as the
    finite-horizon liminf estimate.  That liminf is
    delta - (1 - delta) limsup d_n / t_n = theta_to_beta(theta), the level
    indexed by the limsup ratio theta of ``jarnik_ratios``.  Each beta_n is
    ``theta_to_beta`` of a ratio in its ``theta_seq``, a map that stays
    monotone under float rounding, so the liminf is ``theta_to_beta(theta_hat)``.

    The unknown comparability constant c of the measure formula only enters
    as c / t_n -> 0, so it is dropped rather than modeled.
    """
    _check_delta(delta)
    ratios = jarnik_ratios(trace)
    betas = [theta_to_beta(theta, delta) for theta in ratios.theta_seq]
    return LocalDimensionEstimate(betas, theta_to_beta(ratios.theta_hat, delta))
