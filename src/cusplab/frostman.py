"""Mass-distribution certificates for digit-restricted sets.

A ``CylinderMeasure`` is a level-wise product measure on continued-fraction
cylinders: at every level an independent digit is drawn from a fixed range
with fixed weights.  The deep-excursion measure uses weights proportional to
1/(a+1) over digits [tau, tau'], where tau' is the smallest upper end making
the normalizing sum exceed e^{kappa/2}; the per-cylinder mass is then the
normalized product of the digit weights.

Ball masses nu(B(xi, r)) are evaluated exactly (up to a documented atom-size
cutoff) as CDF differences; the CDF walks the exact partial quotients of a
rational x down the cylinder tree, flipping orientation at every level because
the map digit -> cylinder position alternates direction.

Digit supports are capped at 10^7 digits (``_MAX_SUPPORT``), checked before
any weight is summed or allocated.

The fitted exponent inf log nu(B) / log r over sampled centers and radii is a
finite-scale Frostman certificate: a measure with nu(B(xi, r)) <= c r^s on
its support witnesses dimension >= s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .contfrac import _quotients, convergent_pairs

# most digits a measure may carry: its weights are held in float arrays
_MAX_SUPPORT = 10**7


@dataclass(frozen=True, eq=False)
class CylinderMeasure:
    """Product measure over digit cylinders with digits in [lo, hi].

    ``weights`` may be any sequence, one weight per digit; the measure holds
    it as a read-only float64 array.
    """

    lo: int
    hi: int
    weights: np.ndarray

    def __post_init__(self):
        if self.lo < 1 or self.hi < self.lo:
            raise ValueError("need 1 <= lo <= hi")
        weights = np.array(self.weights, dtype=float)
        if weights.shape != (self.hi - self.lo + 1,):
            raise ValueError("one weight per digit required")
        if (weights < 0).any():
            raise ValueError("weights must be nonnegative")
        total = float(weights.sum())
        if not math.isfinite(total) or abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 (within 1e-12), got {total}")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_rule(cls, lo, hi, rule="inverse_successor"):
        lo, hi = int(lo), int(hi)
        if lo < 1 or hi < lo:  # before 1/(a+1) meets a = -1
            raise ValueError("need 1 <= lo <= hi")
        if hi - lo >= _MAX_SUPPORT:
            raise ValueError(f"digit range [{lo}, {hi}] exceeds {_MAX_SUPPORT} digits")
        # one array: the digits become their weights, then the normalized weights
        raw = np.arange(lo, hi + 1, dtype=float)
        if rule == "inverse_successor":
            raw += 1.0
            np.divide(1.0, raw, out=raw)
        elif rule == "uniform":
            raw.fill(1.0)
        else:
            raise ValueError(f"unknown weight rule {rule!r}")
        raw /= raw.sum()
        return cls(lo, hi, raw)

    def weight(self, digit: int) -> float:
        if self.lo <= digit <= self.hi:
            return float(self.weights[digit - self.lo])
        return 0.0

    @cached_property
    def _cumulative(self):
        # mass of the digits up to and including each digit lo..hi, for sampling
        return np.cumsum(self.weights)

    @cached_property
    def _suffix(self):
        # mass of the digits strictly greater than each digit lo..hi: the
        # running sum from hi down, written backwards into one array
        suffix = np.zeros_like(self.weights)
        np.cumsum(self.weights[:0:-1], out=suffix[-2::-1])
        return suffix

    def mass_above(self, digit: int) -> float:
        """Total weight of digits strictly greater than ``digit``."""
        if digit < self.lo:
            return 1.0
        if digit >= self.hi:
            return 0.0
        return float(self._suffix[digit - self.lo])


def _good_weights(tau, kappa):
    """good_weight_range's (tau, tau', sum), then the weights 1/(a+1) it summed."""
    tau = int(tau)
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa!r}")
    # the sum up to tau' is below log((tau' + 1)/tau), so no support of at
    # most S = _MAX_SUPPORT digits passes e^{kappa/2} >= log((tau + S)/tau), and
    # for tau >= S that log is below 1 < e^{kappa/2}: fail before summing
    if tau >= _MAX_SUPPORT or 0.5 * kappa >= math.log(math.log((tau + _MAX_SUPPORT) / tau)):
        raise ValueError("kappa too large to normalize")
    target = math.exp(0.5 * kappa)
    # sum_{a=tau}^{h} 1/(a+1) > log((h+2)/(tau+1)), so the sum passes target
    # within (tau+1) e^target - tau digits; cumsum adds in digit order
    count = min(math.ceil((tau + 1) * math.exp(target)) - tau, _MAX_SUPPORT)
    raw = 1.0 / np.arange(tau + 1.0, tau + 1.0 + count)
    sums = np.cumsum(raw)
    k = int(np.searchsorted(sums, target, side="right"))
    if k == count:
        raise ValueError("kappa too large to normalize")
    return tau, tau + k, float(sums[k]), raw[:k + 1]


def good_weight_range(tau, kappa):
    """Digit range [tau, tau'] and normalizer for the deep-excursion measure:
    tau' is minimal with sum_{a=tau}^{tau'} 1/(a+1) > e^{kappa/2}."""
    return _good_weights(tau, kappa)[:3]


def good_measure(tau, kappa) -> CylinderMeasure:
    lo, hi, _, raw = _good_weights(tau, kappa)
    raw /= raw.sum()  # normalized as from_rule does
    return CylinderMeasure(lo, hi, raw)


_ATOM_TOL = 1e-18
_CDF_MAX_DEPTH = 64


def cdf(measure: CylinderMeasure, x) -> float:
    """Mass of {xi <= x} for a rational x, descending its exact partial
    quotients.  The descent stops once the remaining cylinder mass drops
    below 1e-18 (documented atom cutoff), or after 64 levels; the one digit
    read past that cap tells a last digit (x on an endpoint) from a cut one."""
    x = Fraction(x)
    if x.numerator <= 0:
        return 0.0
    if x.numerator >= x.denominator:
        return 1.0
    digits = _quotients(x, _CDF_MAX_DEPTH + 1)
    total, scale, flipped = 0.0, 1.0, False
    for level, d in enumerate(digits[:_CDF_MAX_DEPTH], start=1):
        below = measure.mass_above(d)       # digits left of x in local coords
        inside = measure.weight(d)
        if not flipped:
            total += scale * below
        else:
            total += scale * (1.0 - below - inside)
        if inside == 0.0:
            return total
        scale *= inside
        if level == len(digits):
            # x sits exactly on a cylinder endpoint; the child cylinder lies
            # entirely below x iff the child orientation is reversed.
            if not flipped:
                total += scale
            return total
        flipped = not flipped
        if scale < _ATOM_TOL:
            return total + 0.5 * scale
    return total + 0.5 * scale


def ball_mass(measure: CylinderMeasure, center, radius) -> float:
    """nu(B(center, radius)) as an exact CDF difference."""
    c, r = Fraction(center), Fraction(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    return max(cdf(measure, c + r) - cdf(measure, c - r), 0.0)


def sample_point(measure: CylinderMeasure, rng, depth) -> Fraction:
    """Draw digits i.i.d. from the measure and return the depth-th convergent
    of the sampled digit string (a representative of the sampled cylinder)."""
    cum = measure._cumulative
    u = rng.random(depth)
    # Python ints: lo + k would wrap in int64 for digits near 2^63 and beyond
    digits = [measure.lo + k for k in np.searchsorted(cum, u * cum[-1]).tolist()]
    *_, (p, q) = convergent_pairs(digits)
    return Fraction(p, q)


@dataclass(frozen=True)
class FrostmanReport:
    rows: list                 # (sample_id, r, mass, log mass / log r)
    fitted_exponent: float     # inf of the ratio column


# Radii must sit below the finest first-level cylinder of the measure,
# otherwise coarse balls near the cusp see the heavy digit tail and the
# inf-ratio certificate degrades.
_R_GRID = tuple(10.0 ** (-k) for k in range(8, 13))


def sample_rows(measure: CylinderMeasure, seed, idx):
    """Rows (idx, r, mass, log-ratio) for one sampled center.

    The center uses the counter-based stream keyed by (seed, idx), so a
    sample does not depend on which other samples are drawn; its digit
    string is deep enough for the sampled cylinder to resolve the smallest
    radius.
    """
    depth = int((math.log(1.0 / min(_R_GRID)) + 10.0) / (2.0 * math.log(measure.lo + 1))) + 4
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, idx], dtype=np.uint64)))
    xi = sample_point(measure, rng, depth)
    rows = []
    for r in _R_GRID:
        mass = ball_mass(measure, xi, Fraction(r))
        if mass <= 0.0:
            mass = _ATOM_TOL
        rows.append((idx, r, mass, math.log(mass) / math.log(r)))
    return rows


def frostman_sampler(measure: CylinderMeasure, samples, seed=0) -> FrostmanReport:
    """Empirical Frostman exponent report for a cylinder measure.

    The fitted exponent is inf over all (sample, r) of log nu(B)/log r, a
    lower-bound certificate for the dimension of the support when the measure
    obeys a power law at these scales.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rows = []
    for idx in range(samples):
        rows.extend(sample_rows(measure, seed, idx))
    fitted = min(row[3] for row in rows)
    return FrostmanReport(rows, fitted)
