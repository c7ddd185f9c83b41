"""Shared numerical helpers: the library's error types, the tail estimator
and bracketed root finding."""

from __future__ import annotations

import math
import sys

_EPS = sys.float_info.epsilon
_ROOT_MAX_ITER = 300  # Brent steps before bracketed_root gives up


class NumericError(RuntimeError):
    """A numerical routine failed to converge; the message carries diagnostics."""


class InsufficientDigitsError(ValueError):
    """An operation needed more (reliable) continued-fraction digits than available."""


def tail_extreme(pick, values):
    """``pick`` (max or min) over the second half ``values[len(values)//2:]``,
    the finite-horizon estimate of a limsup or liminf; nan if any value there
    is nan."""
    tail = values[len(values) // 2:]
    return math.nan if any(map(math.isnan, tail)) else pick(tail)


def bracketed_root(f, lo, hi, xtol=1e-10, flo=None, fhi=None):
    """Root of f in [lo, hi] by Brent's method (Brent 1973, "zeroin").

    The bracket must be sign-changing, else ValueError.  Each step takes an
    inverse quadratic or secant step when it lands well inside the current
    bracket and shrinks it fast enough, and bisects otherwise, so slow
    interpolation cannot stall it.  The result is the evaluated point
    with the smallest |f| of the final bracket, which is at most ``xtol``
    wide: it lies in [lo, hi] and within ``xtol`` of a sign change.  Pass
    flo/fhi to reuse endpoint evaluations.  Raises NumericError if 300 steps
    do not get there.
    """
    fa = f(lo) if flo is None else flo
    fb = f(hi) if fhi is None else fhi
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if fa * fb > 0:
        raise ValueError(f"root not bracketed: f({lo})={fa}, f({hi})={fb}")
    # b is the best point so far, a the previous one, and c the point that
    # keeps the sign change: the root stays between b and c.
    a, b = lo, hi
    c, fc = a, fa
    d = e = b - a
    for _ in range(_ROOT_MAX_ITER):
        if fb * fc > 0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol1 = max(0.5 * xtol, 2.0 * _EPS * abs(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            t = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * t, 1.0 - t
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = t * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (t - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)
    raise NumericError(
        f"root finder did not converge in {_ROOT_MAX_ITER} steps on [{lo}, {hi}] "
        f"(best point {b!r}, f={fb!r})"
    )
