"""Continued fractions on (0, 1), convergents, and Ford circles.

Digit sources are exact wherever possible: rationals run the Euclidean
algorithm on big integers, quadratic irrationals (p + sqrt(d))/q use the
classical integer recursion with period detection, and periodic digit lists
expand lazily.  Floating-point inputs are expanded as the exact binary
rational they represent, with a reliability horizon marking where the digits
stop being trustworthy approximations of the intended real number.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile

from .halfplane import INFINITY, Horoball
from .numerics import InsufficientDigitsError

_FLOAT_MAX = sys.float_info.max


class ContinuedFraction:
    """Digit stream a_1, a_2, ... of a number in (0, 1).

    ``prefix`` holds materialized digits, ``period`` (possibly empty) repeats
    forever after the prefix.  ``reliable`` is the number of leading digits
    that are trustworthy (None means every digit is exact).
    """

    def __init__(self, prefix, period=(), reliable=None):
        prefix = tuple(int(a) for a in prefix)
        period = tuple(int(a) for a in period)
        for a in prefix + period:
            if a < 1:
                raise ValueError(f"continued fraction digits must be >= 1, got {a}")
        if not prefix and not period:
            raise ValueError("empty digit sequence")
        self.prefix = prefix
        self.period = period
        self.reliable = reliable

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, p, q):
        """Exact (terminating) expansion of p/q in (0, 1)."""
        frac = Fraction(p, q)
        if not 0 < frac < 1:
            raise ValueError(f"from_rational needs a value in (0, 1), got {frac}")
        num, den = frac.numerator, frac.denominator
        digits = []
        while num:
            a, rem = divmod(den, num)
            digits.append(a)
            den, num = num, rem
        return cls(digits)

    @classmethod
    def from_float(cls, x, max_digits=64):
        """Expansion of the exact binary rational behind a float.

        Digits are flagged unreliable once the convergent denominators exhaust
        the precision of the input: two reals within eps share their first
        digits only while q_n * q_{n+1} < 1/(4 eps).  ``reliable`` counts the
        leading digits with q_n^2 < 1/(4 eps), eps half an ulp of x.
        """
        x = float(x)
        if not 0.0 < x < 1.0:
            raise ValueError(f"from_float needs a value in (0, 1), got {x}")
        # 1/(4 eps) = 1/(2 ulp), a power of two; an int, as the float
        # overflows for subnormal x
        budget = 1 << -math.frexp(math.ulp(x))[1]
        frac = Fraction(x)
        num, den = frac.numerator, frac.denominator
        digits = []
        while num and len(digits) < max_digits:
            a, rem = divmod(den, num)
            digits.append(a)
            den, num = num, rem
        trusted = takewhile(lambda pq: pq[1] * pq[1] < budget, convergent_pairs(digits))
        return cls(digits, reliable=sum(1 for _ in trusted))

    @classmethod
    def from_periodic(cls, preperiod, period):
        if not period:
            raise ValueError("period must be nonempty")
        return cls(preperiod, period)

    @classmethod
    def from_quadratic(cls, d, add, den):
        """Exact expansion of (add + sqrt(d))/den for integers, den >= 1.

        Runs the integer recursion P' = aQ - P, Q' = (d - P'^2)/Q with exact
        floors and detects the eventual period from repeated (P, Q) states.
        """
        d, add, den = int(d), int(add), int(den)
        if den < 1:
            raise ValueError("denominator must be >= 1")
        s = math.isqrt(d)
        if d <= 0 or s * s == d:
            raise ValueError("d must be a positive non-square integer")
        val = (add + math.sqrt(d)) / den
        if not 0.0 < val < 1.0:
            raise ValueError(f"(add + sqrt(d))/den must lie in (0, 1), got {val}")
        P, Q, D = add, den, d
        if (D - P * P) % Q != 0:
            P, D, Q = P * Q, D * Q * Q, Q * Q
        s = math.isqrt(D)
        digits = []
        seen = {}
        period = ()
        # First output digit is floor(x) = 0; skip it and emit the rest.
        for step in range(10_000):
            a = (P + s) // Q if Q > 0 else (P + s + 1) // Q
            if step > 0:
                key = (P, Q)
                if key in seen:
                    start = seen[key]
                    period = tuple(digits[start:])
                    digits = digits[:start]
                    break
                seen[key] = len(digits)
                digits.append(a)
            P = a * Q - P
            Q = (D - P * P) // Q
        if not period:
            raise ValueError("period detection failed (state space too large)")
        return cls(digits, period)

    # -- digit access ------------------------------------------------------

    @property
    def terminating(self) -> bool:
        return not self.period

    def available(self):
        return len(self.prefix) if self.terminating else INFINITY

    def digits(self, n):
        """First n >= 0 digits as a list; raises if a terminating expansion
        is shorter."""
        if n < 0:
            raise ValueError(f"digit count must be >= 0, got {n}")
        if n <= len(self.prefix):
            return list(self.prefix[:n])
        if self.terminating:
            raise InsufficientDigitsError(
                f"requested {n} digits, expansion terminates after {len(self.prefix)}"
            )
        out = list(self.prefix)
        k = len(self.period)
        need = n - len(out)
        reps = need // k + 1
        out.extend(self.period * reps)
        return out[:n]

    def reliable_digits(self) -> float:
        """Number of digits safe to use geometrically (inf when all exact)."""
        if self.reliable is None:
            return self.available()
        return self.reliable

    def value(self) -> float:
        """Floating-point value via backward evaluation of a long prefix."""
        n = min(66, len(self.prefix) + 66 if self.period else len(self.prefix))
        return 1.0 / complete_quotients(self.digits(n))[0]

    def __repr__(self):
        tail = f"({','.join(map(str, self.period))})" if self.period else ""
        head = ",".join(map(str, self.prefix[:8]))
        dots = ",..." if len(self.prefix) > 8 else ""
        return f"ContinuedFraction[{head}{dots}{tail}]"


def complete_quotients(digits):
    """Complete quotients x_k = [a_k; a_{k+1}, ..., a_n], k = 1..n, as floats
    by backward evaluation (0-based list).  A digit beyond float range makes
    its quotient inf; the reciprocal, below 2^-1024, then adds 0 to the digit
    before it, as it would in floats."""
    out = [0.0] * len(digits)
    v = math.inf
    for j in range(len(digits) - 1, -1, -1):
        a = digits[j]
        v = a + 1.0 / v if a <= _FLOAT_MAX else math.inf
        out[j] = v
    return out


@dataclass(frozen=True)
class Convergent:
    """Convergent p/q in lowest terms (the recursion keeps p, q coprime)."""

    p: int
    q: int

    @property
    def value(self) -> float:
        return self.p / self.q


def convergent_pairs(digits):
    """Yield (p_k, q_k), k = 1, 2, ..., for the digits a_1, a_2, ... by the
    standard recurrence p_k = a_k p_{k-1} + p_{k-2}, likewise q_k, from
    p_{-1}/q_{-1} = 1/0 and p_0/q_0 = 0/1."""
    p_prev, p_cur = 1, 0
    q_prev, q_cur = 0, 1
    for a in digits:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        yield p_cur, q_cur


def convergents(cf: ContinuedFraction, n):
    """First n convergents p_k/q_k."""
    return [Convergent(p, q) for p, q in convergent_pairs(cf.digits(n))]


def ford_circle(p, q) -> Horoball:
    """Standard horoball at p/q: base p/q, Euclidean diameter 1/q^2.

    q = 0 (so p = +-1) gives the horoball at infinity, the half-plane above
    the horizontal line at height 1.
    """
    p, q = int(p), int(q)
    if q < 0:
        raise ValueError("ford_circle needs q >= 0")
    if math.gcd(p, q) != 1:
        raise ValueError(f"{p}/{q} is not in lowest terms")
    if q == 0:
        return Horoball(INFINITY, 1.0)
    return Horoball(p / q, 1.0 / (q * q))
