"""Growth-sequence calculus: finite-prefix estimates of the limsup exponent
omega and the liminf critical exponent rho = 1/(2(1+omega)).

All arithmetic is carried in log space (log s_n), since the sequences of
interest (e.g. log s_n = alpha^n log b) overflow any fixed-width integer or
float representation almost immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .numerics import tail_extreme


@dataclass(frozen=True)
class GrowthSequence:
    """A positive integer sequence s_n -> infinity, stored as log s_n.

    A generator states its closed-form omega where it builds the sequence:
    (alpha-1)/2 for log s_n = alpha^n log b, and 0 for s_n = c^n and
    s_n = (n+1)^k.  An explicit prefix has none (``closed_form_omega`` is
    None).  Every sequence is checked once, here: its terms are finite and
    >= 1, and it is nondecreasing and strictly grows overall, which
    generator sequences do by construction.
    """

    log_s: tuple
    closed_form_omega: float | None = None

    def __post_init__(self):
        logs = self.log_s
        if any(v < 0 for v in logs):
            raise ValueError("sequence terms must be >= 1 (log >= 0)")
        if not all(math.isfinite(v) for v in logs):
            raise ValueError("non-finite term in growth sequence")
        if len(logs) < 3:
            raise ValueError("need at least three terms")
        if not (all(b >= a for a, b in zip(logs, logs[1:])) and logs[-1] > logs[0]):
            raise ValueError("sequence does not look unbounded (s_n -> inf required)")

    @classmethod
    def log_geometric(cls, alpha, n, base=2.0):
        if alpha <= 1.0:
            raise ValueError("log-geometric growth needs alpha > 1")
        if base <= 1.0:
            raise ValueError("base must exceed 1")
        lb = math.log(base)
        try:
            log_s = tuple(alpha ** k * lb for k in range(1, n + 1))
        except OverflowError:  # alpha ** k beyond float range: an infinite term
            log_s = (math.inf,)
        if not all(math.isfinite(v) for v in log_s):
            params = {"alpha": alpha, "base": base}
            raise ValueError(f"non-finite term in log_geometric sequence {params}")
        return cls(log_s, 0.5 * (alpha - 1.0))

    @classmethod
    def geometric(cls, c, n):
        if c < 2:
            raise ValueError("geometric growth needs c >= 2")
        lc = math.log(c)
        return cls(tuple(k * lc for k in range(1, n + 1)), 0.0)

    @classmethod
    def polynomial(cls, power, n):
        if power < 1:
            raise ValueError("polynomial growth needs power >= 1")
        return cls(tuple(power * math.log(k + 1) for k in range(1, n + 1)), 0.0)

    @classmethod
    def explicit(cls, values):
        # a term <= 0 has log -inf here, which the >= 1 check rejects
        return cls(tuple(-math.inf if v <= 0 else math.log(v) for v in values))

    @property
    def closed_form_rho(self):
        w = self.closed_form_omega
        return None if w is None else 1.0 / (2.0 * (1.0 + w))


@dataclass(frozen=True)
class OmegaRhoEstimates:
    omega_hat: tuple          # omega_hat[n] for n = 2..n_max
    rho_hat: tuple            # rho_hat[n] for n = 1..n_max-1
    omega_estimate: float     # tail sup of omega_hat
    rho_estimate: float       # tail inf of rho_hat


def _ratio(num, den):
    if den != 0:
        return num / den
    return math.inf if num > 0 else math.nan


def seq_omega_rho(seq: GrowthSequence, n_max=None, inflation_k=1.0) -> OmegaRhoEstimates:
    """Finite-n estimates of omega (limsup form) and rho (liminf form).

    omega_hat_n = log s_n / (2 log(s_1 ... s_{n-1})),
    rho_hat_n   = log(s_1 ... s_n) / log((K^n s_1 ... s_n)^2 s_{n+1}),

    with K = ``inflation_k`` (K = 1 is the plain definition; the estimates are
    insensitive to K because the K^n correction is washed out by the
    superlinear growth of log(s_1 ... s_n)).
    """
    if not 0 < inflation_k < math.inf:
        raise ValueError("inflation constant must be positive and finite")
    if n_max is not None and n_max < 3:
        raise ValueError("n_max must be >= 3")
    logs = tuple(map(float, seq.log_s[:n_max]))
    partial = tuple(accumulate(logs))     # L_n = log(s_1 ... s_n)
    log_k = math.log(inflation_k)

    # a ratio over a zero denominator (leading terms s_k = 1) is inf, or nan
    # (undefined) when its numerator is 0 too
    omega_hat = tuple(_ratio(nxt, 2.0 * part) for nxt, part in zip(logs[1:], partial))
    rho_hat = tuple(_ratio(part, 2.0 * (k * log_k + part) + nxt)
                    for k, (nxt, part) in enumerate(zip(logs[1:], partial), start=1))

    return OmegaRhoEstimates(
        omega_hat=omega_hat,
        rho_hat=rho_hat,
        omega_estimate=tail_extreme(max, omega_hat),
        rho_estimate=tail_extreme(min, rho_hat),
    )
