"""The benchmark's three workloads: op lists made from a seed, the ops, and
the gates that check every op's output.

Every op list is generated before timing starts and is the same on every
run with the same seed.  Parameters that set an op's cost (horizons, sqrt
radicands, loggeom rates, lower digit bounds, alphabet widths) are
stratified: the k-th op takes the k-th
point of the golden-ratio sequence, moved by a seeded jitter of at most
JITTER/2.  Any prefix of the list then covers the parameter range evenly and
in the same proportions for every seed, so a run's cost mix, and with it its
medians and op rate, does not depend on the seed, while the inputs do.
The library receives only the generated inputs.

A workload exposes ``warmup()``, ``run(i)`` (op ``i``, cycling through the
list), ``check(i, result)`` (gate failures known at once), ``summary(result)``
(what is kept of an op), ``finish(done)`` (gates that compare ops with each
other, after the timed phase), ``notes()``, and the per-layer hooks
``patch(tracer)`` and ``layer_metrics(tracer, done)``.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import cusplab.cli
import cusplab.contfrac
import cusplab.dimension
import cusplab.excursions
import cusplab.frostman
import cusplab.svgplot
import cusplab.tableio

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Gate constants.  Criterion 3 and criterion 4 are the acceptance suite's.
DEPTH_GAP = 2.5              # |d_n - log a_{n+1}|, criterion 3
XI_TOL = 1e-12               # trace.xi against cf.value()
COLLOC_RESIDUAL = 1e-8       # |lambda(dim) - 1| of a collocation solve
# The Ulam solve stops at 1e-8 in s, so its residual is |dlambda/ds| * 5e-9;
# |dlambda/ds| = 2 E log(a + x) stays below 100 on these alphabets.
ULAM_RESIDUAL = 1e-6
AGREE_TOL = 1e-4             # collocation vs Ulam, criterion 4
E2 = 0.53128050627720514     # dim E_2 (Jenkinson-Pollicott 2018; Hensley 1996)
E2_TOL = 1e-12

JITTER = 1.0 / 32.0  # in [0, 1]: N over 2..200 moves by at most 7 %


def strata(seed: int, stream: int, count: int) -> list[float]:
    """``count`` stratified points in [0, 1] for ``stream``: the golden-ratio
    sequence plus a seeded jitter, reflected at the ends."""
    jitter = JITTER * (np.random.default_rng([seed, stream]).random(count) - 0.5)
    u = (np.arange(count) * GOLDEN) % 1.0 + jitter
    return np.abs(np.where(u > 1.0, 2.0 - u, u)).tolist()


def log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def per_op(totals, name, field=1):
    """Mean, over the ops that reached span ``name``, of its total seconds
    (field 1), self seconds (2) or count (3); None when no op reached it."""
    rows = [t[name] for t in totals.values() if name in t]
    return sum(r[field] for r in rows) / len(rows) if rows else None


def present(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if v[0] is not None}


# ---------------------------------------------------------------------------
# trace: digit streams and excursion traces, in process
# ---------------------------------------------------------------------------

LOOKAHEAD = 44  # digits past the horizon that excursion_trace reads


def loggeom_digit(log2_value: float) -> int:
    """floor(2 ** log2_value) to double precision, as an exact integer."""
    whole = int(log2_value)
    if whole < 53:
        return max(2, int(2.0 ** log2_value))
    mantissa = int(2.0 ** (log2_value - whole + 52))
    return mantissa << (whole - 52)


def deep_digits(rng, count: int, alpha: float, cap_bits: float) -> list[int]:
    """Small digits with the loggeom terms floor(2 ** (alpha ** k)), k = 1, 2,
    ..., spliced in every 4 to 9 digits; the term index restarts at 1 before
    a term would exceed 2 ** cap_bits."""
    small = rng.integers(1, 4, size=count).tolist()
    gaps = rng.integers(3, 9, size=count // 3 + 1).tolist()
    digits, k, pos = [], 1, 0
    for gap in gaps:
        digits.extend(small[pos:pos + gap])
        pos += gap
        if alpha ** k > cap_bits:
            k = 1
        digits.append(loggeom_digit(alpha ** k))
        k += 1
        if len(digits) >= count:
            break
    return digits[:count]


MIN_PERIOD = 100  # class (b): short periods would mean runs of one large digit


def period_at_least(d: int, length: int) -> bool:
    """Whether the continued fraction of sqrt(d), d not a square, has a
    period of at least ``length`` (the period ends at the digit 2 a_0)."""
    a0 = math.isqrt(d)
    m, den = 0, 1
    for _ in range(length - 1):
        m = den * ((a0 + m) // den) - m
        den = (d - m * m) // den
        if (a0 + m) // den == 2 * a0:
            return False
    return True


def make_trace_ops(seed: int, count: int) -> list[dict]:
    """Classes cycle a, b, c.  (a) digits floor(1/U), P(a >= k) = 1/k, at
    horizons log-uniform over 500..4000; (b) sqrt(D) - floor(sqrt(D)) for
    non-square D log-uniform over 1e5..5e5 with periods of MIN_PERIOD to at
    most 0.72 sqrt(D) ln D < 10^4 (the period-detection limit), same
    horizons; (c) deep loggeom streams, alpha in 1.5..2.5,
    at horizons 200..400."""
    rng = np.random.default_rng([seed, 1])
    per_class = -(-count // 3)
    horizon_a, horizon_b, horizon_c, root_d, alphas = (
        strata(seed, stream, per_class) for stream in range(1, 6))
    ops = []
    for i in range(count):
        cls, k = "abc"[i % 3], i // 3
        if cls == "a":
            horizon = round(log_uniform(horizon_a[k], 500, 4000))
            u = rng.random(horizon + LOOKAHEAD)
            digits = np.floor(1.0 / (1.0 - u)).astype(np.uint64)
            ops.append({"cls": "a", "horizon": horizon, "digits": digits})
        elif cls == "b":
            horizon = round(log_uniform(horizon_b[k], 500, 4000))
            d = int(log_uniform(root_d[k], 1e5, 5e5))
            while math.isqrt(d) ** 2 == d or not period_at_least(d, MIN_PERIOD):
                d += 1
            ops.append({"cls": "b", "horizon": horizon, "d": d, "root": math.isqrt(d)})
        else:
            horizon = round(log_uniform(horizon_c[k], 200, 400))
            digits = deep_digits(rng, horizon + LOOKAHEAD, 1.5 + alphas[k], cap_bits=1000)
            ops.append({"cls": "c", "horizon": horizon, "digits": digits})
    return ops


def trace_gates(cf, trace) -> list[str]:
    fails = []
    if any(abs(r.depth - math.log(r.digit)) >= DEPTH_GAP for r in trace.records):
        fails.append("depth_gap")
    times = trace.times()
    if any(b <= a for a, b in zip(times, times[1:])):
        fails.append("times_not_increasing")
    if not abs(trace.xi - cf.value()) <= XI_TOL:
        fails.append("xi_mismatch")
    return fails


class TraceWorkload:
    name = "trace"
    round_ops = 3  # one op per class
    traced_min_ops = 12  # every class, and class (a) in every horizon bucket
    layer_names = ("contfrac.expand_s", "excursions.trace_s",
                   "excursions.us_per_excursion.h1k", "excursions.us_per_excursion.h2k",
                   "excursions.us_per_excursion.h4k", "excursions.max_q_bits",
                   "excursions.entered_share", "excursions.membership_s",
                   "excursions.jarnik_s", "excursions.overflow_fails",
                   "trace_overhead.trace")

    def __init__(self, seed: int, toy: bool, workdir: Path):
        self.ops = make_trace_ops(seed, 12 if toy else 1500)
        self.probe_seed = seed

    def stream(self, op):
        if op["cls"] == "b":
            return cusplab.contfrac.ContinuedFraction.from_quadratic(op["d"], -op["root"], 1)
        return cusplab.contfrac.ContinuedFraction(op["digits"])

    def warmup(self):
        rng = np.random.default_rng([0, 9])
        digits = np.floor(1.0 / (1.0 - rng.random(500 + LOOKAHEAD))).astype(np.uint64)
        self._trace({"cls": "a", "horizon": 500, "digits": digits})

    def _trace(self, op):
        ex = cusplab.excursions
        cf = self.stream(op)
        trace = ex.excursion_trace(cf, op["horizon"])
        membership = ex.good_membership(trace, 1.0, 1e9)
        ratios = ex.jarnik_ratios(trace)
        return cf, trace, membership, ratios

    def run(self, i):
        return self._trace(self.ops[i % len(self.ops)])

    def check(self, i, result) -> list[str]:
        cf, trace, membership, ratios = result
        fails = trace_gates(cf, trace)
        if len(membership.flags) != len(trace.entered()):
            fails.append("membership_length")
        if not math.isfinite(ratios.theta_hat):
            fails.append("theta_not_finite")
        return fails

    def summary(self, result):
        """What the layer metrics need from an op, without its big integers."""
        _, trace, _, _ = result
        return {"max_q_bits": trace.records[-1].q.bit_length(),
                "entered": len(trace.entered()), "records": len(trace.records)}

    def finish(self, done) -> dict:
        return {}

    def notes(self) -> list[str]:
        raised, streams = self.overflow_probe()
        return [f"known defect (ROADMAP item 2): {raised} of {streams} deep streams with "
                f"a digit >= 2^1024 raise OverflowError; probed outside the timed ops"]

    def overflow_probe(self, streams: int = 3) -> tuple[int, int]:
        """Known defect (ROADMAP item 2): deep streams whose loggeom terms
        pass 2 ** 1024 raise OverflowError.  With alpha <= 2.5 and a 4096-bit
        cap, every stream holds a term between 2 ** 1024 and 2 ** 2560 within
        its first 200 digits.  Returns (raised, streams)."""
        rng = np.random.default_rng([self.probe_seed, 4])
        raised = 0
        for _ in range(streams):
            digits = deep_digits(rng, 200 + LOOKAHEAD, rng.uniform(1.5, 2.5), 4096)
            cf = cusplab.contfrac.ContinuedFraction(digits)
            try:
                cusplab.excursions.excursion_trace(cf, 200)
            except OverflowError:
                raised += 1
        return raised, streams

    def patch(self, tracer):
        cf_cls = cusplab.contfrac.ContinuedFraction
        tracer.patch(cf_cls, "__init__", "contfrac.expand")
        tracer.patch(cf_cls, "from_quadratic", "contfrac.expand")
        tracer.patch(cf_cls, "digits", "contfrac.expand")
        ex = cusplab.excursions
        tracer.patch(ex, "excursion_trace", "excursions.trace")
        tracer.patch(ex, "good_membership", "excursions.membership")
        tracer.patch(ex, "jarnik_ratios", "excursions.jarnik")

    def layer_metrics(self, tracer, done) -> dict:
        totals = tracer.totals()
        # Constructors and digits() nest (from_quadratic calls __init__,
        # excursion_trace calls digits()): count only outermost expand spans.
        expand = sum(sp.duration for sp in tracer.spans
                     if sp.name == "contfrac.expand"
                     and (sp.parent is None
                          or tracer.spans[sp.parent].name != "contfrac.expand"))
        buckets = {"h1k": [0.0, 0], "h2k": [0.0, 0], "h4k": [0.0, 0]}
        for i, summary in done.items():
            op = self.ops[i % len(self.ops)]
            if op["cls"] != "a":
                continue
            h = op["horizon"]
            key = "h1k" if h < 1000 * 2 ** 0.5 else "h2k" if h < 2000 * 2 ** 0.5 else "h4k"
            buckets[key][0] += totals[i]["excursions.trace"][1] / h
            buckets[key][1] += 1
        raised, streams = self.overflow_probe()
        out = {
            "contfrac.expand_s": (expand / len(totals), "s"),
            "excursions.trace_s": (per_op(totals, "excursions.trace"), "s"),
            "excursions.max_q_bits": (max(s["max_q_bits"] for s in done.values()), "count"),
            "excursions.entered_share": (sum(s["entered"] for s in done.values())
                                         / sum(s["records"] for s in done.values()), "1"),
            "excursions.membership_s": (per_op(totals, "excursions.membership"), "s"),
            "excursions.jarnik_s": (per_op(totals, "excursions.jarnik"), "s"),
            "excursions.overflow_fails": (raised, "count"),
        }
        for key, (total, count) in buckets.items():
            out[f"excursions.us_per_excursion.{key}"] = (
                1e6 * total / count if count else None, "us")
        return present(out)


# ---------------------------------------------------------------------------
# dimension: pressure-root solves, in process
# ---------------------------------------------------------------------------

FINITE_BATCH = 8  # alphabets per finite op: about one infinite solve of work


def make_dimension_ops(seed: int, count: int) -> list[dict]:
    """Kinds cycle colloc(N), ulam(N), finite: N log-uniform over 2..200; a
    finite op solves {1, 2} and seven seeded {lo..hi}, lo uniform in 1..20
    and hi - lo stratified over 1..60 within the batch (the Ulam cost grows
    with the width), each by collocation and by the sparse Ulam matrix."""
    rng = np.random.default_rng([seed, 5])
    rounds = -(-count // 3)
    lower = strata(seed, 6, rounds)
    width = strata(seed, 7, rounds * FINITE_BATCH)
    ops = []
    for i in range(count):
        kind, k = ("colloc", "ulam", "finite")[i % 3], i // 3
        if kind == "finite":
            batch = [(1, 2)]
            for j in range(FINITE_BATCH - 1):
                lo = int(rng.integers(1, 21))
                u = (j + width[k * FINITE_BATCH + j]) / (FINITE_BATCH - 1)
                batch.append((lo, lo + 1 + min(int(60 * u), 59)))
            ops.append({"kind": kind, "batch": batch})
        else:
            n = round(log_uniform(lower[k], 2, 200))
            ops.append({"kind": kind, "n": n, "pair": k})
    return ops


def infinite_gates(est, residual_tol, bracket) -> list[str]:
    fails = []
    if not bracket[0] < est.dim < bracket[1]:
        fails.append("outside_crude_bracket")
    if not est.dim > 0.5:
        fails.append("dim_not_above_half")
    if not est.residual < residual_tol:
        fails.append("residual")
    return fails


def finite_gates(rows) -> list[str]:
    fails = []
    for (lo, hi), colloc, ulam in rows:
        if not 0.0 < colloc.dim < 1.0:
            fails.append("finite_dim_range")
        if not colloc.residual < COLLOC_RESIDUAL:
            fails.append("residual")
        if not ulam.residual < ULAM_RESIDUAL:
            fails.append("ulam_residual")
        if not abs(colloc.dim - ulam.dim) < AGREE_TOL:
            fails.append("colloc_ulam_disagree")
        if (lo, hi) == (1, 2) and not abs(colloc.dim - E2) < E2_TOL:
            fails.append("e2_pin")
    return sorted(set(fails))


class DimensionWorkload:
    name = "dimension"
    round_ops = 3  # colloc(N), ulam(N), finite
    traced_min_ops = 3  # one op of each kind
    layer_names = ("dimension.solve_s.colloc", "dimension.solve_s.ulam",
                   "dimension.solve_s.finite", "dimension.evals_per_solve",
                   "dimension.assembly_s_per_eval", "dimension.zeta_evals",
                   "dimension.zeta_s", "dimension.crude_exponent_s",
                   "numerics.power_iteration_s", "numerics.power_iters_per_eval",
                   "trace_overhead.dimension")

    def __init__(self, seed: int, toy: bool, workdir: Path):
        self.ops = make_dimension_ops(seed, 6 if toy else 300)
        if toy:
            for op in self.ops:
                if op["kind"] == "finite":
                    op["batch"] = op["batch"][:3]

    def warmup(self):
        self._solve({"kind": "finite", "batch": [(1, 2)]})

    def _solve(self, op):
        dim = cusplab.dimension
        if op["kind"] == "colloc":
            return dim.transfer_dimension(dim.DigitAlphabet(op["n"], None))
        if op["kind"] == "ulam":
            return dim.ulam_dimension(dim.DigitAlphabet(op["n"], None), bins=1024)
        return [(ab, dim.transfer_dimension(dim.DigitAlphabet(*ab)),
                 dim.ulam_dimension(dim.DigitAlphabet(*ab), bins=1024))
                for ab in op["batch"]]

    def run(self, i):
        return self._solve(self.ops[i % len(self.ops)])

    def check(self, i, result) -> list[str]:
        op = self.ops[i % len(self.ops)]
        if op["kind"] == "finite":
            return finite_gates(result)
        if op["kind"] == "colloc":
            return infinite_gates(result, COLLOC_RESIDUAL,
                                  (result.bracket_lo, result.bracket_hi))
        return []  # Ulam ops are gated in finish(), against their partner

    def summary(self, result):
        return result

    def finish(self, done) -> dict:
        """Gate every Ulam solve against the collocation solve of the same N
        (criterion 4) and the crude bracket that solve carries.  A partner
        the timed phase did not reach is solved now, untimed."""
        by_pair = {}
        for i, result in done.items():
            op = self.ops[i % len(self.ops)]
            if op["kind"] != "finite":
                by_pair.setdefault(op["pair"], {})[op["kind"]] = (i, result)
        fails = {}
        for pair, sides in by_pair.items():
            i = next(iter(sides.values()))[0]
            for kind in ("colloc", "ulam"):
                if kind not in sides:
                    op = {"kind": kind, "n": self.ops[i % len(self.ops)]["n"]}
                    sides[kind] = (None, self._solve(op))
            (ci, colloc), (ui, ulam) = sides["colloc"], sides["ulam"]
            gates = []
            if not abs(colloc.dim - ulam.dim) < AGREE_TOL:
                gates.append("colloc_ulam_disagree")
            for idx, extra in ((ci, gates), (ui, gates + infinite_gates(
                    ulam, ULAM_RESIDUAL, (colloc.bracket_lo, colloc.bracket_hi)))):
                if idx is not None and extra:
                    fails[idx] = sorted(set(extra))
        return fails

    def notes(self) -> list[str]:
        return []

    def patch(self, tracer):
        dim = cusplab.dimension
        tracer.patch(dim, "transfer_dimension", "dimension.solve")
        tracer.patch(dim, "ulam_dimension", "dimension.solve")
        tracer.patch(dim, "crude_critical_exponent", "dimension.crude_exponent")
        tracer.patch(dim, "hurwitz_zeta", "dimension.zeta", count=np.size)
        tracer.patch(dim, "power_iteration", "numerics.power_iteration",
                     count=lambda res: res[2])

    def layer_metrics(self, tracer, done) -> dict:
        totals = tracer.totals()
        solve_by_kind = {"colloc": [], "ulam": [], "finite": []}
        solves = evals = iters = 0
        assembly = 0.0
        for i, t in totals.items():
            kind = self.ops[i % len(self.ops)]["kind"]
            solve_by_kind[kind].append(t["dimension.solve"][1])
            solves += t["dimension.solve"][0]
            assembly += t["dimension.solve"][2]
            evals += t["numerics.power_iteration"][0]
            iters += t["numerics.power_iteration"][3]
        out = {
            "dimension.evals_per_solve": (evals / solves, "count"),
            "dimension.assembly_s_per_eval": (assembly / evals, "s"),
            "dimension.zeta_evals": (per_op(totals, "dimension.zeta", 3), "count"),
            "dimension.zeta_s": (per_op(totals, "dimension.zeta"), "s"),
            "dimension.crude_exponent_s": (per_op(totals, "dimension.crude_exponent"), "s"),
            "numerics.power_iteration_s": (per_op(totals, "numerics.power_iteration"), "s"),
            "numerics.power_iters_per_eval": (iters / evals, "count"),
        }
        for kind, times in solve_by_kind.items():
            out[f"dimension.solve_s.{kind}"] = (
                sum(times) / len(times) if times else None, "s")
        return present(out)


# ---------------------------------------------------------------------------
# cli: README subcommands, one subprocess each
# ---------------------------------------------------------------------------

SUBCOMMANDS = ("cf", "excursions", "dim-fn", "dim-seq", "spectrum", "frostman")
ARGV_PER_SUBCOMMAND = 4
SPECTRUM_GRID = 201


def grid_end_exceeds(delta: float, grid: int = SPECTRUM_GRID) -> bool:
    """Whether ``spectrum_table``'s last grid point, lo + (delta - lo) *
    (grid - 1) / (grid - 1) with lo = 2 delta - 1, rounds above delta.  For
    such delta the library rejects its own grid point and ``spectrum`` exits
    2 (about 2 % of four-decimal delta in 0.55..0.95)."""
    lo = 2.0 * delta - 1.0
    return lo + (delta - lo) * (grid - 1) / (grid - 1) > delta


def spectrum_deltas(rng, count: int, defective: bool = False) -> list[str]:
    """``count`` four-decimal delta in 0.55..0.95 from ``rng``: those whose
    last grid point rounds above delta (``defective``), or those whose does
    not."""
    out = []
    while len(out) < count:
        spec = f"{rng.uniform(0.55, 0.95):.4f}"
        if grid_end_exceeds(float(spec)) == defective:
            out.append(spec)
    return out


def make_cli_argvs(seed: int) -> dict[str, list[list[str]]]:
    """Seeded arguments, ARGV_PER_SUBCOMMAND per subcommand; --out is added
    per op."""
    rng = np.random.default_rng([seed, 7])
    dim_fn_n = strata(seed, 9, ARGV_PER_SUBCOMMAND)
    # Known defect kept out of the timed ops and probed instead: see
    # CliWorkload.grid_end_probe.
    deltas = spectrum_deltas(np.random.default_rng([seed, 10]), ARGV_PER_SUBCOMMAND)
    pool = {name: [] for name in SUBCOMMANDS}
    for j in range(ARGV_PER_SUBCOMMAND):
        if j % 2:
            while True:
                d = int(rng.integers(10_000, 500_000))
                root = math.isqrt(d)
                if root * root != d:
                    break
            pool["cf"].append(["cf", f"sqrt:{d}-{root}/1", "--n", "60"])
        else:
            q = int(rng.integers(10 ** 12, 10 ** 18)) * int(rng.integers(10 ** 6, 10 ** 12))
            p = int(rng.integers(1, 10 ** 12)) * int(rng.integers(1, 10 ** 6)) % q or 1
            pool["cf"].append(["cf", f"{p}/{q}", "--n", "40"])
        period = ",".join(str(a) for a in rng.integers(1, 10, size=int(rng.integers(2, 7))))
        pool["excursions"].append(["excursions", f"({period})", "--horizon",
                                   str(int(rng.integers(100, 301)))])
        alpha, base = rng.uniform(1.5, 3.0), int(rng.integers(2, 4))
        pool["dim-seq"].append(["dim-seq", f"loggeom:alpha={alpha:.3f},base={base}",
                                "--n-max", "40"])
        pool["spectrum"].append(["spectrum", deltas[j], "--grid", str(SPECTRUM_GRID), "--svg"])
        pool["frostman"].append(["frostman", f"good:tau={int(rng.integers(2, 13))}",
                                 "--samples", "120", "--seed", str(int(rng.integers(0, 1000)))])
        n = round(log_uniform((j + dim_fn_n[j]) / ARGV_PER_SUBCOMMAND, 2, 20))
        pool["dim-fn"].append(["dim-fn", str(n), "--nodes", "12", "--tol", "1e-7"])
    return pool


def make_cli_ops(count: int) -> list[tuple[str, int]]:
    """Rounds of one op per subcommand, in README order; round r uses argv
    r mod ARGV_PER_SUBCOMMAND of each subcommand."""
    return [(SUBCOMMANDS[i % len(SUBCOMMANDS)], (i // len(SUBCOMMANDS)) % ARGV_PER_SUBCOMMAND)
            for i in range(count)]


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def cli_gates(proc, outputs, reference) -> list[str]:
    fails = []
    if proc.returncode != 0:
        fails.append(f"exit_{proc.returncode}")
    if b"Traceback" in proc.stderr:
        fails.append("traceback")
    if outputs != reference:
        fails.append("bytes_differ_from_in_process")
    return fails


class CliWorkload:
    name = "cli"
    round_ops = len(SUBCOMMANDS)  # one op per subcommand
    traced_min_ops = len(SUBCOMMANDS)  # one op of each subcommand
    layer_names = (("cli.interpreter_s", "cli.import_s", "cli.startup_share")
                   + tuple(f"cli.main_s.{name}" for name in SUBCOMMANDS)
                   + ("frostman.sample_s", "frostman.cdf_s", "frostman.cdf_per_ball",
                      "growth.seq_omega_rho_s", "spectra.spectrum_table_s",
                      "tableio.to_csv_s", "svgplot.render_s", "spectra.grid_end_fails",
                      "trace_overhead.cli"))

    def __init__(self, seed: int, toy: bool, workdir: Path):
        self.pool = make_cli_argvs(seed)
        self.probe_seed = seed
        self.ops = make_cli_ops(6 if toy else 600)
        self.workdir = workdir
        self.env = dict(os.environ, CUSPLAB_THREADS="1")

    def argv(self, i):
        name, j = self.ops[i % len(self.ops)]
        return self.pool[name][j]

    def warmup(self):
        self._subprocess(["cf", "3/10", "--n", "8"], "warmup")

    def _subprocess(self, argv, tag):
        out = self.workdir / f"op-{tag}"
        proc = subprocess.run([sys.executable, "-m", "cusplab", *argv, "--out", str(out)],
                              capture_output=True, env=self.env, timeout=120)
        outputs = read_outputs(out) if out.is_dir() else {}
        shutil.rmtree(out, ignore_errors=True)
        return proc, outputs

    def run(self, i):
        return self._subprocess(self.argv(i), str(i))

    def in_process(self, argv, tag):
        """``cusplab.cli.main(argv)`` in this process; returns (exit, outputs)."""
        out = self.workdir / f"inproc-{tag}"
        code = cusplab.cli.main([*argv, "--out", str(out)])
        outputs = read_outputs(out) if out.is_dir() else {}
        shutil.rmtree(out, ignore_errors=True)
        return code, outputs

    def check(self, i, result) -> list[str]:
        return []  # gated in finish(), against the in-process reference

    def startup_metrics(self, reps: int = 5) -> dict:
        """Median bare interpreter start, and ``import cusplab`` on top."""
        def median_run(code):
            runs = []
            for _ in range(reps):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, check=True)
                runs.append(time.perf_counter() - t0)
            return statistics.median(runs)

        bare = median_run("pass")
        return {"cli.interpreter_s": (bare, "s"),
                "cli.import_s": (median_run("import cusplab") - bare, "s")}

    def summary(self, result):
        return result

    def finish(self, done) -> dict:
        """Criterion 9: every op's CSV/SVG bytes equal an in-process run of
        the same argv, made now, after the timed phase."""
        reference = {}
        fails = {}
        for i, (proc, outputs) in done.items():
            key = tuple(self.argv(i))
            if key not in reference:
                code, ref = self.in_process(list(key), "ref")
                reference[key] = ref if code == 0 else None
            gates = cli_gates(proc, outputs, reference[key])
            if gates:
                fails[i] = gates
        return fails

    def notes(self) -> list[str]:
        failed, probed = self.grid_end_probe()
        return [f"known defect: {failed} of {probed} spectrum deltas whose last grid point "
                f"rounds above delta exit non-zero; probed outside the timed ops"]

    def grid_end_probe(self, count: int = 3) -> tuple[int, int]:
        """Known defect: for some delta, ``spectrum_table``'s last grid point
        rounds above delta and ``spectrum`` exits 2.  The timed ops draw only
        other delta; this runs ``count`` seeded defective ones in process.
        Returns (failed, count)."""
        rng = np.random.default_rng([self.probe_seed, 11])
        failed = 0
        for spec in spectrum_deltas(rng, count, defective=True):
            argv = ["spectrum", spec, "--grid", str(SPECTRUM_GRID), "--svg"]
            code, _ = self.in_process(argv, "probe")
            failed += code != 0
        return failed, count

    def patch(self, tracer):
        mod = cusplab.cli
        tracer.patch(mod, "main", "cli.main")
        tracer.patch(mod, "sample_rows", "frostman.sample")
        tracer.patch(cusplab.frostman, "cdf", "frostman.cdf")
        tracer.patch(cusplab.frostman, "ball_mass", "frostman.ball")
        tracer.patch(mod, "seq_omega_rho", "growth.seq_omega_rho")
        tracer.patch(mod, "spectrum_table", "spectra.spectrum_table")
        tracer.patch(cusplab.tableio.ResultTable, "to_csv", "tableio.to_csv")
        tracer.patch(cusplab.svgplot.LinePlot, "render", "svgplot.render")

    def layer_metrics(self, tracer, done) -> dict:
        """``done`` maps op index to (subprocess seconds, untraced in-process
        seconds); the traced in-process runs of the same ops made the spans."""
        totals = tracer.totals()
        by_sub = {}
        for i, t in totals.items():
            by_sub.setdefault(self.ops[i % len(self.ops)][0], []).append(t["cli.main"][1])
        balls = sum(t["frostman.ball"][0] for t in totals.values())
        cdfs = sum(t["frostman.cdf"][0] for t in totals.values())
        sub_s = sum(s for s, _ in done.values())
        main_s = sum(m for _, m in done.values())
        out = {
            "cli.startup_share": (1.0 - main_s / sub_s, "1"),
            "frostman.sample_s": (per_op(totals, "frostman.sample"), "s"),
            "frostman.cdf_s": (per_op(totals, "frostman.cdf"), "s"),
            "frostman.cdf_per_ball": (cdfs / balls if balls else None, "count"),
            "growth.seq_omega_rho_s": (per_op(totals, "growth.seq_omega_rho"), "s"),
            "spectra.spectrum_table_s": (per_op(totals, "spectra.spectrum_table"), "s"),
            "tableio.to_csv_s": (per_op(totals, "tableio.to_csv"), "s"),
            "svgplot.render_s": (per_op(totals, "svgplot.render"), "s"),
            "spectra.grid_end_fails": (self.grid_end_probe()[0], "count"),
        }
        for name, times in by_sub.items():
            out[f"cli.main_s.{name}"] = (sum(times) / len(times), "s")
        return present(out)


class CliInProcess:
    """The cli workload's ops as in-process ``main(argv)`` calls, for the
    traced run: spans can only be taken in this process."""

    name = "cli-in-process"
    round_ops = 1

    def __init__(self, cli: CliWorkload):
        self.cli = cli

    def run(self, i):
        return self.cli.in_process(self.cli.argv(i), str(i))

    def check(self, i, result) -> list[str]:
        return [] if result[0] == 0 else [f"exit_{result[0]}"]

    def summary(self, result):
        return result

    def finish(self, done) -> dict:
        return {}


WORKLOADS = {"trace": TraceWorkload, "dimension": DimensionWorkload, "cli": CliWorkload}
