"""cusplab command line: cf | excursions | dim-fn | dim-seq | spectrum | frostman.

Exit codes: 0 success, 2 usage/config error, 3 insufficient digits,
4 numeric failure.  Every CSV embeds the subcommand, config hash and seed in
'#' comment lines; outputs are byte-identical for identical configuration,
including under any CUSPLAB_THREADS setting.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

from .config import RunConfig, resolve_config
from .contfrac import ContinuedFraction, convergent_pairs
from .excursions import excursion_trace, good_membership, jarnik_ratios
from .growth import GrowthSequence, seq_omega_rho
from .numerics import InsufficientDigitsError, NumericError
from .spectra import spectrum_table
from .svgplot import LinePlot, Polyline
from .tableio import ResultTable

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 2, 3, 4


# -- input grammars ----------------------------------------------------------

_SQRT_RE = re.compile(r"^sqrt:(\d+)([+-]\d+)/(\d+)$")


def parse_x_spec(spec: str) -> ContinuedFraction:
    """Number spec: 'p/q' rational, 'sqrt:D(+|-)r/s' quadratic, '(a,b,...)'
    periodic digits, 'a1,a2,(b1,...)' preperiodic, or 'a1,a2,...' explicit."""
    spec = spec.strip()
    m = _SQRT_RE.match(spec)
    if m:
        d, add, den = int(m.group(1)), int(m.group(2)), int(m.group(3))
        return ContinuedFraction.from_quadratic(d, add, den)
    if "(" in spec:
        head, _, tail = spec.partition("(")
        if not tail.endswith(")"):
            raise ValueError(f"unbalanced parentheses in {spec!r}")
        pre = [int(t) for t in head.rstrip(",").split(",") if t.strip()]
        per = [int(t) for t in tail[:-1].split(",") if t.strip()]
        return ContinuedFraction.from_periodic(pre, per)
    if "/" in spec:
        p_str, q_str = spec.split("/", 1)
        p, q = int(p_str), int(q_str)
        if q == 0:
            raise ValueError("zero denominator")
        return ContinuedFraction.from_rational(p, q)
    digits = [int(t) for t in spec.split(",") if t.strip()]
    if not digits:
        raise ValueError(f"empty digit list {spec!r}")
    return ContinuedFraction(digits)


def _spec_values(body: str, required, optional=None) -> list:
    """The values of a 'key=value,...' spec body: those of the ``required``
    keys in order, then those of the ``optional`` ones (a dict of defaults).
    A missing or an unknown key is a usage error."""
    optional = optional or {}
    kv = {}
    for part in body.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise ValueError(f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        kv[k.strip()] = v.strip()
    for key in required:
        if key not in kv:
            raise ValueError(f"missing key {key!r}")
    unknown = kv.keys() - set(required) - optional.keys()
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    return [kv[k] for k in required] + [kv.get(k, d) for k, d in optional.items()]


def parse_generator_spec(spec: str, n: int) -> GrowthSequence:
    """The first n terms of a growth spec: 'loggeom:alpha=A,base=B' |
    'geom:c=C' | 'poly:k=K' | 'explicit:v1,v2,...'."""
    kind, _, body = spec.strip().partition(":")
    if kind == "loggeom":
        alpha, base = _spec_values(body, ("alpha",), {"base": "2"})
        return GrowthSequence.log_geometric(float(alpha), n, base=float(base))
    if kind == "geom":
        (c,) = _spec_values(body, ("c",))
        return GrowthSequence.geometric(int(c), n)
    if kind == "poly":
        (k,) = _spec_values(body, ("k",))
        return GrowthSequence.polynomial(float(k), n)
    if kind == "explicit":
        values = [float(t) for t in body.split(",") if t.strip()]
        return GrowthSequence.explicit(values[:n])
    raise ValueError(f"unknown generator kind {kind!r}")


def parse_weights_spec(spec: str):
    """Measure spec: 'good:tau=T,kappa=K' | 'range:lo=L,hi=H[,rule=R]' |
    'single:a=A'."""
    from .frostman import CylinderMeasure, good_measure

    kind, _, body = spec.strip().partition(":")
    if kind == "good":
        tau, kappa = _spec_values(body, ("tau",), {"kappa": "2"})
        return good_measure(int(tau), float(kappa))
    if kind == "range":
        lo, hi, rule = _spec_values(body, ("lo", "hi"), {"rule": "inverse_successor"})
        return CylinderMeasure.from_rule(int(lo), int(hi), rule)
    if kind == "single":
        (a,) = _spec_values(body, ("a",))
        return CylinderMeasure.from_rule(int(a), int(a), "uniform")
    raise ValueError(f"unknown weights kind {kind!r}")


# -- subcommands -------------------------------------------------------------

def _provenance(cfg, subcommand, params):
    return {
        "subcommand": subcommand,
        "config_hash": cfg.config_hash(extra=params),
        "seed": cfg.seed,
    }


def cmd_cf(args, cfg):
    cf = parse_x_spec(args.x)
    n = args.n
    avail = cf.available()
    if not math.isinf(avail):
        n = min(n, int(avail))
    digits = cf.digits(n)
    table = ResultTable(["n", "a_n", "p_n", "q_n"],
                        provenance=_provenance(cfg, "cf", {"x": args.x, "n": args.n}))
    for k, (a, (p, q)) in enumerate(zip(digits, convergent_pairs(digits)), start=1):
        table.add(k, a, p, q)
    return table, None


def cmd_excursions(args, cfg):
    cf = parse_x_spec(args.x)
    trace = excursion_trace(cf, cfg.horizon)
    membership = good_membership(trace, args.tau, args.kappa)
    ratios = jarnik_ratios(trace)
    entered = zip(membership.flags, ratios.theta_seq)
    table = ResultTable(
        ["n", "a_next", "d_n", "t_n", "gap_n", "d_over_t", "good_flag"],
        provenance=_provenance(cfg, "excursions",
                               {"x": args.x, "kappa": args.kappa, "tau": args.tau,
                                "horizon": cfg.horizon}))
    for rec in trace.records:
        if rec.entered:
            flag, d_over_t = next(entered)
            table.add(rec.index, rec.digit, rec.depth, rec.time,
                      rec.gap_to_next if rec.gap_to_next is not None else float("nan"),
                      d_over_t, flag)
        else:
            table.add(rec.index, rec.digit, rec.depth, float("nan"),
                      float("nan"), float("nan"), False)
    table.footer["tail_sup_depth_over_time"] = ratios.theta_hat
    table.footer["tail_sup_depth_over_sum"] = ratios.ratio_hat
    table.footer["good_verdict"] = membership.verdict
    return table, None


def cmd_dim_fn(args, cfg):
    from .dimension import good_dimension_sweep

    rows = good_dimension_sweep(
        [int(t) for t in args.N.split(",") if t.strip()], nodes=cfg.nodes, tol=cfg.bisect_tol,
        ulam_bins=cfg.ulam_bins if args.ulam else None, threads=cfg.threads)
    cols = ["N", "bracket_lo", "bracket_hi", "dim_estimate", "residual"]
    if args.ulam:
        cols.append("ulam_estimate")
    table = ResultTable(cols, provenance=_provenance(
        cfg, "dim-fn", {"N": args.N, "ulam": bool(args.ulam)}))
    for row in rows:
        table.add(*row)
    svg = None
    if cfg.svg:
        pts = [(math.log10(r[0]), r[3]) for r in rows]
        lo = min(p[0] for p in pts)
        hi = max(p[0] for p in pts)
        plot = LinePlot(
            [Polyline(pts, color="#1f5faa", label="dim estimate"),
             Polyline([(lo, 0.5), (hi, 0.5)], dashed=True, color="#aa3311",
                      label="1/2")],
            xlabel="log10 N", ylabel="dimension",
            xticks=[p[0] for p in pts], yticks=[0.5, 0.75, 1.0],
            title="restricted-digit dimension vs N")
        svg = plot.render()
    return table, svg


def cmd_dim_seq(args, cfg):
    seq = parse_generator_spec(args.generator, args.n_max + 1)
    est = seq_omega_rho(seq, inflation_k=args.inflation_k)
    table = ResultTable(
        ["n", "omega_hat", "rho_hat", "closed_form_rho"],
        provenance=_provenance(cfg, "dim-seq",
                               {"generator": args.generator, "n_max": args.n_max,
                                "inflation_k": args.inflation_k}))
    cf_rho = seq.closed_form_rho
    for i, (omega, rho) in enumerate(zip(est.omega_hat, est.rho_hat), start=1):
        table.add(i, omega, rho, cf_rho if cf_rho is not None else float("nan"))
    table.footer["omega_estimate"] = est.omega_estimate
    table.footer["rho_estimate"] = est.rho_estimate
    return table, None


def cmd_spectrum(args, cfg):
    rows = spectrum_table(args.delta, args.grid)
    table = ResultTable(["beta", "strict", "stratmann"],
                        provenance=_provenance(cfg, "spectrum",
                                               {"delta": args.delta, "grid": args.grid}))
    for row in rows:
        table.add(*row)
    svg = None
    if cfg.svg:
        delta = args.delta
        lo = 2.0 * delta - 1.0
        pad = 0.35 * (delta - lo)
        strict_pts = [(b, s) for b, s, _ in rows]
        strat_pts = ([(max(lo - pad, 1e-9), 0.0)]
                     + [(b, t) for b, _, t in rows]
                     + [(delta + pad, delta)])
        plot = LinePlot(
            [Polyline(strat_pts, dashed=True, color="#aa3311", label="lower-limit spectrum"),
             Polyline(strict_pts, color="#1f5faa", label="strict spectrum")],
            xlabel="beta", ylabel="dimension",
            xticks=[lo, delta], yticks=[0.0, 0.5, delta],
            title=f"weak multifractal spectra, delta={delta:g}")
        svg = plot.render()
    return table, svg


def sample_rows(measure, seed, idx):
    # a function, not an import, so that cli loads without numpy while the
    # traced benchmark can still rebind cli.sample_rows; ROADMAP item 6 drops it
    from .frostman import sample_rows
    return sample_rows(measure, seed, idx)


def cmd_frostman(args, cfg):
    if args.samples < 1:
        raise ValueError("need a positive sample count")
    measure = parse_weights_spec(args.weights)
    table = ResultTable(["sample", "r", "ball_mass", "log_ratio"],
                        provenance=_provenance(cfg, "frostman",
                                               {"weights": args.weights,
                                                "samples": args.samples}))
    fitted = math.inf
    for idx in range(args.samples):
        for row in sample_rows(measure, cfg.seed, idx):
            table.add(*row)
            fitted = min(fitted, row[-1])
    table.footer["fitted_exponent"] = fitted
    return table, None


# -- wiring ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cusplab",
        description="cusp excursions, restricted continued fractions, and "
                    "dimension estimation on the modular surface")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat key=value config file")
    common.add_argument("--out", dest="out_dir", metavar="DIR",
                        help="write CSV/SVG under DIR instead of stdout")
    common.add_argument("--seed", type=int, help="64-bit RNG seed")
    common.add_argument("--horizon", type=int, help="excursion horizon N")
    common.add_argument("--tol", dest="bisect_tol", type=float,
                        help="bisection tolerance on s, in (0, 1e-3]")
    common.add_argument("--nodes", type=int, help="collocation nodes")
    common.add_argument("--svg", action="store_true", default=None, help="emit SVG plot too")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cf", parents=[common], help="digits and convergents")
    p.add_argument("x", help="number spec: p/q | sqrt:D(+|-)r/s | (a,b,...) | a1,a2,...")
    p.add_argument("--n", type=int, default=12, help="number of digits, >= 0")
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("excursions", parents=[common], help="excursion trace table")
    p.add_argument("x", help="number spec")
    p.add_argument("--kappa", type=float, default=1e9, help="gap bound for the good flag")
    p.add_argument("--tau", type=float, default=1.0, help="depth threshold exp scale")
    p.set_defaults(func=cmd_excursions)

    p = sub.add_parser("dim-fn", parents=[common], help="restricted-digit dimension sweep")
    p.add_argument("N", help="comma-separated lower digit bounds, each >= 2")
    p.add_argument("--ulam", action="store_true", help="add the independent Ulam column")
    p.set_defaults(func=cmd_dim_fn)

    p = sub.add_parser("dim-seq", parents=[common], help="growth-sequence exponents")
    p.add_argument("generator", help="loggeom:alpha=A[,base=B] | geom:c=C | poly:k=K | explicit:v1,v2,...")
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--inflation-k", type=float, default=1.0)
    p.set_defaults(func=cmd_dim_seq)

    p = sub.add_parser("spectrum", parents=[common], help="spectrum table and figure")
    p.add_argument("delta", type=float, help="exponent of convergence, in (1/2, 1)")
    p.add_argument("--grid", type=int, default=101)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("frostman", parents=[common], help="mass-distribution exponent report")
    p.add_argument("weights", help="good:tau=T[,kappa=K] | range:lo=L,hi=H[,rule=R] | single:a=A")
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=cmd_frostman)
    return parser


def _emit(table, svg, args, cfg):
    csv_text = table.to_csv()
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        name = args.command.replace("-", "_")
        (out / f"{name}.csv").write_text(csv_text, encoding="utf-8")
        if svg is not None:
            (out / f"{name}.svg").write_text(svg, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)
        if svg is not None:
            sys.stderr.write("note: --svg without --out discards the figure\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the common flags carry the names of the RunConfig fields they set
        cfg = resolve_config(args.config, {f.name: getattr(args, f.name, None)
                                           for f in fields(RunConfig)})
        table, svg = args.func(args, cfg)
        _emit(table, svg, args, cfg)
        return EXIT_OK
    except InsufficientDigitsError as exc:
        print(f"cusplab: insufficient digits: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, ArithmeticError) as exc:
        print(f"cusplab: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, TypeError, OSError) as exc:
        print(f"cusplab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
