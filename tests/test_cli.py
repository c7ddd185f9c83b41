import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cusplab.contfrac
from cusplab.cli import main, parse_generator_spec, parse_weights_spec, parse_x_spec
from cusplab.config import RunConfig
from cusplab.excursions import excursion_trace, good_membership

PKG_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("CUSPLAB_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "cusplab", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# -- spec parsers -------------------------------------------------------------

def test_parse_x_spec_variants():
    assert parse_x_spec("3/10").prefix == (3, 3)
    assert parse_x_spec("(2)").digits(3) == [2, 2, 2]
    assert parse_x_spec("1,2,(3,4)").digits(5) == [1, 2, 3, 4, 3]
    assert parse_x_spec("sqrt:2-1/1").digits(4) == [2, 2, 2, 2]
    assert parse_x_spec("5,4,3").digits(3) == [5, 4, 3]
    with pytest.raises(ValueError):
        parse_x_spec("0/0")
    with pytest.raises(ValueError):
        parse_x_spec("(2")


def test_parse_generator_spec():
    seq = parse_generator_spec("loggeom:alpha=2,base=2", 10)
    assert seq.closed_form_rho == pytest.approx(1 / 3)
    assert parse_generator_spec("geom:c=2", 10).closed_form_rho == 0.5
    with pytest.raises(ValueError):
        parse_generator_spec("loggeom:alpha=2,bogus=1", 10)
    with pytest.raises(ValueError):
        parse_generator_spec("wat:x=1", 10)


def test_parse_weights_spec():
    m = parse_weights_spec("good:tau=10,kappa=2")
    assert m.lo == 10
    m = parse_weights_spec("range:lo=3,hi=8,rule=uniform")
    assert (m.lo, m.hi) == (3, 8)
    m = parse_weights_spec("single:a=4")
    assert (m.lo, m.hi) == (4, 4)


# -- subcommand behaviour --------------------------------------------------------

def test_cf_rational(capsys):
    assert main(["cf", "3/10", "--n", "8"]) == 0
    out = capsys.readouterr().out
    header, rows = parse_csv(out)
    assert header == ["n", "a_n", "p_n", "q_n"]
    assert rows[0] == ["1", "3", "1", "3"]
    assert rows[1] == ["2", "3", "3", "10"]
    assert "# subcommand=cf" in out and "# seed=0" in out and "config_hash" in out


def test_cf_periodic_convergents(capsys):
    assert main(["cf", "(2)", "--n", "3"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert [(r[2], r[3]) for r in rows] == [("1", "2"), ("2", "5"), ("5", "12")]


def test_cf_long_quadratic_period(capsys, monkeypatch):
    # a period of 12352 digits, past what a table of every state allowed
    assert main(["cf", "sqrt:1000000007-31622/1", "--n", "5"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert [int(r[1]) for r in rows] == [1, 3, 2, 11, 6]
    # a period that does not close within the step cap is a usage error
    monkeypatch.setattr(cusplab.contfrac, "_QUADRATIC_MAX_STEPS", 10_000)
    assert main(["cf", "sqrt:1000000007-31622/1", "--n", "5"]) == 2
    assert "period detection failed" in capsys.readouterr().err


def test_cf_bad_spec_exit_code():
    assert main(["cf", "0/0"]) == 2


def test_cf_negative_digit_count_exit_code():
    proc = run_cli("cf", "3/10", "--n", "-1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "cusplab: digit count must be >= 0, got -1\n"


def test_excursions_bounded_type(capsys):
    assert main(["excursions", "(2)", "--horizon", "20", "--kappa", "5", "--tau", "1"]) == 0
    out = capsys.readouterr().out
    _, rows = parse_csv(out)
    assert len(rows) == 20
    for r in rows:
        assert abs(float(r[2]) - math.log(2)) < 1.5   # depths near log 2
        assert r[6] == "1"                            # good flags all true
    assert "tail_sup_depth_over_time" in out
    # bounded type: the summary ratio is close to zero
    summary = [ln for ln in out.splitlines() if "tail_sup_depth_over_time" in ln][0]
    assert float(summary.split("=")[1]) < 0.1


def test_excursions_skipped_rows(capsys):
    # a digit 1 between digits 50 makes the ray miss that convergent's ball
    assert main(["excursions", "(50,1,50,1)", "--horizon", "20"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 20
    skipped = [r for r in rows if float(r[2]) <= 0.0]
    entered = [r for r in rows if float(r[2]) > 0.0]
    assert skipped and entered
    for r in skipped:
        assert r[3:6] == ["nan", "nan", "nan"]   # t_n, gap_n, d_over_t
        assert r[6] == "0"
    trace = excursion_trace(parse_x_spec("(50,1,50,1)"), 20)
    flags = good_membership(trace, 1.0, 1e9).flags
    assert [r[6] for r in entered] == ["1" if f else "0" for f in flags]
    assert all(r[3] != "nan" and r[5] != "nan" for r in entered)


def test_excursions_insufficient_digits():
    assert main(["excursions", "1,2,3", "--horizon", "10"]) == 3


def test_excursions_digit_beyond_float_range_exit_code():
    proc = run_cli("excursions", f"{2 ** 1030},1,1,1,1,1,1", "--horizon", "5")
    assert proc.returncode == 0
    assert proc.stderr == ""
    _, rows = parse_csv(proc.stdout)
    assert len(rows) == 5


def test_excursions_digit_beyond_float_range_in_process(capsys):
    digits = ",".join(map(str, [1, 2, 10 ** 400, 3] + [2, 1, 5] * 8))
    assert main(["excursions", digits, "--horizon", "20"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows[1][1] == str(10 ** 400)
    assert abs(float(rows[1][2]) - 400 * math.log(10)) < 2.5
    assert all(math.isfinite(float(r[3])) for r in rows if r[6] == "1")


def test_dim_fn_row(capsys):
    assert main(["dim-fn", "2", "--nodes", "14", "--tol", "1e-8"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    n, lo, hi, est, resid = rows[0]
    assert float(lo) < float(est) < float(hi)
    assert float(est) > 0.5


def test_dim_fn_rejects_n1():
    assert main(["dim-fn", "1"]) == 2


def test_dim_seq_log_geometric(capsys):
    assert main(["dim-seq", "loggeom:alpha=2,base=2", "--n-max", "30"]) == 0
    out = capsys.readouterr().out
    _, rows = parse_csv(out)
    assert float(rows[-1][2]) == pytest.approx(1 / 3, abs=1e-3)
    assert float(rows[-1][3]) == pytest.approx(1 / 3, abs=1e-12)


def test_dim_seq_geometric(capsys):
    assert main(["dim-seq", "geom:c=2", "--n-max", "400"]) == 0
    out = capsys.readouterr().out
    _, rows = parse_csv(out)
    assert float(rows[-1][2]) == pytest.approx(0.5, abs=5e-3)


@pytest.mark.parametrize("command, spec, message", [
    ("dim-seq", "geom:c=2,x=1", "unknown keys ['x']"),
    ("dim-seq", "geom:", "missing key 'c'"),
    ("dim-seq", "loggeom:base=3", "missing key 'alpha'"),
    ("dim-seq", "poly:k", "expected key=value, got 'k'"),
    ("frostman", "good:kappa=1", "missing key 'tau'"),
    ("frostman", "range:lo=1", "missing key 'hi'"),
    ("frostman", "single:a=2,b=3", "unknown keys ['b']"),
    ("frostman", "range:lo=1,hi=3,rule=bogus", "unknown weight rule 'bogus'"),
])
def test_bad_spec_message(command, spec, message, capsys):
    assert main([command, spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cusplab: {message}\n"


def test_spec_missing_key_exit_code():
    assert main(["dim-seq", "loggeom:base=2"]) == 2
    assert main(["frostman", "range:lo=3"]) == 2


@pytest.mark.parametrize("spec", ["loggeom:alpha=nan,base=2", "poly:k=inf",
                                  "loggeom:alpha=2,base=inf", "loggeom:alpha=1e11"])
def test_dim_seq_non_finite_parameter_exit_code(spec, capsys):
    assert main(["dim-seq", spec]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_dim_seq_bounded_rejected():
    assert main(["dim-seq", "explicit:2,2,2,2,2,2"]) == 2
    assert main(["dim-seq", "explicit:5,4,3,2"]) == 2


def test_spectrum_values(capsys):
    assert main(["spectrum", "0.75", "--grid", "5"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert [float(r[0]) for r in rows] == pytest.approx([0.5, 0.5625, 0.625, 0.6875, 0.75])
    assert float(rows[0][1]) == 0.0
    assert float(rows[-1][1]) == pytest.approx(0.5)
    for r in rows:
        assert float(r[2]) >= float(r[1]) - 1e-14


def test_spectrum_grid_end_rounding(capsys):
    # lo + (delta - lo) * 200/200 rounds above 0.644: the table must end at delta
    assert main(["spectrum", "0.644", "--grid", "201"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 201
    assert float(rows[-1][0]) == 0.644


def test_spectrum_degenerate_exit():
    assert main(["spectrum", "1.0"]) == 2


@pytest.mark.parametrize("spec, message", [
    ("range:lo=1,hi=1000000000000", "digit range [1, 1000000000000] exceeds 10000000 digits"),
    ("range:lo=1,hi=10000001", "digit range [1, 10000001] exceeds 10000000 digits"),
    ("good:tau=1,kappa=6", "kappa too large to normalize"),
])
def test_frostman_support_beyond_cap_exits_2_at_once(spec, message, capsys):
    start = time.perf_counter()
    assert main(["frostman", spec, "--samples", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"cusplab: {message}\n"


def test_frostman_zero_samples():
    assert main(["frostman", "good:tau=10", "--samples", "0"]) == 2


def test_frostman_report(capsys):
    assert main(["frostman", "good:tau=10", "--samples", "6", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "# fitted_exponent=" in out
    fitted = float([ln for ln in out.splitlines() if "fitted_exponent" in ln][0].split("=")[1])
    assert 0.0 < fitted < 1.0


# -- config handling ---------------------------------------------------------------

def test_config_file_and_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("horizon = 5\nseed = 42\n")
    assert main(["excursions", "(2)", "--config", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    _, rows = parse_csv(out)
    assert len(rows) == 5
    assert "# seed=42" in out
    # CLI flag beats the file
    assert main(["excursions", "(2)", "--config", str(cfgfile), "--horizon", "7"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 7


@pytest.mark.parametrize("line", ["wibble = 3", "m_eff = 5000", "power_tol = inf",
                                  "power_tol = 0.5"],
                         ids=["unknown", "retired", "retired-power_tol-inf",
                              "retired-power_tol-0.5"])
def test_config_bad_key(line, tmp_path, capsys):
    # only the RunConfig fields are keys; the retired m_eff and power_tol are not
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(line + "\n")
    assert main(["cf", "1/2", "--config", str(cfgfile)]) == 2
    key = line.split("=")[0].strip()
    assert capsys.readouterr().err == f"cusplab: unknown config key {key!r}\n"


def test_config_hash_pinned_for_non_default_settings():
    # the hashed text is frozen, retired settings included, so these never move
    assert RunConfig().config_hash() == "9e443159a191d36d"
    cfg = RunConfig(nodes=12, bisect_tol=1e-7, ulam_bins=512, seed=99, horizon=30)
    assert cfg.config_hash(extra={"N": "3,7", "ulam": True}) == "9da2c377d9489c0d"
    # output location, figure and thread count are not hashed
    cfg = RunConfig(seed=2 ** 64 - 1, out_dir="x", svg=True, threads=8)
    assert cfg.config_hash() == "b8ff26929eafda88"


@pytest.mark.parametrize("argv, cfg_text, code", [
    (["dim-fn", "2", "--tol", "nan"], None, 2),
    (["dim-fn", "2", "--tol", "inf"], None, 2),
    (["dim-fn", "2"], "bisect_tol = nan\n", 2),
    (["excursions", "(2)", "--kappa", "nan"], None, 2),
    (["excursions", "(2)", "--kappa", "inf"], None, 0),
], ids=["tol-nan", "tol-inf", "config-bisect_tol-nan", "kappa-nan", "kappa-inf"])
def test_non_finite_tolerance_and_kappa_exit_code(argv, cfg_text, code, tmp_path, capsys):
    if cfg_text is not None:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(cfg_text)
        argv = [*argv, "--config", str(cfgfile)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == (1 if code else 0), err


@pytest.mark.parametrize("argv, code", [
    (["dim-fn", "2", "--tol", "1e300"], 2),
    (["dim-fn", "2", "--tol", "1e-3"], 0),
], ids=["tol-1e300", "tol-1e-3"])
def test_tolerance_range_exit_code(argv, code, capsys):
    # the tolerance must lie in (0, 1e-3]: a coarser one returns the crude bracket
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == (1 if code else 0), err
    if code:
        assert "tol must lie in (0, 0.001]" in err


def test_frostman_nan_kappa_message_names_kappa(capsys):
    assert main(["frostman", "good:tau=10,kappa=nan", "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert "kappa" in err and err.count("\n") == 1, err


def test_dim_seq_leading_unit_terms_give_nan_estimates(capsys):
    assert main(["dim-seq", "explicit:1,1,1,1,1,3", "--n-max", "6"]) == 0
    out = capsys.readouterr().out
    assert "# omega_estimate=nan" in out.splitlines()
    assert "# rho_estimate=nan" in out.splitlines()


def test_out_dir_and_svg(tmp_path):
    assert main(["spectrum", "0.75", "--grid", "11", "--svg",
                 "--out", str(tmp_path)]) == 0
    csv_path = tmp_path / "spectrum.csv"
    svg_path = tmp_path / "spectrum.svg"
    assert csv_path.exists() and svg_path.exists()
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 2
    assert "stroke-dasharray" in svg          # the dominating curve is dashed


def test_dim_fn_svg_and_ulam_column(tmp_path):
    cfgfile = tmp_path / "fast.cfg"
    cfgfile.write_text("nodes = 12\nbisect_tol = 1e-7\nulam_bins = 512\n")
    assert main(["dim-fn", "2,5", "--ulam", "--svg", "--config", str(cfgfile),
                 "--out", str(tmp_path)]) == 0
    header, rows = parse_csv((tmp_path / "dim_fn.csv").read_text())
    assert header[-1] == "ulam_estimate"
    for r in rows:
        assert abs(float(r[3]) - float(r[5])) < 1e-3  # coarse bins, loose check
    svg = (tmp_path / "dim_fn.svg").read_text()
    assert svg.count("<polyline") == 2  # estimates plus the 1/2 asymptote


# -- pinned README outputs -------------------------------------------------------

# sha256 of each file the README commands write, for the subcommands that run
# on the standard library alone (dim-fn and frostman pass through numpy
# reductions whose last bits may differ between machines).  A change that
# moves these numbers on purpose updates the constants.
README_OUTPUT_SHA256 = {
    ("cf", "3/10", "--n", "8"): {
        "cf.csv": "5d8db14f2d92ba2a49ea3e63cc447b76bdd5401799f591892d5ee44062b97778"},
    ("cf", "sqrt:2-1/1", "--n", "12"): {
        "cf.csv": "b0cacc160a4039c7eafd60beed5b0a3abde12899b2f34da9a89477f57989b8d3"},
    ("excursions", "(2)", "--horizon", "40", "--tau", "1", "--kappa", "5"): {
        "excursions.csv": "25900a266ca7ba0f8630cede7f94153b5b891943dfb531939b328b189da66704"},
    ("dim-seq", "loggeom:alpha=2,base=2", "--n-max", "30"): {
        "dim_seq.csv": "b3c5ce02d4d3fe98d5ac6e37be32fe5d5080f32fa6541483f04ef1fd474184ea"},
    ("spectrum", "0.75", "--grid", "201", "--svg"): {
        "spectrum.csv": "1f78430e9bf174d12d853a78fe545c2587e2bf3896e86aa21a442a5cddbad3d3",
        "spectrum.svg": "f5f3718e6c9b72bf3cf6fa8ed97c5d6c8c666e0a983380de9c35c435fa8826bc"},
}


@pytest.mark.parametrize("argv", list(README_OUTPUT_SHA256),
                         ids=["cf-rational", "cf-quadratic", "excursions", "dim-seq",
                              "spectrum"])
def test_readme_output_bytes_pinned(argv, tmp_path):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in tmp_path.iterdir()}
    assert got == README_OUTPUT_SHA256[argv]


# bracket_lo, bracket_hi, dim_estimate, residual of `dim-fn 2,5,10,100` as
# computed with scipy's Hurwitz zeta; the library's own kernel must reproduce
# them to 1e-14
README_DIM_FN_VALUES = {
    2: (0.79139454858709568, 0.8643236194984748, 0.84088458641466723,
        4.3876013933186186e-13),
    5: (0.72889703223575386, 0.74147375213134481, 0.74044408781618476,
        7.8825834748386114e-15),
    10: (0.69748653329034471, 0.70163604726310558, 0.70150182669933658,
         3.3505420660162599e-12),
    100: (0.63890917004039538, 0.63907862387678249, 0.63907825086562586,
          3.3306690738754696e-16),
}


def test_readme_dim_fn_values_pinned(tmp_path):
    assert main(["dim-fn", "2,5,10,100", "--out", str(tmp_path)]) == 0
    header, rows = parse_csv((tmp_path / "dim_fn.csv").read_text())
    assert header == ["N", "bracket_lo", "bracket_hi", "dim_estimate", "residual"]
    assert [int(r[0]) for r in rows] == list(README_DIM_FN_VALUES)
    for r in rows:
        for got, want in zip(r[1:], README_DIM_FN_VALUES[int(r[0])]):
            assert abs(float(got) - want) <= 1e-14


# the same columns of two more README commands, whose direct digit counts
# differ most between summing the digits up to 16N and summing 128: the
# sweep's N = 1000 row, and `dim-fn 2,100 --nodes 100`
DIM_FN_PINNED_ROWS = {
    ("1000", "--nodes", "20", "--tol", "1e-9"): {
        1000: (0.60975178946793107, 0.60976136408100567, 0.60976136235565614,
               1.0820233597996776e-12)},
    ("2,100", "--nodes", "100"): {
        2: (0.79139454858709568, 0.8643236194984748, 0.84088458641466646,
            4.2577052994374753e-13),
        100: (0.63890917004039538, 0.63907862387678249, 0.63907825086562586,
              4.4408920985006262e-16)},
}


@pytest.mark.parametrize("args", list(DIM_FN_PINNED_ROWS), ids=["sweep-1000", "nodes-100"])
def test_dim_fn_rows_pinned(args, tmp_path):
    assert main(["dim-fn", *args, "--out", str(tmp_path)]) == 0
    _, rows = parse_csv((tmp_path / "dim_fn.csv").read_text())
    want = DIM_FN_PINNED_ROWS[args]
    assert [int(r[0]) for r in rows] == list(want)
    for r in rows:
        for got, pinned in zip(r[1:], want[int(r[0])]):
            assert abs(float(got) - pinned) <= 1e-14


def test_dim_fn_at_100_nodes(tmp_path):
    # the collocation tail stays accurate at high node counts: the N = 100 root
    # at 100 nodes is the README's 20-node root
    assert main(["dim-fn", "2,100", "--nodes", "100", "--out", str(tmp_path)]) == 0
    header, rows = parse_csv((tmp_path / "dim_fn.csv").read_text())
    dim = {int(r[0]): float(r[header.index("dim_estimate")]) for r in rows}
    assert abs(dim[100] - README_DIM_FN_VALUES[100][2]) <= 1e-14


# -- determinism (subprocess level) ---------------------------------------------

def test_csv_byte_determinism_across_runs_and_threads(tmp_path):
    outs = []
    for tag, threads in (("a", "1"), ("b", "8"), ("c", "1")):
        d = tmp_path / tag
        r = run_cli("frostman", "good:tau=10", "--samples", "5", "--seed", "7",
                    "--out", str(d), env_extra={"CUSPLAB_THREADS": threads})
        assert r.returncode == 0, r.stderr
        outs.append((d / "frostman.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


_IMPORT_PROBE = ("import sys, cusplab, cusplab.cli; "
                 "code = cusplab.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
                 "print(code, 'numpy' in sys.modules, 'scipy' in sys.modules)")
# a narrow finite range (gather digits only) and a wide one (gather plus head)
_LIBRARY_PROBE = ("import sys; from cusplab.dimension import DigitAlphabet, ulam_dimension; "
                  "ulam_dimension(DigitAlphabet(1, 2), bins=1024); "
                  "ulam_dimension(DigitAlphabet(1, 200), bins=256); "
                  "print(0, 'numpy' in sys.modules, 'scipy' in sys.modules)")


@pytest.mark.parametrize("argv, numpy_loaded", [
    (["cf", "3/10", "--n", "8"], False),
    (["cf", "sqrt:2-1/1", "--n", "12"], False),
    (["excursions", "(2)", "--horizon", "40", "--tau", "1", "--kappa", "5"], False),
    (["dim-seq", "loggeom:alpha=2,base=2", "--n-max", "30"], False),
    (["spectrum", "0.75", "--grid", "201", "--svg"], False),
    (["frostman", "good:tau=10,kappa=2", "--samples", "120", "--seed", "7"], True),
    (["dim-fn", "2", "--nodes", "8", "--tol", "1e-6"], True),
    (["dim-fn", "2", "--ulam", "--nodes", "8", "--tol", "1e-6"], True),
    ([], False),
    (None, True),
], ids=["cf-rational", "cf-quadratic", "excursions", "dim-seq", "spectrum", "frostman",
        "dim-fn", "dim-fn-ulam", "import-only", "library-ulam-finite"])
def test_scipy_imported_only_by_dimension_solves(argv, numpy_loaded, tmp_path):
    # numpy is loaded only by the subcommands that compute with it
    # (frostman, dim-fn), and scipy by none: no library path imports it, not
    # even a finite-range Ulam solve (argv None runs that in the library)
    probe = [_LIBRARY_PROBE] if argv is None else [_IMPORT_PROBE, *argv]
    out = ["--out", str(tmp_path)] if argv else []
    proc = subprocess.run([sys.executable, "-c", *probe, *out],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", str(numpy_loaded), "False"]


def test_bad_threads_env():
    r = run_cli("cf", "1/2", env_extra={"CUSPLAB_THREADS": "zero"})
    assert r.returncode == 2


# -- exit-code fuzz (in process) ------------------------------------------------

def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _floats(lo, hi):
    return st.one_of(st.floats(lo, hi).map(repr),
                     st.sampled_from(["nan", "inf", "-inf", "1e400", "x", ""]))


def _digits(lo, hi, size):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=size).map(
        lambda ds: ",".join(map(str, ds)))


_X_SPEC = st.one_of(
    st.sampled_from(["3/10", "(2)", "sqrt:2-1/1", "1,2,(3,4)", "5,4,3", "0/0", "1/0",
                     "(2", "()", "(0)", "sqrt:4-1/1", "sqrt:0+1/1", "", ",", "a,b",
                     "-3/7", "7/-3", "1/1", f"{2 ** 1030},1,1,1,1,1,1"]),
    _digits(0, 9, 70),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-30, 30), st.integers(-30, 60)),
    st.builds(lambda d, r, q: f"sqrt:{d}{r:+d}/{q}", st.integers(0, 40),
              st.integers(-9, 9), st.integers(-2, 6)),
    st.builds(lambda pre, per: f"{pre}({per})", _digits(0, 9, 3).map(lambda t: t + ","),
              _digits(0, 9, 3)),
    st.text(max_size=10),
)

_GENERATOR = st.one_of(
    st.sampled_from(["loggeom:base=2", "loggeom:alpha=2,bogus=1", "geom:c=x", "poly:",
                     "explicit:", "explicit:2,2,2,2,2,2", "wat:x=1", "geom:c", ""]),
    st.builds(lambda a, b: f"loggeom:alpha={a},base={b}", _floats(-1, 4), _floats(-1, 9)),
    st.builds(lambda c: f"geom:c={c}", _ints(-1, 9)),
    st.builds(lambda k: f"poly:k={k}", _floats(-1, 5)),
    st.builds(lambda v: f"explicit:{v}", _digits(0, 10 ** 6, 40)),
)

_WEIGHTS = st.one_of(
    st.sampled_from(["good:kappa=2", "range:lo=3", "single:", "single:a=x", "bogus:a=1",
                     "good:tau=10,zeta=1", "range:lo=2,hi=5,rule=bogus", "",
                     "range:lo=1,hi=1000000000000", "range:lo=1,hi=10000001",
                     "good:tau=1,kappa=6"]),
    st.builds(lambda t, k: f"good:tau={t},kappa={k}", _ints(-1, 30), _floats(-1, 4)),
    st.builds(lambda lo, w, rule: f"range:lo={lo},hi={lo + w},rule={rule}",
              st.integers(-1, 30), st.integers(-2, 100),
              st.sampled_from(["inverse_successor", "uniform"])),
    st.builds(lambda a: f"single:a={a}", _ints(-1, 50)),
)

_COMMON = st.lists(st.sampled_from([
    ["--seed", "7"], ["--svg"], ["--horizon", "25"], ["--tol", "1e-6"],
    ["--seed", "-1"], ["--seed", str(2 ** 64)], ["--horizon", "0"], ["--tol", "0"],
    ["--bogus"]]), max_size=2)

_ARGV = st.one_of(
    st.builds(lambda x, n: ["cf", x, "--n", n], _X_SPEC, _ints(-3, 60)),
    st.builds(lambda x, h, tau, kappa: ["excursions", x, "--horizon", h, "--tau", tau,
                                        "--kappa", kappa],
              _X_SPEC, _ints(-1, 60), _floats(-1, 20), _floats(-1, 20)),
    st.builds(lambda g, n, k: ["dim-seq", g, "--n-max", n, "--inflation-k", k],
              _GENERATOR, _ints(-2, 60), _floats(-1, 3)),
    st.builds(lambda d, g: ["spectrum", d, "--grid", g], _floats(0.3, 1.2), _ints(-2, 300)),
    st.builds(lambda w, n: ["frostman", w, "--samples", n], _WEIGHTS, _ints(-1, 3)),
    st.lists(st.text(max_size=8), max_size=4),
)


def _exit_code(argv):
    """main(argv) in process, with outputs discarded; argparse's SystemExit
    counts as its exit status.  Any other exception escapes the test."""
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main([*argv, "--out", out])
        except SystemExit as exc:
            return exc.code


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_ARGV, common=_COMMON)
def test_fuzz_exit_codes(argv, common):
    assert _exit_code(argv + [t for opt in common for t in opt]) in (0, 2, 3, 4)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n_list=st.one_of(_digits(-1, 50, 3), st.sampled_from(["", ",", "a", "2,,3", "1e3"])),
       nodes=st.sampled_from(["8", "10", "12", "3"]), svg=st.booleans())
def test_fuzz_exit_codes_dim_fn(n_list, nodes, svg):
    argv = ["dim-fn", n_list, "--nodes", nodes, "--tol", "1e-6"] + ["--svg"] * svg
    assert _exit_code(argv) in (0, 2, 3, 4)
