import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cusplab.cli import main, parse_generator_spec, parse_weights_spec, parse_x_spec

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
    seq = parse_generator_spec("loggeom:alpha=2,base=2")(10)
    assert seq.closed_form_rho == pytest.approx(1 / 3)
    assert parse_generator_spec("geom:c=2")(10).closed_form_rho == 0.5
    with pytest.raises(ValueError):
        parse_generator_spec("loggeom:alpha=2,bogus=1")
    with pytest.raises(ValueError):
        parse_generator_spec("wat:x=1")


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


def test_cf_bad_spec_exit_code():
    assert main(["cf", "0/0"]) == 2


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


def test_spec_missing_key_exit_code():
    assert main(["dim-seq", "loggeom:base=2"]) == 2
    assert main(["frostman", "range:lo=3"]) == 2


@pytest.mark.parametrize("spec", ["loggeom:alpha=nan,base=2", "poly:k=inf",
                                  "loggeom:alpha=2,base=inf"])
def test_dim_seq_non_finite_parameter_exit_code(spec, capsys):
    assert main(["dim-seq", spec]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_dim_seq_bounded_rejected():
    assert main(["dim-seq", "explicit:2,2,2,2,2,2"]) == 2


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


def test_config_bad_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("wibble = 3\n")
    assert main(["cf", "1/2", "--config", str(cfgfile)]) == 2


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
                     "good:tau=10,zeta=1", "range:lo=2,hi=5,rule=bogus", ""]),
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
