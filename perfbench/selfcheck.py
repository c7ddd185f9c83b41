"""Toy-size self-check of the benchmark; no timing assertions.

    python3 perfbench/selfcheck.py

1. Every gate rejects a corrupted output, and an op that raises is counted
   as a failure under its exception's name.
2. Op lists are a pure function of the seed.
3. ``run.py --toy`` on each workload, and its traced run, print a last line
   of the contracted schema, with exactly the metrics and units that
   BENCHMARK.json lists, and a report line that carries the provenance.
4. A directory holding only BENCHMARK.json and perfbench/ makes run.py fail
   without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import workloads as wls  # noqa: E402
from worker import timed_loop  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PROVENANCE = ("nproc", "python", "numpy", "scipy", "blas", "git_sha", "seed")


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def check_gates():
    from cusplab import ContinuedFraction, excursion_trace

    cf = ContinuedFraction([3, 1, 4, 1, 5, 9, 2, 6] * 20)
    trace = excursion_trace(cf, 100)
    expect(wls.trace_gates(cf, trace) == [], "trace gates pass a correct trace")
    bad = dataclasses.replace(trace, records=list(trace.records))
    rec = bad.records[5]
    bad.records[5] = dataclasses.replace(rec, depth=math.log(rec.digit) + wls.DEPTH_GAP)
    expect("depth_gap" in wls.trace_gates(cf, bad), "depth gap gate")
    bad = dataclasses.replace(trace, records=list(trace.records))
    entered = [i for i, r in enumerate(bad.records) if r.entered]
    bad.records[entered[3]] = dataclasses.replace(bad.records[entered[3]], time=0.0)
    expect("times_not_increasing" in wls.trace_gates(cf, bad), "entered-times gate")
    bad = dataclasses.replace(trace, xi=trace.xi + 1e-9)
    expect("xi_mismatch" in wls.trace_gates(cf, bad), "xi gate")

    est = SimpleNamespace(dim=0.7, residual=1e-10)
    expect(wls.infinite_gates(est, wls.COLLOC_RESIDUAL, (0.6, 0.8)) == [],
           "infinite gates pass a correct solve")
    expect("outside_crude_bracket" in wls.infinite_gates(est, 1e-8, (0.71, 0.8)),
           "crude bracket gate")
    low = SimpleNamespace(dim=0.45, residual=1e-10)
    expect("dim_not_above_half" in wls.infinite_gates(low, 1e-8, (0.4, 0.8)), "dim > 1/2 gate")
    loose = SimpleNamespace(dim=0.7, residual=1e-6)
    expect("residual" in wls.infinite_gates(loose, wls.COLLOC_RESIDUAL, (0.6, 0.8)),
           "residual gate")

    def row(ab, colloc_dim, ulam_dim, residual=1e-10):
        return (ab, SimpleNamespace(dim=colloc_dim, residual=residual),
                SimpleNamespace(dim=ulam_dim, residual=1e-8))

    expect(wls.finite_gates([row((1, 2), wls.E2, wls.E2 + 1e-6)]) == [],
           "finite gates pass a correct batch")
    expect("e2_pin" in wls.finite_gates([row((1, 2), wls.E2 + 1e-11, wls.E2)]), "E2 pin gate")
    expect("colloc_ulam_disagree" in wls.finite_gates([row((3, 9), 0.6, 0.6002)]),
           "finite agreement gate")
    expect("residual" in wls.finite_gates([row((3, 9), 0.6, 0.6, 1e-7)]),
           "finite residual gate")
    expect("finite_dim_range" in wls.finite_gates([row((3, 9), 1.2, 1.2)]),
           "finite dimension range gate")

    dim = wls.DimensionWorkload(1, True, ROOT)
    colloc = SimpleNamespace(dim=0.7, residual=1e-10, bracket_lo=0.6, bracket_hi=0.8)
    ulam = SimpleNamespace(dim=0.7003, residual=1e-8)
    fails = dim.finish({0: colloc, 1: ulam})
    expect(fails.get(0) == ["colloc_ulam_disagree"]
           and "colloc_ulam_disagree" in fails.get(1, []), "criterion-4 pair gate")

    ok = SimpleNamespace(returncode=0, stderr=b"")
    expect(wls.cli_gates(ok, {"a.csv": b"x"}, {"a.csv": b"x"}) == [], "cli gates pass")
    expect("exit_4" in wls.cli_gates(SimpleNamespace(returncode=4, stderr=b""), {}, {}),
           "cli exit-code gate")
    tb = SimpleNamespace(returncode=0, stderr=b"Traceback (most recent call last)")
    expect("traceback" in wls.cli_gates(tb, {}, {}), "cli traceback gate")
    expect("bytes_differ_from_in_process" in wls.cli_gates(ok, {"a.csv": b"x"},
                                                           {"a.csv": b"y"}),
           "cli byte-identity gate")

    class Raising:
        name = "raising"
        round_ops = 1

        def run(self, i):
            if i == 1:
                raise OverflowError("too big")
            return i

        def check(self, i, result):
            return ["wrong"] if result == 2 else []

        def summary(self, result):
            return result

        def finish(self, done):
            return {}

    loop = timed_loop(Raising(), float("inf"), count=4)
    expect(loop.fails == {1: ["OverflowError"], 2: ["wrong"]} and sorted(loop.times) == [0, 2, 3]
           and loop.attempted == 4,
           "raised ops and failed checks are counted, raised ops are not timed")


def check_determinism():
    a, b = wls.make_trace_ops(5, 30), wls.make_trace_ops(5, 30)
    same = all(x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x)
               for x, y in zip(a, b))
    expect(same, "trace op list is a function of the seed")
    expect(wls.make_dimension_ops(5, 30) == wls.make_dimension_ops(5, 30),
           "dimension op list is a function of the seed")
    expect(wls.make_cli_argvs(5) == wls.make_cli_argvs(5), "cli argv pool is a function of the seed")
    expect(wls.make_dimension_ops(5, 30) != wls.make_dimension_ops(6, 30),
           "another seed gives other inputs")
    expect(wls.grid_end_exceeds(0.644) and not wls.grid_end_exceeds(0.6),
           "grid-end predicate: 0.644 rounds up, 0.6 does not")
    expect(not any(wls.grid_end_exceeds(float(argv[1]))
                   for seed in range(200) for argv in wls.make_cli_argvs(seed)["spectrum"]),
           "timed spectrum ops draw no delta whose last grid point rounds up")


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=175)


def check_schema(proc, names, label):
    expect(proc.returncode == 0, f"{label}: exit code 0 ({proc.stderr[-500:]!r})")
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(isinstance(last["attempted"], int) and last["attempted"] >= 1
           and isinstance(last["failed"], int), f"{label}: attempted/failed are counts")
    expect(last["correct"] is True and last["failed"] == 0, f"{label}: every op passed its gates")
    expect(set(last["metrics"]) == set(names), f"{label}: exactly the listed metrics")
    for name, m in last["metrics"].items():
        expect(set(m) == {"value", "unit"} and m["unit"] == names[name]
               and isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
               f"{label}: {name} has unit {names[name]}")
    report = json.loads([ln for ln in lines if ln.startswith("report ")][-1][len("report "):])
    expect(all(k in report["provenance"] for k in PROVENANCE), f"{label}: provenance")
    return report


def check_runs():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for w in SPEC["workloads"]:
        name = w["name"]
        proc = run_bench(["--workload", name, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--toy"])
        report = check_schema(proc, e2e, f"{name} end to end")
        expect("tail_percentile" in report and "fail_share" in report["metrics"],
               f"{name}: tail percentile and fail_share reported")
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    proc = run_bench(["--workload", "trace", "--seed", "3", "--seconds", "2",
                      "--trace", "1", "--toy"])
    report = check_schema(proc, layers, "traced run")
    expect(all(not p["absent"] for p in report["passes"].values()),
           "traced run: no per-layer metric absent")


def check_bare_directory():
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(["--workload", "trace", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the library source run.py fails and prints no result")


def main():
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    check_gates()
    check_determinism()
    check_bare_directory()
    check_runs()
    print("selfcheck passed")


if __name__ == "__main__":
    main()
