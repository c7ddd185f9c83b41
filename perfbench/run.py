"""cusplab benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py [--workload trace|dimension|cli|all]
                             [--seed N] [--seconds S] [--trace 0|1] [--toy]

Run from anywhere; the library is imported from ``src/`` of the checkout
that holds this file, never from an installed copy.  Each workload runs in
fresh worker processes (``worker.py``), one at a time, with OpenBLAS, OpenMP,
MKL and ``CUSPLAB_THREADS`` pinned to one thread.

``--trace 0`` (end to end, no tracing): set-up is repeated SETUP_REPEATS
times in fresh processes and its median reported; then one worker runs the
timed closed loop.  ``--trace 1``: every workload's traced pass runs, each
for a third of ``--seconds``, so that every per-layer metric is measured.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every worker finished; a failed op does not change
it, it shows in ``failed`` and ``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("trace", "dimension", "cli")
END_TO_END = ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb")
SETUP_REPEATS = 5
BUDGET_S = 170.0  # one workload's run, or the traced run, ends within 180 s


def worker_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "CUSPLAB_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, seed, toy):
        self.seed = seed
        self.toy = toy
        self.env = worker_env()
        self.deadline = time.perf_counter() + BUDGET_S

    def worker(self, workload, mode, seconds):
        """Start a worker; return (seconds until READY, its result)."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.seed), "--seconds", repr(seconds), "--mode", mode]
        if self.toy:
            cmd.append("--toy")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env,
                                cwd=ROOT)
        ready, lines = [], []

        def pump():
            for line in proc.stdout:
                if line == "READY\n" and not ready:
                    ready.append(time.perf_counter())
                else:
                    lines.append(line)

        reader = threading.Thread(target=pump)
        reader.start()
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"perfbench: {workload} worker ({mode}) ran out of time")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            reader.join()
            proc.stdout.close()
        if proc.returncode != 0 or not ready or not lines:
            raise SystemExit(f"perfbench: {workload} worker ({mode}) failed "
                             f"with exit code {proc.returncode}")
        return ready[0] - t0, json.loads(lines[-1])

    def prime(self):
        """Import once so the bytecode cache exists before anything is timed,
        as it does for any user after the first command."""
        subprocess.run([sys.executable, "-c", "import cusplab"], env=self.env, cwd=ROOT,
                       check=True, timeout=60)

    def end_to_end(self, workload, seconds):
        self.deadline = time.perf_counter() + BUDGET_S
        setups = [self.worker(workload, "setup", 0.0)[0]
                  for _ in range(SETUP_REPEATS - 1)]
        setup, result = self.worker(workload, "run", seconds)
        setups.append(setup)
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
        result["setup_runs_s"] = setups
        return result

    def traced(self, seconds):
        results = {w: self.worker(w, "traced", seconds / len(WORKLOADS))[1]
                   for w in WORKLOADS}
        merged = {"attempted": 0, "failed": 0, "correct": True, "metrics": {},
                  "failure_classes": {}, "passes": {}}
        for w, res in results.items():
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            merged["correct"] = merged["correct"] and res["correct"]
            merged["metrics"].update(res["metrics"])
            for g, c in res["failure_classes"].items():
                merged["failure_classes"][f"{w}.{g}"] = c
            merged["passes"][w] = {k: res[k] for k in ("ops", "spans", "absent")}
            merged["provenance"] = res["provenance"]
        return merged


def print_result(label, result, names=None):
    head = f"== {label}: {result['attempted']} ops attempted, {result['failed']} failed"
    if "tail_percentile" in result:
        head += (f"; op_tail_s is p{result['tail_percentile']:.2f} of "
                 f"{result['attempted'] - result['failed']} completed ops")
    print(head)
    for name in names or sorted(result["metrics"]):
        value, unit = result["metrics"][name]
        print(f"  {name:<40} {value:<24.10g} {unit}")
    if result["failure_classes"]:
        print(f"  failure classes: {result['failure_classes']}")
    for note in result.get("notes", []):
        print(f"  note: {note}")


def contract_line(results, names, prefix):
    metrics = {}
    for workload, res in results.items():
        for name in names or res["metrics"]:
            value, unit = res["metrics"][name]
            key = f"{workload}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description="cusplab benchmark")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny op lists, for the self-check; no timing meaning")
    args = parser.parse_args()

    if not (ROOT / "src" / "cusplab" / "__init__.py").is_file():
        print(f"perfbench: no library source at {ROOT / 'src' / 'cusplab'}", file=sys.stderr)
        return 2
    runner = Runner(args.seed, args.toy)
    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    runner.prime()
    shared = {"seed": args.seed, "seconds": args.seconds, "git_sha": git_sha(),
              "toy": args.toy}
    if args.trace:
        result = runner.traced(args.seconds)
        result["provenance"].update(shared)
        print_result("traced run (per-layer metrics)", result)
        print("report " + json.dumps(result))
        line = contract_line({"traced": result}, None, prefix=False)
    else:
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in chosen:
            res = runner.end_to_end(workload, args.seconds)
            res["provenance"].update(shared, workload=workload)
            print_result(f"{workload} (end to end)", res, END_TO_END + ("fail_share",))
            print("report " + json.dumps(res))
            results[workload] = res
        line = contract_line(results, END_TO_END, prefix=len(chosen) > 1)
    for leftover in workdir.glob("op-*"):
        shutil.rmtree(leftover, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
