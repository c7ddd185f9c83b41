"""One fresh benchmark process: set-up, then a timed closed loop.

Started by ``run.py`` with the thread variables already set to 1, so numpy
never sees more than one BLAS thread.  The worker writes ``READY`` on stdout
once set-up is done (interpreter, ``import cusplab``, input generation and one
untimed warm-up op) and its result as one JSON line at the end.  Everything
else the library might print goes to stderr.

Modes:
  setup   set up, then exit (run.py repeats set-up to take its median);
  run     the untraced timed loop, the end-to-end numbers;
  traced  the same ops run untraced and then traced, for per-layer numbers
          and the tracing overhead.

One op runs at a time.  Checks run between ops with the clock stopped, so
the timed phase is the sum of the op times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile


def import_library():
    """Import cusplab from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cusplab
    if Path(cusplab.__file__).resolve().parent != src / "cusplab":
        raise SystemExit(f"cusplab imported from {cusplab.__file__}, not from {src}")


@dataclass
class Loop:
    """Outcome of a run of ops: times of completed ops, failure classes,
    summaries for the layer metrics, summed op time and ops attempted."""

    times: dict = field(default_factory=dict)
    fails: dict = field(default_factory=dict)
    done: dict = field(default_factory=dict)
    clock: float = 0.0
    attempted: int = 0


def run_op(wl, i, loop, tracer=None):
    """Run op ``i``, time it and check it.  An op that raises is a failure
    under its exception's name and is not timed."""
    if tracer is not None:
        tracer.op = i
    t0 = time.perf_counter()
    try:
        result = wl.run(i)
    except Exception as exc:  # a failed op is counted, never fatal
        loop.fails[i] = [type(exc).__name__]
        return
    finally:
        dt = time.perf_counter() - t0
        loop.clock += dt
        loop.attempted += 1
        if tracer is not None:
            tracer.op = None
    loop.times[i] = dt
    gates = wl.check(i, result)
    if gates:
        loop.fails[i] = gates
    loop.done[i] = wl.summary(result)


def finish(wl, loop):
    """Apply the gates that compare ops with each other."""
    for i, gates in wl.finish(loop.done).items():
        loop.fails[i] = sorted(set(loop.fails.get(i, []) + gates))
    return loop


def timed_loop(wl, seconds, count=None, min_ops=0):
    """Run ops 0, 1, ... until ``seconds`` of op time have passed, at least
    ``min_ops`` ran and the last round of the op list is complete (so every
    run holds whole rounds and the same cost mix); or until ``count`` ops ran."""
    loop, i = Loop(), 0
    while ((loop.clock < seconds or i < min_ops or i % wl.round_ops)
           and (count is None or i < count)):
        run_op(wl, i, loop)
        i += 1
    return finish(wl, loop)


def paired_loop(wl, tracer, seconds, count=None, min_ops=0):
    """Run each op untraced and traced, alternating which goes first so that
    neither side gains from the other's warm caches.  Returns both loops."""
    plain, traced_ = Loop(), Loop()
    i = 0
    while ((plain.clock + traced_.clock < seconds or i < min_ops)
           and (count is None or i < count)):
        sides = ((plain, None), (traced_, tracer))
        for loop, tr in sides if i % 2 == 0 else sides[::-1]:
            run_op(wl, i, loop, tr)
        i += 1
    return finish(wl, plain), finish(wl, traced_)


def tail(values):
    """(value, percentile): the highest percentile with at least TAIL_BEYOND
    ops beyond it, or the maximum when there are too few ops."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def class_counts(failures):
    """How many failed ops each failure class (exception or gate) holds."""
    counts = {}
    for gates in failures:
        for g in gates:
            counts[g] = counts.get(g, 0) + 1
    return dict(sorted(counts.items()))


def provenance():
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def end_to_end(wl, seconds):
    loop = timed_loop(wl, seconds)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    passed = sum(1 for i in loop.times if i not in loop.fails)
    tail_s, pct = tail(loop.times.values())
    return {
        "attempted": loop.attempted,
        "failed": len(loop.fails),
        "correct": not loop.fails,
        "failure_classes": class_counts(loop.fails.values()),
        "tail_percentile": pct,
        "notes": wl.notes(),
        "metrics": {
            "op_p50_s": (statistics.median(loop.times.values()), "s"),
            "op_tail_s": (tail_s, "s"),
            "ops_per_s": (passed / loop.clock, "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "fail_share": (len(loop.fails) / loop.attempted, "1"),
        },
    }


def traced(wl, seconds):
    """Per-layer metrics from spans, and the tracing overhead as traced vs
    untraced op time on the same ops."""
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    wl.patch(tracer)
    try:
        if wl.name == "cli":
            # Subprocess ops cannot be traced from here: after the subprocess
            # loop, the same argv run in process, untraced and traced.
            sub = timed_loop(wl, seconds / 2, min_ops=wl.traced_min_ops)
            plain, traced_ = paired_loop(workloads.CliInProcess(wl), tracer, float("inf"),
                                         count=sub.attempted)
            for i, (_, outputs) in traced_.done.items():
                if i in sub.done and outputs != sub.done[i][1]:
                    traced_.fails.setdefault(i, []).append("bytes_differ_from_subprocess")
            layers = wl.layer_metrics(tracer, {i: (sub.times[i], plain.times[i])
                                               for i in sub.times if i in plain.times})
            layers.update(wl.startup_metrics())
            loops = [sub, plain, traced_]
        else:
            plain, traced_ = paired_loop(wl, tracer, seconds, min_ops=wl.traced_min_ops)
            layers = wl.layer_metrics(tracer, traced_.done)
            loops = [plain, traced_]
    finally:
        tracer.restore()
    common = [i for i in plain.times if i in traced_.times]
    overhead = (sum(traced_.times[i] for i in common)
                / sum(plain.times[i] for i in common)) - 1.0
    layers[f"trace_overhead.{wl.name}"] = (overhead, "1")
    absent = {name: "no op in the traced pass reached this layer"
              for name in wl.layer_names if name not in layers}
    tracer.write(ROOT / ".perfbench_work" / f"spans-{wl.name}.jsonl")
    failed = sum(len(loop.fails) for loop in loops)
    return {
        "attempted": sum(loop.attempted for loop in loops),
        "failed": failed,
        "correct": failed == 0,
        "failure_classes": class_counts(g for loop in loops for g in loop.fails.values()),
        "ops": plain.attempted,
        "spans": len(tracer.spans),
        "absent": absent,
        "metrics": layers,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()

    protocol = sys.stdout
    sys.stdout = sys.stderr
    import_library()
    import workloads

    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.toy, workdir)
    wl.warmup()
    protocol.write("READY\n")
    protocol.flush()
    if args.mode == "setup":
        result = {}
    elif args.mode == "run":
        result = end_to_end(wl, args.seconds)
    else:
        result = traced(wl, args.seconds)
    result["provenance"] = provenance()
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()


if __name__ == "__main__":
    main()
