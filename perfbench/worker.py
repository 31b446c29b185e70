"""One benchmark process: imports ``l2mult``, builds a workload's inputs,
prints ``ready <monotonic time>`` and then repeats timed passes.

``run.py`` starts it with ``src`` on ``PYTHONPATH`` and the BLAS thread
count pinned in the environment, and reads the JSON line it prints last.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from spans import NullTracer, Tracer, summarize_pass

# Untraced runs report a median of at least three passes; traced runs,
# whose passes re-run the hidden sub-steps, need two of each kind.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def reference_loop() -> float:
    """Seconds for a fixed piece of pure-Python work (about 0.1 s).

    On a shared host the CPU speed can switch between levels for seconds at
    a time (about 1.6x apart on a 2-core Xeon VM), which moves the raw pass
    times of one program by as much between runs.  Timing this loop next to
    every pass measures the speed the pass ran at; it belongs to the
    benchmark, so no change to ``l2mult`` moves it.
    """
    t0 = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 30000):
        total += Fraction(1, i % 97 + 1)
        seen[i % 503] = total
    return time.perf_counter() - t0


def machine_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def measure(workload, seed: int, seconds: float, traced: bool,
            out_dir: Path, first_inputs=None) -> dict:
    """Repeat passes while the next one ends within ``seconds``, and at
    least the minimum number.

    Untraced runs time every pass.  Traced runs alternate untraced and
    traced passes, so that the tracing overhead is measured in one process.
    Inputs are rebuilt before every pass, outside the timed section, so that
    no pass reuses objects an earlier pass filled.
    """
    tracer = Tracer(f"{workload.name}-{seed}-{os.getpid()}") if traced \
        else None
    plain_walls, plain_refs, traced_passes = [], [], []
    last = {False: 0.0, True: 0.0}
    attempted = failed = 0
    errors_shown = 0
    start = time.monotonic()
    i = 0
    while True:
        kind_traced = traced and i % 2 == 1
        enough = len(traced_passes) >= MIN_TRACED_PASSES and \
            len(plain_walls) >= MIN_TRACED_PASSES if traced \
            else len(plain_walls) >= MIN_PASSES
        # stop before a pass that would end after the measuring time
        if enough and time.monotonic() - start + last[kind_traced] > seconds:
            break
        inputs = first_inputs if i == 0 and first_inputs is not None \
            else workload.inputs(seed, out_dir)
        tr = tracer if kind_traced else NullTracer()
        if kind_traced:
            tracer.begin_pass(i)
        else:
            ref = reference_loop()
        t0 = time.perf_counter()
        outcomes = workload.run(inputs, tr)
        t1 = time.perf_counter()
        if not kind_traced:
            plain_refs.append((ref + reference_loop()) / 2)
        last[kind_traced] = time.perf_counter() - t0
        verdicts = workload.check(outcomes, inputs)
        bad = [v for v in verdicts if v is not None]
        attempted += len(verdicts)
        failed += len(bad)
        for v in bad[:max(0, 5 - errors_shown)]:
            print(f"failed: {v}", file=sys.stderr)
        errors_shown += len(bad)
        if kind_traced:
            counters = tracer.pass_counters()
            raised = sum(1 for o in outcomes if isinstance(o, Exception))
            if len(bad) > raised:
                # wrong values are charged to the layer the workload calls
                key = f"{workload.entry_layer}.errors"
                counters[key] = counters.get(key, 0) + len(bad) - raised
            traced_passes.append((i, t0, t1, counters))
        else:
            plain_walls.append(t1 - t0)
        i += 1
    result = {"attempted": attempted, "failed": failed,
              "wall_s": plain_walls, "ref_s": plain_refs,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if traced:
        result["layers"] = _layer_metrics(tracer, traced_passes,
                                          statistics.median(plain_walls))
        result["spans"] = tracer.spans
    return result


def _layer_metrics(tracer, traced_passes, plain_wall: float) -> dict:
    """Median over traced passes of each span's inclusive time, each
    layer's self time, each counter, and the pass accounting."""
    per_pass = []
    for index, t0, t1, counters in traced_passes:
        spans = [s for s in tracer.spans if s["pass"] == index]
        inclusive, self_time, replica_s, uncovered = \
            summarize_pass(spans, t0, t1)
        values = dict(counters)
        values.update(inclusive)
        values.update({f"self.{layer}_s": v for layer, v in self_time.items()})
        values["trace.pass_s"] = t1 - t0
        values["trace.replica_s"] = replica_s
        values["trace.uncovered_s"] = uncovered
        values["trace.overhead_s"] = t1 - t0 - replica_s - plain_wall
        per_pass.append(values)
    names = sorted({k for v in per_pass for k in v})
    return {k: statistics.median(v.get(k, 0) for v in per_pass)
            for k in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import l2mult
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.out_dir)
    print(f"ready {time.monotonic()!r}", flush=True)
    print(f"reference {reference_loop()!r}", flush=True)
    if args.setup_only:
        return 0
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace),
                         args.out_dir, first_inputs=inputs)
    except Exception:
        traceback.print_exc()
        return 1
    result["machine"] = machine_info()
    result["l2mult"] = str(Path(l2mult.__file__).resolve().parent)
    spans = result.pop("spans", None)
    if spans is not None and args.trace_file is not None:
        args.trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "machine": result["machine"], "spans": spans}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
