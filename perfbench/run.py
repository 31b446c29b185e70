"""l2mult benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]

Runs from a source checkout (``src/l2mult``); the workloads, metrics and run
length are declared in ``BENCHMARK.json`` at the checkout root.  Every
process it starts is a worker (``perfbench/worker.py``) that imports the
package from ``src`` with the BLAS thread count pinned to the number of
usable CPUs:

* ``setup_s`` is the median, over ``SETUP_SAMPLES`` fresh workers, of the
  time from starting the worker to the end of its set-up (importing
  ``l2mult`` and building the inputs from the seed), scaled to the speed at
  which the reference loop below takes ``REFERENCE_S``: each worker times
  the loop right after its set-up;
* the middle one of those workers repeats passes for ``--seconds``.  It
  reports the mean pass time (``wall_s``, printed), the pass time in units
  of a fixed reference loop timed before and after every pass
  (``wall_rel``, total pass time over total reference time), its peak
  resident memory and the items that failed their correctness check.
  ``wall_rel`` is the bounded metric: on a shared host the CPU speed can
  switch between levels for seconds at a time, which moves ``wall_s`` from
  run to run far more than it moves the ratio;
* with ``--trace 1`` it alternates untraced and traced passes and reports
  the per-layer metrics instead.  Spans go to ``.bench_out/trace-*.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run exits with a
non-zero code, printing no result, when the checkout holds no package, a
worker fails, or the run would exceed ``TIME_LIMIT_S``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Criterion 2's seed (SEED + 200 in the acceptance tests); only crt_det's
# permutation instances depend on the seed.
DEFAULT_SEED = 271828 + 200
SETUP_SAMPLES = 5
# nominal duration of ``worker.reference_loop``; set-up times are scaled to it
REFERENCE_S = 0.1
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def _start_worker(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run one worker to completion; returns its set-up time, scaled by the
    reference loop it timed next, and its remaining stdout lines."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=_worker_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker exceeded the time limit") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 \
            or not lines[0].startswith("ready ") \
            or not lines[1].startswith("reference "):
        raise BenchError(f"worker exited with code {proc.returncode}")
    setup = float(lines[0].split()[1]) - t_spawn
    reference = float(lines[1].split()[1])
    return setup * REFERENCE_S / reference, lines[2:]


def run_workload(spec: dict, name: str, seed: int, seconds: int,
                 trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    out_dir = out_root / f"{name}-{os.getpid()}"
    common = ["--workload", name, "--seed", str(seed),
              "--out-dir", str(out_dir)]
    probe = common + ["--setup-only"]
    trace_file = out_root / f"trace-{name}-{seed}.json"
    try:
        # set-up samples before and after the measuring worker, so that
        # their median spans the run rather than its first seconds
        setups = [_start_worker(probe, deadline)[0]
                  for _ in range(SETUP_SAMPLES // 2)]
        setup, lines = _start_worker(
            common + ["--seconds", str(seconds), "--trace", str(trace),
                      "--trace-file", str(trace_file)], deadline)
        setups += [setup] + [_start_worker(probe, deadline)[0]
                             for _ in range(SETUP_SAMPLES // 2)]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if not lines:
        raise BenchError("worker printed no result")
    res = json.loads(lines[-1])
    if Path(res["l2mult"]) != (ROOT / "src" / "l2mult").resolve():
        raise BenchError(f"imported l2mult from {res['l2mult']}, "
                         f"not from this checkout")
    if trace:
        metrics = {m["name"]: {"value": res["layers"].get(m["name"], 0.0),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        measured = {"wall_rel": sum(res["wall_s"]) / sum(res["ref_s"]),
                    "setup_s": statistics.median(setups),
                    "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics,
            "passes": res["wall_s"], "refs": res["ref_s"], "setups": setups,
            "machine": res["machine"]}


def _print_run(name: str, seed: int, seconds: int, trace: int, res: dict):
    m = res["machine"]
    print(f"# {name}: seed {seed}, {seconds} s, trace {trace}")
    print(f"# {len(res['passes'])} untraced passes: "
          f"{' '.join(f'{t:.4g}' for t in res['passes'])} s; "
          f"reference loop: {' '.join(f'{t:.3g}' for t in res['refs'])} s; "
          f"setups: {' '.join(f'{t:.3g}' for t in res['setups'])} s")
    print(f"# machine: {m['cpu']}, nproc {m['nproc']}, Python {m['python']}, "
          f"numpy {m['numpy']}, {m['blas']}, "
          f"BLAS threads {m['blas_threads']}")
    print(f"{name}\twall_s\t{statistics.fmean(res['passes']):.6g}\ts")
    for key, metric in res["metrics"].items():
        print(f"{name}\t{key}\t{metric['value']:.6g}\t{metric['unit']}")
    frac = res["failed"] / res["attempted"]
    print(f"{name}\tfailed_frac\t{frac:.6g}\t"
          f"({res['failed']} of {res['attempted']} items)")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "l2mult" / "__init__.py").is_file():
        print(f"error: no l2mult package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in chosen:
            results[name] = run_workload(spec, name, args.seed, args.seconds,
                                         args.trace)
            _print_run(name, args.seed, args.seconds, args.trace,
                       results[name])
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    keys = ("correct", "attempted", "failed", "metrics")
    if args.workload == "all":
        print(json.dumps({n: {k: r[k] for k in keys}
                          for n, r in results.items()}))
    else:
        print(json.dumps({k: results[args.workload][k] for k in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
