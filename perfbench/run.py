"""randers-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from the
checkout's `src/` (nothing is installed); the run exits with code 2 and
prints no result when `src/` is missing.

`--trace 0` measures the end-to-end metrics. `--trace 1` runs a fixed
amount of the workload twice, first untraced and then with the tracer
wrapping every layer boundary, and reports the per-layer metrics; the
difference between the two wall times is the tracing overhead, and the
spans are written to `.bench_out/`.

The last line of standard output is the result, one JSON object with the
keys correct, attempted, failed and metrics; the line before it records
the environment, and with `--trace 0` the line before that gives the
workload's own figures behind `work_s` (build, load and query times,
throughputs, the oracle's mean relative error). The exit code is 0 when
every check passed, 1 when one failed, 2 on a usage or set-up error.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 3
WORKLOAD_NAMES = ("oracle-sphere", "oracle-product", "geodesic", "cli")

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_s": "s"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """One BLAS/OpenMP thread, set before numpy loads and inherited by
    child processes. At this benchmark's sizes a second thread gave the
    same f_distance_batch throughput at twice the CPU time, and it would
    compete with the run's own thread on a 2-CPU host."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "kdtree_query_threads": f"cKDTree.query(workers=-1) uses {nproc()} threads",
        "limits": "shared host: no CPU pinning, no page-cache control; "
                  "wall-clock figures include interference from other tenants",
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOAD_NAMES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="time one set-up in this fresh process and print its seconds")
    return p.parse_args(argv)


def probe_setup(workload, seed) -> list[float]:
    """Set-up times of fresh interpreters, one child process at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--probe-setup"],
            capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "randers_lab" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    cap_threads()
    os.environ.pop("RANDERS_LAB_CACHE", None)  # a user's cache would turn cold builds warm
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp")
    try:
        return _main(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _main(args, tmp) -> int:
    t0 = time.perf_counter()  # set-up includes importing numpy and scipy
    from workloads import WORKLOADS, Ledger

    wl = WORKLOADS[args.workload]()
    state = wl.setup(args.seed, tmp)
    setup_s = time.perf_counter() - t0
    import randers_lab

    if Path(randers_lab.__file__).resolve().parent != (SRC / "randers_lab").resolve():
        print(f"error: imported randers_lab from {randers_lab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.probe_setup:
        print(repr(setup_s))
        return 0

    ledger = Ledger()
    if args.trace:
        metrics = traced_run(args, wl, state, ledger)
    else:
        from tracer import NullTracer

        values = wl.run(state, ledger, NullTracer(), args.seconds)
        values["peak_rss_mb"] = wl.peak_rss_mb()
        values["setup_s"] = median(probe_setup(args.workload, args.seed))
        print(json.dumps({"details": {k: v for k, v in values.items() if k not in END_TO_END}}))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(json.dumps({"environment": environment()}))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if ledger.failed == 0 else 1


def traced_run(args, wl, state, ledger) -> dict:
    from tracer import PER_LAYER, NullTracer, Tracer, summarize

    t0 = time.perf_counter()
    wl.run(state, ledger, NullTracer(), 0)
    plain = time.perf_counter() - t0

    tr = Tracer()
    tr.install()
    try:
        t0 = time.perf_counter()
        wl.run(state, ledger, tr, 0)
        traced = time.perf_counter() - t0
    finally:
        tr.uninstall()
    tr.dump(str(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"))

    values = summarize(tr.spans)
    values["trace.overhead_s"] = traced - plain
    values["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
