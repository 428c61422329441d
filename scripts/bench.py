#!/usr/bin/env python3
"""Per-layer timings of the Moyal kernels at the reference windows, and
end-to-end timings of the default ``verify`` runs.

For each window (N, n) it starts ``REPEATS`` fresh processes.  Each one
imports ``qeuclid`` from ``--src``, runs the trace-weight check, and then
times with ``time.perf_counter``:

- the first ``quantize`` of the window, which builds its cached tables;
- ``CALLS`` further calls each of ``quantize``, ``dequantize`` and
  ``spectra.singular_profile``;
- ``CALLS`` calls of ``MoyalBackend.apply`` for each multiplier in
  ``MULTIPLIERS`` (heat at t = 1 and t = 20, Bessel at s = 1, d/dx1), each
  on a fresh element whose transform is not cached yet, after one untimed
  call that builds whatever tables the pass caches.

It then reads ``ru_maxrss`` from ``resource.getrusage``.  The table build is
the first ``quantize`` minus the median later one.  Every figure is the
median over the processes of each process's median, except ``maxrss_mb``,
which is the largest.

For each default config in ``VERIFY_RUNS`` (moyal and classical, at 1 and 2
workers) it starts ``REPEATS`` fresh processes.  Each one calls
``cli.cmd_verify`` once, writing into a temporary directory, and records:

- ``wall_s``, the call's wall time, and ``ms_per_trial``, that over the
  run's trial count;
- at 1 worker, ``suite_ms_per_trial``: each suite's summed ``run_case`` time
  over its trial count.  A trial that draws an element pays for the draw;
  trials that read an element drawn earlier at their trial index do not;
- ``maxrss_mb`` and ``children_maxrss_mb``, ``ru_maxrss`` of the process and
  of its largest waited-for child: at 2 workers, the largest pool worker.

Every figure is the median over the processes, except the two maxrss
figures, which are the largest.  BLAS runs on one thread.

    python3 scripts/bench.py --src src --label change --out BENCH_new.json

Results go under ``runs[label]`` of ``--out``; other labels already in the
file are kept, so two source trees can be measured into one file.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

WINDOWS = ((64, 64), (128, 64), (96, 96))
H, HALF_WIDTH = 1.0, 8.0
CALLS, REPEATS = 9, 3  # timed calls of each kernel per process; fresh processes per window
#: report key -> (calculus constructor, its argument)
MULTIPLIERS = {
    "apply_heat_t1_ms": ("heat_symbol", 1.0),
    "apply_heat_t20_ms": ("heat_symbol", 20.0),
    "apply_bessel_s1_ms": ("bessel_symbol", 1.0),
    "apply_d1_ms": ("derivative_symbol", 0),
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: (backend, workers) of the end-to-end runs of the default config
VERIFY_RUNS = (("moyal", 1), ("moyal", 2), ("classical", 1), ("classical", 2))


def measure(N: int, n: int) -> dict:
    """One window in this process; call it only in a fresh one."""
    from qeuclid import calculus, spectra, weyl
    from qeuclid.harness import MoyalBackend, RandomElement
    from qeuclid.symbols import sample_symbol

    # weyl imports scipy.special lazily; load it here so the first quantize times the build alone
    import scipy.special  # noqa: F401

    theta = weyl.DeformationMatrix.canonical(H)
    f = sample_symbol("gaussian", {"a": 0.5, "center": (0.5, -0.8)}, HALF_WIDTH, n, dim=2)
    weyl._validate_trace_weight(H, N)

    def timed(fn):
        t0 = perf_counter()
        out = fn()
        return perf_counter() - t0, out

    first, x = timed(lambda: weyl.quantize(f, theta, N))
    q = [timed(lambda: weyl.quantize(f, theta, N))[0] for _ in range(CALLS)]
    d = [timed(lambda: weyl.dequantize(x, HALF_WIDTH, n))[0] for _ in range(CALLS)]
    s = [timed(lambda: spectra.singular_profile(x))[0] for _ in range(CALLS)]
    q_med = statistics.median(q)
    out = {
        "table_build_s": first - q_med,
        "quantize_ms": q_med * 1e3,
        "dequantize_ms": statistics.median(d) * 1e3,
        "singular_profile_ms": statistics.median(s) * 1e3,
    }
    backend = MoyalBackend(H, N, HALF_WIDTH, n)
    el = backend.element_from_symbol(f)
    for key, (make, arg) in MULTIPLIERS.items():
        g = getattr(calculus, make)(arg)

        def fresh_apply():
            return backend.apply(g, RandomElement(el.symbol, el.payload, el.spec))

        fresh_apply()
        out[key] = statistics.median(timed(fresh_apply)[0] for _ in range(CALLS)) * 1e3
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def measure_verify(backend: str, workers: int) -> dict:
    """One default ``verify`` run in this process; call it only in a fresh one."""
    import tempfile

    from qeuclid import cli, harness

    cfg = cli.default_config(backend)
    cfg.workers = workers
    suite_s = {s.theorem: 0.0 for s in cfg.suites}
    run_case = harness.run_case

    def timed_case(backend, tid, *args):
        t0 = perf_counter()
        case = run_case(backend, tid, *args)
        suite_s[tid] += perf_counter() - t0
        return case

    harness.run_case = timed_case
    with tempfile.TemporaryDirectory() as tmp:
        cfg.out_dir = tmp
        t0 = perf_counter()
        rc = cli.cmd_verify(cfg)
        wall = perf_counter() - t0
    if rc not in (0, 2):
        raise SystemExit(f"verify --backend {backend} exited {rc}")
    trials = sum(s.n_trials for s in cfg.suites)
    out = {"rc": rc, "trials": trials, "wall_s": wall, "ms_per_trial": wall / trials * 1e3}
    if workers == 1:
        out["suite_ms_per_trial"] = {s.theorem: suite_s[s.theorem] / s.n_trials * 1e3 for s in cfg.suites}
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["children_maxrss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return out


def _fresh_runs(src: Path, *child_args: str) -> list[dict]:
    """REPEATS fresh ``--child`` processes on ``src``, with BLAS on one thread."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), **{v: "1" for v in THREAD_VARS})
    env.pop("QEUCLID_WORKERS", None)
    runs = []
    for _ in range(REPEATS):
        cmd = [sys.executable, __file__, "--child", *child_args]
        out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
        runs.append(json.loads(out.splitlines()[-1]))
    return runs


def _median_runs(runs: list[dict]) -> dict:
    """Median of each figure over the runs (per key for nested dicts); the largest maxrss."""
    out = {}
    for k, v in runs[0].items():
        if isinstance(v, dict):
            out[k] = {s: round(statistics.median(r[k][s] for r in runs), 4) for s in v}
        elif k.endswith("maxrss_mb"):
            out[k] = round(max(r[k] for r in runs), 4)
        else:
            out[k] = round(statistics.median(r[k] for r in runs), 4)
    return out


def run_window(src: Path, N: int, n: int) -> dict:
    return {"N": N, "n": n, **_median_runs(_fresh_runs(src, "window", f"{N},{n}"))}


def run_verify(src: Path, backend: str, workers: int) -> dict:
    return {"backend": backend, "workers": workers, **_median_runs(_fresh_runs(src, "verify", f"{backend},{workers}"))}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    if sys.argv[1:2] == ["--child"]:  # internal: one measurement, started by _fresh_runs
        what, arg = sys.argv[2:4]
        if what == "window":
            N, n = (int(v) for v in arg.split(","))
            print(json.dumps(measure(N, n)))
        else:
            backend, workers = arg.split(",")
            print(json.dumps(measure_verify(backend, int(workers))))
        return 0
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", type=Path, default=Path("src"), help="directory that holds the qeuclid package")
    ap.add_argument("--label", default="current")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to create or update")
    args = ap.parse_args()

    windows = []
    for N, n in WINDOWS:
        windows.append(run_window(args.src, N, n))
        print(json.dumps(windows[-1]), flush=True)
    verify = []
    for backend, workers in VERIFY_RUNS:
        verify.append(run_verify(args.src, backend, workers))
        print(json.dumps(verify[-1]), flush=True)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["machine"] = {
        "cpus": os.cpu_count(),
        "processor": cpu_model(),
        "python": platform.python_version(),
        "blas_threads": 1,
    }
    doc["protocol"] = {"h": H, "half_width": HALF_WIDTH, "calls": CALLS, "repeats": REPEATS}
    doc.setdefault("runs", {})[args.label] = {"windows": windows, "verify": verify}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
