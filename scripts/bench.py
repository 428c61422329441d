#!/usr/bin/env python3
"""Per-layer timings of the Moyal kernels at the reference windows.

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
which is the largest.  BLAS runs on one thread.

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


def run_window(src: Path, N: int, n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), **{v: "1" for v in THREAD_VARS})
    runs = []
    for _ in range(REPEATS):
        cmd = [sys.executable, __file__, "--child", f"{N},{n}"]
        out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
        runs.append(json.loads(out.splitlines()[-1]))
    result = {k: statistics.median(r[k] for r in runs) for k in runs[0] if k != "maxrss_mb"}
    result["maxrss_mb"] = max(r["maxrss_mb"] for r in runs)
    return {"N": N, "n": n, **{k: round(v, 4) for k, v in result.items()}}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    if sys.argv[1:2] == ["--child"]:  # internal: one window, started by run_window
        N, n = (int(v) for v in sys.argv[2].split(","))
        print(json.dumps(measure(N, n)))
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
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["machine"] = {
        "cpus": os.cpu_count(),
        "processor": cpu_model(),
        "python": platform.python_version(),
        "blas_threads": 1,
    }
    doc["protocol"] = {"h": H, "half_width": HALF_WIDTH, "calls": CALLS, "repeats": REPEATS}
    doc.setdefault("runs", {})[args.label] = {"windows": windows}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
