#!/usr/bin/env python3
"""Per-layer timings of the Moyal kernels at the reference windows, and
end-to-end timings of the default ``verify`` runs.

Every measurement runs in a fresh process on one source tree.  For each
window (N, n) and each tree it starts ``REPEATS`` fresh processes.  Each one
times with ``time.perf_counter``:

- ``build_tables_s``: importing ``qeuclid`` from its tree and
  ``MoyalBackend(...).build_tables()``, which runs the trace-weight check and
  builds the window's cached tables, imports included; ``table_mb`` is the
  bytes the quantization tables hold, and ``fock_table_mb`` the bytes of the
  Fock-basis pass tables: the Bessel eigenvectors and eigenvalues, the
  Gauss-Laguerre rules and one heat basis (the one heat at t = 1 reads);
- ``CALLS`` calls each of ``quantize``, ``dequantize`` and
  ``spectra.singular_profile``;
- ``CALLS`` calls of ``MoyalBackend.norm`` at p = 2 and at p = 4, each on an
  element whose singular values are not cached yet;
- ``CALLS`` calls of ``MoyalBackend.sample_element``, on the seeds
  ``derive_seed(1, i)``, the same draws on every tree;
- ``CALLS`` calls of ``MoyalBackend.apply`` for each multiplier in
  ``MULTIPLIERS`` (heat at t = 1 and t = 20, Bessel at s = 1, d/dx1), each
  on a fresh element whose transform is not cached yet, after one untimed
  call that builds whatever tables the pass caches.

It then reads ``ru_maxrss`` from ``resource.getrusage``.  Every figure is
the median over the processes of each process's median, except
``maxrss_mb``, which is the largest.  Beside each such median, ``KEY_min``
and ``KEY_max`` give the least and the largest of the processes' figures,
so that a move inside that range reads as the host's spread, not the code's.

For each default config in ``VERIFY_RUNS`` (moyal and classical, at 1 and 2
workers) and each tree it starts ``REPEATS`` fresh processes.  Each one calls
``cli.cmd_verify``, writing into a temporary directory: once untimed, as a
warm-up that imports what the call imports and builds the window's tables,
then ``VERIFY_CALLS`` timed calls, as perfbench's loop does.  A single call of
0.1-0.2 s in a fresh process is too short to tell a change from the host's
drift.  For each timed call it records:

- ``wall_s``, the call's wall time, and ``ms_per_trial``, that over the
  run's trial count;
- at 1 worker, ``suite_ms_per_trial``: each suite's summed ``run_case`` time
  over its trial count.  A trial that draws an element pays for the draw;
  trials that read an element drawn earlier at their trial index do not;
- ``maxrss_mb`` and ``children_maxrss_mb``, ``ru_maxrss`` of the process and
  of its largest waited-for child: at 2 workers, the largest forked worker;
- ``minflt``, the minor page faults (``ru_minflt``) the process took during
  the call, and ``children_minflt``, those of the call's waited-for children:
  the forked workers, summed.

A process reports the median of each figure over its timed calls, and the
largest maxrss.  Every figure is the median over the processes of those
medians, with its ``KEY_min`` and ``KEY_max`` beside it, except the
per-suite figures, which are medians only, and the two maxrss figures, which
are the largest.  BLAS runs on one thread.

The trees' processes are interleaved: each repeat of a window or a verify run
starts one process per tree, in the order the trees are given on even
repeats and in reverse order on odd ones, so drift of the host over the run
falls on every tree alike.

    python3 scripts/bench.py --tree parent=../parent/src --tree change=src --out BENCH_new.json

Each tree's results go under ``runs[LABEL]`` of ``--out``, which is written
anew; with no ``--tree`` the one tree is ``current=src``.
"""

import argparse
import dataclasses
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
VERIFY_CALLS = 5  # timed verify calls per process, after one untimed warm-up call
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
    t0 = perf_counter()
    from qeuclid import calculus, spectra, weyl
    from qeuclid.harness import MoyalBackend, RandomElement, derive_seed
    from qeuclid.symbols import sample_symbol

    backend = MoyalBackend(H, N, HALF_WIDTH, n)
    backend.build_tables()
    build = perf_counter() - t0

    theta = weyl.DeformationMatrix.canonical(H)
    f = sample_symbol("gaussian", {"a": 0.5, "center": (0.5, -0.8)}, HALF_WIDTH, n, dim=2)

    def timed(fn):
        t0 = perf_counter()
        out = fn()
        return perf_counter() - t0, out

    x = weyl.quantize(f, theta, N)
    q = [timed(lambda: weyl.quantize(f, theta, N))[0] for _ in range(CALLS)]
    d = [timed(lambda: weyl.dequantize(x, HALF_WIDTH, n))[0] for _ in range(CALLS)]
    s = [timed(lambda: spectra.singular_profile(x))[0] for _ in range(CALLS)]
    out = {
        "build_tables_s": build,
        "quantize_ms": statistics.median(q) * 1e3,
        "dequantize_ms": statistics.median(d) * 1e3,
        "singular_profile_ms": statistics.median(s) * 1e3,
    }
    el = backend.element_from_symbol(f)
    for key, (make, arg) in MULTIPLIERS.items():
        g = getattr(calculus, make)(arg)

        def fresh_apply():
            return backend.apply(g, RandomElement(el.symbol, el.payload, el.spec))

        fresh_apply()
        out[key] = statistics.median(timed(fresh_apply)[0] for _ in range(CALLS)) * 1e3
    for p in (2, 4):
        fresh = [RandomElement(el.symbol, el.payload, el.spec) for _ in range(CALLS)]
        out[f"norm_p{p}_ms"] = statistics.median(timed(lambda: backend.norm(e, p))[0] for e in fresh) * 1e3
    draws = [timed(lambda: backend.sample_element(derive_seed(1, i)))[0] for i in range(CALLS)]
    out["sample_element_ms"] = statistics.median(draws) * 1e3
    out["table_mb"] = table_bytes(weyl._radial_tables(H, HALF_WIDTH, n, N)) / 1e6
    fock = (
        *calculus._jacobi_eigen(N, calculus.BESSEL_INNER_FACTOR * N),
        *calculus._gauss_laguerre(N),
        calculus._heat_basis(N, 2.0 * 1.0 / H),
    )
    out["fock_table_mb"] = sum(a.nbytes for a in fock) / 1e6
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def table_bytes(tables) -> int:
    """Bytes of the arrays a window's cached table object holds, in any of its fields."""
    total = 0
    for field in dataclasses.fields(tables):
        value = getattr(tables, field.name)
        total += sum(a.nbytes for a in (value if isinstance(value, tuple) else (value,)))
    return total


def measure_verify(backend: str, workers: int) -> dict:
    """Default ``verify`` calls in this process, one warm-up and VERIFY_CALLS timed;
    call it only in a fresh one."""
    import tempfile

    from qeuclid import cli, harness

    cfg = cli.default_config(backend)
    cfg.workers = workers
    trials = sum(s.n_trials for s in cfg.suites)
    run_case = harness.run_case

    def timed_case(backend, tid, *args):
        t0 = perf_counter()
        case = run_case(backend, tid, *args)
        suite_s[tid] += perf_counter() - t0
        return case

    def faults() -> tuple[int, int]:
        return tuple(resource.getrusage(who).ru_minflt for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    harness.run_case = timed_case
    calls = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg.out_dir = tmp
        for _ in range(1 + VERIFY_CALLS):
            suite_s = dict.fromkeys((s.theorem for s in cfg.suites), 0.0)
            before = faults()
            t0 = perf_counter()
            rc = cli.cmd_verify(cfg)
            wall = perf_counter() - t0
            minflt, children_minflt = (a - b for a, b in zip(faults(), before))
            if rc not in (0, 2):
                raise SystemExit(f"verify --backend {backend} exited {rc}")
            calls.append({
                "wall_s": wall, "ms_per_trial": wall / trials * 1e3,
                "minflt": minflt, "children_minflt": children_minflt,
                "suite_ms_per_trial": {s.theorem: suite_s[s.theorem] / s.n_trials * 1e3 for s in cfg.suites},
            })
    calls = calls[1:]  # the warm-up is not timed
    out = {"rc": rc, "trials": trials}
    for key in ("wall_s", "ms_per_trial", "minflt", "children_minflt"):
        out[key] = statistics.median(c[key] for c in calls)
    if workers == 1:
        out["suite_ms_per_trial"] = {
            tid: statistics.median(c["suite_ms_per_trial"][tid] for c in calls) for tid in calls[0]["suite_ms_per_trial"]
        }
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["children_maxrss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return out


def _fresh_run(src: Path, *child_args: str) -> dict:
    """One fresh ``--child`` process on ``src``, with BLAS on one thread."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), **{v: "1" for v in THREAD_VARS})
    env.pop("QEUCLID_WORKERS", None)
    cmd = [sys.executable, __file__, "--child", *child_args]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def interleaved(trees: dict, *child_args: str) -> dict:
    """Each tree's median figures over REPEATS fresh processes, started tree by
    tree within a repeat, the order reversed on every other repeat."""
    runs = {label: [] for label in trees}
    for r in range(REPEATS):
        for label in list(trees)[:: 1 if r % 2 == 0 else -1]:
            runs[label].append(_fresh_run(trees[label], *child_args))
    return {label: _median_runs(tree_runs) for label, tree_runs in runs.items()}


def _median_runs(runs: list[dict]) -> dict:
    """Median of each figure over the runs (per key for nested dicts), each
    scalar median with its runs' min and max beside it; the largest maxrss."""
    out = {}
    for k, v in runs[0].items():
        if isinstance(v, dict):
            out[k] = {s: round(statistics.median(r[k][s] for r in runs), 4) for s in v}
        elif k.endswith("maxrss_mb"):
            out[k] = round(max(r[k] for r in runs), 4)
        else:
            values = [r[k] for r in runs]
            out[k] = round(statistics.median(values), 4)
            out[f"{k}_min"], out[f"{k}_max"] = round(min(values), 4), round(max(values), 4)
    return out


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def tree_arg(text: str) -> tuple[str, Path]:
    label, sep, src = text.partition("=")
    if not (label and sep and src):
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, got {text!r}")
    return label, Path(src)


def main() -> int:
    if sys.argv[1:2] == ["--child"]:  # internal: one measurement, started by _fresh_run
        what, arg = sys.argv[2:4]
        if what == "window":
            N, n = (int(v) for v in arg.split(","))
            print(json.dumps(measure(N, n)))
        else:
            backend, workers = arg.split(",")
            print(json.dumps(measure_verify(backend, int(workers))))
        return 0
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument(
        "--tree", action="append", type=tree_arg, metavar="LABEL=DIR",
        help="a directory that holds the qeuclid package, and its label; repeat it to measure several trees",
    )
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args()
    pairs = args.tree or [("current", Path("src"))]
    trees = dict(pairs)
    if len(trees) != len(pairs):
        ap.error("every --tree needs its own label")

    runs = {label: {"windows": [], "verify": []} for label in trees}
    for N, n in WINDOWS:
        for label, figures in interleaved(trees, "window", f"{N},{n}").items():
            runs[label]["windows"].append({"N": N, "n": n, **figures})
            print(json.dumps({"tree": label, **runs[label]["windows"][-1]}), flush=True)
    for backend, workers in VERIFY_RUNS:
        for label, figures in interleaved(trees, "verify", f"{backend},{workers}").items():
            runs[label]["verify"].append({"backend": backend, "workers": workers, **figures})
            print(json.dumps({"tree": label, **runs[label]["verify"][-1]}), flush=True)
    doc = {
        "machine": {
            "cpus": os.cpu_count(),
            "processor": cpu_model(),
            "python": platform.python_version(),
            "blas_threads": 1,
        },
        "protocol": {"h": H, "half_width": HALF_WIDTH, "calls": CALLS, "verify_calls": VERIFY_CALLS, "repeats": REPEATS},
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
