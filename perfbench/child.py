"""One fresh benchmark process: a set-up probe, `verify` calls or a bandwidth probe.

Run only by ``run.py``, which sets ``PYTHONPATH`` to the checkout's ``src``
and pins BLAS to one thread. Each mode writes ``result.json`` into ``--out``,
except ``loop``, which appends one line per call to ``calls.jsonl`` as it
goes, so the calls made before a crash or a kill still count.

    child.py setup  --workload W --seed S --out DIR [--oracle]
    child.py verify --workload W --seed S --out DIR [--workers K] [--trace]
    child.py loop   --workload W --seed S --out DIR --seconds T --budget B
    child.py stream --out DIR
"""

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

#: tolerances of the oracle spot-checks (relative, except the round-trip sup error);
#: the largest error measured over hundreds of seeds sits 9x or more below each.
#: The trace error is scaled by sup|f|: near the 0.55 width floor, Fock truncation
#: at N = 64 leaves up to 5e-10 of it, under the harness's 1e-8 transform gate.
TOL_DISPLACEMENT_SUM = 1e-13
TOL_TRACE = 1e-8
TOL_ROUNDTRIP = 1e-10
TOL_FFT = 1e-11


def _mixture_at_zero(spec) -> complex:
    import numpy as np

    total = 0j
    for comp in spec["components"]:
        c = np.atleast_1d(np.asarray(comp["center"], dtype=float))
        total += complex(*comp["amp"]) * np.exp(-float(c @ c) / (2 * comp["width"] ** 2))
    return total


def _displacement_sum_rel(theta, f, N, nodes) -> float:
    """quantize(f) against sum_k f_k U(t_k) dV over ``nodes`` (f is zero elsewhere)."""
    import numpy as np
    from qeuclid.symbols import axis_nodes
    from qeuclid.weyl import displacement_matrix, quantize

    s = axis_nodes(f.half_width, f.points_per_axis)
    ref = np.zeros((N, N), dtype=complex)
    for i1, i2 in nodes:
        ref += f.samples[i1, i2] * displacement_matrix(theta, (s[i1], s[i2]), N)
    ref *= f.cell_volume
    got = quantize(f, theta, N, boundary_gate=None).matrix
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def oracle_checks(backend, first) -> dict:
    """Spot-check the fast paths against independent references; name -> (error, tolerance)."""
    import numpy as np
    from qeuclid.symbols import SymbolGrid, axis_nodes, classical_fourier, sample_symbol
    from qeuclid.weyl import DeformationMatrix, dequantize, trace_tau

    theta = DeformationMatrix.canonical(1.0)
    rng = np.random.default_rng(0)
    small = sample_symbol("gaussian", {"a": 0.5}, 4.0, 10, dim=2)
    nodes = [(i, j) for i in range(10) for j in range(10)]
    out = {"weyl.small_grid_displacement_sum": (_displacement_sum_rel(theta, small, 12, nodes), TOL_DISPLACEMENT_SUM)}
    if backend.dim == 2:
        L, n, N = backend.half_width, backend.n, backend.fock_dim
        # a symbol on a few random nodes checks the workload's own table, all quadrants
        picks = [tuple(int(v) for v in rng.integers(0, n, size=2)) for _ in range(6)]
        vals = np.zeros((n, n), dtype=complex)
        for i1, i2 in picks:
            vals[i1, i2] = complex(*rng.normal(size=2))
        sparse = SymbolGrid(2, L, n, vals)
        out["weyl.window_displacement_sum"] = (_displacement_sum_rel(backend.theta, sparse, N, set(picks)), TOL_DISPLACEMENT_SUM)
        f0 = _mixture_at_zero(first.spec)
        scale = np.abs(first.symbol.samples).max()
        out["weyl.trace_tau_vs_f0"] = (abs(trace_tau(first.payload) - f0) / scale, TOL_TRACE)
        worst = 0.0
        for params in ({"a": 0.5}, {"a": 1.0, "center": (0.5, -0.8)}, {"a": 0.7, "center": (-1.0, 0.4)}):
            f = sample_symbol("gaussian", params, L, n, dim=2)
            back = dequantize(backend.element_from_symbol(f).payload, L, n)
            worst = max(worst, float(np.abs(back.samples - f.samples).max()))
        out["weyl.roundtrip_sup"] = (worst, TOL_ROUNDTRIP)
    else:
        # unnormalized transform against the direct O(n^2) sum on a small grid
        g = SymbolGrid(1, 8.0, 64, rng.normal(size=64) + 1j * rng.normal(size=64))
        t = axis_nodes(8.0, 64)
        s = axis_nodes(np.pi * 64 / 16.0, 64)
        direct = np.exp(-1j * np.outer(s, t)) @ g.samples * g.cell_volume
        fast = classical_fourier(g, -1).samples
        out["symbols.fourier_vs_direct_sum"] = (float(np.abs(fast - direct).max() / np.abs(direct).max()), TOL_FFT)
        f = first.symbol
        back = classical_fourier(classical_fourier(f, +1), -1)
        err = np.abs(back.samples / (2 * np.pi) - f.samples).max() / np.abs(f.samples).max()
        out["symbols.fourier_roundtrip"] = (float(err), TOL_FFT)
    return {k: [float(e), tol] for k, (e, tol) in out.items()}


def run_setup(args) -> dict:
    start = perf_counter()
    from qeuclid import harness
    from qeuclid.cli import make_backend

    from workloads import make_config

    cfg = make_config(args.workload, args.seed, args.out)
    backend = make_backend(cfg)
    first_trial = harness.derive_seed(cfg.master_seed, cfg.suites[0].theorem, 0)
    first = backend.sample_element(harness.derive_seed(first_trial, "element", 0))
    result = {
        "setup_s": perf_counter() - start,
        "trials": sum(s.n_trials for s in cfg.suites),
        "window": {"N": backend.fock_dim, "n": backend.n} if backend.dim == 2 else {"N": 0, "n": 0},
    }
    if args.oracle:
        result["oracle"] = oracle_checks(backend, first)
    return result


def _call(cfg) -> dict:
    """One ``cmd_verify`` call: its return code, wall time and peak RSS so far."""
    from qeuclid import cli

    start = perf_counter()
    rc = cli.cmd_verify(cfg)
    wall = perf_counter() - start
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {"rc": rc, "wall_s": wall, "peak_rss_mb": rss_kb / 1024.0, "workers": cfg.workers}


def run_verify(args) -> dict:
    from workloads import make_config

    cfg = make_config(args.workload, args.seed, args.out)
    if args.workers:
        cfg.workers = args.workers
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()  # rebinds cli.cmd_verify too
    result = _call(cfg)
    if tracer is not None:
        (Path(args.out) / "trace.json").write_text(json.dumps(tracer.dump()))
    return result


def run_loop(args) -> None:
    """``cmd_verify`` calls, each into its own directory, for about ``--seconds``.

    The next call starts while the expected end of the run, half a call on,
    is still inside ``--seconds``, and only if a call as long as the slowest
    so far fits in ``--budget``. There are at least three calls, the first
    being the warm-up.
    """
    from workloads import make_config

    log = Path(args.out) / "calls.jsonl"
    start = perf_counter()
    walls = []
    while len(walls) < 3 or perf_counter() - start + walls[-1] / 2 < args.seconds:
        if walls and perf_counter() - start + max(walls) > args.budget:
            break
        out = Path(args.out) / f"call-{len(walls):03d}"
        out.mkdir()
        res = _call(make_config(args.workload, args.seed, str(out)))
        res["out"] = str(out)
        with open(log, "a") as fh:
            fh.write(json.dumps(res) + "\n")
        walls.append(res["wall_s"])


def run_stream(args) -> dict:
    """Copy bandwidth over 448 MB arrays (4.3x a 105 MB L3); bytes read plus written."""
    import numpy as np

    src = np.ones(56_000_000)
    dst = np.empty_like(src)
    times = []
    for _ in range(6):
        t = perf_counter()
        np.copyto(dst, src)
        times.append(perf_counter() - t)
    return {"stream_gbps": 2 * src.nbytes / statistics.median(times[1:]) / 1e9}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "verify", "loop", "stream"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--budget", type=float, default=0.0)
    args = parser.parse_args()
    os.environ.pop("QEUCLID_WORKERS", None)
    if args.mode == "loop":
        run_loop(args)
        return 0
    run = {"setup": run_setup, "verify": run_verify, "stream": run_stream}[args.mode]
    result = run(args)
    (Path(args.out) / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
