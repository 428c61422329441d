"""Command-line entry point: configure, verify, probe.

Byte-identical reports across runs and worker counts are part of the
contract, so BLAS threading is pinned to one thread (at the top of
``qeuclid/__init__.py``, before numpy loads) and every trial is computed in a
fixed, seed-derived way regardless of the worker layout.  With more than one
worker, ``verify`` forks its workers directly: they hand the next trial index
to each other through a one-token pipe, each sends its rows back once, through
a pipe of its own, when the indices run out, and the rows are placed by index.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import pickle
import select
import signal
import sys
from dataclasses import asdict, dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Optional

import numpy as np

from . import calculus, harness, symbols
from .harness import MoyalBackend, registry_ids
from .oracle import ClassicalBackend

__all__ = ["RunConfig", "SuiteConfig", "default_config", "cmd_verify", "cmd_probe", "main"]

CONSTANT_ONE_TRIALS = 100
EMPIRICAL_TRIALS = 200
CLASSICAL_TRIALS = 50


@dataclass
class SuiteConfig:
    theorem: str
    n_trials: int
    params_grid: Optional[list] = None


@dataclass
class RunConfig:
    backend: str = "moyal"
    theta_h: float = 1.0
    fock_dim: int = 64
    grid_half_width: float = 8.0
    grid_points: int = 64
    master_seed: int = 20240601
    workers: int = 0  # 0: one per CPU this process may run on
    out_dir: str = "qeuclid-out"
    suites: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        if not isinstance(payload, dict):
            raise TypeError(f"a config must be a JSON object, got {type(payload).__name__}")
        cfg = cls(**{k: v for k, v in payload.items() if k != "suites"})
        cfg.suites = [SuiteConfig(**s) for s in payload.get("suites", [])]
        return cfg

    def config_hash(self) -> str:
        """Hash of the computation-defining fields (not output path or worker count)."""
        payload = json.loads(self.to_json())
        payload.pop("out_dir", None)
        payload.pop("workers", None)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def plan(self) -> tuple[object, list[list[tuple[str, dict, int]]]]:
        """The run's backend and its tasks, one per trial index: task i holds every
        suite's (theorem, params, seed) row at index i, in config order.

        Raises ValueError on a configuration the run cannot compute; the
        parameter gates run on every planned trial before any heavy computation.
        """
        if self.backend not in ("moyal", "classical"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if not self.suites:
            raise ValueError("no suites to run")
        backend = make_backend(self)
        suite_rows, seen = [], set()
        for s in self.suites:
            if s.theorem not in harness.REGISTRY:
                raise ValueError(f"unknown theorem id {s.theorem!r}")
            if s.theorem in seen:
                raise ValueError(f"{s.theorem} is listed twice")
            seen.add(s.theorem)
            gate = harness.REGISTRY[s.theorem].admissible_fn
            rows = []
            for params, seed in harness.trial_plan(backend, s.theorem, s.n_trials, self.master_seed, s.params_grid):
                if gate is not None:
                    try:
                        gate(backend, params)
                    except (KeyError, ValueError) as exc:
                        why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                        raise ValueError(f"{s.theorem} parameters {params}: {why}") from None
                rows.append((s.theorem, params, seed))
            suite_rows.append(rows)
        tasks = [[row for row in index if row is not None] for index in zip_longest(*suite_rows)]
        return backend, tasks


def make_backend(cfg: RunConfig):
    if cfg.backend == "classical":
        return ClassicalBackend(cfg.grid_half_width, cfg.grid_points)
    return MoyalBackend(cfg.theta_h, cfg.fock_dim, cfg.grid_half_width, cfg.grid_points)


def default_config(backend: str = "moyal") -> RunConfig:
    """The shipped run: every suite on the Moyal plane, eight on the classical
    backend's wide window.  A slope suite runs once."""
    if backend == "classical":
        cfg = RunConfig(backend="classical", grid_half_width=64.0, grid_points=4096)
        tids = ("R1", "R2", "R3", "R4", "R5", "R9", "R10", "R14")
    else:
        cfg, tids = RunConfig(), registry_ids()
    for tid in tids:
        mode = harness.REGISTRY[tid].mode
        if mode == "slope":
            trials = 1
        elif backend == "classical":
            trials = CLASSICAL_TRIALS
        else:
            trials = EMPIRICAL_TRIALS if mode == "empirical" else CONSTANT_ONE_TRIALS
        cfg.suites.append(SuiteConfig(tid, trials))
    return cfg


# ---------------------------------------------------------------------------
# Forked workers
# ---------------------------------------------------------------------------


def _worker(backend, tasks, jobs_r: int, jobs_w: int, out: int) -> int:
    """A forked worker: take an index from the one-token job pipe, put the next
    one back and run that trial, until the indices run out; then write its
    (index, rows) pairs, or a raising trial's message, to ``out`` as one pickle."""
    pairs = []
    try:
        while (i := int.from_bytes(os.read(jobs_r, 4), "little")) < len(tasks):
            os.write(jobs_w, (i + 1).to_bytes(4, "little"))
            pairs.append((i, harness.run_index(backend, tasks[i])))
        os.write(jobs_w, i.to_bytes(4, "little"))  # the end, for the next worker
        payload = pairs
    except Exception as exc:
        payload = str(exc) if isinstance(exc, RuntimeError) else f"{type(exc).__name__}: {exc}"
    with open(out, "wb") as sink:
        pickle.dump(payload, sink, protocol=pickle.HIGHEST_PROTOCOL)
    return 0 if payload is pairs else 1


def _run_forked(backend, tasks: list, n_workers: int) -> list:
    """``harness.run_index(backend, rows)`` for each of ``tasks``, in order, on
    ``n_workers`` forked workers, which inherit ``backend`` with its tables.

    The job pipe holds one 4-byte token, the next index to run: the parent
    writes 0 before forking and each worker puts back the one after the
    token it takes, so no write to the pipe can block.  Each worker sends its
    rows once, when it stops.  A worker that raises or dies raises
    RuntimeError here.  However the run ends, every worker still running is
    killed, every worker is reaped and every pipe end is closed.
    """
    results: dict = {}  # index -> rows
    jobs_r, jobs_w = os.pipe()
    held = {jobs_r, jobs_w}  # the pipe ends this process holds
    pids: dict[int, int] = {}  # a worker's result pipe (read end) -> its pid

    def close(fd: int) -> None:
        held.remove(fd)
        os.close(fd)

    try:
        os.write(jobs_w, (0).to_bytes(4, "little"))
        for _ in range(n_workers):
            rfd, wfd = os.pipe()
            held |= {rfd, wfd}
            pid = os.fork()
            if pid == 0:
                try:  # os._exit never returns, so the finally runs only if the worker raises
                    for fd in held - {jobs_r, jobs_w, wfd}:
                        os.close(fd)
                    os._exit(_worker(backend, tasks, jobs_r, jobs_w, wfd))
                finally:
                    os._exit(1)
            close(wfd)
            pids[rfd] = pid
        close(jobs_r)
        close(jobs_w)

        received = {fd: bytearray() for fd in pids}
        poller = select.poll()
        for fd in pids:
            poller.register(fd, select.POLLIN)
        while pids:
            for fd, _ in poller.poll():
                if chunk := os.read(fd, 1 << 16):
                    received[fd] += chunk
                    continue
                # EOF: the worker has closed its pipe and is exiting
                poller.unregister(fd)
                close(fd)
                pid = pids.pop(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                try:
                    payload = pickle.loads(received.pop(fd))
                except (pickle.UnpicklingError, EOFError):  # empty or cut short: the worker died first
                    payload = None
                if code == 0 and isinstance(payload, list):
                    results.update(payload)
                elif code == 1 and isinstance(payload, str):
                    raise RuntimeError(payload)
                elif code < 0:
                    raise RuntimeError(f"worker {pid} was killed by signal {-code}")
                else:
                    raise RuntimeError(f"worker {pid} exited with status {code}")
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in list(held):
            close(fd)
    return [results[i] for i in range(len(tasks))]


def _resolve_workers(cfg: RunConfig) -> int:
    env = os.environ.get("QEUCLID_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"QEUCLID_WORKERS must be an integer, got {env!r}") from None
    if cfg.workers > 0:
        return cfg.workers
    # the CPUs this process may run on (taskset, a cpuset), where the platform tells
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, usable or 1)


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            return "nan"
        return repr(x)
    return str(x)


def _write_reports(out_dir: Path, cfg: RunConfig, all_cases: dict, summaries: dict) -> None:
    chash = cfg.config_hash()
    with open(out_dir / "cases.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow("theorem,trial,seed,params,lhs,rhs,ratio,passed,reason,config_hash".split(","))
        for tid in sorted(all_cases, key=lambda t: int(t[1:])):
            for trial, case in enumerate(all_cases[tid]):
                params = json.dumps(case.params, sort_keys=True, separators=(",", ":"))
                writer.writerow([
                    tid, trial, case.seed, params, _fmt(case.lhs), _fmt(case.rhs),
                    _fmt(case.ratio), case.passed, case.reason, chash,
                ])
    payload = {
        "config_hash": chash,
        "suites": {tid: {k: v for k, v in asdict(s).items() if k != "theorem"} for tid, s in summaries.items()},
    }
    with open(out_dir / "summaries.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    with open(out_dir / "config.json", "w") as fh:
        fh.write(cfg.to_json())


def cmd_verify(cfg: RunConfig) -> int:
    try:
        backend, tasks = cfg.plan()
        n_workers = min(_resolve_workers(cfg), len(tasks))
    except (ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1

    try:
        backend.build_tables()
        if n_workers <= 1:
            results = [harness.run_index(backend, rows) for rows in tasks]
        else:
            # fork (POSIX), after build_tables has run BLAS in this process.
            # That needs BLAS on one thread, which the pin at the top of
            # qeuclid/__init__.py sets only where the caller has not: a caller
            # who widens the thread variables, or imports numpy before qeuclid,
            # gets BLAS's own threads.  A pthreads OpenBLAS (numpy's wheels) is
            # still fork-safe; a BLAS on GNU OpenMP can hang the workers, and
            # its callers should run with QEUCLID_WORKERS=1.
            results = _run_forked(backend, tasks, n_workers)
    except (RuntimeError, OSError) as exc:
        # a worker that died or raised, a fork or pipe that failed, a failed
        # trace-weight validation or an element draw that never passed its gate
        print(f"verify error: {exc}", file=sys.stderr)
        return 1

    # results are in index order, so each suite gets its trials in order
    all_cases = {s.theorem: [] for s in cfg.suites}
    for rows in results:
        for case in rows:
            all_cases[case.theorem].append(case)
    summaries = {tid: harness.summarize_cases(tid, suite) for tid, suite in all_cases.items()}
    try:
        _write_reports(out_dir, cfg, all_cases, summaries)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1

    total_failures = sum(s.failures for s in summaries.values())
    for tid in sorted(summaries, key=lambda t: int(t[1:])):
        s = summaries[tid]
        print(f"{tid}: trials={s.trials} failures={s.failures} fitted={s.fitted_constant:.6g}")
    print(f"total failures: {total_failures}")
    return 0 if total_failures == 0 else 2


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def _probe_backend(args, kind: str):
    """The ``kind`` backend at --h and --N, on its default window unless --half-width/--n are given."""
    cfg = default_config(kind)
    cfg.theta_h, cfg.fock_dim = args.h, args.N
    if args.half_width is not None:
        cfg.grid_half_width = args.half_width
    if args.n is not None:
        cfg.grid_points = args.n
    return make_backend(cfg)


def _probe_quantize_roundtrip(args) -> int:
    backend = _probe_backend(args, "moyal")
    errs = []
    for params in ({"a": 0.5}, {"a": 1.0, "center": (0.5, -0.8)}, {"a": 0.8, "center": (-1.0, 0.3)}):
        f = symbols.sample_symbol("gaussian", params, backend.half_width, backend.n, dim=2)
        back = backend.fourier(backend.element_from_symbol(f))
        errs.append(float(np.abs(back.samples - f.samples).max()))
    print(f"quantize-roundtrip h={args.h} N={args.N}: sup error {max(errs):.3e}")
    return 0


def _probe_heat_decay(args) -> int:
    backend = _probe_backend(args, args.backend)
    ts = np.geomspace(args.tmin, args.tmax, args.npts)
    rows = harness.heat_decay_ratios(backend, backend.heat_probe(), args.p, args.q, ts)
    slope = harness.fit_decay_slope(rows)
    lines = ["t,ratio"] + [f"{_fmt(float(t))},{_fmt(float(r))}" for t, r in rows]
    text = "\n".join(lines) + f"\nslope,{_fmt(slope)}\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text)
    return 0


def _probe_multiplier_norm(args) -> int:
    backend = _probe_backend(args, args.backend)
    params = {}
    if args.t is not None:
        params["t"] = args.t
    if args.s is not None:
        params["s"] = args.s
    g = calculus.make_multiplier(args.symbol, params, dim=backend.dim)
    lower = harness.estimate_norm_ratio(backend, g, args.p, args.q, args.trials, args.seed)
    bound = backend.hormander_constant(g, args.p, args.q)
    print(f"symbol {g.label}: norm lower bound {lower:.6g}, level-set bound {bound:.6g}, "
          f"ratio {lower / bound if bound > 0 else math.inf:.6g}")
    return 0


def cmd_probe(args) -> int:
    try:
        if args.what == "quantize-roundtrip":
            return _probe_quantize_roundtrip(args)
        if args.what == "heat-decay":
            return _probe_heat_decay(args)
        if args.what == "multiplier-norm":
            return _probe_multiplier_norm(args)
    except (ValueError, RuntimeError) as exc:
        # RuntimeError: an element draw that never passed its gate, or a failed SVD
        print(f"probe error: {exc}", file=sys.stderr)
        return 1
    print(f"unknown probe {args.what!r}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qeuclid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the inequality suites and write reports")
    v.add_argument("--config", help="JSON config file (defaults are used otherwise)")
    v.add_argument("--backend", choices=["moyal", "classical"])
    v.add_argument("--seed", type=int, help="master seed override")
    v.add_argument("--out", help="output directory override")

    p = sub.add_parser("probe", help="single-purpose numerical probes")
    p.add_argument("what", choices=["quantize-roundtrip", "heat-decay", "multiplier-norm"])
    p.add_argument("--backend", choices=["moyal", "classical"], default="moyal")
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--N", type=int, default=128)
    p.add_argument("--half-width", type=float, help="grid half-width (default: the backend's)")
    p.add_argument("--n", type=int, help="grid points per axis (default: the backend's)")
    p.add_argument("--p", type=float, default=4.0 / 3.0)
    p.add_argument("--q", type=float, default=4.0)
    p.add_argument("--tmin", type=float, default=0.5)
    p.add_argument("--tmax", type=float, default=20.0)
    p.add_argument("--npts", type=int, default=10)
    p.add_argument("--symbol", default="heat")
    p.add_argument("--t", type=float, default=None, help="heat-symbol time")
    p.add_argument("--s", type=float, default=None, help="bessel-symbol order")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if args.command == "verify":
        if args.config:
            try:
                payload = json.loads(Path(args.config).read_text())
                cfg = RunConfig.from_dict(payload)
            except (OSError, json.JSONDecodeError, TypeError) as exc:
                print(f"cannot load config: {exc}", file=sys.stderr)
                return 1
        else:
            cfg = default_config(args.backend or "moyal")
        if args.backend:
            cfg.backend = args.backend
        if args.seed is not None:
            cfg.master_seed = args.seed
        if args.out:
            cfg.out_dir = args.out
        return cmd_verify(cfg)
    return cmd_probe(args)


if __name__ == "__main__":
    sys.exit(main())
