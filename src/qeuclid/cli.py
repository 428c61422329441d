"""Command-line entry point: configure, verify, probe.

Byte-identical reports across runs and worker counts are part of the
contract, so BLAS threading is pinned to one thread (at the top of
``qeuclid/__init__.py``, before numpy loads) and every trial is computed in a
fixed, seed-derived way regardless of the pool layout.
"""

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import zip_longest
from multiprocessing import get_context
from pathlib import Path
from typing import Optional

import numpy as np

from . import calculus, harness, symbols
from .errors import BoundaryDecayError
from .harness import MoyalBackend, registry_ids
from .oracle import CLASSICAL_IDS, ClassicalBackend

__all__ = ["RunConfig", "SuiteConfig", "default_config", "cmd_verify", "cmd_probe", "main"]

CONSTANT_ONE_TRIALS = 100
EMPIRICAL_TRIALS = 200


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
    workers: int = 0  # 0: use cpu count
    out_dir: str = "qeuclid-out"
    suites: list = field(default_factory=list)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["suites"] = [asdict(s) if isinstance(s, SuiteConfig) else s for s in self.suites]
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        cfg = cls(**{k: v for k, v in payload.items() if k != "suites"})
        cfg.suites = [SuiteConfig(**s) for s in payload.get("suites", [])]
        return cfg

    def config_hash(self) -> str:
        """Hash of the computation-defining fields (not output path or pool size)."""
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
        backend = make_backend(self)
        suite_rows, seen = [], set()
        for s in self.suites:
            if s.theorem not in harness.REGISTRY:
                raise ValueError(f"unknown theorem id {s.theorem!r}")
            if self.backend == "classical" and s.theorem not in CLASSICAL_IDS:
                raise ValueError(
                    f"{s.theorem} is not available on the classical backend "
                    f"(allowed: {', '.join(CLASSICAL_IDS)})"
                )
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
    if backend == "classical":
        suites = [SuiteConfig(tid, 50 if tid != "R10" else 1) for tid in CLASSICAL_IDS]
        return RunConfig(backend="classical", grid_half_width=64.0, grid_points=4096, suites=suites)
    suites = []
    for tid in registry_ids():
        entry = harness.REGISTRY[tid]
        if entry.mode == "slope":
            trials = 1
        elif entry.mode == "empirical":
            trials = EMPIRICAL_TRIALS
        else:
            trials = CONSTANT_ONE_TRIALS
        suites.append(SuiteConfig(tid, trials))
    return RunConfig(suites=suites)


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------

# The run's backend, set by cmd_verify before the pool forks: the workers
# inherit it with its tables instead of importing and building their own.
_worker_state: dict = {}


def _worker_task(rows) -> list[harness.TheoremCase]:
    return harness.run_index(_worker_state["backend"], rows)


def _resolve_workers(cfg: RunConfig) -> int:
    env = os.environ.get("QEUCLID_WORKERS")
    if env:
        return max(1, int(env))
    if cfg.workers > 0:
        return cfg.workers
    return max(1, os.cpu_count() or 1)


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            return "nan"
        return repr(x)
    return str(x)


def _write_reports(out_dir: Path, cfg: RunConfig, all_cases: dict, summaries: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
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
    except (ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    n_workers = _resolve_workers(cfg)
    try:
        backend.build_tables()
        _worker_state["backend"] = backend
        if n_workers == 1 or len(tasks) < 2:
            results = [_worker_task(rows) for rows in tasks]
        else:
            # fork (POSIX), after build_tables has run BLAS in this process.
            # That needs BLAS on one thread, which the pin at the top of
            # qeuclid/__init__.py sets only where the caller has not: a caller
            # who widens the thread variables, or imports numpy before qeuclid,
            # gets BLAS's own threads.  A pthreads OpenBLAS (numpy's wheels) is
            # still fork-safe; a BLAS on GNU OpenMP can hang the workers, and
            # its callers should run with QEUCLID_WORKERS=1.
            # The workers' garbage collections skip the frozen objects they
            # inherit, so they do not write to (and copy) the pages holding them.
            gc.freeze()
            try:
                with ProcessPoolExecutor(n_workers, mp_context=get_context("fork")) as pool:
                    results = list(pool.map(_worker_task, tasks))
            finally:
                gc.unfreeze()
    except RuntimeError as exc:
        # a dead pool worker (BrokenProcessPool), a failed trace-weight
        # validation or an element draw that never passed its gate
        print(f"verify error: {exc}", file=sys.stderr)
        return 1
    finally:
        _worker_state.clear()

    # map keeps the index order, so each suite gets its trials in order
    all_cases = {s.theorem: [] for s in cfg.suites}
    for rows in results:
        for case in rows:
            all_cases[case.theorem].append(case)
    summaries = {tid: harness.summarize_cases(tid, suite) for tid, suite in all_cases.items()}
    _write_reports(Path(cfg.out_dir), cfg, all_cases, summaries)

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
    gvals = calculus.evaluate_multiplier(g, backend.fourier_grid())
    bound = symbols.hormander_constant(gvals, args.p, args.q)
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
    except (ValueError, BoundaryDecayError) as exc:
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
