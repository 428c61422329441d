"""Command-line entry point: configure, verify, probe.

Byte-identical reports across runs and worker counts are part of the
contract, so BLAS threading is pinned to one thread before numpy loads and
every trial is computed in a fixed, seed-derived way regardless of the pool
layout.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Optional

import numpy as np

from . import calculus, harness, symbols, weyl
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

    def validate(self) -> None:
        if self.backend not in ("moyal", "classical"):
            raise ValueError(f"unknown backend {self.backend!r}")
        known = set(registry_ids())
        for s in self.suites:
            if s.theorem not in known:
                raise ValueError(f"unknown theorem id {s.theorem!r}")
            if s.n_trials < 1:
                raise ValueError(f"n_trials must be >= 1 for {s.theorem}")
            if s.params_grid is not None and len(s.params_grid) == 0:
                raise ValueError(f"empty parameter grid for {s.theorem}")
            if self.backend == "classical" and s.theorem not in CLASSICAL_IDS:
                raise ValueError(
                    f"{s.theorem} is not available on the classical backend "
                    f"(allowed: {', '.join(CLASSICAL_IDS)})"
                )
        # parameter gates run before any heavy computation
        backend = make_backend(self)
        for s in self.suites:
            entry = harness.REGISTRY[s.theorem]
            grid = s.params_grid if s.params_grid is not None else entry.params_fn(backend)
            if entry.admissible_fn is not None:
                for params in grid:
                    entry.admissible_fn(backend, params)


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

_worker_state: dict = {}


def _worker_init(cfg_json: str) -> None:
    cfg = RunConfig.from_dict(json.loads(cfg_json))
    _worker_state["backend"] = make_backend(cfg)
    _worker_state["cfg"] = cfg


def _worker_trial(task) -> tuple:
    tid, trial_idx, params, seed = task
    case = harness.run_case(_worker_state["backend"], tid, params, seed)
    return (tid, trial_idx, case)


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
    with open(out_dir / "cases.csv", "w") as fh:
        fh.write("theorem,trial,seed,params,lhs,rhs,ratio,passed,reason,config_hash\n")
        for tid in sorted(all_cases, key=lambda t: int(t[1:])):
            for trial, case in enumerate(all_cases[tid]):
                params = json.dumps(case.params, sort_keys=True, separators=(",", ":"))
                fh.write(
                    f'{tid},{trial},{case.seed},"{params}",{_fmt(case.lhs)},{_fmt(case.rhs)},'
                    f"{_fmt(case.ratio)},{case.passed},{case.reason},{chash}\n"
                )
    payload = {
        "config_hash": chash,
        "suites": {
            tid: {
                "trials": s.trials,
                "max_ratio": s.max_ratio,
                "median_ratio": s.median_ratio,
                "fitted_constant": s.fitted_constant,
                "failures": s.failures,
                "batch_constants": s.batch_constants,
                "mode": s.extras.get("mode"),
            }
            for tid, s in summaries.items()
        },
    }
    with open(out_dir / "summaries.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    with open(out_dir / "config.json", "w") as fh:
        fh.write(cfg.to_json())


def cmd_verify(cfg: RunConfig) -> int:
    try:
        cfg.validate()
    except (ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    backend = make_backend(cfg)
    tasks = []
    for s in cfg.suites:
        entry = harness.REGISTRY[s.theorem]
        grid = s.params_grid if s.params_grid is not None else entry.params_fn(backend)
        for i in range(s.n_trials):
            seed = harness.derive_seed(cfg.master_seed, s.theorem, i)
            tasks.append((s.theorem, i, grid[i % len(grid)], seed))

    n_workers = _resolve_workers(cfg)
    results = {}
    try:
        if n_workers == 1 or len(tasks) < 2:
            _worker_init(cfg.to_json())
            for task in tasks:
                tid, idx, case = _worker_trial(task)
                results[(tid, idx)] = case
        else:
            with ProcessPoolExecutor(
                n_workers, mp_context=get_context("spawn"),
                initializer=_worker_init, initargs=(cfg.to_json(),),
            ) as pool:
                for tid, idx, case in pool.map(_worker_trial, tasks, chunksize=4):
                    results[(tid, idx)] = case
    except RuntimeError as exc:
        # a dead pool worker (BrokenProcessPool), a failed trace-weight
        # validation or an element draw that never passed its gate
        print(f"verify error: {exc}", file=sys.stderr)
        return 1

    all_cases: dict = {}
    for s in cfg.suites:
        all_cases[s.theorem] = [results[(s.theorem, i)] for i in range(s.n_trials)]
    summaries = {
        tid: harness.summarize_cases(backend, tid, cases) for tid, cases in all_cases.items()
    }
    _write_reports(Path(cfg.out_dir), cfg, all_cases, summaries)

    total_failures = sum(s.failures for s in summaries.values())
    for tid in sorted(summaries, key=lambda t: int(t[1:])):
        s = summaries[tid]
        print(
            f"{tid}: trials={s.trials} failures={s.failures} "
            f"max_ratio={s.max_ratio:.6g} fitted={s.fitted_constant:.6g}"
        )
    print(f"total failures: {total_failures}")
    return 0 if total_failures == 0 else 2


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def _probe_quantize_roundtrip(args) -> int:
    theta = weyl.DeformationMatrix.canonical(args.h)
    errs = []
    for params in ({"a": 0.5}, {"a": 1.0, "center": (0.5, -0.8)}, {"a": 0.8, "center": (-1.0, 0.3)}):
        f = symbols.sample_symbol("gaussian", params, args.half_width, args.n, dim=2)
        x = weyl.quantize(f, theta, args.N)
        back = weyl.dequantize(x, args.half_width, args.n)
        errs.append(float(np.abs(back.samples - f.samples).max()))
    print(f"quantize-roundtrip h={args.h} N={args.N}: sup error {max(errs):.3e}")
    return 0


def _probe_heat_decay(args) -> int:
    cfg = default_config(args.backend)
    backend = make_backend(RunConfig(backend=args.backend, theta_h=args.h, fock_dim=args.N,
                                     grid_half_width=cfg.grid_half_width, grid_points=cfg.grid_points,
                                     suites=[]))
    probe = backend.heat_probe()
    base = backend.norm(probe, args.p)
    ts = np.geomspace(args.tmin, args.tmax, args.npts)
    rows = [(t, backend.norm(backend.heat(probe, t), args.q) / base) for t in ts]
    slope = harness.fit_decay_slope(rows)
    lines = ["t,ratio"] + [f"{_fmt(float(t))},{_fmt(float(r))}" for t, r in rows]
    text = "\n".join(lines) + f"\nslope,{_fmt(slope)}\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text)
    return 0


def _probe_multiplier_norm(args) -> int:
    cfg = default_config(args.backend)
    run_cfg = RunConfig(backend=args.backend, theta_h=args.h, fock_dim=args.N,
                        grid_half_width=cfg.grid_half_width, grid_points=cfg.grid_points, suites=[])
    backend = make_backend(run_cfg)
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
    p.add_argument("--half-width", type=float, default=8.0)
    p.add_argument("--n", type=int, default=64)
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
