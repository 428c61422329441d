"""Acceptance criteria, one test (or parametrized family) per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (run pytest with
``-s`` to stream them).  The default verification run is executed once per
session through the real CLI and its artifacts are shared by the criteria
that grade suite outputs.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import cli_env, spec_mixture

from qeuclid import cli
from qeuclid.calculus import evaluate_multiplier, heat_symbol
from qeuclid.harness import MoyalBackend, fit_decay_slope, sobolev_scale_sweep
from qeuclid.spectra import SingularValueProfile, entropy_term
from qeuclid.symbols import SymbolGrid, hormander_constant, sample_symbol
from qeuclid.weyl import (
    DeformationMatrix,
    dequantize,
    kernel_trace_oracle,
    quantize,
    trace_tau,
    weyl_defect,
)

CONSTANT_ONE_SUITES = ("R1", "R2", "R3", "R4", "R12", "R15", "R16")
EMPIRICAL_SUITES = ("R5", "R6", "R7", "R8", "R9", "R11", "R14", "R17", "R18")


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _run_cli(args, workers):
    return subprocess.run(
        [sys.executable, "-m", "qeuclid.cli", *args],
        capture_output=True,
        text=True,
        env=cli_env(QEUCLID_WORKERS=str(workers)),
    )


@pytest.fixture(scope="session")
def verify_artifacts(tmp_path_factory):
    """One full default verify run through the CLI; returns its artifacts."""
    out = tmp_path_factory.mktemp("verify")
    start = time.monotonic()
    res = _run_cli(["verify", "--out", str(out)], workers=2)
    elapsed = time.monotonic() - start
    assert res.returncode in (0, 2), res.stderr
    summaries = json.loads((out / "summaries.json").read_text())
    cases = (out / "cases.csv").read_text().strip().splitlines()
    return {"out": out, "elapsed": elapsed, "summaries": summaries["suites"], "cases": cases,
            "returncode": res.returncode}


# ---------------------------------------------------------------------------
# 1. Weyl relation defect
# ---------------------------------------------------------------------------


def test_criterion_1_weyl_relation_defect():
    theta = DeformationMatrix.canonical(1.0)
    start = time.monotonic()
    worst = 0.0
    pts = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (1.4, -1.4), (-2.0, 1.0), (0.7, 1.8)]
    for t in pts:
        for s in pts:
            worst = max(worst, weyl_defect(theta, t, s, 64))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 5.0
    assert _report("1", ok, f"max defect {worst:.2e} over |t|,|s|<=2 (h=1, N=64) in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. trace identity and trace-weight cross-validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
def test_criterion_2_trace_identity(h):
    backend = MoyalBackend(h=h, fock_dim=128, half_width=8.0, n=64)
    worst = 0.0
    for seed in range(20):
        el = backend.sample_element(seed)
        f0 = complex(spec_mixture(el.spec).value((0.0, 0.0)))
        worst = max(worst, abs(trace_tau(el.payload) - f0) / abs(f0))
    ok = worst < 1e-5
    assert _report("2", ok, f"h={h}: max trace relative error {worst:.2e} over 20 mixtures (N=128, L=8, n=64)")


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
def test_criterion_2_kernel_oracle_cross_validation(h):
    backend = MoyalBackend(h=h, fock_dim=128, half_width=8.0, n=64)
    worst = 0.0
    for seed in range(3):
        el = backend.sample_element(seed)
        mixture = spec_mixture(el.spec)
        f0 = complex(mixture.value((0.0, 0.0)))
        oracle = h / (2 * np.pi) * kernel_trace_oracle(lambda t1: mixture.value((t1, 0.0)), h)
        worst = max(worst, abs(oracle - f0) / abs(f0))
    ok = worst < 1e-3
    assert _report("2", ok, f"h={h}: position-kernel oracle validates h/(2 pi) to {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. pairing identity over random pairs
# ---------------------------------------------------------------------------


def test_criterion_3_pairing_identity(verify_artifacts):
    rows = [r for r in verify_artifacts["cases"] if r.startswith("R1,")]
    ratios = np.array([float(r.split(",")[6]) for r in rows])
    worst = np.abs(ratios - 1.0).max()
    ok = len(rows) >= 100 and worst < 1e-4
    assert _report("3", ok, f"pairing identity |ratio-1| max {worst:.2e} over {len(rows)} random pairs")


# ---------------------------------------------------------------------------
# 4. quantize/dequantize roundtrips
# ---------------------------------------------------------------------------


def test_criterion_4_roundtrips():
    theta = DeformationMatrix.canonical(1.0)
    families = [
        {"a": 0.5},
        {"a": 1.0, "center": (0.5, -0.8)},
        {"a": 0.7, "center": (-1.0, 0.4)},
    ]
    worst_sym = 0.0
    worst_op = 0.0
    for params in families:
        f = sample_symbol("gaussian", params, 8.0, 64, dim=2)
        x = quantize(f, theta, 128)
        back = dequantize(x, 8.0, 64)
        worst_sym = max(worst_sym, float(np.abs(back.samples - f.samples).max()))
        y = quantize(back, theta, 128, boundary_gate=None)
        K = 64
        rel = np.linalg.norm((y.matrix - x.matrix)[:K, :K], 2) / np.linalg.norm(x.matrix[:K, :K], 2)
        worst_op = max(worst_op, float(rel))
    ok = worst_sym < 1e-4 and worst_op < 1e-4
    assert _report("4", ok, f"roundtrip sup {worst_sym:.2e} (symbol) / {worst_op:.2e} (operator block)")


# ---------------------------------------------------------------------------
# 5. constant-one statements
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tid", CONSTANT_ONE_SUITES)
def test_criterion_5_constant_one(tid, verify_artifacts):
    s = verify_artifacts["summaries"][tid]
    ok = s["fitted_constant"] <= 1.0 + 1e-3
    assert _report(
        "5", ok, f"{tid}: fitted constant {s['fitted_constant']:.6g} over {s['trials']} trials (tolerance 1+1e-3)"
    )


def test_criterion_5_flat_spectrum_equality():
    theta = DeformationMatrix.canonical(1.0)
    c = theta.trace_weight
    worst = 0.0
    for k, p, q in ((5, 1.0, 2.0), (9, 1.5, 3.0), (17, 2.0, 4.0)):
        prof = SingularValueProfile(np.concatenate([np.full(k, 1.7), np.zeros(4)]), c)
        lhs = entropy_term(prof, p)
        npv = (c * np.sum(prof.sigmas**p)) ** (1 / p)
        nqv = (c * np.sum(prof.sigmas**q)) ** (1 / q)
        rhs = (q / (q - p)) * math.log((nqv / npv) ** p)
        worst = max(worst, abs(lhs - rhs), abs(lhs - (-math.log(c * k))))
    ok = worst < 1e-6
    assert _report("5", ok, f"flat-spectrum entropy equality to {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. empirical-constant statements
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tid", EMPIRICAL_SUITES)
def test_criterion_6_empirical_stability(tid, verify_artifacts):
    s = verify_artifacts["summaries"][tid]
    finite = math.isfinite(s["fitted_constant"]) and s["fitted_constant"] > 0
    b0, b1 = s["batch_constants"]
    stable = abs(b0 - b1) <= 0.2 * max(b0, b1)
    ok = finite and stable and s["failures"] == 0
    assert _report(
        "6",
        ok,
        f"{tid}: fitted {s['fitted_constant']:.4g}, batches {b0:.4g}/{b1:.4g}, failures {s['failures']}",
    )


# ---------------------------------------------------------------------------
# 7. heat decay slope and the analytic level-set constant
# ---------------------------------------------------------------------------


def test_criterion_7_heat_decay():
    p, q = 4.0 / 3.0, 4.0
    gamma = (2 / 2) * (1 / p - 1 / q)  # = 1/2
    backend = MoyalBackend(h=1.0, fock_dim=128, half_width=8.0, n=64)
    probe = backend.heat_probe()
    base = backend.norm(probe, p)
    ts = np.geomspace(0.5, 20.0, 10)
    samples = [(t, backend.norm(backend.apply(heat_symbol(t), probe), q) / base) for t in ts]
    slope = fit_decay_slope(samples)
    worst_const = 0.0
    for t0 in (0.5, 1.0, 2.0):
        g = evaluate_multiplier(heat_symbol(t0), SymbolGrid(2, 8.0, 256, np.zeros((256, 256))))
        ana = (np.pi * gamma / (np.e * t0)) ** gamma
        worst_const = max(worst_const, abs(hormander_constant(g, p, q) - ana) / ana)
    ok = slope >= -gamma - 0.1 and worst_const < 3e-2
    assert _report("7", ok, f"slope {slope:.4f} (needs >= -0.6); level-set constant off by {worst_const:.2%}")


# ---------------------------------------------------------------------------
# 8. embedding threshold gate
# ---------------------------------------------------------------------------


def test_criterion_8_embedding_gate():
    # the narrow R=1 probe needs the finer window to clear the transform gate
    backend = MoyalBackend(h=1.0, fock_dim=96, half_width=8.0, n=96)
    p, q = 4.0 / 3.0, 4.0
    thr = backend.dim * (1 / p - 1 / q)
    scales = [1.0, 1.35, 1.8, 2.3]
    below = sobolev_scale_sweep(backend, p, q, 0.75 * thr, scales)
    above = sobolev_scale_sweep(backend, p, q, 1.25 * thr, scales)
    grows = all(b > a for a, b in zip(below, below[1:]))
    bounded = above[-1] <= above[-2] and max(above) <= 2.0 * above[0]
    ok = grows and bounded
    assert _report(
        "8",
        ok,
        "below threshold ratios "
        + "/".join(f"{r:.3f}" for r in below)
        + " grow; above threshold "
        + "/".join(f"{r:.3f}" for r in above)
        + " stay bounded",
    )


# ---------------------------------------------------------------------------
# 9. commutative backend agreement
# ---------------------------------------------------------------------------


def test_criterion_9_classical_backend(verify_artifacts, tmp_path):
    backend = cli.make_backend(cli.default_config("classical"))
    el = backend.sample_element(0)
    lhs = backend.pair_trace(el, el).real
    xhat = backend.fourier(el)
    rhs = float(np.sum(np.abs(xhat.samples) ** 2) * xhat.cell_volume)
    parseval = abs(lhs - rhs) / rhs

    p, q = 4.0 / 3.0, 4.0
    gamma = 1 / p - 1 / q
    g = evaluate_multiplier(heat_symbol(1.0), backend.fourier_grid())
    ana = 2.0**gamma * (gamma / (2 * np.e)) ** (gamma / 2)
    horm = abs(hormander_constant(g, p, q) - ana) / ana

    out = tmp_path / "classical"
    res = _run_cli(["verify", "--backend", "classical", "--out", str(out)], workers=2)
    schema_ok = False
    if res.returncode in (0, 2):
        cls_cases = (out / "cases.csv").read_text().splitlines()
        cls_summ = json.loads((out / "summaries.json").read_text())
        moyal_header = verify_artifacts["cases"][0]
        some_tid = next(iter(cls_summ["suites"]))
        schema_ok = cls_cases[0] == moyal_header and set(cls_summ["suites"][some_tid]) == set(
            verify_artifacts["summaries"]["R2"]
        )
        failures = sum(s["failures"] for s in cls_summ["suites"].values())
    ok = parseval < 1e-8 and horm < 2e-2 and schema_ok and res.returncode == 0 and failures == 0
    assert _report(
        "9",
        ok,
        f"classical parseval {parseval:.2e}, level-set constant off {horm:.2%}, "
        f"schema match {schema_ok}, failures {failures if res.returncode in (0,2) else '?'}",
    )


# ---------------------------------------------------------------------------
# 10. byte-identical reports across worker counts
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "backend": "moyal",
        "theta_h": 1.0,
        "fock_dim": 32,
        "grid_half_width": 8.0,
        "grid_points": 48,
        "master_seed": 424242,
        "workers": 0,
        "out_dir": "",
        "suites": [{"theorem": "R2", "n_trials": 8, "params_grid": None},
                   {"theorem": "R5", "n_trials": 8, "params_grid": None}],
    }
    outputs = []
    for tag, workers in (("w1", 1), ("w8", 8)):
        out = tmp_path / tag
        cfg["out_dir"] = str(out)
        path = tmp_path / f"cfg-{tag}.json"
        path.write_text(json.dumps(cfg))
        res = _run_cli(["verify", "--config", str(path)], workers=workers)
        assert res.returncode == 0, res.stderr
        outputs.append(((out / "cases.csv").read_bytes(), (out / "summaries.json").read_bytes()))
    ok = outputs[0] == outputs[1]
    assert _report("10", ok, "cases.csv and summaries.json byte-identical at worker counts 1 and 8")


# ---------------------------------------------------------------------------
# wall-clock budget of the shipped default run
# ---------------------------------------------------------------------------


def test_default_verify_within_budget(verify_artifacts):
    elapsed = verify_artifacts["elapsed"]
    ok = elapsed < 600.0
    assert _report("runtime", ok, f"default verify completed in {elapsed:.1f}s (< 600s)")
