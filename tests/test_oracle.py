import math

import numpy as np
import pytest

from qeuclid.calculus import constant_symbol, evaluate_multiplier, heat_symbol, translation_symbol
from qeuclid.harness import REGISTRY, run_case
from qeuclid.oracle import ClassicalBackend
from qeuclid.symbols import hormander_constant, sample_symbol


def test_identity_multiplier(classical_backend):
    el = classical_backend.sample_element(3)
    back = classical_backend.apply(constant_symbol(1.0), el).payload
    assert np.abs(back.samples - el.payload.samples).max() < 1e-8 * np.abs(el.payload.samples).max()


def test_heat_flow_gaussian_closed_form(classical_backend):
    # transform exp(-a xi^2) means position Gaussian with w^2 = 2a, and the
    # flow widens it to w^2 + 2t with amplitude sqrt(a / (a + t))
    a = 2.0
    f = sample_symbol("gaussian", {"a": a}, 64.0, 4096, dim=1)
    el = classical_backend.element_from_symbol(f)
    t = 1.5
    flowed = classical_backend.apply(heat_symbol(t), el)
    u = flowed.payload.axes
    ref = np.sqrt(np.pi / (a + t)) * np.exp(-(u**2) / (4 * (a + t)))
    assert np.abs(flowed.payload.samples - ref).max() < 1e-6


def test_translation_covariance(classical_backend):
    el = classical_backend.sample_element(11)
    # pick a shift aligned with the position grid so roll() is exact
    F = el.payload
    shift_cells = 61
    a = shift_cells * F.step
    moved = classical_backend.apply(translation_symbol((a,)), el)
    expected = np.roll(F.samples, -shift_cells)
    interior = slice(200, 4096 - 200)
    err = np.abs(moved.payload.samples - expected)[interior].max()
    assert err < 1e-6 * np.abs(F.samples).max()


def test_parseval_classical(classical_backend):
    el = classical_backend.sample_element(0)
    lhs = classical_backend.pair_trace(el, el).real
    xhat = classical_backend.fourier(el)
    rhs = float(np.sum(np.abs(xhat.samples) ** 2) * xhat.cell_volume)
    assert abs(lhs - rhs) / rhs < 1e-8


def test_r2_parseval_case(classical_backend):
    case = run_case(classical_backend, "R2", {"p": 2.0}, 4)
    assert abs(case.ratio - 1.0) < 1e-8


def test_classical_constant_one_tight(classical_backend):
    for tid in ("R1", "R2", "R3", "R4"):
        for params in REGISTRY[tid].params_fn(classical_backend):
            for seed in (0, 1):
                case = run_case(classical_backend, tid, params, seed)
                assert case.ratio <= 1.0 + 1e-6, (tid, params)


def test_classical_hormander_heat_closed_form(classical_backend):
    # d=1: |{exp(-t0 xi^2) >= u}| = 2 sqrt(-ln u / t0); the sup has the
    # closed form (2 gamma / (e t0))^(gamma/2) ... maximizing u (2 sqrt(v/t0))^gamma
    p, q = 4.0 / 3.0, 4.0
    gamma = 1 / p - 1 / q
    for t0 in (0.5, 1.0):
        g = evaluate_multiplier(heat_symbol(t0), classical_backend.fourier_grid())
        ana = (2.0 / np.sqrt(t0)) ** gamma * (gamma / (2 * np.e)) ** (gamma / 2)
        assert hormander_constant(g, p, q) == pytest.approx(ana, rel=2e-2)


def test_classical_heat_decay_slope(classical_backend):
    case = run_case(classical_backend, "R10", {"p": 4 / 3, "q": 4.0, "tmin": 0.5, "tmax": 20.0, "npts": 8}, 0)
    gamma = 0.5 * (1 / (4 / 3) - 1 / 4)
    assert case.lhs >= -gamma - 0.05
    assert case.passed


def test_classical_r5_weight_constant(classical_backend):
    grid, mh = classical_backend.paley_weight
    assert mh == pytest.approx(2.0, rel=5e-2)
    case = run_case(classical_backend, "R5", {"p": 4 / 3}, 2)
    assert math.isfinite(case.ratio) and case.ratio > 0


def test_report_shape_matches_moyal(small_backend, classical_backend):
    # same registry, two backends: identical case schema
    a = run_case(small_backend, "R2", {"p": 4 / 3}, 1)
    b = run_case(classical_backend, "R2", {"p": 4 / 3}, 1)
    assert set(vars(a)) == set(vars(b))
    assert a.theorem == b.theorem == "R2"


class PlaneClassicalBackend(ClassicalBackend):
    # the commutative backend at d = 2 with the Moyal backend's draw law
    dim = 2
    width_floor = 0.55
    heat_rate = 1.0


def test_classical_trace_scale_follows_dim():
    # the trace weight (2 pi)^-d must follow a subclass's dim: with the d = 1
    # weight, R2 at p = 2 reads sqrt(2 pi) and R1 misses its identity
    backend = PlaneClassicalBackend(8.0, 64)
    assert backend.trace_scale == (2.0 * math.pi) ** 2
    for seed in (0, 1, 2):
        for tid, params in (("R1", {}), ("R2", {"p": 2.0})):
            case = run_case(backend, tid, params, seed)
            assert abs(case.ratio - 1.0) <= REGISTRY[tid].tol, (tid, seed, case.ratio)
