import math

import numpy as np
import pytest

from qeuclid.harness import (
    REGISTRY,
    MoyalBackend,
    RandomElement,
    conjugate_exponent,
    default_params,
    derive_seed,
    estimate_norm_ratio,
    fit_decay_slope,
    registry_ids,
    run_case,
    run_suite,
    sobolev_scale_sweep,
)
from qeuclid import calculus
from qeuclid.calculus import constant_symbol, heat_symbol


def scaled_element(backend, el, lam):
    out = RandomElement(
        symbol=el.symbol.with_samples(lam * el.symbol.samples),
        payload=el.payload.scaled(lam),
        spec=el.spec,
    )
    return out


# ---------------------------------------------------------------------------
# element sampling
# ---------------------------------------------------------------------------


def test_sampling_deterministic(small_backend):
    a = small_backend.sample_element(42)
    b = small_backend.sample_element(42)
    assert np.array_equal(a.symbol.samples, b.symbol.samples)
    assert np.array_equal(a.payload.matrix, b.payload.matrix)


def test_sampling_distinct_seeds(small_backend):
    a = small_backend.sample_element(7)
    b = small_backend.sample_element(8)
    assert np.abs(a.symbol.samples - b.symbol.samples).max() > 1e-3


@pytest.mark.parametrize("backend_name", ["small_backend", "classical_backend"])
def test_apply_sets_multiplied_symbol(request, backend_name):
    backend = request.getfixturevalue(backend_name)
    el = backend.sample_element(3)
    xhat = backend.fourier(el)
    g = heat_symbol(0.5, backend.dim)
    out = backend.apply(g, el)
    assert out.symbol.same_grid(backend.fourier_grid())
    expected = calculus.evaluate_multiplier(g, xhat).samples * xhat.samples
    assert np.array_equal(out.symbol.samples, expected)


def test_sampling_boundary_gate_audit():
    backend = MoyalBackend(h=1.0, fock_dim=8, half_width=8.0, n=48)
    for seed in range(1000):
        el = backend.sample_element(seed)
        assert el.symbol.boundary_decay() < 1e-10


# ---------------------------------------------------------------------------
# individual cases
# ---------------------------------------------------------------------------


def test_r1_pairing_near_one(small_backend):
    for seed in (0, 1, 2):
        case = run_case(small_backend, "R1", {}, seed)
        assert abs(case.ratio - 1.0) < 1e-4 and case.passed


def test_r2_parseval_at_two(small_backend):
    case = run_case(small_backend, "R2", {"p": 2.0}, 5)
    assert abs(case.ratio - 1.0) < 1e-4


def test_r16_flat_spectrum_equality(small_backend, theta):
    from qeuclid.spectra import SingularValueProfile, entropy_term

    c = theta.trace_weight
    prof = SingularValueProfile(np.concatenate([np.full(7, 2.5), np.zeros(3)]), c)
    p, q = 1.5, 3.0
    lhs = math.exp(entropy_term(prof, p))
    np_ = (c * np.sum(prof.sigmas**p)) ** (1 / p)
    nq = (c * np.sum(prof.sigmas**q)) ** (1 / q)
    rhs = (nq / np_) ** (p * q / (q - p))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_r8_reduces_to_r5_and_r2(small_backend):
    p = 4.0 / 3.0
    seed = 11
    r5 = run_case(small_backend, "R5", {"p": p}, seed)
    r8_low = run_case(small_backend, "R8", {"p": p, "r": p}, seed)
    assert r8_low.ratio == pytest.approx(r5.ratio, rel=1e-6)
    r2 = run_case(small_backend, "R2", {"p": p}, seed)
    r8_high = run_case(small_backend, "R8", {"p": p, "r": conjugate_exponent(p)}, seed)
    assert r8_high.ratio == pytest.approx(r2.ratio, rel=1e-6)


SCALE_INVARIANT_IDS = ["R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R11", "R12", "R13", "R14", "R15", "R18"]


@pytest.mark.parametrize("tid", SCALE_INVARIANT_IDS)
def test_ratio_scale_invariance(small_backend, tid):
    entry = REGISTRY[tid]
    params = default_params(tid, small_backend)[0]
    el = small_backend.sample_element(23)
    lhs0, rhs0 = entry.compute_fn(small_backend, params, [el])
    lhs1, rhs1 = entry.compute_fn(small_backend, params, [scaled_element(small_backend, el, 3.7)])
    assert lhs1 / rhs1 == pytest.approx(lhs0 / rhs0, rel=1e-10)


def test_r17_parameter_gate(small_backend):
    with pytest.raises(ValueError):
        run_case(small_backend, "R17", {"p": 1.5, "s": 2.0}, 0)  # s >= d/p
    with pytest.raises(ValueError):
        run_case(small_backend, "R17", {"p": 1.5, "s": 0.1}, 0)  # below lower edge
    with pytest.raises(ValueError):
        run_case(small_backend, "R17", {"p": 2.5, "s": 0.8}, 0)


def test_r9_range_gate(small_backend):
    with pytest.raises(ValueError):
        run_case(small_backend, "R9", {"p": 3.0, "q": 4.0, "t0": 1.0}, 0)


def test_registry_ids_complete():
    assert registry_ids() == [f"R{i}" for i in range(1, 19)]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def test_suite_single_trial_matches_case(small_backend):
    params = default_params("R2", small_backend)
    cases, summary = run_suite(small_backend, "R2", 1, 99, params_grid=params)
    case = run_case(small_backend, "R2", params[0], derive_seed(99, "R2", 0))
    assert cases[0].ratio == case.ratio
    assert summary.trials == 1 and summary.max_ratio == case.ratio


def test_suite_deterministic(small_backend):
    c1, s1 = run_suite(small_backend, "R4", 6, 1234)
    c2, s2 = run_suite(small_backend, "R4", 6, 1234)
    assert [c.ratio for c in c1] == [c.ratio for c in c2]
    assert s1.fitted_constant == s2.fitted_constant


def test_suite_constant_one_all_pass(small_backend):
    cases, summary = run_suite(small_backend, "R2", 30, 7)
    assert summary.failures == 0
    assert summary.max_ratio <= 1.0 + 1e-3


def test_suite_empirical_fit_and_batches(small_backend):
    cases, summary = run_suite(small_backend, "R5", 20, 3)
    assert summary.failures == 0
    assert math.isfinite(summary.fitted_constant)
    assert len(summary.batch_constants) == 2
    assert max(summary.batch_constants) <= summary.fitted_constant + 1e-12


def test_failure_policy_counts_and_continues(small_backend, monkeypatch):
    import dataclasses

    entry = REGISTRY["R2"]
    calls = {"n": 0}
    orig = entry.compute_fn

    def flaky(backend, params, els):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise ValueError("synthetic numeric failure")
        return orig(backend, params, els)

    monkeypatch.setitem(REGISTRY, "R2", dataclasses.replace(entry, compute_fn=flaky))
    cases, summary = run_suite(small_backend, "R2", 9, 5)
    assert summary.failures == 3
    assert sum(1 for c in cases if c.reason == "ValueError") == 3
    assert all(math.isfinite(c.ratio) for c in cases if c.reason == "")


# ---------------------------------------------------------------------------
# norm-ratio search and slope fit
# ---------------------------------------------------------------------------


def test_norm_ratio_identity_symbol(small_backend):
    est = estimate_norm_ratio(small_backend, constant_symbol(1.0), 2.0, 2.0, 3, 0)
    assert est >= 1.0 - 1e-3


def test_norm_ratio_homogeneity(small_backend):
    g = heat_symbol(0.5)
    a = estimate_norm_ratio(small_backend, g, 4 / 3, 4.0, 2, 0)
    g3 = constant_symbol(3.0)
    from qeuclid.calculus import MultiplierSymbol

    g_scaled = MultiplierSymbol("3*heat", lambda *m: 3.0 * g.evaluator(*m))
    b = estimate_norm_ratio(small_backend, g_scaled, 4 / 3, 4.0, 2, 0)
    assert b == pytest.approx(3.0 * a, rel=1e-9)


def test_fit_decay_slope_power_law():
    ts = np.geomspace(0.1, 50, 12)
    assert fit_decay_slope([(t, t**-0.75) for t in ts]) == pytest.approx(-0.75, abs=1e-10)
    assert fit_decay_slope([(t, 2.5) for t in ts]) == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_slope_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_decay_slope([(1.0, 1.0), (2.0, 0.5)])
    ts = np.geomspace(1, 2, 8)  # only 0.3 decades
    with pytest.raises(ValueError):
        fit_decay_slope([(t, 1 / t) for t in ts])
    with pytest.raises(ValueError):
        fit_decay_slope([(t, -1.0) for t in np.geomspace(0.1, 50, 8)])


def test_sobolev_scale_sweep_shapes():
    # narrow probes need the full-size window (alias gap scales with n/L)
    backend = MoyalBackend(h=1.0, fock_dim=64, half_width=8.0, n=64)
    ratios = sobolev_scale_sweep(backend, 4 / 3, 4.0, 0.75, [1.0, 1.4])
    assert len(ratios) == 2 and all(r > 0 for r in ratios)


def test_derive_seed_stable():
    assert derive_seed(1, "R2", 0) == derive_seed(1, "R2", 0)
    assert derive_seed(1, "R2", 0) != derive_seed(1, "R2", 1)
    assert derive_seed(1, "R2", 0) != derive_seed(2, "R2", 0)


def test_norm_ratio_bounded_by_level_set_constant():
    # the random-search lower bound must sit below a modest multiple of the
    # superlevel functional across a decade of heat times; the narrowest
    # admissible elements need the shipped (64, 64) window to clear the gate
    from qeuclid.calculus import evaluate_multiplier
    from qeuclid.symbols import hormander_constant

    backend = MoyalBackend(h=1.0, fock_dim=64, half_width=8.0, n=64)
    p, q = 4.0 / 3.0, 4.0
    for t0 in (0.25, 1.0, 2.5):
        g = heat_symbol(t0, backend.dim)
        lower = estimate_norm_ratio(backend, g, p, q, 4, 0)
        gvals = evaluate_multiplier(g, backend.fourier_grid())
        bound = hormander_constant(gvals, p, q)
        assert 0 < lower <= 1.5 * bound, (t0, lower, bound)


def test_decay_envelope_peaks_inside_grid(small_backend):
    # value * t^gamma along the heat curve must peak away from the grid edges
    p, q = 4.0 / 3.0, 4.0
    gamma = (small_backend.dim / 2) * (1 / p - 1 / q)
    probe = small_backend.heat_probe()
    base = small_backend.norm(probe, p)
    ts = np.geomspace(0.5, 20.0, 10)
    vals = np.array([small_backend.norm(small_backend.heat(probe, t), q) / base for t in ts])
    env = vals * ts**gamma
    k = int(np.argmax(env))
    assert 0 < k < len(ts) - 1
    assert np.isfinite(env).all()
