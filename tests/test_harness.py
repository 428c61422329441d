import math

import numpy as np
import pytest
from conftest import spec_mixture

from qeuclid.harness import (
    Backend,
    REGISTRY,
    MoyalBackend,
    RandomElement,
    conjugate_exponent,
    derive_seed,
    estimate_norm_ratio,
    fit_decay_slope,
    registry_ids,
    run_case,
    run_index,
    sobolev_scale_sweep,
    summarize_cases,
    trial_plan,
)
from qeuclid import calculus, spectra, symbols
from qeuclid.calculus import constant_symbol, heat_symbol
from qeuclid.errors import DomainError, GridMismatchError
from qeuclid.symbols import GaussianMixture, SymbolGrid, grid_meshes
from qeuclid.weyl import BOUNDARY_GATE, DeformationMatrix, QuantizedOperator


def scaled_element(backend, el, lam):
    """lam * el: its Fock matrix on the Moyal backend, its position samples on the classical one."""
    x = el.payload
    if isinstance(x, QuantizedOperator):
        payload = QuantizedOperator(lam * x.matrix, x.theta)
    else:
        payload = x.with_samples(lam * x.samples)
    return RandomElement(symbol=el.symbol.with_samples(lam * el.symbol.samples), payload=payload, spec=el.spec)


# ---------------------------------------------------------------------------
# element sampling
# ---------------------------------------------------------------------------


def payload_array(el):
    """The Fock matrix of a quantized element, the position samples of a classical one."""
    return el.payload.matrix if el.symbol.dim == 2 else el.payload.samples


BACKENDS = pytest.mark.parametrize("backend_name", ["small_backend", "classical_backend"])


@BACKENDS
def test_sampling_deterministic(request, backend_name):
    backend = request.getfixturevalue(backend_name)
    a = backend.sample_element(42)
    b = backend.sample_element(42)
    assert a.spec == b.spec
    assert np.array_equal(a.symbol.samples, b.symbol.samples)
    assert np.array_equal(payload_array(a), payload_array(b))


@BACKENDS
def test_sampling_distinct_seeds(request, backend_name):
    backend = request.getfixturevalue(backend_name)
    a = backend.sample_element(7)
    b = backend.sample_element(8)
    assert np.abs(a.symbol.samples - b.symbol.samples).max() > 1e-3


@BACKENDS
def test_apply_sets_multiplied_symbol(request, backend_name):
    backend = request.getfixturevalue(backend_name)
    el = backend.sample_element(3)
    xhat = backend.fourier(el)
    g = heat_symbol(0.5)
    # the base apply is the grid pass; MoyalBackend.apply takes the Fock pass for heat
    out = Backend.apply(backend, g, el)
    assert out.symbol.same_grid(backend.fourier_grid())
    expected = calculus.evaluate_multiplier(g, xhat).samples * xhat.samples
    assert np.array_equal(out.symbol.samples, expected)


@BACKENDS
def test_sampling_boundary_gate_audit(request, backend_name):
    backend = request.getfixturevalue(backend_name)
    for seed in range(1000):
        el = backend.sample_element(seed)
        assert el.symbol.boundary_decay() < 1e-10
        assert all(np.linalg.norm(c["center"]) <= backend.half_width / 4 for c in el.spec["components"])


@BACKENDS
def test_spec_rebuilds_drawn_samples(request, backend_name):
    # the trace-identity criterion and the benchmark's trace oracle evaluate
    # the mixture a draw's spec records, so it must give back the samples exactly
    backend = request.getfixturevalue(backend_name)
    for seed in range(6):
        el = backend.sample_element(seed)
        assert np.array_equal(spec_mixture(el.spec).value(grid_meshes(el.symbol)), el.symbol.samples)


def full_grid_draw(backend, seed):
    """sample_element's rejection loop gating every attempt on the whole grid:
    the reference its outer-shell pre-check must reproduce."""
    rng = np.random.default_rng(seed)
    L, d = backend.half_width, backend.dim
    for attempt in range(500):
        comps = []
        for _ in range(int(rng.integers(1, 4))):
            while True:
                c = rng.uniform(-L / 4, L / 4, size=d)
                if np.hypot.reduce(c, initial=0.0) <= L / 4:
                    break
            w = rng.uniform(backend.width_floor, 2.0)
            amp = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
            comps.append((c.tolist(), w, amp))
        f = SymbolGrid(d, L, backend.n, GaussianMixture(tuple(comps)).value(grid_meshes(backend.fourier_grid())))
        if f.boundary_decay() < BOUNDARY_GATE:
            components = [{"center": c, "width": w, "amp": [amp.real, amp.imag]} for c, w, amp in comps]
            return {"family": "gaussian_mixture", "seed": seed, "attempt": attempt, "components": components}, f
    raise AssertionError(f"seed {seed} drew nothing")


@BACKENDS
def test_shell_precheck_keeps_every_draw(request, backend_name):
    backend = request.getfixturevalue(backend_name)
    for seed in range(200):
        el = backend.sample_element(seed)
        spec, f = full_grid_draw(backend, seed)
        assert el.spec == spec
        assert np.array_equal(el.symbol.samples, f.samples)


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


@pytest.mark.parametrize("backend_name", ["small_backend", "classical_backend"])
def test_r2_and_r4_at_two_are_reciprocal(request, backend_name):
    # at p = 2 both read Plancherel, from opposite sides; on one trial index
    # they share the element, so their ratios multiply to 1
    backend = request.getfixturevalue(backend_name)
    seed = trial_plan(backend, "R2", 1, 5)[0][1]
    r2, r4 = run_index(backend, [("R2", {"p": 2.0}, seed), ("R4", {"p": 2.0}, seed)])
    assert abs(r2.ratio * r4.ratio - 1.0) <= 1e-12


@pytest.mark.parametrize("p", [4.0 / 3.0, 1.5])
def test_r8_at_r_equal_p_is_r5(small_backend, p):
    # at r = p, R8's weight exponent r(1/r - 1/p') and level power 1/r - 1/p'
    # are R5's 2 - p and (2 - p)/p, on the same element
    seed = trial_plan(small_backend, "R5", 1, 5)[0][1]
    r5, r8 = run_index(small_backend, [("R5", {"p": p}, seed), ("R8", {"p": p, "r": p}, seed)])
    assert abs(r8.ratio / r5.ratio - 1.0) <= 1e-13


def test_run_index_shares_draws(small_backend, monkeypatch):
    seeds = []
    draw = Backend.sample_element

    def counted(backend, seed):
        seeds.append(seed)
        return draw(backend, seed)

    monkeypatch.setattr(Backend, "sample_element", counted)
    seed = trial_plan(small_backend, "R1", 1, 3)[0][1]
    rows = [("R2", {"p": 2.0}, seed), ("R1", {}, seed), ("R4", {"p": 3.0}, seed)]
    cases = run_index(small_backend, rows)
    assert seeds == [derive_seed(seed, "element", 0), derive_seed(seed, "element", 1)]
    for case, (tid, params, _) in zip(cases, rows):
        assert case.ratio == run_case(small_backend, tid, params, seed).ratio
    with pytest.raises(ValueError, match="share one seed"):
        run_index(small_backend, [("R2", {"p": 2.0}, seed), ("R4", {"p": 2.0}, seed + 1)])


SCALE_INVARIANT_IDS = ["R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R11", "R12", "R14", "R15", "R18"]


@pytest.mark.parametrize(
    "backend_name, tid",
    [pytest.param("small_backend", tid, id=tid) for tid in SCALE_INVARIANT_IDS]
    + [pytest.param("classical_backend", tid, id=f"classical-{tid}") for tid in SCALE_INVARIANT_IDS],
)
def test_ratio_scale_invariance(request, backend_name, tid):
    backend = request.getfixturevalue(backend_name)
    entry = REGISTRY[tid]
    params = entry.params_fn(backend)[0]
    el = backend.sample_element(23)
    lhs0, rhs0 = entry.compute_fn(backend, params, [el])
    lhs1, rhs1 = entry.compute_fn(backend, params, [scaled_element(backend, el, 3.7)])
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
    assert registry_ids() == [f"R{i}" for i in range(1, 19) if i != 13]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def run_trials(backend, tid, n_trials, master_seed):
    """The suite's trials of trial_plan, each a fresh run_case, and their summary."""
    cases = [run_case(backend, tid, params, seed) for params, seed in trial_plan(backend, tid, n_trials, master_seed)]
    return cases, summarize_cases(tid, cases)


def test_suite_single_trial_matches_case(small_backend):
    params = REGISTRY["R2"].params_fn(small_backend)
    case = run_case(small_backend, "R2", params[0], trial_plan(small_backend, "R2", 1, 99, params)[0][1])
    summary = summarize_cases("R2", [case])
    assert summary.trials == 1 and summary.fitted_constant == case.ratio


def test_suite_deterministic(small_backend):
    c1, s1 = run_trials(small_backend, "R4", 6, 1234)
    c2, s2 = run_trials(small_backend, "R4", 6, 1234)
    assert [c.ratio for c in c1] == [c.ratio for c in c2]
    assert s1.fitted_constant == s2.fitted_constant


def test_suite_constant_one_all_pass(small_backend):
    cases, summary = run_trials(small_backend, "R2", 30, 7)
    assert summary.failures == 0
    assert summary.fitted_constant <= 1.0 + 1e-3


def test_suite_empirical_fit_and_batches(small_backend):
    cases, summary = run_trials(small_backend, "R5", 20, 3)
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
            raise DomainError("synthetic numeric failure")
        return orig(backend, params, els)

    monkeypatch.setitem(REGISTRY, "R2", dataclasses.replace(entry, compute_fn=flaky))
    cases, summary = run_trials(small_backend, "R2", 9, 5)
    assert summary.failures == 3
    assert sum(1 for c in cases if c.reason == "DomainError: synthetic numeric failure") == 3
    assert all(math.isfinite(c.ratio) for c in cases if c.reason == "")


def test_plain_value_error_propagates(small_backend, monkeypatch):
    # a ValueError that is not a domain failure is a bug, not a failed trial
    import dataclasses

    def buggy(backend, params, els):
        raise ValueError("bug")

    monkeypatch.setitem(REGISTRY, "R2", dataclasses.replace(REGISTRY["R2"], compute_fn=buggy))
    with pytest.raises(ValueError, match="bug"):
        run_case(small_backend, "R2", {"p": 1.5}, 5)


@pytest.mark.parametrize("backend_name", ["small_backend", "classical_backend"])
def test_r10_passes_down_to_twelve_tenths_of_gamma(request, monkeypatch, backend_name):
    # R10's ratio is slope / (-gamma) and its tol is 0.2: a slope passes iff it is >= -1.2 gamma
    import dataclasses

    backend = request.getfixturevalue(backend_name)
    entry = REGISTRY["R10"]
    params = entry.params_fn(backend)[0]
    gamma = (backend.dim / 2.0) * (1.0 / params["p"] - 1.0 / params["q"])
    for sides, passed, reason in (
        ((-1.2 * gamma * (1 - 1e-9), -gamma), True, ""),
        ((-1.2 * gamma * (1 + 1e-9), -gamma), False, ""),
        ((-gamma, math.nan), False, "nonfinite ratio"),
    ):
        monkeypatch.setitem(REGISTRY, "R10", dataclasses.replace(entry, compute_fn=lambda b, p, els, s=sides: s))
        case = run_case(backend, "R10", params, 0)
        assert (case.passed, case.reason) == (passed, reason), sides


def test_empirical_trial_passes_any_finite_ratio(small_backend, monkeypatch):
    # an empirical suite has no fixed constant (tol = inf): only an errored trial fails
    import dataclasses

    calls = {"n": 0}

    def huge_then_error(backend, params, els):
        calls["n"] += 1
        if calls["n"] == 2:
            raise DomainError("synthetic numeric failure")
        return 1e300, 1.0

    monkeypatch.setitem(REGISTRY, "R5", dataclasses.replace(REGISTRY["R5"], compute_fn=huge_then_error))
    cases, summary = run_trials(small_backend, "R5", 2, 0)
    assert [c.passed for c in cases] == [True, False]
    assert cases[1].reason == "DomainError: synthetic numeric failure"
    assert summary.failures == 1 and summary.fitted_constant == 1e300


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
    with pytest.raises(DomainError):
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
        g = heat_symbol(t0)
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
    vals = np.array([small_backend.norm(small_backend.apply(heat_symbol(t), probe), q) / base for t in ts])
    env = vals * ts**gamma
    k = int(np.argmax(env))
    assert 0 < k < len(ts) - 1
    assert np.isfinite(env).all()


def _svd_norm(el, p):
    return spectra.schatten_norm(spectra.singular_profile(el.payload), p)


def test_pair_trace_refuses_other_quantizations(small_backend, theta):
    b = small_backend
    N = b.fock_dim
    m = np.eye(N, dtype=complex)
    x = RandomElement(None, QuantizedOperator(m, theta), {})
    assert b.pair_trace(x, x) == pytest.approx(N * theta.trace_weight, rel=1e-15)
    for other in (QuantizedOperator(m, DeformationMatrix(2.0)), QuantizedOperator(m[:-1, :-1], theta)):
        y = RandomElement(None, other, {})
        for a, c in ((x, y), (y, x)):
            with pytest.raises(GridMismatchError, match="different quantizations"):
                b.pair_trace(a, c)


def test_moyal_norm_two_and_four_match_svd(small_backend, theta):
    # MoyalBackend.norm takes p = 2 and 4 from the matrix; the SVD profile is the oracle
    b = small_backend
    N = b.fock_dim
    els = [b.sample_element(derive_seed(5, i)) for i in range(3)]
    x = els[0]
    for g in (heat_symbol(1.0), heat_symbol(20.0), calculus.bessel_symbol(1.0), calculus.derivative_symbol(0)):
        els.append(b.apply(g, x))
    rng = np.random.default_rng(7)
    low_rank = rng.normal(size=(N, 3)) @ (rng.normal(size=(3, N)) + 1j * rng.normal(size=(3, N)))
    els.append(RandomElement(None, QuantizedOperator(low_rank, theta), {}))
    for el in els:
        for p in (2.0, 4.0):
            assert b.norm(el, p) == pytest.approx(_svd_norm(el, p), rel=1e-13, abs=0)
    zero = RandomElement(None, QuantizedOperator(np.zeros((N, N)), theta), {})
    assert b.norm(zero, 2.0) == b.norm(zero, 4.0) == _svd_norm(zero, 4.0) == 0.0
    # a cached profile does not change the rule (the redraw's norms are not memoized yet)
    before = [b.norm(b.sample_element(derive_seed(5, 9)), p) for p in (2.0, 4.0)]
    fresh = b.sample_element(derive_seed(5, 9))
    b.profile(fresh)
    assert [b.norm(fresh, p) for p in (2.0, 4.0)] == before


# ---------------------------------------------------------------------------
# trial-invariant caches
# ---------------------------------------------------------------------------


def test_multiplier_caches_key_on_exact_parameters():
    # heat(t=1) and heat(t=1+1e-7) print one label but are different symbols
    g, near = heat_symbol(1.0), heat_symbol(1.0 + 1e-7)
    assert g.label == near.label
    backend, other = (MoyalBackend(h=1.0, fock_dim=48, half_width=8.0, n=48) for _ in range(2))
    grid = backend.fourier_grid()
    a, b = backend.multiplier(g, grid), backend.multiplier(near, grid)
    assert not np.array_equal(a.samples, b.samples)
    assert backend.multiplier(heat_symbol(1.0), grid) is a  # a hit, for a symbol built anew
    for h in (g, near):
        assert np.array_equal(backend.multiplier(h, grid).samples, calculus.evaluate_multiplier(h, grid).samples)
    p, q = 4.0 / 3.0, 4.0
    c, c_near = backend.hormander_constant(g, p, q), backend.hormander_constant(near, p, q)
    assert c != c_near
    assert c == symbols.hormander_constant(calculus.evaluate_multiplier(g, grid), p, q)
    assert backend.hormander_constant(g, 2.0, q) != c  # the exponents are part of the key
    # two backends on one window share no entry
    assert other._multipliers == {} and other._hormander == {}
    assert other.multiplier(g, other.fourier_grid()) is not a
    assert other.hormander_constant(g, p, q) == c
    assert len(backend._multipliers) == 2 and len(other._multipliers) == 1


def test_uncached_symbols_are_sampled_on_every_call(small_backend, monkeypatch):
    # a symbol built by hand has no key, so nothing can tell two of them apart
    calls = []
    evaluate = calculus.evaluate_multiplier
    monkeypatch.setattr(calculus, "evaluate_multiplier", lambda g, grid: calls.append(g) or evaluate(g, grid))
    g = calculus.MultiplierSymbol("twice heat", lambda *m: 2.0 * heat_symbol(1.0).evaluator(*m))
    held = dict(small_backend._multipliers)
    for _ in range(2):
        small_backend.multiplier(g, small_backend.fourier_grid())
        small_backend.hormander_constant(g, 4.0 / 3.0, 4.0)
    assert len(calls) == 4 and small_backend._multipliers == held


@BACKENDS
def test_norm_memo_equals_a_fresh_computation(request, backend_name, monkeypatch):
    backend = request.getfixturevalue(backend_name)
    ps = (1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, math.inf)
    el = backend.sample_element(31)
    for p in ps:
        backend.norm(el, p)
    assert set(el._norms) == set(ps)
    monkeypatch.setattr(backend, "_norm", lambda el, p: pytest.fail("a memoized norm was recomputed"))
    memo = [backend.norm(el, p) for p in ps]
    monkeypatch.undo()
    redrawn = backend.sample_element(31)
    assert memo == [backend._norm(redrawn, p) for p in ps]


def test_trial_invariant_work_runs_once_per_backend(monkeypatch):
    # R9's heat symbol and its constant per (p, q), R14's Bessel symbols and
    # R10's probe depend only on the window and the parameters, so each is
    # computed once, by the first index that needs it; R10's ten heat times
    # are sampled once each and not held
    from qeuclid.oracle import ClassicalBackend

    sampled, constants = [], []
    evaluate, hormander = calculus.evaluate_multiplier, symbols.hormander_constant
    monkeypatch.setattr(calculus, "evaluate_multiplier", lambda g, grid: sampled.append(g.key) or evaluate(g, grid))
    monkeypatch.setattr(symbols, "hormander_constant", lambda g, p, q: constants.append((p, q)) or hormander(g, p, q))
    backend = ClassicalBackend(64.0, 4096)
    plans = {tid: trial_plan(backend, tid, n, 11) for tid, n in (("R9", 4), ("R10", 1), ("R14", 6))}
    for i in range(6):
        run_index(backend, [(tid, *plan[i]) for tid, plan in plans.items() if i < len(plan)])
    bessel = {("bessel", params["s"]) for params, _ in plans["R14"]}
    sweep = {("heat", t) for t in np.geomspace(0.5, 20.0, 10)}
    assert len(bessel) == 3 and len(sampled) == len(set(sampled))
    assert set(sampled) == {("heat", 1.0), ("heat", backend.heat_rate)} | bessel | sweep
    assert sorted(constants) == [(4.0 / 3.0, 4.0), (2.0, 4.0)]
    assert {key for key, _ in backend._multipliers} == {("heat", 1.0), ("heat", backend.heat_rate)} | bessel
