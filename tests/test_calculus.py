import numpy as np
import pytest

from qeuclid.calculus import (
    MultiplierSymbol,
    adjoint_defect,
    apply_multiplier,
    bessel_potential,
    bessel_symbol,
    constant_symbol,
    evaluate_multiplier,
    heat_flow,
    heat_symbol,
    make_multiplier,
    pair_trace,
    partial_derivative,
    sobolev_norm,
    translate,
    translation_symbol,
    wm_norm,
)
from qeuclid.errors import BoundaryDecayError, DomainError
from qeuclid.spectra import schatten_norm, singular_profile
from qeuclid.symbols import SymbolGrid, axis_nodes, grid_meshes, lebesgue_norm
from qeuclid.weyl import dequantize, quantize

L, NGRID, NFOCK = 8.0, 64, 64


def symbol(comps):
    ax = axis_nodes(L, NGRID)
    T1, T2 = np.meshgrid(ax, ax, indexing="ij")
    vals = np.zeros((NGRID, NGRID), dtype=complex)
    for amp, c1, c2, w in comps:
        vals += amp * np.exp(-((T1 - c1) ** 2 + (T2 - c2) ** 2) / (2 * w * w))
    return SymbolGrid(2, L, NGRID, vals)


@pytest.fixture(scope="module")
def x(theta_module):
    return quantize(symbol([(1.0, 0.3, -0.4, 0.8), (0.4 - 0.3j, -0.6, 0.5, 0.7)]), theta_module, NFOCK)


@pytest.fixture(scope="module")
def y(theta_module):
    return quantize(symbol([(0.8j, 0.1, 0.6, 0.9)]), theta_module, NFOCK)


@pytest.fixture(scope="module")
def theta_module():
    from qeuclid.weyl import DeformationMatrix

    return DeformationMatrix.canonical(1.0)


def op_dist(a, b):
    na = np.linalg.norm(a.matrix - b.matrix, 2)
    return na / max(np.linalg.norm(a.matrix, 2), 1e-300)


# ---------------------------------------------------------------------------
# multiplier pipeline
# ---------------------------------------------------------------------------


def test_identity_multiplier_roundtrip(x):
    assert op_dist(apply_multiplier(constant_symbol(1.0), x, L, NGRID), x) < 1e-4


def test_multiplier_composition(x):
    g1, g2 = heat_symbol(0.4), translation_symbol((0.3, -0.2))
    lhs = apply_multiplier(g1, apply_multiplier(g2, x, L, NGRID), L, NGRID)

    def both(*m):
        return g1.evaluator(*m) * g2.evaluator(*m)

    from qeuclid.calculus import MultiplierSymbol

    rhs = apply_multiplier(MultiplierSymbol("g1*g2", both), x, L, NGRID)
    assert op_dist(lhs, rhs) < 1e-4


def test_nonfinite_multiplier_is_domain_error():
    g = MultiplierSymbol("pole", lambda s1, s2: np.where(s1 > 0, np.inf, 1.0))
    grid = SymbolGrid(2, 1.0, 2, np.ones((2, 2), dtype=complex))
    with pytest.raises(DomainError, match="not finite"):
        evaluate_multiplier(g, grid)


def test_fourier_side_action(x):
    g = heat_symbol(0.7)
    gx = apply_multiplier(g, x, L, NGRID)
    lhs = dequantize(gx, L, NGRID)
    xhat = dequantize(x, L, NGRID)
    gvals = evaluate_multiplier(g, xhat)
    sup = np.abs(lhs.samples - gvals.samples * xhat.samples).max()
    assert sup / np.abs(xhat.samples).max() < 1e-4


def test_multipliers_commute(x):
    g1, g2 = heat_symbol(0.5), translation_symbol((0.3, -0.2))
    a = apply_multiplier(g1, apply_multiplier(g2, x, L, NGRID), L, NGRID)
    b = apply_multiplier(g2, apply_multiplier(g1, x, L, NGRID), L, NGRID)
    assert op_dist(a, b) < 1e-4


def test_multiplier_norm_monotonicity(x):
    small, large = heat_symbol(1.0), heat_symbol(0.5)  # pointwise |small| <= |large|
    ns = schatten_norm(singular_profile(apply_multiplier(small, x, L, NGRID)), 2)
    nl = schatten_norm(singular_profile(apply_multiplier(large, x, L, NGRID)), 2)
    assert ns <= nl + 1e-6


def test_gate_on_uncaptured_transform(theta_module):
    # a near-delta symbol quantizes fine but its transform fills the grid
    f = symbol([(1.0, 0.0, 0.0, 0.18)])
    x = quantize(f, theta_module, NFOCK)
    with pytest.raises(BoundaryDecayError):
        apply_multiplier(constant_symbol(1.0), x, L, NGRID)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------


def test_derivative_matches_symbol_formula(x, theta_module):
    f = symbol([(1.0, 0.3, -0.4, 0.8), (0.4 - 0.3j, -0.6, 0.5, 0.7)])
    for axis in (0, 1):
        lhs = partial_derivative(x, axis, L, NGRID)
        meshes = grid_meshes(f)
        rhs = quantize(f.with_samples(1j * meshes[axis] * f.samples), theta_module, NFOCK, boundary_gate=None)
        assert op_dist(lhs, rhs) < 1e-4


def test_mixed_partials_commute(x):
    a = partial_derivative(partial_derivative(x, 0, L, NGRID), 1, L, NGRID)
    b = partial_derivative(partial_derivative(x, 1, L, NGRID), 0, L, NGRID)
    assert op_dist(a, b) < 1e-6


def test_derivative_l2_via_plancherel(theta_module):
    f = symbol([(1.0, 0.0, 0.0, 0.8)])
    x = quantize(f, theta_module, NFOCK)
    d = partial_derivative(x, 0, L, NGRID)
    lhs = schatten_norm(singular_profile(d), 2)
    meshes = grid_meshes(f)
    rhs = lebesgue_norm(f.with_samples(meshes[0] * f.samples), 2)
    assert abs(lhs - rhs) / rhs < 1e-3


# ---------------------------------------------------------------------------
# heat flow, Bessel potential, Sobolev norms
# ---------------------------------------------------------------------------


def test_heat_t0_identity(x):
    assert op_dist(heat_flow(x, 0.0, L, NGRID), x) < 1e-4
    with pytest.raises(ValueError):
        heat_flow(x, -0.5, L, NGRID)


def test_heat_semigroup(x):
    lhs = heat_flow(heat_flow(x, 0.6, L, NGRID), 0.9, L, NGRID)
    rhs = heat_flow(x, 1.5, L, NGRID)
    assert op_dist(lhs, rhs) < 1e-4


def test_heat_l2_contraction(x):
    base = schatten_norm(singular_profile(x), 2)
    for t in (0.25, 1.0, 4.0):
        flowed = schatten_norm(singular_profile(heat_flow(x, t, L, NGRID)), 2)
        assert flowed <= base * (1 + 1e-6)


def test_bessel_identity_and_inverse(theta_module, x):
    assert op_dist(bessel_potential(x, 0.0, L, NGRID), x) < 1e-4
    # the Bessel symbol has a branch point at |xi|^2 = -1, so its quantization
    # carries exp(-2 sqrt(N) asinh 1) Fock tails; chaining two applies needs
    # both a larger Fock dimension and the alias headroom of a finer grid
    nfine = 96
    ax = axis_nodes(L, nfine)
    T1, T2 = np.meshgrid(ax, ax, indexing="ij")
    vals = np.exp(-(T1**2 + T2**2) / (2 * 0.75**2)) + 0.4 * np.exp(
        -((T1 - 0.4) ** 2 + (T2 + 0.3) ** 2) / (2 * 0.75**2)
    )
    big = quantize(SymbolGrid(2, L, nfine, vals), theta_module, 96)
    roundtrip = bessel_potential(bessel_potential(big, 1.3, L, nfine), -1.3, L, nfine)
    assert op_dist(roundtrip, big) < 1e-4


def test_bessel_minus_two_same_path(x):
    lhs = bessel_potential(x, -2.0, L, NGRID)
    rhs = apply_multiplier(bessel_symbol(-2.0), x, L, NGRID)
    assert np.abs(lhs.matrix - rhs.matrix).max() < 1e-12


def test_sobolev_norm_s0_is_lp(x):
    for p in (1.0, 2.0, 4.0):
        assert sobolev_norm(x, p, 0.0, L, NGRID) == pytest.approx(
            schatten_norm(singular_profile(x), p), rel=1e-4
        )


def test_sobolev_monotone_in_s(theta_module, rng):
    for _ in range(3):
        w = rng.uniform(0.7, 1.0)
        f = symbol([(1.0, rng.uniform(-1, 1), rng.uniform(-1, 1), w)])
        xx = quantize(f, theta_module, NFOCK)
        norms = [sobolev_norm(xx, 2.0, s, L, NGRID) for s in (-1.0, 0.0, 0.7, 1.5)]
        assert all(a <= b * (1 + 1e-6) for a, b in zip(norms, norms[1:]))


def test_sobolev_p2_plancherel_route(theta_module):
    f = symbol([(1.0, 0.0, 0.0, 0.8)])
    xx = quantize(f, theta_module, NFOCK)
    s = 1.1
    meshes = grid_meshes(f)
    w = (1.0 + meshes[0] ** 2 + meshes[1] ** 2) ** (s / 2)
    rhs = lebesgue_norm(f.with_samples(w * f.samples), 2)
    assert abs(sobolev_norm(xx, 2.0, s, L, NGRID) - rhs) / rhs < 1e-3


# ---------------------------------------------------------------------------
# W^{p,m} norms
# ---------------------------------------------------------------------------


def test_wm_norm_order_zero(x):
    assert wm_norm(x, 2.0, 0, L, NGRID) == pytest.approx(schatten_norm(singular_profile(x), 2), rel=1e-12)


def test_wm_norm_order_one_three_terms(x):
    total = wm_norm(x, 2.0, 1, L, NGRID)
    parts = schatten_norm(singular_profile(x), 2)
    for axis in (0, 1):
        parts += schatten_norm(singular_profile(partial_derivative(x, axis, L, NGRID)), 2)
    assert total == pytest.approx(parts, rel=1e-10)
    assert total >= schatten_norm(singular_profile(x), 2)


def test_wm_norm_rejects_negative_order(x):
    with pytest.raises(ValueError):
        wm_norm(x, 2.0, -1, L, NGRID)


# ---------------------------------------------------------------------------
# translations and adjoints
# ---------------------------------------------------------------------------


def test_translate_zero_identity(x):
    assert op_dist(translate(x, (0.0, 0.0), L, NGRID), x) < 1e-4


def test_translate_preserves_trace_and_l2(x):
    from qeuclid.weyl import trace_tau

    moved = translate(x, (0.7, -0.4), L, NGRID)
    assert abs(trace_tau(moved) - trace_tau(x)) / abs(trace_tau(x)) < 1e-5
    n0 = schatten_norm(singular_profile(x), 2)
    assert abs(schatten_norm(singular_profile(moved), 2) - n0) / n0 < 1e-4


def test_adjoint_defect_small(x, y):
    for g in (heat_symbol(0.8), bessel_symbol(-1.5), translation_symbol((0.4, 0.1))):
        assert adjoint_defect(g, x, y, L, NGRID) < 1e-5 * abs(pair_trace(x, x))


def test_real_symbol_self_pairing_real(x):
    g = heat_symbol(0.5)
    gx = apply_multiplier(g, x, L, NGRID)
    val = pair_trace(gx, x)
    assert abs(val.imag) < 1e-8 * abs(val)


def test_adjoint_defect_identity_symbol(x, y):
    assert adjoint_defect(constant_symbol(1.0), x, y, L, NGRID) < 1e-12 * abs(pair_trace(x, y))


# ---------------------------------------------------------------------------
# multiplier registry
# ---------------------------------------------------------------------------


def test_make_multiplier_registry():
    for name in ("heat", "bessel", "derivative", "translate", "one", "disc"):
        make_multiplier(name, dim=2)
    with pytest.raises(ValueError):
        make_multiplier("mystery")
