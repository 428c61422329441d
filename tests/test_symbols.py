import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qeuclid.calculus import bessel_symbol, evaluate_multiplier, heat_symbol
from qeuclid.symbols import (
    SymbolGrid,
    axis_nodes,
    classical_fourier,
    grid_meshes,
    hormander_constant,
    lebesgue_norm,
    lorentz_norm,
    lorentz_step_norm,
    paley_weight_constant,
    rearrangement,
    sample_symbol,
)


def gaussian2(n=64, L=8.0, a=0.5, center=(0.0, 0.0)):
    return sample_symbol("gaussian", {"a": a, "center": center}, L, n, dim=2)


def sampled(g, L, n, dim=2):
    """A multiplier symbol sampled on the midpoint grid (L, n)."""
    return evaluate_multiplier(g, SymbolGrid(dim, L, n, np.zeros((n,) * dim)))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_gaussian_node_value():
    f = gaussian2(n=64)
    ax = f.axes
    i = np.argmin(np.abs(ax))
    expected = np.exp(-(ax[i] ** 2 + ax[i] ** 2) / 2)
    assert f.samples[i, i] == pytest.approx(expected, rel=1e-12)


def test_heat_symbol_t0_is_one():
    f = sampled(heat_symbol(0.0), 8.0, 32)
    assert np.all(f.samples == 1.0)


def test_bessel_sigma0_is_one():
    f = sampled(bessel_symbol(0.0), 8.0, 32)
    assert np.allclose(f.samples, 1.0)


def test_unknown_family_raises():
    with pytest.raises(ValueError, match="unknown symbol family"):
        sample_symbol("wavelet", {}, 8.0, 32)


@pytest.mark.parametrize("bad", [{"half_width": -1.0, "n": 32}, {"half_width": 8.0, "n": 0}])
def test_bad_grid_raises(bad):
    with pytest.raises(ValueError):
        sample_symbol("gaussian", {}, bad["half_width"], bad["n"])


def test_no_node_on_boundary():
    f = gaussian2(n=17, L=4.0)
    assert np.abs(f.axes).max() < 4.0


@pytest.mark.parametrize("n", [48, 64, 65, 96])
def test_axis_nodes_exactly_symmetric(n):
    s = axis_nodes(8.0, n)
    assert np.array_equal(s, -s[::-1])


def test_grid_shift_translation_consistency():
    # integrating f and its one-cell grid shift agree to one boundary cell's mass
    f = gaussian2(n=64)
    shifted = np.roll(f.samples, 1, axis=0)
    shifted[0, :] = 0.0
    diff = abs(f.samples.sum() - shifted.sum()) * f.cell_volume
    boundary_mass = np.abs(f.samples[-1, :]).sum() * f.cell_volume
    assert diff <= boundary_mass + 1e-12


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------


def test_fourier_gaussian_closed_form():
    # int exp(-|s|^2/2) exp(-i t s) ds = 2 pi exp(-|t|^2/2) in two dimensions
    f = gaussian2(n=128, L=8.0)
    fh = classical_fourier(f)
    T1, T2 = np.meshgrid(fh.axes, fh.axes, indexing="ij")
    ref = 2 * np.pi * np.exp(-(T1**2 + T2**2) / 2)
    assert np.abs(fh.samples - ref).max() < 1e-6


def test_fourier_zero():
    f = SymbolGrid(2, 8.0, 32, np.zeros((32, 32)))
    assert np.all(classical_fourier(f).samples == 0)


def test_fourier_shift_modulation():
    a = (1.0, -0.5)
    f0 = gaussian2(n=128)
    fa = gaussian2(n=128, center=a)
    h0 = classical_fourier(f0)
    ha = classical_fourier(fa)
    T1, T2 = np.meshgrid(h0.axes, h0.axes, indexing="ij")
    assert np.abs(ha.samples - h0.samples * np.exp(-1j * (T1 * a[0] + T2 * a[1]))).max() < 1e-9


def test_fourier_parseval_unnormalized():
    g = gaussian2(n=128)
    for f in (
        sample_symbol("gaussian", {"a": 0.7, "center": (0.4, -0.2)}, 8.0, 128),
        sampled(heat_symbol(0.5), 8.0, 128),
        sampled(bessel_symbol(-6.0), 8.0, 128),
        g.with_samples(1j * g.samples * grid_meshes(g)[1]),
    ):
        fh = classical_fourier(f)
        lhs = lebesgue_norm(f, 2) ** 2
        rhs = lebesgue_norm(fh, 2) ** 2 / (2 * np.pi) ** 2
        assert abs(lhs - rhs) / lhs < 1e-4


def test_fourier_double_transform_returns_to_grid():
    f = gaussian2(n=64)
    back = classical_fourier(classical_fourier(f), +1)
    assert back.points_per_axis == 64 and back.half_width == pytest.approx(8.0)
    assert np.abs(back.samples / (2 * np.pi) ** 2 - f.samples).max() < 1e-10


# ---------------------------------------------------------------------------
# Lebesgue norms
# ---------------------------------------------------------------------------


def test_lebesgue_gaussian_l2():
    f = gaussian2(n=128)
    assert lebesgue_norm(f, 2) == pytest.approx(np.sqrt(np.pi), abs=1e-6)


def test_lebesgue_inf_and_zero():
    f = gaussian2(n=64)
    # max sits at the node nearest the origin, offset by half a cell
    assert lebesgue_norm(f, np.inf) == pytest.approx(1.0, abs=2e-2)
    z = SymbolGrid(2, 8.0, 16, np.zeros((16, 16)))
    assert lebesgue_norm(z, 3.0) == 0.0


def test_lebesgue_rejects_small_p():
    with pytest.raises(ValueError):
        lebesgue_norm(gaussian2(n=16), 0.5)


# ---------------------------------------------------------------------------
# rearrangement
# ---------------------------------------------------------------------------


def test_rearrangement_indicator():
    samples = np.zeros((16, 16))
    samples[2:5, 3:7] = 1.0  # 12 cells
    f = SymbolGrid(2, 4.0, 16, samples)
    levels = rearrangement(f)
    assert np.count_nonzero(levels == 1.0) == 12
    assert levels.size == 16 * 16


@given(st.floats(min_value=0.1, max_value=10.0))
def test_rearrangement_scaling(lam):
    f = gaussian2(n=32)
    a = rearrangement(f)
    b = rearrangement(f.with_samples(lam * f.samples))
    assert np.allclose(b, lam * a, rtol=1e-12)


def test_rearrangement_gaussian_matches_superlevel_formula():
    # |{exp(-|s|^2/2) >= u}| = -2 pi ln u, so mu(t) = exp(-t / (2 pi))
    f = gaussian2(n=256)
    levels = rearrangement(f)
    ts = np.array([0.5, 2.0, 5.0, 12.0])
    mu = levels[(ts / f.cell_volume).astype(int)]
    assert np.allclose(mu, np.exp(-ts / (2 * np.pi)), rtol=2e-2)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, np.inf])
def test_rearrangement_preserves_lp(p):
    f = sample_symbol("gaussian", {"a": 0.6, "center": (0.5, -1.0)}, 8.0, 48, dim=2)
    levels = rearrangement(f)
    if np.isinf(p):
        got = levels[0]
    else:
        got = (np.sum(levels**p) * f.cell_volume) ** (1 / p)
    assert got == pytest.approx(lebesgue_norm(f, p), rel=1e-12)


# ---------------------------------------------------------------------------
# Lorentz norms
# ---------------------------------------------------------------------------


@given(st.floats(min_value=1.0, max_value=6.0))
def test_lorentz_pp_equals_lp(p):
    f = gaussian2(n=32)
    assert lorentz_norm(f, p, p) == pytest.approx(lebesgue_norm(f, p), rel=1e-12)


def test_lorentz_indicator_weak_norm():
    samples = np.zeros((32, 32))
    samples[4:10, 4:14] = 1.0
    f = SymbolGrid(2, 4.0, 32, samples)
    m = 60 * f.cell_volume
    for p in (1.5, 2.0, 4.0):
        assert lorentz_norm(f, p, np.inf) == pytest.approx(m ** (1 / p), rel=1e-12)


def test_lorentz_secondary_embedding_constant_finite(rng):
    # || . ||_{p, r} <= C || . ||_{p, q} for q < r on random symbols
    worst = 0.0
    for k in range(60):
        w = rng.uniform(0.5, 1.5)
        c = rng.uniform(-1, 1, size=2)
        f = sample_symbol("gaussian", {"a": 1 / (2 * w * w), "center": tuple(c)}, 8.0, 48, dim=2)
        ratio = lorentz_norm(f, 2.0, 4.0) / lorentz_norm(f, 2.0, 1.5)
        worst = max(worst, ratio)
    assert 0 < worst < 10.0


def test_lorentz_holder_constant_finite(rng):
    # ||fg||_{r,s} <= C ||f||_{p,s1} ||g||_{q,s2}, 1/r = 1/p + 1/q, 1/s = 1/s1 + 1/s2
    p, q = 2.0, 2.0
    r = 1.0
    s1 = s2 = 2.0
    s = 1.0
    worst = 0.0
    for k in range(40):
        w1, w2 = rng.uniform(0.5, 1.5, size=2)
        f = sample_symbol("gaussian", {"a": 1 / (2 * w1 * w1)}, 8.0, 48, dim=2)
        g = sample_symbol("gaussian", {"a": 1 / (2 * w2 * w2), "center": (0.5, 0.0)}, 8.0, 48, dim=2)
        fg = f.with_samples(f.samples * g.samples)
        worst = max(worst, lorentz_norm(fg, r, s) / (lorentz_norm(f, p, s1) * lorentz_norm(g, q, s2)))
    assert 0 < worst < 10.0


def test_lorentz_step_norm_rank_one():
    c = 0.37
    for p, q in [(2.0, 1.0), (3.0, 2.0), (1.5, 4.0)]:
        got = lorentz_step_norm(np.array([1.0]), c, p, q)
        assert got == pytest.approx(c ** (1 / p) * (p / q) ** (1 / q), rel=1e-12)


# ---------------------------------------------------------------------------
# level-set constants
# ---------------------------------------------------------------------------


def _brute_force_sup(g, gamma):
    """max over every sample threshold t of t |{|g| >= t}|^gamma."""
    a = np.abs(g.samples).ravel()
    return max(t * (g.cell_volume * np.count_nonzero(a >= t)) ** gamma for t in a if t > 0)


@settings(max_examples=60, deadline=None)
@given(
    arrays(float, st.integers(1, 40), elements=st.floats(0.0, 1e3)),
    st.floats(0.1, 10.0),
    st.floats(1.01, 2.0),
    st.floats(2.0, 20.0),
)
def test_level_set_constants_are_exact_sups(samples, half_width, p, q):
    g = SymbolGrid(1, half_width, samples.size, samples)
    gamma = 1 / p - 1 / q
    if np.any(samples > 0):
        assert hormander_constant(g, p, q) == pytest.approx(_brute_force_sup(g, gamma), rel=1e-13)
    else:
        assert hormander_constant(g, p, q) == 0.0
    r = 1 / gamma if gamma > 0 else np.inf
    assert hormander_constant(g, p, q) == pytest.approx(lorentz_norm(g, r, np.inf), rel=1e-13)
    h = g.with_samples(samples + 1e-3)
    assert paley_weight_constant(h) == pytest.approx(_brute_force_sup(h, 1.0), rel=1e-13)


def test_superlevel_constant_function():
    # |{1 >= t}| = (2L)^2 for t <= 1 and 0 above
    f = SymbolGrid(2, 4.0, 32, np.ones((32, 32)))
    assert paley_weight_constant(f) == pytest.approx(64.0, rel=1e-13)
    assert hormander_constant(f, 1.5, 3.0) == pytest.approx(64.0 ** (1 / 1.5 - 1 / 3.0), rel=1e-13)
    with pytest.raises(ValueError):
        paley_weight_constant(f.with_samples(np.zeros((32, 32))))


def test_superlevel_heat_disc_area():
    g = sampled(heat_symbol(1.0), 6.0, 256)
    area = g.cell_volume * np.count_nonzero(rearrangement(g) >= np.exp(-1.0))
    assert area == pytest.approx(np.pi, rel=2e-2)


def test_paley_weight_harmonic_decay():
    ax = np.abs(axis_nodes(64.0, 4096))
    h = SymbolGrid(1, 64.0, 4096, 1.0 / (1.0 + ax))
    assert paley_weight_constant(h) == pytest.approx(2.0, rel=5e-2)


def test_paley_weight_exponential_decay():
    ax = axis_nodes(64.0, 4096)
    h = SymbolGrid(1, 64.0, 4096, np.exp(-np.abs(ax)))
    assert paley_weight_constant(h) == pytest.approx(2.0 / np.e, rel=2e-2)


def test_paley_weight_homogeneity():
    ax = axis_nodes(32.0, 1024)
    h = SymbolGrid(1, 32.0, 1024, np.exp(-(ax**2) / 4))
    m1 = paley_weight_constant(h)
    m3 = paley_weight_constant(h.with_samples(3.0 * h.samples))
    assert m3 == pytest.approx(3.0 * m1, rel=1e-10)


def test_paley_weight_rejects_nonpositive():
    f = SymbolGrid(1, 8.0, 512, np.linspace(-1, 1, 512))
    with pytest.raises(ValueError):
        paley_weight_constant(f)


def test_hormander_disc_indicator():
    samples = np.zeros((256, 256))
    f = SymbolGrid(2, 4.0, 256, samples)
    T1, T2 = np.meshgrid(f.axes, f.axes, indexing="ij")
    f = f.with_samples((T1**2 + T2**2 <= 1.0).astype(complex))
    for p, q in [(4 / 3, 4.0), (2.0, 2.0), (1.5, 3.0)]:
        gamma = 1 / p - 1 / q
        assert hormander_constant(f, p, q) == pytest.approx(np.pi**gamma, rel=2e-2)


def test_hormander_heat_closed_form():
    # sup_u u (pi (-ln u)/t0)^gamma = (pi gamma / (e t0))^gamma
    gamma = 1 / (4 / 3) - 1 / 4.0
    for t0 in (0.5, 1.0):
        g = sampled(heat_symbol(t0), 8.0, 256)
        ana = (np.pi * gamma / (np.e * t0)) ** gamma
        assert hormander_constant(g, 4 / 3, 4.0) == pytest.approx(ana, rel=3e-2)


def test_hormander_zero_and_range():
    z = SymbolGrid(2, 4.0, 64, np.zeros((64, 64)))
    assert hormander_constant(z, 1.5, 3.0) == 0.0
    g = gaussian2(n=32)
    with pytest.raises(ValueError):
        hormander_constant(g, 3.0, 4.0)
    # degenerate p = q: zero exponent, the constant is the sup of |g|
    assert hormander_constant(g, 2.0, 2.0) == pytest.approx(np.abs(g.samples).max(), rel=1e-9)


def test_hormander_invariance_under_modulus_and_refinement():
    def modulated(n):
        # exp(-|s|^2 / 2) exp(i s_1)
        g = gaussian2(n=n)
        return g.with_samples(g.samples * np.exp(1j * grid_meshes(g)[0]))

    g1 = modulated(128)
    g2 = g1.with_samples(np.abs(g1.samples))
    a = hormander_constant(g1, 1.5, 3.0)
    assert hormander_constant(g2, 1.5, 3.0) == pytest.approx(a, rel=1e-9)
    g3 = modulated(256)
    assert hormander_constant(g3, 1.5, 3.0) == pytest.approx(a, rel=2e-2)


def test_lorentz_gaussian_closed_form():
    # mu(t, e^{-|s|^2/2}) = e^{-t/(2 pi)} gives
    # ||f||_{4,4/3}^{4/3} = Gamma(1/3) (3 pi / 2)^{1/3}
    from scipy.special import gamma

    f = gaussian2(n=256)
    ana = (gamma(1 / 3) * (3 * np.pi / 2) ** (1 / 3)) ** (3 / 4)
    assert lorentz_norm(f, 4.0, 4.0 / 3.0) == pytest.approx(ana, rel=2e-3)
