import numpy as np
import pytest
from hypothesis import given, strategies as st

from qeuclid.symbols import (
    SymbolGrid,
    classical_fourier,
    hormander_constant,
    lebesgue_norm,
    lorentz_norm,
    lorentz_step_norm,
    paley_weight_constant,
    rearrangement,
    sample_symbol,
    superlevel_measure,
    threshold_grid,
)


def gaussian2(n=64, L=8.0, a=0.5, center=(0.0, 0.0)):
    return sample_symbol("gaussian", {"a": a, "center": center}, L, n, dim=2)


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
    f = sample_symbol("heat", {"t": 0.0}, 8.0, 32, dim=2)
    assert np.all(f.samples == 1.0)


def test_bessel_sigma0_is_one():
    f = sample_symbol("bessel", {"sigma": 0.0}, 8.0, 32, dim=2)
    assert np.allclose(f.samples, 1.0)


def test_unknown_family_raises():
    with pytest.raises(ValueError, match="unknown symbol family"):
        sample_symbol("wavelet", {}, 8.0, 32)


@pytest.mark.parametrize("bad", [{"half_width": -1.0, "n": 32}, {"half_width": 8.0, "n": 0}])
def test_bad_grid_raises(bad):
    with pytest.raises(ValueError):
        sample_symbol("heat", {"t": 1.0}, bad["half_width"], bad["n"])


def test_no_node_on_boundary():
    f = gaussian2(n=17, L=4.0)
    assert np.abs(f.axes).max() < 4.0


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
    for family, params in [("gaussian", {"a": 0.7, "center": (0.4, -0.2)}), ("heat", {"t": 0.5}),
                           ("bessel", {"sigma": 6.0}), ("coordinate", {"axis": 1, "a": 0.5})]:
        f = sample_symbol(family, params, 8.0, 128, dim=2)
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
# superlevel functionals
# ---------------------------------------------------------------------------


def test_superlevel_constant_function():
    f = SymbolGrid(2, 4.0, 32, np.ones((32, 32)))
    assert superlevel_measure(f, 0.5) == pytest.approx(64.0)  # (2L)^2
    assert superlevel_measure(f, 2.0) == 0.0
    with pytest.raises(ValueError):
        superlevel_measure(f, 0.0)


def test_superlevel_heat_disc_area():
    g = sample_symbol("heat", {"t": 1.0}, 6.0, 256, dim=2)
    assert superlevel_measure(g, np.exp(-1.0)) == pytest.approx(np.pi, rel=2e-2)


def test_superlevel_monotone_and_flat_between_levels():
    g = gaussian2(n=32)
    ts = np.linspace(0.05, 1.0, 60)
    vals = [superlevel_measure(g, t) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    levels = np.sort(np.abs(g.samples).ravel())
    mid = 0.5 * (levels[100] + levels[101])
    if levels[101] > levels[100]:
        for t in np.linspace(levels[100] + 1e-12, levels[101], 5):
            assert superlevel_measure(g, t) == superlevel_measure(g, mid)


def test_paley_weight_harmonic_decay():
    ax = np.abs(sample_symbol("heat", {"t": 0}, 64.0, 4096, dim=1).axes)
    h = SymbolGrid(1, 64.0, 4096, 1.0 / (1.0 + ax))
    assert paley_weight_constant(h) == pytest.approx(2.0, rel=5e-2)


def test_paley_weight_exponential_decay():
    ax = sample_symbol("heat", {"t": 0}, 64.0, 4096, dim=1).axes
    h = SymbolGrid(1, 64.0, 4096, np.exp(-np.abs(ax)))
    assert paley_weight_constant(h) == pytest.approx(2.0 / np.e, rel=2e-2)


def test_paley_weight_homogeneity():
    ax = sample_symbol("heat", {"t": 0}, 32.0, 1024, dim=1).axes
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
        g = sample_symbol("heat", {"t": t0}, 8.0, 256, dim=2)
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
    g1 = sample_symbol("gaussian", {"a": 0.5, "wave": (1.0, 0.0)}, 8.0, 128, dim=2)
    g2 = g1.with_samples(np.abs(g1.samples))
    a = hormander_constant(g1, 1.5, 3.0)
    assert hormander_constant(g2, 1.5, 3.0) == pytest.approx(a, rel=1e-9)
    g3 = sample_symbol("gaussian", {"a": 0.5, "wave": (1.0, 0.0)}, 8.0, 256, dim=2)
    assert hormander_constant(g3, 1.5, 3.0) == pytest.approx(a, rel=2e-2)


def test_threshold_grid_spans_sample_range():
    g = gaussian2(n=32)
    tg = threshold_grid(g)
    assert len(tg) == 400 and tg[-1] == pytest.approx(np.abs(g.samples).max())


def test_lorentz_gaussian_closed_form():
    # mu(t, e^{-|s|^2/2}) = e^{-t/(2 pi)} gives
    # ||f||_{4,4/3}^{4/3} = Gamma(1/3) (3 pi / 2)^{1/3}
    from scipy.special import gamma

    f = gaussian2(n=256)
    ana = (gamma(1 / 3) * (3 * np.pi / 2) ** (1 / 3)) ** (3 / 4)
    assert lorentz_norm(f, 4.0, 4.0 / 3.0) == pytest.approx(ana, rel=2e-3)
