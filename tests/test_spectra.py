import numpy as np
import pytest
from hypothesis import given, strategies as st

from qeuclid.errors import DomainError
from qeuclid.spectra import SingularValueProfile, entropy_term, schatten_norm, singular_profile
from qeuclid.symbols import GaussianMixture, SymbolGrid, grid_meshes, lebesgue_norm, lorentz_step_norm
from qeuclid.weyl import DeformationMatrix, QuantizedOperator, dequantize, quantize


def op_from_matrix(mat, theta):
    return QuantizedOperator(mat, theta)


def random_op(rng, theta, N=24):
    return op_from_matrix(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)), theta)


def quantized_gaussian(theta, n=64, N=96, comps=((1.0, 0.3, -0.4, 0.9),)):
    grid = SymbolGrid(2, 8.0, n, np.zeros((n, n)))
    mixture = GaussianMixture(tuple(((c1, c2), w, amp) for amp, c1, c2, w in comps))
    return quantize(grid.with_samples(mixture.value(grid_meshes(grid))), theta, N)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def test_projection_profile(theta):
    mat = np.zeros((16, 16), dtype=complex)
    mat[:5, :5] = 2.0 * np.eye(5)
    prof = singular_profile(op_from_matrix(mat, theta))
    assert np.count_nonzero(prof.sigmas == 2.0) == 5
    assert np.all(prof.sigmas[5:] == 0.0)


@given(st.floats(min_value=0.01, max_value=50.0))
def test_profile_homogeneity(lam):
    theta = DeformationMatrix.canonical(1.0)
    rng = np.random.default_rng(5)
    x = random_op(rng, theta)
    a = singular_profile(x).sigmas
    b = singular_profile(op_from_matrix(lam * x.matrix, theta)).sigmas
    assert np.allclose(b, lam * a, rtol=1e-12, atol=1e-300)


def test_unitary_block_profile(theta):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    u, _ = np.linalg.qr(m)
    prof = singular_profile(op_from_matrix(u, theta))
    assert np.allclose(prof.sigmas, 1.0, atol=1e-10)


# ---------------------------------------------------------------------------
# Schatten norms
# ---------------------------------------------------------------------------


def test_schatten_flat_spectrum(theta):
    k, c = 6, theta.trace_weight
    prof = SingularValueProfile(np.concatenate([2.0 * np.ones(k), np.zeros(4)]), c)
    for p in (1.0, 2.0, 3.0):
        assert schatten_norm(prof, p) == pytest.approx(2.0 * (c * k) ** (1 / p), rel=1e-12)
    assert schatten_norm(prof, np.inf) == 2.0


def test_schatten_matches_transform_l2(theta):
    x = quantized_gaussian(theta)
    xhat = dequantize(x, 8.0, 64)
    lhs = schatten_norm(singular_profile(x), 2)
    assert abs(lhs - lebesgue_norm(xhat, 2)) / lhs < 1e-4


def test_noncommutative_holder(rng, theta):
    for _ in range(40):
        x, y = random_op(rng, theta), random_op(rng, theta)
        p = rng.uniform(1.1, 4.0)
        pp = p / (p - 1)
        tau_xy = theta.trace_weight * np.trace(x.matrix @ y.matrix)
        bound = schatten_norm(singular_profile(x), p) * schatten_norm(singular_profile(y), pp)
        assert abs(tau_xy) <= bound * (1 + 1e-10)


def test_schatten_triangle(rng, theta):
    for p in (1.0, 1.7, 3.0):
        for _ in range(10):
            x, y = random_op(rng, theta), random_op(rng, theta)
            assert schatten_norm(singular_profile(op_from_matrix(x.matrix + y.matrix, theta)), p) <= (
                schatten_norm(singular_profile(x), p) + schatten_norm(singular_profile(y), p)
            ) * (1 + 1e-12)


def test_interpolation_bound(rng, theta):
    for _ in range(20):
        x = random_op(rng, theta)
        p, q = 1.0, 4.0
        eta = rng.uniform(0.05, 0.95)
        r = 1.0 / (eta / p + (1 - eta) / q)
        prof = singular_profile(x)
        assert schatten_norm(prof, r) <= schatten_norm(prof, p) ** eta * schatten_norm(prof, q) ** (1 - eta) * (1 + 1e-12)


def test_mu_integral_is_trace_norm(theta):
    rng = np.random.default_rng(3)
    x = random_op(rng, theta)
    prof = singular_profile(x)
    assert prof.weight * prof.sigmas.sum() == pytest.approx(schatten_norm(prof, 1), rel=1e-12)


def test_unitary_invariance(rng, theta):
    x = random_op(rng, theta)
    u, _ = np.linalg.qr(rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24)))
    v, _ = np.linalg.qr(rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24)))
    a = singular_profile(x).sigmas
    b = singular_profile(op_from_matrix(u @ x.matrix @ v, x.theta)).sigmas
    assert np.allclose(a, b, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# Lorentz norms of a profile (the step norm over its singular values)
# ---------------------------------------------------------------------------


def nc_lorentz(prof, p, q):
    return lorentz_step_norm(prof.sigmas, prof.weight, p, q)


def test_nc_lorentz_pp_is_lp(rng, theta):
    x = random_op(rng, theta)
    prof = singular_profile(x)
    for p in (1.0, 2.0, 3.5):
        assert nc_lorentz(prof, p, p) == pytest.approx(schatten_norm(prof, p), rel=1e-12)


def test_nc_lorentz_secondary_monotone_constant(rng, theta):
    worst = 0.0
    for _ in range(30):
        prof = singular_profile(random_op(rng, theta))
        worst = max(worst, nc_lorentz(prof, 2.0, 4.0) / nc_lorentz(prof, 2.0, 1.5))
    assert 0 < worst < 10.0


# ---------------------------------------------------------------------------
# entropy terms
# ---------------------------------------------------------------------------


def test_zero_operator_entropy_is_domain_error():
    with pytest.raises(DomainError, match="zero operator"):
        entropy_term(SingularValueProfile(np.zeros(3), 0.5), 1.5)


def test_entropy_flat_spectrum_closed_form(theta):
    c = theta.trace_weight
    for k, p in [(4, 1.5), (9, 2.0)]:
        prof = SingularValueProfile(np.concatenate([3.0 * np.ones(k), np.zeros(3)]), c)
        assert entropy_term(prof, p) == pytest.approx(-np.log(c * k), rel=1e-12)


def test_quantized_gaussian_thermal_spectrum(theta):
    # exp(-|t|^2/2) quantizes (h=1) to a diagonal operator with the geometric
    # spectrum (4 pi / 3) 3^{-n}: int_0^inf e^{-(c+1/2)x} L_n(x) dx telescopes
    # to (c - 1/2)^n / (c + 1/2)^{n+1} with c = 2a/h = 1
    x = quantized_gaussian(theta, n=64, N=96, comps=((1.0, 0.0, 0.0, 1.0),))
    sv = singular_profile(x).sigmas
    ref = (4 * np.pi / 3) * (1.0 / 3.0) ** np.arange(20)
    assert np.allclose(sv[:20], ref, rtol=1e-8)
