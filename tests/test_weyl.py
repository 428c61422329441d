from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from qeuclid import weyl
from qeuclid.errors import BoundaryDecayError
from qeuclid.symbols import SymbolGrid, axis_nodes, lebesgue_norm, sample_symbol
from qeuclid.weyl import (
    DeformationMatrix,
    QuantizedOperator,
    dequantize,
    displacement_matrix,
    kernel_trace_oracle,
    quantize,
    trace_tau,
    weyl_defect,
)


def gaussian_mixture(L, n, comps):
    ax = axis_nodes(L, n)
    T1, T2 = np.meshgrid(ax, ax, indexing="ij")
    vals = np.zeros((n, n), dtype=complex)
    for amp, c1, c2, w in comps:
        vals += amp * np.exp(-((T1 - c1) ** 2 + (T2 - c2) ** 2) / (2 * w * w))
    return SymbolGrid(2, L, n, vals)


def closed_form_displacement(alpha, N):
    """Reference entries from the textbook associated-Laguerre formula."""
    D = np.empty((N, N), dtype=complex)
    x = abs(alpha) ** 2
    for m in range(N):
        for n in range(N):
            if m >= n:
                pref = np.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1))) * alpha ** (m - n)
                D[m, n] = pref * np.exp(-x / 2) * eval_genlaguerre(n, m - n, x)
            else:
                pref = np.exp(0.5 * (gammaln(m + 1) - gammaln(n + 1))) * (-np.conj(alpha)) ** (n - m)
                D[m, n] = pref * np.exp(-x / 2) * eval_genlaguerre(m, n - m, x)
    return D


# ---------------------------------------------------------------------------
# deformation matrix
# ---------------------------------------------------------------------------


def test_canonical_form(theta):
    assert np.array_equal(theta.entries, np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert theta.trace_weight == pytest.approx(1 / (2 * np.pi))


@pytest.mark.parametrize("h", [0.05, 11.0, -1.0])
def test_h_range_rejected(h):
    with pytest.raises(ValueError):
        DeformationMatrix.canonical(h)


@given(st.tuples(st.floats(-5, 5), st.floats(-5, 5)))
def test_antisymmetry_pairing_vanishes(s):
    theta = DeformationMatrix.canonical(1.7)
    assert theta.pairing(np.array(s), np.array(s)) == 0.0


# ---------------------------------------------------------------------------
# displacement matrices
# ---------------------------------------------------------------------------


def test_displacement_zero_is_identity(theta):
    U = displacement_matrix(theta, (0.0, 0.0), 16)
    assert np.array_equal(U, np.eye(16))


@pytest.mark.parametrize("t", [(2.0, 0.0), (1.3, -1.1), (0.2, 1.9)])
def test_displacement_matches_closed_form(theta, t):
    N = 48
    U = displacement_matrix(theta, t, N)
    ref = closed_form_displacement(theta.alpha(np.array(t)), N)
    assert np.abs(U - ref).max() < 1e-10


def test_displacement_matches_exponential_oracle(theta):
    # U(t) = exp(i(t1 qhat + t2 phat)) with [qhat, phat] = i h; the truncated
    # generator exponential agrees with exact entries away from the edge band
    N, h = 48, theta.h
    a = np.diag(np.sqrt(np.arange(1, N)), 1)
    q = np.sqrt(h / 2) * (a + a.T)
    p = 1j * np.sqrt(h / 2) * (a.T - a)
    for t in [(1.0, 0.5), (-0.7, 1.2)]:
        U = displacement_matrix(theta, t, N)
        ref = expm(1j * (t[0] * q + t[1] * p))
        assert np.abs((U - ref)[: N // 2, : N // 2]).max() < 1e-9


def test_displacement_large_alpha_entries_bounded(theta):
    # stability check in the regime that breaks naive entry recurrences
    Ub = displacement_matrix(DeformationMatrix.canonical(2.0), (7.8, -7.8), 128)
    assert np.abs(Ub).max() <= 1.0 + 1e-12


def test_unitarity_defect_block(theta):
    N = 64
    for t in [(2.0, 0.0), (0.0, 2.0), (1.4, 1.4)]:
        U = displacement_matrix(theta, t, N)
        K = N // 2
        defect = np.linalg.norm((U @ U.conj().T - np.eye(N))[:K, :K], 2)
        assert defect < 1e-8


def test_displacement_rejects_bad_input(theta):
    with pytest.raises(ValueError):
        displacement_matrix(theta, (1.0, 0.0), 1)
    with pytest.raises(ValueError):
        displacement_matrix(theta, (1.0, 0.0, 0.0), 16)


# ---------------------------------------------------------------------------
# Weyl relation
# ---------------------------------------------------------------------------


def test_weyl_defect_zero_arguments(theta):
    assert weyl_defect(theta, (0.0, 0.0), (0.0, 0.0), 32) == 0.0


def test_weyl_defect_canonical_pair(theta):
    assert weyl_defect(theta, (1.0, 0.0), (0.0, 1.0), 64) < 1e-8


def test_weyl_phase_value(theta):
    # (t, theta s) = -h for t=(1,0), s=(0,1): the product carries e^{-ih/2}
    N = 64
    t, s = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert theta.pairing(t, s) == pytest.approx(-theta.h)
    Ut = displacement_matrix(theta, t, N)
    Us = displacement_matrix(theta, s, N)
    Uts = displacement_matrix(theta, t + s, N)
    K = N // 2
    got = (Ut @ Us)[:K, :K] @ np.linalg.inv(Uts[:K, :K])
    assert np.abs(got - np.exp(-0.5j * theta.h) * np.eye(K)).max() < 1e-6


def test_weyl_inverse_pair(theta):
    t = np.array([1.1, -0.6])
    assert weyl_defect(theta, t, -t, 64) < 1e-8
    U = displacement_matrix(theta, t, 64)
    V = displacement_matrix(theta, -t, 64)
    assert np.abs((U.conj().T - V)[:32, :32]).max() < 1e-10


def test_weyl_defect_improves_with_dimension(theta):
    t, s = (1.5, 0.5), (-0.5, 1.0)
    defects = [weyl_defect(theta, t, s, N) for N in (16, 32, 64)]
    assert defects[1] < defects[0] * 1.1 and defects[2] < defects[1] * 1.1


# ---------------------------------------------------------------------------
# quantize / trace / dequantize
# ---------------------------------------------------------------------------


def test_trace_of_gaussian_is_value_at_origin(theta):
    f = gaussian_mixture(8.0, 64, [(1.0, 0.0, 0.0, 1.0)])
    x = quantize(f, theta, 128)
    assert trace_tau(x) == pytest.approx(1.0, abs=1e-5)


def test_trace_weight_against_kernel_oracle():
    rng = np.random.default_rng(7)
    for h in (0.5, 1.0, 2.0):
        theta = DeformationMatrix.canonical(h)
        for _ in range(4):
            comps = [
                (rng.normal() + 1j * rng.normal(), rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.7, 1.0))
                for _ in range(int(rng.integers(1, 3)))
            ]
            # h = 2 pushes the Fock band to sqrt(2 h N); widen the reciprocal
            # range accordingly so the quadrature window stays clean
            grid_n = 96 if h > 1 else 64
            f = gaussian_mixture(8.0, grid_n, comps)
            x = quantize(f, theta, 64)
            f0 = sum(a * np.exp(-(c1**2 + c2**2) / (2 * w * w)) for a, c1, c2, w in comps)

            def f_slice(t1):
                return sum(a * np.exp(-((t1 - c1) ** 2 + c2**2) / (2 * w * w)) for a, c1, c2, w in comps)

            oracle = h / (2 * np.pi) * kernel_trace_oracle(f_slice, h)
            assert abs(trace_tau(x) - f0) / abs(f0) < 1e-3
            assert abs(oracle - f0) / abs(f0) < 1e-3


def test_quantize_linearity(theta):
    f = gaussian_mixture(8.0, 48, [(1.0, 0.3, -0.2, 0.8)])
    g = gaussian_mixture(8.0, 48, [(0.5j, -0.5, 0.4, 0.9)])
    a, b = 2.0 - 1.0j, 0.3
    lhs = quantize(f.with_samples(a * f.samples + b * g.samples), theta, 48)
    rhs = quantize(f, theta, 48).scaled(a) + quantize(g, theta, 48).scaled(b)
    assert np.abs(lhs.matrix - rhs.matrix).max() < 1e-12 * np.abs(lhs.matrix).max()


def test_operator_norm_below_l1(theta):
    f = gaussian_mixture(8.0, 64, [(1.0, 0.4, -0.3, 0.8), (0.5 - 0.2j, -1.0, 0.6, 0.7)])
    x = quantize(f, theta, 96)
    assert np.linalg.norm(x.matrix, 2) <= lebesgue_norm(f, 1) * (1 + 1e-3)


def test_boundary_gate(theta):
    wide = gaussian_mixture(8.0, 48, [(1.0, 0.0, 0.0, 4.0)])
    with pytest.raises(BoundaryDecayError):
        quantize(wide, theta, 48)


def test_roundtrip_gaussians(theta):
    for comps in ([(1.0, 0.0, 0.0, 1.0)], [(1.0, 0.3, -0.5, 0.8), (0.5 - 0.2j, -1.0, 0.6, 0.7)]):
        f = gaussian_mixture(8.0, 64, comps)
        x = quantize(f, theta, 128)
        back = dequantize(x, 8.0, 64)
        assert np.abs(back.samples - f.samples).max() < 1e-4


def test_dequantize_zero(theta):
    f = gaussian_mixture(8.0, 32, [(1.0, 0.0, 0.0, 0.8)])
    x = quantize(f, theta, 32).scaled(0.0)
    assert np.all(dequantize(x, 8.0, 32).samples == 0)


def test_plancherel_identity(theta):
    f = gaussian_mixture(8.0, 64, [(1.0, 0.5, 0.0, 0.9), (0.3j, -0.4, 0.7, 0.8)])
    x = quantize(f, theta, 96)
    xhat = dequantize(x, 8.0, 64)
    lhs = np.sqrt(x.trace_weight * np.sum(np.abs(x.matrix) ** 2))
    rhs = lebesgue_norm(xhat, 2)
    assert abs(lhs - rhs) / rhs < 1e-4


def test_quantize_dequantize_adjointness(theta):
    # tau(quantize(f) quantize(g)^*) = int f conj(g)
    f = gaussian_mixture(8.0, 64, [(1.0, 0.2, -0.3, 0.9)])
    g = gaussian_mixture(8.0, 64, [(0.7 - 0.4j, -0.6, 0.1, 0.8)])
    xf, xg = quantize(f, theta, 96), quantize(g, theta, 96)
    lhs = xf.trace_weight * np.sum(xf.matrix * np.conj(xg.matrix))
    rhs = np.sum(f.samples * np.conj(g.samples)) * f.cell_volume
    assert abs(lhs - rhs) / abs(rhs) < 1e-4


def test_trace_linearity_and_conjugation(theta):
    f = gaussian_mixture(8.0, 48, [(1.0 + 0.5j, 0.3, -0.2, 0.8)])
    x = quantize(f, theta, 48)
    assert trace_tau(x.scaled(2.0j)) == pytest.approx(2.0j * trace_tau(x), rel=1e-12)
    assert trace_tau(x.adjoint()) == pytest.approx(np.conj(trace_tau(x)), rel=1e-12)


def test_operator_roundtrip_block(theta):
    f = gaussian_mixture(8.0, 64, [(1.0, 0.3, -0.5, 0.8)])
    x = quantize(f, theta, 128)
    y = quantize(dequantize(x, 8.0, 64), theta, 128, boundary_gate=None)
    K = 64
    num = np.linalg.norm((y.matrix - x.matrix)[:K, :K], 2)
    den = np.linalg.norm(x.matrix[:K, :K], 2)
    assert num / den < 1e-4


def test_quantize_requires_dim2(theta):
    f = sample_symbol("gaussian", {"a": 1.0}, 8.0, 64, dim=1)
    with pytest.raises(ValueError):
        quantize(f, theta, 32)


def _rel(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@given(
    n=st.integers(3, 8),
    N=st.integers(2, 12),
    h=st.sampled_from([0.5, 1.0, 2.0]),
    L=st.sampled_from([2.0, 4.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_stack_matches_direct_sums(n, N, h, L, seed):
    # quantize / dequantize read a two-entry cache of mirrored displacement
    # stacks; compare them with per-node displacement_matrix sums on three
    # windows in a row and the first again, so one stack is evicted and rebuilt.
    # The trace-weight check is off: at these Fock sizes it rejects h = 0.5.
    theta = DeformationMatrix.canonical(h)
    c = theta.trace_weight
    rng = np.random.default_rng(seed)
    for m in (n, n + 1, n + 2, n):
        s = axis_nodes(L, m)
        U = [[displacement_matrix(theta, (s[i], s[j]), N) for j in range(m)] for i in range(m)]
        f = SymbolGrid(2, L, m, rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        x = QuantizedOperator(N, rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)), theta, c)
        with mock.patch.object(weyl, "_validate_trace_weight", lambda h, N: None):
            got = quantize(f, theta, N, boundary_gate=None).matrix
        ref = sum(f.samples[i, j] * U[i][j] for i in range(m) for j in range(m)) * f.cell_volume
        assert _rel(got, ref) <= 1e-13
        ref = np.array([[c * np.sum(x.matrix * np.conj(U[i][j])) for j in range(m)] for i in range(m)])
        assert _rel(dequantize(x, L, m).samples, ref) <= 1e-13
