from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from qeuclid import weyl
from qeuclid.errors import BoundaryDecayError
from qeuclid.symbols import GaussianMixture, SymbolGrid, axis_nodes, grid_meshes, lebesgue_norm, sample_symbol
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


def mixture(comps):
    """The GaussianMixture of (amp, c1, c2, w) components."""
    return GaussianMixture(tuple(((c1, c2), w, amp) for amp, c1, c2, w in comps))


def gaussian_mixture(L, n, comps):
    grid = SymbolGrid(2, L, n, np.zeros((n, n)))
    return grid.with_samples(mixture(comps).value(grid_meshes(grid)))


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
    assert theta == DeformationMatrix(1.0)
    assert theta.h == 1.0 and isinstance(DeformationMatrix(2).h, float)
    assert theta.trace_weight == pytest.approx(1 / (2 * np.pi))
    assert DeformationMatrix.canonical(2.5).trace_weight == pytest.approx(2.5 / (2 * np.pi))


@pytest.mark.parametrize("h", [0.05, 11.0, -1.0, float("nan")])
def test_h_range_rejected(h):
    with pytest.raises(ValueError, match="outside supported range"):
        DeformationMatrix.canonical(h)
    with pytest.raises(ValueError, match="outside supported range"):
        DeformationMatrix(h)


def test_quantized_operator_checks_and_derived_fields(theta):
    theta2 = DeformationMatrix(2.0)
    x = QuantizedOperator(np.eye(5, dtype=int), theta2)
    assert x.matrix.dtype == complex
    assert x.fock_dim == 5 and x.trace_weight == theta2.trace_weight
    for shape in ((4, 5), (4,), (2, 2, 2)):
        with pytest.raises(ValueError, match="must be square"):
            QuantizedOperator(np.zeros(shape), theta)
    for bad in (np.nan, np.inf):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            QuantizedOperator(m, theta)


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


@pytest.mark.parametrize("h", [1.0, 10.0])
def test_large_alpha_entries_match_closed_form(h):
    # the radial tables and displacement_matrix against the textbook formula
    # out to the L = 8 corner of the n = 64 grid, |alpha|^2 = 62 h (620 at h = 10)
    N, n, L = 128, 64, 8.0
    theta = DeformationMatrix.canonical(h)
    tab = weyl._radial_tables(h, L, n, N)
    for g in (0, tab.radii.size // 4, tab.radii.size // 2, tab.radii.size - 1):
        ref = closed_form_displacement(complex(tab.radii[g]), N)
        for d, blk in enumerate(tab.blocks):
            assert np.abs(blk[g] - np.diagonal(ref, -d)).max() <= 1e-12
    s = axis_nodes(L, n)
    assert abs(theta.alpha(np.array((s[-1], s[-1])))) ** 2 == pytest.approx(62.015625 * h)
    for t in [(s[-1], s[-1]), (s[0], s[-5]), (s[3], s[n // 2]), (s[20], s[50])]:
        ref = closed_form_displacement(theta.alpha(np.array(t)), N)
        assert np.abs(displacement_matrix(theta, t, N) - ref).max() <= 1e-12


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
            mix = mixture(comps)
            f0 = complex(mix.value((0.0, 0.0)))
            oracle = h / (2 * np.pi) * kernel_trace_oracle(lambda t1: mix.value((t1, 0.0)), h)
            assert abs(trace_tau(x) - f0) / abs(f0) < 1e-3
            assert abs(oracle - f0) / abs(f0) < 1e-3


def test_quantize_linearity(theta):
    f = gaussian_mixture(8.0, 48, [(1.0, 0.3, -0.2, 0.8)])
    g = gaussian_mixture(8.0, 48, [(0.5j, -0.5, 0.4, 0.9)])
    a, b = 2.0 - 1.0j, 0.3
    lhs = quantize(f.with_samples(a * f.samples + b * g.samples), theta, 48)
    rhs = a * quantize(f, theta, 48).matrix + b * quantize(g, theta, 48).matrix
    assert np.abs(lhs.matrix - rhs).max() < 1e-12 * np.abs(lhs.matrix).max()


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
    x = quantize(f, theta, 32)
    x = QuantizedOperator(0.0 * x.matrix, x.theta)
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
    scaled = QuantizedOperator(2.0j * x.matrix, x.theta)
    adjoint = QuantizedOperator(x.matrix.conj().T, x.theta)
    assert trace_tau(scaled) == pytest.approx(2.0j * trace_tau(x), rel=1e-12)
    assert trace_tau(adjoint) == pytest.approx(np.conj(trace_tau(x)), rel=1e-12)


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
def test_radial_tables_match_direct_sums(n, N, h, L, seed):
    # quantize / dequantize read a two-entry cache of radial-angular tables;
    # compare them with per-node displacement_matrix sums on three windows in
    # a row and the first again, so one window's tables are evicted and
    # rebuilt.  Each walk has an odd n, whose centre node sits at r = 0.
    theta = DeformationMatrix.canonical(h)
    c = theta.trace_weight
    rng = np.random.default_rng(seed)
    for m in (n, n + 1, n + 2, n):
        s = axis_nodes(L, m)
        U = [[displacement_matrix(theta, (s[i], s[j]), N) for j in range(m)] for i in range(m)]
        f = SymbolGrid(2, L, m, rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        x = QuantizedOperator(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)), theta)
        got = quantize(f, theta, N, boundary_gate=None).matrix
        ref = sum(f.samples[i, j] * U[i][j] for i in range(m) for j in range(m)) * f.cell_volume
        assert _rel(got, ref) <= 1e-13
        ref = np.array([[c * np.sum(x.matrix * np.conj(U[i][j])) for j in range(m)] for i in range(m)])
        assert _rel(dequantize(x, L, m).samples, ref) <= 1e-13
        # the same matrix as a strided view, which QuantizedOperator keeps
        xs = QuantizedOperator(np.repeat(x.matrix, 2, axis=1)[:, ::2], theta)
        assert not xs.matrix.flags.c_contiguous
        assert np.array_equal(dequantize(xs, L, m).samples, dequantize(x, L, m).samples)


def _member_radius_error(theta, n, tab):
    """Largest relative gap between each member's |alpha| and its orbit's radius."""
    # axis_nodes rounds at ulp(L) near the centre; (L/n)(2i-n+1) rounds relatively
    s = (8.0 / n) * (2 * np.arange(n) - n + 1)
    assert np.abs(s - axis_nodes(8.0, n)).max() <= 4 * np.spacing(8.0)
    alphas = np.array([abs(theta.alpha((s[i], s[j]))) for i in range(n) for j in range(n)])
    full = tab.members < n * n
    per_member = np.broadcast_to(tab.radii[tab.orbit_radius][:, None, None], full.shape)[full]
    gap = np.abs(alphas[tab.members[full]] - per_member)
    return float(np.max(gap / np.where(per_member > 0, per_member, 1.0)))


@pytest.mark.parametrize("n, radii", [(64, 398), (96, 854)])
def test_radius_groups(n, radii):
    # the integer key (2i-n+1)^2 + (2j-n+1)^2 groups the nodes by |alpha|
    theta = DeformationMatrix.canonical(1.0)
    tab = weyl._radial_tables(theta.h, 8.0, n, 2)
    assert tab.radii.size == radii
    assert np.all(np.diff(tab.radii) > 0)
    assert np.all(np.diff(tab.orbit_radius) >= 0)
    assert _member_radius_error(theta, n, tab) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 7, 8, 63, 64])
def test_orbit_tables(n):
    # each D4 orbit of the midpoint grid holds 1, 4 or 8 nodes of one radius,
    # and the orbits partition the grid
    theta = DeformationMatrix.canonical(1.0)
    tab = weyl._radial_tables(theta.h, 8.0, n, 3)
    full = tab.members < n * n
    assert np.array_equal(np.sort(tab.members[full]), np.arange(n * n))
    sizes = full.sum(axis=(1, 2))
    assert set(sizes.tolist()) <= {1, 4, 8}
    assert np.count_nonzero(sizes == 1) == n % 2  # the centre, for odd n
    assert _member_radius_error(theta, n, tab) <= 1e-15
    if n == 64:
        assert (tab.orbit_radius.size, np.count_nonzero(sizes == 4)) == (528, 32)


def test_large_window_matches_direct_sums():
    # (N, n) = (128, 128): a dense displacement stack would take 4.3 GB
    N, n, L = 128, 128, 8.0
    theta = DeformationMatrix.canonical(1.0)
    c = theta.trace_weight
    rng = np.random.default_rng(11)
    s = axis_nodes(L, n)
    picks = {tuple(int(v) for v in rng.integers(0, n, size=2)) for _ in range(6)}
    U = {p: displacement_matrix(theta, (s[p[0]], s[p[1]]), N) for p in picks}
    vals = np.zeros((n, n), dtype=complex)
    for p in picks:
        vals[p] = complex(*rng.normal(size=2))
    f = SymbolGrid(2, L, n, vals)
    ref = sum(vals[p] * U[p] for p in picks) * f.cell_volume
    assert _rel(quantize(f, theta, N, boundary_gate=None).matrix, ref) <= 1e-13
    x = QuantizedOperator(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)), theta)
    got = dequantize(x, L, n).samples
    assert _rel(np.array([got[p] for p in picks]), np.array([c * np.sum(x.matrix * np.conj(U[p])) for p in picks])) <= 1e-13


def test_quantize_sums_every_orbit_of_a_radius():
    # at n = 64 the key X^2 + Y^2 = 2210 holds four D4 orbits, the most of any
    # radius, so all three of its later orbits are added to the first
    N, n, L = 64, 64, 8.0
    theta = DeformationMatrix.canonical(1.0)
    tab = weyl._radial_tables(theta.h, L, n, N)
    s = axis_nodes(L, n)
    a = 2 * np.arange(n) - n + 1  # node (i, j) has X = -a[j], Y = a[i]
    nodes = [(i, j) for i in range(n) for j in range(n) if a[i] ** 2 + a[j] ** 2 == 2210]
    assert len(nodes) == 32
    g = np.argmin(np.abs(tab.radii - np.sqrt(theta.h / 2.0) * (L / n) * np.sqrt(2210)))
    assert np.count_nonzero(tab.orbit_radius == g) == 4
    rng = np.random.default_rng(4)
    vals = np.zeros((n, n), dtype=complex)
    for p in nodes:
        vals[p] = complex(*rng.normal(size=2))
    f = SymbolGrid(2, L, n, vals)
    ref = sum(vals[p] * displacement_matrix(theta, (s[p[0]], s[p[1]]), N) for p in nodes) * f.cell_volume
    assert _rel(quantize(f, theta, N, boundary_gate=None).matrix, ref) <= 1e-13


@pytest.mark.parametrize("N", [2, 3, 4, 63, 64])
def test_paired_diagonal_layout(N):
    # slab p holds the diagonal p in rows r < N - p and the diagonal N - p in the
    # rest, so each entry of an N x N matrix has one place: N = 2 holds the slabs
    # p = 0, 1; for even N the slab N/2 holds its diagonal once and leaves its
    # last N/2 rows empty, and odd N leaves no row empty
    lay = weyl._diagonals(N)
    assert lay.index.shape == (N // 2 + 1, N, 2)
    assert np.array_equal(np.sort(lay.index[lay.index < N * N]), np.arange(N * N))
    empty = [(N // 2, r) for r in range(N // 2, N)] if N % 2 == 0 else np.empty((0, 2))
    assert np.array_equal(np.argwhere(lay.index[..., 0] == N * N), empty)
    for d in range(N):
        p, r = divmod(int(lay.start[d]), N)
        assert p == min(d, N - d) and r == (0 if 2 * d <= N else d)
        k = np.arange(N - d)
        assert np.array_equal(lay.alpha[p, r : r + N - d], np.full(N - d, d))
        assert np.array_equal(lay.k[p, r : r + N - d], k)
        assert np.array_equal(lay.index[p, r : r + N - d, 0], (k + d) * N + k)
        assert np.array_equal(lay.index[p, r : r + N - d, 1], k * N + k + d if d else np.full(N, N * N))
        # the pass operand keeps each row's pair in its own half and reads 0 in the other
        assert np.array_equal(lay.halves[p, r : r + N - d, int(r > 0)], lay.index[p, r : r + N - d])
        assert np.all(lay.halves[p, r : r + N - d, 1 - int(r > 0)] == N * N)


def test_trace_weight_check_small_fock_dims():
    # the check's own Gaussian is exact at every Fock size, so only a wrong
    # weight makes it fail
    wrong = property(lambda self: self.h / np.pi)
    for N in range(2, 13):
        weyl._validate_trace_weight.__wrapped__(0.5, N)
        with mock.patch.object(DeformationMatrix, "trace_weight", wrong):
            with pytest.raises(RuntimeError, match="trace weight validation failed"):
                weyl._validate_trace_weight.__wrapped__(0.5, N)
