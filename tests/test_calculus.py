import numpy as np
import pytest

from qeuclid import calculus, weyl
from qeuclid.calculus import (
    MultiplierSymbol,
    apply_multiplier,
    bessel_symbol,
    constant_symbol,
    derivative_symbol,
    evaluate_multiplier,
    heat_symbol,
    make_multiplier,
    translation_symbol,
)
from qeuclid.errors import BoundaryDecayError, DomainError
from qeuclid.harness import REGISTRY, Backend, MoyalBackend, RandomElement, sobolev_norm
from qeuclid.symbols import GaussianMixture, SymbolGrid, axis_nodes, grid_meshes, lebesgue_norm
from qeuclid.weyl import QuantizedOperator, dequantize, quantize, trace_tau

L, NGRID, NFOCK = 8.0, 64, 64


def symbol(comps, n=NGRID):
    grid = SymbolGrid(2, L, n, np.zeros((n, n)))
    mixture = GaussianMixture(tuple(((c1, c2), w, amp) for amp, c1, c2, w in comps))
    return grid.with_samples(mixture.value(grid_meshes(grid)))


@pytest.fixture(scope="module")
def backend():
    return MoyalBackend(h=1.0, fock_dim=NFOCK, half_width=L, n=NGRID)


@pytest.fixture(scope="module")
def x(backend):
    return backend.element_from_symbol(symbol([(1.0, 0.3, -0.4, 0.8), (0.4 - 0.3j, -0.6, 0.5, 0.7)]))


@pytest.fixture(scope="module")
def y(backend):
    return backend.element_from_symbol(symbol([(0.8j, 0.1, 0.6, 0.9)]))


def op_dist(a, b):
    na = np.linalg.norm(a.payload.matrix - b.payload.matrix, 2)
    return na / max(np.linalg.norm(a.payload.matrix, 2), 1e-300)


def conjugate(g):
    return MultiplierSymbol(f"conj({g.label})", lambda *m: np.conj(g.evaluator(*m)))


def adjoint_gap(backend, g, x, y):
    """| tau(g(D)x . y*) - tau(x . (conj(g)(D) y)*) |."""
    gx, gy = backend.apply(g, x), backend.apply(conjugate(g), y)
    return abs(backend.pair_trace(gx, y) - backend.pair_trace(x, gy))


# ---------------------------------------------------------------------------
# multiplier pipeline
# ---------------------------------------------------------------------------


def test_identity_multiplier_roundtrip(backend, x):
    assert op_dist(backend.apply(constant_symbol(1.0), x), x) < 1e-4


def test_multiplier_composition(backend, x):
    g1, g2 = heat_symbol(0.4), translation_symbol((0.3, -0.2))
    lhs = backend.apply(g1, backend.apply(g2, x))

    def both(*m):
        return g1.evaluator(*m) * g2.evaluator(*m)

    rhs = backend.apply(MultiplierSymbol("g1*g2", both), x)
    assert op_dist(lhs, rhs) < 1e-4


def test_nonfinite_multiplier_is_domain_error():
    g = MultiplierSymbol("pole", lambda s1, s2: np.where(s1 > 0, np.inf, 1.0))
    grid = SymbolGrid(2, 1.0, 2, np.ones((2, 2), dtype=complex))
    with pytest.raises(DomainError, match="not finite"):
        evaluate_multiplier(g, grid)


def test_fourier_side_action(backend, x):
    # the pass multiplies on the transform side, and quantizing the product
    # keeps it there: dequantize(g(D) x) = g * x_hat up to quadrature error
    g = heat_symbol(0.7)
    gx = backend.apply(g, x)
    xhat = dequantize(x.payload, L, NGRID)
    expected = evaluate_multiplier(g, xhat).samples * xhat.samples
    sup = np.abs(dequantize(gx.payload, L, NGRID).samples - expected).max()
    assert sup / np.abs(xhat.samples).max() < 1e-4


def test_multipliers_commute(backend, x):
    g1, g2 = heat_symbol(0.5), translation_symbol((0.3, -0.2))
    a = backend.apply(g1, backend.apply(g2, x))
    b = backend.apply(g2, backend.apply(g1, x))
    assert op_dist(a, b) < 1e-4


def test_multiplier_norm_monotonicity(backend, x):
    small, large = heat_symbol(1.0), heat_symbol(0.5)  # pointwise |small| <= |large|
    ns = backend.norm(backend.apply(small, x), 2)
    nl = backend.norm(backend.apply(large, x), 2)
    assert ns <= nl + 1e-6


@pytest.mark.parametrize(
    "backend_name, width",
    [("small_backend", 0.18), ("classical_backend", 64.0)],
    ids=["small_backend", "classical_backend"],
)
def test_gate_on_uncaptured_transform(request, backend_name, width):
    # a valid element whose transform fills the grid: on the quantized plane a
    # near-delta symbol (the Fock truncation spreads its transform), on the
    # line a symbol as wide as the window (its transform is the symbol)
    b = request.getfixturevalue(backend_name)
    probe = GaussianMixture((((0.0,) * b.dim, width, 1.0),))
    el = b.element_from_symbol(b.fourier_grid().with_samples(probe.value(grid_meshes(b.fourier_grid()))))
    with pytest.raises(BoundaryDecayError, match="does not capture"):
        b.apply(constant_symbol(1.0), el)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------


def test_derivative_matches_symbol_formula(backend, x):
    f = x.symbol
    for axis in (0, 1):
        lhs = backend.apply(derivative_symbol(axis), x)
        meshes = grid_meshes(f)
        rhs = quantize(f.with_samples(1j * meshes[axis] * f.samples), backend.theta, NFOCK, boundary_gate=None)
        assert op_dist(lhs, RandomElement(f, rhs, {})) < 1e-4


def test_mixed_partials_commute(backend, x):
    d0, d1 = derivative_symbol(0), derivative_symbol(1)
    a = backend.apply(d1, backend.apply(d0, x))
    b = backend.apply(d0, backend.apply(d1, x))
    assert op_dist(a, b) < 1e-6


def test_derivative_l2_via_plancherel(backend):
    f = symbol([(1.0, 0.0, 0.0, 0.8)])
    d = backend.apply(derivative_symbol(0), backend.element_from_symbol(f))
    lhs = backend.norm(d, 2)
    meshes = grid_meshes(f)
    rhs = lebesgue_norm(f.with_samples(meshes[0] * f.samples), 2)
    assert abs(lhs - rhs) / rhs < 1e-3


# ---------------------------------------------------------------------------
# heat flow, Bessel potential, Sobolev norms
# ---------------------------------------------------------------------------


def test_heat_t0_identity(backend, x):
    assert op_dist(backend.apply(heat_symbol(0.0), x), x) < 1e-4
    with pytest.raises(ValueError):
        heat_symbol(-0.5)


def test_heat_semigroup(backend, x):
    lhs = backend.apply(heat_symbol(0.9), backend.apply(heat_symbol(0.6), x))
    rhs = backend.apply(heat_symbol(1.5), x)
    assert op_dist(lhs, rhs) < 1e-4


def test_heat_l2_contraction(backend, x):
    base = backend.norm(x, 2)
    for t in (0.25, 1.0, 4.0):
        assert backend.norm(backend.apply(heat_symbol(t), x), 2) <= base * (1 + 1e-6)


def test_bessel_identity_and_inverse(backend, x):
    assert op_dist(backend.apply(bessel_symbol(0.0), x), x) < 1e-4
    # the Bessel symbol has a branch point at |xi|^2 = -1, so its quantization
    # carries exp(-2 sqrt(N) asinh 1) Fock tails; chaining two applies needs
    # both a larger Fock dimension and the alias headroom of a finer grid
    fine = MoyalBackend(h=1.0, fock_dim=96, half_width=L, n=96)
    big = fine.element_from_symbol(symbol([(1.0, 0.0, 0.0, 0.75), (0.4, 0.4, -0.3, 0.75)], n=96))
    roundtrip = fine.apply(bessel_symbol(-1.3), fine.apply(bessel_symbol(1.3), big))
    assert op_dist(roundtrip, big) < 1e-4


def test_bessel_minus_two_same_path(backend, x, classical_backend):
    # the Paley weight (1+|s|^d)^-1 of R5/R8 is the Bessel symbol of order -2
    # in d = 2, sample for sample, and 1/(1+|s|) in d = 1
    weight, _ = backend.paley_weight
    xhat = backend.fourier(x)
    out = apply_multiplier(evaluate_multiplier(bessel_symbol(-2.0), xhat), xhat)
    assert np.array_equal(out.samples, weight.samples * backend.fourier(x).samples)
    s = axis_nodes(classical_backend.half_width, classical_backend.n)
    assert np.array_equal(classical_backend.paley_weight[0].samples, 1.0 / (1.0 + np.abs(s)) + 0j)


def test_sobolev_norm_s0_is_lp(backend, x):
    for p in (1.0, 2.0, 4.0):
        assert sobolev_norm(backend, x, p, 0.0) == pytest.approx(backend.norm(x, p), rel=1e-4)


def test_sobolev_monotone_in_s(backend, rng):
    for _ in range(3):
        w = rng.uniform(0.7, 1.0)
        xx = backend.element_from_symbol(symbol([(1.0, rng.uniform(-1, 1), rng.uniform(-1, 1), w)]))
        norms = [sobolev_norm(backend, xx, 2.0, s) for s in (-1.0, 0.0, 0.7, 1.5)]
        assert all(a <= b * (1 + 1e-6) for a, b in zip(norms, norms[1:]))


def test_sobolev_p2_plancherel_route(backend):
    f = symbol([(1.0, 0.0, 0.0, 0.8)])
    s = 1.1
    meshes = grid_meshes(f)
    w = (1.0 + meshes[0] ** 2 + meshes[1] ** 2) ** (s / 2)
    rhs = lebesgue_norm(f.with_samples(w * f.samples), 2)
    assert abs(sobolev_norm(backend, backend.element_from_symbol(f), 2.0, s) - rhs) / rhs < 1e-3


# ---------------------------------------------------------------------------
# the W^{1,2} norm of R18
# ---------------------------------------------------------------------------


def test_wm_norm_order_one_three_terms(backend, x):
    # R18's right side is ||x||_{W^{1,2}} ||x||_1^{2/d}, the first factor the
    # sum of ||x||_2 and the two derivation norms
    w12 = backend.norm(x, 2) + sum(backend.norm(backend.apply(derivative_symbol(a), x), 2) for a in (0, 1))
    _, rhs = REGISTRY["R18"].compute_fn(backend, {}, [x])
    assert rhs == pytest.approx(w12 * backend.norm(x, 1.0), rel=1e-12)
    assert w12 >= backend.norm(x, 2)


# ---------------------------------------------------------------------------
# translations and adjoints
# ---------------------------------------------------------------------------


def test_translate_zero_identity(backend, x):
    assert op_dist(backend.apply(translation_symbol((0.0, 0.0)), x), x) < 1e-4


def test_translate_preserves_trace_and_l2(backend, x):
    moved = backend.apply(translation_symbol((0.7, -0.4)), x)
    t0 = trace_tau(x.payload)
    assert abs(trace_tau(moved.payload) - t0) / abs(t0) < 1e-5
    n0 = backend.norm(x, 2)
    assert abs(backend.norm(moved, 2) - n0) / n0 < 1e-4


def test_adjoint_defect_small(backend, x, y):
    for g in (heat_symbol(0.8), bessel_symbol(-1.5), translation_symbol((0.4, 0.1))):
        assert adjoint_gap(backend, g, x, y) < 1e-5 * abs(backend.pair_trace(x, x))


def test_real_symbol_self_pairing_real(backend, x):
    val = backend.pair_trace(backend.apply(heat_symbol(0.5), x), x)
    assert abs(val.imag) < 1e-8 * abs(val)


def test_adjoint_defect_identity_symbol(backend, x, y):
    assert adjoint_gap(backend, constant_symbol(1.0), x, y) < 1e-12 * abs(backend.pair_trace(x, y))


# ---------------------------------------------------------------------------
# multiplier registry
# ---------------------------------------------------------------------------


def test_make_multiplier_registry():
    for name in ("heat", "bessel", "derivative", "translate", "one", "disc"):
        make_multiplier(name, dim=2)
    with pytest.raises(ValueError):
        make_multiplier("mystery")


# ---------------------------------------------------------------------------
# Fock-basis passes against closed forms and the grid pass
# ---------------------------------------------------------------------------


def thermal(theta, a, N, shift=0):
    """P x_a P, x_a = (2 pi/h) (nb + 1)^-1 r^N_op with r = nb / (nb + 1), nb = 2a/h - 1/2:
    the element with transform exp(-a |s|^2).  With ``shift`` = d it is
    P y P + its adjoint instead, for the derivation y = ad_{a^dag}^d(x_a) =
    (1 - r)^d a^dag^d x_a, built at size N + d and cut back to N."""
    h, M = theta.h, N + shift
    nb = 2.0 * a / h - 0.5
    r = nb / (nb + 1)
    x = np.diag((2 * np.pi / h) / (nb + 1) * r ** np.arange(M)).astype(complex)
    raise_op = np.diag(np.sqrt(np.arange(1.0, M)), -1)
    for _ in range(shift):
        x = (1 - r) * raise_op @ x
    if shift:
        x = x + x.conj().T
    return QuantizedOperator(x[:N, :N], theta)


def rel_gap(a, b):
    return np.linalg.norm(a.matrix - b.matrix) / np.linalg.norm(b.matrix)


def test_thermal_element_transform_and_heat_probe(backend):
    x1 = thermal(backend.theta, 1.0, NFOCK)
    xhat = dequantize(x1, L, NGRID)
    assert np.abs(xhat.samples - np.exp(-sum(m**2 for m in grid_meshes(xhat)))).max() < 4e-15
    probe = backend.heat_probe().payload.matrix
    assert np.abs(probe - x1.matrix).max() < 1e-14 * np.abs(x1.matrix).max()


HEAT_TIMES = (0.5, 1.0, 5.0, 20.0)


@pytest.mark.parametrize(
    "a, shift, t, N",
    [(a, shift, t, N) for N in (63, 64, 128) for t in HEAT_TIMES for a, shift in [(1.0, 0), (0.5, 1), (0.5, 10)]]
    + [(0.25, shift, t, N) for N in (2, 3, 63) for t in HEAT_TIMES for shift in sorted({0, 1, N - 1})],
)
def test_heat_pass_is_the_thermal_flow(theta, N, t, a, shift):
    # e^{t Lap} x_a = x_{a+t}, and the derivation ad_{a^dag} commutes with it,
    # so the diagonals m - n = +-shift flow in closed form too.  The pass is
    # P e^{t Lap} P; it equals the flow of the untruncated element because these
    # inputs hold less than 1e-14 of their mass beyond N, or none: at a = h/4,
    # x_a is the vacuum projector and its shift-d derivation the one entry
    # (d, 0).  Shift N - 1 > N/2 is the second diagonal of its slab (N = 3, 63).
    out = calculus.fock_pass(heat_symbol(t), thermal(theta, a, N, shift))
    assert rel_gap(out, thermal(theta, a + t, N, shift)) < 1e-12


@pytest.fixture(scope="module")
def drawn(backend):
    return [backend.sample_element(seed) for seed in range(3)]


def test_bessel_pass_inner_size_converged(backend, drawn, monkeypatch):
    orders = (1 / 3, 1.0, 1.5)  # the harness's Bessel orders lie in [1/3, 1.5]
    at_2n = [calculus.fock_pass(bessel_symbol(s), el.payload) for el in drawn for s in orders]
    monkeypatch.setattr(calculus, "BESSEL_INNER_FACTOR", 3)
    at_3n = [calculus.fock_pass(bessel_symbol(s), el.payload) for el in drawn for s in orders]
    assert max(rel_gap(a, b) for a, b in zip(at_2n, at_3n)) < 1e-10
    # the base class's pass is the grid pass, which leaves a grid symbol
    grid = [Backend.bind(backend, bessel_symbol(s))(backend, el) for el in drawn for s in orders]
    assert all(out.symbol is not None for out in grid)
    assert max(rel_gap(a, b.payload) for a, b in zip(at_2n, grid)) < 1e-6


@pytest.mark.parametrize(
    "g",
    [derivative_symbol(0), derivative_symbol(1), heat_symbol(0.0), heat_symbol(0.5), heat_symbol(1.0)],
    ids=lambda g: g.label,
)
def test_fock_pass_matches_grid_pass(backend, drawn, g):
    # where the grid resolves g * x_hat (derivations, heat with t <= 1), the
    # two passes agree; MoyalBackend.apply takes the Fock pass and sets no
    # symbol, at t = 0 too, and the base class's pass is the grid pass
    for el in drawn:
        out = backend.apply(g, el)
        assert out.symbol is None
        assert np.array_equal(out.payload.matrix, calculus.fock_pass(g, el.payload).matrix)
        ref = Backend.bind(backend, g)(backend, el)
        assert ref.symbol is not None
        assert rel_gap(out.payload, ref.payload) < 1e-9


def test_fock_pass_refuses_other_families(x):
    with pytest.raises(ValueError, match="no Fock-basis pass"):
        calculus.fock_pass(translation_symbol((0.3, -0.2)), x.payload)
    for axis in (2, -1):
        with pytest.raises(ValueError, match="axis must be 0 or 1"):
            derivative_symbol(axis)


def test_heat_basis_cache_is_bitwise_neutral(backend, x):
    # the heat pass reads its Gauss-Laguerre basis from a one-entry cache
    N, tau = x.payload.fock_dim, 2.0 * 1.0 / x.payload.theta.h
    calculus._heat_basis.cache_clear()
    cold = calculus.fock_pass(heat_symbol(1.0), x.payload).matrix
    warm = calculus.fock_pass(heat_symbol(1.0), x.payload).matrix
    assert calculus._heat_basis.cache_info().hits == 1
    assert calculus._heat_basis.cache_info().maxsize == 1
    assert np.array_equal(cold, warm)
    Q = calculus._heat_basis(N, tau)
    assert Q.shape == (N // 2 + 1, N, N)  # the paired slabs
    assert not Q.flags.writeable
    assert np.array_equal(Q, calculus._heat_basis.__wrapped__(N, tau))


@pytest.mark.parametrize("N", [16, 64])
def test_gauss_laguerre_rule_matches_numpy(N):
    # at alpha = 0 the rule is the classical N-node Gauss-Laguerre rule
    u, root_w = calculus._gauss_laguerre(N)
    nodes, weights = np.polynomial.laguerre.laggauss(N)
    assert np.max(np.abs(u[0] - nodes) / nodes) <= 1e-12
    assert np.max(np.abs(root_w[0] ** 2 - weights) / weights) <= 1e-10


def test_jacobi_eigenpairs_rebuild_the_jacobi_matrix():
    # V Lam V^T is the leading (N - alpha)^2 block of J_alpha at size M - alpha,
    # written out here from its entries, and the rows of V are orthonormal; the
    # diagonal alpha sits in slab p from row r, as the first (r = 0) or second
    # diagonal of the slab
    N, M = 64, 128
    lam, V = calculus._jacobi_eigen(N, M)
    assert (lam.shape, V.shape) == ((N // 2 + 1, M, 2), (N // 2 + 1, N, M))
    for alpha in range(0, N, 7):
        K, k = N - alpha, np.arange(N - alpha, dtype=float)
        off = -np.sqrt((k[:-1] + 1) * (k[:-1] + alpha + 1))
        J = np.diag(2 * k + alpha + 1) + np.diag(off, 1) + np.diag(off, -1)
        p, r = divmod(int(weyl._diagonals(N).start[alpha]), N)
        Vk = V[p, r : r + K, : M - alpha]
        assert np.linalg.norm(Vk * lam[p, : M - alpha, int(r > 0)] @ Vk.T - J) <= 1e-13 * np.linalg.norm(J)
        assert np.abs(Vk @ Vk.T - np.eye(K)).max() <= 1e-13


@pytest.mark.parametrize("N", [2, 3, 63, 64])
@pytest.mark.parametrize("s", [-1.5, 1.0])
def test_bessel_pass_matches_per_diagonal_eigh(theta, N, s):
    # on each diagonal m - n = +-alpha the pass is the leading (N - alpha)^2 block
    # of (1 + 2 J_alpha / h)^(s/2) at the inner size M - alpha, rebuilt here from
    # a dense eigh of J_alpha, one diagonal at a time
    M = calculus.BESSEL_INNER_FACTOR * N
    rng = np.random.default_rng(N)
    x = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    got = calculus.fock_pass(bessel_symbol(s), QuantizedOperator(x, theta)).matrix
    want = np.empty_like(x)
    for alpha in range(N):
        w, v = np.linalg.eigh(calculus._jacobi_matrix(M, alpha))
        g = (v * (1.0 + 2.0 * w / theta.h) ** (s / 2.0) @ v.T)[: N - alpha, : N - alpha]
        k = np.arange(N - alpha)
        want[k + alpha, k] = g @ x[k + alpha, k]
        want[k, k + alpha] = g @ x[k, k + alpha]
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
