"""Fourier multipliers and the differential calculus they generate.

A multiplier g acts on the transform side, T_g x = lambda(g * x_hat), and
:func:`apply_multiplier` is the grid pass: it returns g * x_hat on the grid
of x_hat.  Each backend maps the product back to an element (the quantized
backend quantizes it, the classical one inverts the Fourier transform).

Derivations (symbol i*xi_j), the Laplacian semigroup (exp(-t|xi|^2)), Bessel
potentials ((1+|xi|^2)^(s/2)), and translations (exp(i(xi,a))) are all
instances.  The grid must capture x_hat: the pass refuses transforms that
have not decayed below 1e-8 (relative) at the boundary.

On the quantized plane, :func:`fock_pass` applies the derivations, the heat
flow and the Bessel potentials to the Fock matrix itself, with no grid: see
the section "Fock-basis passes" below.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BoundaryDecayError, DomainError
from .symbols import SymbolGrid, _radius_sq, grid_meshes
from .weyl import QuantizedOperator, _diagonals, _jacobi, _laguerre_values

__all__ = [
    "MultiplierSymbol",
    "heat_symbol",
    "bessel_symbol",
    "derivative_symbol",
    "translation_symbol",
    "constant_symbol",
    "disc_indicator",
    "make_multiplier",
    "evaluate_multiplier",
    "apply_multiplier",
    "fock_pass",
]

MULTIPLIER_GATE = 1e-8


@dataclass(frozen=True)
class MultiplierSymbol:
    """A closed-form multiplier symbol.

    The grid pass samples ``evaluator``.  ``fock``, where the multiplier has
    a closed form on the Fock matrix, maps (matrix, h) to the matrix of
    g(D) x: see :func:`fock_pass`.  ``key``, the family and its exact
    parameter values, identifies the function for caches (``label`` rounds
    them); a symbol without one is never cached.
    """

    label: str
    evaluator: Callable[..., np.ndarray]
    fock: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    key: Optional[tuple] = None


def heat_symbol(t: float) -> MultiplierSymbol:
    """exp(-t |xi|^2)."""
    if t < 0:
        raise ValueError("heat time must be nonnegative")
    return MultiplierSymbol(
        f"heat(t={t:g})", lambda *m: np.exp(-t * _radius_sq(m)), lambda x, h: _heat(x, t, h), ("heat", t)
    )


def bessel_symbol(s: float) -> MultiplierSymbol:
    """(1 + |xi|^2)^(s/2)."""
    return MultiplierSymbol(
        f"bessel(s={s:g})",
        lambda *m: (1.0 + _radius_sq(m)) ** (s / 2.0) + 0j,
        lambda x, h: _bessel(x, s, h),
        ("bessel", s),
    )


def derivative_symbol(axis: int) -> MultiplierSymbol:
    """i xi_axis, the derivation d/dx_(axis+1); axis is 0 or 1."""
    if axis not in (0, 1):
        raise ValueError(f"derivative axis must be 0 or 1, got {axis}")
    return MultiplierSymbol(
        f"d/dx{axis + 1}", lambda *m: 1j * m[axis], lambda x, h: _derivation(x, axis, h), ("derivative", axis)
    )


def translation_symbol(a) -> MultiplierSymbol:
    a = np.asarray(a, dtype=float)

    def ev(*m):
        return np.exp(1j * sum(mi * ai for mi, ai in zip(m, a)))

    return MultiplierSymbol(f"translate(a={tuple(a)})", ev, key=("translate", tuple(a.tolist())))


def constant_symbol(c: complex) -> MultiplierSymbol:
    return MultiplierSymbol(f"const({c})", lambda *m: np.full_like(m[0], c, dtype=complex), key=("const", c))


def disc_indicator(radius: float) -> MultiplierSymbol:
    return MultiplierSymbol(
        f"disc(r={radius:g})", lambda *m: (_radius_sq(m) <= radius**2).astype(complex), key=("disc", radius)
    )


_NAMED = {
    "heat": lambda params, dim: heat_symbol(float(params.get("t", 1.0))),
    "bessel": lambda params, dim: bessel_symbol(float(params.get("s", -2.0))),
    "derivative": lambda params, dim: derivative_symbol(int(params.get("axis", 0))),
    "translate": lambda params, dim: translation_symbol(params.get("a", (0.0,) * dim)),
    "one": lambda params, dim: constant_symbol(1.0),
    "disc": lambda params, dim: disc_indicator(float(params.get("radius", 1.0))),
}


def make_multiplier(name: str, params: Optional[dict] = None, dim: int = 2) -> MultiplierSymbol:
    if name not in _NAMED:
        raise ValueError(f"unknown multiplier {name!r}; choose from {sorted(_NAMED)}")
    return _NAMED[name](params or {}, dim)


def evaluate_multiplier(g: MultiplierSymbol, grid: SymbolGrid) -> SymbolGrid:
    vals = np.asarray(g.evaluator(*grid_meshes(grid)), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"multiplier {g.label} is not finite on the working grid")
    return grid.with_samples(np.broadcast_to(vals, grid.samples.shape).copy())


def apply_multiplier(
    g: MultiplierSymbol, xhat: SymbolGrid, sample: Optional[Callable[[MultiplierSymbol, SymbolGrid], SymbolGrid]] = None
) -> SymbolGrid:
    """g * x_hat on the grid of x_hat; refuses an x_hat the grid does not capture.

    ``sample(g, grid)`` gives g on the grid, :func:`evaluate_multiplier` unless
    the caller holds the samples already.
    """
    decay = xhat.boundary_decay()
    if decay >= MULTIPLIER_GATE:
        raise BoundaryDecayError(
            f"transform boundary decay {decay:.2e} exceeds {MULTIPLIER_GATE:.0e}; "
            "the grid does not capture this element"
        )
    return xhat.with_samples((sample or evaluate_multiplier)(g, xhat).samples * xhat.samples)


# ---------------------------------------------------------------------------
# Fock-basis passes
# ---------------------------------------------------------------------------
#
# With q = sqrt(h/2)(a + a^dag) and p = -i sqrt(h/2)(a - a^dag) truncated to
# N x N, d1 x = (i/h)[p, x] and d2 x = -(i/h)[q, x], exactly on the
# truncation (P[p, PxP]P = [PpP, PxP]).  So
# -h Lap x = [a, [a^dag, x]] + [a^dag, [a, x]] keeps each diagonal
# m - n = +-alpha, and on it acts as 2 J_alpha, with J_alpha (index
# k = min(m, n)) the Jacobi matrix of the Laguerre polynomials L^(alpha):
# diagonal 2k + alpha + 1, off-diagonal -sqrt((k + 1)(k + alpha + 1))
# (the matrix basis of Gracia-Bondia and Varilly, J. Math. Phys. 29 (1988)
# 869; the kinetic matrix of Grosse and Wulkenhaar, Commun. Math. Phys. 256
# (2005) 305).  Its spectral measure is lambda^alpha e^-lambda / alpha!, with
# orthonormal polynomials p_k, and g(-Lap) = g(2 J / h).  J_alpha and the
# recurrence for p_k are weyl._jacobi and weyl._laguerre_values, the ones the
# displacement entries are built from.
#
# Heat: with tau = 2t/h, the (k, l) entry of P e^{-tau J} P is
# int p_k p_l e^{-tau lambda} dmu = (1 + tau)^-(alpha+1) int p_k(u/(1+tau))
# p_l(u/(1+tau)) dmu(u), a polynomial integral of degree < 2K, K = N - alpha:
# the K-node Gauss-Laguerre rule gives it exactly, with no inner Fock size.
# Bessel: (1 + 2 lambda/h)^(s/2) is not polynomial, so it is taken on the
# eigendecomposition of J_alpha truncated at the inner size
# M = BESSEL_INNER_FACTOR * N and cut back to N.  At M = 2N the pass agrees
# with M = 3N to about 1e-11 at the harness's orders s in [1/3, 1.5].
# Both eigenproblems are solved densely, with numpy's eigvalsh and eigh on
# J_alpha; the N solves at M = 128 take ~0.08 s, once per window.
#
# The passes read x in the paired layout of weyl._diagonals, whose slab p holds
# the diagonals p and N - p.  The tables of a pass hold, in the rows of each
# diagonal, its own basis (eigenvectors or Gauss-Laguerre functions), so slab p
# of a table is (N, columns) with no padding rows.  The operand stacks per slab
# 8 real columns: (re, im) of m - n = alpha and of m - n = -alpha for the first
# diagonal, then for the second, each 0 in the other diagonal's rows.  Those
# zeros keep the two diagonals apart in B^T X; B (w B^T X) mixes them in the
# rows it does not keep.

BESSEL_INNER_FACTOR = 2


def _jacobi_matrix(M: int, alpha: int) -> np.ndarray:
    """Dense J_alpha of size M - alpha, from weyl._jacobi(M)."""
    a, b = _jacobi(M)
    size = M - alpha
    off = np.diag(-b[: size - 1, alpha, 0], 1)
    return np.diag(a[:size, alpha, 0]) + off + off.T


@functools.lru_cache(maxsize=2)
def _gauss_laguerre(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u[alpha, j] and root weights sqrt(w)[alpha, j] of the (N - alpha)-node rules.

    The nodes are the eigenvalues of J_alpha (Golub and Welsch, Math. Comp.
    23 (1969) 221).  A weight from an eigenvector is accurate only to ~1e-16
    absolute, and the heat pass multiplies it by p_k(u / (1 + tau)) ~
    e^{u / 2(1 + tau)}, so the weights are Christoffel numbers
    1 / sum_k p_k(u)^2 instead, with the sum scaled by e^{-u} to stay finite.
    Padding (j >= N - alpha) has weight 0.
    """
    u = np.zeros((N, N))
    for alpha in range(N):
        u[alpha, : N - alpha] = np.linalg.eigvalsh(_jacobi_matrix(N, alpha))
    valid = np.arange(N)[None, :] < N - np.arange(N)[:, None]
    c = np.where(valid, np.exp(-u / 2), 0.0)
    # sum_k (c p_k(u))^2 over the rows of each diagonal, in the order of k: the
    # first diagonal of slab p is p, its second the diagonal of its last row
    alpha = _diagonals(N).alpha
    sq = np.square(_laguerre_values(u, c))
    first = (alpha == np.arange(N // 2 + 1)[:, None])[..., None]
    sums = np.empty((N, N))
    sums[alpha[:, -1]] = np.where(first, 0.0, sq).sum(axis=1)
    sums[: N // 2 + 1] = np.where(first, sq, 0.0).sum(axis=1)
    root_w = c / np.where(valid, np.sqrt(sums), 1.0)
    return u, root_w


@functools.lru_cache(maxsize=2)
def _jacobi_eigen(N: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lam[p, i, h] of J_alpha at size M - alpha for the first (h = 0) and
    second (h = 1) diagonal alpha of slab p, and the first N - alpha rows of its
    eigenvectors in the rows of alpha, V[p, r, i]; zero past column M - alpha."""
    start = _diagonals(N).start
    lam = np.zeros((N // 2 + 1, M, 2))
    V = np.zeros((N // 2 + 1, N, M))
    for alpha in range(N):
        w, v = np.linalg.eigh(_jacobi_matrix(M, alpha))
        p, r = divmod(int(start[alpha]), N)
        lam[p, : w.size, int(r > 0)] = w
        V[p, r : r + N - alpha, : w.size] = v[: N - alpha]
    return lam, V


def _spectral_pass(x: np.ndarray, B: np.ndarray, w: np.ndarray) -> np.ndarray:
    """B (w B^T X) on the paired slabs X of x: B[p] is (N, columns), and w[p, column or
    1, h] weighs the columns of the slab's diagonal h."""
    halves = _diagonals(x.shape[0]).halves
    X = np.append(x, 0.0)[halves].view(float).reshape(halves.shape[:2] + (8,))
    Y = B.transpose(0, 2, 1) @ X
    Y.reshape(Y.shape[:2] + (2, 4))[...] *= w[..., None]
    out = np.empty(x.size + 1, dtype=complex)  # entry N*N takes what the other diagonal's rows hold
    out[halves] = (B @ Y).view(complex).reshape(halves.shape)
    return out[:-1].reshape(x.shape)


@functools.lru_cache(maxsize=1)
def _heat_basis(N: int, tau: float) -> np.ndarray:
    """Q[p, r, j] = sqrt(w_j) p_k(u_j / (1 + tau)) on the paired slabs, read-only.

    R9 runs the heat flow at one time on many elements, so one entry (1.1 MB
    at N = 64) serves its trials; R10's sweep of ten times evicts it once per
    call, which a second entry would not prevent."""
    u, root_w = _gauss_laguerre(N)
    Q = _laguerre_values(u / (1.0 + tau), root_w)
    Q.setflags(write=False)
    return Q


def _heat(x: np.ndarray, t: float, h: float) -> np.ndarray:
    N = x.shape[0]
    tau = 2.0 * t / h
    alpha = _diagonals(N).alpha[:, None, [0, -1]]  # the first and second diagonal of each slab
    return _spectral_pass(x, _heat_basis(N, tau), (1.0 + tau) ** -(alpha + 1.0))


def _bessel(x: np.ndarray, s: float, h: float) -> np.ndarray:
    N = x.shape[0]
    lam, V = _jacobi_eigen(N, BESSEL_INNER_FACTOR * N)
    return _spectral_pass(x, V, (1.0 + 2.0 * lam / h) ** (s / 2.0))


def _derivation(x: np.ndarray, axis: int, h: float) -> np.ndarray:
    N = x.shape[0]
    a = np.diag(np.sqrt(np.arange(1.0, N)), 1)
    if axis == 0:  # d1 x = (i/h)[p, x], p = -i sqrt(h/2)(a - a^dag)
        gen = np.sqrt(h / 2.0) / h * (a - a.T)
    else:  # d2 x = -(i/h)[q, x], q = sqrt(h/2)(a + a^dag)
        gen = -1j * np.sqrt(h / 2.0) / h * (a + a.T)
    return gen @ x - x @ gen


def fock_pass(g: MultiplierSymbol, x: QuantizedOperator) -> QuantizedOperator:
    """g(D) x on the Fock matrix of x, for a g with a ``fock`` closed form.

    Derivations and the heat flow are exact on the truncation; the Bessel
    potential carries the inner-size error above.  No transform is formed, so
    no boundary gate applies.
    """
    if g.fock is None:
        raise ValueError(f"multiplier {g.label} has no Fock-basis pass")
    return QuantizedOperator(g.fock(x.matrix, x.theta.h), x.theta)
