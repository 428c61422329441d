"""Quantization on the canonical two-dimensional Moyal plane.

The deformation matrix is the canonical block theta = h * [[0, -1], [1, 0]]
with h > 0.  The unitary family is realized in the truncated
harmonic-oscillator (Fock) basis:

    U(t) = exp(i (t1 qhat + t2 phat)),   [qhat, phat] = i h,

which is the displacement operator D(alpha) with
alpha = sqrt(h/2) * (-t2 + i t1).  Matrix elements are the exact
infinite-dimensional ones (associated-Laguerre closed form), truncated to an
N x N block; products and traces of truncations are therefore the only
sources of truncation error.

The quantization map sends a sampled symbol f to the midpoint quadrature
sum_k f(t_k) U(t_k) dV, and the weighted matrix trace (h / 2pi) Tr recovers
f(0).  The inverse map evaluates x_hat(s) = (h / 2pi) Tr(x U(s)^dagger).

Both grid sums use the radial-angular factorization
U_mn(t) = e^{i(m-n) phi(t)} R_mn(|alpha(t)|) with R real (Cahill-Glauber),
instead of a dense stack of every U(t_k).  Radii repeat on the midpoint grid
(398 distinct among 4096 nodes at n = 64), so quantize sums f_k dV e^{i d phi_k}
over the nodes of each radius and applies one real (radii x (N - d)) block
per diagonal pair m - n = +-d, as one product with the two diagonals side by
side; dequantize is the transpose.  The angular sums run over the grid's D4
orbits (528 at n = 64), each folded by a 4-point DFT.  The cached tables of a
window hold radii x N(N+1)/2 reals, a phase table of 2 x orbits x (2N-1)
complex and the index map of quantize's operand: 9.2 MB at (N, n) = (64, 64),
where the dense stack took 268 MB.

Matrix-element generation notes: one recurrence builds every entry.  With
x = r^2, R_{k+d,k}(r) = c_d(x) p_k^(d)(x), where c_d(x) = x^(d/2) e^(-x/2) /
sqrt(d!) and p_k^(d) are the orthonormal Laguerre polynomials, which
_laguerre_values runs in the degree k.  The naive two-term column recurrence
for displacement entries is violently unstable once |alpha|^2 exceeds ~25
(the minimal-solution region below the Laguerre turning point).  The
polynomials, by contrast, are the dominant solution of the degree
recurrence, and positive factors (the orthonormal scale of each degree, the
constant c_d) keep them so; the iterates c_d p_k are the entries themselves,
at most 1 in modulus, so nothing overflows.  Only the start c_d spans
hundreds of decades, and it is formed in log space.  Entries agree with the
closed form to ~1e-13 absolute for |alpha|^2 up to several hundred.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BoundaryDecayError
from .symbols import SymbolGrid, _radius_sq, axis_nodes

__all__ = [
    "DeformationMatrix",
    "QuantizedOperator",
    "displacement_matrix",
    "quantize",
    "dequantize",
    "trace_tau",
    "weyl_defect",
    "kernel_trace_oracle",
]

H_RANGE = (0.1, 10.0)
BOUNDARY_GATE = 1e-10
TRACE_WEIGHT_TOL = 1e-3


@dataclass(frozen=True)
class DeformationMatrix:
    """The canonical deformation theta = h*[[0,-1],[1,0]], fixed by h in H_RANGE."""

    h: float

    def __post_init__(self):
        if not (H_RANGE[0] <= self.h <= H_RANGE[1]):
            raise ValueError(f"h={self.h} outside supported range {H_RANGE}")
        object.__setattr__(self, "h", float(self.h))

    @classmethod
    def canonical(cls, h: float) -> "DeformationMatrix":
        return cls(h)

    @property
    def trace_weight(self) -> float:
        """Weight c with tau = c * Tr; fixed by tau(quantize(f)) = f(0)."""
        return self.h / (2.0 * np.pi)

    def pairing(self, t: np.ndarray, s: np.ndarray) -> float:
        """(t, theta s) = h (t2 s1 - t1 s2)."""
        return float(self.h * (t[1] * s[0] - t[0] * s[1]))

    def alpha(self, t: np.ndarray) -> complex:
        t = np.asarray(t, dtype=float)
        return complex(np.sqrt(self.h / 2.0) * (-t[1] + 1j * t[0]))


# ---------------------------------------------------------------------------
# Displacement matrix elements
# ---------------------------------------------------------------------------

# J_alpha, the Jacobi matrix of the Laguerre polynomials L^(alpha), and its
# orthonormal polynomials p_k = sqrt(k! alpha! / (k + alpha)!) L_k^(alpha): the
# displacement entries and the Fock-basis passes of qeuclid.calculus read them.
#
# Both live on the diagonals m - n = +-alpha of an N x N matrix, at the entries
# k = min(m, n) < N - alpha of each, and are stored in one paired layout: slab
# p in [0, N//2] holds the diagonal p in its rows r < N - p (k = r) and the
# diagonal N - p in its rows r >= N - p (k = r - N + p).  The N(N+1)/2 entries
# of a triangle thus fill (N//2 + 1) x N rows with no padding, except that for
# even N the slab p = N/2 holds its diagonal once and leaves its last N/2 rows
# empty.  Each diagonal is one run of rows of the flattened layout.


@functools.lru_cache(maxsize=2)
def _jacobi(N: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b), each (k, alpha, 1): diagonal 2k + alpha + 1 and |off-diagonal| of J_alpha."""
    k = np.arange(N, dtype=float)[:, None, None]
    alpha = np.arange(N, dtype=float)[None, :, None]
    return 2 * k + alpha + 1, np.sqrt((k + 1) * (k + alpha + 1))


@dataclass(frozen=True)
class _Diagonals:
    """The paired layout of the diagonals of an N x N matrix; row (p, r) is flat row p N + r."""

    alpha: np.ndarray  # (N//2 + 1, N): the diagonal |m - n| of each row
    k: np.ndarray  # (N//2 + 1, N): its entry min(m, n)
    start: np.ndarray  # (N,): the flat row of entry 0 of the diagonal alpha
    index: np.ndarray  # (N//2 + 1, N, 2): flat entries (k + alpha, k), (k, k + alpha); N*N for none
    halves: np.ndarray  # (N//2 + 1, N, 2, 2): index in the half [first, second diagonal] of the row, N*N in the other


@functools.lru_cache(maxsize=2)
def _diagonals(N: int) -> _Diagonals:
    p, r = np.arange(N // 2 + 1)[:, None], np.arange(N)[None, :]
    first = r < N - p
    alpha = np.where(first, p, N - p)
    k = np.where(first, r, r - N + p)
    live = first | (p < N - p)  # the last N/2 rows of the slab N/2 of an even N are empty
    index = np.stack(
        [np.where(live, (k + alpha) * N + k, N * N), np.where(live & (alpha > 0), k * N + k + alpha, N * N)], axis=-1
    )
    halves = np.where(np.stack([first, ~first], axis=-1)[..., None], index[:, :, None, :], N * N)
    d = np.arange(N)
    start = np.where(2 * d <= N, d * N, (N - d) * N + d)
    for arr in (alpha, k, start, index, halves):
        arr.setflags(write=False)
    return _Diagonals(alpha, k, start, index, halves)


def _laguerre_values(lam: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Q[p, r, j] = c[alpha, j] p_k(lam[alpha, j]) on the row (p, r) of the paired layout that
    holds entry k of the diagonal alpha, for the L^(alpha) family at the degrees k < N - alpha; 0
    on empty rows.  Each slab runs its first diagonal's recurrence down its rows, then starts its
    second one from c.  Q is a view of an array stored row by row (r, p, j), so each step of the
    recurrence is one contiguous block."""
    N, P = lam.shape[0], lam.shape[0] // 2 + 1
    lay = _diagonals(N)
    a, b = _jacobi(N)
    A, D = a[lay.k.T, lay.alpha.T], b[lay.k.T, lay.alpha.T]  # (row, slab, 1)
    C = np.where((lay.k < N - 1 - lay.alpha).T[..., None], D, 0.0)  # 0 on each diagonal's last row
    second = lay.alpha[:, -1]  # the diagonal of each slab's last row
    lam2 = lam[second]
    c2 = np.where(lay.index[:, -1, :1] < N * N, c[second], 0.0)  # 0 for an empty second half
    Q = np.empty((N, P) + lam.shape[1:])
    Q[0] = c[:P]
    tmp = np.empty(lam2.shape)
    for r in range(N - 1):
        m = N - 1 - r  # slab m starts its second diagonal at row r + 1; the slabs after it are in theirs
        s = min(m + 1, P)
        np.subtract(A[r, :s], lam[:s], out=tmp[:s])
        if s < P:
            np.subtract(A[r, s:], lam2[s:], out=tmp[s:])
        np.multiply(tmp, Q[r], out=Q[r + 1])
        if r:
            np.multiply(C[r - 1], Q[r - 1], out=tmp)
            Q[r + 1] -= tmp
        Q[r + 1] /= D[r]
        if m < P:
            Q[r + 1, m] = c2[m]
    return Q.transpose(1, 0, *range(2, Q.ndim))


def _radial_values(x: np.ndarray, N: int) -> np.ndarray:
    """Q[p, r, b] = R_{k+d,k}(r_b) = <k+d|D(r_b)|k> at x = r_b^2 on the row (p, r) of the paired
    layout that holds entry k of the diagonal d.

    R_{k+d,k} = c_d p_k^(d) with c_d(x) = x^(d/2) e^(-x/2) / sqrt(d!), taken in log space.
    """
    x = np.asarray(x, dtype=float)
    d = np.arange(N)[:, None]
    half_log_fact = np.array([0.5 * math.lgamma(v + 1.0) for v in range(N)])[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0: c_0 = 1, c_d = 0 for d > 0
        log_c = np.where(d > 0, 0.5 * d * np.log(x), 0.0) - 0.5 * x - half_log_fact
    return _laguerre_values(np.broadcast_to(x, (N, x.size)), np.exp(log_c))


def _displacement_block(alphas: np.ndarray, N: int) -> np.ndarray:
    """Exact truncated <m|D(alpha)|n> for a batch of alphas, shape (B, N, N).

    With alpha = r e^{i phi}, entry (k + d, k) is e^{i d phi} R_{k+d,k}(r) and
    entry (k, k + d) is (-1)^d e^{-i d phi} R_{k+d,k}(r).
    """
    alphas = np.asarray(alphas, dtype=complex).ravel()
    lay = _diagonals(N)
    R = _radial_values(np.abs(alphas) ** 2, N)
    phase = np.exp(1j * np.arange(N)[:, None] * np.angle(alphas))[lay.alpha]
    out = np.empty((alphas.size, N * N + 1), dtype=complex)  # column N*N takes the empty rows
    out[:, lay.index[..., 0]] = (phase * R).transpose(2, 0, 1)
    out[:, lay.index[..., 1]] = ((-1.0) ** lay.alpha[..., None] * phase.conj() * R).transpose(2, 0, 1)
    return out[:, :-1].reshape(alphas.size, N, N)


def displacement_matrix(theta: DeformationMatrix, t, N: int) -> np.ndarray:
    """Truncated U_theta(t) in the Fock basis (exact matrix elements)."""
    if N < 2:
        raise ValueError("Fock dimension must be at least 2")
    t = np.asarray(t, dtype=float)
    if t.shape != (2,):
        raise ValueError("t must be a real 2-vector")
    return _displacement_block(np.array([theta.alpha(t)]), N)[0]


# ---------------------------------------------------------------------------
# Radial-angular factorization of the grid sums (cached tables)
# ---------------------------------------------------------------------------
#
# With alpha = r e^{i phi}, <m|D(alpha)|n> = e^{i(m-n) phi} R_mn(r), where
# R_mn(r) = <m|D(r)|n> is real.  Node (i, j) of the midpoint grid sits at
# alpha = sqrt(h/2) (L/n) (X + iY) with the integers X = n-1-2j, Y = 2i-n+1,
# so the nodes are grouped by the exact key X^2 + Y^2.  quantize forms the
# angular sums G_d(r) = sum_{|alpha_k| = r} f_k dV e^{i d phi_k}, then
# x_d = R_d^T G_d on each diagonal d = m - n; dequantize forms H_d = R_d x_d,
# then x_hat_k = c sum_d e^{-i d phi_k} H_d(r_k).  D(r)^T = D(-r) gives
# R_{-d} = (-1)^d R_d, so one block serves the diagonals d and -d.
#
# The grid is symmetric under the dihedral group D4 (alpha -> i alpha and
# alpha -> conj alpha), which keeps r.  An orbit with base X + iY, 0 <= Y <= X,
# holds the members (s, k) at i^k (X + iY) for s = + and i^k (X - iY) for
# s = -, at angles +-phi0 + k pi/2, so e^{i d phi} = e^{+-i d phi0} i^{dk}.
# Its share of G_d is therefore sum_s e^{+-i d phi0} F^s[d mod 4], with F^s the
# 4-point DFT of the orbit's weights, and dequantize reads the member (s, k) as
# c sum_m i^{-mk} Y^s[m], Y^s[m] = sum_{d = m mod 4} e^{-+i d phi0} H_d(r).
# Orbits on the diagonals Y = X, on the axes (Y = 0, odd n) and the centre
# (odd n) have 4, 4 and 1 distinct members; their repeated slots are empty.
# The phase table holds e^{+-i d phi0} per orbit, with the diagonals folded by
# their residue: row (b, o, s), column j holds d = 4j + b - (N-1), and is 0
# past d = N-1.  On the diagonals d < 0 it also holds the sign (-1)^d of
# R_d = (-1)^d R_{-d}, so the block R_{|d|} serves both triangles unsigned.  quantize sums each radius's orbits into its first orbit,
# adding the k-th orbit of the radii that have one (at most 4 orbits per
# radius at n = 64, 5 at n = 96, 6 at n = 128).
#
# The radial stage is one real product per diagonal d >= 0, with d and -d side
# by side as 4 real columns: quantize multiplies R_d^T by A[d] = (G_d,
# (-1)^d G_{-d}), gathered from the first orbits through operand_index, into
# the rows of the diagonal d of the paired layout (_diagonals); dequantize
# multiplies R_d by the rows (x_d, x_{-d}) of that layout into H[d], which the
# orbit sums read through product_index.


@dataclass(frozen=True)
class _RadialTables:
    """Tables of one (h, half_width, n, N) window; node k = i1 * n + i2."""

    radii: np.ndarray  # the distinct |alpha|, ascending
    orbit_radius: np.ndarray  # (orbits,) radius index of each orbit, non-decreasing
    members: np.ndarray  # (orbits, 2, 4) node of the member (s, k); n*n for an empty slot
    dft: np.ndarray  # (4, 4): dft[k, b] = i^{k m_b}, m_b = (b - N + 1) mod 4
    phases: np.ndarray  # (4 * orbits * 2, ceil((2N-1)/4)) folded e^{+-i d phi0}, rows (b, o, s)
    more_orbits: tuple  # more_orbits[k - 1], (2, .): the first and the (k+1)-th orbit of the radii with one
    operand_index: np.ndarray  # (N, radii, 2): flat entry of the orbit sums (b, o, j) that quantize's A[d, g] reads
    product_index: np.ndarray  # (2, 4, ceil((2N-1)/4)): the (|d|, d < 0) of H[d, g] that the orbit sums (b, ., j) read
    blocks: tuple  # blocks[d] = R on the diagonal m - n = d >= 0, shape (radii, N - d)


@functools.lru_cache(maxsize=2)
def _radial_tables(h: float, half_width: float, n: int, N: int) -> _RadialTables:
    a = 2 * np.arange(n) - n + 1
    base = a[a >= 0]
    X, Y = (v.ravel() for v in np.meshgrid(base, base, indexing="ij"))
    X, Y = X[Y <= X], Y[Y <= X]
    order = np.argsort(X**2 + Y**2, kind="stable")
    X, Y = X[order], Y[order]
    keys, first_orbit, orbit_radius, per_radius = np.unique(
        X**2 + Y**2, return_index=True, return_inverse=True, return_counts=True
    )
    O = X.size

    # member (s, k): i^k (X + iY) for s = 0, i^k (X - iY) for s = 1
    mx = np.stack([X, -Y, -X, Y, X, Y, -X, -Y], axis=1).reshape(O, 2, 4)
    my = np.stack([Y, X, -Y, -X, -Y, X, Y, -X], axis=1).reshape(O, 2, 4)
    members = (my + n - 1) // 2 * n + (n - 1 - mx) // 2
    members[(Y == 0) | (Y == X), 1] = n * n  # s = - repeats s = + on the axes and diagonals
    members[X == 0, 0, 1:] = n * n  # the centre

    J = -(-(2 * N - 1) // 4)
    d = np.arange(4 * J).reshape(J, 4).T - (N - 1)  # d[b, j] = 4j + b - (N - 1)
    signed_phi = np.arctan2(Y, X)[:, None, None] * np.array([1.0, -1.0])[:, None]  # (o, s, 1)
    db = d[:, None, None, :]
    sign = np.where(db < 0, (-1.0) ** db, 1.0)  # (-1)^d on the diagonals d < 0
    phases = np.where(db <= N - 1, sign * np.exp(1j * db * signed_phi), 0.0).reshape(8 * O, J)

    m = (np.arange(4) - (N - 1)) % 4
    dft = 1j ** ((np.arange(4)[:, None] * m[None, :]) % 4)
    more_orbits = []
    for k in range(1, per_radius.max()):
        first = first_orbit[per_radius > k]
        more_orbits.append(np.stack([first, first + k]))

    radii = np.sqrt(h / 2.0) * (half_width / n) * np.sqrt(keys)
    # A[d, g, c] reads the orbit sums at (b, first orbit of g, j) with 4j + b = N - 1 + d for
    # c = 0 and N - 1 - d for c = 1
    td = N - 1 + np.arange(N)[:, None] * np.array([1, -1])
    operand_index = ((td % 4) * O * J + td // 4)[:, None, :] + (first_orbit * J)[:, None]
    # the orbit sums (b, o, j) read H[|d|, radius of o, d < 0] for d = 4j + b - (N-1), and
    # H[0, ., 1] past d = N - 1: the product of R_0 with the empty -0 columns, which is 0
    product_index = np.stack([np.where(d <= N - 1, np.abs(d), 0), np.where(d <= N - 1, d < 0, 1)])

    blocks = tuple(np.empty((radii.size, N - d)) for d in range(N))
    # each batch's Laguerre table holds batch * (N//2 + 1) * N values, 0.54 MB
    # at 2**17; each batch also runs its own N-step recurrence, so at (128, 64)
    # the recurrences take 0.12 s, against 0.22 s at 2**16 and 0.03 s at 2**20,
    # whose 4.3 MB table would raise the peak RSS of the building process
    start = _diagonals(N).start
    batch = max(1, 2**17 // (N * N))
    for b0 in range(0, radii.size, batch):
        R = _radial_values(radii[b0 : b0 + batch] ** 2, N)
        R = R.reshape(-1, R.shape[-1])
        for d, blk in enumerate(blocks):
            blk[b0 : b0 + batch] = R[start[d] : start[d] + N - d].T
    for arr in (radii, orbit_radius, members, dft, phases, *more_orbits, operand_index, product_index, *blocks):
        arr.setflags(write=False)
    return _RadialTables(
        radii, orbit_radius, members, dft, phases, tuple(more_orbits), operand_index, product_index, blocks
    )


# ---------------------------------------------------------------------------
# Trace kernel and trace-weight validation
# ---------------------------------------------------------------------------


def _trace_kernel(x: np.ndarray, N: int) -> np.ndarray:
    """Tr_N U at |alpha|^2 = x: e^{-x/2} L_{N-1}^{(1)}(x), stable in x."""
    x = np.asarray(x, dtype=float)
    L0 = np.ones_like(x)
    if N == 1:
        return np.exp(-x / 2) * L0
    L1 = 2.0 - x
    for j in range(1, N - 1):
        L0, L1 = L1, ((2 * j + 2 - x) * L1 - (j + 1) * L0) / (j + 1)
    return np.exp(-x / 2) * L1


@functools.cache
def _validate_trace_weight(h: float, N: int) -> None:
    """Fail fast if c = trace_weight does not reproduce f(0) = 1.

    The test symbol f(t) = exp(-h|t|^2/4) = exp(-|alpha|^2/2) quantizes to a
    multiple of the vacuum projector, so tau_N(f) = 1 for every N >= 1: the
    check measures the weight, not the Fock truncation.  It runs on a private
    grid: f falls to e^-40 at its half-width sqrt(160/h), and in
    alpha = sqrt(h/2) t the integrand exp(-|alpha|^2) L_{N-1}^(1)(|alpha|^2)
    is band-limited to about 2 sqrt(N) + 10, which the step resolves.
    """
    L = np.sqrt(160.0 / h)
    alpha_extent = 2.0 * L * np.sqrt(h / 2.0)
    n = int(np.ceil((2.0 * np.sqrt(N) + 10.0) * alpha_extent / np.pi / 16.0)) * 16
    s = axis_nodes(L, n)
    r2 = _radius_sq(np.meshgrid(s, s, indexing="ij"))
    c = DeformationMatrix.canonical(h).trace_weight
    tau = c * np.sum(np.exp(-h * r2 / 4.0) * _trace_kernel(h * r2 / 2.0, N)) * (2 * L / n) ** 2
    if abs(tau - 1.0) > TRACE_WEIGHT_TOL:
        raise RuntimeError(
            f"trace weight validation failed for h={h}, N={N}: "
            f"tau(gaussian)={tau!r}, expected 1"
        )


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


@dataclass
class QuantizedOperator:
    """A square truncated-Fock-basis matrix and the deformation it was quantized with.

    The Fock size N and the trace weight c = h / 2pi of tau = c Tr follow from them.
    """

    matrix: np.ndarray
    theta: DeformationMatrix

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix contains NaN or Inf")
        self.matrix = mat

    @property
    def fock_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace_weight(self) -> float:
        return self.theta.trace_weight


def quantize(
    f: SymbolGrid,
    theta: DeformationMatrix,
    N: int,
    boundary_gate: Optional[float] = BOUNDARY_GATE,
) -> QuantizedOperator:
    """Midpoint quadrature of int f(t) U(t) dt over the grid of f.

    The symbol must be effectively supported inside the grid: the relative
    boundary value must be below ``boundary_gate`` (pass None to skip, as the
    multiplier pipeline does after gating the transform itself).
    """
    if f.dim != 2:
        raise ValueError("quantization needs a two-dimensional symbol")
    if boundary_gate is not None:
        decay = f.boundary_decay()
        if decay >= boundary_gate:
            raise BoundaryDecayError(
                f"symbol boundary decay {decay:.2e} exceeds gate {boundary_gate:.0e}; "
                "enlarge the grid"
            )
    _validate_trace_weight(theta.h, N)
    tab = _radial_tables(theta.h, f.half_width, f.points_per_axis, N)
    O, J = tab.orbit_radius.size, tab.phases.shape[1]
    # slot n*n (an empty member) reads 0; F[b, o, s] is the 4-point DFT of the orbit's weights
    w = np.append(f.samples.ravel() * f.cell_volume, 0.0)
    F = tab.dft.T @ w[tab.members].reshape(2 * O, 4).T
    # S[b, o, j] = sum_s F[b, o, s] e^{+-i d phi0}, the orbit's share of G_d, d = 4j + b - (N-1)
    S = (F.reshape(4, O, 1, 2) @ tab.phases.reshape(4, O, 2, J)).reshape(4, O, J)
    # each radius's sum G_d(r_g) builds up in its first orbit's slot
    for first, other in tab.more_orbits:
        S[:, first] += S[:, other]
    A = S.ravel()[tab.operand_index].view(float).reshape(N, -1, 4)  # A[d, g] = (G_d, (-1)^d G_{-d})(r_g)
    lay = _diagonals(N)
    Z = np.empty(lay.index.shape, dtype=complex)  # (x_d, x_{-d}) on the rows of the diagonal d
    Zv = Z.view(float).reshape(-1, 4)
    for d, R in enumerate(tab.blocks):
        np.matmul(R.T, A[d], out=Zv[lay.start[d] : lay.start[d] + N - d])
    vec = np.empty(N * N + 1, dtype=complex)  # entry N*N takes the empty rows
    vec[lay.index] = Z
    return QuantizedOperator(vec[:-1].reshape(N, N), theta)


def dequantize(x: QuantizedOperator, half_width: float, n: int) -> SymbolGrid:
    """x_hat(s) = c Tr(x U(s)^dagger) on every node of the requested grid."""
    N = x.fock_dim
    tab = _radial_tables(x.theta.h, half_width, n, N)
    O, J = tab.orbit_radius.size, tab.phases.shape[1]
    lay = _diagonals(N)
    X = np.append(x.matrix, 0.0)[lay.index]  # (x_d, x_{-d}) on the rows of the diagonal d; 0 on none
    Xv = X.view(float).reshape(-1, 4)
    H = np.empty((N, tab.radii.size, 2), dtype=complex)  # H[d] = R_d (x_d, x_{-d}) = (H_d, (-1)^d H_{-d})
    Hv = H.view(float).reshape(N, -1, 4)
    for d, R in enumerate(tab.blocks):
        np.matmul(R, Xv[lay.start[d] : lay.start[d] + N - d], out=Hv[d])
    # Y[b, o, s] = sum_j e^{+-i d phi0} H_d(r_o), d = 4j + b - (N-1), which the members
    # (-s, k) read: x_hat = c sum_b i^{-k m_b} Y[b, o, s]
    Hg = H[tab.product_index[0], :, tab.product_index[1]].transpose(0, 2, 1)[:, tab.orbit_radius, :, None]
    Y = (tab.phases.reshape(4, O, 2, J) @ Hg).reshape(4, 2 * O)
    vals = np.empty(n * n + 1, dtype=complex)  # the empty slots all land in the last entry
    vals[tab.members[:, ::-1]] = x.trace_weight * (Y.T @ tab.dft.conj().T).reshape(O, 2, 4)
    return SymbolGrid(2, half_width, n, vals[:-1].reshape(n, n))


def trace_tau(x: QuantizedOperator) -> complex:
    """The normal trace: trace_weight times the matrix trace."""
    return complex(x.trace_weight * np.trace(x.matrix))


def weyl_defect(theta: DeformationMatrix, t, s, N: int) -> float:
    """Spectral norm of U(t)U(s) - e^{i(t,theta s)/2} U(t+s) on the leading N/2 block."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    Ut = displacement_matrix(theta, t, N)
    Us = displacement_matrix(theta, s, N)
    Uts = displacement_matrix(theta, t + s, N)
    phase = np.exp(0.5j * theta.pairing(t, s))
    K = N // 2
    block = (Ut @ Us - phase * Uts)[:K, :K]
    return float(np.linalg.norm(block, 2))


# ---------------------------------------------------------------------------
# Independent position-kernel trace oracle
# ---------------------------------------------------------------------------


def kernel_trace_oracle(
    f_slice: Callable[[np.ndarray], np.ndarray],
    h: float,
    t_extent: float = 10.0,
    nt: int = 2048,
    u_extent: float = 32.0,
    nu: int = 2048,
) -> complex:
    """Tr of the quantization of f by direct kernel quadrature.

    The integral kernel of the quantized operator on L^2(R) is
    K(u, v) = h^-1 int f(t1, (v-u)/h) e^{i t1 (u+v)/2} dt1, so the trace is
    the double integral h^-1 iint f(t1, 0) e^{i t1 u} dt1 du.  Fock-basis
    machinery is deliberately not used; ``f_slice`` evaluates t1 -> f(t1, 0)
    in closed form.
    """
    t = axis_nodes(t_extent, nt)
    u = axis_nodes(u_extent, nu)
    ft = np.asarray(f_slice(t), dtype=complex)
    dt = 2 * t_extent / nt
    du = 2 * u_extent / nu
    inner = np.exp(1j * np.outer(u, t)) @ ft * dt
    return complex(inner.sum() * du / h)
