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

Matrix-element generation notes: the naive two-term column recurrence for
displacement entries is violently unstable once |alpha|^2 exceeds ~25 (the
minimal-solution region below the Laguerre turning point).  Raw Laguerre
values L_j^(k)(x), by contrast, are the dominant solution of the degree
recurrence, so that recurrence is run on raw values and the magnitude
prefactor sqrt(min(m,n)!/max(m,n)!) |alpha|^|m-n| e^{-x/2} is attached in
log space.  Entries stay accurate (~1e-13 absolute) for |alpha|^2 up to
several hundred.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln

from .errors import BoundaryDecayError, GridMismatchError
from .symbols import SymbolGrid, axis_nodes

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
#: refuse to materialize displacement stacks larger than this (bytes)
MAX_STACK_BYTES = 2_500_000_000


@dataclass(frozen=True)
class DeformationMatrix:
    """Antisymmetric 2x2 deformation matrix in canonical form h*[[0,-1],[1,0]]."""

    d: int
    entries: np.ndarray
    canonical_h: float

    @classmethod
    def canonical(cls, h: float) -> "DeformationMatrix":
        if not (H_RANGE[0] <= h <= H_RANGE[1]):
            raise ValueError(f"h={h} outside supported range {H_RANGE}")
        entries = h * np.array([[0.0, -1.0], [1.0, 0.0]])
        return cls(d=2, entries=entries, canonical_h=float(h))

    def __post_init__(self):
        if self.d != 2:
            raise ValueError("only the d=2 canonical block is supported")
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (2, 2) or not np.array_equal(e, -e.T):
            raise ValueError("deformation matrix must be exactly antisymmetric 2x2")
        if self.canonical_h <= 0 or not np.isclose(e[1, 0], self.canonical_h):
            raise ValueError("entries must equal h*[[0,-1],[1,0]] with h>0")
        object.__setattr__(self, "entries", e)

    @property
    def h(self) -> float:
        return self.canonical_h

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

@functools.cache
def _lgamma(N: int) -> np.ndarray:
    return gammaln(np.arange(N + 1, dtype=float))


def _displacement_block(alphas: np.ndarray, N: int) -> np.ndarray:
    """Exact truncated <m|D(alpha)|n> for a batch of alphas, shape (B, N, N)."""
    alphas = np.asarray(alphas, dtype=complex).ravel()
    B = alphas.size
    xs = np.abs(alphas) ** 2

    # raw Laguerre table Lag[b, j, k] = L_j^(k)(x_b)
    k = np.arange(N, dtype=float)[None, :]
    Lag = np.empty((B, N, N))
    Lag[:, 0, :] = 1.0
    if N > 1:
        Lag[:, 1, :] = 1.0 + k - xs[:, None]
    for j in range(1, N - 1):
        Lag[:, j + 1, :] = (
            (2 * j + k + 1 - xs[:, None]) * Lag[:, j, :] - (j + k) * Lag[:, j - 1, :]
        ) / (j + 1)

    m = np.arange(N)
    M, Nc = np.meshgrid(m, m, indexing="ij")
    kofs = np.abs(M - Nc)
    jmin = np.minimum(M, Nc)
    upper = (M >= Nc).ravel()
    lg = _lgamma(N)
    base = 0.5 * (lg[jmin + 1] - lg[jmin + kofs + 1])

    rows = np.arange(B)[:, None]
    Lv = Lag[rows, jmin.ravel()[None, :], kofs.ravel()[None, :]]
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = (
            base.ravel()[None, :]
            - 0.5 * xs[:, None]
            + np.where(kofs.ravel()[None, :] == 0, 0.0, kofs.ravel()[None, :] * 0.5 * np.log(xs)[:, None])
            + np.where(Lv == 0.0, -np.inf, np.log(np.abs(Lv)))
        )
    mag = np.sign(Lv) * np.exp(logmag)

    # phase factors: alpha^{m-n}/|alpha|^{m-n} below the diagonal,
    # (-conj alpha)^{n-m}/|alpha|^{n-m} above; separable as outer products
    absa = np.sqrt(xs)
    safe = np.where(absa > 0, absa, 1.0)
    pu = alphas / safe
    pd = -np.conj(alphas) / safe
    pu_pows = np.cumprod(np.concatenate([np.ones((B, 1), complex), np.tile(pu[:, None], (1, N - 1))], axis=1), axis=1)
    pd_pows = np.cumprod(np.concatenate([np.ones((B, 1), complex), np.tile(pd[:, None], (1, N - 1))], axis=1), axis=1)
    phase = np.where(
        upper[None, :],
        (pu_pows[:, :, None] * np.conj(pu_pows)[:, None, :]).reshape(B, -1),
        (np.conj(pd_pows)[:, :, None] * pd_pows[:, None, :]).reshape(B, -1),
    )
    out = (mag * phase).reshape(B, N, N)
    if np.any(xs == 0.0):
        out[xs == 0.0] = np.eye(N, dtype=complex)
    return out


def displacement_matrix(theta: DeformationMatrix, t, N: int) -> np.ndarray:
    """Truncated U_theta(t) in the Fock basis (exact matrix elements)."""
    if N < 2:
        raise ValueError("Fock dimension must be at least 2")
    t = np.asarray(t, dtype=float)
    if t.shape != (2,):
        raise ValueError("t must be a real 2-vector")
    return _displacement_block(np.array([theta.alpha(t)]), N)[0]


# ---------------------------------------------------------------------------
# Full-grid displacement stacks (vec'd, cached)
# ---------------------------------------------------------------------------


# The cached helpers key on theta.h: DeformationMatrix holds an ndarray and
# does not hash.
@functools.lru_cache(maxsize=2)
def _grid_stack(h: float, half_width: float, n: int, N: int) -> np.ndarray:
    """vec'd U(t_k) for every node of the (half_width, n) midpoint grid.

    Returns shape (n*n, N*N), row k = U(t_{i1,i2}).ravel() with
    k = i1 * n + i2.  Exploits t -> -t and per-axis sign symmetries: only one
    quadrant is generated, mirrors are conjugates / transposes.
    """
    nbytes = (n * n) * (N * N) * 16
    if nbytes > MAX_STACK_BYTES:
        raise MemoryError(
            f"displacement stack would need {nbytes/1e9:.1f} GB; "
            "use a coarser grid or smaller Fock dimension"
        )
    s = axis_nodes(half_width, n)
    half = (n + 1) // 2
    scale = np.sqrt(h / 2.0)
    stack = np.empty((n * n, N * N), dtype=complex)
    batch = max(1, min(half * half, 8 * 1024 * 1024 // (N * N) + 1))
    pairs = [(i1, i2) for i1 in range(half) for i2 in range(half)]
    for start in range(0, len(pairs), batch):
        chunk = pairs[start : start + batch]
        al = np.array([scale * (-s[i2] + 1j * s[i1]) for i1, i2 in chunk])
        blk = _displacement_block(al, N)
        blk_t = blk.transpose(0, 2, 1)
        for b, (i1, i2) in enumerate(chunk):
            j1, j2 = n - 1 - i1, n - 1 - i2
            stack[i1 * n + i2] = blk[b].ravel()
            if j1 != i1:
                stack[j1 * n + i2] = np.conj(blk[b]).ravel()  # t1 -> -t1: alpha -> conj
            if j2 != i2:
                stack[i1 * n + j2] = blk_t[b].ravel()  # t2 -> -t2: transpose
            if j1 != i1 and j2 != i2:
                stack[j1 * n + j2] = np.conj(blk_t[b]).ravel()  # t -> -t: dagger
    stack.setflags(write=False)
    return stack


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
    """Fail fast if c = h/(2pi) does not reproduce f(0) on a canonical Gaussian.

    Runs on a private grid wide enough in reciprocal space for the given
    (h, N), so it tests the weight, not the caller's grid resolution.
    """
    L = 8.0
    need = np.sqrt(2.0 * h * N) + 10.0
    n = int(np.ceil(need * L / np.pi / 16.0)) * 16
    s = axis_nodes(L, n)
    T1, T2 = np.meshgrid(s, s, indexing="ij")
    f = np.exp(-(T1**2 + T2**2) / 2.0)
    xarg = (h / 2.0) * (T1**2 + T2**2)
    tau = h / (2.0 * np.pi) * np.sum(f * _trace_kernel(xarg, N)) * (2 * L / n) ** 2
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
    """A truncated-Fock-basis matrix with its deformation data and trace weight."""

    fock_dim: int
    matrix: np.ndarray
    theta: DeformationMatrix
    trace_weight: float

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.fock_dim, self.fock_dim):
            raise ValueError("matrix shape does not match fock_dim")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix contains NaN or Inf")
        if self.trace_weight <= 0:
            raise ValueError("trace weight must be positive")
        self.matrix = mat

    def _check_compatible(self, other: "QuantizedOperator") -> None:
        if self.fock_dim != other.fock_dim or self.theta.h != other.theta.h:
            raise GridMismatchError("operators live in different quantizations")

    def __add__(self, other: "QuantizedOperator") -> "QuantizedOperator":
        self._check_compatible(other)
        return QuantizedOperator(self.fock_dim, self.matrix + other.matrix, self.theta, self.trace_weight)

    def __sub__(self, other: "QuantizedOperator") -> "QuantizedOperator":
        self._check_compatible(other)
        return QuantizedOperator(self.fock_dim, self.matrix - other.matrix, self.theta, self.trace_weight)

    def scaled(self, a: complex) -> "QuantizedOperator":
        return QuantizedOperator(self.fock_dim, a * self.matrix, self.theta, self.trace_weight)

    def adjoint(self) -> "QuantizedOperator":
        return QuantizedOperator(self.fock_dim, self.matrix.conj().T, self.theta, self.trace_weight)


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
    stack = _grid_stack(theta.h, f.half_width, f.points_per_axis, N)
    vec = (f.samples.ravel() * f.cell_volume) @ stack
    return QuantizedOperator(N, vec.reshape(N, N), theta, theta.trace_weight)


def dequantize(
    x: QuantizedOperator, half_width: float = 8.0, n: int = 64
) -> SymbolGrid:
    """x_hat(s) = c Tr(x U(s)^dagger) on every node of the requested grid."""
    N = x.fock_dim
    stack = _grid_stack(x.theta.h, half_width, n, N)
    # Tr(x U^dag) = sum_{mn} x_mn conj(U_mn) = conj(stack @ conj(vec x))
    vals = x.trace_weight * np.conj(stack @ np.conj(x.matrix.ravel()))
    return SymbolGrid(2, half_width, n, vals.reshape(n, n))


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
