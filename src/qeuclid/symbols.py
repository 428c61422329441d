"""Grid-sampled functions on R^d and their classical analysis.

Everything here is commutative: midpoint-sampled complex functions with
uniform quadrature weights, their Fourier transforms, Lebesgue and Lorentz
norms, decreasing rearrangements, and the level-set constants that control
multiplier boundedness.

Conventions:
  * grids are midpoint grids, nodes s_k = (L/n) * (2k - n + 1), no node
    sits on the boundary, and s_(n-1-k) = -s_k exactly;
  * the Fourier transform is the unnormalized integral
    (Ff)(t) = int f(s) exp(-i (t, s)) ds; the inverse kernel exp(+i (t, s))
    carries no (2pi)^-d division, callers apply it explicitly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "SymbolGrid",
    "GaussianMixture",
    "axis_nodes",
    "grid_meshes",
    "sample_symbol",
    "classical_fourier",
    "lebesgue_norm",
    "rearrangement",
    "lorentz_norm",
    "lorentz_step_norm",
    "paley_weight_constant",
    "hormander_constant",
]

_POSITIVITY_FLOOR = 1e-300


def axis_nodes(half_width: float, n: int) -> np.ndarray:
    """Midpoint nodes of one axis, exactly symmetric about 0."""
    return (half_width / n) * (2.0 * np.arange(n) - n + 1)


@dataclass(frozen=True)
class SymbolGrid:
    """A complex function sampled on a uniform midpoint grid of R^dim.

    ``samples`` has shape (n,) for dim=1 and (n, n) for dim=2, axis 0
    indexing the first coordinate.
    """

    dim: int
    half_width: float
    points_per_axis: int
    samples: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.points_per_axis <= 0:
            raise ValueError("points_per_axis must be positive")
        samples = np.asarray(self.samples, dtype=complex)
        if samples.shape != (self.points_per_axis,) * self.dim:
            raise ValueError(
                f"samples shape {samples.shape} does not match grid "
                f"({self.points_per_axis},)*{self.dim}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples contain NaN or Inf")
        object.__setattr__(self, "samples", samples)

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def cell_volume(self) -> float:
        return self.step**self.dim

    @property
    def axes(self) -> np.ndarray:
        return axis_nodes(self.half_width, self.points_per_axis)

    def with_samples(self, samples: np.ndarray) -> "SymbolGrid":
        return SymbolGrid(self.dim, self.half_width, self.points_per_axis, samples)

    def boundary_decay(self) -> float:
        """max |f| over the outermost cell shell, relative to max |f|."""
        a = np.abs(self.samples)
        peak = a.max()
        if peak == 0.0:
            return 0.0
        return float(a[_shell_mask(self.points_per_axis, self.dim)].max() / peak)

    def same_grid(self, other: "SymbolGrid") -> bool:
        return (
            self.dim == other.dim
            and self.points_per_axis == other.points_per_axis
            and np.isclose(self.half_width, other.half_width, rtol=1e-12, atol=0.0)
        )


@functools.lru_cache(maxsize=None)
def _shell_mask(n: int, dim: int) -> np.ndarray:
    """The outermost cell shell of an n^dim grid: every cell, for n <= 2."""
    mask = np.ones((n,) * dim, dtype=bool)
    mask[(slice(1, -1),) * dim] = False
    mask.flags.writeable = False
    return mask


def grid_meshes(grid: SymbolGrid) -> tuple[np.ndarray, ...]:
    """Coordinate meshes (one array per axis, 'ij' indexing)."""
    ax = grid.axes
    if grid.dim == 1:
        return (ax,)
    return tuple(np.meshgrid(ax, ax, indexing="ij"))


def _radius_sq(meshes: Sequence[np.ndarray]) -> np.ndarray:
    """|s|^2 on coordinate meshes."""
    out = np.zeros_like(meshes[0])
    for m in meshes:
        out = out + m**2
    return out


@dataclass(frozen=True)
class GaussianMixture:
    """sum of amp exp(-|s - center|^2 / (2 width^2)) over ``components``, a tuple
    of (center, width, amp) with one center coordinate per axis."""

    components: tuple

    def value(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        """The mixture at ``coords``, one array or number per axis: a grid's
        meshes sample it on the grid, point coordinates evaluate it there."""
        out = np.zeros(np.broadcast(*coords).shape, dtype=complex)
        for center, w, amp in self.components:
            out = out + amp * np.exp(-_radius_sq([m - c for m, c in zip(coords, center)]) / (2 * w * w))
        return out


def sample_symbol(family: str, params: Optional[dict], half_width: float, n: int, dim: int = 2) -> SymbolGrid:
    """Sample a closed-form family; the one family, ``gaussian``, is exp(-a |s - center|^2),
    the one-component :class:`GaussianMixture` of width (2a)^(-1/2).

    The heat and Bessel symbols are :mod:`qeuclid.calculus` multipliers;
    ``evaluate_multiplier`` samples them on a grid.
    """
    params = dict(params or {})
    if half_width <= 0 or n <= 0:
        raise ValueError("grid parameters must be positive")
    ref = SymbolGrid(dim, half_width, n, np.zeros((n,) * dim))
    if family != "gaussian":
        raise ValueError(f"unknown symbol family {family!r}")
    a = float(params.get("a", 0.5))
    if not np.isfinite(a) or a <= 0:
        raise ValueError("gaussian decay rate a must be positive and finite")
    mixture = GaussianMixture(((params.get("center", (0.0,) * dim), (2.0 * a) ** -0.5, 1.0),))
    return ref.with_samples(mixture.value(grid_meshes(ref)))


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _fft_phases(n: int, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """The pre- and post-FFT phases of :func:`_phased_fft_1d`, read-only.

    Two complex exponentials of length n cost about twice the FFT itself, and
    the classical backend transforms at one n throughout a run.
    """
    c = 0.5 * (1.0 - n)
    idx = np.arange(n)
    w = np.exp(sign * 2j * np.pi * c * idx / n)
    scale = np.exp(sign * 2j * np.pi * c * (idx + c) / n)
    w.flags.writeable = scale.flags.writeable = False
    return w, scale


def _phased_fft_1d(samples: np.ndarray, n: int, sign: int, axis: int) -> np.ndarray:
    """sum_k f_k exp(sign * i t_j s_k) along one axis, midpoint-to-midpoint.

    With t_j s_k = (2pi/n)(j + c)(k + c), c = (1 - n)/2, the sum reduces to
    an FFT conjugated by linear phases.
    """
    w, scale = _fft_phases(n, sign)
    shape = [1] * samples.ndim
    shape[axis] = n
    inner = samples * w.reshape(shape)
    if sign < 0:
        transformed = np.fft.fft(inner, axis=axis)
    else:
        transformed = np.fft.ifft(inner, axis=axis)
        transformed *= n
    transformed *= scale.reshape(shape)
    return transformed


def classical_fourier(f: SymbolGrid, sign: int = -1) -> SymbolGrid:
    """Unnormalized Fourier transform on the reciprocal midpoint grid.

    sign=-1 computes int f(s) exp(-i(t,s)) ds; sign=+1 uses the kernel
    exp(+i(t,s)) with no (2pi)^-d factor.  The output grid has half-width
    pi*n/(2L), so transforming twice returns to the original grid.
    """
    if sign not in (-1, +1):
        raise ValueError("sign must be -1 or +1")
    n = f.points_per_axis
    out = f.samples.astype(complex)
    for axis in range(f.dim):
        out = _phased_fft_1d(out, n, sign, axis)
    out *= f.cell_volume
    recip_half_width = np.pi * n / (2.0 * f.half_width)
    return SymbolGrid(f.dim, recip_half_width, n, out)


# ---------------------------------------------------------------------------
# Norms and rearrangements
# ---------------------------------------------------------------------------


def lebesgue_norm(f: SymbolGrid, p: float) -> float:
    """Quadrature L^p norm; p = inf gives the max sample modulus."""
    if np.isinf(p):
        return float(np.abs(f.samples).max())
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float((np.sum(np.abs(f.samples) ** p) * f.cell_volume) ** (1.0 / p))


def rearrangement(f: SymbolGrid) -> np.ndarray:
    """Decreasing rearrangement: the sample moduli in descending order.

    As a step function, mu(t) = levels[j] on [j dV, (j+1) dV) with dV the
    cell volume.
    """
    return np.sort(np.abs(f.samples).ravel())[::-1]


def lorentz_step_norm(levels: np.ndarray, weight: float, p: float, q: float) -> float:
    """Lorentz (p, q) quasinorm of a uniform-weight step function.

    mu(t) = levels[j] on [j*weight, (j+1)*weight); the integral
    (int (t^{1/p} mu(t))^q dt/t)^{1/q} is evaluated cell-by-cell in closed
    form.  mu is constant on each cell, so the q = inf sup sits at a right
    cell endpoint.
    """
    levels = np.asarray(levels, dtype=float)
    if p <= 0 or q <= 0:
        raise ValueError("Lorentz exponents must be positive")
    if levels.size == 0 or levels[0] == 0.0:
        return 0.0
    nz = int(np.count_nonzero(levels))
    levels = levels[:nz]
    edges = weight * np.arange(nz + 1, dtype=float)
    if np.isinf(q):
        if np.isinf(p):
            return float(levels[0])
        return float((edges[1:] ** (1.0 / p) * levels).max())
    if np.isinf(p):
        # int mu^q dt/t diverges at t=0 unless mu vanishes near 0
        return float("inf")
    r = q / p
    cell = (edges[1:] ** r - edges[:-1] ** r) / r
    return float(np.sum(levels**q * cell) ** (1.0 / q))


def lorentz_norm(f: SymbolGrid, p: float, q: float) -> float:
    """Classical Lorentz L^{p,q} quasinorm of a sampled function."""
    return lorentz_step_norm(rearrangement(f), f.cell_volume, p, q)


# ---------------------------------------------------------------------------
# Level-set constants
# ---------------------------------------------------------------------------
#
# On (a_(k+1), a_(k)] the count |{|g| >= t}| is the constant k dV while
# t m^gamma grows with t, so each sup sits at a sample level and equals the
# weak Lorentz quasinorm ||g||_{1/gamma, inf}: computed exactly, not sampled.


def paley_weight_constant(h: SymbolGrid) -> float:
    """sup_t t |{h >= t}| = ||h||_{1, inf}; h must be strictly positive."""
    vals = h.samples
    if np.any(np.abs(vals.imag) > 0):
        raise ValueError("weight must be real-valued")
    if np.any(vals.real <= _POSITIVITY_FLOOR):
        raise ValueError("weight must be strictly positive")
    return lorentz_norm(h, 1.0, np.inf)


def hormander_constant(g: SymbolGrid, p: float, q: float) -> float:
    """sup_t t |{|g| >= t}|^(1/p - 1/q) = ||g||_{r, inf}, 1/r = 1/p - 1/q.

    Requires 1 < p <= 2 <= q < inf.  With p = q the exponent is zero, r is
    infinite and the value is max|g|.
    """
    if not (1.0 < p <= 2.0 <= q < np.inf):
        raise ValueError(f"need 1 < p <= 2 <= q < inf, got p={p}, q={q}")
    gamma = 1.0 / p - 1.0 / q
    return lorentz_norm(g, 1.0 / gamma if gamma > 0 else np.inf, np.inf)
