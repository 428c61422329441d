"""Grid-sampled functions on R^d and their classical analysis.

Everything here is commutative: midpoint-sampled complex functions with
uniform quadrature weights, their Fourier transforms, Lebesgue and Lorentz
norms, decreasing rearrangements, and the superlevel-set functionals that
control multiplier boundedness.

Conventions:
  * grids are midpoint grids, nodes s_k = -L + (k + 1/2) * (2L/n), no node
    sits on the boundary;
  * the Fourier transform is the unnormalized integral
    (Ff)(t) = int f(s) exp(-i (t, s)) ds; the inverse kernel exp(+i (t, s))
    carries no (2pi)^-d division, callers apply it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "SymbolGrid",
    "axis_nodes",
    "grid_meshes",
    "sample_symbol",
    "classical_fourier",
    "lebesgue_norm",
    "rearrangement",
    "lorentz_norm",
    "lorentz_step_norm",
    "superlevel_measure",
    "threshold_grid",
    "paley_weight_constant",
    "hormander_constant",
]

#: shipped grid defaults: (half_width, points_per_axis) keyed by dimension
DEFAULT_GRID = {1: (64.0, 4096), 2: (8.0, 128)}

_POSITIVITY_FLOOR = 1e-300


def axis_nodes(half_width: float, n: int) -> np.ndarray:
    """Midpoint nodes of one axis."""
    step = 2.0 * half_width / n
    return -half_width + (np.arange(n) + 0.5) * step


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
        if self.dim == 1:
            edge = max(a[0], a[-1])
        else:
            edge = max(a[0, :].max(), a[-1, :].max(), a[:, 0].max(), a[:, -1].max())
        return float(edge / peak)

    def same_grid(self, other: "SymbolGrid") -> bool:
        return (
            self.dim == other.dim
            and self.points_per_axis == other.points_per_axis
            and np.isclose(self.half_width, other.half_width, rtol=1e-12, atol=0.0)
        )


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


def sample_symbol(
    family: str,
    params: Optional[dict] = None,
    half_width: Optional[float] = None,
    n: Optional[int] = None,
    dim: int = 2,
) -> SymbolGrid:
    """Sample one of the built-in closed-form families.

    Families:
      * ``gaussian``: amp * exp(-a |s - center|^2) * prod_j s_j^power_j
        * exp(i (s, wave))
      * ``heat``: exp(-t |s|^2)
      * ``bessel``: (1 + |s|^2)^(-sigma/2)
      * ``coordinate``: i * s_axis * exp(-a |s|^2)
    """
    params = dict(params or {})
    if half_width is None or n is None:
        d_hw, d_n = DEFAULT_GRID[dim]
        half_width = d_hw if half_width is None else half_width
        n = d_n if n is None else n
    if half_width <= 0 or n <= 0:
        raise ValueError("grid parameters must be positive")

    ref = SymbolGrid(dim, half_width, n, np.zeros((n,) * dim))
    meshes = grid_meshes(ref)

    if family == "gaussian":
        a = float(params.get("a", 0.5))
        amp = complex(params.get("amp", 1.0))
        center = params.get("center", (0.0,) * dim)
        power = params.get("power", (0,) * dim)
        wave = params.get("wave", (0.0,) * dim)
        if not np.isfinite(a) or a <= 0:
            raise ValueError("gaussian decay rate a must be positive and finite")
        shifted = [m - c for m, c in zip(meshes, center)]
        vals = amp * np.exp(-a * _radius_sq(shifted))
        for m, k in zip(meshes, power):
            if k:
                vals = vals * m**k
        phase = sum(m * w for m, w in zip(meshes, wave))
        if np.any(np.asarray(wave) != 0.0):
            vals = vals * np.exp(1j * phase)
    elif family == "heat":
        t = float(params.get("t", 1.0))
        if t < 0 or not np.isfinite(t):
            raise ValueError("heat time must be finite and nonnegative")
        vals = np.exp(-t * _radius_sq(meshes)).astype(complex)
    elif family == "bessel":
        sigma = float(params.get("sigma", 2.0))
        if not np.isfinite(sigma):
            raise ValueError("bessel order must be finite")
        vals = (1.0 + _radius_sq(meshes)) ** (-sigma / 2.0) + 0j
    elif family == "coordinate":
        axis = int(params.get("axis", 0))
        a = float(params.get("a", 0.5))
        if axis < 0 or axis >= dim:
            raise ValueError(f"axis {axis} out of range for dim {dim}")
        if a <= 0:
            raise ValueError("window decay rate must be positive")
        vals = 1j * meshes[axis] * np.exp(-a * _radius_sq(meshes))
    else:
        raise ValueError(f"unknown symbol family {family!r}")

    return ref.with_samples(vals)


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------


def _phased_fft_1d(samples: np.ndarray, n: int, sign: int, axis: int) -> np.ndarray:
    """sum_k f_k exp(sign * i t_j s_k) along one axis, midpoint-to-midpoint.

    With t_j s_k = (2pi/n)(j + c)(k + c), c = (1 - n)/2, the sum reduces to
    an FFT conjugated by linear phases.
    """
    c = 0.5 * (1.0 - n)
    idx = np.arange(n)
    w = np.exp(sign * 2j * np.pi * c * idx / n)
    shape = [1] * samples.ndim
    shape[axis] = n
    w = w.reshape(shape)
    inner = samples * w
    if sign < 0:
        transformed = np.fft.fft(inner, axis=axis)
    else:
        transformed = np.fft.ifft(inner, axis=axis) * n
    scale = np.exp(sign * 2j * np.pi * c * (idx + c) / n).reshape(shape)
    return transformed * scale


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
    out = out * f.cell_volume
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
    form, the q = inf branch takes the sup over both cell endpoints.
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
        left = edges[:-1] ** (1.0 / p) * levels
        right = edges[1:] ** (1.0 / p) * levels
        return float(max(left.max(), right.max()))
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
# Superlevel functionals
# ---------------------------------------------------------------------------


def superlevel_measure(g: SymbolGrid, t: float) -> float:
    """Lebesgue measure of {|g| >= t} on the grid."""
    if t <= 0:
        raise ValueError("threshold must be positive")
    return float(g.cell_volume * np.count_nonzero(np.abs(g.samples) >= t))


def threshold_grid(g: SymbolGrid, points: int = 400, floor_ratio: float = 1e-3) -> np.ndarray:
    """Log-uniform thresholds spanning [max|g| * floor_ratio, max|g|]."""
    a = np.abs(g.samples)
    top = float(a.max())
    if top == 0.0:
        return np.array([])
    pos = a[a > 0]
    lo = max(top * floor_ratio, float(pos.min()))
    lo = min(lo, top)
    return np.geomspace(lo, top, points)


def paley_weight_constant(
    h: SymbolGrid, t_grid: Optional[np.ndarray] = None
) -> float:
    """sup_t t |{h >= t}| over a threshold grid; h must be strictly positive."""
    vals = h.samples
    if np.any(np.abs(vals.imag) > 0):
        raise ValueError("weight must be real-valued")
    if np.any(vals.real <= _POSITIVITY_FLOOR):
        raise ValueError("weight must be strictly positive")
    if t_grid is None:
        t_grid = threshold_grid(h)
    if len(t_grid) < 200:
        raise ValueError("threshold grid needs at least 200 points")
    best = 0.0
    a = vals.real
    dv = h.cell_volume
    for t in t_grid:
        best = max(best, t * dv * np.count_nonzero(a >= t))
    return float(best)


def hormander_constant(
    g: SymbolGrid, p: float, q: float, t_grid: Optional[np.ndarray] = None
) -> float:
    """sup_t t |{|g| >= t}|^(1/p - 1/q) over a threshold grid.

    Requires 1 < p <= 2 <= q < inf.  With p = q the exponent is zero and the
    value is max|g| (empty superlevel sets contribute nothing).
    """
    if not (1.0 < p <= 2.0 <= q < np.inf):
        raise ValueError(f"need 1 < p <= 2 <= q < inf, got p={p}, q={q}")
    gamma = 1.0 / p - 1.0 / q
    a = np.abs(g.samples)
    if a.max() == 0.0:
        return 0.0
    if t_grid is None:
        t_grid = threshold_grid(g)
    dv = g.cell_volume
    best = 0.0
    for t in t_grid:
        m = dv * np.count_nonzero(a >= t)
        if m <= 0.0:
            continue
        best = max(best, t * m**gamma)
    return float(best)
