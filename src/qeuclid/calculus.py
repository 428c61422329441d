"""Fourier multipliers and the differential calculus they generate.

A multiplier g acts through one Fourier-side pass:

    x  ->  x_hat (grid)  ->  g * x_hat  ->  quantize back.

Derivations (symbol i*xi_j), the Laplacian semigroup (exp(-t|xi|^2)), Bessel
potentials ((1+|xi|^2)^(s/2)), and translations (exp(i(xi,a))) are all
instances.  The grid must capture x_hat: the pipeline refuses elements whose
transform has not decayed below 1e-8 (relative) at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

import numpy as np

from .errors import BoundaryDecayError, DomainError
from .spectra import schatten_norm, singular_profile
from .symbols import SymbolGrid, _radius_sq, grid_meshes
from .weyl import QuantizedOperator, dequantize, quantize

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
    "multiply_transform",
    "partial_derivative",
    "heat_flow",
    "bessel_potential",
    "sobolev_norm",
    "wm_norm",
    "translate",
    "pair_trace",
    "adjoint_defect",
]

MULTIPLIER_GATE = 1e-8


@dataclass(frozen=True)
class MultiplierSymbol:
    """A closed-form multiplier symbol."""

    label: str
    evaluator: Callable[..., np.ndarray]

    def conjugate(self) -> "MultiplierSymbol":
        ev = self.evaluator
        return MultiplierSymbol(f"conj({self.label})", lambda *m: np.conj(ev(*m)))


def heat_symbol(t: float) -> MultiplierSymbol:
    """exp(-t |xi|^2)."""
    if t < 0:
        raise ValueError("heat time must be nonnegative")
    if t == 0:
        return constant_symbol(1.0)
    return MultiplierSymbol(f"heat(t={t:g})", lambda *m: np.exp(-t * _radius_sq(m)))


def bessel_symbol(s: float) -> MultiplierSymbol:
    """(1 + |xi|^2)^(s/2)."""
    return MultiplierSymbol(f"bessel(s={s:g})", lambda *m: (1.0 + _radius_sq(m)) ** (s / 2.0) + 0j)


def derivative_symbol(axis: int) -> MultiplierSymbol:
    return MultiplierSymbol(f"d/dx{axis + 1}", lambda *m: 1j * m[axis])


def translation_symbol(a) -> MultiplierSymbol:
    a = np.asarray(a, dtype=float)

    def ev(*m):
        return np.exp(1j * sum(mi * ai for mi, ai in zip(m, a)))

    return MultiplierSymbol(f"translate(a={tuple(a)})", ev)


def constant_symbol(c: complex) -> MultiplierSymbol:
    return MultiplierSymbol(f"const({c})", lambda *m: np.full_like(m[0], c, dtype=complex))


def disc_indicator(radius: float) -> MultiplierSymbol:
    return MultiplierSymbol(
        f"disc(r={radius:g})", lambda *m: (_radius_sq(m) <= radius**2).astype(complex)
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


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


def apply_multiplier(
    g: MultiplierSymbol,
    x: QuantizedOperator,
    half_width: float = 8.0,
    n: int = 64,
) -> QuantizedOperator:
    """g(D) x = quantize(g * x_hat) on the requested Fourier grid."""
    return multiply_transform(g, dequantize(x, half_width, n), x)[1]


def multiply_transform(
    g: MultiplierSymbol, xhat: SymbolGrid, x: QuantizedOperator
) -> tuple[SymbolGrid, QuantizedOperator]:
    """The pass behind :func:`apply_multiplier` on a given transform x_hat of x.

    Returns g * x_hat and its quantization g(D) x.
    """
    decay = xhat.boundary_decay()
    if decay >= MULTIPLIER_GATE:
        raise BoundaryDecayError(
            f"transform boundary decay {decay:.2e} exceeds {MULTIPLIER_GATE:.0e}; "
            "the grid does not capture this element"
        )
    gvals = evaluate_multiplier(g, xhat)
    gx = xhat.with_samples(gvals.samples * xhat.samples)
    return gx, quantize(gx, x.theta, x.fock_dim, boundary_gate=None)


def partial_derivative(x: QuantizedOperator, axis: int, half_width: float = 8.0, n: int = 64) -> QuantizedOperator:
    return apply_multiplier(derivative_symbol(axis), x, half_width, n)


def heat_flow(x: QuantizedOperator, t: float, half_width: float = 8.0, n: int = 64) -> QuantizedOperator:
    if t < 0:
        raise ValueError("heat time must be nonnegative")
    return apply_multiplier(heat_symbol(t), x, half_width, n)


def bessel_potential(x: QuantizedOperator, s: float, half_width: float = 8.0, n: int = 64) -> QuantizedOperator:
    return apply_multiplier(bessel_symbol(s), x, half_width, n)


def translate(x: QuantizedOperator, a, half_width: float = 8.0, n: int = 64) -> QuantizedOperator:
    return apply_multiplier(translation_symbol(a), x, half_width, n)


def sobolev_norm(x: QuantizedOperator, p: float, s: float, half_width: float = 8.0, n: int = 64) -> float:
    """Bessel-potential Sobolev norm ||(1-Lap)^{s/2} x||_p."""
    return schatten_norm(singular_profile(bessel_potential(x, s, half_width, n)), p)


def _monomial_symbol(alpha: tuple[int, ...]) -> MultiplierSymbol:
    def ev(*m):
        out = np.ones_like(m[0], dtype=complex)
        for mi, k in zip(m, alpha):
            if k:
                out = out * (1j * mi) ** k
        return out

    return MultiplierSymbol(f"d^{alpha}", ev)


def wm_norm(x: QuantizedOperator, p: float, m: int, half_width: float = 8.0, n: int = 64) -> float:
    """Sum of ||d^alpha x||_p over multi-indices |alpha| <= m (lexicographic).

    Each d^alpha is applied as a single multiplier with symbol
    prod_j (i xi_j)^{alpha_j}; iterating single derivations gives the same
    operator up to one extra quantization pass.
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    total = 0.0
    for alpha in sorted(product(range(m + 1), repeat=2)):
        if sum(alpha) > m:
            continue
        if sum(alpha) == 0:
            y = x
        else:
            y = apply_multiplier(_monomial_symbol(alpha), x, half_width, n)
        total += schatten_norm(singular_profile(y), p)
    return total


def pair_trace(x: QuantizedOperator, y: QuantizedOperator) -> complex:
    """tau(x y^*) = c sum_{mn} x_mn conj(y_mn)."""
    x._check_compatible(y)
    return complex(x.trace_weight * np.sum(x.matrix * np.conj(y.matrix)))


def adjoint_defect(
    g: MultiplierSymbol,
    x: QuantizedOperator,
    y: QuantizedOperator,
    half_width: float = 8.0,
    n: int = 64,
) -> float:
    """| tau(g(D)x . y*) - tau(x . (conj(g)(D) y)*) |."""
    gx = apply_multiplier(g, x, half_width, n)
    gy = apply_multiplier(g.conjugate(), y, half_width, n)
    return float(abs(pair_trace(gx, y) - pair_trace(x, gy)))
