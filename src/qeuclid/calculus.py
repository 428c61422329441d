"""Fourier multipliers and the differential calculus they generate.

A multiplier g acts on the transform side, T_g x = lambda(g * x_hat), and
:func:`apply_multiplier` is that one pass: it returns g * x_hat on the grid
of x_hat.  Each backend maps the product back to an element (the quantized
backend quantizes it, the classical one inverts the Fourier transform).

Derivations (symbol i*xi_j), the Laplacian semigroup (exp(-t|xi|^2)), Bessel
potentials ((1+|xi|^2)^(s/2)), and translations (exp(i(xi,a))) are all
instances.  The grid must capture x_hat: the pass refuses transforms that
have not decayed below 1e-8 (relative) at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BoundaryDecayError, DomainError
from .symbols import SymbolGrid, _radius_sq, grid_meshes

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
]

MULTIPLIER_GATE = 1e-8


@dataclass(frozen=True)
class MultiplierSymbol:
    """A closed-form multiplier symbol."""

    label: str
    evaluator: Callable[..., np.ndarray]


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


def apply_multiplier(g: MultiplierSymbol, xhat: SymbolGrid) -> SymbolGrid:
    """g * x_hat on the grid of x_hat; refuses an x_hat the grid does not capture."""
    decay = xhat.boundary_decay()
    if decay >= MULTIPLIER_GATE:
        raise BoundaryDecayError(
            f"transform boundary decay {decay:.2e} exceeds {MULTIPLIER_GATE:.0e}; "
            "the grid does not capture this element"
        )
    return xhat.with_samples(evaluate_multiplier(g, xhat).samples * xhat.samples)
