"""Commutative one-dimensional backend: functions as multiplication operators.

With no deformation the algebra element is a bounded pointwise multiplier by
a position function F, the trace is (2 pi)^-1 times the Lebesgue integral
(the normalization forced by tau(quantize(f)) = f(0)), and the transform of
the element is the plain Fourier transform.  The backend exposes the same
interface as :class:`qeuclid.harness.MoyalBackend`, so the verification
registry runs on it unchanged; it cross-validates the verifier formulas with
fast-transform numerics that carry no truncation artifacts.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import symbols
from .calculus import MultiplierSymbol, apply_multiplier
from .errors import GridMismatchError
from .harness import RandomElement
from .spectra import SingularValueProfile, schatten_norm
from .symbols import SymbolGrid, classical_fourier, rearrangement

__all__ = [
    "ClassicalBackend",
    "CLASSICAL_IDS",
]

#: registry entries exercised on the commutative backend
CLASSICAL_IDS = ("R1", "R2", "R3", "R4", "R5", "R9", "R10", "R14")

TWO_PI = 2.0 * math.pi


class ClassicalBackend:
    """Same verification interface as the quantized backend, at theta = 0, d = 1."""

    dim = 1

    def __init__(self, half_width: float = 64.0, n: int = 4096):
        self.half_width = half_width
        self.n = n
        self._fgrid: Optional[SymbolGrid] = None
        self._paley: Optional[tuple[SymbolGrid, float]] = None

    # -- elements: payload is the position function F = lambda_0(f)

    def element_from_symbol(self, f: SymbolGrid, spec: Optional[dict] = None) -> RandomElement:
        if f.dim != 1:
            raise GridMismatchError("classical backend works on one-dimensional symbols")
        position = classical_fourier(f, +1)
        return RandomElement(symbol=f, payload=position, spec=spec or {})

    def sample_element(self, seed: int) -> RandomElement:
        rng = np.random.default_rng(seed)
        L, n = self.half_width, self.n
        ax = symbols.axis_nodes(L, n)
        for attempt in range(50):
            k = int(rng.integers(1, 4))
            comps = []
            vals = np.zeros(n, dtype=complex)
            for _ in range(k):
                c = rng.uniform(-L / 4, L / 4)
                w = rng.uniform(0.5, 2.0)
                amp = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
                comps.append({"center": c, "width": w, "amp": [amp.real, amp.imag]})
                vals = vals + amp * np.exp(-((ax - c) ** 2) / (2 * w * w))
            f = SymbolGrid(1, L, n, vals)
            if f.boundary_decay() < 1e-10:
                spec = {"family": "gaussian_mixture", "seed": seed, "attempt": attempt, "components": comps}
                return self.element_from_symbol(f, spec)
        raise RuntimeError("could not draw an element passing the boundary gate")

    def heat_probe(self) -> RandomElement:
        # position width 2, i.e. transform-side rate a = 2
        f = symbols.sample_symbol("gaussian", {"a": 2.0}, self.half_width, self.n, dim=1)
        return self.element_from_symbol(f, {"family": "heat_probe"})

    # -- analysis

    def fourier(self, el: RandomElement) -> SymbolGrid:
        if el._fourier is None:
            fhat = classical_fourier(el.payload, -1)
            el._fourier = fhat.with_samples(fhat.samples / TWO_PI)
        return el._fourier

    def profile(self, el: RandomElement) -> SingularValueProfile:
        if el._profile is None:
            F = el.payload
            el._profile = SingularValueProfile(rearrangement(F), F.cell_volume / TWO_PI)
        return el._profile

    def norm(self, el: RandomElement, p: float) -> float:
        return schatten_norm(self.profile(el), p)

    def pair_trace(self, x: RandomElement, y: RandomElement) -> complex:
        F, G = x.payload, y.payload
        if not F.same_grid(G):
            raise GridMismatchError("elements live on different grids")
        return complex(np.sum(F.samples * np.conj(G.samples)) * F.cell_volume / TWO_PI)

    def apply(self, g: MultiplierSymbol, el: RandomElement) -> RandomElement:
        return self.element_from_symbol(apply_multiplier(g, self.fourier(el)), el.spec)

    def fourier_grid(self) -> SymbolGrid:
        if self._fgrid is None:
            self._fgrid = SymbolGrid(1, self.half_width, self.n, np.zeros(self.n))
        return self._fgrid

    def paley_weight(self) -> tuple[SymbolGrid, float]:
        if self._paley is None:
            ax = symbols.axis_nodes(self.half_width, self.n)
            grid = SymbolGrid(1, self.half_width, self.n, 1.0 / (1.0 + np.abs(ax)) + 0j)
            self._paley = (grid, symbols.paley_weight_constant(grid))
        return self._paley

    def describe(self) -> dict:
        return {"backend": "classical", "half_width": self.half_width, "n": self.n}
