"""Commutative backend: functions as multiplication operators.

With no deformation the algebra element is a bounded pointwise multiplier by
a position function F, the trace is (2 pi)^-d times the Lebesgue integral
(the normalization forced by tau(quantize(f)) = f(0)), and the transform of
the element is the plain Fourier transform.  Like
:class:`qeuclid.harness.MoyalBackend` it subclasses
:class:`qeuclid.harness.Backend`, which owns the draw, the caches and the
multiplier pass; this module supplies only its own maps (symbol to position
function, position function to transform, the Schatten norms, the
rearrangement profile and the trace pairing).  The singular-value function
of F is the decreasing rearrangement of |F|, but a Schatten norm is a
symmetric function of the singular values, so the norms read |F| in grid
order and sort nothing; the sorted profile serves the entropy terms.  Every
registry suite runs on it unchanged and cross-validates the verifier
formulas with fast-transform numerics that carry no truncation artifacts.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridMismatchError
from .harness import Backend, RandomElement
from .spectra import SingularValueProfile, power_sum_norm
from .symbols import classical_fourier, rearrangement

__all__ = ["ClassicalBackend"]


class ClassicalBackend(Backend):
    """The verification backend at theta = 0: the payload is the position function F."""

    dim = 1
    width_floor = 0.5
    heat_rate = 2.0  # position width 2

    @property
    def trace_scale(self) -> float:
        """tau(F) = (2 pi)^-d int F."""
        return (2.0 * math.pi) ** self.dim

    def _payload(self, f, boundary_gate):
        # F = lambda_0(f); the plain Fourier transform needs no symbol gate
        if f.dim != self.dim:
            raise GridMismatchError(f"classical backend works on {self.dim}-dimensional symbols, got {f.dim}")
        return classical_fourier(f, +1)

    def _transform(self, payload):
        fhat = classical_fourier(payload, -1)
        return fhat.with_samples(fhat.samples / self.trace_scale)

    def _norm(self, el: RandomElement, p: float) -> float:
        """(dV / trace_scale sum_k |F_k|^p)^(1/p) over the samples in grid order, max |F| at p = inf."""
        F = el.payload
        return power_sum_norm(np.abs(F.samples), F.cell_volume / self.trace_scale, p)

    def _profile(self, payload):
        return SingularValueProfile(rearrangement(payload), payload.cell_volume / self.trace_scale)

    def pair_trace(self, x: RandomElement, y: RandomElement) -> complex:
        F, G = x.payload, y.payload
        if not F.same_grid(G):
            raise GridMismatchError("elements live on different grids")
        return complex(np.sum(F.samples * np.conj(G.samples)) * F.cell_volume / self.trace_scale)
