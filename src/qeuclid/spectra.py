"""Singular-value profiles, the weighted-trace Schatten norms and entropy terms.

The trace here is atomic, c * Tr with c the quantization's trace weight, so
the singular value function mu(t, x) is the step function sigma_{floor(t/c)}
and every norm integral is a finite sum evaluated in closed form.  The
Lorentz norms of a profile are symbols.lorentz_step_norm(sigmas, weight, p, q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FactorizationError
from .weyl import QuantizedOperator

__all__ = [
    "SingularValueProfile",
    "singular_profile",
    "schatten_norm",
    "entropy_term",
]

#: singular values below RANK_TOL * sigma_max are snapped to exact zero
RANK_TOL = 1e-12


@dataclass(frozen=True)
class SingularValueProfile:
    """Descending singular values with a uniform trace weight per level."""

    sigmas: np.ndarray
    weight: float

    def __post_init__(self):
        s = np.asarray(self.sigmas, dtype=float)
        if s.ndim != 1:
            raise ValueError("sigmas must be one-dimensional")
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            raise ValueError("sigmas must be non-negative and non-increasing")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        object.__setattr__(self, "sigmas", s)


def singular_profile(x: QuantizedOperator) -> SingularValueProfile:
    """Singular values of the matrix, descending, with weight c."""
    try:
        sv = np.linalg.svd(x.matrix, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD failed: {exc}") from exc
    if sv.size and sv[0] > 0:
        sv = np.where(sv < RANK_TOL * sv[0], 0.0, sv)
    return SingularValueProfile(sv, x.trace_weight)


def schatten_norm(profile: SingularValueProfile, p: float) -> float:
    if np.isinf(p):
        return float(profile.sigmas[0]) if profile.sigmas.size else 0.0
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float((profile.weight * np.sum(profile.sigmas**p)) ** (1.0 / p))


def entropy_term(profile: SingularValueProfile, p: float) -> float:
    """tau(u log u) for u = |x|^p / tau(|x|^p), with 0 log 0 = 0."""
    sig = profile.sigmas
    mass = profile.weight * np.sum(sig**p)
    if mass <= 0:
        raise DomainError("zero operator has no normalized entropy")
    u = sig**p / mass
    pos = u > 0
    return float(profile.weight * np.sum(u[pos] * np.log(u[pos])))
