"""Numerical calculus on the two-dimensional quantum plane.

Quantize sampled symbols into truncated Fock-basis operators, take traces
and singular-value norms, act with Fourier multipliers, and stress-test
the norm inequalities that tie the two sides together.
"""

import os

# Pin BLAS to one thread before any submodule loads numpy: verify forks its
# workers after BLAS work, and reports must not depend on the thread layout.
# Variables the caller has already set are left alone.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ.setdefault(_var, "1")

from .errors import BoundaryDecayError, DomainError, FactorizationError, GridMismatchError
from .symbols import (
    GaussianMixture,
    SymbolGrid,
    classical_fourier,
    hormander_constant,
    lebesgue_norm,
    lorentz_norm,
    paley_weight_constant,
    rearrangement,
    sample_symbol,
)
from .weyl import (
    DeformationMatrix,
    QuantizedOperator,
    dequantize,
    displacement_matrix,
    quantize,
    trace_tau,
    weyl_defect,
)
from .spectra import SingularValueProfile, schatten_norm, singular_profile
from .calculus import MultiplierSymbol, apply_multiplier
from .harness import (
    MoyalBackend,
    RatioSummary,
    TheoremCase,
    estimate_norm_ratio,
    fit_decay_slope,
    run_case,
)
from .oracle import ClassicalBackend

__version__ = "0.1.0"
