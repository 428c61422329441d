"""Numerical calculus on the two-dimensional quantum plane.

Quantize sampled symbols into truncated Fock-basis operators, take traces
and singular-value norms, act with Fourier multipliers, and stress-test
the norm inequalities that tie the two sides together.
"""

from .errors import BoundaryDecayError, FactorizationError, GridMismatchError
from .symbols import (
    SymbolGrid,
    classical_fourier,
    hormander_constant,
    lebesgue_norm,
    lorentz_norm,
    paley_weight_constant,
    rearrangement,
    sample_symbol,
    superlevel_measure,
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
from .spectra import (
    SingularValueProfile,
    distribution_function,
    nc_lorentz_norm,
    schatten_norm,
    singular_profile,
    spectral_trace,
)
from .calculus import (
    MultiplierSymbol,
    apply_multiplier,
    bessel_potential,
    heat_flow,
    partial_derivative,
    sobolev_norm,
    translate,
    wm_norm,
)
from .harness import (
    MoyalBackend,
    RatioSummary,
    TheoremCase,
    estimate_norm_ratio,
    fit_decay_slope,
    run_case,
    run_suite,
)
from .oracle import ClassicalBackend

__version__ = "0.1.0"
