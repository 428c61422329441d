"""Randomized verification of the inequality catalogue.

Eighteen registered statements (R1..R18) relate weighted-trace norms of a
quantized element, classical norms of its Fourier transform, multiplier
actions, and superlevel-set functionals.  Each suite draws random
Schwartz-class elements, evaluates the two sides, and records ratios; for
statements whose sharp constant is unknown the suite reports the fitted
(max observed) constant and checks cross-batch stability rather than a
prescribed value.

The verifier logic is backend-agnostic: the same registry runs against the
Fock-truncated backend here and against the one-dimensional commutative
backend in :mod:`qeuclid.oracle`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import calculus, spectra, symbols
from .calculus import MultiplierSymbol, heat_symbol
from .errors import BoundaryDecayError, FactorizationError
from .spectra import SingularValueProfile
from .symbols import SymbolGrid, lebesgue_norm, lorentz_norm
from .weyl import DeformationMatrix, dequantize, quantize

__all__ = [
    "MoyalBackend",
    "RandomElement",
    "TheoremCase",
    "RatioSummary",
    "REGISTRY",
    "registry_ids",
    "default_params",
    "run_case",
    "run_suite",
    "estimate_norm_ratio",
    "fit_decay_slope",
    "sobolev_scale_sweep",
    "derive_seed",
    "conjugate_exponent",
]


def conjugate_exponent(p: float) -> float:
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def derive_seed(master_seed: int, *parts) -> int:
    text = ":".join([str(master_seed)] + [str(p) for p in parts])
    return int(hashlib.sha256(text.encode()).hexdigest()[:16], 16)


# ---------------------------------------------------------------------------
# Elements and backends
# ---------------------------------------------------------------------------


@dataclass
class RandomElement:
    """A Schwartz-class element together with its generating symbol.

    ``symbol`` is f with x = quantize(f) (so f equals the transform of x up
    to quadrature error); backends attach their own payload and caches.
    """

    symbol: SymbolGrid
    payload: object
    spec: dict
    _fourier: Optional[SymbolGrid] = None
    _profile: Optional[SingularValueProfile] = None


class MoyalBackend:
    """Verification backend on the quantized plane (dim 2)."""

    dim = 2

    def __init__(self, h: float = 1.0, fock_dim: int = 64, half_width: float = 8.0, n: int = 64):
        self.theta = DeformationMatrix.canonical(h)
        self.fock_dim = fock_dim
        self.half_width = half_width
        self.n = n
        self._paley: Optional[tuple[SymbolGrid, float]] = None
        self._fgrid: Optional[SymbolGrid] = None

    # -- elements

    def element_from_symbol(self, f: SymbolGrid, spec: Optional[dict] = None) -> RandomElement:
        op = quantize(f, self.theta, self.fock_dim)
        return RandomElement(symbol=f, payload=op, spec=spec or {})

    def sample_element(self, seed: int) -> RandomElement:
        """Random finite Gaussian mixture, redrawn until the boundary gate passes.

        Component law: 1..3 Gaussians, centers in the disc |c| <= L/4, widths
        uniform in [0.55, 2], complex amplitudes with modulus in [0.3, 1].
        Components narrower than 0.55 put quadrature-alias residue above the
        1e-8 transform gate at the default window (N=64, n=64), so the width
        floor sits just above 1/2; widths incompatible with the 1e-10
        boundary gate are rejected by redrawing the whole mixture,
        deterministically in the seed.
        """
        rng = np.random.default_rng(seed)
        L, n = self.half_width, self.n
        ax = symbols.axis_nodes(L, n)
        mesh = np.meshgrid(ax, ax, indexing="ij")
        for attempt in range(500):
            k = int(rng.integers(1, 4))
            comps = []
            vals = np.zeros((n, n), dtype=complex)
            for _ in range(k):
                while True:
                    c = rng.uniform(-L / 4, L / 4, size=2)
                    if np.hypot(c[0], c[1]) <= L / 4:
                        break
                w = rng.uniform(0.55, 2.0)
                amp = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
                comps.append({"center": c.tolist(), "width": w, "amp": [amp.real, amp.imag]})
                vals = vals + amp * np.exp(
                    -((mesh[0] - c[0]) ** 2 + (mesh[1] - c[1]) ** 2) / (2 * w * w)
                )
            f = SymbolGrid(2, L, n, vals)
            if f.boundary_decay() < 1e-10:
                spec = {"family": "gaussian_mixture", "seed": seed, "attempt": attempt, "components": comps}
                return self.element_from_symbol(f, spec)
        raise RuntimeError("could not draw an element passing the boundary gate")

    def heat_probe(self) -> RandomElement:
        """Fixed wide probe for decay-slope fits: transform exp(-|xi|^2)."""
        f = symbols.sample_symbol("gaussian", {"a": 1.0}, self.half_width, self.n, dim=2)
        return self.element_from_symbol(f, {"family": "heat_probe"})

    # -- analysis

    def fourier(self, el: RandomElement) -> SymbolGrid:
        if el._fourier is None:
            el._fourier = dequantize(el.payload, self.half_width, self.n)
        return el._fourier

    def profile(self, el: RandomElement) -> SingularValueProfile:
        if el._profile is None:
            el._profile = spectra.singular_profile(el.payload)
        return el._profile

    def norm(self, el: RandomElement, p: float) -> float:
        return spectra.schatten_norm(self.profile(el), p)

    def pair_trace(self, x: RandomElement, y: RandomElement) -> complex:
        return calculus.pair_trace(x.payload, y.payload)

    def apply(self, g: MultiplierSymbol, el: RandomElement) -> RandomElement:
        gx, out = calculus.multiply_transform(g, self.fourier(el), el.payload)
        return RandomElement(symbol=gx, payload=out, spec=el.spec)

    def heat(self, el: RandomElement, t: float) -> RandomElement:
        return self.apply(heat_symbol(t, self.dim), el)

    def sobolev_norm(self, el: RandomElement, p: float, s: float) -> float:
        return calculus.sobolev_norm(el.payload, p, s, self.half_width, self.n)

    def wm_norm(self, el: RandomElement, p: float, m: int) -> float:
        return calculus.wm_norm(el.payload, p, m, self.half_width, self.n)

    def fourier_grid(self) -> SymbolGrid:
        if self._fgrid is None:
            n = self.n
            self._fgrid = SymbolGrid(2, self.half_width, n, np.zeros((n, n)))
        return self._fgrid

    def paley_weight(self) -> tuple[SymbolGrid, float]:
        """Strictly positive weight (1+|s|^2)^-1 and its level functional M_h."""
        if self._paley is None:
            grid = symbols.sample_symbol(
                "bessel", {"sigma": 2.0}, self.half_width, self.n, dim=2
            )
            self._paley = (grid, symbols.paley_weight_constant(grid))
        return self._paley

    def describe(self) -> dict:
        return {
            "backend": "moyal",
            "h": self.theta.h,
            "fock_dim": self.fock_dim,
            "half_width": self.half_width,
            "n": self.n,
        }


# ---------------------------------------------------------------------------
# Cases and summaries
# ---------------------------------------------------------------------------


@dataclass
class TheoremCase:
    theorem: str
    params: dict
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    seed: int
    element_spec: dict = field(default_factory=dict)
    reason: str = ""


@dataclass
class RatioSummary:
    theorem: str
    trials: int
    max_ratio: float
    median_ratio: float
    fitted_constant: float
    failures: int
    batch_constants: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremEntry:
    tid: str
    title: str
    mode: str  # equality | one | empirical | slope
    tol: float
    n_elements: int
    params_fn: Callable[[object], list[dict]]
    compute_fn: Callable[[object, dict, Sequence[RandomElement]], tuple[float, float]]
    admissible_fn: Optional[Callable[[object, dict], None]] = None


def _grid_integral(f: SymbolGrid, g: SymbolGrid) -> complex:
    return complex(np.sum(f.samples * np.conj(g.samples)) * f.cell_volume)


def _weighted_lp(fhat: SymbolGrid, weight: np.ndarray, p: float) -> float:
    return float((np.sum(np.abs(fhat.samples) ** p * weight) * fhat.cell_volume) ** (1 / p))


# R1 ------------------------------------------------------------------------

def _r1(backend, params, els):
    """Pairing defect relative to the Cauchy-Schwarz scale.

    Random pairs can be nearly orthogonal, making the raw two-sided ratio a
    quotient of numerical zeros; instead the defect |tau(x y*) - int| is
    offset by the scale ||x||_2 ||y||_2, so ratio - 1 is the scale-relative
    disagreement and equality still reads as ratio = 1.
    """
    x, y = els
    defect = abs(backend.pair_trace(x, y) - _grid_integral(backend.fourier(x), backend.fourier(y)))
    scale = backend.norm(x, 2.0) * backend.norm(y, 2.0)
    return defect + scale, scale


# R2/R3/R4 -------------------------------------------------------------------

def _r2(backend, params, els):
    (x,) = els
    p = params["p"]
    return lebesgue_norm(backend.fourier(x), conjugate_exponent(p)), backend.norm(x, p)


def _r3(backend, params, els):
    (x,) = els
    p = params["p"]
    return backend.norm(x, conjugate_exponent(p)), lebesgue_norm(x.symbol, p)


def _r4(backend, params, els):
    (x,) = els
    p = params["p"]
    return backend.norm(x, p), lebesgue_norm(backend.fourier(x), conjugate_exponent(p))


# R5/R6/R7/R8 ----------------------------------------------------------------

def _r5(backend, params, els):
    (x,) = els
    p = params["p"]
    hgrid, mh = backend.paley_weight()
    lhs = _weighted_lp(backend.fourier(x), hgrid.samples.real ** (2 - p), p)
    rhs = mh ** ((2 - p) / p) * backend.norm(x, p)
    return lhs, rhs


def _r6(backend, params, els):
    (x,) = els
    p, beta = params["p"], params["beta"]
    phi = 1.0 + symbols._radius_sq(symbols.grid_meshes(backend.fourier_grid()))
    lhs = _weighted_lp(backend.fourier(x), phi ** (beta * (p - 2)), p)
    return lhs, backend.norm(x, p)


def _r7(backend, params, els):
    (x,) = els
    p, beta = params["p"], params["beta"]
    pp = conjugate_exponent(p)
    phi = 1.0 + symbols._radius_sq(symbols.grid_meshes(backend.fourier_grid()))
    # p-th roots of both sides keep the ratio scale-invariant
    rhs = _weighted_lp(backend.fourier(x), phi ** (beta * p * (2 - pp) / pp), p)
    return backend.norm(x, p), rhs


def _r8(backend, params, els):
    (x,) = els
    p, r = params["p"], params["r"]
    pp = conjugate_exponent(p)
    hgrid, mh = backend.paley_weight()
    expo = r * (1.0 / r - 1.0 / pp)
    lhs = _weighted_lp(backend.fourier(x), hgrid.samples.real**expo, r)
    rhs = mh ** (1.0 / r - 1.0 / pp) * backend.norm(x, p)
    return lhs, rhs


def _r8_admissible(backend, params):
    p, r = params["p"], params["r"]
    pp = conjugate_exponent(p)
    if not (1 < p <= r <= pp < math.inf):
        raise ValueError(f"need 1 < p <= r <= p' < inf, got p={p}, r={r}")


# R9/R10 ----------------------------------------------------------------------

def _heat_mult(backend, params) -> MultiplierSymbol:
    return heat_symbol(params.get("t0", 1.0), backend.dim)


def _r9(backend, params, els):
    (x,) = els
    p, q = params["p"], params["q"]
    g = _heat_mult(backend, params)
    lhs = backend.norm(backend.apply(g, x), q)
    gx = calculus.evaluate_multiplier(g, backend.fourier_grid())
    rhs = symbols.hormander_constant(gx, p, q) * backend.norm(x, p)
    return lhs, rhs


def _pq_admissible(backend, params):
    p, q = params["p"], params["q"]
    if not (1 < p <= 2 <= q < math.inf):
        raise ValueError(f"need 1 < p <= 2 <= q < inf, got p={p}, q={q}")


def _r10(backend, params, els):
    p, q = params["p"], params["q"]
    probe = backend.heat_probe()
    base = backend.norm(probe, p)
    ts = np.geomspace(params.get("tmin", 0.5), params.get("tmax", 20.0), int(params.get("npts", 10)))
    samples = [(t, backend.norm(backend.heat(probe, t), q) / base) for t in ts]
    slope = fit_decay_slope(samples)
    gamma = (backend.dim / 2.0) * (1.0 / p - 1.0 / q)
    return slope, -gamma


# R11/R12/R13 ------------------------------------------------------------------

def _r11(backend, params, els):
    (x,) = els
    p = params["p"]
    pp = conjugate_exponent(p)
    return backend.norm(x, pp), lorentz_norm(x.symbol, p, pp)


def _r12(backend, params, els):
    (x,) = els
    p = params["p"]
    pp = conjugate_exponent(p)
    return lorentz_norm(backend.fourier(x), pp, p), backend.norm(x, p)


def _r13(backend, params, els):
    (x,) = els
    p, q = params["p"], params["q"]
    r = 1.0 / (1.0 / p - 1.0 / q)
    g = _heat_mult(backend, params)
    lhs = backend.norm(backend.apply(g, x), q)
    gx = calculus.evaluate_multiplier(g, backend.fourier_grid())
    rhs = lorentz_norm(gx, r, math.inf) * backend.norm(x, p)
    return lhs, rhs


# R14 --------------------------------------------------------------------------

def _r14(backend, params, els):
    (x,) = els
    p, q, s = params["p"], params["q"], params["s"]
    return backend.norm(x, q), backend.sobolev_norm(x, p, s)


def _r14_admissible(backend, params):
    _pq_admissible(backend, params)
    p, q, s = params["p"], params["q"], params["s"]
    if p == q:
        raise ValueError("need p != q")
    if s < backend.dim * (1.0 / p - 1.0 / q):
        raise ValueError(f"s={s} below the embedding threshold")


# R15/R16 ----------------------------------------------------------------------

def _r15(backend, params, els):
    (x,) = els
    p, r, q = params["p"], params["r"], params["q"]
    eta = (1.0 / r - 1.0 / q) / (1.0 / p - 1.0 / q)
    lhs = backend.norm(x, r)
    rhs = backend.norm(x, p) ** eta * backend.norm(x, q) ** (1 - eta)
    return lhs, rhs


def _r16(backend, params, els):
    (x,) = els
    p, q = params["p"], params["q"]
    prof = backend.profile(x)
    ent = spectra.entropy_term(prof, p)
    np_, nq = backend.norm(x, p), backend.norm(x, q)
    # both sides exponentiated: the raw right side q/(q-p) log(...) may be
    # negative, which would flip the ratio ordering
    lhs = math.exp(ent)
    rhs = (nq / np_) ** (p * q / (q - p))
    return lhs, rhs


# R17/R18 ----------------------------------------------------------------------

def _r17(backend, params, els):
    (x,) = els
    p, s = params["p"], params["s"]
    d = backend.dim
    ent = spectra.entropy_term(backend.profile(x), p)
    ratio_norms = (backend.sobolev_norm(x, p, s) / backend.norm(x, p)) ** p
    # exp((sp/d) * entropy) <= C * ||x||_{L^p_s}^p / ||x||_p^p ; the ratio is
    # the per-trial implied constant
    return math.exp(s * p / d * ent), ratio_norms


def _r17_admissible(backend, params):
    p, s = params["p"], params["s"]
    d = backend.dim
    if not (1 < p < 2):
        raise ValueError(f"need 1 < p < 2, got {p}")
    if not (d * (2 - p) / (2 * p) <= s < d / p):
        raise ValueError(f"s={s} outside [{d*(2-p)/(2*p)}, {d/p})")


def _r18(backend, params, els):
    (x,) = els
    d = backend.dim
    lhs = backend.norm(x, 2.0) ** (1.0 + 2.0 / d)
    rhs = backend.wm_norm(x, 2.0, 1) * backend.norm(x, 1.0) ** (2.0 / d)
    return lhs, rhs


# ---------------------------------------------------------------------------


def _p_grid(*values):
    return lambda backend: [{"p": v} for v in values]


def _thr(backend, p, q):
    return backend.dim * (1.0 / p - 1.0 / q)


REGISTRY: dict[str, TheoremEntry] = {
    "R1": TheoremEntry("R1", "transform pairing identity", "equality", 1e-4, 2, lambda b: [{}], _r1),
    "R2": TheoremEntry("R2", "transform p' bound", "one", 1e-3, 1, _p_grid(1.0, 4.0 / 3.0, 2.0), _r2),
    "R3": TheoremEntry("R3", "quantization p' bound", "one", 1e-3, 1, _p_grid(1.0, 4.0 / 3.0, 2.0), _r3),
    "R4": TheoremEntry("R4", "reverse transform bound", "one", 1e-3, 1, _p_grid(2.0, 3.0, 4.0), _r4),
    "R5": TheoremEntry("R5", "weighted transform bound", "empirical", 1e-6, 1, _p_grid(4.0 / 3.0, 1.5, 2.0), _r5),
    "R6": TheoremEntry(
        "R6", "polynomial-weight transform bound", "empirical", 1e-6, 1,
        lambda b: [{"p": p, "beta": bta} for p in (4.0 / 3.0, 2.0) for bta in (1.1 * b.dim / 2.0, 2.0 * b.dim)],
        _r6,
    ),
    "R7": TheoremEntry(
        "R7", "inverse polynomial-weight bound", "empirical", 1e-6, 1,
        lambda b: [{"p": p, "beta": bta} for p in (2.0, 3.0) for bta in (1.1 * b.dim / 2.0, 2.0 * b.dim)],
        _r7,
    ),
    "R8": TheoremEntry(
        "R8", "interpolated weighted bound", "empirical", 1e-6, 1,
        lambda b: [{"p": p, "r": r} for p in (4.0 / 3.0, 1.5) for r in (p, 2.0, conjugate_exponent(p))],
        _r8,
        _r8_admissible,
    ),
    "R9": TheoremEntry(
        "R9", "multiplier norm bound", "empirical", 1e-6, 1,
        lambda b: [{"p": 4.0 / 3.0, "q": 4.0, "t0": 1.0}, {"p": 2.0, "q": 4.0, "t0": 1.0}],
        _r9,
        _pq_admissible,
    ),
    "R10": TheoremEntry(
        "R10", "heat decay slope", "slope", 0.0, 0,
        lambda b: [{"p": 4.0 / 3.0, "q": 4.0, "tmin": 0.5, "tmax": 20.0, "npts": 10}],
        _r10,
        _pq_admissible,
    ),
    "R11": TheoremEntry("R11", "Lorentz quantization bound", "empirical", 1e-6, 1, _p_grid(4.0 / 3.0, 2.0), _r11),
    "R12": TheoremEntry("R12", "Lorentz transform bound", "one", 1e-3, 1, _p_grid(4.0 / 3.0, 2.0), _r12),
    "R13": TheoremEntry(
        "R13", "weak-norm multiplier bound", "empirical", 1e-6, 1,
        lambda b: [{"p": 4.0 / 3.0, "q": 4.0, "t0": 1.0}],
        _r13,
        _pq_admissible,
    ),
    "R14": TheoremEntry(
        "R14", "fractional embedding", "empirical", 1e-6, 1,
        lambda b: [
            {"p": 4.0 / 3.0, "q": 4.0, "s": _thr(b, 4.0 / 3.0, 4.0)},
            {"p": 4.0 / 3.0, "q": 4.0, "s": 1.5 * _thr(b, 4.0 / 3.0, 4.0)},
            {"p": 2.0, "q": 4.0, "s": _thr(b, 2.0, 4.0)},
        ],
        _r14,
        _r14_admissible,
    ),
    "R15": TheoremEntry(
        "R15", "norm interpolation", "one", 1e-3, 1,
        lambda b: [{"p": 1.0, "r": 4.0 / 3.0, "q": 2.0}, {"p": 4.0 / 3.0, "r": 2.0, "q": 4.0}, {"p": 2.0, "r": 3.0, "q": 6.0}],
        _r15,
    ),
    "R16": TheoremEntry(
        "R16", "entropy bound", "one", 1e-3, 1,
        lambda b: [{"p": 1.0, "q": 2.0}, {"p": 4.0 / 3.0, "q": 3.0}, {"p": 2.0, "q": 4.0}],
        _r16,
    ),
    "R17": TheoremEntry(
        "R17", "entropy-smoothness bound", "empirical", 1e-6, 1,
        lambda b: [{"p": 1.5, "s": s} for s in (b.dim / 6.0, 0.75 * b.dim / 1.5, 0.97 * b.dim / 1.5)],
        _r17,
        _r17_admissible,
    ),
    "R18": TheoremEntry("R18", "gradient-trade bound", "empirical", 1e-6, 1, lambda b: [{}], _r18),
}


def registry_ids() -> list[str]:
    return sorted(REGISTRY, key=lambda t: int(t[1:]))


def default_params(tid: str, backend) -> list[dict]:
    return REGISTRY[tid].params_fn(backend)


# ---------------------------------------------------------------------------
# Running cases and suites
# ---------------------------------------------------------------------------

_TRIAL_ERRORS = (ValueError, BoundaryDecayError, FactorizationError, FloatingPointError, ZeroDivisionError)


def run_case(backend, tid: str, params: dict, seed: int) -> TheoremCase:
    """One trial: draw element(s), evaluate both sides, compute the ratio.

    The pass flag of empirical-mode cases is provisional (finite ratio);
    :func:`run_suite` re-evaluates it against the fitted constant.
    """
    entry = REGISTRY[tid]
    if entry.admissible_fn is not None:
        entry.admissible_fn(backend, params)
    # the trial seed already mixes in the theorem id (run_suite and cmd_verify
    # derive it as derive_seed(master, tid, i)), so no element is shared
    # across suites
    els = [backend.sample_element(derive_seed(seed, "element", j)) for j in range(entry.n_elements)]
    spec = els[0].spec if els else {}
    try:
        lhs, rhs = entry.compute_fn(backend, params, els)
    except _TRIAL_ERRORS as exc:
        return TheoremCase(tid, params, math.nan, math.nan, math.nan, False, seed, spec, reason=type(exc).__name__)
    if entry.mode == "slope":
        gamma = -rhs
        tol = 0.1 if backend.dim == 2 else 0.05
        passed = bool(lhs >= -gamma - tol)
        ratio = lhs / rhs if rhs != 0 else math.nan
        return TheoremCase(tid, params, lhs, rhs, ratio, passed, seed, spec)
    if rhs > 0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0 else math.inf
    if not math.isfinite(ratio):
        return TheoremCase(tid, params, lhs, rhs, ratio, False, seed, spec, reason="nonfinite ratio")
    if entry.mode in ("equality", "one"):
        passed = bool(ratio <= 1.0 + entry.tol)
    else:
        passed = True
    return TheoremCase(tid, params, lhs, rhs, ratio, passed, seed, spec)


def run_suite(
    backend,
    tid: str,
    n_trials: int,
    master_seed: int,
    params_grid: Optional[list] = None,
) -> tuple[list[TheoremCase], RatioSummary]:
    """Run ``n_trials`` cases cycling over the parameter grid and summarize.

    Per-trial seeds derive from (master_seed, tid, index); results do not
    depend on execution order.  The fitted constant is the max finite ratio;
    batch constants split the trials in half for stability checks.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    entry = REGISTRY[tid]
    grid = params_grid if params_grid is not None else entry.params_fn(backend)
    if not grid:
        raise ValueError(f"empty parameter grid for {tid}")
    cases = [
        run_case(backend, tid, grid[i % len(grid)], derive_seed(master_seed, tid, i))
        for i in range(n_trials)
    ]
    return cases, summarize_cases(backend, tid, cases)


def summarize_cases(backend, tid: str, cases: Sequence[TheoremCase]) -> RatioSummary:
    entry = REGISTRY[tid]
    ratios = np.array([c.ratio for c in cases], dtype=float)
    finite = ratios[np.isfinite(ratios)]
    fitted = float(finite.max()) if finite.size else math.nan
    if entry.mode == "empirical":
        for c in cases:
            if c.reason == "" and math.isfinite(c.ratio):
                c.passed = bool(c.ratio <= fitted * (1.0 + entry.tol))
    failures = sum(1 for c in cases if not c.passed)
    half = len(cases) // 2
    batches = []
    for part in (cases[:half], cases[half:]):
        pr = np.array([c.ratio for c in part], dtype=float)
        pr = pr[np.isfinite(pr)]
        batches.append(float(pr.max()) if pr.size else math.nan)
    return RatioSummary(
        theorem=tid,
        trials=len(cases),
        max_ratio=fitted,
        median_ratio=float(np.median(finite)) if finite.size else math.nan,
        fitted_constant=fitted,
        failures=failures,
        batch_constants=batches,
        extras={"mode": entry.mode, "tol": entry.tol, "backend": backend.describe()},
    )


# ---------------------------------------------------------------------------
# Norm-ratio search and slope fits
# ---------------------------------------------------------------------------


def estimate_norm_ratio(backend, g: MultiplierSymbol, p: float, q: float, n_trials: int, seed: int) -> float:
    """Max of ||g(D)x||_q / ||x||_p over sampled elements.

    This is a certified lower bound on the p->q multiplier norm, never the
    norm itself: random search has no optimality certificate here.
    """
    if not (1 < p <= 2 <= q < math.inf):
        raise ValueError(f"need 1 < p <= 2 <= q < inf, got p={p}, q={q}")
    best = 0.0
    for i in range(n_trials):
        x = backend.sample_element(derive_seed(seed, "norm_ratio", i))
        best = max(best, backend.norm(backend.apply(g, x), q) / backend.norm(x, p))
    return best


def fit_decay_slope(samples: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(value) against log(t)."""
    if len(samples) < 5:
        raise ValueError("need at least 5 samples")
    ts = np.array([s[0] for s in samples], dtype=float)
    vs = np.array([s[1] for s in samples], dtype=float)
    if np.any(vs <= 0) or np.any(ts <= 0):
        raise ValueError("samples must be positive")
    if ts.max() / ts.min() < 10**1.5:
        raise ValueError("t range must span at least 1.5 decades")
    return float(np.polyfit(np.log(ts), np.log(vs), 1)[0])


def sobolev_scale_sweep(
    backend, p: float, q: float, s: float, scales: Sequence[float], base_width: float = 0.5
) -> list[float]:
    """Embedding ratio ||x_R||_q / ||x_R||_{L^p_s} over dilated probes.

    The probe transform is exp(-|xi|^2 / (2 (base_width * R)^2)); growing R
    pushes spectral mass to higher frequencies.
    """
    out = []
    for R in scales:
        a = 1.0 / (2.0 * (base_width * R) ** 2)
        f = symbols.sample_symbol("gaussian", {"a": a}, backend.half_width, backend.n, dim=backend.dim)
        el = backend.element_from_symbol(f, {"family": "scale_probe", "R": R})
        out.append(backend.norm(el, q) / backend.sobolev_norm(el, p, s))
    return out
