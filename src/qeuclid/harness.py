"""Randomized verification of the inequality catalogue.

Seventeen registered statements (R1..R18, with R13 unassigned) relate
weighted-trace norms of a quantized element, classical norms of its Fourier
transform, multiplier actions, and level-set constants.  Each suite draws random
Schwartz-class elements, evaluates the two sides, and records ratios; for
statements whose sharp constant is unknown the suite reports the fitted
(max observed) constant and checks cross-batch stability rather than a
prescribed value.  A trial's seed depends on the master seed and the trial
index alone, so trial i of every suite reads the same elements, drawn once
per index (:func:`run_index`).

The verifier logic is backend-agnostic: the same registry runs against the
Fock-truncated backend here and against the commutative backend in
:mod:`qeuclid.oracle`.  Both subclass :class:`Backend`, which owns
the element life cycle and the multiplier pass, so every multiplier the
suites use (heat flow, Bessel potential, derivation) is one ``backend.bind``.
On the classical backend that is :func:`qeuclid.calculus.apply_multiplier` on
the cached transform; :class:`MoyalBackend` applies these three families with
:func:`qeuclid.calculus.fock_pass` on the Fock matrix instead, and keeps the
grid pass for every other symbol.

A suite that reads one element declares ``sides_fn(backend, params)``: it
computes what depends only on the window and the parameters (constants,
weights, bound passes) once per row and backend, and returns the two sides as
readers of an element.  An element keeps its transform, its singular values and its norm at
each exponent.  A reader takes the backend as an argument, so nothing the
backend keeps refers back to it, and both end with the ``verify`` call.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import calculus, spectra, symbols, weyl
from .calculus import MultiplierSymbol, bessel_symbol, derivative_symbol, heat_symbol
from .errors import BoundaryDecayError, DomainError, FactorizationError, GridMismatchError
from .spectra import SingularValueProfile
from .symbols import SymbolGrid, lebesgue_norm, lorentz_norm
from .weyl import BOUNDARY_GATE, DeformationMatrix, dequantize, quantize

__all__ = [
    "Backend",
    "MoyalBackend",
    "RandomElement",
    "TheoremCase",
    "RatioSummary",
    "REGISTRY",
    "registry_ids",
    "run_case",
    "run_index",
    "trial_plan",
    "estimate_norm_ratio",
    "heat_decay_ratios",
    "fit_decay_slope",
    "sobolev_norm",
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
    to quadrature error), or None for the output of a Fock-basis pass, which
    has no grid symbol; backends attach their own payload and caches.
    """

    symbol: Optional[SymbolGrid]
    payload: object
    spec: dict
    _fourier: Optional[SymbolGrid] = None
    _profile: Optional[SingularValueProfile] = None
    _norms: dict = field(default_factory=dict)  # p -> the backend's norm


def _grid_pass(gs: SymbolGrid, backend: Backend, el: RandomElement) -> RandomElement:
    """g(D) x from g * x_hat, gs the samples of g; apply_multiplier gates x_hat, so the symbol gate is off."""
    gx = calculus.apply_multiplier(gs, backend.fourier(el))
    return RandomElement(symbol=gx, payload=backend._payload(gx, None), spec=el.spec)


class Backend:
    """The element life cycle both verification backends share.

    A subclass keeps only its own maps: ``_payload(f, boundary_gate)`` from a
    symbol to the algebra element, ``_transform(payload)`` back to the
    transform, ``_profile(payload)`` and ``pair_trace(x, y)`` = tau(x y^*).  It
    sets ``dim``, the draw's smallest component width ``width_floor`` and the
    heat probe's rate ``heat_rate``, and takes its window (``half_width``,
    ``n``) through this constructor, which refuses a window no grid can hold.
    """

    def __init__(self, half_width: float, n: int):
        if n < 1:
            raise ValueError(f"grid points per axis must be at least 1, got {n}")
        if not half_width > 0:
            raise ValueError(f"grid half-width must be positive, got {half_width}")
        self.half_width = half_width
        self.n = n
        self._rows: dict = {}  # (sides function, params as JSON) -> the row's two sides, see _read_sides

    # -- elements

    def element_from_symbol(self, f: SymbolGrid) -> RandomElement:
        return RandomElement(symbol=f, payload=self._payload(f, BOUNDARY_GATE), spec={})

    def sample_element(self, seed: int) -> RandomElement:
        """Random finite Gaussian mixture, redrawn until the boundary gate passes.

        Proposal law: 1..3 Gaussians, centers in the ball |c| <= L/4, widths
        uniform in [width_floor, 2], complex amplitudes with modulus in
        [0.3, 1].  Mixtures incompatible with the boundary gate are rejected
        by redrawing the whole mixture, deterministically in the seed, so the
        accepted law is the proposal truncated by the gate: on the Moyal
        window (L = 8) the gate accepts no width above ~1.16 for a centred
        component (~0.87 at |c| = 2), and most draws take several attempts;
        an attempt is evaluated on the grid's outer cell shell first, and on
        the whole grid only if the shell cannot already fail the gate.  The
        classical window (L = 64) rejects none.  ``spec`` holds the
        accepted components, which rebuild the samples as a GaussianMixture.
        """
        rng = np.random.default_rng(seed)
        L, d = self.half_width, self.dim
        for attempt in range(500):
            comps = []
            for _ in range(int(rng.integers(1, 4))):
                while True:
                    c = rng.uniform(-L / 4, L / 4, size=d)
                    # |c| as np.hypot rounds it: hypot(0, c1) = |c1|, then hypot(|c1|, c2)
                    if np.hypot.reduce(c, initial=0.0) <= L / 4:
                        break
                w = rng.uniform(self.width_floor, 2.0)
                amp = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
                comps.append((c.tolist(), w, amp))
            mixture = symbols.GaussianMixture(tuple(comps))
            # |f| <= sum |amp| everywhere, so a shell this high fails the full gate too
            shell = np.abs(mixture.value(self._shell_meshes)).max()
            if shell >= BOUNDARY_GATE * (1 + 1e-9) * sum(abs(a) for *_, a in comps):
                continue
            f = SymbolGrid(d, L, self.n, mixture.value(self._meshes))
            if f.boundary_decay() < BOUNDARY_GATE:
                components = [{"center": c, "width": w, "amp": [amp.real, amp.imag]} for c, w, amp in comps]
                spec = {"family": "gaussian_mixture", "seed": seed, "attempt": attempt, "components": components}
                return RandomElement(f, self._payload(f, BOUNDARY_GATE), spec)
        raise RuntimeError("could not draw an element passing the boundary gate")

    def heat_probe(self) -> RandomElement:
        """Fixed wide probe for decay-slope fits: its transform is the heat symbol exp(-heat_rate |xi|^2)."""
        return self.element_from_symbol(calculus.evaluate_multiplier(heat_symbol(self.heat_rate), self.fourier_grid()))

    # -- analysis

    def fourier(self, el: RandomElement) -> SymbolGrid:
        if el._fourier is None:
            el._fourier = self._transform(el.payload)
        return el._fourier

    def profile(self, el: RandomElement) -> SingularValueProfile:
        if el._profile is None:
            el._profile = self._profile(el.payload)
        return el._profile

    def norm(self, el: RandomElement, p: float) -> float:
        """The Schatten p-norm, computed once per (element, p)."""
        if p not in el._norms:
            el._norms[p] = self._norm(el, p)
        return el._norms[p]

    def _norm(self, el: RandomElement, p: float) -> float:
        return spectra.schatten_norm(self.profile(el), p)

    def apply(self, g: MultiplierSymbol, el: RandomElement) -> RandomElement:
        """g(D) x, with g bound for this one element."""
        return self.bind(g)(self, el)

    def bind(self, g: MultiplierSymbol) -> Callable[[Backend, RandomElement], RandomElement]:
        """The pass (backend, x) -> g(D) x: the grid pass, with g sampled once on the
        window's grid.  A classical transform's grid can miss the window's half-width by
        an ulp (L = 100); its nodes, and so g's samples, then differ in the last bit."""
        return functools.partial(_grid_pass, calculus.evaluate_multiplier(g, self.fourier_grid()))

    def build_tables(self) -> None:
        """Build the cached tables the trials read (none here); verify calls it
        before it forks its workers, so they inherit them."""

    def fourier_grid(self) -> SymbolGrid:
        return SymbolGrid(self.dim, self.half_width, self.n, np.zeros((self.n,) * self.dim))

    @functools.cached_property
    def _meshes(self) -> tuple[np.ndarray, ...]:
        return symbols.grid_meshes(self.fourier_grid())

    @functools.cached_property
    def _shell_meshes(self) -> tuple[np.ndarray, ...]:
        """The meshes on the grid's outermost cell shell, the cells ``boundary_decay`` reads."""
        shell = symbols._shell_mask(self.n, self.dim)
        return tuple(m[shell] for m in self._meshes)

    @functools.cached_property
    def paley_weight(self) -> tuple[SymbolGrid, float]:
        """Strictly positive weight (1+|s|^d)^-1 and its level functional M_h."""
        r2 = symbols._radius_sq(self._meshes)
        grid = self.fourier_grid().with_samples(1.0 / (1.0 + r2 ** (self.dim / 2)) + 0j)
        return grid, symbols.paley_weight_constant(grid)


class MoyalBackend(Backend):
    """Verification backend on the quantized plane (dim 2): the payload is quantize(f)."""

    dim = 2
    # Components narrower than 0.55 put quadrature-alias residue above the
    # 1e-8 transform gate at the default window (N=64, n=64), so the width
    # floor sits just above 1/2.
    width_floor = 0.55
    heat_rate = 1.0

    def __init__(self, h: float, fock_dim: int, half_width: float, n: int):
        if fock_dim < 2:
            raise ValueError(f"Fock dimension must be at least 2, got {fock_dim}")
        super().__init__(half_width, n)
        self.theta = DeformationMatrix.canonical(h)
        self.fock_dim = fock_dim

    def bind(self, g: MultiplierSymbol) -> Callable[[Backend, RandomElement], RandomElement]:
        """g's pass: the Fock-basis pass for the heat, Bessel and derivation families, which
        forms no transform and leaves no grid symbol; the grid pass for any other symbol."""
        if g.fock is None:
            return super().bind(g)
        return lambda backend, el: RandomElement(symbol=None, payload=calculus.fock_pass(g, el.payload), spec=el.spec)

    def build_tables(self) -> None:
        """The trace-weight check, the quantization tables of the window and the
        tables of the Fock-basis passes, after settling the allocator."""
        # Freeing one mmapped 8 MiB block raises glibc's mmap threshold to 8 MiB
        # and its trim threshold to 16 MiB, so the heap keeps the freed
        # temporaries instead of handing them back and faulting them in again
        # (other allocators ignore it).  A default moyal verify in a fresh
        # process took 5142 minor faults with it and 8062 without at 1 worker,
        # and 5965 and 8903 at 2, where the workers' own counts did not move;
        # the peak RSS is the same (BENCH_19.json).
        np.empty(8 << 20, dtype=np.uint8)
        N = self.fock_dim
        weyl._validate_trace_weight(self.theta.h, N)
        weyl._radial_tables(self.theta.h, self.half_width, self.n, N)
        calculus._gauss_laguerre(N)
        calculus._jacobi_eigen(N, calculus.BESSEL_INNER_FACTOR * N)

    def _norm(self, el: RandomElement, p: float) -> float:
        """The Schatten p-norm; at p = 2 and 4 from the matrix, with no SVD.

        ||x||_2 = (c sum |x_mn|^2)^(1/2) and ||x||_4 = (c ||x^* x||_F^2)^(1/4).
        The rule holds for every element, whether or not its profile is cached,
        so a row's value never depends on the rows before it.
        """
        if p not in (2.0, 4.0):
            return super()._norm(el, p)
        x = el.payload
        m = x.matrix if p == 2.0 else x.matrix.conj().T @ x.matrix
        return float((x.trace_weight * np.vdot(m, m).real) ** (1.0 / p))

    def _payload(self, f, boundary_gate):
        return quantize(f, self.theta, self.fock_dim, boundary_gate=boundary_gate)

    def _transform(self, payload):
        return dequantize(payload, self.half_width, self.n)

    def _profile(self, payload):
        return spectra.singular_profile(payload)

    def pair_trace(self, x: RandomElement, y: RandomElement) -> complex:
        """tau(x y^*) = c sum_{mn} x_mn conj(y_mn)."""
        a, b = x.payload, y.payload
        if a.fock_dim != b.fock_dim or a.theta.h != b.theta.h:
            raise GridMismatchError("operators live in different quantizations")
        return complex(a.trace_weight * np.sum(a.matrix * np.conj(b.matrix)))


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
    reason: str = ""


@dataclass
class RatioSummary:
    theorem: str
    trials: int
    median_ratio: float
    fitted_constant: float
    failures: int
    mode: str
    batch_constants: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


#: a trial passes iff its ratio is finite and at most 1 + tol (inf: no fixed
#: constant, the run fits one); the mode is also written to the summaries and
#: sets the default trial count
_MODE_TOL = {"equality": 1e-4, "one": 1e-3, "empirical": math.inf, "slope": 0.2}


@dataclass(frozen=True)
class TheoremEntry:
    """A registered statement: a suite that reads one element gives ``sides_fn``
    (see the module docstring), R1 (two elements) and R10 (none) ``compute_fn``."""

    title: str
    mode: str  # a key of _MODE_TOL
    n_elements: int
    params_fn: Callable[[object], list[dict]]
    sides_fn: Optional[Callable[[object, dict], tuple[Callable, Callable]]] = None
    admissible_fn: Optional[Callable[[object, dict], None]] = None
    compute_fn: Optional[Callable[[object, dict, Sequence[RandomElement]], tuple[float, float]]] = None

    def __post_init__(self):
        if self.compute_fn is None:
            object.__setattr__(self, "compute_fn", functools.partial(_read_sides, self.sides_fn))

    @property
    def tol(self) -> float:
        return _MODE_TOL[self.mode]


def _read_sides(sides_fn, backend, params: dict, els: Sequence[RandomElement]) -> tuple[float, float]:
    """(lhs, rhs) of a single-element suite.  The row's first trial runs ``sides_fn(backend, params)``, and the
    backend keeps the readers for the row's later trials; an error there fails the trial like one in a reader."""
    key = (sides_fn, json.dumps(params, sort_keys=True))
    if key not in backend._rows:
        backend._rows[key] = sides_fn(backend, params)
    lhs, rhs = backend._rows[key]
    (x,) = els
    return lhs(backend, x), rhs(backend, x)


def _schatten(p: float, c: float = 1.0):
    return lambda b, x: c * b.norm(x, p)


def _weighted(weight: np.ndarray, p: float):
    return lambda b, x: _weighted_lp(b.fourier(x), weight, p)


def _exp_entropy(p: float, c: float = 1.0):
    return lambda b, x: math.exp(c * spectra.entropy_term(b.profile(x), p))


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

def _r2(backend, params):
    p = params["p"]
    return lambda b, x: lebesgue_norm(b.fourier(x), conjugate_exponent(p)), _schatten(p)


def _r3(backend, params):
    p = params["p"]
    return _schatten(conjugate_exponent(p)), lambda b, x: lebesgue_norm(x.symbol, p)


def _r4(backend, params):
    p = params["p"]
    return _schatten(p), lambda b, x: lebesgue_norm(b.fourier(x), conjugate_exponent(p))


# R5/R6/R7/R8 ----------------------------------------------------------------

def _r5(backend, params):
    p = params["p"]
    hgrid, mh = backend.paley_weight
    return _weighted(hgrid.samples.real ** (2 - p), p), _schatten(p, mh ** ((2 - p) / p))


def _r6(backend, params):
    p, beta = params["p"], params["beta"]
    phi = 1.0 + symbols._radius_sq(backend._meshes)
    return _weighted(phi ** (beta * (p - 2)), p), _schatten(p)


def _r7(backend, params):
    p, beta = params["p"], params["beta"]
    pp = conjugate_exponent(p)
    phi = 1.0 + symbols._radius_sq(backend._meshes)
    # p-th roots of both sides keep the ratio scale-invariant
    return _schatten(p), _weighted(phi ** (beta * p * (2 - pp) / pp), p)


def _r8(backend, params):
    p, r = params["p"], params["r"]
    pp = conjugate_exponent(p)
    hgrid, mh = backend.paley_weight
    expo = r * (1.0 / r - 1.0 / pp)
    return _weighted(hgrid.samples.real**expo, r), _schatten(p, mh ** (1.0 / r - 1.0 / pp))


def _r8_admissible(backend, params):
    p, r = params["p"], params["r"]
    pp = conjugate_exponent(p)
    if not (1 < p <= r <= pp < math.inf):
        raise ValueError(f"need 1 < p <= r <= p' < inf, got p={p}, r={r}")


# R9/R10 ----------------------------------------------------------------------

def _r9(backend, params):
    p, q = params["p"], params["q"]
    g = heat_symbol(params.get("t0", 1.0))
    c = symbols.hormander_constant(calculus.evaluate_multiplier(g, backend.fourier_grid()), p, q)
    heat = backend.bind(g)
    return lambda b, x: b.norm(heat(b, x), q), _schatten(p, c)


def _pq_admissible(backend, params):
    p, q = params["p"], params["q"]
    if not (1 < p <= 2 <= q < math.inf):
        raise ValueError(f"need 1 < p <= 2 <= q < inf, got p={p}, q={q}")


def _heat_admissible(backend, params):
    _pq_admissible(backend, params)
    heat_symbol(params.get("t0", 1.0))  # refuses a negative heat time


def _heat_times(params) -> tuple[float, float, int]:
    return params.get("tmin", 0.5), params.get("tmax", 20.0), int(params.get("npts", 10))


def _r10_admissible(backend, params):
    # the same bounds fit_decay_slope enforces, checked before any heat flow;
    # at p = q, gamma = 0 and the ratio slope / (-gamma) does not exist
    _pq_admissible(backend, params)
    if params["p"] == params["q"]:
        raise ValueError("need p != q")
    tmin, tmax, npts = _heat_times(params)
    if not (npts >= 5 and 0 < tmin < tmax < math.inf and tmax / tmin >= 10**1.5):
        raise ValueError(
            f"need npts >= 5 heat times with 0 < tmin and tmax/tmin >= 10^1.5, "
            f"got tmin={tmin}, tmax={tmax}, npts={npts}"
        )


def _r10(backend, params, els):
    p, q = params["p"], params["q"]
    ts = np.geomspace(*_heat_times(params))
    slope = fit_decay_slope(heat_decay_ratios(backend, backend.heat_probe(), p, q, ts))
    gamma = (backend.dim / 2.0) * (1.0 / p - 1.0 / q)
    return slope, -gamma


# R11/R12 --------------------------------------------------------------------------

def _r11(backend, params):
    p = params["p"]
    pp = conjugate_exponent(p)
    return _schatten(pp), lambda b, x: lorentz_norm(x.symbol, p, pp)


def _r12(backend, params):
    p = params["p"]
    pp = conjugate_exponent(p)
    return lambda b, x: lorentz_norm(b.fourier(x), pp, p), _schatten(p)


# R14 --------------------------------------------------------------------------

def _r14(backend, params):
    p, q, s = params["p"], params["q"], params["s"]
    bessel = backend.bind(bessel_symbol(s))  # ||x||_{L^p_s} = ||(1 - Lap)^{s/2} x||_p
    return _schatten(q), lambda b, x: b.norm(bessel(b, x), p)


def _r14_admissible(backend, params):
    _pq_admissible(backend, params)
    p, q, s = params["p"], params["q"], params["s"]
    if p == q:
        raise ValueError("need p != q")
    if s < _thr(backend, p, q):
        raise ValueError(f"s={s} below the embedding threshold")


# R15/R16 ----------------------------------------------------------------------

def _r15(backend, params):
    p, r, q = params["p"], params["r"], params["q"]
    eta = (1.0 / r - 1.0 / q) / (1.0 / p - 1.0 / q)
    return _schatten(r), lambda b, x: b.norm(x, p) ** eta * b.norm(x, q) ** (1 - eta)


def _r15_admissible(backend, params):
    p, r, q = params["p"], params["r"], params["q"]
    if not (1 <= p <= r <= q < math.inf and p < q):
        raise ValueError(f"need 1 <= p <= r <= q < inf with p < q, got p={p}, r={r}, q={q}")


def _r16(backend, params):
    p, q = params["p"], params["q"]
    # both sides exponentiated: the raw right side q/(q-p) log(...) may be
    # negative, which would flip the ratio ordering
    return _exp_entropy(p), lambda b, x: (b.norm(x, q) / b.norm(x, p)) ** (p * q / (q - p))


def _r16_admissible(backend, params):
    p, q = params["p"], params["q"]
    if not (1 <= p < q < math.inf):
        raise ValueError(f"need 1 <= p < q < inf, got p={p}, q={q}")


# R17/R18 ----------------------------------------------------------------------

def _r17(backend, params):
    p, s = params["p"], params["s"]
    d = backend.dim
    bessel = backend.bind(bessel_symbol(s))
    # exp((sp/d) * entropy) <= C * ||x||_{L^p_s}^p / ||x||_p^p ; the ratio is
    # the per-trial implied constant
    return _exp_entropy(p, s * p / d), lambda b, x: (b.norm(bessel(b, x), p) / b.norm(x, p)) ** p


def _r17_admissible(backend, params):
    p, s = params["p"], params["s"]
    d = backend.dim
    if not (1 < p < 2):
        raise ValueError(f"need 1 < p < 2, got {p}")
    if not (d * (2 - p) / (2 * p) <= s < d / p):
        raise ValueError(f"s={s} outside [{d*(2-p)/(2*p)}, {d/p})")


def _r18(backend, params):
    d = backend.dim
    derivations = [backend.bind(derivative_symbol(axis)) for axis in reversed(range(d))]

    def rhs(b, x):
        # ||x||_{W^{1,2}} = ||x||_2 + ||d_d x||_2 + ... + ||d_1 x||_2, summed in this order
        w12 = b.norm(x, 2.0)
        for derivation in derivations:
            w12 += b.norm(derivation(b, x), 2.0)
        return w12 * b.norm(x, 1.0) ** (2.0 / d)

    return lambda b, x: b.norm(x, 2.0) ** (1.0 + 2.0 / d), rhs


# ---------------------------------------------------------------------------


def _p_grid(*values):
    return lambda backend: [{"p": v} for v in values]


def _p_range(lo, hi):
    """Gate on a suite's exponent: lo <= p <= hi, p finite."""

    def admissible(backend, params):
        p = params["p"]
        if not (lo <= p <= hi and math.isfinite(p)):
            raise ValueError(f"need {lo:g} <= p <= {hi:g} with p finite, got p={p}")

    return admissible


def _weighted_p_range(lo, hi):
    """Gate on R6/R7: lo <= p <= hi, p finite, and a finite weight order beta."""
    p_gate = _p_range(lo, hi)

    def admissible(backend, params):
        p_gate(backend, params)
        if not math.isfinite(params["beta"]):
            raise ValueError(f"need a finite weight order beta, got beta={params['beta']}")

    return admissible


def _thr(backend, p, q):
    return backend.dim * (1.0 / p - 1.0 / q)


REGISTRY: dict[str, TheoremEntry] = {
    "R1": TheoremEntry("transform pairing identity", "equality", 2, lambda b: [{}], compute_fn=_r1),
    "R2": TheoremEntry("transform p' bound", "one", 1, _p_grid(1.0, 4.0 / 3.0, 2.0), _r2, _p_range(1, 2)),
    "R3": TheoremEntry("quantization p' bound", "one", 1, _p_grid(1.0, 4.0 / 3.0, 2.0), _r3, _p_range(1, 2)),
    "R4": TheoremEntry("reverse transform bound", "one", 1, _p_grid(2.0, 3.0, 4.0), _r4, _p_range(2, math.inf)),
    "R5": TheoremEntry("weighted transform bound", "empirical", 1, _p_grid(4.0 / 3.0, 1.5, 2.0), _r5, _p_range(1, 2)),
    "R6": TheoremEntry(
        "polynomial-weight transform bound", "empirical", 1,
        lambda b: [{"p": p, "beta": bta} for p in (4.0 / 3.0, 2.0) for bta in (1.1 * b.dim / 2.0, 2.0 * b.dim)],
        _r6,
        _weighted_p_range(1, 2),
    ),
    "R7": TheoremEntry(
        "inverse polynomial-weight bound", "empirical", 1,
        lambda b: [{"p": p, "beta": bta} for p in (2.0, 3.0) for bta in (1.1 * b.dim / 2.0, 2.0 * b.dim)],
        _r7,
        _weighted_p_range(2, math.inf),
    ),
    "R8": TheoremEntry(
        "interpolated weighted bound", "empirical", 1,
        lambda b: [{"p": p, "r": r} for p in (4.0 / 3.0, 1.5) for r in (p, 2.0, conjugate_exponent(p))],
        _r8,
        _r8_admissible,
    ),
    "R9": TheoremEntry(
        "multiplier norm bound", "empirical", 1,
        lambda b: [{"p": 4.0 / 3.0, "q": 4.0, "t0": 1.0}, {"p": 2.0, "q": 4.0, "t0": 1.0}],
        _r9,
        _heat_admissible,
    ),
    # slope / (-gamma) <= 1.2: the probe decays no faster than t^(-1.2 gamma)
    "R10": TheoremEntry(
        "heat decay slope", "slope", 0,
        lambda b: [{"p": 4.0 / 3.0, "q": 4.0, "tmin": 0.5, "tmax": 20.0, "npts": 10}],
        admissible_fn=_r10_admissible,
        compute_fn=_r10,
    ),
    "R11": TheoremEntry("Lorentz quantization bound", "empirical", 1, _p_grid(4.0 / 3.0, 2.0), _r11, _p_range(1, 2)),
    "R12": TheoremEntry("Lorentz transform bound", "one", 1, _p_grid(4.0 / 3.0, 2.0), _r12, _p_range(1, 2)),
    "R14": TheoremEntry(
        "fractional embedding", "empirical", 1,
        lambda b: [
            {"p": 4.0 / 3.0, "q": 4.0, "s": _thr(b, 4.0 / 3.0, 4.0)},
            {"p": 4.0 / 3.0, "q": 4.0, "s": 1.5 * _thr(b, 4.0 / 3.0, 4.0)},
            {"p": 2.0, "q": 4.0, "s": _thr(b, 2.0, 4.0)},
        ],
        _r14,
        _r14_admissible,
    ),
    "R15": TheoremEntry(
        "norm interpolation", "one", 1,
        lambda b: [{"p": 1.0, "r": 4.0 / 3.0, "q": 2.0}, {"p": 4.0 / 3.0, "r": 2.0, "q": 4.0}, {"p": 2.0, "r": 3.0, "q": 6.0}],
        _r15,
        _r15_admissible,
    ),
    "R16": TheoremEntry(
        "entropy bound", "one", 1,
        lambda b: [{"p": 1.0, "q": 2.0}, {"p": 4.0 / 3.0, "q": 3.0}, {"p": 2.0, "q": 4.0}],
        _r16,
        _r16_admissible,
    ),
    "R17": TheoremEntry(
        "entropy-smoothness bound", "empirical", 1,
        lambda b: [{"p": 1.5, "s": s} for s in (b.dim / 6.0, 0.75 * b.dim / 1.5, 0.97 * b.dim / 1.5)],
        _r17,
        _r17_admissible,
    ),
    "R18": TheoremEntry("gradient-trade bound", "empirical", 1, lambda b: [{}], _r18),
}


def registry_ids() -> list[str]:
    return sorted(REGISTRY, key=lambda t: int(t[1:]))


# ---------------------------------------------------------------------------
# Running cases and suites
# ---------------------------------------------------------------------------

_TRIAL_ERRORS = (DomainError, BoundaryDecayError, FactorizationError, FloatingPointError, ZeroDivisionError)


def run_case(backend, tid: str, params: dict, seed: int, drawn: Optional[list] = None) -> TheoremCase:
    """One trial: draw element(s), evaluate both sides, compute the ratio.

    Slot j's element is drawn from derive_seed(seed, "element", j).  ``drawn``
    holds the elements already drawn from ``seed``, slot by slot; the trial
    appends any slot it needs that is missing, so the rows of one trial index
    (:func:`run_index`) share their draws, transforms and singular values.
    The trial passes iff the ratio lhs / rhs is finite and at most 1 + tol.
    """
    entry = REGISTRY[tid]
    if entry.admissible_fn is not None:
        entry.admissible_fn(backend, params)
    drawn = [] if drawn is None else drawn
    while len(drawn) < entry.n_elements:
        drawn.append(backend.sample_element(derive_seed(seed, "element", len(drawn))))
    els = drawn[: entry.n_elements]
    try:
        lhs, rhs = entry.compute_fn(backend, params, els)
    except _TRIAL_ERRORS as exc:
        reason = f"{type(exc).__name__}: {exc}"
        return TheoremCase(tid, params, math.nan, math.nan, math.nan, False, seed, reason=reason)
    if rhs != 0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0 else math.inf
    finite = math.isfinite(ratio)
    passed = bool(finite and ratio <= 1.0 + entry.tol)
    return TheoremCase(tid, params, lhs, rhs, ratio, passed, seed, reason="" if finite else "nonfinite ratio")


def run_index(backend, rows: Sequence[tuple[str, dict, int]]) -> list[TheoremCase]:
    """The (theorem, params, seed) rows of one trial index, every suite's, in order.

    The rows share one seed, so each slot's element is drawn once and its
    caches serve every row; the elements are dropped on return.
    """
    if len({seed for _, _, seed in rows}) > 1:
        raise ValueError("the rows of one trial index share one seed")
    drawn: list[RandomElement] = []
    return [run_case(backend, tid, params, seed, drawn) for tid, params, seed in rows]


def trial_plan(
    backend, tid: str, n_trials: int, master_seed: int, params_grid: Optional[list] = None
) -> list[tuple[dict, int]]:
    """(params, seed) of trial i = 0..n_trials-1: row i mod len of the grid (the
    suite's own unless ``params_grid`` is given) and derive_seed(master_seed, i).

    The seed leaves out the theorem id, so trial i of every suite draws the
    same elements.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1 for {tid}")
    grid = params_grid if params_grid is not None else REGISTRY[tid].params_fn(backend)
    if not grid:
        raise ValueError(f"empty parameter grid for {tid}")
    return [(grid[i % len(grid)], derive_seed(master_seed, i)) for i in range(n_trials)]


def summarize_cases(tid: str, cases: Sequence[TheoremCase]) -> RatioSummary:
    """The fitted constant is the max finite ratio; the batch constants, of the
    two halves of the cases, check its stability."""
    ratios = np.array([c.ratio for c in cases], dtype=float)
    finite = ratios[np.isfinite(ratios)]
    fitted = float(finite.max()) if finite.size else math.nan
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
        median_ratio=float(np.median(finite)) if finite.size else math.nan,
        fitted_constant=fitted,
        failures=failures,
        mode=REGISTRY[tid].mode,
        batch_constants=batches,
    )


# ---------------------------------------------------------------------------
# Norm-ratio search and slope fits
# ---------------------------------------------------------------------------


def estimate_norm_ratio(backend, g: MultiplierSymbol, p: float, q: float, n_trials: int, seed: int) -> float:
    """Max of ||g(D)x||_q / ||x||_p over sampled elements.

    This is a certified lower bound on the p->q multiplier norm, never the
    norm itself: random search has no optimality certificate here.
    """
    _pq_admissible(backend, {"p": p, "q": q})
    multiplier = backend.bind(g)
    best = 0.0
    for i in range(n_trials):
        x = backend.sample_element(derive_seed(seed, "norm_ratio", i))
        best = max(best, backend.norm(multiplier(backend, x), q) / backend.norm(x, p))
    return best


def heat_decay_ratios(
    backend, probe: RandomElement, p: float, q: float, ts: Sequence[float]
) -> list[tuple[float, float]]:
    """(t, ||e^{t Lap} probe||_q / ||probe||_p) at each heat time t."""
    base = backend.norm(probe, p)
    return [(t, backend.norm(backend.apply(heat_symbol(t), probe), q) / base) for t in ts]


def fit_decay_slope(samples: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(value) against log(t)."""
    if len(samples) < 5:
        raise ValueError("need at least 5 samples")
    ts = np.array([s[0] for s in samples], dtype=float)
    vs = np.array([s[1] for s in samples], dtype=float)
    if np.any(ts <= 0):
        raise ValueError("heat times must be positive")
    if np.any(vs <= 0):
        # a decay ratio that underflowed: the data, not the caller, is at fault
        raise DomainError("decay ratios must be positive")
    if ts.max() / ts.min() < 10**1.5:
        raise ValueError("t range must span at least 1.5 decades")
    return float(np.polyfit(np.log(ts), np.log(vs), 1)[0])


def sobolev_norm(backend, el: RandomElement, p: float, s: float) -> float:
    """Bessel-potential Sobolev norm ||(1 - Lap)^{s/2} x||_p."""
    return backend.norm(backend.apply(bessel_symbol(s), el), p)


def sobolev_scale_sweep(
    backend, p: float, q: float, s: float, scales: Sequence[float], base_width: float = 0.5
) -> list[float]:
    """Embedding ratio ||x_R||_q / ||x_R||_{L^p_s} over dilated probes.

    The probe transform is exp(-|xi|^2 / (2 (base_width * R)^2)); growing R
    pushes spectral mass to higher frequencies.
    """
    out = []
    for R in scales:
        probe = symbols.GaussianMixture((((0.0,) * backend.dim, base_width * R, 1.0),))
        el = backend.element_from_symbol(backend.fourier_grid().with_samples(probe.value(backend._meshes)))
        out.append(backend.norm(el, q) / sobolev_norm(backend, el, p, s))
    return out
