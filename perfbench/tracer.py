"""Parent-linked spans around the public functions of each qeuclid layer.

Nothing under ``src/`` is instrumented: :func:`install` replaces each traced
function wherever it is bound (``harness`` and ``calculus`` import ``quantize``
by name, ``harness`` calls ``symbols.hormander_constant`` through the module)
with a wrapper that records ``[name, parent, start, end]``. Spans stay in
memory and are written once, after the traced call. A span's self time is its
duration minus the durations of its direct children; calls are sequential in
one thread, so children never overlap.
"""

import functools
import sys
from time import perf_counter

#: span name -> functions it covers, as (module, attribute) or (module, class, method)
LAYERS = {
    "weyl.quantize": [("qeuclid.weyl", "quantize")],
    "weyl.dequantize": [("qeuclid.weyl", "dequantize")],
    "calculus.apply_multiplier": [("qeuclid.calculus", "apply_multiplier")],
    "spectra.singular_profile": [("qeuclid.spectra", "singular_profile")],
    "symbols.classical_fourier": [("qeuclid.symbols", "classical_fourier")],
    "symbols.hormander_constant": [("qeuclid.symbols", "hormander_constant")],
    "symbols.paley_weight_constant": [("qeuclid.symbols", "paley_weight_constant")],
    "symbols.norms": [("qeuclid.symbols", "lebesgue_norm"), ("qeuclid.symbols", "lorentz_norm")],
    "harness.sample_element": [
        ("qeuclid.harness", "MoyalBackend", "sample_element"),
        ("qeuclid.oracle", "ClassicalBackend", "sample_element"),
    ],
    "harness.run_case": [("qeuclid.harness", "run_case")],
    "oracle.apply": [("qeuclid.oracle", "ClassicalBackend", "apply")],
    "cli.cmd_verify": [("qeuclid.cli", "cmd_verify")],
}


class Tracer:
    """Collects spans and element draws of one traced run."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.draws = []  # [element seed, attempt] per sample_element call
        self._open = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter(), None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return traced

    def wrap_draw(self, fn):
        draws = self.draws

        @functools.wraps(fn)
        def counted(backend, seed):
            el = fn(backend, seed)
            draws.append([int(seed), int(el.spec["attempt"])])
            return el

        return counted

    def install(self) -> None:
        """Wrap every function in :data:`LAYERS` at each of its bindings."""
        import qeuclid.cli  # noqa: F401  (loads every qeuclid module)

        modules = [m for k, m in sys.modules.items() if k == "qeuclid" or k.startswith("qeuclid.")]
        for name, targets in LAYERS.items():
            for target in targets:
                if len(target) == 3:
                    cls = getattr(sys.modules[target[0]], target[1])
                    fn = getattr(cls, target[2])
                    if target[2] == "sample_element":
                        fn = self.wrap_draw(fn)
                    setattr(cls, target[2], self.wrap(name, fn))
                    continue
                orig = getattr(sys.modules[target[0]], target[1])
                wrapped = self.wrap(name, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)

    def dump(self) -> dict:
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        return {"spans": self.spans, "draws": self.draws}
