"""Per-layer spans recorded from outside obsalg, by wrapping module attributes.

Each layer of ``src/obsalg`` is entered through a public function (or a
public method); :func:`install` replaces those names, wherever an obsalg
module holds them, with wrappers that time the call.  Spans nest on one
stack, so a layer's self time is its duration minus the time of the spans
it caused.  The kernel layer ``linalg`` wraps the ``numpy.linalg`` functions
obsalg calls through ``np.linalg``; the benchmark itself only calls them
while the wrappers are removed.

Spans are aggregated as they close (calls, total and self seconds) rather
than kept one by one: a traced static_evolution pass closes about 2.7e5 spans.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Nested span timer with named counters and per-pass repeat sets."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []  # per open span: [child seconds]
        self._seen: dict[str, set] = {}
        self._pinned: list = []

    def new_pass(self) -> None:
        """Forget inputs seen so far: repeat ratios are measured per pass."""
        self._seen.clear()
        self._pinned.clear()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def calls(self, name: str) -> int:
        stats = self.stats.get(name)
        return stats.calls if stats else 0

    def seen_before(self, family: str, key, pin=None) -> bool:
        """Record ``key`` under ``family``; True if it was already recorded.

        ``pin`` keeps an object alive for the pass, so an ``id()`` inside
        ``key`` cannot be reused by another object.
        """
        seen = self._seen.setdefault(family, set())
        if key in seen:
            return True
        seen.add(key)
        if pin is not None:
            self._pinned.append(pin)
        return False

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` timed as span ``name``; ``before(args, kwargs)`` returns a
        token handed to ``after(token, args, kwargs, result)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = self.clock()
            try:
                token = before(args, kwargs) if before else None
                frame = [0.0]
                self._stack.append(frame)
                start = self.clock()
                try:
                    return_value = fn(*args, **kwargs)
                finally:
                    duration = self.clock() - start
                    self._stack.pop()
                    stats = self.stats.setdefault(name, SpanStats())
                    stats.calls += 1
                    stats.total_s += duration
                    stats.self_s += duration - frame[0]
                if after:
                    after(token, args, kwargs, return_value)
                return return_value
            finally:
                # the caller's self time excludes this span and its hooks
                if self._stack:
                    self._stack[-1][0] += self.clock() - entered

        return traced


# ---------------------------------------------------------------------------
# the layers
# ---------------------------------------------------------------------------

# (span name, module, attribute): module-level functions of obsalg.  Names
# mapped to one span form one layer entry point (all step kernels are
# ``evolution.step``).  ``scenarios._heisenberg_row_residual`` is the
# trajectory loop's own copy of the Heisenberg residual; it is counted with
# the other residuals and skipped once it no longer exists.
FUNCTION_SPANS = [
    ("transforms.unitary_exponential", "obsalg.transforms", "unitary_exponential"),
    ("transforms.unitary_defect", "obsalg.transforms", "unitary_defect"),
    ("transforms.from_unitary", "obsalg.transforms", "from_unitary"),
    ("core.spectral_decompose", "obsalg.core", "spectral_decompose"),
    ("core.apply_function", "obsalg.core", "apply_function"),
    ("core.opnorm", "obsalg.core", "opnorm"),
    ("core.hermiticity_defect", "obsalg.core", "hermiticity_defect"),
    ("evolution.step", "obsalg.evolution", "heisenberg_step"),
    ("evolution.step", "obsalg.evolution", "heisenberg_step_explicit"),
    ("evolution.step", "obsalg.evolution", "schrodinger_step"),
    ("evolution.step", "obsalg.evolution", "von_neumann_step"),
    ("evolution.step", "obsalg.evolution", "reverse_step"),
    ("evolution.residual", "obsalg.evolution", "heisenberg_residual"),
    ("evolution.residual", "obsalg.evolution", "schrodinger_residual"),
    ("evolution.residual", "obsalg.evolution", "von_neumann_residual"),
    ("evolution.residual", "obsalg.scenarios", "_heisenberg_row_residual"),
    ("expr.explicit_time_derivative", "obsalg.expr", "explicit_time_derivative"),
    ("states.expectation", "obsalg.states", "expectation"),
    ("canonical.make_canonical_pair", "obsalg.canonical", "make_canonical_pair"),
    ("canonical.weyl_residual", "obsalg.canonical", "weyl_residual"),
    ("canonical.conjugation_parity_check", "obsalg.canonical", "conjugation_parity_check"),
    ("scenarios.config_from_doc", "obsalg.scenarios", "config_from_doc"),
    ("scenarios.build_engine", "obsalg.scenarios", "build_engine"),
    ("scenarios.run_scenario", "obsalg.scenarios", "run_scenario"),
    *[(f"audit.{suite}", "obsalg.audit", suite) for suite in (
        "automorphism_suite", "generatrix_suite", "invariance_suite",
        "duality_suite", "spectrum_suite", "weyl_suite", "reversal_suite")],
]

LINALG_SPANS = ["eigh", "eigvalsh"]


def _array_key(a):
    import numpy as np
    arr = np.ascontiguousarray(a)
    return (arr.shape, arr.dtype.str,
            hashlib.blake2b(arr.tobytes(), digest_size=16).digest())


def eigh_gflop(n: int, complex_input: bool) -> float:
    """Computed flops of one eigendecomposition with vectors: 9 n^3 real
    flops (Golub & Van Loan, symmetric QR), four times that for complex."""
    return (4 if complex_input else 1) * 9 * n ** 3 * 1e-9


class Installation:
    """The wrappers of one :func:`install`; :meth:`remove` restores all."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _obsalg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "obsalg" or name.startswith("obsalg."))]


def install(tracer: Tracer) -> Installation:
    """Wrap every layer entry point of the imported obsalg package."""
    import numpy as np

    from obsalg import core, evolution, expr, states

    inst = Installation()
    modules = _obsalg_modules()

    def replace_everywhere(original, wrapped):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    inst.set(module, attr, wrapped)

    def eigh_before(args, kwargs):
        a = args[0]
        tracer.count("linalg.eigh.computed_gflop",
                     eigh_gflop(a.shape[-1], np.iscomplexobj(a)))
        if tracer.seen_before("linalg.eigh", _array_key(a)):
            tracer.count("linalg.eigh.repeats")

    for fname in LINALG_SPANS:
        original = getattr(np.linalg, fname)
        inst.set(np.linalg, fname, tracer.wrap(
            f"linalg.{fname}", original, before=eigh_before if fname == "eigh" else None))

    for span, module_name, attr in FUNCTION_SPANS:
        module = sys.modules[module_name]
        original = getattr(module, attr, None)
        if original is not None:
            replace_everywhere(original, tracer.wrap(span, original))

    # expr.evaluate, with the share of (expression, t) pairs seen before
    def evaluate_before(args, kwargs):
        node, ctx = args[0], args[1]
        key = (node, ctx.t, id(ctx.operators), id(ctx.constants))
        if tracer.seen_before("expr.evaluate", key, pin=ctx):
            tracer.count("expr.evaluate.repeats")

    replace_everywhere(expr.evaluate, tracer.wrap("expr.evaluate", expr.evaluate,
                                                  before=evaluate_before))

    # EvolutionEngine.unitary: a call that runs no eigendecomposition and no
    # exponential is a cache hit
    def unitary_before(args, kwargs):
        return tracer.calls("linalg.eigh") + tracer.calls("transforms.unitary_exponential")

    def unitary_after(token, args, kwargs, result):
        if token == (tracer.calls("linalg.eigh")
                     + tracer.calls("transforms.unitary_exponential")):
            tracer.count("evolution.unitary.hits")

    engine_cls = evolution.EvolutionEngine
    inst.set(engine_cls, "unitary", tracer.wrap(
        "evolution.unitary", engine_cls.unitary, before=unitary_before,
        after=unitary_after))
    inst.set(evolution.Hamiltonian, "evaluate", tracer.wrap(
        "evolution.Hamiltonian.evaluate", evolution.Hamiltonian.evaluate))
    inst.set(states.DensityObservable, "__init__", tracer.wrap(
        "states.DensityObservable", states.DensityObservable.__init__))

    # ProjectorBasis.from_frame, with the dense projectors it materializes
    def from_frame_after(token, args, kwargs, basis):
        built = getattr(basis, "projectors", ())
        if built:
            tracer.count("core.projectors_built", len(built))
            tracer.count("core.projectors_computed_mib",
                         len(built) * built[0].dim ** 2 * 16 / 2 ** 20)

    from_frame = core.ProjectorBasis.__dict__["from_frame"].__func__
    inst.set(core.ProjectorBasis, "from_frame", classmethod(tracer.wrap(
        "core.ProjectorBasis.from_frame", from_frame, after=from_frame_after)))

    # serialize: time and bytes written
    def written_bytes(span):
        def after(token, args, kwargs, result):
            tracer.count(f"{span}.bytes", os.path.getsize(args[0]))
        return after

    from obsalg import serialize
    for attr in ("write_csv", "dump_json"):
        span = f"serialize.{attr}"
        original = getattr(serialize, attr)
        replace_everywhere(original, tracer.wrap(span, original,
                                                 after=written_bytes(span)))
    return inst


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_TIMED = ["linalg.eigh", "linalg.eigvalsh", "evolution.unitary",
          "evolution.Hamiltonian.evaluate", "evolution.step", "evolution.residual",
          "transforms.unitary_exponential", "transforms.unitary_defect",
          "transforms.from_unitary", "core.spectral_decompose",
          "core.apply_function", "core.ProjectorBasis.from_frame", "core.opnorm",
          "core.hermiticity_defect", "expr.evaluate",
          "expr.explicit_time_derivative", "states.DensityObservable",
          "states.expectation", "canonical.make_canonical_pair"]
_SELF_ONLY = ["canonical.weyl_residual", "canonical.conjugation_parity_check",
              "scenarios.config_from_doc", "scenarios.build_engine",
              "scenarios.run_scenario", "serialize.write_csv", "serialize.dump_json",
              *[span for span, module, _ in FUNCTION_SPANS if module == "obsalg.audit"]]


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics as {name: (value, unit)}; zero where unused."""
    per = 1.0 / max(1, passes)
    out: dict[str, tuple[float, str]] = {}

    def ratio(numerator: float, calls: int) -> float:
        return numerator / calls if calls else 0.0

    for span in _TIMED + _SELF_ONLY:
        stats = tracer.stats.get(span, SpanStats())
        if span in _TIMED:
            out[f"{span}.calls"] = (stats.calls * per, "count")
        out[f"{span}.self_ms"] = (stats.self_s * 1e3 * per, "ms")
    c = tracer.counters.get
    out["linalg.eigh.computed_gflop"] = (c("linalg.eigh.computed_gflop", 0.0) * per, "GFLOP")
    out["linalg.eigh.repeat_ratio"] = (
        ratio(c("linalg.eigh.repeats", 0.0), tracer.calls("linalg.eigh")), "ratio")
    out["evolution.unitary.hit_ratio"] = (
        ratio(c("evolution.unitary.hits", 0.0), tracer.calls("evolution.unitary")), "ratio")
    out["expr.evaluate.repeat_ratio"] = (
        ratio(c("expr.evaluate.repeats", 0.0), tracer.calls("expr.evaluate")), "ratio")
    out["core.projectors_built"] = (c("core.projectors_built", 0.0) * per, "count")
    out["core.projectors_computed_mib"] = (
        c("core.projectors_computed_mib", 0.0) * per, "MiB")
    for span in ("serialize.write_csv", "serialize.dump_json"):
        out[f"{span}.bytes"] = (c(f"{span}.bytes", 0.0) * per, "B")
    return out
