"""Outside-in tracing of the grassq modules, from the benchmark's own files.

:meth:`Tracer.install` wraps the public functions of every layer module,
the public methods of its public classes and their arithmetic dunders
(``+ - * @``, unary ``-``), plus ``Cyclo.__init__``.  Each wrapper is
rebound at every binding grassq holds: the defining module, each module
that imported the name (``grassq.opalg.normalize_word``,
``grassq.resolution.make_coherent``, ...) and the class dict, so no call
reaches the unwrapped function.  Nothing under ``src/`` is edited.

Hot calls (the ``scalars`` layer and the word kernels of ``galg``) are
only aggregated in memory as counts plus self time.  Every other call also
records a span ``(name, start, end, parent span, operation)``.  A span's
self time is its duration minus the time its child calls cover.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

LAYERS = ("scalars", "galg", "opalg", "coherent", "resolution", "suq2",
          "biortho", "suites")

_DUNDERS = {"__add__": "add", "__sub__": "sub", "__neg__": "neg",
            "__mul__": "mul", "__matmul__": "matmul"}
# Cyclo reduces modulo Phi_n while it is constructed, so its constructor
# is layer work; the other constructors only store their arguments.
_CONSTRUCTORS = {"Cyclo"}
_HOT = {"galg.normalize_word", "galg.integrate_word"}
# Dyad tuple builders: a wrapper would cost more than the call does.
_SKIP = {"opalg.ket", "opalg.bra", "opalg.outer"}


class Tracer:
    def __init__(self):
        # name -> [calls, self seconds, inclusive seconds, active depth]
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.op = -1
        self._stack = [0.0]
        self._open: list[int] = []
        self._wrappers: dict[int, object] = {}

    # -- accounting ------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (the set-up work)."""
        for st in self.stats.values():
            st[0], st[1], st[2] = 0, 0.0, 0.0
        for k in self.counters:
            self.counters[k] = 0
        self.spans.clear()
        self._stack[:] = [0.0]

    @property
    def covered_s(self) -> float:
        """Time covered by top-level traced calls and glue spans."""
        return self._stack[0]

    def _wrapper(self, name: str, fn, span: bool):
        """Count calls plus self and inclusive time of ``fn``; with
        ``span`` also record each call as a span."""
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, opened, spans = self._stack, self._open, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            st[3] += 1
            if span:
                parent = opened[-1] if opened else -1
                index = len(spans)
                spans.append(None)
                opened.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                if span:
                    opened.pop()
                    spans[index] = (name, t0, t1, parent, self.op)
                child = stack.pop()
                stack[-1] += dur
                st[0] += 1
                st[1] += dur - child
                st[3] -= 1
                if not st[3]:
                    st[2] += dur
        return wrapper

    def glue(self, name: str, fn):
        """Run ``fn()``, the benchmark's own work inside the timed region,
        as a span named ``bench.<name>``."""
        return self._wrapper(f"bench.{name}", fn, span=True)()

    # -- installation ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        w = self._wrappers.get(id(fn))
        if w is None:
            if name in _SKIP:
                return fn
            hot = name.startswith("scalars.") or name in _HOT
            w = _EXTRA.get(name, lambda t, f: f)(
                self, self._wrapper(name, fn, span=not hot))
            self._wrappers[id(fn)] = w
        return w

    def install(self) -> None:
        package = importlib.import_module("grassq")
        modules = [importlib.import_module(f"grassq.{layer}")
                   for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    self._wrap(f"{layer}.{name}", obj)
        for mod in [package, importlib.import_module("grassq.cli")] + modules:
            for name, obj in list(vars(mod).items()):
                w = self._wrappers.get(id(obj))
                if w is not None:
                    setattr(mod, name, w)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr == "__init__":
                if cls.__name__ not in _CONSTRUCTORS:
                    continue
                alias = "new"
            elif attr in _DUNDERS:
                alias = _DUNDERS[attr]
            elif attr.startswith("_"):
                continue
            else:
                alias = attr
            name = f"{layer}.{cls.__name__}.{alias}"
            if isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self._wrap(name, obj.__func__)))
            elif isinstance(obj, types.FunctionType):
                setattr(cls, attr, self._wrap(name, obj))


def _normalize_word_extra(tracer: Tracer, wrapper):
    """Count input factors; the iterable is materialised once for that."""
    counters = tracer.counters
    counters.setdefault("galg.normalize_word.factors", 0)

    @functools.wraps(wrapper)
    def counted(level, factors, *args, **kwargs):
        factors = tuple(factors)
        counters["galg.normalize_word.factors"] += len(factors)
        return wrapper(level, factors, *args, **kwargs)
    return counted


def _matmul_extra(tracer: Tracer, wrapper):
    """Term pairs visited and the largest operand or result, in terms."""
    counters = tracer.counters
    counters.setdefault("opalg.matmul.term_pairs", 0)
    counters.setdefault("opalg.matmul.max_terms", 0)

    @functools.wraps(wrapper)
    def counted(a, b):
        out = wrapper(a, b)
        na, nb = len(a.terms), len(b.terms)
        counters["opalg.matmul.term_pairs"] += na * nb
        biggest = max(na, nb, len(out.terms))
        if biggest > counters["opalg.matmul.max_terms"]:
            counters["opalg.matmul.max_terms"] = biggest
        return out
    return counted


_EXTRA = {"galg.normalize_word": _normalize_word_extra,
          "opalg.OpExpr.matmul": _matmul_extra}


# Per-layer metrics: (metric, source, statistic).  The source is a traced
# name, a counter, or a layer (for self_s, summed over the layer's names).
CALLS, SELF, INCL, COUNTER, LAYER = "calls", "self", "incl", "counter", "layer"
METRICS = (
    ("scalars.self_s", "scalars", LAYER),
    ("scalars.Cyclo.new.calls", "scalars.Cyclo.new", CALLS),
    ("scalars.Cyclo.mul.calls", "scalars.Cyclo.mul", CALLS),
    ("scalars.Scalar.mul.calls", "scalars.Scalar.mul", CALLS),
    ("scalars.Scalar.mul_q_power.calls", "scalars.Scalar.mul_q_power", CALLS),
    ("scalars.Cyclo.inverse.calls", "scalars.Cyclo.inverse", CALLS),
    ("galg.self_s", "galg", LAYER),
    ("galg.normalize_word.calls", "galg.normalize_word", CALLS),
    ("galg.normalize_word.factors", "galg.normalize_word.factors", COUNTER),
    ("galg.integrate_word.calls", "galg.integrate_word", CALLS),
    ("opalg.self_s", "opalg", LAYER),
    ("opalg.matmul.calls", "opalg.OpExpr.matmul", CALLS),
    ("opalg.matmul.term_pairs", "opalg.matmul.term_pairs", COUNTER),
    ("opalg.matmul.max_terms", "opalg.matmul.max_terms", COUNTER),
    ("opalg.op_dagger.calls", "opalg.op_dagger", CALLS),
    ("opalg.berezin_op.calls", "opalg.berezin_op", CALLS),
    ("coherent.self_s", "coherent", LAYER),
    ("coherent.make_coherent.calls", "coherent.make_coherent", CALLS),
    ("coherent.q_exponential.s", "coherent.q_exponential", INCL),
    ("resolution.self_s", "resolution", LAYER),
    ("resolution.solve_weight.calls", "resolution.solve_weight", CALLS),
    ("resolution.solve_weight.s", "resolution.solve_weight", INCL),
    ("resolution.resolution_integral.calls",
     "resolution.resolution_integral", CALLS),
    ("suq2.self_s", "suq2", LAYER),
    ("suq2.factorial_exponential.calls", "suq2.factorial_exponential", CALLS),
    ("biortho.self_s", "biortho", LAYER),
    ("biortho.instantiate_numeric.calls", "biortho.instantiate_numeric", CALLS),
    ("suites.run_suite.self_s", "suites.run_suite", SELF),
    ("suites.emit_report.s", "suites.emit_report", INCL),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every metric of :data:`METRICS` from one traced pass."""
    out = {}
    for metric, source, stat in METRICS:
        if stat == COUNTER:
            out[metric] = tracer.counters.get(source, 0)
        elif stat == LAYER:
            out[metric] = sum(st[1] for name, st in tracer.stats.items()
                              if name.startswith(source + "."))
        else:
            st = tracer.stats.get(source, [0, 0.0, 0.0])
            out[metric] = st[{CALLS: 0, SELF: 1, INCL: 2}[stat]]
    return out
