"""Spans around frobg2's layers, patched in from outside the package.

Each layer function is replaced, in every frobg2 module that binds it
(``from .exact import poly_roots`` makes a second binding), by a wrapper
that times it.  Spans are kept in memory as per-layer totals and written
once when the process ends.  A span's self time is its duration minus
the durations of the spans it called.  Work the tracer itself adds
(counting DAG nodes, tagging scalar domains) runs outside every span
and is subtracted from the wall time the spans are compared against.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

perf = time.perf_counter

BUILD_LAYER = "genus2.build"
# layer -> (module, function) pairs
FUNCTION_LAYERS = {
    BUILD_LAYER: [("frobg2.genus2", name) for name in (
        "f2_reference", "g2_function", "decomposition_residual",
        "relation_expression", "o_difference_graphs")],
    "graphs.contract": [("frobg2.graphs", "graph_function")],
    "families.sample": [("frobg2.families", "sample")],
    "exact.poly_roots": [("frobg2.exact", "poly_roots")],
    "exact.residue": [("frobg2.exact", "residue"),
                      ("frobg2.exact", "residue_at_infinity")],
    "families.residue_suite": [("frobg2.families", "residue_identity_suite")],
    "radicals.tower": [("frobg2.radicals", "radical_tower")],
    "cli.emit": [("frobg2.cli", "_emit")],
}
# layer -> (module, class, methods)
METHOD_LAYERS = {
    "algebra.derive": ("frobg2.algebra", "Algebra",
                       ("partial_u", "partial_jet", "total_x")),
    "correlators.recursion": ("frobg2.correlators", "CorrelatorTable",
                              ("correlator_C", "correlator_D", "u_jet_coeff",
                               "edge_weight", "g_gradient")),
}
EVAL_LAYER = "expr.eval."  # + one of DOMAINS, the scalar type of the point
DOMAINS = ("fraction", "radical", "mpc")


class Tracer:
    def __init__(self, started):
        self.started = started  # perf_counter() when the process began
        self.post_import = None
        self.excluded_s = 0.0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.dag_nodes = []  # [builder, n, nodes] per outermost build call
        self.eval_nodes = defaultdict(int)
        self.missing = []
        self._stack = []  # one [child seconds, excluded_s at entry] per open span
        self._build_depth = 0
        # weak, so that tracing keeps no expression or point alive
        self._node_counts = weakref.WeakKeyDictionary()
        self._drawn = weakref.WeakSet()  # random_context points not yet evaluated
        self._gc_started = None
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._sid = None

    # -- spans ---------------------------------------------------------------

    def _timed(self, layer, fn, args, kwargs):
        stack = self._stack
        frame = [0.0, self.excluded_s]
        stack.append(frame)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf() - start - (self.excluded_s - frame[1])
            stack.pop()
            self.self_s[layer] += dur - frame[0]
            self.calls[layer] += 1
            if stack:
                stack[-1][0] += dur

    @contextmanager
    def excluding(self):
        """Time spent here belongs to the benchmark, not to the program."""
        start = perf()
        try:
            yield
        finally:
            self.excluded_s += perf() - start

    def _nodes(self, e):
        from frobg2.expr import node_count

        out = self._node_counts.get(e)
        if out is None:
            out = self._node_counts[e] = node_count(e)
        return out

    def _span(self, layer, fn):
        def traced(*args, **kwargs):
            return self._timed(layer, fn, args, kwargs)
        return traced

    def _build(self, fn):
        def traced(alg, *args, **kwargs):
            self._build_depth += 1
            try:
                out = self._timed(BUILD_LAYER, fn, (alg,) + args, kwargs)
            finally:
                self._build_depth -= 1
            if self._build_depth == 0:
                with self.excluding():
                    self.dag_nodes.append([fn.__name__, alg.n, self._nodes(out)])
            return out
        return traced

    def _sample(self, fn):
        def traced(spec, *args, **kwargs):
            if not spec.exact:
                self.counts["families.numeric_samples"] += 1
            return self._timed("families.sample", fn, (spec,) + args, kwargs)
        return traced

    def _random_context(self, fn):
        def traced(*args, **kwargs):
            ctx = fn(*args, **kwargs)
            self.counts["genus2.draws"] += 1
            self._drawn.add(ctx)
            return ctx
        return traced

    def _evaluate(self, fn):
        from frobg2.radicals import RadicalElem

        def domain(ctx):
            if ctx.mode != "exact":
                return "mpc"
            values = list(ctx.us) + list(ctx.hs) + list(ctx.gammas.values())
            if any(isinstance(v, RadicalElem) for v in values):
                return "radical"
            return "fraction"

        def traced(ctx, e):
            with self.excluding():
                tag = domain(ctx)
                nodes = self._nodes(e)
            out = self._timed(EVAL_LAYER + tag, fn, (ctx, e), {})
            self.eval_nodes[tag] += nodes
            if ctx in self._drawn:
                self._drawn.discard(ctx)
                self.counts["genus2.exact_trials"] += 1
            return out
        return traced

    def _counted(self, name, fn):
        def traced(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return traced

    # -- installation ----------------------------------------------------------

    def _rebind(self, original, wrapper):
        """Point every frobg2 module binding of ``original`` at ``wrapper``."""
        for name, module in list(sys.modules.items()):
            if name == "frobg2" or name.startswith("frobg2."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def install(self):
        """Patch every layer; call once the frobg2 modules in use are imported."""
        import mpmath

        self.post_import = perf()
        for layer, targets in FUNCTION_LAYERS.items():
            for module_name, attr in targets:
                if module_name not in sys.modules:
                    continue  # a session never imports frobg2.cli
                fn = getattr(sys.modules[module_name], attr, None)
                if fn is None:
                    self.missing.append("%s.%s" % (module_name, attr))
                    continue
                if layer == BUILD_LAYER:
                    wrapper = self._build(fn)
                elif layer == "families.sample":
                    wrapper = self._sample(fn)
                else:
                    wrapper = self._span(layer, fn)
                self._rebind(fn, wrapper)
        for layer, (module_name, cls_name, methods) in METHOD_LAYERS.items():
            cls = getattr(sys.modules[module_name], cls_name, None)
            for method in methods:
                fn = vars(cls).get(method) if cls else None
                if fn is None:
                    self.missing.append("%s.%s.%s" % (module_name, cls_name, method))
                    continue
                setattr(cls, method, self._span(layer, fn))
        algebra = sys.modules["frobg2.algebra"]
        algebra.EvalContext.evaluate = self._evaluate(algebra.EvalContext.evaluate)
        self._rebind(algebra.random_context, self._random_context(algebra.random_context))
        mpmath.polyroots = self._counted("exact.companion_fallbacks", mpmath.polyroots)
        gc.callbacks.append(self._on_gc)
        self._sid = self._next_sid()

    @staticmethod
    def _next_sid():
        # the interning counter of frobg2.expr, read and never written
        return sys.modules["frobg2.expr"]._next_sid[0]

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = perf()
        elif self._gc_started is not None:
            self.gc_s += perf() - self._gc_started
            self._gc_started = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def write(self, path):
        end = perf()
        gc.callbacks.remove(self._on_gc)
        record = {
            "import_s": self.post_import - self.started,
            "wall_s": end - self.post_import,
            "excluded_s": self.excluded_s,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "dag_nodes": self.dag_nodes,
            "eval_nodes": dict(self.eval_nodes),
            "nodes_created": self._next_sid() - self._sid,
            "gc_s": self.gc_s,
            "gc_gen2": self.gc_gen2,
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(record, fh)
