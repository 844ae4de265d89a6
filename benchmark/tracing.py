"""Tracing from outside the program, for the traced run.

Nothing here edits rectower: callables are replaced by wrappers in every
rectower module namespace (and class) where callers look them up.  They are
public ones, plus three private ones whose time a metric names:
``series._a_mod_table``, ``search._certify`` and ``cli._emit``.

* Span pass: coarse calls get a span (name, start, end, parent), kept in
  memory.  A layer's self time is the part of its spans' durations that no
  child span covers.
* Count pass: hot per-element calls (field arithmetic, polynomial mul and
  divmod, map evaluation, search candidates, field scans) only bump
  counters.  It runs in its own worker so the counters do not inflate span
  times.

The untraced pass installs nothing.
"""

from __future__ import annotations

import functools
import importlib
import random
import statistics
import sys
import time

LAYERS = ("ff", "upoly", "p1", "divisor", "tgraph", "feq", "series", "genus",
          "search", "fixtures", "cli")

SPANS = {
    "ff": ("FieldCtx.__init__", "FieldCtx.sqrt"),
    "upoly": ("Poly.roots", "Poly.gcd", "Poly.pow_mod", "resultant", "compose_rational",
              "ratfun_proportional"),
    "p1": ("map_parse", "ratfun_parse", "point_parse", "fiber_counts", "fiber", "ramification",
           "point_multiplicity_in_fiber", "mobius_conjugate"),
    "divisor": ("pullback", "restricted_different", "principal_divisor", "divisor_to_function"),
    "tgraph": ("TowerGraph.__init__", "TowerGraph.components", "TowerGraph.count_paths",
               "TowerGraph.singular_paths"),
    "feq": ("is_complete", "divisorial_check", "regularness_check", "lenstra_check"),
    "series": ("_a_mod_table", "truncate_H_mod_p", "lucas_check", "coeff_a",
               "hypergeom_identity_check", "ode_check", "series_feq_check", "li_trick_check",
               "poly_feq_check", "functional_equation_holds"),
    "genus": ("asymptotic_report", "genus_closed", "genus_sum", "delta"),
    "search": ("search", "_certify"),
    "fixtures": ("load_fixture", "chi_from_graph", "splitting_points", "map_preimage",
                 "verify_fixture", "conjugate_check"),
    "cli": ("main", "_emit"),
}

# metric -> spans whose durations it sums; a span nested inside another span
# of the same metric is not counted twice
SPAN_TIMES = {
    "upoly.roots_s": ("upoly.Poly.roots",),
    "upoly.compose_s": ("upoly.compose_rational",),
    "p1.parse_s": ("p1.map_parse", "p1.ratfun_parse", "p1.point_parse"),
    "p1.fiber_s": ("p1.fiber_counts", "p1.fiber"),
    "divisor.s": tuple("divisor." + n for n in SPANS["divisor"]),
    "tgraph.build_s": ("tgraph.TowerGraph.__init__",),
    "tgraph.components_s": ("tgraph.TowerGraph.components",),
    "tgraph.paths_s": ("tgraph.TowerGraph.count_paths", "tgraph.TowerGraph.singular_paths"),
    "feq.complete_s": ("feq.is_complete",),
    "feq.divisorial_s": ("feq.divisorial_check",),
    "feq.regularness_s": ("feq.regularness_check",),
    "feq.lenstra_s": ("feq.lenstra_check",),
    "series.table_s": ("series._a_mod_table",),
    "series.exact_s": ("series.coeff_a", "series.hypergeom_identity_check", "series.ode_check",
                       "series.series_feq_check"),
    "genus.report_s": ("genus.asymptotic_report",),
    "search.certify_s": ("search._certify",),
    "fixtures.load_s": ("fixtures.load_fixture",),
    "fixtures.chi_s": ("fixtures.chi_from_graph",),
    "fixtures.splitting_s": ("fixtures.splitting_points",),
    "fixtures.preimage_s": ("fixtures.map_preimage",),
    "cli.emit_s": ("cli._emit",),
}
SPAN_CALLS = {
    "upoly.roots_calls": ("upoly.Poly.roots",),
    "tgraph.path_calls": ("tgraph.TowerGraph.count_paths", "tgraph.TowerGraph.singular_paths"),
    "series.lucas_calls": ("series.lucas_check",),
}
# metric -> span whose result length it sums
SPAN_SIZES = {
    "upoly.roots_found": "upoly.Poly.roots",
    "genus.rows": "genus.asymptotic_report",
    "search.survivors": "search.search",
}

COUNTS = {
    "ff.mul_calls": ("ff", ("FieldElem.__mul__", "FieldElem.__rmul__")),
    "ff.add_calls": ("ff", ("FieldElem.__add__", "FieldElem.__radd__")),
    "ff.inv_calls": ("ff", ("FieldElem.inverse",)),
    "upoly.mul_calls": ("upoly", ("Poly.__mul__", "Poly.__rmul__")),
    "upoly.divmod_calls": ("upoly", ("Poly.__divmod__",)),
    "p1.eval_calls": ("p1", ("RatMap.eval", "RatMap.__call__")),
    "search.candidates": ("search", ("constraint_check",)),
}


def _modules():
    return {name: importlib.import_module("rectower." + name) for name in LAYERS}


def _replace(modules, layer: str, path: str, make):
    """Swap the callable at layer.path for make(original), in its class or in
    every rectower namespace that holds it."""
    owner_name, _, attr = path.rpartition(".")
    mod = modules[layer]
    if owner_name:
        owner = getattr(mod, owner_name)
        setattr(owner, attr, make(owner.__dict__[attr]))
        return
    original = getattr(mod, attr)
    wrapped = make(original)
    for m in list(modules.values()) + [sys.modules["rectower"]]:
        for key, value in list(vars(m).items()):
            if value is original:
                setattr(m, key, wrapped)


class SpanTracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, result length]
        self._stack = []

    def install(self):
        modules = _modules()
        sizes = set(SPAN_SIZES.values())
        for layer, paths in SPANS.items():
            for path in paths:
                name = f"{layer}.{path}"
                _replace(modules, layer, path,
                         lambda fn, name=name: self._wrap(name, fn, name in sizes))

    def _wrap(self, name, fn, sized):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if sized:
                    rec[4] = len(result)
                return result
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def summary(self, op_seconds: float) -> dict:
        """Per-layer figures for one cycle whose operations took op_seconds."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for i, s in enumerate(spans):
            out[s[0].split(".", 1)[0] + ".self_s"] += dur[i] - child[i]
        for metric, names in SPAN_TIMES.items():
            out[metric] = sum(dur[i] for i in self._outermost(names))
        for metric, names in SPAN_CALLS.items():
            out[metric] = sum(1 for s in spans if s[0] in names)
        for metric, name in SPAN_SIZES.items():
            out[metric] = sum(s[4] for s in spans if s[0] == name)
        # the scan is the search call less the certification of its survivors
        out["search.scan_s"] = (sum(dur[i] for i in self._outermost(("search.search",)))
                                - out["search.certify_s"])
        out["trace.uncovered_s"] = op_seconds - sum(d for d, s in zip(dur, spans) if s[3] < 0)
        out["trace.spans"] = len(spans)
        return out

    def _outermost(self, names):
        spans = self.spans
        for i, s in enumerate(spans):
            if s[0] not in names:
                continue
            j = s[3]
            while j >= 0 and spans[j][0] not in names:
                j = spans[j][3]
            if j < 0:
                yield i


class Counters:
    def __init__(self):
        self.counts = {m: 0 for m in COUNTS}
        self.counts.update({"ff.elements_scanned": 0, "tgraph.vertices": 0, "tgraph.edges": 0})

    def install(self):
        modules = _modules()
        counts = self.counts
        for metric, (layer, paths) in COUNTS.items():
            for path in paths:
                _replace(modules, layer, path, lambda fn, metric=metric: self._wrap(metric, fn))

        def elements(fn):
            @functools.wraps(fn)
            def counted(ctx):
                for e in fn(ctx):
                    counts["ff.elements_scanned"] += 1
                    yield e
            return counted

        def build(fn):
            @functools.wraps(fn)
            def counted(graph, *args, **kwargs):
                fn(graph, *args, **kwargs)
                counts["tgraph.vertices"] += graph.n_vertices
                counts["tgraph.edges"] += graph.n_edges
            return counted

        _replace(modules, "ff", "FieldCtx.elements", elements)
        _replace(modules, "tgraph", "TowerGraph.__init__", build)

    def _wrap(self, metric, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        return counted


def _per_op(fn, reps: int, rounds: int = 5) -> float:
    """Median over rounds of the mean time of one call of fn(i), i < reps."""
    times = []
    for _ in range(rounds):
        t = time.perf_counter()
        for i in range(reps):
            fn(i)
        times.append((time.perf_counter() - t) / reps)
    return statistics.median(times)


def micro_timings(p: int, seed: int) -> dict:
    """Per-operation times on F_{p^2} (default modulus) and for a product of
    two degree p-1 polynomials over it, on seeded random operands."""
    from rectower.ff import FieldCtx
    from rectower.upoly import Poly

    ctx = FieldCtx(p, 2)
    rng = random.Random(seed)

    def rand_elems(k):
        return [ctx.elem((rng.randrange(p), rng.randrange(1, p))) for _ in range(k)]

    xs, ys = rand_elems(1000), rand_elems(1000)
    polys = [Poly(ctx, rand_elems(p)) for _ in range(2)]
    return {
        "ff.mul_ns": 1e9 * _per_op(lambda i: xs[i] * ys[i], len(xs)),
        "ff.add_ns": 1e9 * _per_op(lambda i: xs[i] + ys[i], len(xs)),
        "ff.inv_ns": 1e9 * _per_op(lambda i: xs[i].inverse(), 100),
        "upoly.mul_ms": 1e3 * _per_op(lambda i: polys[0] * polys[1], 1, rounds=3),
    }
