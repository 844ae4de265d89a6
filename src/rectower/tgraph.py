"""Arithmetic correspondence graphs on P^1(F_{q^r}).

The graph of a correspondence f(P) = g(Q) has the rational points of the
line as vertices and an oriented edge P -> Q whenever f(P) = g(Q).  The
build evaluates f, g and their Wronskians over the whole field at once:
the affine points are held as int64 arrays of base-p digits (element n of
``FieldCtx.elements()`` has digits (n // p^i) % p), Horner's rule runs on
those arrays with every product reduced mod p and mod the field modulus,
so the arithmetic is exact, and each value is encoded as its element index
(q for infinity).  Only the vertex at infinity goes through scalar
``RatMap`` evaluation.  Edges come from a sort join of the f-codes against
the g-codes, linear up to the sort in the number of vertices.  Lines with
more than ``MAX_VERTICES`` points are refused before any array is built.

Weakly connected components are found by union-find over the out-edges
(Tarjan, JACM 1975), each root the least vertex of its set, with no
undirected copy of the edges.  They are classified as

* d-regular: every in- and out-degree equals d and no vertex is ramified
  for f or g (these vertices split totally in the tower),
* singular: the component contains a directed path, with at least one
  edge, from a point ramified for f to a point ramified for g,
* other: everything else (typically fibers truncated by non-rationality).

Path counting uses exact big-integer vector iteration, never matrix
powers, so memory stays linear in the vertex count.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DegreeMismatch, FieldTooLarge, UnknownFormat
from .ff import MAX_TABLE_ENTRIES, FieldCtx, FieldElem
from .p1 import ProjPoint, RatMap, point_multiplicity_in_fiber

MAX_VERTICES = MAX_TABLE_ENTRIES  # q + 1 above this is refused before O(q) work


class ComponentClass(Enum):
    D_REGULAR = "d-regular"
    SINGULAR = "singular"
    OTHER = "other"


@dataclass
class ComponentReport:
    vertices: list
    cls: ComponentClass
    witness: Optional[list]  # a ram_f -> ram_g directed path, for singular

    @property
    def size(self) -> int:
        return len(self.vertices)


class _FieldArrays:
    """Every element of F_{p^r} at once, as r int64 arrays of base-p digits
    (ascending powers of the generator), in ``FieldCtx.elements()`` order.

    A value is a list of r arrays with entries in [0, p).  Before each
    reduction an entry is below 2r*p^2 in absolute value, far inside int64
    because q < 2^22."""

    def __init__(self, ctx: FieldCtx):
        self.p, self.r, self.q = ctx.p, ctx.r, ctx.order
        self.modulus = ctx.modulus
        n = np.arange(self.q, dtype=np.int64)
        self.x = [n // self.p ** i % self.p for i in range(self.r)]

    def mul(self, a, b):
        p, r = self.p, self.r
        prod = [0] * (2 * r - 1)
        for i in range(r):
            for j in range(r):
                prod[i + j] = prod[i + j] + a[i] * b[j]
        # reduce x^k for k >= r using x^r = -(m_{r-1}x^{r-1} + ... + m_0)
        for k in range(2 * r - 2, r - 1, -1):
            c = prod[k] % p
            for i in range(r):
                prod[k - r + i] = prod[k - r + i] - c * self.modulus[i]
        return [c % p for c in prod[:r]]

    def horner(self, coeffs):
        """The polynomial with ascending int coefficients at every element."""
        val = [np.zeros(self.q, dtype=np.int64) for _ in range(self.r)]
        for c in reversed(coeffs):
            val = self.mul(val, self.x)
            val[0] = (val[0] + c) % self.p
        return val

    def is_zero(self, a):
        return np.logical_and.reduce([c == 0 for c in a])

    def inverse(self, a):
        """a^(q-2): the inverse where a is nonzero, 0 where a is zero."""
        acc = [np.ones(self.q, dtype=np.int64)] + [
            np.zeros(self.q, dtype=np.int64) for _ in range(self.r - 1)]
        for bit in bin(self.q - 2)[2:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, a)
        return acc

    def codes(self, a):
        """Element indices of the values."""
        out = np.zeros(self.q, dtype=np.int64)
        for c in reversed(a):
            out = out * self.p + c
        return out


class TowerGraph:
    def __init__(self, f: RatMap, g: RatMap, ctx: FieldCtx):
        if f.d != g.d:
            raise DegreeMismatch(f"maps of degree {f.d} and {g.d}")
        if f.p != ctx.p or g.p != ctx.p:
            raise DegreeMismatch("maps and field have different characteristics")
        if ctx.order + 1 > MAX_VERTICES:
            raise FieldTooLarge(
                f"{ctx!r} has {ctx.order + 1} points; graphs are capped at "
                f"{MAX_VERTICES} vertices")
        self.f = f
        self.g = g
        self.ctx = ctx
        self.d = f.d
        field = _FieldArrays(ctx)
        rows = zip(*[c.tolist() for c in field.x])
        self.vertices = [ProjPoint.affine(FieldElem(ctx, x)) for x in rows]
        self.vertices.append(ProjPoint.infinity(ctx))

        self.f_codes = fcode = self._value_codes(f, field)
        gcode = self._value_codes(g, field)
        order = np.argsort(gcode, kind="stable")
        lo = np.searchsorted(gcode[order], fcode, side="left").tolist()
        hi = np.searchsorted(gcode[order], fcode, side="right").tolist()
        order = order.tolist()
        self.out_adj = [order[a:b] for a, b in zip(lo, hi)]
        self.out_deg = [b - a for a, b in zip(lo, hi)]
        self.in_deg = np.bincount(fcode, minlength=ctx.order + 1)[gcode].tolist()

        self.ram_f = self._ram_flags(f, field)
        self.ram_g = self._ram_flags(g, field)
        self._components = None

    def _value_codes(self, m: RatMap, field: _FieldArrays):
        """Element index of m at every vertex, with q standing for infinity."""
        q = self.ctx.order
        num, den = field.horner(m.N), field.horner(m.D)
        at_pole = field.is_zero(den)
        codes = np.where(at_pole, q, field.codes(field.mul(num, field.inverse(den))))
        t = m.eval(self.vertices[-1])
        at_inf = q if t.is_infinity else self.ctx.element_index(t.x)
        return np.append(codes, at_inf)

    def _ram_flags(self, m: RatMap, field: _FieldArrays):
        """Vertex flags for ramification of m, via its Wronskian (tame here:
        the map degree is below the characteristic)."""
        w = m.wronskian_coeffs()
        flags = field.is_zero(field.horner(w)).tolist() if w else [False] * field.q
        flags.append(point_multiplicity_in_fiber(m, self.vertices[-1]) >= 2)
        return flags

    # -- basic accessors -----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return sum(self.out_deg)

    def index(self, point: ProjPoint) -> int:
        """Position of a point of this graph's line among the vertices."""
        if point.ctx.key() != self.ctx.key():
            raise KeyError(point)
        return self.ctx.order if point.is_infinity else self.ctx.element_index(point.x)

    def _as_indices(self, points):
        return [p if isinstance(p, int) else self.index(p) for p in points]

    # -- components ---------------------------------------------------------------

    def components(self) -> list[ComponentReport]:
        """Weak components in order of their least vertex, each one sorted."""
        if self._components is not None:
            return self._components
        root = list(range(self.n_vertices))
        for u, adj in enumerate(self.out_adj):
            for v in adj:  # u and v step up to their roots, halving the paths
                while root[u] != u:
                    root[u] = u = root[root[u]]
                while root[v] != v:
                    root[v] = v = root[root[v]]
                if u != v:
                    root[max(u, v)] = min(u, v)
        groups = {}
        for v in range(self.n_vertices):  # a parent is below its child: one step
            root[v] = r = root[root[v]]
            groups.setdefault(r, []).append(v)
        self._components = [self._classify(comp) for comp in groups.values()]
        return self._components

    def _classify(self, comp: list[int]) -> ComponentReport:
        regular = all(
            self.out_deg[v] == self.d and self.in_deg[v] == self.d
            and not self.ram_f[v] and not self.ram_g[v]
            for v in comp)
        if regular:
            return ComponentReport([self.vertices[v] for v in comp],
                                   ComponentClass.D_REGULAR, None)
        witness = self._singular_witness(comp)
        cls = ComponentClass.SINGULAR if witness else ComponentClass.OTHER
        return ComponentReport([self.vertices[v] for v in comp], cls, witness)

    def _singular_witness(self, comp: list[int]):
        """Shortest directed path (>= 1 edge) from a ram_f to a ram_g vertex."""
        comp_set = set(comp)
        parent = {}
        queue = deque()
        for s in comp:
            if not self.ram_f[s]:
                continue
            for w in self.out_adj[s]:
                if w in comp_set and w not in parent:
                    parent[w] = s
                    queue.append(w)
        sources = {v for v in comp if self.ram_f[v]}
        while queue:
            u = queue.popleft()
            if self.ram_g[u]:
                path = [u]
                while path[-1] not in sources or len(path) < 2:
                    path.append(parent[path[-1]])
                path.reverse()
                return [self.vertices[v] for v in path]
            for w in self.out_adj[u]:
                if w in comp_set and w not in parent:
                    parent[w] = u
                    queue.append(w)
        return None

    def regular_components(self) -> list[ComponentReport]:
        return [c for c in self.components() if c.cls is ComponentClass.D_REGULAR]

    def singular_components(self) -> list[ComponentReport]:
        return [c for c in self.components() if c.cls is ComponentClass.SINGULAR]

    # -- path counting -----------------------------------------------------------

    def count_paths(self, n: int, restrict=None) -> int:
        """Number of directed paths with n edges (n >= 0), optionally with
        every vertex inside ``restrict``; exact big integers."""
        return self.path_counts(n, restrict)[-1]

    def path_counts(self, n: int, restrict=None) -> list[int]:
        """``count_paths(k, restrict)`` for every k = 0..n, from one vector
        iteration."""
        if n < 0:
            raise ValueError("path length must be >= 0")
        if restrict is None:
            allowed = range(self.n_vertices)
            inside = [True] * self.n_vertices
        else:
            idxs = self._as_indices(restrict)
            inside = [False] * self.n_vertices
            for i in idxs:
                inside[i] = True
            allowed = sorted(set(idxs))
        counts = [1 if inside[v] else 0 for v in range(self.n_vertices)]
        totals = [sum(counts[v] for v in allowed)]
        for _ in range(n):
            nxt = [0] * self.n_vertices
            for u in allowed:
                c = counts[u]
                if not c:
                    continue
                for v in self.out_adj[u]:
                    if inside[v]:
                        nxt[v] += c
            counts = nxt
            totals.append(sum(counts[v] for v in allowed))
        return totals

    def singular_paths(self, n: int) -> int:
        """Number of directed paths with n >= 1 edges starting at a vertex
        ramified for f and ending at a vertex ramified for g."""
        if n < 1:
            raise ValueError("singular paths need at least one edge")
        counts = [1 if self.ram_f[v] else 0 for v in range(self.n_vertices)]
        for _ in range(n):
            nxt = [0] * self.n_vertices
            for u, c in enumerate(counts):
                if c:
                    for v in self.out_adj[u]:
                        nxt[v] += c
            counts = nxt
        return sum(c for v, c in enumerate(counts) if self.ram_g[v])


# ---------------------------------------------------------------------------
# export

_DOT_COLORS = {
    ComponentClass.D_REGULAR: "palegreen",
    ComponentClass.SINGULAR: "lightcoral",
    ComponentClass.OTHER: "lightgray",
}


def graph_export(graph: TowerGraph, fmt: str, include_edges: bool = False) -> str:
    if fmt == "json":
        return json.dumps(graph_json_obj(graph, include_edges), indent=2)
    if fmt == "dot":
        return _export_dot(graph)
    raise UnknownFormat(f"unknown export format {fmt!r}")


def graph_json_obj(graph: TowerGraph, include_edges: bool = False) -> dict:
    ctx = graph.ctx
    n_regular = len(graph.regular_components())
    obj = {
        "p": ctx.p,
        "r": ctx.r,
        "modulus": ctx.modulus_str() if ctx.r > 1 else None,
        "f": str(graph.f),
        "g": str(graph.g),
        "components": [
            {
                "class": c.cls.value,
                "vertices": [v.label() for v in c.vertices],
                "size": c.size,
            }
            for c in graph.components()
        ],
        "regular_components": n_regular,
        # theory predicts at most one; more than one is worth flagging
        "anomalous_regular_multiplicity": n_regular > 1,
    }
    if include_edges:
        obj["edges"] = [
            [graph.vertices[u].label(), graph.vertices[v].label()]
            for u in range(graph.n_vertices)
            for v in graph.out_adj[u]
        ]
    return obj


def _export_dot(graph: TowerGraph) -> str:
    lines = ["digraph tower {", "  rankdir=LR;"]
    comp_of = {}
    for c in graph.components():
        for v in c.vertices:
            comp_of[graph.index(v)] = c.cls
    for i, p in enumerate(graph.vertices):
        shape = "ellipse"
        if graph.ram_f[i] and graph.ram_g[i]:
            shape = "hexagon"
        elif graph.ram_f[i]:
            shape = "box"
        elif graph.ram_g[i]:
            shape = "diamond"
        color = _DOT_COLORS[comp_of[i]]
        lines.append(
            f'  n{i} [label="{p.label()}", shape={shape}, style=filled, fillcolor={color}];')
    for u in range(graph.n_vertices):
        for v in graph.out_adj[u]:
            lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines)
