"""Arithmetic correspondence graphs on P^1(F_{q^r}).

The graph of a correspondence f(P) = g(Q) has the rational points of the
line as vertices and an oriented edge P -> Q whenever f(P) = g(Q).  Edge
construction buckets vertices by their f- and g-values and joins equal
values, so it is linear in the number of vertices.  Weakly connected
components are classified as

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

from .errors import DegreeMismatch, UnknownFormat
from .ff import FieldCtx
from .p1 import ProjPoint, RatMap, point_multiplicity_in_fiber
from .upoly import Poly


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


class TowerGraph:
    def __init__(self, f: RatMap, g: RatMap, ctx: FieldCtx):
        if f.d != g.d:
            raise DegreeMismatch(f"maps of degree {f.d} and {g.d}")
        if f.p != ctx.p or g.p != ctx.p:
            raise DegreeMismatch("maps and field have different characteristics")
        self.f = f
        self.g = g
        self.ctx = ctx
        self.d = f.d
        self.vertices = [ProjPoint.affine(x) for x in ctx.elements()]
        self.vertices.append(ProjPoint.infinity(ctx))
        self._index = {p: i for i, p in enumerate(self.vertices)}

        fval = [f.eval(p) for p in self.vertices]
        gval = [g.eval(p) for p in self.vertices]
        buckets: dict = {}
        for i, v in enumerate(gval):
            buckets.setdefault(v, []).append(i)
        self.out_adj = [buckets.get(v, []) for v in fval]
        self.out_deg = [len(a) for a in self.out_adj]
        self.in_deg = [0] * len(self.vertices)
        for adj in self.out_adj:
            for j in adj:
                self.in_deg[j] += 1

        self.ram_f = self._ram_flags(f)
        self.ram_g = self._ram_flags(g)
        self._components = None

    def _ram_flags(self, m: RatMap):
        """Vertex flags for ramification of m, via its Wronskian (tame here:
        the map degree is below the characteristic)."""
        w = Poly(self.ctx, m.wronskian_coeffs())
        flags = []
        for p in self.vertices:
            if p.is_infinity:
                flags.append(point_multiplicity_in_fiber(m, p) >= 2)
            else:
                flags.append(w.eval(p.x).is_zero() and not w.is_zero())
        return flags

    # -- basic accessors -----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return sum(self.out_deg)

    def index(self, point: ProjPoint) -> int:
        return self._index[point]

    def _as_indices(self, points):
        out = []
        for p in points:
            out.append(p if isinstance(p, int) else self._index[p])
        return out

    # -- components ---------------------------------------------------------------

    def components(self) -> list[ComponentReport]:
        if self._components is not None:
            return self._components
        n = self.n_vertices
        und = [[] for _ in range(n)]
        for u, adj in enumerate(self.out_adj):
            for v in adj:
                und[u].append(v)
                und[v].append(u)
        seen = [False] * n
        reports = []
        for start in range(n):
            if seen[start]:
                continue
            comp = []
            stack = [start]
            seen[start] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in und[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            comp.sort()
            reports.append(self._classify(comp))
        self._components = reports
        return reports

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
        return sum(counts[v] for v in allowed)

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
