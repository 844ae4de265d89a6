"""Arithmetic correspondence graphs on P^1(F_{q^r}).

The graph of a correspondence f(P) = g(Q) has the rational points of the
line as vertices and an oriented edge P -> Q whenever f(P) = g(Q).  Vertex
n < q is element n of ``FieldCtx.elements()``, whose digits base p are its
coefficients; vertex q is infinity.  The build evaluates f, g and their
Wronskians over the whole field at once: the affine points are held as
int64 arrays of base-p digits, Horner's rule runs on those arrays with
every product reduced mod p and mod the field modulus, so the arithmetic is
exact, and each value is encoded as its element index (q for infinity).
Division goes through the norm: a^-1 is the product c of a's other
conjugates a^p, ..., a^(p^(r-1)) over a*c, which lies in F_p, and the
Frobenius is a linear map of the digits.  Only the vertex at infinity goes
through scalar ``RatMap`` evaluation.  Edges come from a join of the
f-codes against the g-codes (a stable sort of the vertices by g-code, and
a count of each code), linear in the number of vertices: the sort is a
radix sort on 16-bit digits (``_stable_order``), as is the one that groups
the vertices by component.  Edges are kept as arrays: the out-edges of u are
``dst[offsets[u]:offsets[u + 1]]``, in ascending order.  Lines with more
than ``MAX_VERTICES`` points are refused before any array is built.

The graph holds index arrays only.  The Python views of them (the
``ProjPoint`` vertices, the ``out_adj`` lists, the degree and ramification
lists, and each component's points and witness) are built on first access,
so a caller that asks for none of them makes O(1) points.

Weakly connected components are found over the edge arrays by min-label
hooking and pointer jumping (Shiloach and Vishkin, J. Algorithms 3, 1982):
each round hooks every root to the least label across its edges, then
jumps pointers until each label is a root, so every vertex ends labelled
with the least vertex of its component.  They are classified as

* d-regular: every in- and out-degree equals d and no vertex is ramified
  for f or g (these vertices split totally in the tower),
* singular: the component contains a directed path, with at least one
  edge, from a point ramified for f to a point ramified for g,
* other: everything else (typically fibers truncated by non-rationality).

A component is d-regular when none of its vertices is flagged bad (a degree
other than d, or ramified), which one array reduction decides for all of
them; the witness search runs only in the other components that hold a
point ramified for f.  The partition is one table per graph (the vertices
grouped by component, a class code per component, the singular witnesses):
reports are built only for the components asked for, and none for
``regular_vertices``.

Path counting is exact vector iteration, never matrix powers, so memory
stays linear in the vertex count.  One walk answers a question at every
length (``path_counts`` inside a vertex set, ``singular_path_counts`` from
f- to g-ramified points inside the components that hold the former, which
out-edges never leave).  It relabels its vertex set to 0..k-1, takes the
edges inside once from the edge arrays, and adds each vertex's count into
its successors by one array step per length.  The counts are int64 while
|start| * fan^k < 2^62, fan the largest out-degree inside, which bounds
every count and total, and exact Python ints past that.
"""

from __future__ import annotations

import json
from collections import deque
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BadIndex, DegreeMismatch, FieldTooLarge, NoRegularComponent, UnknownFormat
from .ff import MAX_TABLE_ENTRIES, FieldCtx
from .p1 import ProjPoint, RatMap, point_multiplicity_in_fiber, require_tame

MAX_VERTICES = MAX_TABLE_ENTRIES  # q + 1 above this is refused before O(q) work


def require_graph_size(p: int, r: int):
    """Refuse the line over F_{p^r} (r >= 1) with more than MAX_VERTICES
    points, before the field's default modulus search, slow at large r."""
    if r >= 1 and p ** r + 1 > MAX_VERTICES:
        raise FieldTooLarge(f"F_{p}^{r} has {p}^{r} + 1 points; graphs are capped at "
                            f"{MAX_VERTICES} vertices")


class ComponentClass(Enum):
    D_REGULAR = "d-regular"
    SINGULAR = "singular"
    OTHER = "other"


_REGULAR, _SINGULAR, _OTHER = range(3)  # class codes: positions in ComponentClass


def _point(ctx: FieldCtx, n: int) -> ProjPoint:
    """Vertex n of the graph over ctx as a point."""
    return ProjPoint.infinity(ctx) if n == ctx.order else ProjPoint.affine(ctx.element(n))


class ComponentReport:
    """One weak component: its class, its vertices in ascending order, and
    for a singular component a shortest ram_f -> ram_g directed path (the
    witness).  The points are built from the index data on each access; a
    report holds no reference to its graph."""

    __slots__ = ("cls", "_ctx", "_members", "_start", "_stop", "_path")

    def __init__(self, ctx: FieldCtx, members, start: int, stop: int,
                 cls: ComponentClass, path: Optional[list]):
        self.cls = cls
        self._ctx = ctx
        self._members = members  # every component's vertices; this one's at [start:stop]
        self._start, self._stop = start, stop
        self._path = path

    @property
    def size(self) -> int:
        return self._stop - self._start

    @property
    def indices(self) -> list[int]:
        """The vertex indices, ascending."""
        return self._members[self._start:self._stop].tolist()

    @property
    def vertices(self) -> list:
        return [_point(self._ctx, v) for v in self.indices]

    @property
    def witness(self) -> Optional[list]:
        """A ram_f -> ram_g directed path as points, for a singular component."""
        return None if self._path is None else [_point(self._ctx, v) for v in self._path]


class FieldArrays:
    """Elements of F_{p^r} as r int64 arrays of base-p digits (ascending
    powers of the generator), one entry per element, for arrays of any
    length.  Element n of ``FieldCtx.elements()`` has digits (n // p^i) % p.

    A value is a list of r arrays with entries in [0, p).  Before each
    reduction an entry is below 2r*p^2 in absolute value, far inside int64
    because q < 2^22."""

    def __init__(self, ctx: FieldCtx):
        self.p, self.r, self.q = ctx.p, ctx.r, ctx.order
        self.modulus = ctx.modulus
        # the Frobenius is F_p-linear: the digits of (x^i)^p for each i
        self._frobenius = [ctx.element(self.p ** i).frobenius().coeffs for i in range(self.r)]

    def digits(self, codes):
        """The elements with the given indices."""
        return [codes // self.p ** i % self.p for i in range(self.r)]

    def codes(self, a):
        """Element indices of the values."""
        out = a[-1]
        for c in reversed(a[:-1]):
            out = out * self.p + c
        return out

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

    def frobenius(self, a):
        """a^p, as a linear map of the digits."""
        out = [np.zeros_like(a[0]) for _ in range(self.r)]
        for i, image in enumerate(self._frobenius):
            for j, c in enumerate(image):
                out[j] = out[j] + a[i] * c
        return [c % self.p for c in out]

    def horner(self, coeffs, x):
        """The polynomial with ascending int coefficients (at least one) at
        every x."""
        p = self.p
        if len(coeffs) == 1:
            return [np.full_like(x[0], coeffs[0] % p)] + [np.zeros_like(x[0])] * (self.r - 1)
        val = [d * (coeffs[-1] % p) % p for d in x]  # c_n x: a scalar scale, no mul
        val[0] = (val[0] + coeffs[-2]) % p
        for c in reversed(coeffs[:-2]):
            val = self.mul(val, x)
            val[0] = (val[0] + c) % p
        return val

    def is_zero(self, a):
        return np.logical_and.reduce([c == 0 for c in a])

    def inverse(self, a):
        """The inverse where a is nonzero, 0 where a is zero: the product c
        of a's other conjugates a^p, ..., a^(p^(r-1)), over the norm a*c,
        which lies in F_p."""
        p = self.p
        c = [np.ones_like(a[0])] + [np.zeros_like(a[0])] * (self.r - 1)
        conjugate = a
        for _ in range(self.r - 1):
            conjugate = self.frobenius(conjugate)
            c = self.mul(c, conjugate)
        inv = np.array([0] + [pow(k, -1, p) for k in range(1, p)], dtype=np.int64)
        scale = inv[self.mul(a, c)[0]]
        return [d * scale % p for d in c]


def _stable_order(keys):
    """``np.argsort(keys, kind="stable")`` for keys in [0, 2^32), by a least
    significant digit first radix sort on uint16 digits: numpy sorts 16-bit
    keys stably by radix, in linear time, where wider keys take a comparison
    sort.  One pass for keys below 2^16, two up to 2^32."""
    order = np.argsort(keys.astype(np.uint16), kind="stable")  # the low digit
    if len(keys) and keys.max() >> 16:
        order = order[np.argsort((keys[order] >> 16).astype(np.uint16), kind="stable")]
    return order


def _component_labels(n: int, src, dst):
    """Each vertex's least weakly connected vertex, over the edges
    src[i] -> dst[i]: min-label hooking and pointer jumping."""
    label = np.arange(n)
    while len(src):
        ls, ld = label[src], label[dst]
        unsettled = ls != ld  # an edge whose ends share a root stays so
        src, dst, ls, ld = src[unsettled], dst[unsettled], ls[unsettled], ld[unsettled]
        np.minimum.at(label, ls, ld)  # every label is a root: hook roots
        np.minimum.at(label, ld, ls)
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped
    return label


class TowerGraph:
    def __init__(self, f: RatMap, g: RatMap, ctx: FieldCtx):
        if f.d != g.d:
            raise DegreeMismatch(f"maps of degree {f.d} and {g.d}")
        if f.p != ctx.p or g.p != ctx.p:
            raise DegreeMismatch("maps and field have different characteristics")
        require_tame(f, "the graph")
        require_graph_size(ctx.p, ctx.r)
        self.f = f
        self.g = g
        self.ctx = ctx
        self.d = f.d
        n = ctx.order + 1
        field = FieldArrays(ctx)
        x = field.digits(np.arange(ctx.order, dtype=np.int64))
        inf = ProjPoint.infinity(ctx)

        self.f_codes = fcode = self._value_codes(f, field, x, inf)
        gcode = self._value_codes(g, field, x, inf)
        # the out-neighbours of u: the vertices whose g-code is u's f-code,
        # ascending, at [lo[u], lo[u] + out_deg[u]) of the vertices sorted
        # by g-code
        by_g = _stable_order(gcode)
        g_count = np.bincount(gcode, minlength=n)
        lo = (np.cumsum(g_count) - g_count)[fcode]
        self._out_deg = g_count[fcode]
        self._in_deg = np.bincount(fcode, minlength=n)[gcode]
        self._offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._out_deg, out=self._offsets[1:])
        self._src = np.repeat(np.arange(n), self._out_deg)
        self._dst = by_g[np.arange(len(self._src)) + (lo - self._offsets[:-1])[self._src]]

        self._ram_f = self._ram_flags(f, field, x, inf)
        self._ram_g = self._ram_flags(g, field, x, inf)

    def _value_codes(self, m: RatMap, field: FieldArrays, x, inf: ProjPoint):
        """Element index of m at every vertex, with q standing for infinity."""
        q = self.ctx.order
        num = field.horner(m.N, x)
        if len(m.den_coeffs) == 1:  # a constant denominator: no pole, one scalar inverse
            scale = pow(m.den_coeffs[0], -1, field.p)
            codes = field.codes([c * scale % field.p for c in num])
        else:
            den = field.horner(m.D, x)
            codes = np.where(field.is_zero(den), q,
                             field.codes(field.mul(num, field.inverse(den))))
        t = m.eval(inf)
        at_inf = q if t.is_infinity else self.ctx.element_index(t.x)
        return np.append(codes, at_inf)

    def _ram_flags(self, m: RatMap, field: FieldArrays, x, inf: ProjPoint):
        """Vertex flags for ramification of m, via its Wronskian (tame here:
        the map degree is below the characteristic)."""
        w = m.wronskian_coeffs()
        flags = field.is_zero(field.horner(w, x)) if w else np.zeros(field.q, dtype=bool)
        return np.append(flags, point_multiplicity_in_fiber(m, inf) >= 2)

    # -- basic accessors -----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.ctx.order + 1

    @property
    def n_edges(self) -> int:
        return len(self._dst)

    @cached_property
    def vertices(self) -> list:
        """The vertices as points, in index order."""
        return [_point(self.ctx, v) for v in range(self.n_vertices)]

    @cached_property
    def out_adj(self) -> list:
        """The out-neighbours of each vertex, ascending."""
        dst, offsets = self._dst.tolist(), self._offsets.tolist()
        return [dst[a:b] for a, b in zip(offsets, offsets[1:])]

    @cached_property
    def out_deg(self) -> list:
        return self._out_deg.tolist()

    @cached_property
    def in_deg(self) -> list:
        return self._in_deg.tolist()

    @cached_property
    def ram_f(self) -> list:
        return self._ram_f.tolist()

    @cached_property
    def ram_g(self) -> list:
        return self._ram_g.tolist()

    def successors(self, u: int) -> list[int]:
        """``out_adj[u]``, without building the lists of the other vertices."""
        return self._dst[self._offsets[u]:self._offsets[u + 1]].tolist()

    def index(self, point: ProjPoint) -> int:
        """Position of a point of this graph's line among the vertices."""
        if point.ctx.key() != self.ctx.key():
            raise KeyError(point)
        return self.ctx.order if point.is_infinity else self.ctx.element_index(point.x)

    # -- components ---------------------------------------------------------------

    @cached_property
    def _table(self):
        """The weak components, in order of their least vertex: ``members``
        holds every vertex grouped by component and ascending in each,
        component k is ``members[bounds[k]:bounds[k + 1]]``, ``codes[k]`` is
        its class code, ``witnesses`` maps each singular k to its path, and
        ``held`` flags the vertices whose component holds a point ramified
        for f."""
        n = self.n_vertices
        label = _component_labels(n, self._src, self._dst)
        bad = ((self._out_deg != self.d) | (self._in_deg != self.d)
               | self._ram_f | self._ram_g)
        irregular = np.bincount(label[bad], minlength=n) > 0  # by root
        has_ram_f = np.bincount(label[self._ram_f], minlength=n) > 0
        # by component, then by vertex: each component starts at its root
        members = _stable_order(label)
        bounds = np.append(np.flatnonzero(label[members] == members), n)
        roots = members[bounds[:-1]]
        codes = np.where(irregular[roots], _OTHER, _REGULAR).astype(np.int8)
        witnesses = {k: path for k in np.flatnonzero(irregular[roots] & has_ram_f[roots]).tolist()
                     if (path := self._singular_witness(members[bounds[k]:bounds[k + 1]]))}
        codes[list(witnesses)] = _SINGULAR
        return members, bounds, codes, witnesses, has_ram_f[label]

    def _reports(self, code=None) -> list[ComponentReport]:
        """Reports for the components of class ``code`` (all when None), in order."""
        members, bounds, codes, witnesses, _ = self._table
        keep = np.arange(len(codes)) if code is None else np.flatnonzero(codes == code)
        classes = tuple(ComponentClass)
        return [ComponentReport(self.ctx, members, a, b, classes[c], witnesses.get(k))
                for k, a, b, c in zip(keep.tolist(), bounds[keep].tolist(),
                                      bounds[keep + 1].tolist(), codes[keep].tolist())]

    def components(self) -> list[ComponentReport]:
        """Weak components in order of their least vertex, each one sorted."""
        return self._reports()

    def regular_components(self) -> list[ComponentReport]:
        return self._reports(_REGULAR)

    def singular_components(self) -> list[ComponentReport]:
        return self._reports(_SINGULAR)

    def regular_vertices(self) -> list[int]:
        """The vertex indices of the d-regular components, component by
        component, each ascending."""
        members, bounds, codes, _, _ = self._table
        regular = members[np.repeat(codes == _REGULAR, np.diff(bounds))]
        if not len(regular):
            raise NoRegularComponent(f"no d-regular component over {self.ctx!r}")
        return regular.tolist()

    def _singular_witness(self, comp):
        """Shortest directed path (>= 1 edge) from a ram_f to a ram_g vertex
        of a component (an index array), as indices (out-edges never leave a
        component)."""
        sources = comp[self._ram_f[comp]].tolist()
        # breadth first over edges: a vertex's parent is the tail of the
        # first edge that reaches it
        queue = deque((s, w) for s in sources for w in self.successors(s))
        sources, parent = set(sources), {}
        while queue:
            u, w = queue.popleft()
            if w in parent:
                continue
            parent[w] = u
            if self._ram_g[w]:
                path = [w]
                while path[-1] not in sources or len(path) < 2:
                    path.append(parent[path[-1]])
                return path[::-1]
            queue.extend((w, x) for x in self.successors(w))
        return None

    # -- path counting -----------------------------------------------------------

    def count_paths(self, n: int, restrict=None) -> int:
        """Number of directed paths with n edges (n >= 0), optionally with
        every vertex inside ``restrict``; exact big integers."""
        return self.path_counts(n, restrict)[-1]

    def path_counts(self, n: int, restrict=None) -> list[int]:
        """``count_paths(k, restrict)`` for every k = 0..n, from one walk.
        ``restrict`` holds points of this graph's line or vertex indices of
        any integer type; an index off the line raises BadIndex."""
        import operator  # operator.index takes any integer type, numpy's too

        if restrict is None:
            return self._walk(n)
        inside = np.zeros(self.n_vertices, dtype=bool)
        for v in restrict:
            i = self.index(v) if isinstance(v, ProjPoint) else operator.index(v)
            if not 0 <= i < self.n_vertices:
                raise BadIndex(f"vertex index {i} outside [0, {self.n_vertices - 1}]")
            inside[i] = True
        return self._walk(n, np.flatnonzero(inside))

    def singular_paths(self, n: int) -> int:
        """Number of directed paths with n >= 1 edges starting at a vertex
        ramified for f and ending at a vertex ramified for g."""
        if n < 1:
            raise ValueError("singular paths need at least one edge")
        return self.singular_path_counts(n)[-1]

    def singular_path_counts(self, n: int) -> list[int]:
        """The number of directed paths with k edges from a vertex ramified
        for f to one ramified for g, for every k = 0..n, from one walk inside
        the components that hold a vertex ramified for f."""
        held = self._table[4]
        return self._walk(n, np.flatnonzero(held), self._ram_f, self._ram_g)

    def _walk(self, n: int, inside=None, start=None, ends=None) -> list[int]:
        """The numbers of directed paths with 0, 1, ..., n edges inside the
        ascending vertex array ``inside`` (every vertex when None), from
        where the flags ``start`` hold (anywhere when None) to where the
        flags ``ends`` hold (anywhere when None), as Python ints.  Each step
        adds every count into its successors, in int64 while |start| * fan^k
        < 2^62 bounds every count and sum, fan the largest out-degree inside,
        and in exact Python ints past that."""
        if n < 0:
            raise ValueError("path length must be >= 0")
        src, dst, size = self._src, self._dst, self.n_vertices
        if inside is not None:  # relabel inside to 0..size-1, and keep the edges inside
            local = np.full(size, -1, dtype=np.int64)
            size = len(inside)
            local[inside] = np.arange(size)
            deg = self._out_deg[inside]
            src = np.repeat(np.arange(size), deg)
            first = np.repeat(self._offsets[inside] - np.cumsum(deg) + deg, deg)
            dst = local[dst[first + np.arange(len(src))]]
            src, dst = src[dst >= 0], dst[dst >= 0]
            start, ends = (None if f is None else f[inside] for f in (start, ends))
        counts = np.ones(size, dtype=np.int64) if start is None else start.astype(np.int64)
        fan = int(np.bincount(src, minlength=1).max())
        bound, totals = int(counts.sum()), []
        while True:
            totals.append(int((counts if ends is None else counts[ends]).sum()))
            if len(totals) > n:
                return totals
            bound *= fan
            if bound >= 1 << 62 and counts.dtype != object:
                counts = counts.astype(object)  # exact Python ints from here on
            nxt = np.zeros(size, dtype=counts.dtype)
            np.add.at(nxt, dst, counts[src])
            counts = nxt


# ---------------------------------------------------------------------------
# export

_DOT_COLORS = {
    ComponentClass.D_REGULAR: "palegreen",
    ComponentClass.SINGULAR: "lightcoral",
    ComponentClass.OTHER: "lightgray",
}
_DOT_SHAPES = {  # by (ramified for f, ramified for g)
    (False, False): "ellipse", (True, False): "box",
    (False, True): "diamond", (True, True): "hexagon",
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
    comp_of = {v: c.cls for c in graph.components() for v in c.indices}
    for i, p in enumerate(graph.vertices):
        shape = _DOT_SHAPES[graph.ram_f[i], graph.ram_g[i]]
        color = _DOT_COLORS[comp_of[i]]
        lines.append(
            f'  n{i} [label="{p.label()}", shape={shape}, style=filled, fillcolor={color}];')
    for u in range(graph.n_vertices):
        for v in graph.out_adj[u]:
            lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines)
