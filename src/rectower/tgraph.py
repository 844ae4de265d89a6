"""Arithmetic correspondence graphs on P^1(F_{q^r}).

The graph of a correspondence f(P) = g(Q) has the rational points of the
line as vertices and an oriented edge P -> Q whenever f(P) = g(Q).  Vertex
n < q is element n of ``FieldCtx.elements()``, whose digits base p are its
coefficients; vertex q is infinity.  The build evaluates f and g over
blocks of ``BLOCK`` field elements, into arrays allocated once, so its
temporaries are bounded by the block, not by q: a block's affine points are
held as arrays of base-p digits (``fieldarrays.FieldArrays``),
Horner's rule runs on those arrays with each product reduced once mod p and
mod the field modulus, so the arithmetic is exact, and each value is
encoded as its element index (q for infinity).  Division goes through the
norm without forming an inverse: N/D is N*c over the norm D*c, which lies
in F_p, for c the product of D's other conjugates D^p, ..., D^(p^(r-1)),
and the Frobenius is a linear map of the digits.  At infinity the value is
one ``RatMap.eval``.  The build keeps the codes and the out-degrees, and no
edge: u -> v exactly when f(u) = g(v), so the edges among any vertex set
come from its own codes (``_join``: a stable sort of the set by g-code, and
a count of each code), linear in its size.  The sort is a radix sort on
16-bit digits (``_stable_order``), as are the ones that group vertices by
component.  The join of every vertex is made on first use by a query that
needs all the edges (``out_adj``, ``components()`` and the exports): the
out-edges of u are ``dst[offsets[u]:offsets[u + 1]]``, in ascending order.
The codes, degrees and edge arrays are int32 while the edge count, at most
d(q + 1), stays below 2^31, and int64 past that.
Lines with more than ``MAX_VERTICES`` points are refused before any array
is built.

The graph holds index arrays only.  The in-degrees and the flags of the
vertices ramified for f and for g (the points of ``p1.ramification``) are
made on first read, as are the Python views (the ``ProjPoint`` vertices,
the ``out_adj`` lists, the degree and ramification lists, and each
component's points and witness), so a caller that asks for none of them
finds no root and makes O(1) points.

Weakly connected components are labelled by min-label hooking and pointer
jumping (Shiloach and Vishkin, J. Algorithms 3, 1982): each round hooks
every root to the least label across its edges, then jumps pointers until
each label is a root, so every vertex ends labelled with the least vertex
of its component.  They are classified as

* d-regular: every in- and out-degree equals d and no vertex is ramified
  for f or g (these split totally in the tower); out-degrees d suffice,
* singular: the component contains a directed path, with at least one
  edge, from a point ramified for f to a point ramified for g,
* other: everything else (typically fibers truncated by non-rationality).

Each query labels only the vertices it reads.  The d-regular vertex set
comes from the out-degrees: a vertex whose out-degree is not d taints its
in-neighbours, the u with f(u) = g(v), and so on back along every path, so
each round keeps the vertices whose d out-neighbours, the v with g(v) =
f(u), were all kept by the last, counted over the values.  What is left is
the regular set; only its own edges are labelled, to group it by
component.  The components that hold a point ramified for f come from a
frontier walk from those points over the values (``_closure``), which
needs no edge, and only their own edges are labelled, with a witness
searched in each.  A walk that has not closed within ``_WALK_STEPS`` steps
gives up: so large a closure is cheaper to read off the full labelling,
and a path count from its points walks every vertex instead.  Every vertex
is labelled and grouped only when ``components()`` or an export asks, and
reports are built only for the components asked for.

The exports label each vertex once from its digits and write the edges
straight from the edge arrays, with no points and no adjacency lists.

Path counting is exact vector iteration, never matrix powers, so memory
stays linear in the vertex count.  One walk answers a question at every
length (``path_counts`` inside a vertex set, ``singular_path_counts`` from
f- to g-ramified points inside the components that hold the former, which
out-edges never leave).  It relabels its vertex set to 0..k-1, joins the
set's own codes for the edges inside, and adds each vertex's count into
its successors by one array step per length.  The counts are int64 while
|start| * fan^k < 2^62, fan the largest out-degree inside, which bounds
every count and total, and exact Python ints past that.
"""

from __future__ import annotations

import json
import operator
from collections import deque
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (BadIndex, DegreeMismatch, FieldMismatch, FieldTooLarge, NoRegularComponent,
                     UnknownFormat)
from .ff import MAX_TABLE_ENTRIES, FieldCtx
from .fieldarrays import BLOCK, FieldArrays, field_arrays
from .p1 import ProjPoint, RatMap, ramification, require_tame

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
        self._members = members  # vertices grouped by component; this one's at [start:stop]
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
    label = np.arange(n, dtype=src.dtype)
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


def _grouped(n: int, src, dst):
    """The vertices 0..n-1 grouped by weak component over the edges, in
    order of their least vertex and ascending in each, and the bounds of
    the groups."""
    label = _component_labels(n, src, dst)
    members = _stable_order(label)
    # each component starts at its least vertex, its label
    return members, np.append(np.flatnonzero(label[members] == members), n)


def _join(f_codes, g_codes, n_codes: int):
    """The edges u -> v with f_codes[u] = g_codes[v] among the vertices
    0..k-1 with these codes, each below n_codes: the offsets of each
    vertex's out-edges, and their tails and heads, the tails ascending and
    each tail's heads ascending.  A stable sort by g-code puts the heads of
    each code in one ascending run, found by its first place and its count;
    the tables over the codes are zeroed lazily, so a small set touches few
    of their pages."""
    idx = f_codes.dtype
    by_g = _stable_order(g_codes).astype(idx)
    sorted_g = g_codes[by_g]
    runs = np.flatnonzero(np.diff(sorted_g, prepend=-1)).astype(idx)
    first = np.zeros(n_codes, dtype=idx)
    first[sorted_g[runs]] = runs
    deg = np.bincount(g_codes, minlength=n_codes)[f_codes].astype(idx)
    offsets = np.zeros(len(f_codes) + 1, dtype=idx)
    np.cumsum(deg, out=offsets[1:])
    src = np.repeat(np.arange(len(f_codes), dtype=idx), deg)
    shift = first[f_codes]
    shift -= offsets[:-1]
    position = np.arange(len(src), dtype=idx)
    position += shift[src]
    return offsets, src, by_g[position]


def _witnesses(members, bounds, keep, offsets, dst, ram_f, ram_g) -> dict:
    """For each component k in keep, ``members[bounds[k]:bounds[k + 1]]``,
    that has one, a shortest directed path (>= 1 edge) from a ram_f to a
    ram_g vertex, as indices, by k: breadth first over the out-edges
    ``dst[offsets[u]:offsets[u + 1]]``, which never leave a component."""
    def successors(u):
        return dst[offsets[u]:offsets[u + 1]].tolist()

    witnesses = {}
    for k in keep:
        comp = members[bounds[k]:bounds[k + 1]]
        sources = comp[ram_f[comp]].tolist()
        # a vertex's parent is the tail of the first edge that reaches it
        queue = deque((s, w) for s in sources for w in successors(s))
        sources, parent = set(sources), {}
        while queue:
            u, w = queue.popleft()
            if w in parent:
                continue
            parent[w] = u
            if ram_g[w]:
                path = [w]
                while path[-1] not in sources or len(path) < 2:
                    path.append(parent[path[-1]])
                witnesses[k] = path[::-1]
                break
            queue.extend((w, x) for x in successors(w))
    return witnesses


# steps of a closure walk before it gives way to the full labelling: eight
# cost about a third of that labelling, and the towers' walks end in 3 or 4
_WALK_STEPS = 8


class TowerGraph:
    def __init__(self, f: RatMap, g: RatMap, ctx: FieldCtx):
        if f.d != g.d:
            raise DegreeMismatch(f"maps of degree {f.d} and {g.d}")
        if f.p != ctx.p or g.p != ctx.p:
            raise FieldMismatch("maps and field have different characteristics")
        require_tame(f, "the graph")
        require_graph_size(ctx.p, ctx.r)
        self.f = f
        self.g = g
        self.ctx = ctx
        self.d = f.d
        q = ctx.order
        n = q + 1
        # every index array in int32 when the edge count, at most d per
        # vertex, stays below 2^31
        idx = np.int32 if self.d * n < 1 << 31 else np.int64
        field = field_arrays(ctx)
        fcode, gcode = np.empty(n, dtype=idx), np.empty(n, dtype=idx)
        for lo in range(0, q, BLOCK):
            hi = min(lo + BLOCK, q)
            x = field.digits(np.arange(lo, hi, dtype=np.int64))
            fcode[lo:hi] = self._value_codes(f, field, x)
            gcode[lo:hi] = self._value_codes(g, field, x)
        inf = ProjPoint.infinity(ctx)
        for codes, m in ((fcode, f), (gcode, g)):
            t = m.eval(inf)
            codes[q] = q if t.is_infinity else ctx.element_index(t.x)
        self.f_codes, self._g_codes = fcode, gcode
        # u's out-neighbours are the vertices whose g-code is u's f-code
        self._out_deg = np.bincount(gcode, minlength=n).astype(idx)[fcode]

    @staticmethod
    def _value_codes(m: RatMap, field: FieldArrays, x):
        """Element index of m at every affine point x of a block, with q
        standing for infinity."""
        p, den = field.p, m.den_coeffs
        if len(den) == 1:  # a constant denominator: no pole, its inverse in the numerator
            scale = pow(den[0], -1, p)
            return field.codes(field.horner([c * scale % p for c in m.num_coeffs], x))
        return field.quotient_codes(field.horner(m.num_coeffs, x), field.horner(den, x))

    # -- basic accessors -----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.ctx.order + 1

    @property
    def n_edges(self) -> int:
        return int(self._out_deg.sum())

    @cached_property
    def _edges(self):
        """Every edge: the offsets of each vertex's out-edges, their tails and
        their heads."""
        return _join(self.f_codes, self._g_codes, self.n_vertices)

    @cached_property
    def vertices(self) -> list:
        """The vertices as points, in index order."""
        return [_point(self.ctx, v) for v in range(self.n_vertices)]

    @cached_property
    def out_adj(self) -> list:
        """The out-neighbours of each vertex, ascending."""
        offsets, _, dst = (a.tolist() for a in self._edges)
        return [dst[a:b] for a, b in zip(offsets, offsets[1:])]

    @cached_property
    def _in_deg(self):
        # v's in-neighbours are the vertices whose f-code is v's g-code
        idx = self.f_codes.dtype
        return np.bincount(self.f_codes, minlength=self.n_vertices).astype(idx)[self._g_codes]

    def _ramified(self, m: RatMap):
        """Whether each vertex is ramified for m: the points of ``p1.ramification``."""
        flags = np.zeros(self.n_vertices, dtype=bool)
        flags[[self.index(P) for P in ramification(m, self.ctx, strict=False)]] = True
        return flags

    _ram_f = cached_property(lambda self: self._ramified(self.f))
    _ram_g = cached_property(lambda self: self._ramified(self.g))
    # the degrees and the flags as lists
    out_deg = cached_property(lambda self: self._out_deg.tolist())
    in_deg = cached_property(lambda self: self._in_deg.tolist())
    ram_f = cached_property(lambda self: self._ram_f.tolist())
    ram_g = cached_property(lambda self: self._ram_g.tolist())

    def successors(self, u: int) -> list[int]:
        """``out_adj[u]``, without the edges of the other vertices: one pass
        over the g-codes (for many vertices, read ``out_adj``)."""
        return np.flatnonzero(self._g_codes == self.f_codes[u]).tolist()

    def index(self, point: ProjPoint) -> int:
        """Position of a point of this graph's line among the vertices."""
        if point.ctx != self.ctx:
            raise FieldMismatch(f"point {point} lies over {point.ctx!r}, not {self.ctx!r}")
        return self.ctx.order if point.is_infinity else self.ctx.element_index(point.x)

    # -- components ---------------------------------------------------------------

    def _inner_edges(self, inside):
        """``_join`` over the ascending vertex array inside: the edges between
        its vertices, numbered by their places in it."""
        return _join(self.f_codes[inside], self._g_codes[inside], self.n_vertices)

    @cached_property
    def _regular(self):
        """The vertices of the d-regular components, grouped by component in
        order of their least vertex and ascending in each, and the bounds of
        the groups.  The vertices of out-degree d are whittled down: a round
        keeps those whose d out-neighbours (the vertices whose g-value is
        their f-value) were all kept by the last, counted over the values.
        Only what is left has its own edges labelled.

        The out-degrees decide, as the forms are coprime (``RatMap`` refuses
        a zero resultant).  The in-neighbours of v are the distinct points
        of f^-1(g(v)), at most d.  So a set of out-degree-d vertices closed
        under out-edges, which holds d edges per vertex, takes all d in-edges
        of each vertex from inside: it is a union of components, every
        in-degree d.  None of its vertices v is ramified: for g, an
        in-neighbour of v would have out-degree |g^-1(g(v))| < d, and for
        f, an out-neighbour of v in-degree |f^-1(f(v))| < d.  So what is
        left is the union of the d-regular components, and a component with
        every out-degree d is d-regular (``_table``)."""
        n, left = self.n_vertices, np.flatnonzero(self._out_deg == self.d)
        while True:
            keep = np.bincount(self._g_codes[left], minlength=n)[self.f_codes[left]] == self.d
            if keep.all():
                break
            left = left[keep]
        members, bounds = _grouped(len(left), *self._inner_edges(left)[1:])
        return left[members], bounds

    @cached_property
    def _closure(self):
        """The vertices of the components that hold a vertex ramified for f,
        ascending: a frontier walk over the values, each step taking every
        vertex whose g-value the last step's vertices hold as f-values (out-
        neighbours) or whose f-value they hold as g-values (in-neighbours).
        None when it has not closed within ``_WALK_STEPS`` steps: a closure
        that large is cheaper to read off the full labelling, and for a walk
        from its vertices every vertex stands in for it."""
        f, g, n = self.f_codes, self._g_codes, self.n_vertices
        frontier, unreached = np.flatnonzero(self._ram_f), ~self._ram_f
        held_f, held_g = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        for _ in range(_WALK_STEPS):
            held_f[f[frontier]] = True
            held_g[g[frontier]] = True
            new = held_f[g]
            new |= held_g[f]
            new &= unreached
            frontier = np.flatnonzero(new)
            if not len(frontier):
                return np.flatnonzero(~unreached)
            unreached[frontier] = False
        return None

    @cached_property
    def _singular(self):
        """The components that hold a vertex ramified for f, as ``_grouped``
        gives them, and the witness of each singular one by its place (every
        such component is irregular, so it is singular when it has one)."""
        inside = self._closure
        offsets, src, dst = self._inner_edges(inside)
        members, bounds = _grouped(len(inside), src, dst)
        witnesses = _witnesses(members, bounds, range(len(bounds) - 1), offsets, dst,
                               self._ram_f[inside], self._ram_g[inside])
        return inside[members], bounds, {k: inside[w].tolist() for k, w in witnesses.items()}

    @cached_property
    def _table(self):
        """All the weak components, in order of their least vertex:
        ``members`` holds every vertex grouped by component and ascending in
        each, component k is ``members[bounds[k]:bounds[k + 1]]``,
        ``codes[k]`` is its class code, and ``witnesses`` maps each singular
        k to its path (searched only where a vertex is ramified for f)."""
        members, bounds = _grouped(self.n_vertices, *self._edges[1:])
        irregular = np.logical_or.reduceat((self._out_deg != self.d)[members], bounds[:-1])
        codes = np.where(irregular, _OTHER, _REGULAR).astype(np.int8)
        held = np.logical_or.reduceat(self._ram_f[members], bounds[:-1])
        offsets, _, dst = self._edges
        witnesses = _witnesses(members, bounds, np.flatnonzero(held).tolist(), offsets, dst,
                               self._ram_f, self._ram_g)
        codes[list(witnesses)] = _SINGULAR
        return members, bounds, codes, witnesses

    def _reports(self, code=None) -> list[ComponentReport]:
        """Reports for the components of class ``code`` (all when None), in order."""
        members, bounds, codes, witnesses = self._table
        keep = np.arange(len(codes)) if code is None else np.flatnonzero(codes == code)
        classes = tuple(ComponentClass)
        return [ComponentReport(self.ctx, members, a, b, classes[c], witnesses.get(k))
                for k, a, b, c in zip(keep.tolist(), bounds[keep].tolist(),
                                      bounds[keep + 1].tolist(), codes[keep].tolist())]

    def components(self) -> list[ComponentReport]:
        """Weak components in order of their least vertex, each one sorted."""
        return self._reports()

    def regular_components(self) -> list[ComponentReport]:
        regular, bounds = self._regular
        return [ComponentReport(self.ctx, regular, a, b, ComponentClass.D_REGULAR, None)
                for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]

    def singular_components(self) -> list[ComponentReport]:
        if self._closure is None:
            return self._reports(_SINGULAR)
        members, bounds, witnesses = self._singular
        return [ComponentReport(self.ctx, members, int(bounds[k]), int(bounds[k + 1]),
                                ComponentClass.SINGULAR, path) for k, path in witnesses.items()]

    def regular_vertices(self) -> list[int]:
        """The vertex indices of the d-regular components, component by
        component, each ascending."""
        regular = self._regular[0]
        if not len(regular):
            raise NoRegularComponent(f"no d-regular component over {self.ctx!r}")
        return regular.tolist()

    # -- path counting -----------------------------------------------------------

    def count_paths(self, n: int, restrict=None) -> int:
        """Number of directed paths with n edges (n >= 0), optionally with
        every vertex inside ``restrict``; exact big integers."""
        return self.path_counts(n, restrict)[-1]

    def path_counts(self, n: int, restrict=None) -> list[int]:
        """``count_paths(k, restrict)`` for every k = 0..n, from one walk.
        ``restrict`` holds points of this graph's line or vertex indices of
        any integer type; an index off the line raises BadIndex."""
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
        the components that hold a vertex ramified for f (or every vertex,
        where ``_closure`` is None), which out-edges never leave."""
        return self._walk(n, self._closure, self._ram_f, self._ram_g)

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
        if inside is None:
            size, (_, src, dst) = self.n_vertices, self._edges
        else:  # relabel inside to 0..size-1, with the edges between its vertices
            size, (_, src, dst) = len(inside), self._inner_edges(inside)
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


def _vertex_labels(ctx: FieldCtx) -> list[str]:
    """``ProjPoint.label()`` of every vertex over ctx, in index order, each
    made once from the digits: the plain form joins one term per nonzero
    digit, built digit by digit for all the elements at once, and a power of
    the generator, where x generates, is read off the field's dlog table."""
    p, r = ctx.p, ctx.r
    labels = [""]  # the labels of the elements below p^i
    for i in range(r):
        var = "a" if i == 1 else f"a^{i}"
        terms = [""] + [str(c) if i == 0 else var if c == 1 else f"{c}*{var}" for c in range(1, p)]
        labels = [lo + "+" + t if lo and t else lo or t for t in terms for lo in labels]
    labels = [s or "0" for s in labels]
    dlog = ctx._dlog_table()
    for coeffs, k in (dlog or {}).items():
        labels[sum(c * p ** i for i, c in enumerate(coeffs))] = f"a^{k}"
    labels.append("inf")
    return labels


def graph_json_obj(graph: TowerGraph, include_edges: bool = False) -> dict:
    ctx = graph.ctx
    members, bounds, codes, _ = graph._table
    labels = _vertex_labels(ctx)
    names = [labels[v] for v in members.tolist()]  # grouped by component
    classes = tuple(ComponentClass)
    n_regular = int((codes == _REGULAR).sum())
    obj = {
        "p": ctx.p,
        "r": ctx.r,
        "modulus": ctx.modulus_str() if ctx.r > 1 else None,
        "f": str(graph.f),
        "g": str(graph.g),
        "components": [
            {"class": classes[c].value, "vertices": names[a:b], "size": b - a}
            for a, b, c in zip(bounds[:-1].tolist(), bounds[1:].tolist(), codes.tolist())
        ],
        "regular_components": n_regular,
        # theory predicts at most one; more than one is worth flagging
        "anomalous_regular_multiplicity": n_regular > 1,
    }
    if include_edges:
        _, src, dst = graph._edges
        obj["edges"] = [[labels[u], labels[v]] for u, v in zip(src.tolist(), dst.tolist())]
    return obj


def _export_dot(graph: TowerGraph) -> str:
    members, bounds, codes, _ = graph._table
    labels = _vertex_labels(graph.ctx)
    cls = np.empty(graph.n_vertices, dtype=np.int8)
    cls[members] = np.repeat(codes, np.diff(bounds))
    colors = [_DOT_COLORS[c] for c in ComponentClass]
    lines = ["digraph tower {", "  rankdir=LR;"]
    rows = zip(labels, cls.tolist(), graph._ram_f.tolist(), graph._ram_g.tolist())
    for i, (label, c, rf, rg) in enumerate(rows):
        lines.append(f'  n{i} [label="{label}", shape={_DOT_SHAPES[rf, rg]}, style=filled, '
                     f'fillcolor={colors[c]}];')
    _, src, dst = graph._edges
    lines.extend(f"  n{u} -> n{v};" for u, v in zip(src.tolist(), dst.tolist()))
    lines.append("}")
    return "\n".join(lines)
