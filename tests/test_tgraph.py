"""Correspondence graph construction, component classification, path
counting, and export."""

import gc
import json
import random
import weakref

import numpy as np
import pytest

from rectower import cli, fixtures
from rectower.errors import (
    DegreeMismatch,
    FieldTooLarge,
    NoRegularComponent,
    TowerError,
    UnknownFormat,
)
from rectower.ff import FieldCtx
from rectower.p1 import (
    ProjPoint,
    fiber_counts,
    map_parse,
    point_multiplicity_in_fiber,
    point_parse,
)
from rectower.tgraph import (
    MAX_VERTICES,
    ComponentClass,
    TowerGraph,
    _point,
    graph_export,
    graph_json_obj,
)
from rectower.upoly import Poly

F5 = FieldCtx(5)
F25 = FieldCtx(5, 2, [2, -1, 1])

F = map_parse("(x^2+x)/(3*x-1)", 5)
G = map_parse("y^2", 5)


def labels(component):
    return sorted(str(v) for v in component.vertices)


def test_prime_field_graph_components():
    graph = TowerGraph(F, G, F5)
    assert graph.n_vertices == 6
    singular = graph.singular_components()
    assert sorted(labels(c) for c in singular) == [["0", "1", "4"], ["2", "3", "inf"]]
    assert not graph.regular_components()


def test_extension_graph_size():
    graph = TowerGraph(F, G, F25)
    assert graph.n_vertices == 26


def test_degree_mismatch_rejected():
    with pytest.raises(DegreeMismatch):
        TowerGraph(F, map_parse("y", 5), F5)


def test_splitting_component_is_the_figure():
    graph = TowerGraph(F, G, F25)
    regs = graph.regular_components()
    assert len(regs) == 1
    comp = regs[0]
    a = F25.gen()
    assert set(comp.vertices) == {
        ProjPoint.affine(a ** k) for k in (3, 7, 9, 11, 15, 19, 21, 23)}
    for v in comp.vertices:
        i = graph.index(v)
        assert graph.in_deg[i] == 2 and graph.out_deg[i] == 2


def test_splitting_component_edge_topology():
    # the full 16-edge structure of the 8-vertex splitting component,
    # in generator-power coordinates with modulus a^2 - a + 2
    graph = TowerGraph(F, G, F25)
    a = F25.gen()
    idx = {k: graph.index(ProjPoint.affine(a ** k))
           for k in (3, 7, 9, 11, 15, 19, 21, 23)}
    rev = {v: k for k, v in idx.items()}
    edges = sorted((k, rev[w]) for k, v in idx.items() for w in graph.out_adj[v])
    assert edges == sorted([
        (7, 23), (23, 21), (21, 3), (3, 7),      # left 4-cycle
        (19, 9), (9, 15), (15, 11), (11, 19),    # right 4-cycle
        (7, 11), (11, 7),                        # top 2-cycle
        (15, 23), (23, 9), (9, 3), (3, 19), (19, 21), (21, 15),  # outer 6-cycle
    ])


def test_two_singular_components_over_extension():
    graph = TowerGraph(F, G, F25)
    singular = graph.singular_components()
    assert len(singular) == 2
    assert sorted(c.size for c in singular) == [3, 3]
    for c in singular:
        assert c.witness is not None
        first, last = c.witness[0], c.witness[-1]
        assert graph.ram_f[graph.index(first)]
        assert graph.ram_g[graph.index(last)]


def test_classical_tower_chain():
    f = map_parse("(x^2+1)/(2*x)", 5)
    graph = TowerGraph(f, G, F25)
    pts = {e: point_parse(e, F25) for e in ("1", "-1", "i", "-i", "0", "inf")}
    comp = next(c for c in graph.singular_components() if pts["1"] in c.vertices)
    assert set(comp.vertices) == set(pts.values())
    idx = {e: graph.index(p) for e, p in pts.items()}
    for a, b in [("1", "1"), ("1", "-1"), ("-1", "i"), ("-1", "-i"),
                 ("i", "0"), ("-i", "0"), ("0", "inf"), ("inf", "inf")]:
        assert idx[b] in graph.out_adj[idx[a]]


def test_toy_tower_has_no_regular_component():
    f = map_parse("x^2+x", 5)
    graph = TowerGraph(f, G, F25)
    assert not graph.regular_components()


def test_count_paths_on_splitting_component():
    graph = TowerGraph(F, G, F25)
    comp = graph.regular_components()[0]
    assert graph.count_paths(3, comp.vertices) == 64  # 8 * 2^3
    assert graph.count_paths(0, comp.vertices) == 8
    assert graph.count_paths(0) == graph.n_vertices
    assert graph.count_paths(5, []) == 0


def test_singular_path_counts():
    graph = TowerGraph(F, G, F25)
    assert graph.singular_paths(2) == 2   # (1,-1,0) and (-1/3,1/3,inf)
    assert graph.singular_paths(1) == 0
    for m in range(3, 12):
        assert graph.singular_paths(m - 1) == 2 * (m - 2)
    with pytest.raises(ValueError):
        graph.singular_paths(0)


def test_degree_sums_match_edge_count():
    graph = TowerGraph(F, G, F25)
    assert sum(graph.out_deg) == sum(graph.in_deg) == graph.n_edges


def test_out_degree_matches_fiber_counts():
    graph = TowerGraph(F, G, F25)
    for i, v in enumerate(graph.vertices):
        counts, _missing = fiber_counts(G, F.eval(v), F25)
        assert graph.out_deg[i] == len(counts)


def test_regular_component_is_complete():
    graph = TowerGraph(F, G, F25)
    comp = set(graph.regular_components()[0].vertices)
    forward = set()
    backward = set()
    for v in comp:
        counts, missing = fiber_counts(G, F.eval(v), F25)
        assert missing == 0
        forward |= set(counts)
        counts, missing = fiber_counts(F, G.eval(v), F25)
        assert missing == 0
        backward |= set(counts)
    assert forward == comp and backward == comp


def test_build_is_deterministic():
    g1 = TowerGraph(F, G, F25)
    g2 = TowerGraph(F, G, F25)
    assert g1.out_adj == g2.out_adj
    assert [str(v) for v in g1.vertices] == [str(v) for v in g2.vertices]


def test_json_export_schema():
    graph = TowerGraph(F, G, F25)
    obj = graph_json_obj(graph, include_edges=True)
    assert obj["p"] == 5 and obj["r"] == 2
    assert obj["modulus"] == "2+4*a+1*a^2"
    assert obj["f"] == "(x^2+x)/(3*x+4)"
    assert {c["class"] for c in obj["components"]} == {"d-regular", "singular", "other"}
    assert sum(c["size"] for c in obj["components"]) == 26
    assert len(obj["edges"]) == graph.n_edges
    json.dumps(obj)  # serializable


def test_dot_export():
    # tiny characteristic-2 toy still renders valid DOT
    graph = TowerGraph(map_parse("x^2+x", 2), map_parse("y^2", 2), FieldCtx(2))
    text = graph_export(graph, "dot")
    assert text.startswith("digraph") and text.endswith("}")
    full = graph_export(TowerGraph(F, G, F25), "dot")
    assert full == graph_export(TowerGraph(F, G, F25), "dot")
    assert "box" in full and "diamond" in full


def test_unknown_format():
    graph = TowerGraph(F, G, F5)
    with pytest.raises(UnknownFormat):
        graph_export(graph, "svg")


def test_size_cap_is_checked_before_any_work():
    ctx = FieldCtx(2053, 2)
    assert ctx.order + 1 > MAX_VERTICES
    f, g = map_parse("(x^2+x)/(3*x-1)", 2053), map_parse("y^2", 2053)
    with pytest.raises(FieldTooLarge) as err:
        TowerGraph(f, g, ctx)
    assert isinstance(err.value, TowerError)


# -- the array build against a scalar oracle ----------------------------------

def _oracle(f, g, ctx):
    """Edges, degrees, ramification flags and classified components from
    per-vertex RatMap.eval buckets and Poly evaluation of the Wronskian."""
    verts = [ProjPoint.affine(x) for x in ctx.elements()] + [ProjPoint.infinity(ctx)]
    n = len(verts)
    buckets = {}
    for j, v in enumerate(verts):
        buckets.setdefault(g.eval(v), []).append(j)
    out_adj = [buckets.get(f.eval(v), []) for v in verts]
    in_deg = [0] * n
    for adj in out_adj:
        for j in adj:
            in_deg[j] += 1

    def flags(m):
        w = Poly(ctx, m.wronskian_coeffs())
        return [point_multiplicity_in_fiber(m, v) >= 2 if v.is_infinity
                else not w.is_zero() and w.eval(v.x).is_zero() for v in verts]

    ram_f, ram_g = flags(f), flags(g)

    root = list(range(n))

    def find(u):
        while root[u] != u:
            u = root[u]
        return u

    for u, adj in enumerate(out_adj):
        for v in adj:
            root[find(u)] = find(v)
    comps = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    classes = []
    for comp in comps.values():
        if all(len(out_adj[v]) == f.d and in_deg[v] == f.d
               and not ram_f[v] and not ram_g[v] for v in comp):
            cls = "d-regular"
        else:
            # directed paths with >= 1 edge out of the ram_f vertices
            reached = set()
            todo = [w for v in comp if ram_f[v] for w in out_adj[v]]
            while todo:
                v = todo.pop()
                if v not in reached:
                    reached.add(v)
                    todo.extend(out_adj[v])
            cls = "singular" if any(ram_g[v] for v in reached) else "other"
        classes.append((cls, sorted(verts[v].label() for v in comp)))
    return {"vertices": [str(v) for v in verts], "out_adj": out_adj,
            "out_deg": [len(a) for a in out_adj], "in_deg": in_deg,
            "ram_f": ram_f, "ram_g": ram_g, "components": sorted(classes)}


MAP_PAIRS = [
    ("(x^2+x)/(3*x-1)", "y^2"),   # new-tower
    ("(x^2+1)/(2*x)", "y^2"),     # gs-tower
    ("x^2+x", "y^2"),             # type-a-toy
    ("(x^3+2*x)/(x^2+1)", "(y^3+1)/y"),
    ("(2*x^2+1)/(x^2+x+3)", "(y^2+3)/(y^2+1)"),  # infinity maps to affine points
]
ORACLE_CASES = [(f, g, p, r) for f, g in MAP_PAIRS for p, r in [(7, 1), (7, 2), (5, 3)]]
ORACLE_CASES.append(("x^2+x", "y^2", 2, 1))  # the characteristic-2 toy


@pytest.mark.parametrize("f_expr,g_expr,p,r", ORACLE_CASES)
def test_array_build_matches_scalar_oracle(f_expr, g_expr, p, r):
    ctx = FieldCtx(p, r)
    f, g = map_parse(f_expr, p), map_parse(g_expr, p)
    graph = TowerGraph(f, g, ctx)
    built = {"vertices": [str(v) for v in graph.vertices], "out_adj": graph.out_adj,
             "out_deg": graph.out_deg, "in_deg": graph.in_deg,
             "ram_f": graph.ram_f, "ram_g": graph.ram_g,
             "components": sorted((c.cls.value, sorted(v.label() for v in c.vertices))
                                  for c in graph.components())}
    assert built == _oracle(f, g, ctx)
    # components in order of their least vertex, each one sorted
    comps = [[graph.index(v) for v in c.vertices] for c in graph.components()]
    assert comps == sorted(sorted(c) for c in comps)
    assert [graph.index(v) for v in graph.vertices] == list(range(graph.n_vertices))


def _shortest_singular_path(oracle, comp):
    """The number of edges on a shortest directed path (>= 1 edge) from a
    ram_f to a ram_g vertex of the component, over the oracle's edges; None
    without one."""
    out_adj, ram_g = oracle["out_adj"], oracle["ram_g"]
    frontier = {w for v in comp if oracle["ram_f"][v] for w in out_adj[v]}
    seen, length = set(), 1
    while frontier:
        if any(ram_g[v] for v in frontier):
            return length
        seen |= frontier
        frontier = {w for v in frontier for w in out_adj[v]} - seen
        length += 1
    return None


@pytest.mark.parametrize("p", [89, 97])
def test_components_at_scale_match_scalar_oracle(p):
    # new-tower over F_{p^2}: 2,525 and 2,965 components
    ctx = FieldCtx(p, 2)
    f, g = map_parse("(x^2+x)/(3*x-1)", p), map_parse("y^2", p)
    graph = TowerGraph(f, g, ctx)
    oracle = _oracle(f, g, ctx)
    comps = graph.components()
    assert sorted((c.cls.value, sorted(v.label() for v in c.vertices))
                  for c in comps) == oracle["components"]
    indices = [c.indices for c in comps]
    assert indices == sorted(sorted(c) for c in indices)
    assert [graph.index(v) for c in comps for v in c.vertices] == [v for c in indices for v in c]
    for c, comp in zip(comps, indices):
        length = _shortest_singular_path(oracle, comp)
        if c.cls is not ComponentClass.SINGULAR:
            assert c.witness is None and length is None
            continue
        path = [graph.index(v) for v in c.witness]
        assert oracle["ram_f"][path[0]] and oracle["ram_g"][path[-1]]
        assert all(b in oracle["out_adj"][a] for a, b in zip(path, path[1:]))
        assert len(path) - 1 == length


def test_graph_is_freed_by_reference_counting():
    # neither the reports nor the cached views refer back to the graph, so no
    # cycle keeps it alive once its last reference goes
    enabled = gc.isenabled()
    gc.disable()
    try:
        graph = TowerGraph(F, G, F25)
        for c in graph.components():
            c.vertices, c.witness
        fixtures.chi_from_graph(graph)
        graph.vertices, graph.out_adj, graph.ram_f
        ref = weakref.ref(graph)
        del graph, c
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_chi_makes_points_for_the_fixture_only(monkeypatch, capsys):
    # a point per vertex would be q + 1 = 7,922 of them
    made = []
    init = ProjPoint.__init__

    def counted(self, ctx, x):
        made.append(x)
        init(self, ctx, x)

    monkeypatch.setattr(ProjPoint, "__init__", counted)
    assert cli.main(["chi", "--p", "89"]) == 0
    assert '"degree": 88' in capsys.readouterr().out
    assert 0 < len(made) < 89


def inverse_based_codes(self, m, field, x, inf):
    """Every map's values through the field inverse of its denominator, the
    general path, also where the denominator is a constant."""
    q = self.ctx.order
    num, den = field.horner(m.N, x), field.horner(m.D, x)
    codes = np.where(field.is_zero(den), q, field.codes(field.mul(num, field.inverse(den))))
    t = m.eval(inf)
    return np.append(codes, q if t.is_infinity else self.ctx.element_index(t.x))


@pytest.mark.parametrize("p", [5, 13, 89])
@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_constant_denominator_codes_match_inverse(monkeypatch, name, p):
    bound = fixtures.load_fixture(name, p, ctx=FieldCtx(p, 2), check=False)
    fast = TowerGraph(bound.f, bound.g, bound.ctx)
    monkeypatch.setattr(TowerGraph, "_value_codes", inverse_based_codes)
    slow = TowerGraph(bound.f, bound.g, bound.ctx)
    assert np.array_equal(fast.f_codes, slow.f_codes)
    assert np.array_equal(fast._src, slow._src) and np.array_equal(fast._dst, slow._dst)
    assert fast.out_adj == slow.out_adj


def _enumerated_paths(out_adj, starts, k, inside=None):
    """Every directed path with k edges from a vertex of starts, each step
    into ``inside`` (anywhere when None), listed one by one."""
    paths = [(s,) for s in starts]
    for _ in range(k):
        paths = [path + (w,) for path in paths for w in out_adj[path[-1]]
                 if inside is None or w in inside]
    return paths


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("name", ["new-tower", "gs-tower"])
def test_path_counts_match_enumerated_paths(name, p):
    fx = fixtures.FIXTURES[name]
    f, g = map_parse(fx.f_expr, p), map_parse(fx.g_expr, p)
    graph = TowerGraph(f, g, FieldCtx(p, 2))
    out_adj = graph.out_adj
    regular = graph.regular_vertices()
    assert len(regular) == 2 * (p - 1)
    points = [_point(graph.ctx, v) for v in range(graph.n_vertices)]
    ram_f = [v for v, pt in enumerate(points) if point_multiplicity_in_fiber(f, pt) >= 2]
    ram_g = {v for v, pt in enumerate(points) if point_multiplicity_in_fiber(g, pt) >= 2}
    restricted = graph.path_counts(6, regular)
    singular = graph.singular_path_counts(6)
    for k in range(7):
        inside = _enumerated_paths(out_adj, regular, k, set(regular))
        assert restricted[k] == graph.count_paths(k, regular) == len(inside)
        ending = [path for path in _enumerated_paths(out_adj, ram_f, k) if path[-1] in ram_g]
        assert singular[k] == len(ending)
        if k >= 1:
            assert graph.singular_paths(k) == len(ending)
    assert singular[6] > 0
    # a vertex set that out-edges leave, so the restriction cuts paths
    subset = sorted(random.Random(p).sample(range(graph.n_vertices), graph.n_vertices // 2))
    for k, count in enumerate(graph.path_counts(6, subset)):
        assert count == len(_enumerated_paths(out_adj, subset, k, set(subset)))


def test_regular_vertices_flatten_the_regular_components():
    graph = TowerGraph(F, G, F25)
    assert graph.regular_vertices() == graph.regular_components()[0].indices
    # x^2 against y^2: every {P, -P} with P != 0, inf is a 2-regular component
    square = TowerGraph(map_parse("x^2", 5), G, F5)
    assert [c.indices for c in square.regular_components()] == [[1, 4], [2, 3]]
    assert square.regular_vertices() == [1, 4, 2, 3]
    toy = TowerGraph(map_parse("x^2+x", 5), G, F25)
    with pytest.raises(NoRegularComponent, match=r"^no d-regular component over "):
        toy.regular_vertices()
    # the grouping is kept, but a caller gets its own list
    graph.regular_components().clear()
    assert len(graph.regular_components()) == 1
