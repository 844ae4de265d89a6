"""Correspondence graph construction, component classification, path
counting, and export."""

import gc
import json
import random
import weakref
from collections import Counter

import numpy as np
import pytest

from rectower import cli, fixtures, tgraph
from rectower.errors import (
    BadIndex,
    BadPrime,
    DegreeMismatch,
    DegreeZero,
    FieldMismatch,
    FieldTooLarge,
    NoRegularComponent,
    TowerError,
    UnknownFormat,
)
from rectower.ff import FieldCtx, is_prime
from rectower.fieldarrays import FieldArrays
from rectower.p1 import (
    ProjPoint,
    RatMap,
    fiber_counts,
    map_parse,
    point_multiplicity_in_fiber,
    point_parse,
)
from rectower.tgraph import (
    MAX_VERTICES,
    ComponentClass,
    TowerGraph,
    _component_labels,
    _point,
    _stable_order,
    _vertex_labels,
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


@pytest.mark.parametrize("f_p, g_p, field_p", [(5, 5, 7), (5, 7, 7), (7, 5, 7)])
def test_characteristic_mismatch_is_a_field_mismatch(f_p, g_p, field_p):
    with pytest.raises(FieldMismatch, match="^maps and field have different characteristics$"):
        TowerGraph(map_parse("x^2+x", f_p), map_parse("y^2", g_p), FieldCtx(field_p))


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
        counts, _missing = fiber_counts(G, F.eval(v))
        assert graph.out_deg[i] == len(counts)


def test_regular_component_is_complete():
    graph = TowerGraph(F, G, F25)
    comp = set(graph.regular_components()[0].vertices)
    forward = set()
    backward = set()
    for v in comp:
        counts, missing = fiber_counts(G, F.eval(v))
        assert missing == 0
        forward |= set(counts)
        counts, missing = fiber_counts(F, G.eval(v))
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
    full = graph_export(TowerGraph(F, G, F25), "dot")
    assert full.startswith("digraph") and full.endswith("}")
    assert full == graph_export(TowerGraph(F, G, F25), "dot")
    assert "box" in full and "diamond" in full


@pytest.mark.parametrize("p,r,modulus", [
    (5, 1, None), (7, 1, None), (5, 2, None), (5, 2, [2, 1, 1]), (7, 2, [3, 1, 1]),
    (3, 3, None), (3, 3, [1, 2, 0, 1]), (5, 3, None), (2, 4, [1, 1, 0, 0, 1]), (3, 4, None)])
def test_vertex_labels_are_the_point_labels(p, r, modulus):
    # x generates the unit group for the given moduli (and the default one
    # of F_27), so those fields label by powers of the generator, the others
    # by coefficients
    ctx = FieldCtx(p, r, modulus)
    assert (ctx._dlog_table() is not None) == (modulus is not None or (p, r) == (3, 3))
    expected = [_point(ctx, v).label() for v in range(ctx.order + 1)]
    assert _vertex_labels(ctx) == expected


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


@pytest.mark.parametrize("f_expr,g_expr,p,r", [
    ("x^2+x", "y^2", 2, 1), ("x^2+x", "y^2", 2, 2), ("(x^3+2*x)/(x^2+1)", "(y^3+1)/y", 3, 2)])
def test_graph_refuses_wild_ramification(f_expr, g_expr, p, r):
    # with p <= d the Wronskian misses ramification: y^2 over F_{2^r} has a
    # vanishing Wronskian, yet e_g = 2 at every vertex
    with pytest.raises(BadPrime, match=r"^the graph of a degree-\d map needs p > "):
        TowerGraph(map_parse(f_expr, p), map_parse(g_expr, p), FieldCtx(p, r))


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


def _scalar_edges(f, g, points):
    """The f-codes at the points, by scalar RatMap.eval, and the out-neighbours
    of each point: every Q with g(Q) = f(P), ascending."""
    ctx = points[0].ctx
    f_codes, g_codes = ([ctx.order if t.is_infinity else ctx.element_index(t.x)
                         for t in (m.eval(v) for v in points)] for m in (f, g))
    buckets = {}
    for j, c in enumerate(g_codes):
        buckets.setdefault(c, []).append(j)
    return f_codes, [buckets.get(c, []) for c in f_codes]


@pytest.mark.parametrize("p", [5, 13, 89])
@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_constant_denominator_codes_match_inverse(name, p):
    # the value codes of both maps over F_{p^2} against scalar RatMap.eval,
    # which divides by the field inverse of the denominator, where the build
    # scales the numerator (a constant denominator: g, and f of type-a-toy)
    # or divides through the norm; the graph keeps g's codes as its edges
    bound = fixtures.load_fixture(name, p, ctx=FieldCtx(p, 2), check=False)
    ctx, graph = bound.ctx, TowerGraph(bound.f, bound.g, bound.ctx)
    points = [ProjPoint.affine(x) for x in ctx.elements()] + [ProjPoint.infinity(ctx)]
    f_codes, out_adj = _scalar_edges(bound.f, bound.g, points)
    assert graph.f_codes.tolist() == f_codes
    assert graph.out_adj == out_adj


# every prime to 31 for r = 1, 2; to 11 for r = 3, as scalar evaluation
# takes about 0.25 ms a point (a minute and a half for r = 3 to 31)
SCALAR_CASES = [(name, p, r) for name in sorted(fixtures.FIXTURES)
                for p in range(5, 32) if is_prime(p) for r in (1, 2, 3) if r < 3 or p <= 11]


@pytest.mark.parametrize("name,p,r", SCALAR_CASES)
def test_build_matches_scalar_evaluation(name, p, r):
    # the codes, ramification flags and edges of the block build against
    # scalar RatMap.eval and the multiplicity of each point in its own fiber,
    # which share no code with FieldArrays
    fx = fixtures.FIXTURES[name]
    f, g = map_parse(fx.f_expr, p), map_parse(fx.g_expr, p)
    ctx = FieldCtx(p, r)
    graph = TowerGraph(f, g, ctx)
    points = [ProjPoint.affine(x) for x in ctx.elements()] + [ProjPoint.infinity(ctx)]
    f_codes, out_adj = _scalar_edges(f, g, points)
    assert graph.f_codes.tolist() == f_codes
    assert graph.out_adj == out_adj
    heads = Counter(w for adj in out_adj for w in adj)
    assert graph.in_deg == [heads[v] for v in range(len(points))]
    for m, flags in ((f, graph.ram_f), (g, graph.ram_g)):
        assert flags == [point_multiplicity_in_fiber(m, v) >= 2 for v in points]


@pytest.mark.parametrize("p,r", [(5, 1), (5, 2), (7, 2), (5, 3)])
@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_block_build_equals_one_block(monkeypatch, name, p, r):
    # blocks of 7 elements: several blocks and a ragged tail (q = 5 is one
    # short block), against the whole field in one block
    fx = fixtures.FIXTURES[name]
    f, g, ctx = map_parse(fx.f_expr, p), map_parse(fx.g_expr, p), FieldCtx(p, r)
    whole = TowerGraph(f, g, ctx)
    monkeypatch.setattr(tgraph, "BLOCK", 7)
    blocks = TowerGraph(f, g, ctx)
    for attr in ("f_codes", "_ram_f", "_ram_g", "_out_deg", "_in_deg", "_offsets", "_src", "_dst"):
        a, b = getattr(whole, attr), getattr(blocks, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr


def _wronskian_flags(m, ctx):
    """The ramification flags as the build once computed them: m's Wronskian
    W evaluated at every element by ``FieldArrays.horner``, and the flag at
    infinity deg W < 2d - 2."""
    field, w = FieldArrays(ctx), m.wronskian_coeffs()
    affine = field.is_zero(field.horner(w, field.digits(np.arange(ctx.order))))
    return affine.tolist() + [len(w) - 1 < 2 * m.d - 2]


def _random_map(rng, p, d):
    """A random degree-d map over F_p with numerator or denominator of degree d."""
    while True:
        forms = [[rng.randrange(p) for _ in range(d + 1)] for _ in range(2)]
        if forms[0][-1] or forms[1][-1]:
            try:
                return RatMap(p, *forms)
            except DegreeZero:
                continue


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("p", [p for p in range(5, 32) if is_prime(p)])
def test_ramification_flags_match_the_wronskian_evaluation(p, r):
    # maps of degree 2-4, random and with ramification at infinity (a
    # polynomial numerator over a constant denominator), over F_p and F_{p^2}
    rng, ctx = random.Random(f"ram:{p}:{r}"), FieldCtx(p, r)
    for d in (2, 3, 4):
        maps = [_random_map(rng, p, d) for _ in range(3)]
        maps.append(RatMap.from_affine(p, [rng.randrange(p) for _ in range(d)] + [1], [1]))
        for f, g in zip(maps, maps[1:] + maps[:1]):
            graph = TowerGraph(f, g, ctx)
            assert graph.ram_f == _wronskian_flags(f, ctx)
            assert graph.ram_g == _wronskian_flags(g, ctx)


@pytest.mark.parametrize("p", [p for p in range(5, 201) if is_prime(p)] + [100003])
def test_inverse_table_is_the_modular_inverse(p):
    table = FieldArrays(FieldCtx(p))._inverses
    assert table.dtype == np.int64
    assert table.tolist() == [0] + [pow(k, -1, p) for k in range(1, p)]


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


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_reports_on_request_match_the_class_filters(name, p, r):
    fx = fixtures.FIXTURES[name]
    graph = TowerGraph(map_parse(fx.f_expr, p), map_parse(fx.g_expr, p), FieldCtx(p, r))

    def rows(reports):
        return [(c.cls, c.indices, c.size, c.witness) for c in reports]

    every = graph.components()
    regular = [c for c in every if c.cls is ComponentClass.D_REGULAR]
    singular = [c for c in every if c.cls is ComponentClass.SINGULAR]
    assert rows(graph.regular_components()) == rows(regular)
    assert rows(graph.singular_components()) == rows(singular)
    assert all(c.witness for c in singular)
    flat = [v for c in regular for v in c.indices]
    if flat:
        assert graph.regular_vertices() == flat
    else:
        with pytest.raises(NoRegularComponent):
            graph.regular_vertices()


def _table_regular_vertices(graph):
    """The former route to the regular set: every vertex sorted by component
    label, a class per component, and the regular components' runs."""
    n = graph.n_vertices
    label = _component_labels(n, graph._src, graph._dst)
    bad = ((graph._out_deg != graph.d) | (graph._in_deg != graph.d)
           | graph._ram_f | graph._ram_g)
    irregular = np.bincount(label[bad], minlength=n) > 0
    members = np.argsort(label, kind="stable")
    bounds = np.append(np.flatnonzero(label[members] == members), n)
    regular = ~irregular[members[bounds[:-1]]]
    return members[np.repeat(regular, np.diff(bounds))].tolist()


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("p", [p for p in range(5, 48) if is_prime(p)])
@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_regular_vertices_match_the_table_order(name, p, r):
    fx = fixtures.FIXTURES[name]
    graph = TowerGraph(map_parse(fx.f_expr, p), map_parse(fx.g_expr, p), FieldCtx(p, r))
    expected = _table_regular_vertices(graph)
    if expected:
        assert graph.regular_vertices() == expected
    else:
        with pytest.raises(NoRegularComponent):
            graph.regular_vertices()
    assert [v for c in graph.regular_components() for v in c.indices] == expected


# -- the array walk against a dict walk ------------------------------------------

def _dict_walk(graph, start, n, inside=None, ends=None):
    """The numbers of directed paths with 0, 1, ..., n edges from a vertex of
    ``start``, each step along an edge into ``inside`` (every edge when it is
    None), that end in ``ends`` (anywhere when None): exact Python ints in
    dicts keyed by vertex, one dict per step."""
    steps = {}
    counts, totals = dict.fromkeys(start, 1), []
    while True:
        totals.append(sum(counts.values()) if ends is None
                      else sum(c for v, c in counts.items() if v in ends))
        if len(totals) > n:
            return totals
        nxt = {}
        for u, c in counts.items():
            if u not in steps:
                steps[u] = [v for v in graph.successors(u) if inside is None or v in inside]
            for v in steps[u]:
                nxt[v] = nxt.get(v, 0) + c
        counts = nxt


WALK_PRIMES = [p for p in range(5, 48) if is_prime(p)]


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("p", WALK_PRIMES)
@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_array_walk_matches_dict_walk(name, p, r):
    # n = 70 takes every walk past 2^62 paths, from int64 counts to Python ints
    fx = fixtures.FIXTURES[name]
    graph = TowerGraph(map_parse(fx.f_expr, p), map_parse(fx.g_expr, p), FieldCtx(p, r))
    n = 70
    regular = [v for c in graph.regular_components() for v in c.indices]
    ram_f = np.flatnonzero(graph._ram_f).tolist()
    ram_g = set(np.flatnonzero(graph._ram_g).tolist())
    walks = [
        (graph.path_counts(n, regular), _dict_walk(graph, regular, n, set(regular))),
        (graph.singular_path_counts(n), _dict_walk(graph, ram_f, n, ends=ram_g)),
        (graph.path_counts(n), _dict_walk(graph, range(graph.n_vertices), n)),
    ]
    for counts, oracle in walks:
        assert counts == oracle
        assert all(type(c) is int for c in counts)
        json.dumps(counts)  # np.int64 is not serializable
    assert graph.n_vertices * max(graph.out_deg) ** n >= 1 << 62  # the bound switched dtype
    assert graph.count_paths(n) == walks[2][1][-1]


def test_path_counts_take_numpy_indices():
    graph = TowerGraph(F, G, F25)
    regular = graph.regular_vertices()
    expected = graph.path_counts(6, regular)
    assert graph.path_counts(6, np.array(regular)) == expected
    assert graph.path_counts(6, [np.int32(v) for v in regular]) == expected
    assert graph.path_counts(6, graph.regular_components()[0].vertices) == expected
    assert all(type(c) is int for c in graph.path_counts(6, np.array(regular)))


@pytest.mark.parametrize("index", [26, 10 ** 9, -1, np.int64(26), np.int64(-3)])
def test_path_counts_refuse_an_index_off_the_line(index):
    graph = TowerGraph(F, G, F25)
    with pytest.raises(BadIndex, match=r"^vertex index -?\d+ outside \[0, 25\]$"):
        graph.path_counts(3, [0, index])


def test_a_point_of_another_field_is_a_field_mismatch():
    f49 = FieldCtx(7, 2)
    graph = TowerGraph(map_parse("(x^2+x)/(3*x-1)", 7), map_parse("y^2", 7), f49)
    three = point_parse("3", FieldCtx(7))
    message = r"^point 3 lies over F_7, not F_7\^2\(mod "
    with pytest.raises(FieldMismatch, match=message):
        graph.index(three)
    with pytest.raises(FieldMismatch, match=message):
        graph.path_counts(3, [three])
    assert graph.index(point_parse("3", f49)) == 3


@pytest.mark.parametrize("high", [1, 2 ** 8, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 2 ** 20, 2 ** 22])
def test_stable_order_is_the_stable_argsort(high):
    rng = np.random.default_rng(high)
    # few distinct keys, so that ties are many, always with 0 and high - 1
    pool = np.append(rng.integers(0, high, size=min(high, 50)), [0, high - 1])
    keys = rng.choice(pool, size=5000)
    assert np.array_equal(_stable_order(keys), np.argsort(keys, kind="stable"))


def test_stable_order_of_nothing():
    assert np.array_equal(_stable_order(np.zeros(0, dtype=np.int64)), np.zeros(0, dtype=np.int64))
