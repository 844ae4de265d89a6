"""The search for tower equations: the solved line against the scan of P^5(F_p)."""

import random

import pytest

from rectower.errors import BadPrime
from rectower.ff import FieldCtx
from rectower.p1 import map_parse, point_parse
from rectower.search import SearchParams, candidate_stream, constraint_check, search
from rectower.search import _res2
from rectower.tgraph import TowerGraph
from rectower.upoly import resultant

SOLUTION = lambda p: SearchParams(1, 1, 0, 0, 3, (-1) % p)


def test_candidate_domain_size():
    # canonical representatives of P^5(F_5): (5^6 - 1)/4 of them
    domain = sum(5 ** k for k in range(6))
    assert domain == (5 ** 6 - 1) // 4 == 3906
    stream = list(candidate_stream(5))
    assert len(stream) < domain
    assert len(stream) == len(set(stream))


def test_stream_is_canonical_and_nondegenerate():
    for params in candidate_stream(5):
        first = next(c for c in params if c)
        assert first == 1
        assert _res2(*params, 5) != 0


def test_solution_params_in_stream():
    for p in (5, 7):
        assert SOLUTION(p) in set(candidate_stream(p))


def test_common_factor_params_absent():
    assert SearchParams(1, 1, 0, 2, 2, 0) not in set(candidate_stream(5))


def test_res2_matches_sylvester():
    rng = random.Random(16)
    F7 = FieldCtx(7)
    for _ in range(100):
        v = [rng.randrange(7) for _ in range(6)]
        expect = resultant(F7, (v[2], v[1], v[0]), (v[5], v[4], v[3]))
        assert F7.lift(_res2(*v, 7)) == expect


def test_constraint_check_accepts_the_solution():
    for p in (5, 7, 11, 13, 17):
        sol = constraint_check(SOLUTION(p), p)
        assert sol is not None
        assert sol.f == map_parse("(x^2+x)/(3*x-1)", p)
        assert sol.r2 == point_parse("-1/3", FieldCtx(p, 2))


def test_constraint_check_rejects_square_map():
    # f = x^2 has ramification {0, inf}, colliding with that of g
    assert constraint_check(SearchParams(1, 0, 0, 0, 0, 1), 5) is None


def test_search_small_primes_unique():
    for p in (5, 7, 11, 13):
        sols = search(p)
        assert len(sols) == 1
        assert sols[0].params == SOLUTION(p)


def test_search_larger_primes_unique():
    for p in (101, 1009):
        assert [s.params for s in search(p)] == [SOLUTION(p)]


def _line(p):
    """The canonical points of the line b1 = 2 a2 + a1, b0 = -a2, a0 = b2 = 0."""
    points = [SearchParams(1, a1, 0, 0, (2 + a1) % p, p - 1) for a1 in range(p)]
    return points + [SearchParams(0, 1, 0, 0, 1, 0)]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_linear_conditions_cut_out_the_line(p):
    def linear(a2, a1, a0, b2, b1, b0):
        n1, d1 = a2 + a1 + a0, b2 + b1 + b0
        return (a0 % p == 0 and b2 % p == 0 and (n1 - d1) % p == 0
                and ((2 * a2 + a1) * d1 - n1 * (2 * b2 + b1)) % p == 0)

    survivors = [v for v in candidate_stream(p) if linear(*v)]
    assert survivors == [v for v in _line(p) if _res2(*v, p)]
    assert len(survivors) == p - 1


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_search_matches_brute_force_scan(p):
    brute = [constraint_check(v, p) for v in candidate_stream(p)]
    assert [s.to_json_obj() for s in search(p)] == [s.to_json_obj() for s in brute if s]


def test_search_rejects_bad_prime():
    for bad in (3, 4, 9):
        with pytest.raises(BadPrime):
            search(bad)
        with pytest.raises(BadPrime):
            list(candidate_stream(bad))


def test_certificate_witnesses_reverify():
    p = 7
    sol = search(p)[0]
    ext = FieldCtx(p, 2)
    f = sol.f
    g = map_parse("y^2", p)
    one = point_parse("1", ext)
    zero = point_parse("0", ext)
    inf = point_parse("inf", ext)
    assert sol.certificate["path_mid_1_to_0"], "midpoint witness exists"
    for mid in sol.certificate["path_mid_1_to_0"]:
        assert f.eval(one) == g.eval(mid)   # edge 1 -> mid
        assert f.eval(mid) == g.eval(zero)  # edge mid -> 0
    for mid in sol.certificate["path_mid_r2_to_inf"]:
        assert f.eval(sol.r2) == g.eval(mid)
        assert f.eval(mid) == g.eval(inf)


def test_solution_produces_prescribed_singular_graph():
    p = 5
    sol = search(p)[0]
    ctx = FieldCtx(p)
    graph = TowerGraph(sol.f, map_parse("y^2", p), ctx)
    singular = graph.singular_components()
    assert len(singular) == 2
    for comp in singular:
        assert comp.size == 3
        idx = {v: graph.index(v) for v in comp.vertices}
        loops = [v for v in comp.vertices if idx[v] in graph.out_adj[idx[v]]]
        assert len(loops) == 2  # one at the f-ramified end, one at the g-ramified end
        (ram_end,) = [v for v in loops if graph.ram_f[idx[v]]]
        (g_end,) = [v for v in loops if graph.ram_g[idx[v]]]
        (mid,) = [v for v in comp.vertices if v not in loops]
        assert idx[mid] in graph.out_adj[idx[ram_end]]
        assert idx[g_end] in graph.out_adj[idx[mid]]


def test_result_set_independent_of_enumeration_order():
    p = 5
    ordered = {s.params for s in search(p)}
    shuffled = list(candidate_stream(p))
    random.Random(17).shuffle(shuffled)
    reordered = {c.params for c in
                 (constraint_check(v, p) for v in shuffled) if c is not None}
    assert ordered == reordered


def test_solution_json_shape():
    sol = search(5)[0]
    obj = sol.to_json_obj()
    assert obj["params"] == [1, 1, 0, 0, 3, 4]
    assert obj["f"] == "(x^2+x)/(3*x+4)"
    assert "path_mid_1_to_0" in obj["witnesses"]
