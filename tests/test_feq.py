"""The three completeness/regularness criteria and the non-existence check."""

import random

import pytest

from rectower import divisor, feq, fixtures, p1
from rectower.divisor import principal_divisor, restricted_different
from rectower.errors import NotComplete, RamifiedT0
from rectower.feq import (
    LenstraVerdict,
    divisorial_check,
    is_complete,
    lenstra_check,
    regularness_check,
)
from rectower.ff import FieldCtx
from rectower.p1 import ProjPoint, map_parse, point_parse
from rectower.tgraph import ComponentClass, TowerGraph

F5 = FieldCtx(5)
F25 = FieldCtx(5, 2, [2, -1, 1])

F = map_parse("(x^2+x)/(3*x-1)", 5)
G = map_parse("y^2", 5)


def pts(*exprs, ctx=F5):
    return [point_parse(e, ctx) for e in exprs]


def test_singular_support_is_complete():
    s = pts("0", "1", "-1", "1/3", "-1/3", "inf")
    assert is_complete(F, G, s) == (True, True)


def test_single_vertex_not_forward_complete():
    forward, _backward = is_complete(F, G, pts("1"))
    assert forward is False  # g^{-1}(f(1)) = {1, -1}


def test_toy_loop_is_complete():
    f = map_parse("x^2+x", 5)
    assert is_complete(f, G, pts("inf")) == (True, True)


def test_divisorial_fixture_sets():
    assert divisorial_check(F, G, pts("0", "1", "1/9", "inf"))
    f_gs = map_parse("(x^2+1)/(2*x)", 5)
    assert divisorial_check(f_gs, G, pts("1", "-1", "0", "inf"))
    assert not divisorial_check(F, G, pts("1"))


def test_divisorial_check_finds_each_fiber_once(monkeypatch):
    # one pullback per map gives both sides: a fiber per (map, point of S0)
    calls = []
    real = p1.fiber_counts
    monkeypatch.setattr(p1, "fiber_counts",
                        lambda m, t: calls.append((m, t)) or real(m, t))
    s0 = pts("0", "1", "1/9", "inf")
    assert divisorial_check(F, G, s0)
    assert len(calls) == 8 and set(calls) == {(m, t) for m in (F, G) for t in s0}


def test_regularness_holds_for_splitting_values():
    s0 = pts("0", "1", "1/9", "inf", ctx=F25)
    t0 = fixtures.splitting_points(5, F25)
    report = regularness_check(F, G, s0, t0)
    assert report.holds
    assert report.constant is not None
    assert (report.s, report.t) == (1, 1)
    assert (report.a, report.b) == (1, 1)
    # soundness: the preimage components are exactly the d-regular ones
    graph = TowerGraph(F, G, F25)
    pre, missing = fixtures.map_preimage(F, t0)
    assert missing == 0
    for comp in graph.components():
        touched = [v for v in comp.vertices if v in pre]
        if touched:
            assert comp.cls is ComponentClass.D_REGULAR
            assert set(comp.vertices) <= pre


def test_regularness_from_graph_image():
    # completeness direction: T0 = image of the known regular component
    graph = TowerGraph(F, G, F25)
    comp = graph.regular_components()[0]
    t0 = sorted({F.eval(v) for v in comp.vertices}, key=lambda q: q.sort_key())
    s0 = pts("0", "1", "1/9", "inf", ctx=F25)
    assert regularness_check(F, G, s0, t0).holds


def test_regularness_rejects_ramified_values():
    s0 = pts("0", "1", "1/9", "inf", ctx=F25)
    t0 = fixtures.splitting_points(5, F25)
    with pytest.raises(RamifiedT0):
        regularness_check(F, G, s0, t0 + pts("0", ctx=F25))


def test_regularness_requires_complete_s0():
    with pytest.raises(NotComplete):
        regularness_check(F, G, pts("1"), pts("4"))


def test_regularness_fails_for_wrong_values():
    s0 = pts("0", "1", "1/9", "inf", ctx=F25)
    t0 = fixtures.splitting_points(5, F25)
    swapped = t0[:-1] + pts("1", ctx=F25)  # replace one root by a non-root
    assert len(set(swapped)) == len(t0)
    report = regularness_check(F, G, s0, swapped)
    assert not report.holds and report.constant is None
    # soundness: the preimage of the perturbed set is indeed not d-regular
    graph = TowerGraph(F, G, F25)
    pre, _missing = fixtures.map_preimage(F, swapped)
    touched = [c for c in graph.components() if any(v in pre for v in c.vertices)]
    assert any(c.cls is not ComponentClass.D_REGULAR for c in touched)


def test_regularness_classical_tower():
    f = map_parse("(x^2+1)/(2*x)", 5)
    graph = TowerGraph(f, G, F25)
    comp = graph.regular_components()[0]
    t0 = sorted({f.eval(v) for v in comp.vertices}, key=lambda q: q.sort_key())
    s0 = pts("1", "-1", "0", "inf", ctx=F25)
    report = regularness_check(f, G, s0, t0)
    assert report.holds


def test_lenstra_toy_rules_out_splitting():
    f = map_parse("x^2+x", 5)
    assert lenstra_check(f, G, pts("inf")) is LenstraVerdict.NO_SPLITTING_SET_POSSIBLE


def test_lenstra_fixtures_inconclusive():
    s = pts("0", "1", "-1", "1/3", "-1/3", "inf")
    assert lenstra_check(F, G, s) is LenstraVerdict.INCONCLUSIVE
    f_gs = map_parse("(x^2+1)/(2*x)", 5)
    s_gs = pts("1", "-1", "i", "-i", "0", "inf", ctx=F25)
    assert lenstra_check(f_gs, G, s_gs) is LenstraVerdict.INCONCLUSIVE


def test_lenstra_requires_complete_set():
    with pytest.raises(NotComplete):
        lenstra_check(F, G, pts("1"))


def test_criteria_equivalence_random_sets():
    # is_complete(f^{-1}(S0)) <=> divisorial_check(S0), over a field where
    # every fiber of points of F_25 is rational
    big = FieldCtx(5, 4)
    subfield = [x for x in big.elements() if x ** 25 == x]
    points = [ProjPoint.affine(x) for x in subfield] + [ProjPoint.infinity(big)]
    rng = random.Random(15)
    hits = {True: 0, False: 0}
    complete_seed = pts("0", "1", "1/9", "inf", ctx=big)
    for trial in range(40):
        if trial % 4 == 0:
            s0 = list(complete_seed)
            if trial % 8 == 4:
                s0.append(rng.choice(points))
        else:
            s0 = rng.sample(points, rng.randint(1, 5))
        pre, missing = fixtures.map_preimage(F, s0)
        assert missing == 0
        both = all(is_complete(F, G, pre))
        div = divisorial_check(F, G, s0)
        assert both == div
        hits[div] += 1
    assert hits[True] and hits[False]  # both directions exercised


def test_s0_half_pulls_s0_back_once_per_map(monkeypatch):
    # the divisorial identity and both restricted differents come from the
    # same two pullbacks of div(S0)
    calls = []
    real = divisor.pullback

    def counted(m, d):
        calls.append(m)
        return real(m, d)

    monkeypatch.setattr(divisor, "pullback", counted)
    monkeypatch.setattr(feq, "pullback", counted)
    half = feq.s0_half(F, G, pts("inf", "1/9", "0", "1", "0"))
    s0, rho = half.points, half.rho
    assert calls == [F, G]
    assert s0 == pts("0", "1", "1/9", "inf")
    gap = restricted_different(F, s0) - restricted_different(G, s0)
    assert principal_divisor(rho) == gap


def test_points_over_two_fields_are_refused():
    # a point over F_5 never equals one over F_25: a set or S0 with both
    # has no field to work over
    mixed = pts("0", "1", "1/9") + pts("inf", ctx=F25)
    for check in (is_complete, divisorial_check, lenstra_check):
        with pytest.raises(ValueError, match="must live over one field"):
            check(F, G, mixed)
    # T0 lies over S0's field
    s0 = pts("0", "1", "1/9", "inf", ctx=F25)
    with pytest.raises(ValueError, match="must live over one field"):
        regularness_check(F, G, s0, pts("2"))


def test_empty_sets_are_refused():
    for check in (is_complete, divisorial_check, lenstra_check):
        with pytest.raises(ValueError, match="empty point set"):
            check(F, G, [])
    with pytest.raises(ValueError, match="empty point set"):
        regularness_check(F, G, [], pts("2"))
    # an empty T0 is refused as such, before its field is looked for
    with pytest.raises(ValueError, match="T0 must be nonempty"):
        regularness_check(F, G, pts("0", "1", "1/9", "inf", ctx=F25), [])
