"""Fixture loading, splitting polynomials from graphs, and the verify
pipeline."""

import pytest

from rectower import fixtures
from rectower.errors import BadPrime, NoRegularComponent
from rectower.ff import FieldCtx
from rectower.p1 import map_parse
from rectower.tgraph import TowerGraph
from rectower.upoly import Poly


def test_fixture_names():
    assert set(fixtures.FIXTURES) == {"new-tower", "gs-tower", "type-a-toy"}


def test_load_validates_invariants():
    bound = fixtures.load_fixture("new-tower", 5)
    assert bound.ctx.order == 5
    assert len(bound.s) == 6 and len(bound.s0) == 4
    assert bound.rho is not None


def test_load_gs_needs_i():
    # p = 7 = 3 mod 4: the chain point i forces the quadratic extension
    bound = fixtures.load_fixture("gs-tower", 7)
    assert bound.ctx.order == 49
    bound_13 = fixtures.load_fixture("gs-tower", 13)
    assert bound_13.ctx.order == 13


def test_load_rejects_bad_inputs():
    with pytest.raises(KeyError):
        fixtures.load_fixture("nope", 5)
    with pytest.raises(BadPrime):
        fixtures.load_fixture("new-tower", 4)
    with pytest.raises(BadPrime):
        fixtures.load_fixture("new-tower", 3)


def test_chi_from_graph_matches_table_polynomial():
    ctx = FieldCtx(5, 2, [2, -1, 1])
    graph = TowerGraph(map_parse("(x^2+x)/(3*x-1)", 5), map_parse("y^2", 5), ctx)
    chi = fixtures.chi_from_graph(graph)
    assert chi == Poly(FieldCtx(5), [-1, 2, 0, 2, 1])
    assert chi.leading() == FieldCtx(5).one()


def test_chi_requires_regular_component():
    ctx = FieldCtx(5)
    graph = TowerGraph(map_parse("x^2+x", 5), map_parse("y^2", 5), ctx)
    with pytest.raises(NoRegularComponent):
        fixtures.chi_from_graph(graph)


def test_splitting_points_count():
    ctx = FieldCtx(5, 2, [2, -1, 1])
    assert len(fixtures.splitting_points(5, ctx)) == 4
    assert len(fixtures.splitting_points(7, FieldCtx(7, 2))) == 6


def test_conjugate_check():
    for p in (5, 7, 11):
        assert fixtures.conjugate_check(p)["ok"]
    with pytest.raises(BadPrime):
        fixtures.conjugate_check(4)


def test_verify_new_tower():
    report = fixtures.verify_fixture("new-tower", 5, modulus=[2, -1, 1])
    assert report["ok"], [c for c in report["checks"] if not c["ok"]]
    names = {c["name"] for c in report["checks"]}
    assert {"chi-series-bridge", "functional-equation",
            "regularness-criterion", "genus-formulas-agree"} <= names


def test_verify_new_tower_larger_primes():
    for p in (17, 19):
        report = fixtures.verify_fixture("new-tower", p)
        assert report["ok"], [c for c in report["checks"] if not c["ok"]]


def test_chi_is_modulus_independent():
    # the splitting polynomial lives in F_p, whatever model of F_{p^2} is used
    f = map_parse("(x^2+x)/(3*x-1)", 19)
    g = map_parse("y^2", 19)
    default = fixtures.chi_from_graph(TowerGraph(f, g, FieldCtx(19, 2)))
    custom = fixtures.chi_from_graph(TowerGraph(f, g, FieldCtx(19, 2, [1, 0, 1])))
    assert default == custom


def test_verify_gs_tower():
    report = fixtures.verify_fixture("gs-tower", 7)
    assert report["ok"], [c for c in report["checks"] if not c["ok"]]


def test_chain_check_is_exact():
    # the component must carry the chain's edges and no other
    ctx = FieldCtx(5, 2)
    chain = fixtures.FIXTURES["gs-tower"].chain
    gs = TowerGraph(map_parse("(x^2+1)/(2*x)", 5), map_parse("y^2", 5), ctx)
    assert fixtures._gs_chain_ok(gs, ctx)
    assert not fixtures._gs_chain_ok(gs, ctx, chain[:-1])  # inf's loop is left over
    assert not fixtures._gs_chain_ok(gs, ctx, chain + (("0", "1"),))
    new = TowerGraph(map_parse("(x^2+x)/(3*x-1)", 5), map_parse("y^2", 5), ctx)
    assert not fixtures._gs_chain_ok(new, ctx)


def test_verify_toy():
    report = fixtures.verify_fixture("type-a-toy", 5)
    assert report["ok"]
    names = {c["name"] for c in report["checks"]}
    assert "lenstra-verdict" in names and "no-regular-component-r2" in names


_COMMON = [
    ("singular-support-complete", True, "forward=True backward=True"),
    ("divisorial-identity", True, ""),
]
_TOWER = _COMMON + [
    ("regular-component-unique", True, "found 1"),
    ("regular-component-size", True, "12 vs 12"),
    ("lenstra-verdict", True, "inconclusive (conditional on irreducibility)"),
    ("chi-degree", True, "deg 6"),
]
_TOY = _COMMON + [
    ("lenstra-verdict", True, "no-splitting-set-possible (conditional on irreducibility)"),
] + [(f"no-regular-component-r{r}", True, "0 regular components") for r in (1, 2, 3)]


@pytest.mark.parametrize("name, p, ext, expected", [
    ("new-tower", 7, 2, _TOWER + [
        ("chi-series-bridge", True, "(-3/p) = 1"),
        ("functional-equation", True, "constant 1"),
        ("splitting-values-rational", True, "6 of 6"),
        ("regularness-criterion", True, "s=2 t=3 constant=6"),
        ("splitting-set-is-regular-component", True, "preimage size 12"),
        ("genus-formulas-agree", True, ""),
        ("splitting-path-counts", True, ""),
        ("singular-path-counts", True, ""),
    ]),
    ("gs-tower", 7, 2, _TOWER + [
        ("singular-chain-shape", True, "1 singular components"),
        ("functional-equation", True, "constant 1"),
    ]),
    ("type-a-toy", 7, 2, _TOY[:-1]),
    ("type-a-toy", 7, 3, _TOY),
    # over F_5 itself the towers do not split: the report stops at chi
    ("new-tower", 5, 1, _COMMON + [
        ("regular-component-unique", False, "found 0"),
        ("regular-component-size", False, "0 vs 8"),
        ("lenstra-verdict", True, "inconclusive (conditional on irreducibility)"),
        ("chi-degree", False, "no d-regular component over F_5"),
    ]),
])
def test_verify_full_report(name, p, ext, expected):
    # every check, in order, with its verdict and detail string
    report = fixtures.verify_fixture(name, p, ext=ext)
    assert [(c["name"], c["ok"], c["detail"]) for c in report["checks"]] == expected
    assert (report["fixture"], report["p"], report["ext"]) == (name, p, ext)
    assert report["ok"] is all(ok for _, ok, _ in expected)
