"""Fixture loading, splitting polynomials from graphs, and the verify
pipeline."""

import dataclasses
import random
import re

import pytest

from rectower import feq, fixtures, p1, series
from rectower.errors import BadPrime, NoRegularComponent, NotComplete, RamifiedT0, TowerError
from rectower.ff import FieldCtx, is_prime, legendre, pmul
from rectower.p1 import RatMap, map_parse
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


def test_chi_from_graph_matches_table_polynomial(monkeypatch):
    ctx = FieldCtx(5, 2, [2, -1, 1])
    graph = TowerGraph(map_parse("(x^2+x)/(3*x-1)", 5), map_parse("y^2", 5), ctx)
    # T0 is read from the f-codes of the build, not evaluated again
    def no_eval(*_args):
        raise AssertionError("RatMap evaluated after the build")
    monkeypatch.setattr(RatMap, "eval", no_eval)
    monkeypatch.setattr(RatMap, "__call__", no_eval)
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


def test_verify_finds_each_fiber_once(monkeypatch):
    # each map keeps its fibers, so of the fibers verify asks for at p = 97
    # (104 distinct (map, target) pairs) none is found twice
    found = []
    real = p1._find_fiber
    monkeypatch.setattr(p1, "_find_fiber",
                        lambda m, t, ctx: found.append((m, t)) or real(m, t, ctx))
    assert fixtures.verify_fixture("new-tower", 97)["ok"]
    assert len(found) == len(set(found)) == 104


def test_verify_walks_twice_and_groups_once(monkeypatch):
    # one walk for the regular component's path counts at every length and
    # one for the singular counts (eight separate walks before), and one
    # grouping of the components by class per graph
    walks, groupings = [], []
    real_walk, by_class = TowerGraph._walk, TowerGraph.__dict__["_by_class"]
    real_group = by_class.func

    def walk(graph, *args, **kwargs):
        walks.append(graph)
        return real_walk(graph, *args, **kwargs)

    def group(graph):
        groupings.append(graph)
        return real_group(graph)

    monkeypatch.setattr(TowerGraph, "_walk", walk)
    monkeypatch.setattr(by_class, "func", group)  # a cached_property calls its func
    assert fixtures.verify_fixture("new-tower", 23)["ok"]
    assert len(walks) == 2
    assert len(groupings) == 1 and set(walks) == set(groupings)


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


# ---------------------------------------------------------------------------
# the F_p certificate of verify against the F_{p^r} oracle path

def _new_tower(p, ext):
    ctx = FieldCtx(p, ext)
    bound = fixtures.load_fixture("new-tower", p, ctx=ctx, check=False)
    return bound, TowerGraph(bound.f, bound.g, ctx)


@pytest.mark.parametrize("p, ext", [(p, 2) for p in range(5, 48) if is_prime(p)]
                         + [(5, 4), (7, 4)])
def test_fp_certificate_matches_oracle(p, ext):
    bound, graph = _new_tower(p, ext)
    ctx, hp = bound.ctx, series.truncate_H_mod_p(p)
    assert fixtures.chi_from_graph(graph) * legendre(-3, p) == hp  # the bridge it needs
    k, t0, s, t, constant = fixtures._fp_certificate(bound, graph, hp)

    oracle_t0 = fixtures.splitting_points(p, ctx)
    report = feq.regularness_check(bound.f, bound.g, bound.s0, oracle_t0, ctx)
    assert k == len(oracle_t0) == p - 1
    assert t0 == oracle_t0
    assert report.holds
    assert (s, t, str(constant)) == (report.s, report.t, str(report.constant))
    pre, missing = fixtures.map_preimage(bound.f, t0, ctx)
    assert missing == 0 and pre == set(graph.regular_components()[0].vertices)


def _forbid(*_args, **_kwargs):
    raise AssertionError("the F_{p^r} oracle path ran")


@pytest.mark.parametrize("p, ext", [(7, 2), (23, 2), (5, 4)])
def test_verify_success_path_finds_no_roots(monkeypatch, p, ext):
    roots = Poly.roots

    def fiber_roots_only(poly):
        # fibers and ramification of the degree-2 maps are quadratics; the
        # field scan for the roots of H_p would be the only larger call
        if poly.degree > 2:
            _forbid()
        return roots(poly)

    monkeypatch.setattr(fixtures, "splitting_points", _forbid)
    monkeypatch.setattr(feq, "regularness_check", _forbid)
    monkeypatch.setattr(Poly, "roots", fiber_roots_only)
    report = fixtures.verify_fixture("new-tower", p, ext=ext)
    assert report["ok"], [c for c in report["checks"] if not c["ok"]]


def _splitting_checks(report):
    names = ("splitting-values-rational", "regularness-criterion",
             "splitting-set-is-regular-component")
    return [(c["name"], c["ok"], c["detail"]) for c in report["checks"] if c["name"] in names]


def test_failed_bridge_reports_from_the_oracle(monkeypatch):
    # gs-tower's maps with a series bridge they do not have: the report's
    # splitting checks are those of the roots of H_p over F_{p^2}
    fake = dataclasses.replace(fixtures.FIXTURES["gs-tower"], name="bridged-gs",
                               series_bridge=True, chain=())
    monkeypatch.setitem(fixtures.FIXTURES, "bridged-gs", fake)
    p, ctx = 13, FieldCtx(13, 2)
    bound = fixtures.load_fixture("bridged-gs", p, ctx=ctx, check=False)
    t0 = fixtures.splitting_points(p, ctx)
    oracle = feq.regularness_check(bound.f, bound.g, bound.s0, t0, ctx)
    pre, _ = fixtures.map_preimage(bound.f, t0, ctx)
    report = fixtures.verify_fixture("bridged-gs", p)
    assert ("chi-series-bridge", False) in [(c["name"], c["ok"]) for c in report["checks"]]
    assert _splitting_checks(report) == [
        ("splitting-values-rational", True, f"{len(t0)} of {p - 1}"),
        ("regularness-criterion", False,
         f"s={oracle.s} t={oracle.t} constant={oracle.constant}"),
        ("splitting-set-is-regular-component", False, f"preimage size {len(pre)}"),
    ]


def _spy_on_oracle(monkeypatch):
    ran = []
    oracle = fixtures.splitting_points
    monkeypatch.setattr(fixtures, "splitting_points",
                        lambda p, ctx: ran.append(p) or oracle(p, ctx))
    return ran


def test_failed_bridge_is_never_certified(monkeypatch):
    # only the bridge makes the graph's values the roots of H_p, so without
    # it the oracle runs even where the F_p criterion would hold
    ran = _spy_on_oracle(monkeypatch)
    monkeypatch.setattr(fixtures, "legendre", lambda a, p: -legendre(a, p))
    report = fixtures.verify_fixture("new-tower", 11)
    assert [c["name"] for c in report["checks"] if not c["ok"]] == ["chi-series-bridge"]
    assert ran == [11]


def test_failed_certificate_reports_from_the_oracle(monkeypatch):
    # a root count that misses a root sends verify to the oracle path, whose
    # report is the one the certificate gives
    expected = fixtures.verify_fixture("new-tower", 11)
    ran = _spy_on_oracle(monkeypatch)
    monkeypatch.setattr(fixtures, "_root_count", lambda h, q, p: len(h) - 2)
    assert fixtures.verify_fixture("new-tower", 11) == expected
    assert ran == [11]


def test_certificate_keeps_the_criterion_preconditions(monkeypatch):
    p = 7
    t0 = fixtures.splitting_points(p, FieldCtx(p, 2))
    monkeypatch.setattr(fixtures, "splitting_points", _forbid)
    monkeypatch.setattr(feq, "regularness_check", _forbid)
    with monkeypatch.context() as m:
        m.setattr(feq, "ramification", lambda g, ctx, strict=True: {t0[0]: 2})
        with pytest.raises(RamifiedT0, match=re.escape(f"['{t0[0]}']")):
            fixtures.verify_fixture("new-tower", p)
    monkeypatch.setattr(feq, "divisorial_check", lambda *args: False)
    with pytest.raises(NotComplete):
        fixtures.verify_fixture("new-tower", p)


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_root_count_is_the_number_of_distinct_roots(p, r):
    # deg gcd(h, x^q - x) against the roots that Poly.roots finds over F_q
    rng = random.Random(f"{p}:{r}")
    ctx = FieldCtx(p, r)

    def rand(deg):
        return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]

    def linear(*roots):
        out = [1]
        for a in roots:
            out = pmul(out, [-a, 1], p)
        return out

    quadratic, cubic = list(FieldCtx(p, 2).modulus), list(FieldCtx(p, 3).modulus)
    cases = [rand(rng.randrange(1, 9)) for _ in range(6)]
    cases += [linear(*rng.sample(range(p), 4)),                        # squarefree, split
              pmul(linear(0, 1), quadratic, p),                        # squarefree
              linear(2, 2, 3, 3, 3),                                   # repeated roots
              pmul(linear(1, 1), rand(3), p),
              quadratic, cubic, pmul(quadratic, quadratic, p)]         # irreducible
    for h in cases:
        want = len(set(Poly(ctx, h).roots()))
        assert fixtures._root_count(h, ctx.order, p) == want, h


# ---------------------------------------------------------------------------
# chi from Frobenius orbits against the product of linear factors over F_{p^r}

def _fixture_graph(name, p, ext):
    ctx = FieldCtx(p, ext)
    bound = fixtures.load_fixture(name, p, ctx=ctx, check=False)
    return bound, TowerGraph(bound.f, bound.g, ctx)


def _chi_oracle(bound, graph):
    """prod (x - v) over F_{p^r}, v over the f-values on the d-regular
    components, evaluated point by point, and brought down to F_p."""
    ctx = graph.ctx
    values = {bound.f.eval(v) for c in graph.regular_components() for v in c.vertices}
    chi = Poly.one(ctx)
    for v in values:
        chi = chi * Poly(ctx, (-v.x, ctx.one()))
    assert all(not any(c.coeffs[1:]) for c in chi.coeffs)
    return Poly(FieldCtx(ctx.p), [c.coeffs[0] for c in chi.coeffs])


@pytest.mark.parametrize("name, p, ext",
                         [(name, p, 2) for p in range(5, 48) if is_prime(p)
                          for name in ("new-tower", "gs-tower")]
                         + [("new-tower", 5, 4), ("gs-tower", 5, 4)])  # orbits of up to 4
def test_chi_from_orbits_matches_linear_factors(name, p, ext):
    bound, graph = _fixture_graph(name, p, ext)
    chi = fixtures.chi_from_graph(graph)
    assert chi == _chi_oracle(bound, graph)
    assert chi.degree == p - 1


def test_chi_over_the_prime_field_has_no_regular_component():
    _, graph = _fixture_graph("gs-tower", 13, 1)
    with pytest.raises(NoRegularComponent):
        fixtures.chi_from_graph(graph)


def test_chi_rejects_a_value_set_missing_a_conjugate():
    _, graph = _fixture_graph("new-tower", 7, 2)
    ctx, codes = graph.ctx, graph.f_codes.copy()
    regular = graph.regular_components()[0].indices
    value = next(ctx.element(c) for c in codes[regular].tolist() if ctx.element(c).coeffs[1])
    conjugate = ctx.element_index(value.frobenius())
    assert conjugate in codes[regular]
    codes[codes == conjugate] = ctx.element_index(value)  # drop the conjugate
    graph.f_codes = codes
    with pytest.raises(TowerError, match="coefficients outside F_p"):
        fixtures.chi_from_graph(graph)
