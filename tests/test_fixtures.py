"""Fixture loading, splitting polynomials from graphs, and the verify
pipeline."""

import dataclasses
import functools
import random

import numpy as np
import pytest

from rectower import cli, feq, fixtures, p1, series
from rectower.errors import (BadPrime, InsufficientField, NoRegularComponent, NotComplete,
                             RamifiedT0, TowerError)
from rectower.ff import FieldCtx, is_prime, legendre, pmul, pradical, psubst
from rectower.fieldarrays import FieldArrays
from rectower.p1 import RatMap, map_parse
from rectower.tgraph import ComponentClass, ComponentReport, TowerGraph
from rectower.upoly import Poly, prime_field_ints, ratfun_proportional


def test_fixture_names():
    assert set(fixtures.FIXTURES) == {"new-tower", "gs-tower", "type-a-toy"}


def test_load_validates_invariants():
    bound = fixtures.load_fixture("new-tower", 5)
    assert bound.ctx.order == 5
    assert len(bound.s) == 6 and len(bound.s0) == 4


@pytest.mark.parametrize("name, p", [(name, p) for p in range(5, 48) if is_prime(p)
                                     for name in ("new-tower", "gs-tower")])
def test_rho_is_the_criterion_function(name, p):
    # the table's rho is exactly the function with div(rho) = D_f(S0) - D_g(S0)
    # that the functional criterion computes, not only up to a constant
    ctx = FieldCtx(p, 2)
    bound = fixtures.load_fixture(name, p, ctx=ctx, check=False)
    _, rho = feq._s0_half(bound.f, bound.g, bound.s0, ctx)
    assert ratfun_proportional(rho, p1.ratfun_parse(bound.fixture.rho_expr, ctx)) == ctx.one()


@pytest.mark.parametrize("p", [p for p in range(5, 200) if is_prime(p)])
def test_series_bridge_is_the_monic_signed_truncation(p):
    bridge = fixtures.series_bridge(p)
    assert bridge == prime_field_ints((series.truncate_H_mod_p(p) * legendre(-3, p)).coeffs)
    assert bridge[-1] == 1 and len(bridge) == p


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
    # none is found twice; they are the 8 of S0 under f and g, since the
    # preimage of T0 is counted from R o f rather than solved fiber by fiber
    found = []
    real = p1._find_fiber
    monkeypatch.setattr(p1, "_find_fiber",
                        lambda m, t, ctx: found.append((m, t)) or real(m, t, ctx))
    assert fixtures.verify_fixture("new-tower", 97)["ok"]
    assert len(found) == len(set(found)) == 8


def test_verify_builds_no_point_per_splitting_value(monkeypatch):
    # T0 and its preimage are counted on polynomials, so the points verify
    # builds (S, S0, their fibers, ramification) do not grow with p
    built = []
    real = p1.ProjPoint.__init__
    monkeypatch.setattr(p1.ProjPoint, "__init__",
                        lambda self, *args: built.append(1) or real(self, *args))
    counts = []
    for p in (23, 97):
        built.clear()
        assert fixtures.verify_fixture("new-tower", p)["ok"]
        counts.append(len(built))
    assert counts[0] == counts[1]


def _count_graph_work(monkeypatch):
    """Lists that record, per call, the graph of each walk, the graph of
    each component table built, and each ``ComponentReport`` made."""
    walks, tables, reports = [], [], []
    real_walk, table = TowerGraph._walk, TowerGraph.__dict__["_table"]
    real_table, real_report = table.func, ComponentReport.__init__

    def walk(graph, *args, **kwargs):
        walks.append(graph)
        return real_walk(graph, *args, **kwargs)

    def build_table(graph):
        tables.append(graph)
        return real_table(graph)

    def report(self, *args):
        reports.append(self)
        real_report(self, *args)

    monkeypatch.setattr(TowerGraph, "_walk", walk)
    monkeypatch.setattr(table, "func", build_table)  # a cached_property calls its func
    monkeypatch.setattr(ComponentReport, "__init__", report)
    return walks, tables, reports


def test_verify_walks_twice_and_groups_once(monkeypatch):
    # one walk for the regular component's path counts at every length and
    # one for the singular counts (eight separate walks before), no table of
    # all the components (the regular set and the singular walk read the
    # labels) until one is asked for, and then one, and a report only for
    # the regular component that verify asks for, not one per component
    walks, tables, reports = _count_graph_work(monkeypatch)
    assert fixtures.verify_fixture("new-tower", 23)["ok"]
    assert len(walks) == 2 and len(set(walks)) == 1
    assert tables == []
    assert [r.cls for r in reports] == [ComponentClass.D_REGULAR]
    assert len(walks[0].components()) == 192  # one report per component made before
    assert tables == walks[:1]


@pytest.mark.parametrize("argv", [["chi", "--p", "89"], ["genus", "--p", "97", "--n-max", "60"]])
def test_chi_and_genus_make_no_component_reports(monkeypatch, capsys, argv):
    # both read the regular vertices off the component labels: no table of
    # all the components and no report
    walks, tables, reports = _count_graph_work(monkeypatch)
    assert cli.main(argv) == 0
    assert tables == [] and reports == []


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
# verify's root-free splitting checks against the F_{p^r} oracles

def _new_tower(p, ext):
    ctx = FieldCtx(p, ext)
    bound = fixtures.load_fixture("new-tower", p, ctx=ctx, check=False)
    return bound, TowerGraph(bound.f, bound.g, ctx)


def _radical_of_hp(p, ctx):
    hp = prime_field_ints(series.truncate_H_mod_p(p).coeffs)
    return pradical(hp, ctx.order, p)


@pytest.mark.parametrize("p, ext", [(p, 2) for p in range(5, 48) if is_prime(p)]
                         + [(5, 4), (7, 4)])
def test_fp_certificate_matches_oracle(p, ext):
    bound, graph = _new_tower(p, ext)
    ctx, f = bound.ctx, bound.f
    r = _radical_of_hp(p, ctx)
    s, t, constant, r_f = feq.splitting_criterion(f, bound.g, bound.s0, r)

    oracle_t0 = fixtures.splitting_points(p, ctx)
    report = feq.regularness_check(f, bound.g, bound.s0, oracle_t0, ctx)
    assert Poly(FieldCtx(p), r) == fixtures.chi_from_graph(graph)
    assert Poly(ctx, r) == Poly.from_roots(ctx, [q.x for q in oracle_t0])
    assert len(r) - 1 == p - 1 and report.holds
    assert (s, t, str(constant)) == (report.s, report.t, str(report.constant))
    # R o f is c prod (x - P) over the affine points of f^{-1}(T0), and its
    # degree drops exactly when infinity is in f^{-1}(T0)
    pre, missing = fixtures.map_preimage(f, oracle_t0, ctx)
    assert missing == 0 and pre == set(graph.regular_components()[0].vertices)
    affine = [q.x for q in pre if not q.is_infinity]
    assert Poly(ctx, r_f) == Poly(ctx, r_f[-1:]) * Poly.from_roots(ctx, affine)
    assert (len(r_f) - 1 < f.d * (p - 1)) == (p1.ProjPoint.infinity(ctx) in pre)


def _forbid(*_args, **_kwargs):
    raise AssertionError("an F_{p^r} oracle ran")


@functools.lru_cache(maxsize=None)
def _chi_over_fp2(name, p):
    return prime_field_ints(fixtures.chi_from_graph(fixtures.fixture_graph(name, p)[1]).coeffs)


@pytest.mark.parametrize("times_x", [False, True], ids=["R", "R*x"])
@pytest.mark.parametrize("ext", [1, 2])
@pytest.mark.parametrize("name, p", [(name, p) for name in ("new-tower", "gs-tower")
                                     for p in range(5, 48) if is_prime(p)])
def test_t0_gcd_matches_the_ramification_points(monkeypatch, name, p, ext, times_x):
    # splitting_criterion's gcd(R, W_g) against the points oracle: g's
    # ramification points over F_{p^ext} among the roots of R.  R is the
    # radical of chi over F_{p^ext}; R*x adds 0, where g = y^2 ramifies
    ctx = FieldCtx(p, ext)
    bound = fixtures.load_fixture(name, p, ctx=ctx, check=False)
    r = pradical(_chi_over_fp2(name, p), ctx.order, p)
    if times_x:
        r = pmul(r, [0, 1], p)
    roots = {p1.ProjPoint.affine(x) for x in Poly(ctx, r).roots()}
    meets = bool(roots & set(p1.ramification(bound.g, ctx, strict=False)))
    monkeypatch.setattr(p1, "ramification", _forbid)
    monkeypatch.setattr(feq, "ramification", _forbid)
    monkeypatch.setattr(Poly, "eval", _forbid)
    if name == "gs-tower" and ext == 1 and p % 4 == 3:
        # f^{-1}(0) = {i, -i} is not rational: S0's half refuses before T0 is tested
        with pytest.raises(InsufficientField):
            feq.splitting_criterion(bound.f, bound.g, bound.s0, r)
        return
    try:
        feq.splitting_criterion(bound.f, bound.g, bound.s0, r)
        raised = None
    except (RamifiedT0, ValueError) as exc:
        raised = exc
    assert isinstance(raised, RamifiedT0) == meets
    assert isinstance(raised, ValueError) == (len(r) == 1)  # T0 is empty


def _bridged_gs(monkeypatch):
    """gs-tower's maps with a series bridge they do not have."""
    fake = dataclasses.replace(fixtures.FIXTURES["gs-tower"], name="bridged-gs",
                               series_bridge=True, chain=())
    monkeypatch.setitem(fixtures.FIXTURES, "bridged-gs", fake)
    return "bridged-gs"


def _flip_legendre(monkeypatch):
    """Make chi (-3/p) = H_p fail by flipping the Legendre symbol verify reads."""
    monkeypatch.setattr(fixtures, "legendre", lambda a, p: -legendre(a, p))


def _failures(report):
    return [c["name"] for c in report["checks"] if not c["ok"]]


@pytest.mark.parametrize("p, ext", [(7, 2), (23, 2), (5, 4)])
def test_verify_success_path_finds_no_roots(monkeypatch, p, ext):
    # and neither do the failure paths: a failed bridge, or the maps of
    # another tower, run the same root-free checks
    roots = Poly.roots

    def fiber_roots_only(poly):
        # fibers and ramification of the degree-2 maps are quadratics; the
        # field scan for the roots of H_p would be the only larger call
        if poly.degree > 2:
            _forbid()
        return roots(poly)

    monkeypatch.setattr(fixtures, "splitting_points", _forbid)
    monkeypatch.setattr(feq, "regularness_check", _forbid)
    monkeypatch.setattr(feq, "ramification", _forbid)
    monkeypatch.setattr(Poly, "eval", _forbid)
    monkeypatch.setattr(fixtures, "map_preimage", _forbid)
    monkeypatch.setattr(Poly, "roots", fiber_roots_only)
    report = fixtures.verify_fixture("new-tower", p, ext=ext)
    assert report["ok"], [c for c in report["checks"] if not c["ok"]]
    bridged = fixtures.verify_fixture(_bridged_gs(monkeypatch), p, ext=ext)
    assert "chi-series-bridge" in _failures(bridged)
    _flip_legendre(monkeypatch)
    flipped = fixtures.verify_fixture("new-tower", p, ext=ext)
    assert _failures(flipped) == ["chi-series-bridge"]


def _splitting_checks(report):
    names = ("splitting-values-rational", "regularness-criterion",
             "splitting-set-is-regular-component")
    return [(c["name"], c["ok"], c["detail"]) for c in report["checks"] if c["name"] in names]


def _oracle_splitting_checks(name, p):
    """verify's three splitting checks for a series-bridge fixture over
    F_{p^2}, from the roots of H_p found by scanning the field
    (``splitting_points``), ``feq.regularness_check`` on them, and their
    preimage under f solved fiber by fiber (``map_preimage``)."""
    ctx = FieldCtx(p, 2)
    bound = fixtures.load_fixture(name, p, ctx=ctx, check=False)
    regular = TowerGraph(bound.f, bound.g, ctx).regular_components()[0]
    t0 = fixtures.splitting_points(p, ctx)
    report = feq.regularness_check(bound.f, bound.g, bound.s0, t0, ctx)
    pre, missing = fixtures.map_preimage(bound.f, t0, ctx)
    return [
        ("splitting-values-rational", len(t0) == p - 1, f"{len(t0)} of {p - 1}"),
        ("regularness-criterion", report.holds,
         f"s={report.s} t={report.t} constant={report.constant}"),
        ("splitting-set-is-regular-component", missing == 0 and pre == set(regular.vertices),
         f"preimage size {len(pre)}"),
    ]


def test_failed_bridge_reports_from_the_oracle(monkeypatch):
    # gs-tower's maps with a series bridge they do not have: the report's
    # splitting checks are those the roots of H_p over F_{p^2} give
    name = _bridged_gs(monkeypatch)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        report = fixtures.verify_fixture(name, p)
        assert "chi-series-bridge" in _failures(report)
        assert _splitting_checks(report) == _oracle_splitting_checks(name, p), p


def test_failed_certificate_reports_from_the_oracle(monkeypatch):
    # with H_p read as H_p(x + 1) its roots are not the splitting values, so
    # the certificate fails; its splitting checks are those the oracles give
    # for the same roots
    real = series.truncate_H_mod_p

    def shifted(p):
        return Poly(FieldCtx(p), psubst(prime_field_ints(real(p).coeffs), [1, 1], [1], p))

    monkeypatch.setattr(series, "truncate_H_mod_p", shifted)
    for p in (7, 11, 23):
        report = fixtures.verify_fixture("new-tower", p)
        checks = _splitting_checks(report)
        assert "chi-series-bridge" in _failures(report)
        assert not all(ok for _, ok, _ in checks), p
        assert checks == _oracle_splitting_checks("new-tower", p), p


@pytest.mark.parametrize("p", [7, 11, 23])
def test_flipped_bridge_reports_match_the_oracle(monkeypatch, p):
    # chi (-3/p) = H_p fails, but the roots of H_p are still the splitting
    # values: only the bridge check fails, and the splitting checks are the
    # oracle's
    _flip_legendre(monkeypatch)
    report = fixtures.verify_fixture("new-tower", p)
    assert _failures(report) == ["chi-series-bridge"]
    assert _splitting_checks(report) == _oracle_splitting_checks("new-tower", p)


def test_certificate_keeps_the_criterion_preconditions(monkeypatch):
    # a bridge times x puts 0, where g = y^2 ramifies, into T0: the gcd of R
    # with g's Wronskian 2y refuses it, and no oracle runs
    p = 7
    monkeypatch.setattr(fixtures, "splitting_points", _forbid)
    monkeypatch.setattr(feq, "regularness_check", _forbid)
    monkeypatch.setattr(feq, "ramification", _forbid)
    with monkeypatch.context() as m:
        bridge = fixtures.series_bridge
        m.setattr(fixtures, "series_bridge", lambda p: pmul(bridge(p), [0, 1], p))
        with pytest.raises(RamifiedT0, match="at the roots of x$"):
            fixtures.verify_fixture("new-tower", p)
    monkeypatch.setattr(feq, "divisorial_check", lambda *args: False)
    with pytest.raises(NotComplete):
        fixtures.verify_fixture("new-tower", p)


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_root_count_is_the_number_of_distinct_roots(p, r):
    # the monic gcd(h, x^q - x) against the product of x - a over the
    # distinct roots a that Poly.roots finds over F_q: its degree is their count
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
        radical = pradical(h, ctx.order, p)
        assert Poly(ctx, radical) == Poly.from_roots(ctx, set(Poly(ctx, h).roots())), h


def test_preimage_check_needs_one_regular_component(monkeypatch):
    # chi covers every d-regular component, so when the graph reports two,
    # f^{-1}(T0) is larger than the first and the preimage check fails
    real = TowerGraph.regular_components

    def split(graph):
        (comp,) = real(graph)
        members, half = np.array(comp.indices), comp.size // 2
        return [ComponentReport(graph.ctx, members, a, b, ComponentClass.D_REGULAR, None)
                for a, b in ((0, half), (half, comp.size))]

    monkeypatch.setattr(TowerGraph, "regular_components", split)
    report = fixtures.verify_fixture("new-tower", 11)
    assert {"regular-component-unique", "splitting-set-is-regular-component"} <= set(
        _failures(report))
    assert _splitting_checks(report)[2] == (
        "splitting-set-is-regular-component", False, "preimage size 20")


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("f_expr", ["(x^2+x)/(3*x-1)", "(2*x^2+1)/(x^2+x)", "(x+1)/(x^2+2)",
                                    "(x^3+1)/(x^3+x)", "3*x+1"])
def test_preimage_size_counts_the_preimage(p, f_expr):
    # against map_preimage for T0 the roots of r in F_{p^2}, with f(inf) in
    # T0 (the degree of r o f drops) and not
    ctx, f = FieldCtx(p, 2), map_parse(f_expr, p)
    at_inf = f.eval(p1.ProjPoint.infinity(ctx))
    shift = [] if at_inf.is_infinity else [-at_inf.x.coeffs[0], 1]
    for h in ([1, 0, 1], [2, 1, 1, 1], pmul([0, 1], [-1, 0, 1], p),
              prime_field_ints(series.truncate_H_mod_p(p).coeffs)):
        for h in (h, pmul(h, shift, p)) if shift else (h,):
            r = pradical(h, ctx.order, p)
            t0 = [p1.ProjPoint.affine(x) for x in Poly(ctx, r).roots()]
            pre, _ = fixtures.map_preimage(f, t0, ctx)
            r_f = psubst(r, f.num_coeffs, f.den_coeffs, p)
            assert fixtures._preimage_size(r_f, f.d * (len(r) - 1), ctx.order, p) == len(pre)


# ---------------------------------------------------------------------------
# chi from Frobenius orbits against the product of linear factors over F_{p^r}

def _fixture_graph(name, p, ext):
    ctx = FieldCtx(p, ext)
    bound = fixtures.load_fixture(name, p, ctx=ctx, check=False)
    return bound, TowerGraph(bound.f, bound.g, ctx)


def _chi_oracle(f, graph):
    """prod (x - v) over F_{p^r}, v over the f-values on the d-regular
    components, evaluated point by point, and brought down to F_p."""
    ctx = graph.ctx
    values = {f.eval(v) for c in graph.regular_components() for v in c.vertices}
    chi = Poly.one(ctx)
    for v in values:
        chi = chi * Poly(ctx, (-v.x, ctx.one()))
    assert all(not any(c.coeffs[1:]) for c in chi.coeffs)
    return Poly(FieldCtx(ctx.p), [c.coeffs[0] for c in chi.coeffs])


@pytest.mark.parametrize("name, p, ext",
                         [(name, p, 2) for p in range(5, 48) if is_prime(p)
                          for name in ("new-tower", "gs-tower")]
                         + [("new-tower", 5, 4), ("gs-tower", 5, 4),  # orbits of up to 4
                            ("new-tower", 7, 4)])
def test_chi_from_orbits_matches_linear_factors(name, p, ext):
    bound, graph = _fixture_graph(name, p, ext)
    chi = fixtures.chi_from_graph(graph)
    assert chi == _chi_oracle(bound.f, graph)
    assert chi.degree == p - 1


@pytest.mark.parametrize("p", [5, 7, 11, 13, 47])
def test_chi_over_the_prime_field_from_orbits_of_one(p):
    # x^2 against y^2: every {P, -P} with P != 0, inf is a 2-regular
    # component over F_p, and the f-values are the (p - 1) / 2 nonzero squares
    f = map_parse("x^2", p)
    graph = TowerGraph(f, map_parse("y^2", p), FieldCtx(p))
    chi = fixtures.chi_from_graph(graph)
    assert chi == _chi_oracle(f, graph)
    assert chi.degree == (p - 1) // 2


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


def test_chi_rejects_an_orbit_product_outside_the_prime_field(monkeypatch):
    # with the Frobenius taken as the identity every value is an orbit of its
    # own, so the set is closed, yet x - v for v outside F_p has a digit above
    _, graph = _fixture_graph("new-tower", 7, 2)
    monkeypatch.setattr(FieldArrays, "frobenius", lambda self, a: a)
    with pytest.raises(TowerError, match="coefficients outside F_p"):
        fixtures.chi_from_graph(graph)
