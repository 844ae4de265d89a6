"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
go by.  All arithmetic is exact, so every comparison is equality; the few
runtime bounds are asserted with wall-clock measurements.
"""

import random
import time

from rectower import feq, fixtures, genus, series
from rectower.ff import FieldCtx, legendre
from rectower.p1 import ProjPoint, map_parse, point_parse
from rectower.search import SearchParams, search
from rectower.tgraph import ComponentClass, TowerGraph
from rectower.upoly import Poly

F25_MODULUS = [2, -1, 1]  # a^2 - a + 2, pinning the reference generator labels

CHI_TABLE = {
    5: [-1, 2, 0, 2, 1],
    7: [1, 3, 1, 2, 2, -2, 1],
    11: [-1, -3, -4, -5, -1, 0, -2, -2, 1, 4, 1],
    13: [1, 3, 2, 2, 2, -1, 4, 4, 6, 2, 5, -4, 1],
    17: [-1, -3, 2, -8, 7, 5, 4, -2, 0, 1, -1, -7, 7, -4, -8, 6, 1],
    19: [1, 3, -4, -2, -7, -2, 0, -5, 5, 7, 7, -6, 0, 7, 2, -3, 3, -6, 1],
    23: [-1, -3, 8, -1, 5, -7, -2, -9, 9, -9, 4, 0, 10, -7, -6, 8, -7, -2, 3,
         -10, 7, 8, 1],
}


def report(cid: str, desc: str, ok: bool):
    print(f"[{cid}] {'PASS' if ok else 'FAIL'}  {desc}")
    assert ok, f"{cid} failed: {desc}"


def tower_maps(p):
    return map_parse("(x^2+x)/(3*x-1)", p), map_parse("y^2", p)


def test_c01_search_reproduction():
    expected = lambda p: SearchParams(1, 1, 0, 0, 3, (-1) % p)
    ok = True
    elapsed_17 = None
    for p in (5, 7, 11, 13, 17):
        start = time.perf_counter()
        sols = search(p)
        took = time.perf_counter() - start
        if p == 17:
            elapsed_17 = took
        ok = ok and len(sols) == 1 and sols[0].params == expected(p)
        ok = ok and sols[0].f == map_parse("(x^2+x)/(3*x-1)", p)
    ok = ok and elapsed_17 < 60.0
    report("C1", f"unique solution (x^2+x)/(3x-1) for p in 5..17; "
                 f"p=17 scan {elapsed_17:.1f}s < 60s", ok)


def chi_for(p):
    f, g = tower_maps(p)
    ctx = FieldCtx(p, 2, F25_MODULUS if p == 5 else None)
    graph = TowerGraph(f, g, ctx)
    return fixtures.chi_from_graph(graph)


def test_c02_chi_table_reproduction():
    ok = True
    slowest = 0.0
    for p, row in CHI_TABLE.items():
        start = time.perf_counter()
        chi = chi_for(p)
        slowest = max(slowest, time.perf_counter() - start)
        ok = ok and chi == Poly(FieldCtx(p), row)
        ok = ok and chi.leading() == FieldCtx(p).one()
    ok = ok and slowest < 10.0
    report("C2", f"monic chi_p matches the reference table for 7 primes; "
                 f"slowest build {slowest:.2f}s < 10s", ok)


def test_c03_series_chi_bridge():
    ok = True
    for p in CHI_TABLE:
        ok = ok and chi_for(p) * legendre(-3, p) == series.truncate_H_mod_p(p)
    report("C3", "(-3/p) chi_p equals the mod-p series truncation, 7 primes", ok)


def test_c04_splitting_component_p5():
    f, g = tower_maps(5)
    ctx = FieldCtx(5, 2, F25_MODULUS)
    graph = TowerGraph(f, g, ctx)
    regs = graph.regular_components()
    a = ctx.gen()
    expected = {ProjPoint.affine(a ** k) for k in (3, 7, 9, 11, 15, 19, 21, 23)}
    ok = len(regs) == 1 and set(regs[0].vertices) == expected
    ok = ok and all(graph.in_deg[graph.index(v)] == 2
                    and graph.out_deg[graph.index(v)] == 2
                    for v in regs[0].vertices)
    report("C4", "unique 2-regular component over F_25 is the expected "
                 "generator-power set with all degrees 2", ok)


def test_c05_polynomial_functional_equation():
    primes = [p for p in range(5, 98) if all(p % q for q in range(2, p))]
    start = time.perf_counter()
    ok = all(series.poly_feq_check(p)[0] for p in primes)
    took = time.perf_counter() - start
    ok = ok and took < 5.0
    report("C5", f"(3x-1)^(p-1) H_p((x^2+x)/(3x-1)) ~ H_p(x^2) for all "
                 f"{len(primes)} primes in [5, 97], {took:.2f}s < 5s", ok)


def test_c06_regularness_both_directions():
    rng = random.Random(601)
    ok = True
    for p in (5, 7, 13):
        f, g = tower_maps(p)
        ctx = FieldCtx(p, 2, F25_MODULUS if p == 5 else None)
        s0 = [point_parse(e, ctx) for e in ("0", "1", "1/9", "inf")]
        t0 = fixtures.splitting_points(p, ctx)
        ok = ok and len(t0) == p - 1
        rep = feq.regularness_check(f, g, s0, t0)
        ok = ok and rep.holds
        # the preimage components are classified d-regular
        graph = TowerGraph(f, g, ctx)
        pre, missing = fixtures.map_preimage(f, t0)
        ok = ok and missing == 0
        for comp in graph.components():
            if any(v in pre for v in comp.vertices):
                ok = ok and comp.cls is ComponentClass.D_REGULAR
        # perturbed value sets must fail
        forbidden = set(t0) | {point_parse("0", ctx)}
        pool = [ProjPoint.affine(x) for x in ctx.elements()
                if ProjPoint.affine(x) not in forbidden]
        for _ in range(5):
            broken = list(t0)
            broken[rng.randrange(len(broken))] = rng.choice(pool)
            rep = feq.regularness_check(f, g, s0, broken)
            ok = ok and not rep.holds
    report("C6", "functional criterion certifies the true splitting values "
                 "and rejects 5 perturbations, p in {5, 7, 13}", ok)


def test_c07_series_identities():
    start = time.perf_counter()
    ok = series.hypergeom_identity_check(60)
    ok = ok and series.series_feq_check(60)
    ok = ok and series.ode_check(60)
    ok = ok and all(series.li_trick_check(p, 60) for p in (5, 7, 11, 13))
    ok = ok and tuple(series.coeff_a(n) for n in range(8)) == \
        (1, 3, 15, 93, 639, 4653, 35169, 272835)
    took = time.perf_counter() - start
    ok = ok and took < 5.0
    report("C7", f"series identities at order 60 plus first 8 coefficients, "
                 f"{took:.2f}s < 5s", ok)


def test_c08_lucas_property():
    failures = 0
    for p in (5, 7, 11, 13, 17, 19, 23):
        series._a_mod_table(p, 10 ** 4)
        failures += sum(1 for n in range(10 ** 4 + 1) if not series.lucas_check(n, p))
    report("C8", "digit congruence a_n = prod a_{n_i} mod p for all "
                 "n <= 10^4 and 7 primes, zero failures", failures == 0)


def test_c09_genus_formulas():
    ok = all(genus.genus_sum(n) == genus.genus_closed(n) for n in range(2, 25))
    ok = ok and genus.genus_closed(4) == 9 and genus.genus_closed(5) == 21
    ok = ok and genus.delta(3) == 2 and genus.delta(4) == 4
    report("C9", "genus summation equals the closed form for n in [2, 24]; "
                 "g_4 = 9, g_5 = 21, delta_3 = 2, delta_4 = 4", ok)


def test_c10_point_counts():
    f, g = tower_maps(5)
    graph = TowerGraph(f, g, FieldCtx(5, 2, F25_MODULUS))
    comp = graph.regular_components()[0]
    ok = all(graph.count_paths(n - 1, comp.vertices) == 4 * 2 ** n
             for n in range(2, 15))
    ok = ok and all(graph.singular_paths(n - 1) == 2 * (n - 2)
                    for n in range(3, 15))
    report("C10", "splitting component carries 4*2^n paths and the singular "
                  "graph 2(n-2), for n up to 14", ok)


def test_c11_criteria_equivalence():
    f, g = tower_maps(5)
    big = FieldCtx(5, 4)
    subfield = [x for x in big.elements() if x ** 25 == x]
    points = [ProjPoint.affine(x) for x in subfield] + [ProjPoint.infinity(big)]
    complete_seed = [point_parse(e, big) for e in ("0", "1", "1/9", "inf")]
    t0_seed = fixtures.splitting_points(5, big)
    rng = random.Random(1100)
    checked = 0
    agree = True
    both_seen = set()
    for trial in range(100):
        if trial % 10 == 0:
            s0 = list(complete_seed) if trial % 20 == 0 else list(t0_seed)
            if trial % 40 == 10:
                s0.append(rng.choice(points))
        else:
            s0 = rng.sample(points, rng.randint(1, 6))
        pre, missing = fixtures.map_preimage(f, s0)
        if missing:
            continue
        both = all(feq.is_complete(f, g, pre))
        div = feq.divisorial_check(f, g, s0)
        agree = agree and (both == div)
        both_seen.add(div)
        checked += 1
    ok = agree and checked >= 100 and both_seen == {True, False}
    report("C11", f"set-theoretic and divisorial criteria agree on "
                  f"{checked} random value sets over F_25", ok)


def test_c12_classical_tower():
    ok = True
    for p in (5, 13):
        ctx = FieldCtx(p, 2)
        bound = fixtures.load_fixture("gs-tower", ctx)
        graph = TowerGraph(bound.f, bound.g, ctx)
        ok = ok and fixtures._gs_chain_ok(graph, bound.fixture.chain)
        regs = graph.regular_components()
        ok = ok and len(regs) == 1 and regs[0].size == 2 * (p - 1)
        chi = fixtures.chi_from_graph(graph)
        holds, _c = series.functional_equation_holds(
            [c.coeffs[0] for c in chi.coeffs], [1, 0, 1], [0, 2], p)
        ok = ok and holds
    report("C12", "classical tower: singular chain shape, 2(p-1)-vertex "
                  "splitting component, and x^{p-1} h((x^2+1)/(2x)) ~ h(x^2), "
                  "p in {5, 13}", ok)


def test_c13_moebius_conjugacy():
    ok = all(fixtures.conjugate_check(p)["ok"] for p in (5, 7, 11))
    report("C13", "sigma o x^2 o tau and sigma o (y^2+3y)/(y-1) o tau "
                  "reproduce the tower pair over F_5, F_7, F_11", ok)


def test_c14_lenstra_checker():
    toy = fixtures.load_fixture("type-a-toy", FieldCtx(5))
    verdict = feq.lenstra_check(toy.f, toy.g, toy.s)
    ok = verdict is feq.LenstraVerdict.NO_SPLITTING_SET_POSSIBLE
    for r in range(1, 5):
        ctx = FieldCtx(5, r) if r > 1 else FieldCtx(5)
        ok = ok and not TowerGraph(toy.f, toy.g, ctx).regular_components()
    for name in ("new-tower", "gs-tower"):
        bound = fixtures.load_fixture(name, FieldCtx(5))
        verdict = feq.lenstra_check(bound.f, bound.g, bound.s)
        ok = ok and verdict is feq.LenstraVerdict.INCONCLUSIVE
    report("C14", "loop-at-a-point tower admits no splitting set (graphs "
                  "checked to r = 4); both genuine towers inconclusive", ok)
