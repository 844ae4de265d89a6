"""Divisor calculus: pullbacks, restricted differents, principal divisors,
and reconstruction of functions from degree-zero divisors."""

import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rectower.divisor import (
    Divisor,
    divisor_to_function,
    principal_divisor,
    pullback,
    restricted_different,
)
from rectower.errors import InsufficientField, NonzeroDegree, ZeroFunction
from rectower.ff import FieldCtx
from rectower.fixtures import FIXTURES
from rectower.p1 import ProjPoint, fiber_counts, map_parse, point_parse, ramification, ratfun_parse
from rectower.upoly import Poly, RatFun, ratfun_proportional

F5 = FieldCtx(5)
F25 = FieldCtx(5, 2, [2, -1, 1])
F25_POINTS = [ProjPoint.affine(x) for x in F25.elements()] + [ProjPoint.infinity(F25)]

F = map_parse("(x^2+x)/(3*x-1)", 5)
G = map_parse("y^2", 5)


def pts(*exprs, ctx=F5):
    return [point_parse(e, ctx) for e in exprs]


def S0():
    return pts("0", "1", "1/9", "inf")


def test_div_of_set_examples():
    d = Divisor.of_set(S0())
    assert d.degree == 4 and d.is_effective()
    assert Divisor.zero(F5).is_zero()
    assert Divisor.of_set(pts("0", "0")) == Divisor(F5, {pts("0")[0]: 1})


def test_div_of_set_reads_one_field_off_its_points():
    assert Divisor.of_set(pts("0", "inf", ctx=F25)).ctx == F25
    # 0 over F_5 and inf over F_25 lie over two fields, and [] over none
    with pytest.raises(ValueError, match="all points must live over one field"):
        Divisor.of_set(pts("0") + pts("inf", ctx=F25))
    with pytest.raises(ValueError, match="an empty point set has no field"):
        Divisor.of_set([])


def test_pullback_of_fixture_support():
    lhs = pullback(F, Divisor.of_set(S0()))
    expected = Divisor(F5, dict(zip(
        pts("0", "-1", "1", "-1/3", "1/3", "inf"),
        (1, 1, 2, 2, 1, 1))))
    assert lhs == expected
    assert lhs.degree == 2 * 4


def test_pullback_through_square_map():
    lhs = pullback(G, Divisor.of_set(S0()))
    expected = Divisor(F5, dict(zip(
        pts("0", "1", "-1", "1/3", "-1/3", "inf"),
        (2, 1, 1, 1, 1, 2))))
    assert lhs == expected


def test_pullback_zero_divisor():
    assert pullback(F, Divisor.zero(F5)).is_zero()


def test_pullback_insufficient_field():
    with pytest.raises(InsufficientField):
        pullback(G, Divisor.of_set(pts("2")))  # nonsquare target


def test_restricted_differents():
    assert restricted_different(F, S0()) == Divisor.of_set(pts("-1/3", "1"))
    assert restricted_different(G, S0()) == Divisor.of_set(pts("0", "inf"))


def test_restricted_different_away_from_ramification():
    # T0 = roots of the splitting polynomial avoids Ram(g) = {0, inf}
    chi = Poly(F25, [-1, 2, 0, 2, 1])
    t0 = [ProjPoint.affine(x) for x in chi.roots()]
    assert restricted_different(G, t0).is_zero()


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_restricted_different_is_ramification_over_s0(p):
    # D_m(S0) = sum (e - 1) P over the ramification points P with m(P) in
    # S0, for the fixtures' f and y^2 over F_{p^2}, on sets S0 of branch
    # points and of seeded points whose fibers are rational
    ctx = FieldCtx(p, 2)
    rng = random.Random(p)
    line = [ProjPoint.affine(x) for x in ctx.elements()] + [ProjPoint.infinity(ctx)]
    maps = [map_parse(FIXTURES[name].f_expr, p) for name in sorted(FIXTURES)]
    for m in maps + [map_parse("y^2", p)]:
        ram = ramification(m, ctx, strict=False)
        branch = {m.eval(q) for q in ram}
        split = [t for t in rng.sample(line, 12) if not fiber_counts(m, t)[1]]
        assert branch and split
        for s0 in (branch, set(split), branch | set(split[:3])):
            expected = Divisor(ctx, {q: e - 1 for q, e in ram.items() if m.eval(q) in s0})
            assert restricted_different(m, s0) == expected


def test_principal_divisor_rho():
    rho = ratfun_parse("(x-1)*(x+1/3)/x", F5)
    assert principal_divisor(rho) == Divisor(F5, dict(zip(
        pts("1", "-1/3", "0", "inf"), (1, 1, -1, -1))))


def test_principal_divisor_constant_and_zero():
    assert principal_divisor(ratfun_parse("3", F5)).is_zero()
    with pytest.raises(ZeroFunction):
        principal_divisor(RatFun.constant(F5, 0))


def test_principal_divisor_classical_tower():
    rho = ratfun_parse("(x-1)*(x+1)/x", F5)
    assert principal_divisor(rho) == Divisor(F5, dict(zip(
        pts("1", "-1", "0", "inf"), (1, 1, -1, -1))))


def test_principal_divisor_has_degree_zero_random():
    rng = random.Random(13)
    for _ in range(40):
        num = Poly(F25, [rng.randrange(5) for _ in range(rng.randint(1, 4))])
        den = Poly(F25, [rng.randrange(5) for _ in range(rng.randint(1, 4))])
        if num.is_zero() or den.is_zero():
            continue
        phi = RatFun(num, den)
        if phi.is_zero():
            continue
        try:
            d = principal_divisor(phi)
        except InsufficientField:
            continue
        assert d.degree == 0


def test_divisor_identity_for_both_towers():
    # f* div(S0) - g* div(S0) = D_f(S0) - D_g(S0)
    d0 = Divisor.of_set(S0())
    assert pullback(F, d0) - pullback(G, d0) == \
        restricted_different(F, S0()) - restricted_different(G, S0())

    f2 = map_parse("(x^2+1)/(2*x)", 5)
    s0 = pts("1", "-1", "0", "inf")
    d0 = Divisor.of_set(s0)
    assert pullback(f2, d0) - pullback(G, d0) == \
        restricted_different(f2, s0) - restricted_different(G, s0)


def test_rho_divisor_matches_different_gap():
    rho = ratfun_parse("(x-1)*(x+1/3)/x", F5)
    gap = restricted_different(F, S0()) - restricted_different(G, S0())
    assert principal_divisor(rho) == gap


def test_divisor_to_function_examples():
    d = Divisor(F5, dict(zip(pts("1", "-1/3", "0", "inf"), (1, 1, -1, -1))))
    phi = divisor_to_function(d)
    assert principal_divisor(phi) == d
    assert ratfun_proportional(phi, ratfun_parse("(x-1)*(x+1/3)/x", F5)) is not None

    assert divisor_to_function(Divisor.zero(F5)) == RatFun.constant(F5, 1)


def test_divisor_to_function_splitting_values():
    # div(T0) - div(S0) is the divisor of H_5(x) / (x (x-1) (x-1/9))
    chi = Poly(F25, [-1, 2, 0, 2, 1])
    t0 = [ProjPoint.affine(x) for x in chi.roots()]
    s0 = pts("0", "1", "1/9", "inf", ctx=F25)
    phi = divisor_to_function(Divisor.of_set(t0) - Divisor.of_set(s0))
    hp_lifted = Poly(F25, [1, 3, 0, 3, 4])
    reference = RatFun(hp_lifted, Poly(F25, [0, 1]) * Poly(F25, [-1, 1]) * Poly(F25, [-4, 1]))
    assert ratfun_proportional(phi, reference) is not None


def test_divisor_to_function_requires_degree_zero():
    with pytest.raises(NonzeroDegree):
        divisor_to_function(Divisor.of_set(S0()))


@st.composite
def degree_zero_divisors(draw):
    """Divisors on P^1(F_25) with 2 to 6 points in their support list, each
    multiplicity in [-3, 3] but the last, which makes the degree zero."""
    chosen = draw(st.lists(st.sampled_from(F25_POINTS), min_size=2, max_size=6, unique=True))
    mults = draw(st.lists(st.integers(-3, 3), min_size=len(chosen) - 1,
                          max_size=len(chosen) - 1))
    return Divisor(F25, dict(zip(chosen, mults + [-sum(mults)])))


@given(degree_zero_divisors())
def test_divisor_to_function_roundtrip_random(d):
    assert d.degree == 0
    assume(not d.is_zero())
    assert principal_divisor(divisor_to_function(d)) == d

