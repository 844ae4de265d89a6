"""Projective points, map parsing/evaluation, fibers, ramification, and
Moebius conjugation."""

import itertools
import random

import pytest

from rectower.divisor import Divisor, restricted_different
from rectower.errors import (
    BadPrime,
    DegreeZero,
    InsufficientField,
    MapSyntaxError,
)
from rectower.feq import divisorial_check
from rectower.ff import FieldCtx, is_prime
from rectower.p1 import (
    Mobius,
    ProjPoint,
    RatMap,
    fiber,
    fiber_counts,
    map_parse,
    mobius_conjugate,
    point_parse,
    ramification,
)
from rectower.upoly import Poly

F5 = FieldCtx(5)
F25 = FieldCtx(5, 2, [2, -1, 1])


def pt(expr, ctx=F5):
    return point_parse(expr, ctx)


def test_parse_fixture_forms():
    f = map_parse("(x^2+x)/(3*x-1)", 5)
    assert f.N == (0, 1, 1)
    assert f.D == (4, 3, 0)
    g = map_parse("y^2", 5)
    assert g.N == (0, 0, 1)
    assert g.D == (1, 0, 0)


def test_parse_rejects_constant():
    with pytest.raises(DegreeZero):
        map_parse("(2*x+2)/(x+1)", 5)
    with pytest.raises(DegreeZero):
        map_parse("7", 5)


def test_parse_syntax_errors():
    for bad in ("x+*2", "x^", "(x+1", "x+z", "x+y"):
        with pytest.raises(MapSyntaxError):
            map_parse(bad, 5)


def test_parse_implicit_coefficient():
    assert map_parse("3x^2", 5) == map_parse("3*x^2", 5)


def test_eval_fixture_points():
    f = map_parse("(x^2+x)/(3*x-1)", 5)
    assert f.eval(pt("-1/3")) == pt("1/9")
    assert f.eval(pt("inf")) == pt("inf")
    assert f.eval(pt("-1")) == pt("0")
    assert f.eval(pt("1/3")) == pt("inf")  # the denominator root


def test_eval_over_extension():
    f = map_parse("(x^2+x)/(3*x-1)", 5)
    a = F25.gen()
    value = f.eval(ProjPoint.affine(a))
    expected = (a * a + a) / (3 * a - 1)
    assert value == ProjPoint.affine(expected)


def test_fiber_double_point():
    f = map_parse("(x^2+x)/(3*x-1)", 5)
    assert fiber(f, pt("1"), F5) == Divisor(F5, {pt("1"): 2})


def test_fiber_at_infinity():
    f = map_parse("(x^2+x)/(3*x-1)", 5)
    assert fiber(f, pt("inf"), F5) == Divisor(F5, {pt("1/3"): 1, pt("inf"): 1})
    g = map_parse("y^2", 5)
    assert fiber(g, pt("inf"), F5) == Divisor(F5, {pt("inf"): 2})


def test_fiber_insufficient_field():
    g = map_parse("y^2", 5)
    with pytest.raises(InsufficientField) as err:
        fiber(g, pt("2"), F5)  # 2 is not a square mod 5
    assert err.value.missing == 2
    # over the quadratic extension the fiber is complete
    big = fiber(g, pt("2", F25), F25)
    assert big.degree == 2


def test_fiber_degree_is_constant():
    f = map_parse("(x^2+x)/(3*x-1)", 5)
    for x in F25.elements():
        counts, missing = fiber_counts(f, ProjPoint.affine(x), F25)
        assert sum(counts.values()) + missing == 2
    counts, missing = fiber_counts(f, ProjPoint.infinity(F25), F25)
    assert sum(counts.values()) + missing == 2


def test_ramification_fixture_maps():
    f = map_parse("(x^2+x)/(3*x-1)", 5)
    g = map_parse("y^2", 5)
    assert ramification(f, F5) == {pt("1"): 2, pt("-1/3"): 2}
    assert ramification(g, F5) == {pt("0"): 2, pt("inf"): 2}


def test_ramification_moebius_empty():
    tau = Mobius.parse("(3*x+1)/(x-1)", 5)
    assert ramification(tau, F5) == {}


def test_ramification_insufficient_field():
    m = map_parse("(x^2+2)/x", 5)  # Wronskian x^2 - 2 has no roots in F_5
    with pytest.raises(InsufficientField):
        ramification(m, F5)
    assert len(ramification(m, FieldCtx(5, 2))) == 2
    assert ramification(m, F5, strict=False) == {}


def test_ramification_needs_tame_characteristic():
    # with p <= d an index e can be divisible by p: over F_4 the Wronskian
    # of y^2 vanishes identically, and the ramification at 0 went unreported
    f9 = FieldCtx(3, 2)
    for expr, p, ctx in [("y^2", 2, FieldCtx(2, 2)), ("x^3+x", 3, f9)]:
        m = map_parse(expr, p)
        with pytest.raises(BadPrime):
            ramification(m, ctx)
        with pytest.raises(BadPrime):
            restricted_different(m, [pt("inf", ctx)], ctx)
    # checked before any pullback: the fiber of x^2+x over 1 is not rational
    # over F_2, and would raise InsufficientField first
    f2 = FieldCtx(2)
    with pytest.raises(BadPrime):
        divisorial_check(map_parse("x^2+x", 2), map_parse("y^2", 2), [pt("1", f2)], f2)
    assert ramification(map_parse("y^2", 3), f9) == {pt("0", f9): 2, pt("inf", f9): 2}


def test_riemann_hurwitz_totals():
    for expr, p in [("(x^2+x)/(3*x-1)", 5), ("y^2", 5), ("(x^2+1)/(2*x)", 13)]:
        m = map_parse(expr, p)
        ctx = FieldCtx(p, 2)
        total = sum(e - 1 for e in ramification(m, ctx).values())
        assert total == 2 * m.d - 2


def test_map_equality_is_projective():
    assert map_parse("(x^2+x)/(3*x-1)", 5) == map_parse("(2*x^2+2*x)/(6*x-2)", 5)
    assert map_parse("x^2", 5) != map_parse("x^2+x", 5)


def test_conjugation_recovers_tower_maps():
    # sigma o x^2 o tau and sigma o (y^2+3y)/(y-1) o tau give the tower pair
    for p in (5, 7, 11):
        sigma = Mobius.parse("(x-1)/(x-9)", p)
        tau = Mobius.parse("(3*x+1)/(x-1)", p)
        assert mobius_conjugate(map_parse("x^2", p), sigma, tau) == \
            map_parse("(x^2+x)/(3*x-1)", p)
        assert mobius_conjugate(map_parse("(y^2+3*y)/(y-1)", p), sigma, tau) == \
            map_parse("y^2", p)


def test_conjugation_by_identity():
    m = map_parse("(x^2+x)/(3*x-1)", 5)
    ident = Mobius.identity(5)
    assert mobius_conjugate(m, ident, ident) == m


def test_conjugation_pointwise_random():
    rng = random.Random(12)
    p = 13
    ctx = FieldCtx(p)
    m = map_parse("(x^2+1)/(2*x)", p)
    sigma = Mobius.parse("(2*x+3)/(x+1)", p)
    tau = Mobius.parse("(x+5)/(3*x+1)", p)
    conj = mobius_conjugate(m, sigma, tau)
    points = [ProjPoint.affine(x) for x in ctx.elements()] + [ProjPoint.infinity(ctx)]
    for _ in range(30):
        pnt = rng.choice(points)
        assert conj.eval(pnt) == sigma.eval(m.eval(tau.eval(pnt)))


def test_moebius_inverse_roundtrip():
    tau = Mobius.parse("(3*x+1)/(x-1)", 7)
    inv = tau.inverse()
    ctx = FieldCtx(7)
    for x in ctx.elements():
        p = ProjPoint.affine(x)
        assert inv.eval(tau.eval(p)) == p
    assert inv.eval(tau.eval(ProjPoint.infinity(ctx))) == ProjPoint.infinity(ctx)


def test_point_parse_literals():
    assert pt("inf").is_infinity
    assert pt("1/3") == ProjPoint.affine(F5.lift(2))
    assert pt("-1/3") == ProjPoint.affine(F5.lift(3))
    i13 = point_parse("i", FieldCtx(13))
    assert (i13.x * i13.x) == FieldCtx(13).lift(-1)
    with pytest.raises(InsufficientField):
        point_parse("i", FieldCtx(7))  # -1 is not a square mod 7


def _i_by_scan(ctx):
    """The first e in element order with e^2 = -1, by scanning the field:
    how "i" was once parsed, kept as the oracle."""
    return next((e for e in ctx.elements() if (e * e + 1).is_zero()), None)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("p", [p for p in range(5, 48) if is_prime(p)])
def test_point_parse_i_is_the_first_square_root_of_minus_one(p, r):
    ctx = FieldCtx(p, r)
    want = _i_by_scan(ctx)
    if want is None:  # r = 1 and p = 3 mod 4
        for s in ("i", "-i"):
            with pytest.raises(InsufficientField):
                point_parse(s, ctx)
        return
    assert point_parse("i", ctx) == point_parse("+i", ctx) == ProjPoint.affine(want)
    assert point_parse("-i", ctx) == ProjPoint.affine(-want)


def test_fiber_counts_are_found_once_and_read_only():
    f = map_parse("(x^2+x)/(3*x-1)", 5)
    t = pt("1", F25)
    counts, missing = fiber_counts(f, t, F25)
    assert fiber_counts(f, t, F25)[0] is counts
    with pytest.raises(TypeError):
        counts[pt("0", F25)] = 1
    # another working field is another fiber
    assert fiber_counts(f, pt("1"), F5)[0] is not counts


def test_point_sort_order():
    pts = [pt("inf"), pt("3"), pt("0")]
    assert [str(q) for q in sorted(pts, key=lambda q: q.sort_key())] == ["0", "3", "inf"]


def test_wronskian_coefficients():
    f = map_parse("(x^2+x)/(3*x-1)", 5)
    # (2x+1)(3x-1) - 3(x^2+x) = 3x^2 - 2x - 1
    assert f.wronskian_coeffs() == (4, 3, 3)


def _int_poly_str_oracle(coeffs) -> str:
    """The integer-list printer ``RatMap`` used before it printed through
    ``Poly.__str__``, kept as the oracle."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            xs = "x" if i == 1 else f"x^{i}"
            parts.append(xs if c == 1 else f"{c}*{xs}")
    return "+".join(parts) if parts else "0"


def test_prime_field_polys_print_as_int_lists():
    # every coefficient vector of length <= 4 over each prime: 3,734 in all
    seen = 0
    for p in (2, 3, 5, 7):
        ctx = FieldCtx(p)
        for length in range(5):
            for coeffs in itertools.product(range(p), repeat=length):
                assert str(Poly(ctx, coeffs)) == _int_poly_str_oracle(coeffs)
                seen += 1
    assert seen == 3734


def test_map_strings_and_degenerate_message():
    assert str(map_parse("(x^2+x)/(3*x-1)", 5)) == "(x^2+x)/(3*x+4)"
    assert str(map_parse("y^2", 7)) == "x^2"
    assert str(map_parse("(x^2+1)/(2*x)", 7)) == "(x^2+1)/(2*x)"
    with pytest.raises(DegreeZero, match=r"^\(x\^2\+x\):\(x\^2\+x\) does not define a degree-2"):
        RatMap(5, (0, 1, 1), (0, 1, 1))
