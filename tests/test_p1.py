"""Projective points, map parsing/evaluation, fibers, ramification, and
Moebius conjugation."""

import functools
import inspect
import itertools
import operator
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rectower.divisor import Divisor, restricted_different
from rectower.errors import (
    BadPrime,
    CompositeP,
    DegreeZero,
    FieldMismatch,
    InsufficientField,
    MapSyntaxError,
)
from rectower.feq import divisorial_check
from rectower.ff import FieldCtx, FieldElem, is_prime
from rectower.fixtures import FIXTURES
from rectower.p1 import (
    Mobius,
    ProjPoint,
    RatMap,
    fiber,
    fiber_counts,
    map_parse,
    map_preimage,
    mobius_conjugate,
    parse_fraction,
    point_multiplicity_in_fiber,
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
    for bad in ("x+*2", "x^", "(x+1", "x+z", "x+y", "x²",
                "x**2", "x^2^3", "2^-1", "0x10", "1_0", "1.5", "1e3", "x2", "xy", "3(x)"):
        with pytest.raises(MapSyntaxError):
            map_parse(bad, 5)


def test_parse_implicit_coefficient():
    assert map_parse("3x^2", 5) == map_parse("3*x^2", 5)
    # an implicit coefficient and its power are one factor
    assert parse_fraction("2x/7x^2", 11) == ([0, 2], [0, 0, 7])
    assert parse_fraction("1 /3 x", 11) == ([1], [0, 3])


def test_parse_quirks():
    # a parenthesised exponent is still an integer literal; leading zeros
    # read as int() reads them; a divisor that is a multiple of p is zero
    assert parse_fraction("x^(2)", 7) == parse_fraction("x^2", 7)
    assert parse_fraction("07x^02", 11) == parse_fraction("7x^2", 11)
    for bad, p in (("(1/7)^0", 7), ("14/(18/11)", 11)):
        with pytest.raises(MapSyntaxError, match="division by zero"):
            parse_fraction(bad, p)


# (num, den) of every fixture and conjugate_check string at p = 5, 7, 11, 97,
# recorded from the recursive-descent parser that preceded parse_fraction:
# unreduced and untrimmed, as a map prints its forms
CONJUGATE_STRINGS = ("(x-1)/(x-9)", "(3*x+1)/(x-1)", "x^2", "(y^2+3*y)/(y-1)")
PINNED_FORMS = {
    "(x^2+x)/(3*x-1)": [([0, 1, 1], [4, 3]), ([0, 1, 1], [6, 3]), ([0, 1, 1], [10, 3]),
                        ([0, 1, 1], [96, 3])],
    "y^2": [([0, 0, 1], [1])] * 4,
    "0": [([0], [1])] * 4,
    "1": [([1], [1])] * 4,
    "-1": [([4], [1]), ([6], [1]), ([10], [1]), ([96], [1])],
    "1/3": [([1], [3])] * 4,
    "-1/3": [([4], [3]), ([6], [3]), ([10], [3]), ([96], [3])],
    "1/9": [([1], [4]), ([1], [2]), ([1], [9]), ([1], [9])],
    "(x-1)*(x+1/3)/x": [([4, 3, 3], [0, 3]), ([6, 5, 3], [0, 3]), ([10, 9, 3], [0, 3]),
                        ([96, 95, 3], [0, 3])],
    "(x^2+1)/(2*x)": [([1, 0, 1], [0, 2])] * 4,
    "(x-1)*(x+1)/x": [([4, 0, 1], [0, 1]), ([6, 0, 1], [0, 1]), ([10, 0, 1], [0, 1]),
                      ([96, 0, 1], [0, 1])],
    "x^2+x": [([0, 1, 1], [1])] * 4,
    "(x-1)/(x-9)": [([4, 1], [1, 1]), ([6, 1], [5, 1]), ([10, 1], [2, 1]), ([96, 1], [88, 1])],
    "(3*x+1)/(x-1)": [([1, 3], [4, 1]), ([1, 3], [6, 1]), ([1, 3], [10, 1]), ([1, 3], [96, 1])],
    "x^2": [([0, 0, 1], [1])] * 4,
    "(y^2+3*y)/(y-1)": [([0, 3, 1], [4, 1]), ([0, 3, 1], [6, 1]), ([0, 3, 1], [10, 1]),
                        ([0, 3, 1], [96, 1])],
}


def test_fixture_and_conjugate_strings_parse_to_pinned_forms():
    written = set(CONJUGATE_STRINGS)
    for fx in FIXTURES.values():
        written |= {fx.f_expr, fx.g_expr, fx.rho_expr, *fx.s_exprs, *fx.s0_exprs}
    assert written - {None, "inf", "i", "-i"} == set(PINNED_FORMS)
    for expr, forms in PINNED_FORMS.items():
        assert [parse_fraction(expr, p) for p in (5, 7, 11, 97)] == forms, expr


# -- expression trees with their text, for the parse property --------------------
# A node is (text, precedence, tree); precedence 1 is a sum, 2 a product, 3 a
# negation, 4 a power or an implicit coefficient, 5 an atom.  A child is
# bracketed where its precedence is below its slot's, so brackets are few.

def _wrap(node, prec):
    return node[0] if node[1] >= prec else f"({node[0]})"


def _implicit(k, e):
    return (f"{k}x" if e == 1 else f"{k}x^{e}", 4, ("kx", k, e))


def _binary(op, a, b, spaced):
    prec = 1 if op in "+-" else 2
    sep = " " if spaced else ""
    return (f"{_wrap(a, prec)}{sep}{op}{sep}{_wrap(b, prec + 1)}", prec, (op, a[2], b[2]))


@st.composite
def _trees(draw, depth=4):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.one_of(
            st.integers(0, 30).map(lambda k: (str(k), 5, ("int", k))),
            st.just(("x", 5, ("kx", 1, 1))),
            st.builds(_implicit, st.integers(0, 12), st.integers(1, 4))))
    kind = draw(st.sampled_from(["+", "-", "*", "/", "neg", "^", "()"]))
    a = draw(_trees(depth - 1))
    if kind == "neg":
        return "-" + _wrap(a, 3), 3, ("neg", a[2])
    if kind == "^":
        e = draw(st.integers(0, 4))
        return f"{_wrap(a, 5)}^{e}", 4, ("^", a[2], e)
    if kind == "()":
        return f"({a[0]})", 5, a[2]
    return _binary(kind, a, draw(_trees(depth - 1)), draw(st.booleans()))


def _degrees(tree):
    """Bounds on the degrees of the unreduced numerator and denominator."""
    kind = tree[0]
    if kind in ("int", "kx"):
        return (0 if kind == "int" else tree[2]), 0
    if kind == "neg":
        return _degrees(tree[1])
    if kind == "^":
        n, d = _degrees(tree[1])
        return n * tree[2], d * tree[2]
    (an, ad), (bn, bd) = _degrees(tree[1]), _degrees(tree[2])
    if kind == "*":
        return an + bn, ad + bd
    if kind == "/":
        return an + bd, ad + bn
    return max(an + bd, bn + ad), ad + bd


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _value(tree, t):
    """The tree at the field element t, or None where a divisor vanishes."""
    kind, lift = tree[0], t.ctx.lift
    if kind == "int":
        return lift(tree[1])
    if kind == "kx":
        return lift(tree[1]) * t ** tree[2]
    a = _value(tree[1], t)
    if kind == "neg":
        return None if a is None else -a
    if kind == "^":
        return None if a is None else a ** tree[2]
    b = _value(tree[2], t)
    if a is None or b is None or (kind == "/" and b.is_zero()):
        return None
    return _OPS[kind](a, b)


@functools.cache
def _generic_point(p):
    """A generator of F_{p^32}: a nonzero polynomial over F_p of degree
    below 32 does not vanish there."""
    return FieldCtx(p, 32).gen()


@settings(max_examples=300)
@given(node=_trees(), p=st.sampled_from([7, 11, 13]), var=st.sampled_from("xy"))
def test_parse_agrees_with_the_tree_at_every_point(node, p, var):
    text, _, tree = node
    assume(max(_degrees(tree)) < 32)
    text = text.replace("x", var)
    if _value(tree, _generic_point(p)) is None:  # a divisor is the zero function
        with pytest.raises(MapSyntaxError):
            parse_fraction(text, p)
        return
    num, den = parse_fraction(text, p)
    f_p = FieldCtx(p)
    for t in range(p):
        want = _value(tree, f_p.lift(t))
        if want is not None:
            n, d = (sum(c * t ** i for i, c in enumerate(cs)) % p for cs in (num, den))
            assert d and f_p.lift(n) == want * d, (text, t)


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
    assert fiber(f, pt("1")) == Divisor(F5, {pt("1"): 2})


def test_fiber_at_infinity():
    f = map_parse("(x^2+x)/(3*x-1)", 5)
    assert fiber(f, pt("inf")) == Divisor(F5, {pt("1/3"): 1, pt("inf"): 1})
    g = map_parse("y^2", 5)
    assert fiber(g, pt("inf")) == Divisor(F5, {pt("inf"): 2})


def test_fiber_insufficient_field():
    g = map_parse("y^2", 5)
    with pytest.raises(InsufficientField) as err:
        fiber(g, pt("2"))  # 2 is not a square mod 5
    assert err.value.missing == 2
    # over the quadratic extension the fiber is complete
    big = fiber(g, pt("2", F25))
    assert big.degree == 2


def test_fiber_degree_is_constant():
    f = map_parse("(x^2+x)/(3*x-1)", 5)
    for x in F25.elements():
        counts, missing = fiber_counts(f, ProjPoint.affine(x))
        assert sum(counts.values()) + missing == 2
    counts, missing = fiber_counts(f, ProjPoint.infinity(F25))
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
            restricted_different(m, [pt("inf", ctx)])
    # checked before any pullback: the fiber of x^2+x over 1 is not rational
    # over F_2, and would raise InsufficientField first
    f2 = FieldCtx(2)
    with pytest.raises(BadPrime):
        divisorial_check(map_parse("x^2+x", 2), map_parse("y^2", 2), [pt("1", f2)])
    assert ramification(map_parse("y^2", 3), f9) == {pt("0", f9): 2, pt("inf", f9): 2}


@pytest.mark.parametrize("p", [p for p in range(5, 32) if is_prime(p)])
@pytest.mark.parametrize("r", [1, 2])
def test_ramification_matches_the_fiber_oracle(p, r):
    # the Wronskian route against each point's multiplicity in the fiber
    # over its image, at every point of P^1(F_{p^r}), for seeded random maps
    # of degree d <= 4 whose affine num and den degrees may differ (so
    # infinity is ramified or not); strict holds exactly when the indices
    # found reach the Riemann-Hurwitz total 2d - 2
    rng = random.Random(f"{p}:{r}")
    ctx = FieldCtx(p, r)
    points = [ProjPoint.affine(x) for x in ctx.elements()] + [ProjPoint.infinity(ctx)]
    maps = []
    while len(maps) < (12 if p ** r < 200 else 3):
        d = rng.randint(1, 4)
        degs = [d, rng.randint(0, d)][::rng.choice((1, -1))]
        num, den = ([rng.randrange(p) for _ in range(k)] + [rng.randrange(1, p)] for k in degs)
        try:
            maps.append(RatMap.from_affine(p, num, den))
        except DegreeZero:
            pass
    for m in maps:
        expected = {pt: e for pt in points if (e := point_multiplicity_in_fiber(m, pt)) >= 2}
        assert ramification(m, ctx, strict=False) == expected, m
        if sum(e - 1 for e in expected.values()) == 2 * m.d - 2:
            assert ramification(m, ctx) == expected
        else:
            with pytest.raises(InsufficientField):
                ramification(m, ctx)


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


def test_point_parse_refuses_any_variable():
    # a point literal names no variable, also where its terms cancel
    for bad in ("x", "x-x+1", "y^0*3", "x/x", "2*y/y"):
        with pytest.raises(MapSyntaxError, match="not a point literal"):
            point_parse(bad, FieldCtx(7))


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
    counts, missing = fiber_counts(f, t)
    assert fiber_counts(f, t)[0] is counts
    with pytest.raises(TypeError):
        counts[pt("0", F25)] = 1
    # another field is another fiber
    assert fiber_counts(f, pt("1"))[0] is not counts


def test_fiber_functions_read_the_field_off_their_targets():
    f = map_parse("(x^2+x)/(3*x-1)", 5)
    for fn in (fiber_counts, fiber, map_preimage, Divisor.of_set):
        assert "ctx" not in inspect.signature(fn).parameters
    # a target's own field cannot differ from itself, only its characteristic
    # from the map's
    seven = pt("1", FieldCtx(7))
    for call in (lambda: fiber_counts(f, seven), lambda: fiber(f, seven),
                 lambda: map_preimage(f, [seven])):
        with pytest.raises(FieldMismatch):
            call()
    assert map_preimage(f, [pt("1", F25)]) == ({pt("1", F25)}, 0)  # a double point


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


def test_a_valid_map_builds_no_field_element(monkeypatch):
    # the resultant runs on ints; a FieldCtx and its elements appear only
    # in the message of a degenerate map
    def refuse(*_args):
        raise AssertionError("a FieldElem was built")

    monkeypatch.setattr(FieldElem, "__init__", refuse)
    for p, n, d in [(5, (0, 1, 1), (-1, 3, 0)), (7, (1, 0, 1), (0, 2, 0)), (11, (3, 1), (1, 0))]:
        RatMap(p, n, d)
    with pytest.raises(CompositeP):
        RatMap(9, (1, 2), (3, 4))
    with pytest.raises(AssertionError, match="FieldElem"):
        RatMap(5, (0, 1, 1), (0, 1, 1))
