"""Polynomial algebra, resultants, and rational-function proportionality."""

import itertools
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rectower import fieldarrays
from rectower.errors import (
    DegreeMismatch,
    DegreeZero,
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    ZeroFunction,
    ZeroPolynomial,
)
from rectower.ff import MAX_TABLE_ENTRIES, FieldCtx
from rectower.fixtures import FIXTURES
from rectower.p1 import ProjPoint, RatMap, map_parse, ratfun_parse
from rectower.upoly import Poly, RatFun, compose_rational, ratfun_proportional, resultant

F5 = FieldCtx(5)
F7 = FieldCtx(7)
F25 = FieldCtx(5, 2, [2, -1, 1])
F49 = FieldCtx(7, 2)
QUADRATIC = {5: F25, 7: F49}


# ---------------------------------------------------------------------------
# oracles for the kernel paths: the Sylvester elimination over field
# elements, and composition through the n^i d^(top-i) basis of Poly products

def sylvester_oracle(ctx, n_form, d_form):
    """The Sylvester determinant of two forms of formal degree d, by
    Gaussian elimination over ctx with sign-tracked pivots."""
    d = len(n_form) - 1
    if d <= 0:
        return ctx.one()
    size = 2 * d
    rows = []
    for form in (n_form, d_form):
        for i in range(d):
            row = [ctx.zero()] * size
            for j, c in enumerate(reversed(form)):
                row[i + j] = ctx.elem(c)
            rows.append(row)
    det = ctx.one()
    for col in range(size):
        pivot = next((rr for rr in range(col, size) if not rows[rr][col].is_zero()), None)
        if pivot is None:
            return ctx.zero()
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = rows[col][col].inverse()
        for rr in range(col + 1, size):
            factor = rows[rr][col] * inv
            for cc in range(col, size):
                rows[rr][cc] = rows[rr][cc] - factor * rows[col][cc]
    return det


def basis_compose_oracle(phi, m):
    """phi(m(x)) as sum_i c_i n^i d^(top-i) over phi's coefficients, the
    basis built by Poly's own schoolbook products."""
    ctx = phi.ctx
    top = max(phi.num.degree, phi.den.degree)
    n, d = Poly(ctx, m.num_coeffs), Poly(ctx, m.den_coeffs)
    basis = [n ** i * d ** (top - i) for i in range(top + 1)]

    def substituted(f):
        out = Poly.zero(ctx)
        for c, b in zip(f.coeffs, basis):
            out = out + b * c
        return out

    return RatFun(substituted(phi.num), substituted(phi.den))


def forms(p, d):
    """Forms of formal degree d over F_p, with 0..d leading zeros."""
    return st.integers(0, d).flatmap(lambda zeros: st.lists(
        st.integers(0, p - 1), min_size=d + 1 - zeros, max_size=d + 1 - zeros
    ).map(lambda low: low + [0] * zeros))


def polys(ctx, min_size=0, max_size=4):
    digits = st.lists(st.integers(0, ctx.p - 1), min_size=ctx.r, max_size=ctx.r)
    return st.lists(digits, min_size=min_size, max_size=max_size).map(lambda cs: Poly(ctx, cs))


def test_gcd_shared_factor():
    f = Poly(F5, [-1, 0, 1])   # x^2 - 1
    g = Poly(F5, [0, 1, 1])    # x^2 + x
    assert f.gcd(g) == Poly(F5, [1, 1])


def test_derivative_mod_p():
    f = Poly(F5, [-1, 2, 0, 2, 1])  # x^4 + 2x^3 + 2x - 1
    assert f.derivative() == Poly(F5, [2, 0, 1, 4])  # 4x^3 + x^2 + 2


def test_eval():
    f = Poly(F5, [0, 1, 1])
    assert f.eval(F5.one()) == F5.lift(2)


@given(st.sampled_from([F7, F25]).flatmap(
    lambda ctx: st.tuples(polys(ctx, max_size=7), polys(ctx, min_size=1, max_size=5))))
def test_divmod_roundtrip_random(pair):
    f, g = pair
    assume(not g.is_zero())
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


def nonzero_polys(ctx, max_size):
    return polys(ctx, min_size=1, max_size=max_size).filter(lambda f: not f.is_zero())


@given(nonzero_polys(F7, 6), nonzero_polys(F7, 6))
def test_gcd_divides_both_random(f, g):
    d = f.gcd(g)
    assert (f % d).is_zero() and (g % d).is_zero()


def test_division_by_zero_poly():
    with pytest.raises(DivisionByZero):
        divmod(Poly(F5, [1]), Poly.zero(F5))


def test_roots_simple():
    assert sorted(x.coeffs[0] for x in Poly(F5, [1, 0, 1]).roots()) == [2, 3]


def test_roots_multiplicity():
    f = Poly(F5, [1, -2, 1])  # (x-1)^2
    assert [x.coeffs[0] for x in f.roots()] == [1, 1]


def test_roots_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        Poly.zero(F5).roots()


def test_chi5_roots_against_exhaustive_oracle():
    # chi_5 = x^4 + 2x^3 + 2x - 1 splits over F_25 at four generator powers
    chi = Poly(F25, [-1, 2, 0, 2, 1])
    roots = set(chi.roots())
    oracle = {x for x in F25.elements() if chi.eval(x).is_zero()}
    assert roots == oracle
    a = F25.gen()
    assert roots == {a ** 6, a ** 14, a ** 18, a ** 22}


# ---------------------------------------------------------------------------
# roots against the element-by-element oracle

def roots_oracle(f):
    """The roots of f in element order, each as often as (x - a) divides f:
    FieldElem evaluation at every element, then repeated long division."""
    found = []
    for a in f.ctx.elements():
        if f.eval(a).is_zero():
            h, lin = f, Poly(f.ctx, (-a, 1))
            while True:
                h, rem = divmod(h, lin)
                if not rem.is_zero():
                    break
                found.append(a)
    return found


def _random_poly(rng, elems, degree):
    """A polynomial of the given degree with coefficients anywhere in the field."""
    return Poly(elems[0].ctx, [rng.choice(elems) for _ in range(degree)] + [rng.choice(elems[1:])])


@pytest.mark.parametrize("p, r", [(p, r) for p in (2, 3, 5, 7, 13) for r in (1, 2, 3)])
def test_roots_match_the_element_oracle(p, r):
    # degree 3-8 over F_{p^r}: random polynomials, products of repeated
    # linear factors with a random cofactor, and polynomials with no root;
    # then F_p coefficients, which count their distinct roots first: random
    # ones, rootless ones, and the same times linear factors over F_p
    ctx = FieldCtx(p, r)
    rng = random.Random(f"roots:{p}:{r}")
    elems = list(ctx.elements())
    cases = [_random_poly(rng, elems, rng.randint(3, 8)) for _ in range(4)]
    for _ in range(4):
        n = rng.randint(3, 8)
        distinct = [rng.choice(elems) for _ in range(rng.randint(1, 3))]
        linear = [rng.choice(distinct) for _ in range(rng.randint(2, n))]
        cases.append(Poly.from_roots(ctx, linear) * _random_poly(rng, elems, n - len(linear)))
    rootless = 0
    while rootless < 3:
        f = _random_poly(rng, elems, rng.randint(3, 8))
        if not roots_oracle(f):
            cases.append(f)
            rootless += 1
    prime = elems[:p]  # F_p comes first in element order
    fp_rootless = []
    while len(fp_rootless) < 2:
        f = _random_poly(rng, prime, rng.randint(3, 6))
        if not roots_oracle(f):
            fp_rootless.append(f)
    cases += fp_rootless + [_random_poly(rng, prime, rng.randint(3, 8)) for _ in range(2)]
    cases += [Poly.from_roots(ctx, rng.choices(prime, k=rng.randint(1, 3))) * f
              for f in fp_rootless]
    expected = [roots_oracle(f) for f in cases]
    assert [f.roots() for f in cases] == expected
    assert any(len(set(e)) < len(e) for e in expected)  # repeated roots were among them
    assert any(any(c.coeffs[1:]) for f in cases for c in f.coeffs) == (r > 1)


@pytest.mark.parametrize("p, r", [(5, 2), (3, 3), (13, 1)])
def test_roots_in_blocks_equal_one_pass(monkeypatch, p, r):
    # blocks of 7 elements, with a ragged tail, against the whole field
    ctx = FieldCtx(p, r)
    rng = random.Random(p * r)
    elems = list(ctx.elements())
    cases = [Poly.from_roots(ctx, rng.sample(elems, 3)) * _random_poly(rng, elems, 2)
             for _ in range(5)]
    whole = [f.roots() for f in cases]
    monkeypatch.setattr(fieldarrays, "BLOCK", 7)
    assert [f.roots() for f in cases] == whole == [roots_oracle(f) for f in cases]


def test_roots_over_fp_coefficients_pass_only_to_the_last_distinct_root(monkeypatch):
    # x^3 + x + 5 has no root in F_2039, so none in F_{2039^2} (3 does not
    # divide 2): no element is evaluated
    def forbid(*_args):
        raise AssertionError("no pass over the field for a rootless F_p polynomial")

    monkeypatch.setattr(fieldarrays.FieldArrays, "horner", forbid)
    assert Poly(FieldCtx(2039, 2), [5, 1, 0, 1]).roots() == []
    # (x - 1)^2 (x^2 + 2)(x^3 + x + 1) over F_49 in blocks of 7: x^2 + 2 has
    # its roots at elements 21 and 28, so the pass ends with block 4 of 7
    monkeypatch.undo()
    blocks = []
    real = fieldarrays.FieldArrays.horner
    monkeypatch.setattr(fieldarrays.FieldArrays, "horner",
                        lambda self, coeffs, x: blocks.append(len(x[0])) or real(self, coeffs, x))
    monkeypatch.setattr(fieldarrays, "BLOCK", 7)
    f = Poly.from_roots(F49, [1, 1]) * Poly(F49, [2, 0, 1]) * Poly(F49, [1, 1, 0, 1])
    assert f.roots() == roots_oracle(f) == [F49.lift(1)] * 2 + [F49.element(21), F49.element(28)]
    assert blocks == [7] * 5


def test_roots_above_the_cap_are_refused_before_any_array(monkeypatch):
    ctx = FieldCtx(2053, 2)
    assert ctx.order > MAX_TABLE_ENTRIES

    def forbid(*_args):
        raise AssertionError("no array may be built above the cap")

    monkeypatch.setattr(fieldarrays, "FieldArrays", forbid)
    with pytest.raises(FieldTooLarge):
        Poly(ctx, [1, 0, 0, 1]).roots()
    # the closed forms of degree <= 2 take no pass, so they still answer
    assert Poly(ctx, [-4, 0, 1]).roots() == [ctx.lift(2), ctx.lift(-2)]
    assert Poly(ctx, [3, 1]).roots() == [ctx.lift(-3)]


def test_resultant_fixture_forms():
    # X^2 + XY and 3XY - Y^2 define the degree-2 map of the main tower
    n = (0, 1, 1)
    d = (-1, 3, 0)
    assert not resultant(F5, n, d).is_zero()
    # oracle: no common projective root over the splitting extension
    for x in F25.elements():
        nv = F25.lift(0)
        dv = F25.lift(0)
        for i in range(3):
            nv = nv + n[i] * x ** i
            dv = dv + d[i] * x ** i
        assert not (nv.is_zero() and dv.is_zero())
    assert not (n[2] == 0 and d[2] == 0)  # no common root at infinity


def test_resultant_common_root_and_proportional():
    assert resultant(F5, (0, 0, 1), (0, 1, 0)).is_zero()        # X^2, XY share (0:1)
    assert resultant(F5, (0, 1, 1), (0, 2, 2)).is_zero()        # proportional forms


def test_resultant_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        resultant(F5, (1, 2), (1, 2, 3))


@given(st.integers(1, 2).flatmap(lambda d: st.tuples(forms(7, d), forms(7, d))))
def test_resultant_vanishes_iff_common_root_random(pair):
    # two forms of degree <= 2 that share a root share one over F_49 or at infinity
    n, d = pair
    assume(any(n) and any(d))
    common = any(
        _form_eval(n, x, F49).is_zero() and _form_eval(d, x, F49).is_zero()
        for x in F49.elements()
    ) or (n[-1] == 0 and d[-1] == 0)
    assert resultant(F7, n, d).is_zero() == common


@given(st.sampled_from([5, 7]).flatmap(lambda p: st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.just(p), forms(p, d), forms(p, d)))))
def test_resultant_matches_sylvester_oracle(case):
    p, n, d = case
    ctx = FieldCtx(p)
    assert resultant(ctx, n, d) == sylvester_oracle(ctx, n, d)
    assert resultant(QUADRATIC[p], n, d) == sylvester_oracle(QUADRATIC[p], n, d)


def test_resultant_matches_sylvester_oracle_exhaustively_up_to_degree_two():
    for d in range(3):
        all_forms = list(itertools.product(range(5), repeat=d + 1))
        for n, m in itertools.product(all_forms, repeat=2):
            assert resultant(F5, n, m) == sylvester_oracle(F5, n, m)


def test_resultant_takes_prime_field_elements_only():
    assert resultant(F25, (F5.lift(1), 0, 1), (F25.lift(2), 1, 0)) == sylvester_oracle(
        F25, (1, 0, 1), (2, 1, 0))
    with pytest.raises(FieldMismatch):
        resultant(F25, (F25.gen(), 0, 1), (0, 1, 0))


def _form_eval(form, x, ctx):
    acc = ctx.zero()
    for i, c in enumerate(form):
        acc = acc + c * x ** i
    return acc


def test_proportional_constant():
    phi = ratfun_parse("2*x/(x+1)", F5)
    psi = ratfun_parse("x/(x+1)", F5)
    assert ratfun_proportional(phi, psi) == F5.lift(2)


def test_proportional_absent():
    phi = ratfun_parse("x", F5)
    psi = ratfun_parse("x+1", F5)
    assert ratfun_proportional(phi, psi) is None


def test_proportional_rejects_zero():
    with pytest.raises(ZeroFunction):
        ratfun_proportional(RatFun.constant(F5, 0), ratfun_parse("x", F5))


@st.composite
def related_ratfuns(draw):
    """Three rational functions over F_5 with numerator and denominator of
    degree at most 2, each after the first either a fresh one or a nonzero
    multiple of the first, so proportional pairs are common."""
    def fresh():
        return RatFun(draw(nonzero_polys(F5, 3)), draw(nonzero_polys(F5, 3)))

    first = fresh()
    funs = [first]
    for _ in range(2):
        c = draw(st.integers(0, 4))
        funs.append(RatFun(first.num * F5.lift(c), first.den) if c else fresh())
    return funs


@given(related_ratfuns())
def test_proportional_is_equivalence_relation(funs):
    for f in funs:
        assert ratfun_proportional(f, f) == F5.one()
    for f, g in itertools.permutations(funs, 2):
        c, cback = ratfun_proportional(f, g), ratfun_proportional(g, f)
        assert (c is None) == (cback is None)
        if c is not None:
            assert c * cback == F5.one()
    for f, g, h in itertools.permutations(funs, 3):
        cfg, cgh = ratfun_proportional(f, g), ratfun_proportional(g, h)
        if cfg is not None and cgh is not None:
            assert ratfun_proportional(f, h) == cfg * cgh


def test_compose_simple_shift():
    phi = ratfun_parse("x^2", F5)
    m = map_parse("x+1", 5)
    assert compose_rational(phi, m) == ratfun_parse("(x+1)^2", F5)


def test_compose_reciprocal_of_fixture():
    phi = ratfun_parse("1/x", F5)
    m = map_parse("(x^2+x)/(3*x-1)", 5)
    assert compose_rational(phi, m) == ratfun_parse("(3*x-1)/(x^2+x)", F5)


def test_compose_with_square():
    phi = ratfun_parse("x/(x-1)", F5)
    m = map_parse("x^2", 5)
    assert compose_rational(phi, m) == ratfun_parse("x^2/(x^2-1)", F5)


@given(polys(F5, min_size=1), polys(F5, min_size=1))
def test_compose_degree_divides(num, den):
    assume(not num.is_zero() and not den.is_zero())
    m = map_parse("(x^2+x)/(3*x-1)", 5)
    phi = RatFun(num, den)
    comp = compose_rational(phi, m)
    deg_phi = max(phi.num.degree, phi.den.degree)
    deg_comp = max(comp.num.degree, comp.den.degree)
    if deg_comp:
        assert (deg_phi * m.d) % deg_comp == 0


@st.composite
def ratfun_and_map(draw):
    """A RatFun over F_25 or F_49 and a map of degree 1-3 over its prime field."""
    p = draw(st.sampled_from([5, 7]))
    num, den = draw(polys(QUADRATIC[p])), draw(polys(QUADRATIC[p], min_size=1))
    assume(not den.is_zero())
    d = draw(st.integers(1, 3))
    try:
        m = RatMap(p, draw(forms(p, d)), draw(forms(p, d)))
    except DegreeZero:
        assume(False)
    return RatFun(num, den), m


@given(ratfun_and_map())
def test_compose_matches_basis_oracle(case):
    phi, m = case
    assert compose_rational(phi, m) == basis_compose_oracle(phi, m)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_compose_matches_pointwise_evaluation_over_F25(name):
    # phi over F_25 composed with a fixture's f: phi(m(x)) at every x of
    # F_25 where both sides are defined
    rng = random.Random(17)
    m = map_parse(FIXTURES[name].f_expr, 5)
    elems = list(F25.elements())
    checked = 0
    for _ in range(10):
        num = Poly(F25, [rng.choice(elems) for _ in range(rng.randint(1, 4))])
        den = Poly(F25, [rng.choice(elems) for _ in range(rng.randint(1, 4))])
        if num.is_zero() or den.is_zero():
            continue
        phi = RatFun(num, den)
        comp = compose_rational(phi, m)
        for x in elems:
            y = m.eval(ProjPoint.affine(x))
            if y.is_infinity or phi.den.eval(y.x).is_zero() or comp.den.eval(x).is_zero():
                continue
            assert comp.num.eval(x) / comp.den.eval(x) == phi.num.eval(y.x) / phi.den.eval(y.x)
            checked += 1
    assert checked >= 100


def test_multiplicity_of_seeded_products():
    # prod (x - a_i)^e_i * u with u(a_i) != 0: the multiplicity at a_i is
    # e_i, and 0 at a point that is no root
    rng = random.Random(19)
    checked = 0
    for ctx in (FieldCtx(7), F25):
        elems = list(ctx.elements())
        for _ in range(40):
            probes = rng.sample(elems, 4)
            exps = [rng.randint(0, 4) for _ in range(3)]
            u = Poly(ctx, [rng.choice(elems) for _ in range(rng.randint(1, 4))])
            if u.is_zero() or any(u.eval(a).is_zero() for a in probes):
                continue
            f = u * Poly.from_roots(ctx, [a for a, e in zip(probes, exps) for _ in range(e)])
            assert [f.multiplicity(a) for a in probes] == exps + [0]
            checked += 1
    assert checked >= 20
    with pytest.raises(ZeroPolynomial):
        Poly.zero(F5).multiplicity(F5.one())


def test_pow_mod_large_exponent():
    f = Poly(F5, [0, 1])
    m = Poly(F5, [2, 4, 1])
    assert f.pow_mod(25, m) == f % m  # x^q = x on the field cut out by m


def test_poly_str_roundtrip_through_parser():
    f = Poly(F5, [4, 0, 3, 1])
    again = ratfun_parse(str(f), F5)
    assert again.num == f and again.den == Poly.one(F5)
