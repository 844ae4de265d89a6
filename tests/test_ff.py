"""Field context construction, exact arithmetic, and the Legendre symbol."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectower.errors import (
    CompositeP,
    DegreeMismatch,
    DivisionByZero,
    EvenOrCompositeP,
    FieldMismatch,
    FieldTooLarge,
    ReducibleModulus,
)
from rectower.ff import (
    FAST_MIN_LEN,
    MAX_TABLE_ENTRIES,
    FieldCtx,
    _is_irreducible,
    _pow_mod,
    is_prime,
    legendre,
    padd,
    pgcd,
    pinvmod,
    pmod,
    pmul,
    ppow,
    ptrim,
    psubst,
    reduce_array,
)
from rectower.upoly import Poly

F25_MODULUS = [2, -1, 1]  # a^2 - a + 2


def test_prime_field_construction():
    ctx = FieldCtx(5)
    assert ctx.order == 5
    assert ctx.modulus is None


def test_extension_with_given_modulus():
    ctx = FieldCtx(5, 2, F25_MODULUS)
    assert ctx.order == 25
    assert ctx.modulus == (2, 4, 1)


def test_composite_characteristic_rejected():
    with pytest.raises(CompositeP):
        FieldCtx(6)
    with pytest.raises(CompositeP):
        FieldCtx(1)


def test_reducible_modulus_rejected():
    # a^2 - 1 has roots +-1
    with pytest.raises(ReducibleModulus):
        FieldCtx(5, 2, [-1, 0, 1])


def test_reducible_but_rootless_quartic_rejected():
    # x^4 + 1 = (x^2+2)(x^2+3) mod 5 has no roots; needs the full test
    with pytest.raises(ReducibleModulus):
        FieldCtx(5, 4, [1, 0, 0, 0, 1])


def test_modulus_shape_checks():
    with pytest.raises(DegreeMismatch):
        FieldCtx(5, 2, [1, 1])  # degree 1
    with pytest.raises(DegreeMismatch):
        FieldCtx(5, 2, [1, 1, 2])  # not monic
    with pytest.raises(DegreeMismatch):
        FieldCtx(5, 1, [0, 1])  # prime field takes no modulus


def test_default_modulus_is_deterministic_and_irreducible():
    first = FieldCtx(5, 2)
    second = FieldCtx(5, 2)
    assert first.modulus == second.modulus
    # sanity: quartic default works too (exercises the gcd-based test)
    assert FieldCtx(5, 4).order == 625


def _rabin_irreducible(m, p):
    """Rabin's test for monic m of degree r >= 2 over F_p, on its own: no
    root or constant-term shortcut.  gcd(x^(p^(r/l)) - x, m) = 1 for every
    prime l | r, and x^(p^r) = x mod m."""
    r = len(m) - 1
    gcd_steps = {r // l for l in range(2, r + 1) if r % l == 0 and is_prime(l)}
    power = [0, 1]  # x^(p^k) mod m after step k
    for k in range(1, r + 1):
        base, power = power, [1]
        for bit in bin(p)[2:]:
            power = pmod(pmul(power, power, p), m, p)
            if bit == "1":
                power = pmod(pmul(power, base, p), m, p)
        if k in gcd_steps and len(pgcd(m, padd(power, [0, -1], p), p)) > 1:
            return False
    return not padd(power, [0, -1], p)


@pytest.mark.parametrize("p,r", [(p, r) for p in (2, 3, 5, 7) for r in (2, 3, 4)]
                         + [(5, 6), (7, 6)])
def test_default_modulus_is_first_irreducible_in_order(p, r):
    # every monic x^r + c_{r-1} x^{r-1} + ... + c0 in the order of the
    # FieldCtx docstring, c0 slowest, each judged by Rabin's test alone
    first = next(list(low) + [1] for low in itertools.product(range(p), repeat=r)
                 if _rabin_irreducible(list(low) + [1], p))
    assert list(FieldCtx(p, r).modulus) == first


def _root_scan_irreducible(m, p):
    """The former low-degree test: no x in F_p is a root, each power by pow."""
    return not any(sum(c * pow(x, i, p) for i, c in enumerate(m)) % p == 0 for x in range(p))


@pytest.mark.parametrize("p", [p for p in range(2, 32) if is_prime(p)] + [101])
def test_low_degree_irreducibility_matches_the_root_scan(p):
    # every monic quadratic and cubic (500 random cubics at p = 101): one
    # Legendre symbol for quadratics over odd p, else a root found as
    # gcd(x^p - x, m) != 1; every monic quartic at p <= 7 against Rabin's
    # test alone, where a quadratic factor is found as gcd(x^(p^2) - x, m) != 1
    if p < 32:
        low_degree = [list(low) + [1] for r in (2, 3) for low in itertools.product(range(p), repeat=r)]
    else:
        rng = random.Random(p)
        low_degree = [[rng.randrange(p) for _ in range(3)] + [1] for _ in range(500)]
    for m in low_degree:
        assert _is_irreducible(m, p) == _root_scan_irreducible(m, p), (m, p)
    quartics = [list(low) + [1] for low in itertools.product(range(p), repeat=4)] if p <= 7 else []
    for m in quartics:
        assert _is_irreducible(m, p) == _rabin_irreducible(m, p), (m, p)


@pytest.mark.parametrize("p", [2, 5, 101])
def test_higher_degree_irreducibility_matches_rabin(p):
    # 100 seeded random monic polynomials of each degree 5-8 against
    # Rabin's test alone
    rng = random.Random(p)
    cases = [[rng.randrange(p) for _ in range(r)] + [1] for r in range(5, 9) for _ in range(100)]
    for m in cases:
        assert _is_irreducible(m, p) == _rabin_irreducible(m, p), (m, p)
    # the draws hold irreducibles and reducibles at every p
    assert 0 < sum(_is_irreducible(m, p) for m in cases) < len(cases)


def test_irreducibility_of_linear_and_constant_shapes():
    assert _is_irreducible([3, 1], 5)
    assert all(_is_irreducible([c, 1], p) for p in (2, 5, 101) for c in range(min(p, 7)))
    for m in ([1], [3], []):
        with pytest.raises(DegreeMismatch):
            _is_irreducible(m, 5)


REDUCE_MODULI = st.sampled_from([2, 3, 5, 7, 2039, 4194301, (1 << 31) - 1])


@given(REDUCE_MODULI, st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=1, max_size=40),
       st.booleans())
def test_reduce_array_is_the_remainder_within_its_bound(p, entries, in_place):
    import numpy as np

    # the bound: entries in [p - 2^63, 2^63); the extremes always included
    entries = [max(e, p - (1 << 63)) for e in entries] + [p - (1 << 63), (1 << 63) - 1, -1, 0]
    a = np.array(entries, dtype=np.int64)
    expected = a % p
    out = reduce_array(a, p, in_place=in_place)
    assert out.dtype == np.int64 and np.array_equal(out, expected)
    assert (out is a) == in_place


def test_reduce_array_on_int32():
    import numpy as np

    a = np.array([5 - (1 << 31), -1, 0, 4, (1 << 31) - 1], dtype=np.int32)  # the int32 bound
    assert np.array_equal(reduce_array(a, 5), a % 5)


def test_prime_field_division():
    ctx = FieldCtx(5)
    assert ctx.lift(1) / ctx.lift(3) == ctx.lift(2)


def test_extension_multiplication_reduces():
    ctx = FieldCtx(5, 2, F25_MODULUS)
    a = ctx.gen()
    assert a * a == ctx.elem([3, 1])  # a^2 = a - 2 = a + 3


def test_unit_group_order():
    ctx = FieldCtx(5, 2, F25_MODULUS)
    a = ctx.gen()
    assert a ** 24 == ctx.one()
    assert a ** 23 != ctx.one()


def test_division_by_zero():
    ctx = FieldCtx(5, 2, F25_MODULUS)
    with pytest.raises(DivisionByZero):
        ctx.one() / ctx.zero()
    with pytest.raises(DivisionByZero):
        ctx.zero().inverse()


def test_cross_field_operations_rejected():
    a = FieldCtx(5, 2, F25_MODULUS).gen()
    b = FieldCtx(7).one()
    with pytest.raises(FieldMismatch):
        a + b


def test_prime_subfield_coercion():
    ctx = FieldCtx(5, 2, F25_MODULUS)
    assert ctx.gen() * 2 == ctx.elem([0, 2])
    assert 1 + ctx.gen() == ctx.elem([1, 1])
    assert FieldCtx(5).lift(3) + ctx.one() == ctx.lift(4)


def test_legendre_values():
    assert legendre(-3, 5) == -1
    assert legendre(-3, 7) == 1
    assert legendre(0, 5) == 0
    with pytest.raises(EvenOrCompositeP):
        legendre(3, 2)
    with pytest.raises(EvenOrCompositeP):
        legendre(3, 9)


def test_frobenius_is_additive():
    ctx = FieldCtx(7, 3)
    rng = random.Random(2024)
    elems = list(ctx.elements())
    for _ in range(50):
        x, y = rng.choice(elems), rng.choice(elems)
        assert (x + y).frobenius() == x.frobenius() + y.frobenius()


def test_frobenius_order_divides_r():
    ctx = FieldCtx(5, 2, F25_MODULUS)
    for x in ctx.elements():
        assert x.frobenius().frobenius() == x


def test_enumeration_is_exhaustive():
    ctx = FieldCtx(3, 3)
    seen = {x.coeffs for x in ctx.elements()}
    assert len(seen) == 27
    assert all(all(0 <= c < 3 for c in v) for v in seen)


def test_pow_with_large_exponent():
    for ctx in (FieldCtx(5, 2, F25_MODULUS), FieldCtx(7, 3)):
        a = ctx.gen() + 1
        assert a ** 0 == ctx.one()
        assert a ** 1 == a
        assert a ** 5 == a * a * a * a * a
        assert a ** ((ctx.order - 1) * 10 ** 12 + 5) == a ** 5
        assert a ** -1 == a.inverse()


def test_serialization_forms():
    ctx = FieldCtx(5, 2, F25_MODULUS)
    x = ctx.elem([3, 1])
    assert x.serialize() == "3+1*a"
    assert ctx.gen().gen_label() == "a^1"
    assert ctx.one().gen_label() == "a^0"


def test_gen_label_absent_when_not_generator():
    # a^2 + 1 over F_3: the class of x has order 4, not 8
    ctx = FieldCtx(3, 2, [1, 0, 1])
    assert ctx.gen().gen_label() is None


def test_sqrt_table():
    ctx = FieldCtx(13)
    squares = {x * x for x in ctx.elements()}
    for x in ctx.elements():
        root = ctx.sqrt(x)
        if x in squares:
            assert root is not None and root * root == x
        else:
            assert root is None


def test_whole_field_tables_are_capped():
    # q = 2053^2 is above the cap: the discrete-log table refuses before any
    # work, and keeps refusing on a second call instead of answering from a
    # stale flag; square roots need no table, so they still answer
    ctx = FieldCtx(2053, 2)
    assert ctx.order > MAX_TABLE_ENTRIES
    square = ctx.elem((5, 7)) ** 2
    non_square = next(x for x in map(ctx.element, itertools.count(ctx.p))
                      if x ** ((ctx.order - 1) // 2) != ctx.one())  # Euler's criterion
    for _ in range(2):
        root = ctx.sqrt(square)
        assert root * root == square
        assert ctx.sqrt(non_square) is None
        with pytest.raises(FieldTooLarge):
            ctx.gen().gen_label()


def test_is_prime_basics():
    assert is_prime(2) and is_prime(97)
    assert not is_prime(1) and not is_prime(91)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_int_list_helpers_match_poly_arithmetic(p):
    # the dense int-list helpers against Poly over F_p as the slow oracle
    rng = random.Random(p)
    F = FieldCtx(p)

    def rand(deg):
        return [rng.randrange(-p, 2 * p) for _ in range(deg + 1)]

    def ints(poly):
        return [c.coeffs[0] for c in poly.coeffs]

    for _ in range(40):
        f, g = rand(rng.randrange(-1, 9)), rand(rng.randrange(-1, 9))
        P, Q = Poly(F, f), Poly(F, g)
        assert pmul(f, g, p) == ints(P * Q)
        assert padd(f, g, p) == ints(P + Q)
        if not Q.is_zero():
            assert pmod(f, ints(Q), p) == ints(divmod(P, Q)[1])

        common = Poly(F, rand(rng.randrange(0, 4)))
        P, Q = common * P, common * Q
        if not (P.is_zero() and Q.is_zero()):
            assert Poly(F, pgcd(ints(P), ints(Q), p)).monic() == P.gcd(Q)

        h, a, b = rand(rng.randrange(0, 9)), rand(rng.randrange(0, 3)), rand(rng.randrange(0, 3))
        A, B = Poly(F, a), Poly(F, b)
        n = len(h) - 1
        expected = Poly.zero(F)
        for k, c in enumerate(h):
            expected = expected + Poly(F, [c]) * A ** k * B ** (n - k)
        assert psubst(h, a, b, p) == ints(expected)


# derandomized by the suite's hypothesis profile (conftest.py)
DERANDOMIZED = settings(max_examples=300)

F97_2 = FieldCtx(97, 2)


def _assert_inverse_matches_power(x):
    # extended Euclid against Fermat's x^(q-2) as the slow oracle
    y = x.inverse()
    assert y == x ** (x.ctx.order - 2)
    assert x * y == x.ctx.one()


@pytest.mark.parametrize("p,r", [(5, 1), (5, 2), (5, 3), (5, 4), (3, 5)])
def test_inverse_matches_fermat_on_every_element(p, r):
    ctx = FieldCtx(p, r)
    for x in ctx.elements():
        if not x.is_zero():
            _assert_inverse_matches_power(x)


@DERANDOMIZED
@given(st.tuples(st.integers(0, 96), st.integers(0, 96)).filter(any))
def test_inverse_matches_fermat_in_f97_squared(coeffs):
    _assert_inverse_matches_power(F97_2.elem(coeffs))


AXIOM_FIELDS = [FieldCtx(p, r) for p in (5, 7) for r in (1, 2, 3)]


@st.composite
def three_elements(draw):
    ctx = draw(st.sampled_from(AXIOM_FIELDS))
    digits = st.lists(st.integers(0, ctx.p - 1), min_size=ctx.r, max_size=ctx.r)
    return ctx, [ctx.elem(draw(digits)) for _ in range(3)]


@given(three_elements())
def test_field_axioms(case):
    ctx, (a, b, c) = case
    zero, one = ctx.zero(), ctx.one()
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and a - b == a + (-b)
    if not a.is_zero():
        assert a * a.inverse() == one and (b / a) * a == b


def test_pinvmod_rejects_common_factor():
    # x and x^2 + x share the factor x
    with pytest.raises(DivisionByZero):
        pinvmod([0, 1], [0, 1, 1], 5)


# ---------------------------------------------------------------------------
# square roots against the whole-field table

def sqrt_table(ctx):
    """x -> the first root of x in element order, by squaring every element:
    the table square roots were once read from, kept as the oracle."""
    table = {}
    for e in ctx.elements():
        table.setdefault((e * e).coeffs, e)
    return table


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 23])
def test_tonelli_shanks_matches_the_table_on_every_element(p, r):
    ctx = FieldCtx(p, r)
    table = sqrt_table(ctx)
    assert [ctx.sqrt(x) for x in ctx.elements()] == [table.get(x.coeffs) for x in ctx.elements()]


def test_tonelli_shanks_with_a_custom_modulus():
    ctx = FieldCtx(5, 2, F25_MODULUS)
    table = sqrt_table(ctx)
    assert [ctx.sqrt(x) for x in ctx.elements()] == [table.get(x.coeffs) for x in ctx.elements()]


# ---------------------------------------------------------------------------
# the fast F_p[x] kernel against the schoolbook one, kept here as the oracle

def school_pmul(f, g, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    g_terms = [(j, b) for j, b in enumerate(g) if b]
    for i, a in enumerate(f):
        if a:
            for j, b in g_terms:
                out[i + j] += a * b
    return ptrim(out, p)


def school_pmod(f, m, p):
    f = list(f)
    inv_lead = pow(m[-1], p - 2, p)
    for top in range(len(f) - 1, len(m) - 2, -1):
        c = f[top] * inv_lead % p
        if c:
            shift = top - len(m) + 1
            for i, a in enumerate(m):
                f[shift + i] -= c * a
    return ptrim(f[:len(m) - 1], p)


def school_psubst(h, a, b, p):
    n = len(h) - 1
    b_pows = [[1]]
    for _ in range(n):
        b_pows.append(school_pmul(b_pows[-1], b, p))
    out = []
    for k in range(n, -1, -1):
        out = padd(school_pmul(out, a, p), [h[k] * c for c in b_pows[n - k]], p)
    return out


def school_pow_mod(f, e, m, p):
    out = school_pmod(f, m, p)
    for bit in bin(e)[3:]:
        out = school_pmod(school_pmul(out, out, p), m, p)
        if bit == "1":
            out = school_pmod(school_pmul(out, f, p), m, p)
    return out


KERNEL_PRIMES = st.sampled_from([5, 97, 2039])
# zero, constant and length-1 inputs, the lengths around the threshold, and
# lengths at which the divide and conquer recurses more than once
LENGTHS = st.one_of(st.sampled_from([0, 1, FAST_MIN_LEN - 1, FAST_MIN_LEN, FAST_MIN_LEN + 1]),
                    st.integers(0, 5 * FAST_MIN_LEN))


@st.composite
def poly_over(draw, p, length=LENGTHS, unit_lead=False):
    """Unreduced coefficients in [-p, 2p): all zero, constant or random."""
    n = draw(length)
    shape = draw(st.sampled_from(["random", "random", "zero", "constant"]))
    if shape == "zero":
        f = [0] * n
    elif shape == "constant":
        f = [draw(st.integers(-p, 2 * p - 1))] + [0] * (n - 1) if n else []
    else:
        f = draw(st.lists(st.integers(-p, 2 * p - 1), min_size=n, max_size=n))
    if unit_lead:
        f = f + [draw(st.integers(1, p - 1))]
    return f


@DERANDOMIZED
@given(st.data())
def test_pmul_matches_schoolbook(data):
    p = data.draw(KERNEL_PRIMES)
    f, g = data.draw(poly_over(p)), data.draw(poly_over(p))
    assert pmul(f, g, p) == school_pmul(f, g, p)
    assert pmul(f, f, p) == school_pmul(f, f, p)  # the squaring path


@DERANDOMIZED
@given(st.data())
def test_pmod_matches_schoolbook(data):
    p = data.draw(KERNEL_PRIMES)
    m = data.draw(poly_over(p, unit_lead=True))
    quotient_len = data.draw(LENGTHS)
    f = data.draw(poly_over(p, st.just(len(m) - 1 + quotient_len)))
    assert pmod(f, m, p) == school_pmod(f, m, p)


@DERANDOMIZED
@given(st.data())
def test_psubst_matches_schoolbook(data):
    p = data.draw(KERNEL_PRIMES)
    h = data.draw(poly_over(p))
    a, b = (data.draw(poly_over(p, st.integers(0, 4))) for _ in range(2))
    assert psubst(h, a, b, p) == school_psubst(h, a, b, p)


@settings(DERANDOMIZED, max_examples=60)
@given(st.data())
def test_pow_mod_matches_schoolbook(data):
    p = data.draw(KERNEL_PRIMES)
    m = data.draw(poly_over(p, st.integers(1, 3 * FAST_MIN_LEN), unit_lead=True))
    f = data.draw(poly_over(p, st.integers(1, 2 * len(m))))
    e = data.draw(st.integers(1, p * p))
    assert _pow_mod(f, e, m, p) == school_pow_mod(f, e, m, p)


def _rand(rng, n, p):
    return [rng.randrange(p) for _ in range(n)]


@pytest.mark.parametrize("lf, lg", [(8001, 40), (40, 8001), (1500, 1500)])
def test_pmul_at_large_degree(lf, lg):
    rng, p = random.Random(lf * lg), 2039
    f, g = _rand(rng, lf, p), _rand(rng, lg, p)
    assert pmul(f, g, p) == school_pmul(f, g, p)


def test_pmul_beyond_a_machine_word_slot():
    # 3 (p-1)^2 < 2^64 still packs, in 8-byte slots; 5 (p-1)^2 does not,
    # so the schoolbook path takes it
    rng, p = random.Random(31), 2 ** 31 - 1
    for short in (3, 5):
        f, g = _rand(rng, short, p), _rand(rng, 200, p)
        assert pmul(f, g, p) == school_pmul(f, g, p)


@pytest.mark.parametrize("lf, lm", [(8001, 7990), (8001, 41), (2001, 1001)])
def test_pmod_at_large_degree(lf, lm):
    rng, p = random.Random(lf + lm), 2039
    f, m = _rand(rng, lf, p), _rand(rng, lm - 1, p) + [1 + rng.randrange(p - 1)]
    assert pmod(f, m, p) == school_pmod(f, m, p)


def school_pgcd(f, g, p):
    f, g = ptrim(f, p), ptrim(g, p)
    while g:
        f, g = g, school_pmod(f, g, p)
    return f


@pytest.mark.parametrize("p, lf, lg, common", [
    (2039, 601, 600, 0), (2039, 1201, 900, 0), (97, 700, 650, 40), (2039, 900, 620, 300)])
def test_pgcd_at_large_degree(p, lf, lg, common):
    # Euclid's remainders of long inputs, most with 2-term quotients, each
    # pmod asking its Newton inverse only for the quotient's length; some
    # pairs share a factor of the given length
    rng = random.Random(lf * lg + common)
    h = _rand(rng, common, p) + [1]
    f, g = (pmul(_rand(rng, n - common, p) + [1], h, p) for n in (lf, lg))
    assert len(f) >= 600 and len(g) >= 600
    out = pgcd(f, g, p)
    assert out == school_pgcd(f, g, p)
    assert len(out) > common


@pytest.mark.parametrize("p", [5, 97, 2039])
def test_ppow_is_repeated_pmul(p):
    rng = random.Random(p)
    for f in ([], [3], _rand(rng, 5, p), _rand(rng, 2 * FAST_MIN_LEN, p)):
        for e in (0, 1, 2, 17):
            want = [1]
            for _ in range(e):
                want = pmul(want, f, p)
            assert ppow(f, e, p) == want, (f, e)


def test_pow_mod_with_a_64_bit_exponent():
    rng, p = random.Random(64), 97
    m = _rand(rng, 2 * FAST_MIN_LEN, p) + [1]
    f = _rand(rng, 3 * FAST_MIN_LEN, p)
    e = (1 << 64) - 59
    assert _pow_mod(f, e, m, p) == school_pow_mod(f, e, m, p)


@pytest.mark.parametrize("n", [FAST_MIN_LEN - 1, FAST_MIN_LEN + 1, 5 * FAST_MIN_LEN])
def test_kernel_takes_coefficients_outside_int64(n):
    # entries of +-2^70 (plus a residue) on both sides of the schoolbook/fast
    # crossover: every path reduces them as the schoolbook product does
    rng, p = random.Random(n), 7
    f, g = ([rng.choice((1, -1)) * 2 ** 70 + rng.randrange(p) for _ in range(n)] for _ in range(2))
    assert pmul(f, g, p) == school_pmul(f, g, p)
    assert pmul(f, f, p) == ppow(f, 2, p) == school_pmul(f, f, p)
    m = [1] * (n // 2) + [3]
    assert pmod(f * 10, m, p) == school_pmod(f * 10, m, p)
    assert psubst([1, 2, 3], f * 5, [1], p) == school_psubst([1, 2, 3], f * 5, [1], p)


def test_psubst_and_pow_mod_at_large_degree():
    rng, p = random.Random(7), 2039
    h = _rand(rng, 601, p)
    assert psubst(h, [0, 1, 1], [-1, 3], p) == school_psubst(h, [0, 1, 1], [-1, 3], p)
    m = _rand(rng, 200, p) + [1]
    assert _pow_mod([0, 1], p * p, m, p) == school_pow_mod([0, 1], p * p, m, p)
