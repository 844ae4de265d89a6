"""Integer series, mod-p truncations, digit congruences, and the
hypergeometric identities."""

import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rectower import cli, fixtures, series
from rectower.errors import BadIndex, BadPrime, FormulaMismatch
from rectower.ff import FieldCtx, is_prime, legendre, pproportional, psubst
from rectower.series import (
    coeff_a,
    functional_equation_holds,
    gauss_hypergeom_coeffs,
    h_leading_is_legendre,
    hypergeom_identity_check,
    li_trick_check,
    lucas_check,
    ode_check,
    ode_residual,
    poly_feq_check,
    series_feq_check,
    truncate_H_mod_p,
)
from rectower.tgraph import TowerGraph
from rectower.upoly import Poly

FIRST_TERMS = (1, 3, 15, 93, 639, 4653, 35169, 272835)


def brute_force_a(n):
    """Independent oracle: Pascal triangle rows plus a directly accumulated
    central column, no math.comb anywhere."""
    rows = [[1]]
    for k in range(1, 2 * n + 1):
        prev = rows[-1]
        rows.append([1] + [prev[i - 1] + prev[i] for i in range(1, k)] + [1])
    return sum(rows[n][k] ** 2 * rows[2 * k][k] for k in range(n + 1))


def test_first_terms():
    assert tuple(coeff_a(n) for n in range(8)) == FIRST_TERMS


def test_against_brute_force_oracle():
    for n in range(0, 201, 17):
        assert coeff_a(n) == brute_force_a(n)
    assert coeff_a(4) == 639 and coeff_a(7) == 272835 and coeff_a(0) == 1


def test_truncation_mod_5():
    hp = truncate_H_mod_p(5)
    assert hp == Poly(FieldCtx(5), [1, 3, 0, 3, 4])


def test_truncation_constant_term_is_one():
    for p in (5, 7, 11, 13, 17, 19, 23):
        assert truncate_H_mod_p(p).coeff(0) == FieldCtx(p).one()


def test_truncation_needs_prime_at_least_5():
    for bad in (3, 4, 15):
        with pytest.raises(BadPrime):
            truncate_H_mod_p(bad)


def test_sign_bridge_to_table_polynomial():
    # (-3/5) chi_5 = H_5 with chi_5 = x^4 + 2x^3 + 2x - 1
    chi5 = Poly(FieldCtx(5), [-1, 2, 0, 2, 1])
    assert chi5 * legendre(-3, 5) == truncate_H_mod_p(5)


def test_leading_coefficient_is_legendre():
    for p in (5, 7, 11, 13, 17, 19, 23):
        assert h_leading_is_legendre(p)


def test_lucas_examples():
    # n = 7 = (1,2) base 5: a_7 = 272835 = 0 mod 5 and a_2 a_1 = 15*3 = 0 mod 5
    assert coeff_a(7) % 5 == (coeff_a(2) * coeff_a(1)) % 5 == 0
    assert lucas_check(7, 5)
    # n = 5 = (0,1) base 5: a_5 = 4653 = 3 mod 5 = a_1 a_0
    assert coeff_a(5) % 5 == 3
    assert lucas_check(5, 5)
    assert all(lucas_check(n, 7) for n in range(7))  # single digit, vacuous


def test_lucas_sample_ranges():
    for p in (5, 7):
        assert all(lucas_check(n, p) for n in range(2000))


def test_hypergeometric_identity():
    assert hypergeom_identity_check(8)
    assert hypergeom_identity_check(1)


def test_hypergeometric_identity_on_integer_weights(monkeypatch):
    # the check scales c_k by 27^k and runs on integers: a wrong weight must
    # change the verdict, and a non-integral one must raise
    assert hypergeom_identity_check(60)
    exact = gauss_hypergeom_coeffs

    def wrong(n_terms):
        c = exact(n_terms)
        return c[:3] + [c[3] + 1] + c[4:]

    monkeypatch.setattr(series, "gauss_hypergeom_coeffs", wrong)
    assert not hypergeom_identity_check(12)
    monkeypatch.setattr(series, "gauss_hypergeom_coeffs",
                        lambda n_terms: exact(n_terms)[:1] + [Fraction(1, 2)])
    with pytest.raises(FormulaMismatch):
        hypergeom_identity_check(12)


def test_hypergeometric_inner_coefficients():
    c = gauss_hypergeom_coeffs(3)
    assert [ck * 27 ** k for k, ck in enumerate(c)] == [1, 6, 90, 1680]


def test_ode_residuals():
    assert ode_check(20)
    assert ode_check(3)
    # the constant series 1 misses by the -2/9 term
    assert ode_residual([1], 0) == [Fraction(-2, 9)]


def test_series_functional_equation():
    assert series_feq_check(40)
    assert series_feq_check(2)


def test_li_trick():
    assert li_trick_check(5, 60)
    assert li_trick_check(7, 60)
    assert li_trick_check(7, 4)  # below p: reduces to H = H_p on low orders


def test_poly_functional_equation():
    holds, const = poly_feq_check(5)
    assert holds and const == FieldCtx(5).one()
    holds, const = poly_feq_check(23)
    assert holds and const is not None


def test_poly_functional_equation_classical_analogue():
    # the analogous identity x^{p-1} h((x^2+1)/(2x)) ~ h(x^2) for the
    # splitting polynomial of the classical tower, recovered from its graph
    p = 13
    f = fixtures.load_fixture("gs-tower", FieldCtx(p, 2))
    graph = TowerGraph(f.f, f.g, f.ctx)
    chi = fixtures.chi_from_graph(graph)
    holds, _const = functional_equation_holds(
        [c.coeffs[0] for c in chi.coeffs], [1, 0, 1], [0, 2], p)
    assert holds


def test_compose_cleared_small_case():
    # h = x + 1, num = x^2, den = x: den^1 * h(num/den) = x^2 + x
    assert psubst([1, 1], [0, 0, 1], [0, 1], 5) == [0, 1, 1]


def test_proportional_mod():
    assert pproportional([2, 4], [1, 2], 5) == 2
    assert pproportional([2, 4], [1, 3], 5) is None
    assert pproportional([1], [1, 2], 5) is None


def test_bulk_table_matches_exact_values():
    from rectower.series import _a_mod_table
    table = _a_mod_table(7, 300)
    for n in range(0, 301, 13):
        assert int(table[n]) == coeff_a(n) % 7


# -- the bulk table from the A002893 recurrence --------------------------------

def pascal_a_mod_table(p, n_max):
    """Independent oracle for the bulk table: C(n,k) mod p from numpy Pascal
    rows, C(2k,k) mod p from a multiplicative recurrence that tracks the
    exact p-adic valuation.  O(n^2), and no digit identity involved."""
    size = n_max + 1
    central = np.zeros(size, dtype=np.int64)
    val, unit = 0, 1  # C(2k,k) = unit * p^val with unit known mod p
    for k in range(size):
        central[k] = unit if val == 0 else 0
        num, den = 2 * (2 * k + 1), k + 1
        while num % p == 0:
            num //= p
            val += 1
        while den % p == 0:
            den //= p
            val -= 1
        unit = (unit * num * pow(den, p - 2, p)) % p
    out = np.zeros(size, dtype=np.int64)
    row = np.zeros(size, dtype=np.int64)
    row[0] = 1
    for n in range(size):
        t = row[: n + 1]
        out[n] = int((t * t % p * central[: n + 1]).sum() % p)
        if n + 1 < size:
            row[1: n + 2] = (row[1: n + 2] + row[: n + 1]) % p
    return [int(c) for c in out]


def test_recurrence_matches_definition():
    # through order 240, where the series identities read a_n off _a_exact
    assert list(series._a_exact(240)) == [coeff_a(n) for n in range(241)]
    assert list(series._a_exact(0)) == [1]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 23])
def test_bulk_table_matches_every_exact_value(p):
    table = series._a_mod_table(p, 300)
    assert table[:301] == [coeff_a(n) % p for n in range(301)]


@pytest.mark.parametrize("p", [7, 13])
def test_bulk_table_matches_pascal_rows(p):
    assert series._a_mod_table(p, 2000)[:2001] == pascal_a_mod_table(p, 2000)


def test_bulk_table_cache_growth(monkeypatch):
    monkeypatch.setattr(series, "_A_MOD_CACHE", {})
    small = series._a_mod_table(7, 10)
    assert len(small) == 11
    grown = series._a_mod_table(7, 500)
    assert grown is small and len(grown) == 501  # appended to, not rebuilt
    monkeypatch.setattr(series, "_A_MOD_CACHE", {})
    assert grown == series._a_mod_table(7, 500)
    # a request just past the cache grows it to exactly n_max + 1 entries
    assert len(series._a_mod_table(7, 501)) == 502


# -- tables grown in place: one exact pass per growth past p -------------------

TABLE_ORDERS = {
    "ascending": (10, 500, 3000),
    "descending": (3000, 500, 10),
    "interleaved": (500, 10, 3000),
}


@pytest.mark.parametrize("order", sorted(TABLE_ORDERS))
def test_shared_pass_tables_equal_exact_residues(monkeypatch, order):
    exact = list(series._a_exact(3000))
    primes = (5, 7, 11, 13, 17, 19, 23, 29, 31)
    monkeypatch.setattr(series, "_A_MOD_CACHE", {})
    for i, n in enumerate(TABLE_ORDERS[order]):
        # each size asks the primes in another order, so a shared pass made
        # for one prime's size is read by the others
        for p in primes[i:] + primes[:i]:
            assert series._a_mod_table(p, n)[:n + 1] == [a % p for a in exact[:n + 1]]
    for p in primes:
        assert series._a_mod_table(p, 3000)[:3001] == [a % p for a in exact]


def counted_exact(monkeypatch):
    calls = []
    exact = series._a_exact

    def wrapped(n_max):
        calls.append(n_max)
        return exact(n_max)

    monkeypatch.setattr(series, "_a_exact", wrapped)
    return calls


def test_lucas_primes_take_one_exact_pass_each(monkeypatch):
    monkeypatch.setattr(series, "_A_MOD_CACHE", {})
    calls = counted_exact(monkeypatch)
    for p in (5, 7, 11, 13, 17, 19, 23):  # C8's loop
        series._a_mod_table(p, 10 ** 4)
        assert all(lucas_check(n, p) for n in range(0, 10 ** 4 + 1, 97))
    assert calls == [10 ** 4] * 7
    assert sorted(series._A_MOD_CACHE) == [5, 7, 11, 13, 17, 19, 23]


def test_table_past_p_grows_by_one_exact_pass(monkeypatch):
    monkeypatch.setattr(series, "_A_MOD_CACHE", {})
    calls = counted_exact(monkeypatch)
    table = series._a_mod_table(11, 100)
    assert calls == [100] and len(table) == 101
    assert series._a_mod_table(11, 60) is table  # already long enough
    assert series._a_mod_table(11, 150) is table and len(table) == 151
    assert calls == [100, 150]
    assert table == [a % 11 for a in exact_values(150)]


@pytest.mark.parametrize("warm", [False, True])
def test_lucas_check_rejects_negative_index(monkeypatch, warm):
    monkeypatch.setattr(series, "_A_MOD_CACHE", {})
    if warm:
        assert lucas_check(10, 7)
    with pytest.raises(BadIndex):
        lucas_check(-1, 7)
    with pytest.raises(BadIndex):
        lucas_check(-50, 7)
    assert (7 in series._A_MOD_CACHE) is warm


# -- H_p below p by the recurrence mod p ---------------------------------------

@lru_cache(maxsize=None)
def exact_values(n_max):
    return tuple(series._a_exact(n_max))


def test_table_below_p_steps_the_recurrence_mod_p(monkeypatch):
    exact = exact_values(996)
    calls = counted_exact(monkeypatch)
    for p in (q for q in range(5, 998) if is_prime(q)):
        monkeypatch.setattr(series, "_A_MOD_CACHE", {})
        assert series._a_mod_table(p, p - 1) == [a % p for a in exact[:p]]
    assert calls == []  # no exact pass below p


def test_table_below_p_grows_to_at_most_p_entries(monkeypatch):
    monkeypatch.setattr(series, "_A_MOD_CACHE", {})
    calls = counted_exact(monkeypatch)
    inverted = []  # what each growth inverts: the product of the n + 1 it steps over

    def counted_pow(base, exp, mod):
        inverted.append((base, exp, mod))
        return pow(base, exp, mod)

    monkeypatch.setattr(series, "pow", counted_pow, raising=False)
    for n_max, size in ((10, 11), (11, 12), (60, 61), (30, 61), (99, 100), (100, 101)):
        assert len(series._a_mod_table(101, n_max)) == size
    # one inverse per growth, resumed each time: n + 1 = 1..10, 11, 12..60, 61..99, 100
    spans = [(1, 11), (11, 12), (12, 61), (61, 100), (100, 101)]
    assert inverted == [(math.prod(range(a, b)) % 101, -1, 101) for a, b in spans]
    assert calls == []
    assert len(series._a_mod_table(101, 101)) == 102  # from p on: the exact pass
    assert calls == [101]
    assert series._A_MOD_CACHE[101] == [a % 101 for a in exact_values(101)]


PRIMES_BELOW_200 = [p for p in range(5, 200) if is_prime(p)]


@given(p=st.sampled_from(PRIMES_BELOW_200),
       sizes=st.lists(st.integers(0, 3 * 199), min_size=1, max_size=4))
def test_grown_tables_equal_exact_residues(p, sizes):
    # sizes in [0, 3p] on both sides of p, asked in any order, each read off
    # or appended to the table the requests before it left
    exact = exact_values(3 * 199)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_A_MOD_CACHE", {})
        length = 0
        for n_max in (size % (3 * p + 1) for size in sizes):
            length = max(length, n_max + 1)
            assert series._a_mod_table(p, n_max) == [a % p for a in exact[:length]]


# -- a_n mod p at one index, from the defining sum ------------------------------

def empty_caches(monkeypatch):
    monkeypatch.setattr(series, "_A_MOD_CACHE", {})
    monkeypatch.setattr(series, "_SUM_CACHE", {})


@pytest.mark.parametrize("p", [5, 7, 11, 13, 23, 29, 31])
def test_sum_route_equals_exact_residues(monkeypatch, p):
    empty_caches(monkeypatch)
    exact = exact_values(3000)
    assert [series._a_mod(n, p) for n in range(3001)] == [a % p for a in exact]
    assert series._A_MOD_CACHE == {}  # every value came from the sum


@pytest.mark.parametrize("p", [101, 10007])
def test_sum_route_equals_exact_residues_sampled(monkeypatch, p):
    empty_caches(monkeypatch)
    exact = exact_values(10 ** 4)
    sample = sorted(random.Random(p).sample(range(10 ** 4 + 1), 300)) + [10 ** 4]
    assert [series._a_mod(n, p) for n in sample] == [exact[n] % p for n in sample]
    assert series._A_MOD_CACHE == {}


PRIMES_BELOW_500 = [p for p in range(5, 500) if is_prime(p)]


@given(p=st.sampled_from(PRIMES_BELOW_500), n=st.integers(0, 3999))
def test_sum_route_property(p, n):
    with pytest.MonkeyPatch.context() as mp:
        empty_caches(mp)
        assert series._a_mod(n, p) == exact_values(3999)[n] % p


def test_lucas_check_reads_a_table_that_reaches_n(monkeypatch):
    # C8's path: a warmed bulk table answers, and the sum is never set up
    empty_caches(monkeypatch)
    series._a_mod_table(7, 500)
    assert all(lucas_check(n, 7) for n in range(501))
    assert series._SUM_CACHE == {}


@pytest.mark.parametrize("p", [7, 13, 29, 101, 10007])
def test_lucas_check_makes_no_exact_pass(monkeypatch, p):
    empty_caches(monkeypatch)
    calls = counted_exact(monkeypatch)
    assert lucas_check(10 ** 4, p)
    assert calls == []
    assert len(series._A_MOD_CACHE[p]) <= p
    assert all(is_prime(q) and q >= 5 for q in series._A_MOD_CACHE)  # every key a checked prime


def test_sum_route_at_the_int64_guard(monkeypatch):
    # (p-1)^2 < 2^63 just below the guard: the sum runs in int64; just above
    # it the table answers, here from the recurrence below p
    below, above = 3037000493, 3037000507
    assert is_prime(below) and is_prime(above)
    assert (below - 1) ** 2 < 1 << 63 <= (above - 1) ** 2
    exact = exact_values(40)
    for p in (below, above):
        empty_caches(monkeypatch)
        assert [series._a_mod(n, p) for n in range(41)] == [a % p for a in exact]
        assert (p in series._SUM_CACHE) is (p == below)
        assert lucas_check(40, p)


def test_sum_route_past_the_int64_guard_at_p_is_refused(monkeypatch):
    # the table that would answer there needs p + 1 entries: refused before
    # its first recurrence step
    p = 3037000507
    empty_caches(monkeypatch)
    monkeypatch.setattr(series, "pow", lambda *args: pytest.fail("a recurrence step"),
                        raising=False)
    with pytest.raises(BadIndex):
        series._a_mod(p, p)
    assert series._A_MOD_CACHE == {} and series._SUM_CACHE == {}


def test_sum_route_across_int64_blocks(monkeypatch):
    # at p = 2^31 - 1 two products of residues fit in int64, a third may not:
    # the sum runs as dot products over blocks of two terms
    p = 2 ** 31 - 1
    assert is_prime(p) and ((1 << 63) - 1) // (p - 1) ** 2 == 2
    empty_caches(monkeypatch)
    exact = exact_values(40)
    assert [series._a_mod(n, p) for n in range(41)] == [a % p for a in exact]
    assert series._A_MOD_CACHE == {}


def test_lucas_check_refuses_past_the_table_cap(monkeypatch):
    monkeypatch.setattr(series, "MAX_TABLE_ENTRIES", 100)
    empty_caches(monkeypatch)
    assert lucas_check(99, 101)  # 100 table entries below p
    assert lucas_check(49, 13)  # the sum's arrays span 99 factorials
    for n, p in ((100, 103), (50, 13), (10 ** 12, 10 ** 9 + 7), (10 ** 12, 13)):
        empty_caches(monkeypatch)
        with pytest.raises(BadIndex):
            lucas_check(n, p)
        assert series._A_MOD_CACHE == {} and series._SUM_CACHE == {}  # nothing was built


def test_doubling_stops_at_the_table_cap(monkeypatch):
    monkeypatch.setattr(series, "MAX_TABLE_ENTRIES", 100)
    empty_caches(monkeypatch)
    exact = exact_values(99)
    assert lucas_check(30, 13)
    assert len(series._SUM_CACHE[13][0]) == 31
    assert lucas_check(40, 13)  # doubling to 62 would span 123 factorials
    assert [len(a) for a in series._SUM_CACHE[13]] == [50] * 4
    assert [series._a_mod(n, 13) for n in range(50)] == [a % 13 for a in exact[:50]]
    # a bulk table is refused past the cap, with nothing built
    calls = counted_exact(monkeypatch)
    assert series._a_mod_table(7, 99) == [a % 7 for a in exact]  # 100 entries
    for p, n_max in ((7, 100), (11, 100), (101, 100), (211, 150)):
        with pytest.raises(BadIndex):
            series._a_mod_table(p, n_max)
    assert calls == [99] and sorted(series._A_MOD_CACHE) == [7, 13]  # 13's from lucas_check
    assert len(series._A_MOD_CACHE[7]) == 100


def test_lucas_check_at_a_huge_prime_is_instant(monkeypatch):
    empty_caches(monkeypatch)
    start = time.perf_counter()
    assert lucas_check(5, 10 ** 9 + 7)
    assert time.perf_counter() - start < 0.1


# -- series identities by dividing out (1 - 3x) ----------------------------------

def oracle_inverse(order):
    """(1 - 3x)^{-1} = sum 3^n x^n, as a dense truncated series."""
    return [3 ** i for i in range(order + 1)]


def oracle_compose(a, inner, order):
    """sum a_k inner^k through the order, for an inner series of valuation
    >= 1 and at least one a_k, by Horner's rule; the partial sum that inner^k
    multiplies later only matters through order - k, so each step stops
    there."""
    n = min(len(a) - 1, order)
    comp = [a[n]]
    for k in range(n - 1, -1, -1):
        comp = series._ser_mul(comp, inner, order - k)
        comp[0] += a[k]
    return comp + [0] * (order + 1 - len(comp))


def full_compose(a, inner, order):
    """Horner's rule with every step carried to the full order."""
    comp = [a[-1]] + [0] * order
    for c in reversed(a[:-1]):
        comp = series._ser_mul(comp, inner, order)
        comp[0] += c
    return comp


def test_truncated_composition_equals_full():
    rng = random.Random(11)
    for _ in range(60):
        order = rng.randint(0, 25)
        a = [rng.randint(-50, 50) for _ in range(rng.randint(1, 30))]
        inner = [0] * rng.randint(1, 3) + [rng.randint(-9, 9) for _ in range(rng.randint(0, 30))]
        assert oracle_compose(a, inner, order) == full_compose(a, inner, order)


BIG = st.integers(-(1 << 200), 1 << 200)


@given(s=st.lists(BIG, min_size=1, max_size=81))
def test_division_by_1m3x_is_the_truncated_product(s):
    order = len(s) - 1
    assert series._ser_div_1m3x(s) == series._ser_mul(s, oracle_inverse(order), order)


@given(a=st.lists(BIG, min_size=1, max_size=30),
       num=st.lists(st.integers(-9, 9), min_size=1, max_size=3), shift=st.integers(1, 2),
       e=st.integers(1, 3), order=st.integers(0, 40))
def test_rational_horner_equals_the_dense_composition(a, num, shift, e, order):
    num = [0] * shift + num  # valuation >= 1, at most four terms
    inner = num[:order + 1] + [0] * (order + 1 - len(num))
    for _ in range(e):
        inner = series._ser_mul(inner, oracle_inverse(order), order)
    assert series._ser_compose_ratio(a, num, e, order) == oracle_compose(a, inner, order)


def oracle_hypergeom_identity_check(n):
    """The identity check on dense truncated products: (1-3x)^{-1} and
    x^2(1-x)/(1-3x)^3 expanded through order n, and the powers of the
    latter multiplied out."""
    if n < 1:
        raise BadIndex("need order >= 1")
    weights = [ck * 27 ** k for k, ck in enumerate(series.gauss_hypergeom_coeffs(n // 2))]
    if any(w.denominator != 1 for w in weights):
        raise FormulaMismatch("27^k c_k is not an integer for some k")
    inv13 = oracle_inverse(n)
    inv13_cubed = series._ser_mul(series._ser_mul(inv13, inv13, n), inv13, n)
    arg = series._ser_mul([0, 0, 1, -1], inv13_cubed, n)
    total = [0] * (n + 1)
    power = [1] + [0] * n
    for k, w in enumerate(weights):
        if k:
            power = series._ser_mul(power, arg, n)
        for i, v in enumerate(power):
            total[i] += w.numerator * v
    rhs = series._ser_mul(inv13, total, n)
    return all(rhs[i] == series.coeff_a(i) for i in range(n + 1))


def oracle_series_feq_check(n):
    """The functional equation on dense truncated products: the inner series
    -(x+x^2) sum 3^k x^k composed by Horner's rule, then times sum 3^k x^k."""
    if n < 2:
        raise BadIndex("need order >= 2")
    geom = oracle_inverse(n)
    inner = series._ser_mul([0, -1, -1], geom, n)
    a = [series.coeff_a(k) for k in range(n + 1)]
    lhs = series._ser_mul(geom, oracle_compose(a, inner, n), n)
    return all(lhs[k] == (a[k // 2] if k % 2 == 0 else 0) for k in range(n + 1))


def verdict(check, n):
    try:
        return check(n)
    except (BadIndex, FormulaMismatch, IndexError) as exc:
        return type(exc)


def wrong_weight(monkeypatch):
    exact = series.gauss_hypergeom_coeffs

    def wrong(n_terms):
        c = exact(n_terms)
        return c[:3] + [c[3] + 1] + c[4:]  # IndexError below order 6, on both routes

    monkeypatch.setattr(series, "gauss_hypergeom_coeffs", wrong)


def non_integral_weight(monkeypatch):
    exact = series.gauss_hypergeom_coeffs
    monkeypatch.setattr(series, "gauss_hypergeom_coeffs",
                        lambda n_terms: exact(n_terms)[:1] + [Fraction(1, 2)])


def perturbed_coeff_a(monkeypatch):
    # a_17 off by one both in the defining sum, which the oracles read, and
    # in the recurrence's pass, which the checks read
    exact, recurrence = series.coeff_a, series._a_exact
    monkeypatch.setattr(series, "coeff_a", lambda k: exact(k) + (k == 17))
    monkeypatch.setattr(series, "_a_exact",
                        lambda n: (a + (k == 17) for k, a in enumerate(recurrence(n))))


@pytest.mark.parametrize("perturb", [None, wrong_weight, non_integral_weight, perturbed_coeff_a])
def test_identities_equal_the_dense_oracles(monkeypatch, perturb):
    if perturb is not None:
        perturb(monkeypatch)
    # the cases that must read false at some order: the weights only enter
    # the hypergeometric identity
    fails = {hypergeom_identity_check: (wrong_weight, perturbed_coeff_a),
             series_feq_check: (perturbed_coeff_a,)}
    pairs = ((hypergeom_identity_check, oracle_hypergeom_identity_check),
             (series_feq_check, oracle_series_feq_check))
    for check, oracle in pairs:
        verdicts = [verdict(check, n) for n in range(1, 101)]
        assert verdicts == [verdict(oracle, n) for n in range(1, 101)]
        assert (False in verdicts) is (perturb in fails[check])


def test_series_check_multiplies_only_by_short_operands(monkeypatch, capsys):
    # dense truncated products made the identities cubic in the order
    mul = series._ser_mul
    shorter = []

    def guarded(a, b, order):
        shorter.append(min(len(a), len(b)))
        return mul(a, b, order)

    monkeypatch.setattr(series, "_ser_mul", guarded)
    assert cli.main(["series-check", "--order", "60", "--p", "11"]) == 0
    assert shorter and max(shorter) <= 4


def oracle_li_trick_check(p, n):
    """The truncation congruence with each factor H_p(x^step) spread into a
    dense series and multiplied in by _ser_mul."""
    table = series._a_mod_table(p, max(n, p - 1))
    prod = [1] + [0] * n
    step = 1
    while step <= n:
        spread = [0] * (n + 1)
        for i, c in enumerate(table[:p]):
            if i * step > n:
                break
            spread[i * step] = c
        prod = [c % p for c in series._ser_mul(prod, spread, n)]
        step *= p
    return all(prod[k] == table[k] for k in range(n + 1))


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("wrong", [None, 2, "p+1", "3p+2"])
def test_li_trick_equals_the_dense_oracle(monkeypatch, p, wrong):
    if wrong is not None:  # one wrong entry below p, or past it
        j = {"p+1": p + 1, "3p+2": 3 * p + 2}.get(wrong, wrong)
        table = list(series._a_mod_table(p, 200))
        table[j] = (table[j] + 1) % p
        monkeypatch.setattr(series, "_a_mod_table", lambda q, n_max: table)
    verdicts = [li_trick_check(p, n) for n in range(81)]
    assert verdicts == [oracle_li_trick_check(p, n) for n in range(81)]
    assert all(verdicts) is (wrong is None)


def test_series_feq_check_sees_one_wrong_coefficient(monkeypatch):
    exact = series._a_exact  # the check reads a_0, ..., a_n off one pass

    def perturbed(n):
        return (a + (k == 17) for k, a in enumerate(exact(n)))

    assert series_feq_check(40)
    monkeypatch.setattr(series, "_a_exact", perturbed)
    assert not series_feq_check(40)
