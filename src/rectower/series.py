"""The integer coefficient series behind the splitting polynomials.

The central object is the sequence a_n = sum_k C(n,k)^2 C(2k,k), whose
generating series H(x) satisfies

    (1 - 3x)^{-1} H((x^2+x)/(3x-1)) = H(x^2)

and whose degree-(p-1) truncation H_p mod p both inherits a polynomial
form of that equation and is multiplicative over base-p digits
(a_n = prod a_{n_i} mod p).  The truncations are exactly the splitting
polynomials recovered from the correspondence graphs, up to the sign
(-3/p).

Everything is exact: big integers for the series, fractions for the
hypergeometric coefficients, and residues for the mod-p identities.  The
series identities never expand (1-3x)^{-1} as a dense truncated series: they
multiply by short numerators and divide by 1 - 3x, a prefix recurrence, so
each identity is quadratic in its order.  a_n mod p comes by one of three
routes:

* below p, the prime's bulk table steps the three-term recurrence
  (n+1)^2 a_{n+1} = (10n^2+10n+3) a_n - 9n^2 a_{n-1} (OEIS A002893) mod p,
  where every (n+1)^2 is a unit;
* from p on, the same table reduces the exact values of that recurrence;
* for a single n, ``lucas_check`` evaluates the defining sum mod p at that n
  alone, as a blocked int64 dot product, with each binomial mod p read off
  the p-free parts and p-adic valuations of factorials (Legendre's formula).

None of them splits n into base-p digits, so none depends on the digit
identity that ``lucas_check`` and ``li_trick_check`` test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import comb

from .errors import BadIndex, FormulaMismatch
from .ff import (MAX_TABLE_ENTRIES, FieldCtx, legendre, power, pproportional, psubst,
                 reduce_array, require_prime)
from .upoly import Poly


def coeff_a(n: int) -> int:
    """a_n = sum_{k=0}^{n} C(n,k)^2 C(2k,k), exactly."""
    if n < 0:
        raise BadIndex("index must be >= 0")
    return sum(comb(n, k) ** 2 * comb(2 * k, k) for k in range(n + 1))


# ---------------------------------------------------------------------------
# a_n mod p in bulk

_A_MOD_CACHE: dict = {}  # checked prime p -> [a_0, ..., a_n] mod p, only ever appended to


def _require_entries(n: int, p: int, by_sum: bool = False) -> None:
    """BadIndex unless a_n mod p fits in MAX_TABLE_ENTRIES entries: n + 1 in
    a table, or 2n + 1 in the sum's arrays."""
    if (2 * n + 1 if by_sum else n + 1) > MAX_TABLE_ENTRIES:
        raise BadIndex(f"index {n} at p = {p} needs more than {MAX_TABLE_ENTRIES} table entries")


def _a_exact(n_max: int):
    """Yield the exact a_0, ..., a_{n_max} from the recurrence
    (n+1)^2 a_{n+1} = (10n^2+10n+3) a_n - 9n^2 a_{n-1}.

    Only the last two values are kept alive.  Every division is checked:
    a nonzero remainder raises FormulaMismatch."""
    prev, cur = 0, 1
    yield cur
    for n in range(n_max):
        cur_next, r = divmod((10 * n * n + 10 * n + 3) * cur - 9 * n * n * prev, (n + 1) ** 2)
        if r:
            raise FormulaMismatch(f"the A002893 recurrence is not exact at n = {n + 1}")
        prev, cur = cur, cur_next
        yield cur


def _a_mod_table(p: int, n_max: int) -> list:
    """a_n mod p for all n <= n_max, for the bulk callers: the prime's cached
    table, appended to until it holds at least n_max + 1 entries.  Below p it
    resumes the A002893 recurrence mod p from its last two entries, as every
    (n+1)^2 is a unit there; from p on it reduces the exact values of one
    pass of the recurrence through n_max.  A table that would pass
    MAX_TABLE_ENTRIES raises BadIndex before anything is built.  A single a_n
    has a third route, the defining sum in _a_mod.  No route combines base-p
    digits, so the tables can test the digit identity."""
    table = _A_MOD_CACHE.get(p)
    if table is not None and len(table) > n_max:
        return table  # tables are cached under checked primes only
    require_prime(p)
    _require_entries(n_max, p)
    table = _A_MOD_CACHE.setdefault(p, [1])
    start, stop = len(table) - 1, min(n_max, p - 1)
    if start < stop:
        # 1/(n+1) for every step by one inverse (batch inversion): the
        # running products of the n + 1, inverted once and unwound
        prefix, run = [], 1
        for m in range(start + 1, stop + 1):
            run = run * m % p
            prefix.append(run)
        inv = pow(run, -1, p)
        invs = [0] * len(prefix)
        for i in range(len(prefix) - 1, 0, -1):
            invs[i] = inv * prefix[i - 1] % p
            inv = inv * (start + 1 + i) % p
        invs[0] = inv
        prev, cur = table[-2] if len(table) > 1 else 0, table[-1]
        for n, inv in zip(range(start, stop), invs):
            step = (10 * n * n + 10 * n + 3) * cur - 9 * n * n * prev
            prev, cur = cur, step * inv * inv % p
            table.append(cur)
    if n_max >= p:
        table.extend(a % p for a in islice(_a_exact(n_max), len(table), None))
    return table


# ---------------------------------------------------------------------------
# a_n mod p at one index, from the defining sum

# p -> (v_p(m!), v_p(m!) reversed, C(2m,m) u(m)^-2, u(m)^-2 reversed mod p)
# over m < length, where u(m) is m! with its p-power removed, taken mod p,
# grown by doubling; the residues in int32 if one dot product over all fits
_SUM_CACHE: dict = {}


def _sum_arrays(p: int, n: int):
    """The per-prime arrays that _a_mod sums over, reaching at least index n
    and spanning factorials through 2n.  The caller has checked that
    (p-1)^2 fits in int64 and that 2n + 1 <= MAX_TABLE_ENTRIES."""
    import numpy as np  # numpy is loaded by the graph layer before any call

    cached = _SUM_CACHE.get(p)
    if cached is not None and len(cached[0]) > n:
        return cached
    size = max(n + 1, min(2 * len(cached[0]), (MAX_TABLE_ENTRIES + 1) // 2) if cached else 0)
    span = 2 * size - 1  # C(2k,k) for k < size reads m! up to m = 2(size-1)
    # the narrowest integers that hold a product of two residues, and v_p(m!)
    work = next(t for t in (np.int16, np.int32, np.int64) if (p - 1) ** 2 <= np.iinfo(t).max)
    vtype = np.int16 if span // (p - 1) <= np.iinfo(np.int16).max else np.int32
    # the p-free part w(m) mod p and v_p(m!): w(kp) = w(k), and every q-th m
    # is divisible by q = p^j
    unit = np.resize(np.arange(min(p, span), dtype=work), span)  # m mod p
    unit[0] = 1  # 0! = 1
    vfact = np.zeros(span, dtype=vtype)
    q = p
    while q < span:
        unit[::p] = unit[:len(unit[::p])]
        vfact[q::q] += 1
        q *= p
    np.cumsum(vfact, out=vfact)
    # u(m): the prefix products of the w(m) mod p, by doubling spans; a
    # step writes the other array, whose first step entries, settled, it copies
    prod = np.empty_like(unit)
    step = 1
    while step < span:
        np.multiply(unit[step:], unit[:-step], out=prod[step:])
        reduce_array(prod[step:], p, in_place=True)
        prod[:step] = unit[:step]
        unit, prod = prod, unit
        step *= 2
    del prod
    # u^-2 = u^(p-3) by Fermat, each product taken in place on the running power
    inv2 = power(unit[:size], p - 3,
                 lambda a, b: reduce_array(np.multiply(a, b, out=a), p, in_place=True),
                 np.ones(size, dtype=work))
    # C(2k,k) u(k)^-2 = u(2k) u(k)^-4 mod p when v_p((2k)!) = 2 v_p(k!), else 0
    central = reduce_array(unit[::2] * inv2, p, in_place=True)
    central *= inv2
    reduce_array(central, p, in_place=True)
    central *= vfact[::2] == 2 * vfact[:size]
    dot = np.int32 if size * (p - 1) ** 2 <= np.iinfo(np.int32).max else np.int64
    out = (vfact[:size].copy(), vfact[size - 1::-1].copy(), central.astype(dot),
           inv2[::-1].astype(dot))
    _SUM_CACHE[p] = out
    return out


def _a_mod(n: int, p: int) -> int:
    """a_n mod p for one n, from the defining sum sum_k C(n,k)^2 C(2k,k) at
    n alone.  By Legendre's formula C(m,j) = 0 mod p when v_p(m!) >
    v_p(j!) + v_p((m-j)!), and otherwise C(m,j) = u(m) u(j)^-1 u(m-j)^-1, so
    the sum reads no other a_m and combines no base-p digits.  It is u(n)^2
    times the dot of [C(n,k) a unit] C(2k,k) u(k)^-2 with u(n-k)^-2, summed
    in blocks whose products of two residues add up exactly in the arrays'
    int32 or int64.  That needs (p-1)^2 < 2^63; past it the table answers,
    which refuses every n >= p there, as p + 1 > MAX_TABLE_ENTRIES."""
    if (p - 1) ** 2 >= 1 << 63:
        return _a_mod_table(p, n)[n]
    vfact, vrev, central, inv2_rev = _sum_arrays(p, n)
    lo = len(vrev) - 1 - n
    terms = central[:n + 1] * (vfact[:n + 1] + vrev[lo:] == vfact[n])  # C(n,k) a unit
    inv2 = inv2_rev[lo:]  # u(n-k)^-2, and u(n)^-2 first
    block = ((1 << 8 * inv2.itemsize - 1) - 1) // (p - 1) ** 2  # the dtype's max over (p-1)^2
    total = sum(int(terms[i:i + block] @ inv2[i:i + block]) for i in range(0, n + 1, block))
    return total * pow(int(inv2[0]), -1, p) % p


def truncate_H_mod_p(p: int) -> Poly:
    """H_p(x): the mod-p truncation of the series at degree p-1."""
    table = _a_mod_table(p, p - 1)  # checks p
    return Poly(FieldCtx(p), table[:p])


def lucas_check(n: int, p: int) -> bool:
    """Whether a_n = prod a_{n_i} mod p over the base-p digits n_i of n.
    The digit factors a_{n_i} come from the table below p, and a_n from the
    cached table when that already reaches n, else from the defining sum in
    _a_mod, so no check starts an exact pass.  An n whose check would build
    more than MAX_TABLE_ENTRIES entries (n + 1 in the table below p, 2n + 1
    in the sum's arrays from p on) raises BadIndex before anything is built."""
    if n < 0:
        raise BadIndex("index must be >= 0")
    _require_entries(n, p, by_sum=n >= p)
    table = _a_mod_table(p, n if n < p else p - 1)  # checks p before _a_mod runs
    a_n = table[n] if n < len(table) else _a_mod(n, p)
    prod = 1
    m = n
    while True:
        prod = (prod * table[m % p]) % p
        m //= p
        if m == 0:
            break
    return a_n == prod


# ---------------------------------------------------------------------------
# exact series helpers (lists of coefficients, index = degree, truncated)

def _ser_mul(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if i > order or x == 0:
            continue
        for j, y in enumerate(b):
            if i + j > order:
                break
            if y:
                out[i + j] += x * y
    return out


def _ser_div_1m3x(s):
    """s / (1 - 3x), truncated where s is: out[i] = s[i] + 3 out[i-1]."""
    out = list(s)
    for i in range(1, len(out)):
        out[i] += 3 * out[i - 1]
    return out


def _ser_compose_ratio(a, num, e, order):
    """sum a_k (num / (1-3x)^e)^k through the order, for a short polynomial
    num of valuation >= 1 and at least one a_k, by Horner's rule: each step
    multiplies by num and divides by 1 - 3x e times, both linear in the
    order.  The partial sum that the k-th power multiplies later only
    matters through order - k, so each step stops there."""
    n = min(len(a) - 1, order)  # the k-th power has no term through the order for k > order
    comp = [a[n]]
    for k in range(n - 1, -1, -1):
        comp = _ser_mul(num, comp, order - k)  # num outside: its zeros are skipped once
        for _ in range(e):
            comp = _ser_div_1m3x(comp)
        comp[0] += a[k]
    return comp + [0] * (order + 1 - len(comp))


def gauss_hypergeom_coeffs(n_terms: int) -> list:
    """Coefficients of the (1/3, 2/3; 1) hypergeometric series as exact
    fractions: c_0 = 1, c_{k+1} = c_k (k+1/3)(k+2/3)/(k+1)^2."""
    out = [Fraction(1)]
    for k in range(n_terms):
        out.append(out[-1] * (Fraction(1, 3) + k) * (Fraction(2, 3) + k)
                   / ((k + 1) * (k + 1)))
    return out


def ode_residual(coeffs, through: int) -> list:
    """Residual coefficients of x(1-x)F'' + (1-2x)F' - (2/9)F for the series
    with the given coefficients (zero beyond the list), through the given
    order: r_k = (k+1)^2 c_{k+1} - (k^2 + k + 2/9) c_k."""
    c = [Fraction(x) for x in coeffs]

    def at(k):
        return c[k] if 0 <= k < len(c) else Fraction(0)

    return [(k + 1) ** 2 * at(k + 1) - (Fraction(2, 9) + k * k + k) * at(k)
            for k in range(through + 1)]


def ode_check(n: int) -> bool:
    """The hypergeometric factor satisfies its second-order equation through
    order n-2 (exact rational arithmetic)."""
    if n < 3:
        raise BadIndex("need order >= 3")
    coeffs = gauss_hypergeom_coeffs(n)
    return all(r == 0 for r in ode_residual(coeffs, n - 2))


def hypergeom_identity_check(n: int) -> bool:
    """Whether the closed form (1-3x)^{-1} F(27x^2(1-x)/(1-3x)^3) expands to
    the series with coefficients a_n, through order n.  The series arithmetic
    runs on integers: F's c_k enter as 27^k c_k = (3k)!/(k!)^3 against powers
    of x^2(1-x)/(1-3x)^3, and a 27^k c_k that is no integer raises
    FormulaMismatch."""
    if n < 1:
        raise BadIndex("need order >= 1")
    weights = [ck * 27 ** k for k, ck in enumerate(gauss_hypergeom_coeffs(n // 2))]
    if any(w.denominator != 1 for w in weights):
        raise FormulaMismatch("27^k c_k is not an integer for some k")
    rhs = _ser_div_1m3x(_ser_compose_ratio([w.numerator for w in weights], [0, 0, 1, -1], 3, n))
    return rhs == list(_a_exact(n))


def series_feq_check(n: int) -> bool:
    """The series functional equation (1-3x)^{-1} H((x^2+x)/(3x-1)) = H(x^2)
    through order n, over exact integers.

    (x^2+x)/(3x-1) = -(x+x^2)/(1-3x) has valuation 1, so the composition
    truncates cleanly."""
    if n < 2:
        raise BadIndex("need order >= 2")
    a = list(_a_exact(n))
    lhs = _ser_div_1m3x(_ser_compose_ratio(a, [0, -1, -1], 1, n))
    return all(lhs[k] == (a[k // 2] if k % 2 == 0 else 0) for k in range(n + 1))


def li_trick_check(p: int, n: int) -> bool:
    """H(x) = H_p(x) H_p(x^p) H_p(x^{p^2}) ... mod p through order n (the
    product form of the truncation congruence; factors stop once p^k > n)."""
    table = _a_mod_table(p, max(n, p - 1))  # checks p
    hp = table[:p]
    prod = [1] + [0] * n
    step = 1
    while step <= n:  # times H_p(x^step): the terms hp[i] x^(i step) through the order
        prod = [sum(hp[i] * prod[k - i * step] for i in range(min(p, k // step + 1))) % p
                for k in range(n + 1)]
        step *= p
    return all(prod[k] == table[k] for k in range(n + 1))


# ---------------------------------------------------------------------------
# polynomial functional equations mod p

def functional_equation_holds(h, num, den, p):
    """Whether den^(deg h) * h(num/den) is proportional to h(x^2) over F_p;
    returns (holds, constant)."""
    rhs = [0] * (2 * len(h) - 1)
    rhs[::2] = h  # h(x^2)
    c = pproportional(psubst(h, num, den, p), rhs, p)
    return c is not None, c


def poly_feq_check(p: int):
    """The polynomial functional equation for H_p over F_p:
    (3x-1)^{p-1} H_p((x^2+x)/(3x-1)) ~ H_p(x^2).  Returns (holds, constant
    as a field element)."""
    table = _a_mod_table(p, p - 1)  # checks p
    hp = table[:p]
    holds, c = functional_equation_holds(hp, [0, 1, 1], [-1, 3], p)
    ctx = FieldCtx(p)
    return holds, (ctx.lift(c) if c is not None else None)


def h_leading_is_legendre(p: int) -> bool:
    """Leading coefficient of H_p equals the Legendre symbol (-3/p)."""
    table = _a_mod_table(p, p - 1)
    return table[p - 1] == legendre(-3, p) % p
