"""Exact arithmetic in prime fields F_p and extensions F_{p^r}.

A :class:`FieldCtx` fixes the characteristic p, the extension degree r and,
for r > 1, a monic irreducible modulus of degree r over F_p.  Elements are
residue classes stored as fully reduced coefficient vectors
(c0, ..., c_{r-1}) with every entry in [0, p), so equality of elements is
equality of canonical vectors and elements hash safely.

Everything here is immutable after construction and all operations are
pure; contexts and elements can be shared freely between callers.

The module also holds the package's dense polynomial arithmetic over F_p on
ascending int coefficient lists (``ptrim``, ``padd``, ``pmul``, ``ppow``,
``pmod``, ``pgcd``, ``pradical``, ``pinvmod``, ``psubst``, ``pproportional``,
``presultant``).  Its kernel is subquadratic (von zur Gathen and Gerhard,
*Modern Computer Algebra*, ch. 8-9): ``pmul`` multiplies by Kronecker
substitution, ``pmod`` by a Newton inverse of the reversed divisor cached
per modulus, and ``psubst`` composes by divide and conquer, so x^q mod h
costs O(M(n) log q).  An operation whose two sizes have a geometric mean
below FAST_MIN_LEN takes the schoolbook path instead, which is faster there.

Every power in the package, of ints, numpy arrays, F_p[x] lists, F_{p^r}
coefficient tuples and ``Poly``s, is taken by ``power``: left-to-right
square-and-multiply (ibid. §4.3), so every product that is not a squaring
multiplies by the base itself, which stays short while the running power
grows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product, zip_longest

from .errors import (
    BadPrime,
    CompositeP,
    DegreeMismatch,
    DivisionByZero,
    EvenOrCompositeP,
    FieldMismatch,
    FieldTooLarge,
    ReducibleModulus,
)


MAX_TABLE_ENTRIES = 2 ** 22  # tables over the whole field (graph, dlog) are capped
FAST_MIN_LEN = 16  # the F_p[x] kernel's schoolbook/fast crossover, measured (see _is_long)


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for machine-word moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def require_prime(p: int, subject: str = "need") -> int:
    """p, when it is a prime >= 5; else BadPrime, whose message opens with
    the subject."""
    if p < 5 or not is_prime(p):
        raise BadPrime(f"{subject} a prime >= 5, got {p}")
    return p


def reduce_array(a, p: int, in_place: bool = False):
    """a mod p, entries in [0, p), for a numpy integer array a whose entries
    lie in [p - 2^63, 2^63) (int64; in [p - 2^31, 2^31) for int32).  It is
    a - (a // p) * p by array operators: numpy's floor division by a scalar
    is about twice as fast as its ``%``, and ``%`` slows further on mixed
    signs.  In place, a itself is reduced and returned."""
    q = a // p
    if in_place:
        q *= p
        a -= q
        return a
    q *= -p
    q += a
    return q


def power(x, e: int, mul, one):
    """x^e for e >= 0 under an associative product mul with identity one, by
    left-to-right square-and-multiply.  The first product is mul(one, x), and
    x is only ever mul's second operand, so mul may overwrite and return its
    first operand (one, then the running power) but never x."""
    if not e:
        return one
    out = mul(one, x)
    for bit in bin(e)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {+1, 0, -1}, computed as a^((p-1)/2) mod p."""
    if p == 2 or not is_prime(p):
        raise EvenOrCompositeP(f"{p} is not an odd prime")
    v = pow(a % p, (p - 1) // 2, p)
    return -1 if v == p - 1 else v


# ---------------------------------------------------------------------------
# dense polynomials over F_p: ascending int coefficient lists, reduced mod p
# and with trailing zeros stripped on output.  They validate moduli here,
# before any FieldCtx exists; p1 uses them for map forms, parsing and
# resultants, upoly for compositions, series and fixtures for the cleared
# functional equations.

def ptrim(f, p):
    """f reduced mod p, as a new list without trailing zeros."""
    out = [c % p for c in f]
    while out and out[-1] == 0:
        out.pop()
    return out


def padd(f, g, p):
    return ptrim([a + b for a, b in zip_longest(f, g, fillvalue=0)], p)


def _is_long(m: int, n: int) -> bool:
    """Whether an operation whose two sizes are m and n takes the fast path:
    their geometric mean is at least FAST_MIN_LEN."""
    return m * n >= FAST_MIN_LEN ** 2


def pmul(f, g, p):
    if not f or not g:
        return []
    n = min(len(f), len(g))
    if _is_long(len(f), len(g)) and n * (p - 1) ** 2 < 1 << 64:
        return _kronecker_mul(f, g, p, n)
    out = [0] * (len(f) + len(g) - 1)
    g_terms = [(j, b) for j, b in enumerate(g) if b]
    for i, a in enumerate(f):
        if a:
            for j, b in g_terms:
                out[i + j] += a * b
    return ptrim(out, p)


def _kronecker_mul(f, g, p, n):
    """f*g by Kronecker substitution: each polynomial becomes one big int
    with a slot of k bytes per coefficient, wide enough for the n*(p-1)^2
    bound on a product coefficient, so one int product does the work.
    numpy packs the slots from int64 coefficients; a list with one outside
    int64 is first reduced mod p in Python."""
    # imported here: loaded ahead of the package's other modules, numpy
    # raised the peak RSS of a fresh `import rectower.cli` by about 0.3 MB
    import numpy as np

    k = ((n * (p - 1) ** 2).bit_length() + 7) // 8

    def pack(h):
        try:
            digits = np.array(h, dtype=np.int64)
        except OverflowError:
            digits = np.array([c % p for c in h], dtype=np.int64)
        digits = (digits % p).astype("<u8")
        return int.from_bytes(digits.view(np.uint8).reshape(-1, 8)[:, :k].tobytes(), "little")

    x = pack(f)
    prod = x * x if f is g else x * pack(g)
    size = len(f) + len(g) - 1
    slots = np.zeros((size, 8), dtype=np.uint8)
    slots[:, :k] = np.frombuffer(prod.to_bytes(size * k, "little"), dtype=np.uint8).reshape(size, k)
    return ptrim((slots.view("<u8").ravel() % p).tolist(), p)


def ppow(f, e: int, p):
    """f^e for e >= 0."""
    return power(f, e, lambda a, b: pmul(a, b, p), [1])


def pmod(f, m, p):
    """Remainder of f on division by m, whose leading coefficient is a unit.

    Long division when the quotient and the divisor are short (``_is_long``);
    otherwise the quotient is read off rev(f) * rev(m)^(-1) mod x^(deg f - deg m + 1),
    with the Newton inverse of rev(m), to that precision only, cached."""
    n = len(m) - 1
    lq = len(f) - n
    if not _is_long(lq, n):
        f = list(f)
        inv_lead = pow(m[-1], p - 2, p)
        for top in range(len(f) - 1, n - 1, -1):
            c = f[top] * inv_lead % p
            if c:
                shift = top - n
                for i, a in enumerate(m):
                    f[shift + i] -= c * a
        return ptrim(f[:n], p)
    inv = _rev_inverse(tuple(m), p, lq)
    q = pmul(f[:n - 1:-1], inv, p)[:lq]
    q = [0] * (lq - len(q)) + q[::-1]
    return padd(f[:n], [-c for c in pmul(q, m, p)[:n]], p)


@lru_cache(maxsize=8)
def _rev_inverse(m: tuple, p, prec: int):
    """The power series inverse of rev(m) modulo x^prec, by Newton's
    iteration g <- g (2 - rev(m) g), which doubles the precision each step."""
    rev = [c % p for c in reversed(m)]
    g, k = [pow(rev[0], p - 2, p)], 1
    while k < prec:
        k = min(2 * k, prec)
        e = [-c for c in pmul(rev[:k], g, p)[:k]]
        e[0] += 2
        g = pmul(g, e, p)[:k]
    return g


def pgcd(f, g, p):
    """A greatest common divisor of f and g (not normalized)."""
    f, g = ptrim(f, p), ptrim(g, p)
    while g:
        f, g = g, pmod(f, g, p)
    return f


def pinvmod(f, m, p):
    """The inverse of f modulo m, by the extended Euclidean algorithm.

    Keeps s_i*f = r_i mod m for the remainder sequence r_0 = m, r_1 = f; m
    must have a unit leading coefficient and f must be coprime to it."""
    r0, s0 = ptrim(m, p), []
    r1, s1 = ptrim(f, p), [1]
    while len(r1) > 1:
        inv_lead = pow(r1[-1], p - 2, p)
        while len(r0) >= len(r1):
            c = r0[-1] * inv_lead % p
            shift = [0] * (len(r0) - len(r1))
            r0 = padd(r0, shift + [-c * a for a in r1], p)
            s0 = padd(s0, shift + [-c * a for a in s1], p)
        r0, s0, r1, s1 = r1, s1, r0, s0
    if not r1:
        raise DivisionByZero("not invertible modulo m")
    inv_c = pow(r1[0], p - 2, p)
    return ptrim([c * inv_c for c in s1], p)


def psubst(h, a, b, p):
    """sum_k h_k a^k b^(n-k) mod p with n = len(h) - 1 the formal degree.

    For polynomials this is h(a/b) with the denominator cleared by b^n; for
    a form h of degree n and linear forms A, B it is the form h(A, B).

    Divide and conquer: with S(lo..hi) = sum_{lo<=k<=hi} h_k a^(k-lo) b^(hi-k),
    S(lo..hi) = S(lo..mid-1) b^(hi-mid+1) + a^(mid-lo) S(mid..hi), the
    powers memoized; ranges shorter than FAST_MIN_LEN run Horner's rule."""
    powers = {}

    def memo_power(base, e):
        key = (base is a, e)
        if key not in powers:
            powers[key] = ppow(base, e, p) if e < 2 else pmul(
                memo_power(base, e // 2), memo_power(base, e - e // 2), p)
        return powers[key]

    def part(lo, hi):
        if hi - lo + 1 < FAST_MIN_LEN:
            out = []
            for k in range(lo, hi + 1):
                out = padd(pmul(out, b, p), [h[k] * c for c in memo_power(a, k - lo)], p)
            return out
        mid = (lo + hi + 1) // 2
        return padd(pmul(part(lo, mid - 1), memo_power(b, hi - mid + 1), p),
                    pmul(memo_power(a, mid - lo), part(mid, hi), p), p)

    return part(0, len(h) - 1) if h else []


def pproportional(a, b, p):
    """The constant c with a = c*b mod p, or None (also when either is zero)."""
    a, b = ptrim(a, p), ptrim(b, p)
    if not a or not b or len(a) != len(b):
        return None
    c = (a[-1] * pow(b[-1], p - 2, p)) % p
    if all((x - c * y) % p == 0 for x, y in zip(a, b)):
        return c
    return None


def presultant(f, g, p) -> int:
    """Sylvester resultant mod p of two forms of one formal degree d = len(f) - 1.

    Zero leading coefficients are meaningful, they encode roots at infinity.
    The resultant vanishes iff the forms share a projective root, iff the
    induced self-map of the line drops below degree d.  The determinant is
    the sign-tracked product of the pivots of a Gaussian elimination."""
    if len(f) != len(g):
        raise DegreeMismatch("forms must share a formal degree")
    d = len(f) - 1
    size = 2 * d
    rows = [[0] * i + [c % p for c in reversed(form)] + [0] * (d - 1 - i)
            for form in (f, g) for i in range(d)]
    det = 1
    for col in range(size):
        pivot = next((rr for rr in range(col, size) if rows[rr][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        pv = rows[col][col]
        det = det * pv % p
        inv = pow(pv, p - 2, p)
        for rr in range(col + 1, size):
            factor = rows[rr][col] * inv % p
            if factor:
                rows[rr][col:] = [(a - factor * b) % p
                                  for a, b in zip(rows[rr][col:], rows[col][col:])]
    return det % p


def _pow_mod(f, e: int, m, p):
    """f^e reduced mod m for e >= 1."""
    return power(f, e, lambda a, b: pmod(pmul(a, b, p), m, p), [1])


def _is_irreducible(m, p: int) -> bool:
    """Irreducibility of a monic polynomial m of degree r >= 1 over F_p.

    A quadratic over odd p is irreducible when its discriminant is not a
    square, one Legendre symbol.  Otherwise m is irreducible iff it has no
    factor of degree k <= r/2, iff gcd(m, x^(p^k) - x) = 1 for each such k,
    since x^(p^k) - x is the product of the monic irreducibles of degree
    dividing k; each Frobenius power x^(p^k) mod m is the p-th power of the
    last.  A constant is refused (DegreeMismatch).
    """
    r = len(m) - 1
    if r < 1:
        raise DegreeMismatch(f"irreducibility needs degree >= 1, got {list(m)}")
    if r == 2 and p > 2:
        return legendre(m[1] * m[1] - 4 * m[0], p) == -1
    frob = [0, 1]
    for _ in range(r // 2):
        frob = _pow_mod(frob, p, m, p)
        if len(pgcd(m, padd(frob, [0, -1], p), p)) > 1:
            return False
    return True


def pradical(h, q: int, p: int):
    """The monic gcd(h, x^q - x) for nonzero h in F_p[x] and q a power of p:
    the product of x - a over the distinct roots a of h in F_q, since
    x^q - x is the product of x - a over F_q."""
    radical = pgcd(h, padd(_pow_mod([0, 1], q, h, p), [0, -1], p), p)
    inv = pow(radical[-1], p - 2, p)
    return [c * inv % p for c in radical]


class FieldCtx:
    """A finite field F_{p^r} as residues modulo a monic irreducible.

    If no modulus is given and r > 1, the lexicographically smallest monic
    irreducible of degree r is chosen (smallest coefficient vector
    (c0, ..., c_{r-1}) of x^r + c_{r-1}x^{r-1} + ... + c0), which makes the
    default deterministic for fixed (p, r) without any polynomial tables.
    """

    __slots__ = ("p", "r", "modulus", "_key", "_dlog", "_gen_checked", "_sqrt")

    def __init__(self, p: int, r: int = 1, modulus=None):
        if not is_prime(p):
            raise CompositeP(f"{p} is not prime")
        if r < 1:
            raise DegreeMismatch(f"extension degree must be >= 1, got {r}")
        self.p = p
        self.r = r
        if r == 1:
            if modulus is not None:
                raise DegreeMismatch("prime field takes no modulus")
            self.modulus = None
        elif modulus is None:  # irreducible by construction
            self.modulus = tuple(self._default_modulus(p, r))
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise DegreeMismatch(
                    f"modulus must be monic of degree {r}, got {list(modulus)}")
            if not _is_irreducible(list(modulus), p):
                raise ReducibleModulus(f"{list(modulus)} is reducible over F_{p}")
            self.modulus = modulus
        self._key = (p, r, self.modulus)  # the modulus is fixed from here on
        self._dlog = None
        self._gen_checked = False
        self._sqrt = None

    @staticmethod
    def _default_modulus(p, r):
        # c0 varies slowest, so skipping c0 = 0 (the root 0) keeps the order
        for c0 in range(1, p):
            for mid in product(range(p), repeat=r - 1):
                cand = [c0, *mid, 1]
                if _is_irreducible(cand, p):
                    return cand
        raise ReducibleModulus(f"no irreducible of degree {r} over F_{p}")  # unreachable

    @property
    def order(self) -> int:
        return self.p ** self.r

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.r == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.r}(mod {self.modulus_str()})"

    def modulus_str(self) -> str:
        if self.modulus is None:
            return ""
        return _coeff_string(self.modulus, "a")

    # -- element construction ------------------------------------------------

    def elem(self, value) -> "FieldElem":
        """Element from an int (constant), a coefficient sequence, or a FieldElem."""
        if isinstance(value, FieldElem):
            if value.ctx != self:
                if value.ctx.r == 1 and value.ctx.p == self.p:
                    return self.lift(value.coeffs[0])
                raise FieldMismatch(f"cannot coerce {value!r} into {self!r}")
            return value
        if isinstance(value, int):
            return self.lift(value)
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.r:
            raise DegreeMismatch(f"coefficient vector longer than degree {self.r}")
        coeffs += [0] * (self.r - len(coeffs))
        return FieldElem(self, tuple(coeffs))

    def lift(self, c: int) -> "FieldElem":
        """The prime-subfield constant c, embedded."""
        return FieldElem(self, (c % self.p,) + (0,) * (self.r - 1))

    def zero(self) -> "FieldElem":
        return self.lift(0)

    def one(self) -> "FieldElem":
        return self.lift(1)

    def gen(self) -> "FieldElem":
        """The residue class of x (only meaningful for r > 1)."""
        if self.r == 1:
            raise DegreeMismatch("prime field has no extension generator")
        return FieldElem(self, (0, 1) + (0,) * (self.r - 2))

    def elements(self):
        """All p^r elements, in the deterministic index order n -> digits of n base p."""
        for n in range(self.order):
            yield self.element(n)

    def element(self, n: int) -> "FieldElem":
        """The element at position n of the elements() order."""
        coeffs = []
        for _ in range(self.r):
            coeffs.append(n % self.p)
            n //= self.p
        return FieldElem(self, tuple(coeffs))

    def element_index(self, x: "FieldElem") -> int:
        """Position of x in the elements() order."""
        n = 0
        for c in reversed(x.coeffs):
            n = n * self.p + c
        return n

    # -- internal coefficient arithmetic ------------------------------------

    def _mul(self, a, b):
        p = self.p
        if self.r == 1:
            return ((a[0] * b[0]) % p,)
        if self.r == 2:  # x^2 = -(m1 x + m0)
            top = a[1] * b[1]
            m = self.modulus
            return ((a[0] * b[0] - top * m[0]) % p, (a[0] * b[1] + a[1] * b[0] - top * m[1]) % p)
        prod = [0] * (2 * self.r - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        m = self.modulus
        # reduce x^k for k >= r using x^r = -(m_{r-1}x^{r-1} + ... + m_0)
        for k in range(2 * self.r - 2, self.r - 1, -1):
            c = prod[k] % p
            if c:
                for i in range(self.r):
                    prod[k - self.r + i] = (prod[k - self.r + i] - c * m[i]) % p
            prod[k] = 0
        return tuple(c % p for c in prod[:self.r])

    def _pow(self, a, e: int):
        """a^e for a coefficient tuple a and e >= 0."""
        return power(a, e, self._mul, self.one().coeffs)

    def sqrt(self, x: "FieldElem"):
        """A square root of x in this field, or None.  The returned root is
        the first one in element order, so results are reproducible.

        Tonelli-Shanks (Shanks, 1973) for odd p: with q - 1 = 2^s Q, Q odd,
        and z^Q cached per field for one non-residue z, a root costs
        O(log q + s^2) multiplications.  For p = 2 the root is x^(q/2)."""
        a = self.elem(x).coeffs
        if self.p == 2:
            return FieldElem(self, self._pow(a, self.order // 2))
        if not any(a):
            return self.zero()
        if self._sqrt is None:
            self._sqrt = self._sqrt_constants()
        one, mul = self.one().coeffs, self._mul
        m, odd, c = self._sqrt
        w = self._pow(a, odd // 2)
        root = mul(w, a)  # a^((Q+1)/2)
        t = mul(root, w)  # a^Q
        while t != one:
            i, t2 = 0, t  # the least i with t^(2^i) = 1
            while t2 != one:
                t2, i = mul(t2, t2), i + 1
            if i == m:  # first pass only: t = x^Q has the full order 2^s, so x is no square
                return None
            b = c
            for _ in range(m - i - 1):
                b = mul(b, b)
            m, c = i, mul(b, b)
            t, root = mul(t, c), mul(root, b)
        neg = tuple(-v % self.p for v in root)
        return FieldElem(self, min(root, neg, key=lambda v: v[::-1]))  # element order

    def _sqrt_constants(self):
        """(s, Q, z^Q) with q - 1 = 2^s Q for the first non-residue z in
        element order from index p when r is even (then all of F_p are
        squares), else from index 2."""
        s, odd = 0, self.order - 1
        while odd % 2 == 0:
            s, odd = s + 1, odd // 2
        one, half = self.one().coeffs, (self.order - 1) // 2
        n = self.p if self.r % 2 == 0 else 2
        while self._pow(self.element(n).coeffs, half) == one:
            n += 1
        return s, odd, self._pow(self.element(n).coeffs, odd)

    def _dlog_table(self):
        """Discrete logs base the generator x, or None if x does not generate."""
        if self._gen_checked:
            return self._dlog
        if self.r == 1:
            self._gen_checked = True
            return None
        if self.order > MAX_TABLE_ENTRIES:
            raise FieldTooLarge(f"{self!r} has {self.order} elements; discrete-log tables "
                                f"are capped at {MAX_TABLE_ENTRIES} entries")
        self._gen_checked = True
        q1 = self.order - 1
        g = self.gen()
        acc = self.one()
        table = {}
        for k in range(q1):
            if acc.coeffs in table:
                break
            table[acc.coeffs] = k
            acc = acc * g
        self._dlog = table if len(table) == q1 else None
        return self._dlog


def _coeff_string(coeffs, var: str) -> str:
    """Canonical serialized form c0+c1*a+...+c_{r-1}*a^{r-1} (all terms explicit)."""
    parts = []
    for i, c in enumerate(coeffs):
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*{var}")
        else:
            parts.append(f"{c}*{var}^{i}")
    return "+".join(parts)


class FieldElem:
    """An element of a :class:`FieldCtx`, in canonical coefficient form."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple):
        self.ctx = ctx
        self.coeffs = coeffs

    # -- helpers -------------------------------------------------------------

    def _pair(self, other):
        """Both operands over a common field: integers and prime-subfield
        elements are promoted; anything else is a mismatch."""
        if isinstance(other, int):
            return self, self.ctx.lift(other)
        if not isinstance(other, FieldElem):
            return None
        if other.ctx is self.ctx or other.ctx == self.ctx:
            return self, other
        if other.ctx.p != self.ctx.p:
            raise FieldMismatch("elements of different characteristics")
        if self.ctx.r == 1 and other.ctx.r > 1:
            return other.ctx.lift(self.coeffs[0]), other
        if other.ctx.r == 1 and self.ctx.r > 1:
            return self, self.ctx.lift(other.coeffs[0])
        raise FieldMismatch("elements of different extensions")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        p = a.ctx.p
        return FieldElem(a.ctx, tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        p = a.ctx.p
        return FieldElem(a.ctx, tuple((x - y) % p for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return b - a

    def __neg__(self):
        p = self.ctx.p
        return FieldElem(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return FieldElem(a.ctx, a.ctx._mul(a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise DivisionByZero("zero has no inverse")
        if self.ctx.r == 1:
            return FieldElem(self.ctx, (pow(self.coeffs[0], self.ctx.p - 2, self.ctx.p),))
        inv = pinvmod(self.coeffs, self.ctx.modulus, self.ctx.p)
        return FieldElem(self.ctx, tuple(inv) + (0,) * (self.ctx.r - len(inv)))

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return b * a.inverse()

    def __pow__(self, e: int) -> "FieldElem":
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElem(self.ctx, self.ctx._pow(self.coeffs, e))

    def frobenius(self) -> "FieldElem":
        """The p-power Frobenius x -> x^p."""
        return self ** self.ctx.p

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ctx.lift(other)
        return (isinstance(other, FieldElem)
                and (self.ctx is other.ctx or self.ctx == other.ctx)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.ctx.p, self.ctx.r, self.ctx.modulus))

    # -- display -------------------------------------------------------------

    def serialize(self) -> str:
        """The canonical coefficient form, e.g. "3+1*a" in F_25."""
        return _coeff_string(self.coeffs, "a")

    def gen_label(self):
        """Power-of-generator label "a^k" when x generates the unit group, else None."""
        table = self.ctx._dlog_table()
        if table is None or self.is_zero():
            return None
        return f"a^{table[self.coeffs]}"

    def __str__(self):
        if self.ctx.r == 1:
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                v = "a" if i == 1 else f"a^{i}"
                terms.append(v if c == 1 else f"{c}*{v}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return str(self)
