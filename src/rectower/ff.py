"""Exact arithmetic in prime fields F_p and extensions F_{p^r}.

A :class:`FieldCtx` fixes the characteristic p, the extension degree r and,
for r > 1, a monic irreducible modulus of degree r over F_p.  Elements are
residue classes stored as fully reduced coefficient vectors
(c0, ..., c_{r-1}) with every entry in [0, p), so equality of elements is
equality of canonical vectors and elements hash safely.

Everything here is immutable after construction and all operations are
pure; contexts and elements can be shared freely between callers.

The module also holds the package's dense polynomial arithmetic over F_p on
ascending int coefficient lists (``ptrim``, ``padd``, ``pmul``, ``pmod``,
``pgcd``, ``pinvmod``, ``psubst``, ``pproportional``).
"""

from __future__ import annotations

from itertools import product, zip_longest

from .errors import (
    CompositeP,
    DegreeMismatch,
    DivisionByZero,
    EvenOrCompositeP,
    FieldMismatch,
    FieldTooLarge,
    ReducibleModulus,
)


MAX_TABLE_ENTRIES = 2 ** 22  # tables over the whole field (graph, sqrt, dlog) are capped


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


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {+1, 0, -1}, computed as a^((p-1)/2) mod p."""
    if p == 2 or not is_prime(p):
        raise EvenOrCompositeP(f"{p} is not an odd prime")
    v = pow(a % p, (p - 1) // 2, p)
    return -1 if v == p - 1 else v


# ---------------------------------------------------------------------------
# dense polynomials over F_p: ascending int coefficient lists, reduced mod p
# and with trailing zeros stripped on output.  They validate moduli here,
# before any FieldCtx exists; p1 uses them for map forms and parsing, series
# for the cleared functional equations.

def ptrim(f, p):
    """f reduced mod p, as a new list without trailing zeros."""
    out = [c % p for c in f]
    while out and out[-1] == 0:
        out.pop()
    return out


def padd(f, g, p):
    return ptrim([a + b for a, b in zip_longest(f, g, fillvalue=0)], p)


def pmul(f, g, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    g_terms = [(j, b) for j, b in enumerate(g) if b]
    for i, a in enumerate(f):
        if a:
            for j, b in g_terms:
                out[i + j] += a * b
    return ptrim(out, p)


def pmod(f, m, p):
    """Remainder of f on division by m, whose leading coefficient is a unit."""
    f = list(f)
    inv_lead = pow(m[-1], p - 2, p)
    for top in range(len(f) - 1, len(m) - 2, -1):
        c = f[top] * inv_lead % p
        if c:
            shift = top - len(m) + 1
            for i, a in enumerate(m):
                f[shift + i] -= c * a
    return ptrim(f[:len(m) - 1], p)


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
    a form h of degree n and linear forms A, B it is the form h(A, B)."""
    n = len(h) - 1
    b_pows = [[1]]
    for _ in range(n):
        b_pows.append(pmul(b_pows[-1], b, p))
    out = []
    for k in range(n, -1, -1):
        out = padd(pmul(out, a, p), [h[k] * c for c in b_pows[n - k]], p)
    return out


def pproportional(a, b, p):
    """The constant c with a = c*b mod p, or None (also when either is zero)."""
    a, b = ptrim(a, p), ptrim(b, p)
    if not a or not b or len(a) != len(b):
        return None
    c = (a[-1] * pow(b[-1], p - 2, p)) % p
    if all((x - c * y) % p == 0 for x, y in zip(a, b)):
        return c
    return None


def _pow_mod(f, e: int, m, p):
    """f^e reduced mod m for e >= 1, by left-to-right square-and-multiply."""
    out = pmod(f, m, p)
    for bit in bin(e)[3:]:
        out = pmod(pmul(out, out, p), m, p)
        if bit == "1":
            out = pmod(pmul(out, f, p), m, p)
    return out


def _has_root(m, p: int) -> bool:
    """Whether the polynomial m (ascending coefficients) vanishes somewhere on F_p."""
    return any(sum(c * pow(x, i, p) for i, c in enumerate(m)) % p == 0 for x in range(p))


def _is_irreducible(m, p: int) -> bool:
    """Irreducibility of a monic polynomial m over F_p.

    Degree <= 3 reduces to having no root; otherwise the standard test:
    x^(p^r) = x mod m and gcd(x^(p^(r/l)) - x, m) = 1 for every prime l | r.
    """
    r = len(m) - 1
    if r <= 3:
        return not _has_root(m, p)
    frob = [[0, 1]]  # frob[k] = x^(p^k) mod m
    for _ in range(r):
        frob.append(_pow_mod(frob[-1], p, m, p))
    minus_x = [0, -1]
    if padd(frob[r], minus_x, p):
        return False
    l = 2
    rr = r
    while rr > 1:
        while rr % l:
            l += 1
        if len(pgcd(m, padd(frob[r // l], minus_x, p), p)) > 1:
            return False
        while rr % l == 0:
            rr //= l
    return True


class FieldCtx:
    """A finite field F_{p^r} as residues modulo a monic irreducible.

    If no modulus is given and r > 1, the lexicographically smallest monic
    irreducible of degree r is chosen (smallest coefficient vector
    (c0, ..., c_{r-1}) of x^r + c_{r-1}x^{r-1} + ... + c0), which makes the
    default deterministic for fixed (p, r) without any polynomial tables.
    """

    __slots__ = ("p", "r", "modulus", "_dlog", "_gen_checked", "_sqrt")

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
        else:
            if modulus is None:
                modulus = self._default_modulus(p, r)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise DegreeMismatch(
                    f"modulus must be monic of degree {r}, got {list(modulus)}")
            if not _is_irreducible(list(modulus), p):
                raise ReducibleModulus(f"{list(modulus)} is reducible over F_{p}")
            self.modulus = modulus
        self._dlog = None
        self._gen_checked = False
        self._sqrt = None

    @staticmethod
    def _default_modulus(p, r):
        # c0 varies slowest, so skipping c0 = 0 keeps the order; a root in F_p
        # is a linear factor, found far more cheaply than by the Rabin test
        for c0 in range(1, p):
            for mid in product(range(p), repeat=r - 1):
                cand = [c0, *mid, 1]
                if not _has_root(cand, p) and _is_irreducible(cand, p):
                    return cand
        raise ReducibleModulus(f"no irreducible of degree {r} over F_{p}")  # unreachable

    @property
    def order(self) -> int:
        return self.p ** self.r

    def key(self):
        return (self.p, self.r, self.modulus)

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

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
            if value.ctx.key() != self.key():
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

    def sqrt(self, x: "FieldElem"):
        """A square root of x in this field, or None.  The returned root is
        the first one in element order, so results are reproducible.
        Table-based: building the table costs one pass over the field."""
        if self._sqrt is None:
            self._check_table_size("square-root")
            table = {}
            for e in self.elements():
                sq = (e * e).coeffs
                if sq not in table:
                    table[sq] = e
            self._sqrt = table
        return self._sqrt.get(self.elem(x).coeffs)

    def _check_table_size(self, what):
        if self.order > MAX_TABLE_ENTRIES:
            raise FieldTooLarge(f"{self!r} has {self.order} elements; {what} tables "
                                f"are capped at {MAX_TABLE_ENTRIES} entries")

    def _dlog_table(self):
        """Discrete logs base the generator x, or None if x does not generate."""
        if self._gen_checked:
            return self._dlog
        if self.r == 1:
            self._gen_checked = True
            return None
        self._check_table_size("discrete-log")
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
        if other.ctx is self.ctx or other.ctx.key() == self.ctx.key():
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
        acc = self.ctx.one()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def frobenius(self) -> "FieldElem":
        """The p-power Frobenius x -> x^p."""
        return self ** self.ctx.p

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ctx.lift(other)
        return (isinstance(other, FieldElem)
                and (self.ctx is other.ctx or self.ctx.key() == other.ctx.key())
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
