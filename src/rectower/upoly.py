"""Univariate polynomials and rational functions over a FieldCtx.

Polynomials are stored as coefficient tuples in ascending degree with the
leading coefficient nonzero (the zero polynomial has an empty tuple, degree
-1 by convention).  Rational functions are kept reduced with a monic
denominator, which pins the constant in proportionality tests.

Compositions and resultants run on ``ff``'s F_p[x] kernel: ``resultant``
wraps ``ff.presultant`` for forms given as field elements.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import TYPE_CHECKING, Optional

from .errors import (
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    ZeroFunction,
    ZeroPolynomial,
)
from .ff import MAX_TABLE_ENTRIES, FieldCtx, FieldElem, power, pradical, presultant, psubst

if TYPE_CHECKING:  # pragma: no cover
    from .p1 import RatMap


class Poly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        cs = [ctx.elem(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (1,))

    @classmethod
    def from_roots(cls, ctx, roots):
        """Monic product of (x - r) over the given roots (with multiplicity)."""
        out = cls.one(ctx)
        for r in roots:
            out = out * cls(ctx, (-ctx.elem(r), ctx.one()))
        return out

    # -- basic queries ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> FieldElem:
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> FieldElem:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ctx.zero()

    def _check(self, other: "Poly"):
        if self.ctx != other.ctx:
            raise FieldMismatch("polynomials over different fields")

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, [-c for c in self.coeffs])

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, FieldElem)):
            c = self.ctx.elem(other)
            return Poly(self.ctx, [a * c for a in self.coeffs])
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ctx)
        out = [self.ctx.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.ctx, out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly"):
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        q = [self.ctx.zero()] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        r = list(self.coeffs)
        inv_lead = other.leading().inverse()
        while len(r) >= len(other.coeffs):
            c = r[-1] * inv_lead
            shift = len(r) - len(other.coeffs)
            q[shift] = c
            for i, b in enumerate(other.coeffs):
                r[shift + i] = r[shift + i] - c * b
            while r and r[-1].is_zero():
                r.pop()
        return Poly(self.ctx, q), Poly(self.ctx, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Poly":
        return power(self, e, Poly.__mul__, Poly.one(self.ctx))

    def pow_mod(self, e: int, m: "Poly") -> "Poly":
        """self^e mod m; exponent may be huge."""
        return power(self % m, e, lambda a, b: (a * b) % m, Poly.one(self.ctx) % m)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = self.leading().inverse()
        return Poly(self.ctx, [c * inv for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor."""
        self._check(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "Poly":
        return Poly(self.ctx, [self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def eval(self, x) -> FieldElem:
        x = self.ctx.elem(x)
        acc = self.ctx.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def roots(self) -> list[FieldElem]:
        """All roots in the coefficient field, with multiplicity, in element
        order: degrees 1 and 2 (p odd) in closed form, higher degrees by one
        pass of ``FieldArrays.horner`` over the field, block by block, and
        each root's multiplicity by division.  Fields with more than
        MAX_TABLE_ENTRIES elements are refused before that pass.  F_p
        coefficients count their distinct roots first (``ff.pradical``): no
        pass without one, and the pass ends with the block of the last."""
        if self.is_zero():
            raise ZeroPolynomial("roots of the zero polynomial")
        if self.degree == 0:
            return []
        if self.degree == 1:
            return [-self.coeffs[0] / self.coeffs[1]]
        if self.degree == 2 and self.ctx.p != 2:
            a, b, c = self.coeffs[2], self.coeffs[1], self.coeffs[0]
            disc = b * b - 4 * a * c
            root = self.ctx.sqrt(disc)
            if root is None:
                return []
            inv2a = (2 * a).inverse()
            if root.is_zero():
                return [(-b) * inv2a] * 2
            return sorted(((-b + root) * inv2a, (-b - root) * inv2a),
                          key=self.ctx.element_index)
        q = self.ctx.order
        if q > MAX_TABLE_ENTRIES:
            raise FieldTooLarge(f"{self.ctx!r} has {q} elements; root passes are capped at "
                                f"{MAX_TABLE_ENTRIES}")
        # F_p coefficients as ints: the monic leading 1 scales x as a scalar
        coeffs = [c.coeffs if any(c.coeffs[1:]) else c.coeffs[0] for c in self.monic().coeffs]
        distinct = None  # unknown outside F_p
        if all(isinstance(c, int) for c in coeffs):
            distinct = len(pradical(coeffs, q, self.ctx.p)) - 1
            if not distinct:
                return []
        import numpy as np  # imported here for the RSS of `import rectower.cli` (ff._kronecker_mul)
        from .fieldarrays import BLOCK, FieldArrays
        field = FieldArrays(self.ctx)
        found, seen = [], 0
        for lo in range(0, q, BLOCK):
            x = field.digits(np.arange(lo, min(lo + BLOCK, q), dtype=np.int64))
            for n in np.flatnonzero(field.is_zero(field.horner(coeffs, x))).tolist():
                root = self.ctx.element(lo + n)
                found += [root] * self.multiplicity(root)
                seen += 1
            if seen == distinct or len(found) == self.degree:
                break
        return found

    def multiplicity(self, x) -> int:
        """The multiplicity of x as a root (0 when it is none): how many
        times the linear factor (X - x) divides self."""
        if self.is_zero():
            raise ZeroPolynomial("root multiplicity in the zero polynomial")
        lin = Poly(self.ctx, (-self.ctx.elem(x), self.ctx.one()))
        f, e = self, 0
        while True:
            f, r = divmod(f, lin)
            if not r.is_zero():
                return e
            e += 1

    # -- identity and display -----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Poly)
                and self.ctx == other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx.key(), self.coeffs))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c.is_zero():
                continue
            if self.ctx.r == 1:
                cs = str(c)
                lead = cs != "1" or i == 0
            else:
                cs = f"({c})"
                lead = True
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append(f"{cs}*x" if lead else "x")
            else:
                parts.append(f"{cs}*x^{i}" if lead else f"x^{i}")
        return "+".join(parts)

    def __repr__(self):
        return str(self)


def prime_field_ints(elems) -> Optional[list]:
    """The field elements as ints when all of them lie in F_p, else None."""
    elems = list(elems)
    if any(any(e.coeffs[1:]) for e in elems):
        return None
    return [e.coeffs[0] for e in elems]


def resultant(ctx: FieldCtx, n_form, d_form) -> FieldElem:
    """Sylvester resultant of two forms of the same formal degree, as an
    element of ctx: ``ff.presultant`` of their coefficient vectors, whose
    entries are ints or elements of F_p."""
    forms = [prime_field_ints(ctx.elem(c) for c in form) for form in (n_form, d_form)]
    if None in forms:
        raise FieldMismatch("resultant coefficients must lie in F_p")
    return ctx.lift(presultant(*forms, ctx.p))


class RatFun:
    """A reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        num._check(den)
        g = num.gcd(den)
        if g.degree > 0:
            num = num // g
            den = den // g
        inv = den.leading().inverse()
        self.num = num * inv
        self.den = den * inv

    @classmethod
    def constant(cls, ctx, c) -> "RatFun":
        return cls(Poly(ctx, (c,)), Poly.one(ctx))

    @property
    def ctx(self):
        return self.num.ctx

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __mul__(self, other: "RatFun") -> "RatFun":
        return RatFun(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFun") -> "RatFun":
        if other.is_zero():
            raise DivisionByZero("division by the zero function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __pow__(self, e: int) -> "RatFun":
        if e < 0:
            return RatFun(self.den, self.num) ** (-e)
        return RatFun(self.num ** e, self.den ** e)

    def __eq__(self, other):
        return (isinstance(other, RatFun)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return str(self)


def ratfun_proportional(phi: RatFun, psi: RatFun) -> Optional[FieldElem]:
    """The constant c with phi = c*psi, or None if the functions differ by
    more than a constant.  Tested by exact cross-multiplied polynomial
    proportionality, so no denominator ever needs to be invertible."""
    if phi.is_zero() or psi.is_zero():
        raise ZeroFunction("proportionality of the zero function")
    a = phi.num * psi.den
    b = psi.num * phi.den
    if a.degree != b.degree:
        return None
    c = a.leading() / b.leading()
    return c if a == b * c else None


def compose_rational(phi: RatFun, m: "RatMap") -> RatFun:
    """The composite phi(m(x)) as a reduced rational function.

    m is a rational self-map of the line given by integer-coefficient
    numerator/denominator over the same prime field; denominators are
    cleared with a common power so the result is exact.
    """
    ctx = phi.ctx
    if m.p != ctx.p:
        raise FieldMismatch("map and function over different characteristics")
    top = max(phi.num.degree, phi.den.degree)

    def substituted(f: Poly) -> Poly:
        # f(n/d) cleared by d^top: psubst is linear in f, so it runs once
        # per F_p coordinate of f's coefficients
        parts = (psubst([c.coeffs[j] for c in f.coeffs] + [0] * (top + 1 - len(f.coeffs)),
                        m.num_coeffs, m.den_coeffs, m.p) for j in range(ctx.r))
        return Poly(ctx, zip_longest(*parts, fillvalue=0))

    return RatFun(substituted(phi.num), substituted(phi.den))
