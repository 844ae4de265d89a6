"""Points of the projective line, rational self-maps, fibers and ramification.

A rational map of degree d is stored as a pair (N, D) of homogeneous forms
of the *same formal degree* d, as integer coefficient vectors over the
prime field (entry i is the coefficient of X^i Y^{d-i}).  The single
invariant ``presultant(N, D, p) != 0`` guarantees at once that the map has
degree exactly d and that it is defined everywhere, covering both ways a
written fraction can degenerate (proportional rows and common roots).

Points carry their field context; maps carry only the characteristic, so
one map can be evaluated over every extension of its prime field.  A fiber
is rational over the working field or reports the mass it misses there:
``fiber_counts`` for one target, ``map_preimage`` for a set of targets.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Optional

from .errors import (
    BadPrime,
    CompositeP,
    DegreeMismatch,
    DegreeZero,
    FieldMismatch,
    InsufficientField,
    MapSyntaxError,
)
from .ff import FieldCtx, FieldElem, is_prime, padd, pmul, ppow, presultant, psubst, ptrim
from .upoly import Poly


class ProjPoint:
    """A point of P^1 over a field context: affine (x : 1) or infinity (1 : 0)."""

    __slots__ = ("ctx", "x")

    def __init__(self, ctx: FieldCtx, x: Optional[FieldElem]):
        self.ctx = ctx
        self.x = x

    @classmethod
    def affine(cls, x: FieldElem) -> "ProjPoint":
        return cls(x.ctx, x)

    @classmethod
    def infinity(cls, ctx: FieldCtx) -> "ProjPoint":
        return cls(ctx, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def sort_key(self):
        """Affine points in field element order, infinity last."""
        if self.is_infinity:
            return (1, 0)
        return (0, self.ctx.element_index(self.x))

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if self.ctx.key() != other.ctx.key():
            return False
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x

    def __hash__(self):
        if self.is_infinity:
            return hash((self.ctx.key(), "inf"))
        return hash((self.ctx.key(), self.x.coeffs))

    def __str__(self):
        return "inf" if self.is_infinity else str(self.x)

    def __repr__(self):
        return str(self)

    def label(self) -> str:
        """Generator-power label where available, else the plain form."""
        if self.is_infinity:
            return "inf"
        lbl = self.x.gen_label()
        return lbl if lbl is not None else str(self.x)


class RatMap:
    """A degree-d rational self-map of P^1 over F_p.

    Each fiber the map is asked for is kept, keyed by its target (which
    carries the working field), for as long as the map lives (see
    ``fiber_counts``)."""

    __slots__ = ("p", "d", "N", "D", "_fibers")

    def __init__(self, p: int, n_form, d_form):
        if len(n_form) != len(d_form) or len(n_form) < 2:
            raise DegreeMismatch("forms must share a formal degree >= 1")
        self.p = p
        self.d = len(n_form) - 1
        self.N = tuple(c % p for c in n_form)
        self.D = tuple(c % p for c in d_form)
        self._fibers = {}
        if not is_prime(p):
            raise CompositeP(f"{p} is not prime")
        if not presultant(self.N, self.D, p):
            ctx = FieldCtx(p)
            raise DegreeZero(
                f"({Poly(ctx, self.N)}):({Poly(ctx, self.D)}) does not "
                f"define a degree-{self.d} map (vanishing resultant)")

    @classmethod
    def from_affine(cls, p: int, num, den) -> "RatMap":
        """Map from affine numerator/denominator integer coefficients."""
        num, den = ptrim(num, p), ptrim(den, p)
        d = max(len(num), len(den)) - 1
        if d < 1:
            raise DegreeZero("constant fraction does not define a map")
        return cls(p, num + [0] * (d + 1 - len(num)), den + [0] * (d + 1 - len(den)))

    # -- affine views -----------------------------------------------------------

    @property
    def num_coeffs(self):
        return tuple(ptrim(self.N, self.p))

    @property
    def den_coeffs(self):
        return tuple(ptrim(self.D, self.p))

    def wronskian_coeffs(self):
        """num'*den - num*den' as integer coefficients mod p.

        Its affine roots are exactly the affine ramification points (tame
        case, which holds throughout since d < p here).
        """
        p = self.p
        num, den = self.num_coeffs, self.den_coeffs
        dnum = [i * c for i, c in enumerate(num)][1:]
        minus_dden = [-i * c for i, c in enumerate(den)][1:]
        return tuple(padd(pmul(dnum, den, p), pmul(num, minus_dden, p), p))

    # -- evaluation ---------------------------------------------------------------

    def eval(self, point: ProjPoint) -> ProjPoint:
        """Evaluate at a point over any extension of F_p.  Total by the
        resultant invariant: (N(P), D(P)) never both vanish."""
        ctx = point.ctx
        if ctx.p != self.p:
            raise FieldMismatch("point has the wrong characteristic")
        if point.is_infinity:
            n_val = ctx.lift(self.N[-1])
            d_val = ctx.lift(self.D[-1])
        else:
            x = point.x
            n_val = ctx.zero()
            for c in reversed(self.N):
                n_val = n_val * x + c
            d_val = ctx.zero()
            for c in reversed(self.D):
                d_val = d_val * x + c
        if d_val.is_zero():
            return ProjPoint.infinity(ctx)
        return ProjPoint.affine(n_val / d_val)

    __call__ = eval

    # -- identity and display -------------------------------------------------------

    def _canonical(self):
        joined = self.N + self.D
        lead = next(c for c in joined if c)
        inv = pow(lead, self.p - 2, self.p)
        return tuple((c * inv) % self.p for c in joined)

    def __eq__(self, other):
        return (isinstance(other, RatMap)
                and self.p == other.p and self.d == other.d
                and self._canonical() == other._canonical())

    def __hash__(self):
        return hash((self.p, self.d, self._canonical()))

    def __str__(self):
        ctx = FieldCtx(self.p)
        num, den = str(Poly(ctx, self.num_coeffs)), str(Poly(ctx, self.den_coeffs))
        if den == "1":
            return num
        return f"({num})/({den})"

    def __repr__(self):
        return str(self)


class Mobius(RatMap):
    """An invertible degree-1 map (an automorphism of the line)."""

    def __init__(self, p, n_form, d_form):
        super().__init__(p, n_form, d_form)
        if self.d != 1:
            raise DegreeMismatch("a Moebius map has degree 1")

    @classmethod
    def parse(cls, expr: str, ctx_or_p) -> "Mobius":
        m = map_parse(expr, ctx_or_p)
        return cls(m.p, m.N, m.D)

    @classmethod
    def identity(cls, p: int) -> "Mobius":
        return cls(p, (0, 1), (1, 0))

    def inverse(self) -> "Mobius":
        b, a = self.N
        d, c = self.D
        return Mobius(self.p, (-b, d), (a, -c))


# ---------------------------------------------------------------------------
# expression parsing

_GRAMMAR_VARS = ("x", "y")


def _tokenize(expr: str):
    tokens = []
    i = 0
    while i < len(expr):
        ch = expr[i]
        if ch.isspace():
            i += 1
        elif ch in "0123456789":  # not str.isdigit, which takes "²" where int() fails
            j = i
            while j < len(expr) and expr[j] in "0123456789":
                j += 1
            tokens.append(("int", int(expr[i:j])))
            i = j
        elif ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
        elif ch.isalpha():
            tokens.append(("var", ch))
            i += 1
        else:
            raise MapSyntaxError(f"unexpected character {ch!r} in {expr!r}")
    tokens.append(("end", None))
    return tokens


class _RatParser:
    """Recursive-descent parser for integer-coefficient rational expressions.

    Works on (num, den) pairs of ascending coefficient lists mod p, so
    fractional constants like 1/9 and products like (x-1)*(x+1) come out
    exactly.  One variable per expression, from {x, y}.
    """

    def __init__(self, expr: str, p: int):
        self.tokens = _tokenize(expr)
        self.pos = 0
        self.p = p
        self.var_seen = None
        self.expr = expr

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise MapSyntaxError(f"expected {kind} at token {self.pos} in {self.expr!r}")
        self.pos += 1
        return tok

    # -- (num, den) arithmetic over F_p ----------------------------------------

    def _add(self, u, v):
        an, ad = u
        bn, bd = v
        return (padd(pmul(an, bd, self.p), pmul(bn, ad, self.p), self.p),
                pmul(ad, bd, self.p))

    def _neg(self, u):
        return ([(-c) % self.p for c in u[0]], u[1])

    def parse(self):
        value = self.expr_rule()
        self.take("end")
        num, den = value
        if not den:
            raise MapSyntaxError(f"zero denominator in {self.expr!r}")
        return num, den

    def expr_rule(self):
        value = self.term_rule()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.term_rule()
            value = self._add(value, rhs if op == "+" else self._neg(rhs))
        return value

    def term_rule(self):
        value = self.unary_rule()
        while self.peek()[0] in "*/":
            op = self.take()[0]
            rhs = self.unary_rule()
            if op == "*":
                value = (pmul(value[0], rhs[0], self.p), pmul(value[1], rhs[1], self.p))
            else:
                if not rhs[0]:
                    raise MapSyntaxError(f"division by zero in {self.expr!r}")
                value = (pmul(value[0], rhs[1], self.p), pmul(value[1], rhs[0], self.p))
        return value

    def unary_rule(self):
        if self.peek()[0] == "-":
            self.take()
            return self._neg(self.unary_rule())
        if self.peek()[0] == "+":
            self.take()
            return self.unary_rule()
        return self.power_rule()

    def power_rule(self):
        base = self.atom_rule()
        if self.peek()[0] == "^":
            self.take()
            e = self.take("int")[1]
            num, den = ppow(base[0], e, self.p), ppow(base[1], e, self.p)
            if not den:
                raise MapSyntaxError(f"zero denominator in {self.expr!r}")
            return (num, den)
        return base

    def atom_rule(self):
        kind, val = self.peek()
        if kind == "int":
            self.take()
            # implicit product: 3x, 3x^2
            if self.peek()[0] == "var":
                var = self.var_atom()
                return (pmul([val % self.p], var[0], self.p), [1])
            return ([val % self.p], [1])
        if kind == "var":
            return self.var_atom()
        if kind == "(":
            self.take()
            inner = self.expr_rule()
            self.take(")")
            return inner
        raise MapSyntaxError(f"unexpected token in {self.expr!r}")

    def var_atom(self):
        _, name = self.take("var")
        if name not in _GRAMMAR_VARS:
            raise MapSyntaxError(f"unknown variable {name!r} (use one of x, y)")
        if self.var_seen is None:
            self.var_seen = name
        elif self.var_seen != name:
            raise MapSyntaxError("expressions are univariate: mixed variables")
        coeffs = [0, 1]
        if self.peek()[0] == "^":
            self.take()
            e = self.take("int")[1]
            coeffs = [0] * e + [1]
        return (coeffs, [1])


def _ctx_p(ctx_or_p) -> int:
    return ctx_or_p.p if isinstance(ctx_or_p, FieldCtx) else int(ctx_or_p)


def map_parse(expr: str, ctx_or_p) -> RatMap:
    """Parse a map expression such as "(x^2+x)/(3*x-1)" or "y^2"."""
    num, den = _RatParser(expr, _ctx_p(ctx_or_p)).parse()
    return RatMap.from_affine(_ctx_p(ctx_or_p), num, den)


def ratfun_parse(expr: str, ctx: FieldCtx):
    """Parse an expression into a reduced RatFun over the given context."""
    from .upoly import RatFun
    num, den = _RatParser(expr, ctx.p).parse()
    return RatFun(Poly(ctx, num), Poly(ctx, den))


def point_parse(expr: str, ctx: FieldCtx) -> ProjPoint:
    """Parse a point literal: an integer, a fraction like "1/9", "inf",
    or "i" for a square root of -1 (smallest in element order)."""
    s = expr.strip()
    if s in ("inf", "oo", "infinity"):
        return ProjPoint.infinity(ctx)
    if s in ("i", "-i", "+i"):
        root = ctx.sqrt(-1)
        if root is None:
            raise InsufficientField(f"no square root of -1 in {ctx!r}")
        return ProjPoint.affine(-root if s == "-i" else root)
    num, den = _RatParser(s, ctx.p).parse()
    if len(num) > 1 or len(den) > 1:
        raise MapSyntaxError(f"{expr!r} is not a point literal")
    n = ctx.lift(num[0] if num else 0)
    d = ctx.lift(den[0])
    return ProjPoint.affine(n / d)


# ---------------------------------------------------------------------------
# fibers and ramification

def require_tame(m: RatMap, what: str):
    """Raise BadPrime unless p > d, so that no ramification index is divisible by p."""
    if m.p <= m.d:
        raise BadPrime(f"{what} of a degree-{m.d} map needs p > {m.d}, got {m.p}")


def _fiber_form(m: RatMap, t: ProjPoint, ctx: FieldCtx) -> Poly:
    """The fiber form N - t*D of m over t, affinely (D for t = inf): its
    roots are the affine points of m^{-1}(t), and the gap between m.d and
    its degree is the multiplicity of infinity there."""
    den = Poly(ctx, m.den_coeffs)
    return den if t.is_infinity else Poly(ctx, m.num_coeffs) - den * t.x


def fiber_counts(m: RatMap, t: ProjPoint, ctx: FieldCtx):
    """Rational part of the fiber m^{-1}(t) over ctx.

    Returns (counts, missing) where counts maps points to multiplicities in
    the degree-d fiber form t1*N - t0*D and missing is the multiplicity not
    rational over ctx.  Each fiber is found once per map: later calls return
    the same read-only counts.
    """
    if ctx.p != m.p or t.ctx.key() != ctx.key():
        raise FieldMismatch("fiber target must live over the working field")
    if t not in m._fibers:  # t lives over ctx, and points of other fields differ from it
        counts, missing = _find_fiber(m, t, ctx)
        m._fibers[t] = MappingProxyType(counts), missing
    return m._fibers[t]


def _find_fiber(m: RatMap, t: ProjPoint, ctx: FieldCtx):
    """The work behind ``fiber_counts``: the roots of the fiber form."""
    f = _fiber_form(m, t, ctx)
    counts = {}
    if f.degree < m.d:
        counts[ProjPoint.infinity(ctx)] = m.d - f.degree
    roots = f.roots()
    for root in roots:
        pt = ProjPoint.affine(root)
        counts[pt] = counts.get(pt, 0) + 1
    return counts, f.degree - len(roots)


def map_preimage(m: RatMap, targets, ctx: FieldCtx):
    """The rational points of m^{-1}(targets); second value is the fiber
    mass missing from ctx (0 means the preimage is complete)."""
    out = set()
    missing = 0
    for t in targets:
        counts, miss = fiber_counts(m, t, ctx)
        out.update(counts)
        missing += miss
    return out, missing


def fiber(m: RatMap, t: ProjPoint, ctx: FieldCtx):
    """The full fiber divisor m*[t]; raises InsufficientField when part of
    the fiber is not rational over ctx (never drops mass silently)."""
    from .divisor import Divisor
    counts, missing = fiber_counts(m, t, ctx)
    if missing:
        raise InsufficientField(
            f"fiber of {t} under {m} has multiplicity {missing} outside {ctx!r}",
            missing=missing)
    return Divisor(ctx, counts)


def point_multiplicity_in_fiber(m: RatMap, point: ProjPoint) -> int:
    """Ramification index e_m(point): multiplicity of the point inside the
    fiber over its own image."""
    f = _fiber_form(m, m.eval(point), point.ctx)
    return m.d - f.degree if point.is_infinity else f.multiplicity(point.x)


def ramification(m: RatMap, ctx: FieldCtx, strict: bool = True):
    """All points with ramification index e >= 2, as {point: e}.

    Affine candidates are the roots of the Wronskian num'*den - num*den';
    if that polynomial does not split over ctx, some ramification point is
    missing and InsufficientField is raised (with strict=False the rational
    part is returned instead, which is enough to test disjointness from a
    set of rational points).  Needs p > d, so that no index is divisible by p.
    """
    require_tame(m, "ramification")
    w = Poly(ctx, m.wronskian_coeffs())
    out = {}
    if not w.is_zero() and w.degree >= 1:
        roots = w.roots()
        if strict and len(roots) < w.degree:
            raise InsufficientField(
                f"ramification locus of {m} is not rational over {ctx!r}",
                missing=w.degree - len(roots))
        for x in set(roots):
            pt = ProjPoint.affine(x)
            e = point_multiplicity_in_fiber(m, pt)
            if e >= 2:
                out[pt] = e
    inf = ProjPoint.infinity(ctx)
    e = point_multiplicity_in_fiber(m, inf)
    if e >= 2:
        out[inf] = e
    return out


# ---------------------------------------------------------------------------
# Moebius conjugation

def mobius_conjugate(m: RatMap, sigma: Mobius, tau: Mobius) -> RatMap:
    """The composite sigma o m o tau, reduced to canonical degree-d forms."""
    p = m.p
    if sigma.p != p or tau.p != p:
        raise FieldMismatch("conjugating maps over a different characteristic")
    # a form F(X, Y) composed with the map (A : B) is the form F(A, B)
    inner = [psubst(form, tau.N, tau.D, p) for form in (m.N, m.D)]
    outer = [psubst(form, *inner, p) for form in (sigma.N, sigma.D)]
    # the conjugate has degree d, so padding the forms back to length d + 1
    # keeps the formal degree
    return RatMap.from_affine(p, *outer)
