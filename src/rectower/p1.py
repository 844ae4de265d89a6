"""Points of the projective line, rational self-maps, fibers and ramification.

A rational map of degree d is stored as a pair (N, D) of homogeneous forms
of the *same formal degree* d, as integer coefficient vectors over the
prime field (entry i is the coefficient of X^i Y^{d-i}).  The single
invariant ``presultant(N, D, p) != 0`` guarantees at once that the map has
degree exactly d and that it is defined everywhere, covering both ways a
written fraction can degenerate (proportional rows and common roots).

Points carry their field context; maps carry only the characteristic, so
one map can be evaluated over every extension of its prime field.  A fiber
is rational over its target's field or reports the mass it misses there:
``fiber_counts`` for one target, ``map_preimage`` for a set of targets.
``field_of`` gives a point set its one field, for ``divisor`` and ``feq`` too.

Maps, functions and points are written in one grammar (``parse_fraction``):
integer literals, one variable (x or y), + - * /, signs, brackets,
^k with k an integer literal, and an implicit coefficient, where 3x^2 is
one factor (2x/7x^2 is 2x/(7x^2)).  Nothing else is read: not **, not a
power of a power such as x^2^3, not 2^-1 or 3(x), and not Python's other
literals (0x10, 1_0, 1.5, 1e3).  Leading zeros are read as int() reads
them, and x^(2) is x^2.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
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
from .upoly import Poly, RatFun


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
        if self.ctx != other.ctx:
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


def field_of(points) -> FieldCtx:
    """The one field that all the points lie over."""
    fields = {q.ctx for q in points}
    if not fields:
        raise ValueError("an empty point set has no field")
    if len(fields) > 1:
        raise ValueError("all points must live over one field")
    return fields.pop()


class RatMap:
    """A degree-d rational self-map of P^1 over F_p.

    Each fiber the map is asked for is kept, keyed by its target (which
    carries its field), for as long as the map lives (see
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

        Its affine roots are exactly the affine ramification points, and its
        degree gives the index at infinity (tame case: d < p; see
        ``ramification``).
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
# expression parsing (the grammar is in the module docstring)

_CHARS = frozenset("0123456789xy+-*/^() ")
_IMPLICIT = re.compile(r"(\d+) ?([xy](?: ?\^ ?\d+)?)")  # 3x^2 -> (3*x^2)
_LEADING_ZEROS = re.compile(r"\b0+(?=\d)")  # 07 -> 7
_FIELD_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)


def parse_fraction(expr: str, p: int):
    """(num, den) of an expression as ascending coefficient lists mod p, read
    by Python's ``ast`` with ^ as **.  Fractions combine as a/b + c/d =
    (ad + cb)/bd with nothing cancelled: a map prints the forms written."""
    text = " ".join(expr.split())
    if not _CHARS.issuperset(text) or "**" in text:
        raise MapSyntaxError(f"{expr!r} has a character outside the grammar")
    if "x" in text and "y" in text:
        raise MapSyntaxError(f"expressions are univariate: {expr!r} mixes x and y")
    if "x" in text or "y" in text:
        text = _IMPLICIT.sub(r"(\1*\2)", text)
    text = _LEADING_ZEROS.sub("", text).replace("^", "**")

    def walk(node):
        kind, op = type(node), type(getattr(node, "op", None))
        if kind is ast.Constant and type(node.value) is int:
            return [node.value % p], [1]
        if kind is ast.Name and node.id in ("x", "y"):
            return [0, 1], [1]
        if kind is ast.UnaryOp and op in (ast.UAdd, ast.USub):
            num, den = walk(node.operand)
            return (num if op is ast.UAdd else [-c % p for c in num]), den
        if op is ast.Pow and type(node.right) is ast.Constant and type(node.right.value) is int:
            e = node.right.value
            if type(node.left) is ast.Name and node.left.id in ("x", "y"):  # x^e, no products
                return [0] * e + [1], [1]
            num, den = walk(node.left)
            return ppow(num, e, p), ppow(den, e, p)
        if kind is ast.BinOp and op in _FIELD_OPS:
            (an, ad), (bn, bd) = walk(node.left), walk(node.right)
            if op is ast.Mult:
                return pmul(an, bn, p), pmul(ad, bd, p)
            if op is ast.Div:
                if not any(bn):
                    raise MapSyntaxError(f"division by zero in {expr!r}")
                return pmul(an, bd, p), pmul(ad, bn, p)
            if op is ast.Sub:
                bn = [-c % p for c in bn]
            return padd(pmul(an, bd, p), pmul(bn, ad, p), p), pmul(ad, bd, p)
        raise MapSyntaxError(f"{expr!r} is outside the grammar")

    try:
        return walk(ast.parse(text, mode="eval").body)
    except (SyntaxError, RecursionError):
        raise MapSyntaxError(f"cannot parse {expr!r}") from None


def map_parse(expr: str, ctx_or_p) -> RatMap:
    """Parse a map expression such as "(x^2+x)/(3*x-1)" or "y^2"."""
    p = ctx_or_p.p if isinstance(ctx_or_p, FieldCtx) else int(ctx_or_p)
    return RatMap.from_affine(p, *parse_fraction(expr, p))


def ratfun_parse(expr: str, ctx: FieldCtx):
    """Parse an expression into a reduced RatFun over the given context."""
    num, den = parse_fraction(expr, ctx.p)
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
    if "x" in s or "y" in s:
        raise MapSyntaxError(f"{expr!r} is not a point literal")
    num, den = parse_fraction(s, ctx.p)
    n = ctx.lift(num[0] if num else 0)
    d = ctx.lift(den[0])
    return ProjPoint.affine(n / d)


# ---------------------------------------------------------------------------
# fibers and ramification

def require_tame(m: RatMap, what: str):
    """Raise BadPrime unless p > d, so that no ramification index is divisible by p."""
    if m.p <= m.d:
        raise BadPrime(f"{what} of a degree-{m.d} map needs p > {m.d}, got {m.p}")


def _fiber_form(m: RatMap, t: ProjPoint) -> Poly:
    """The fiber form N - t*D of m over t, affinely (D for t = inf), over
    t's field: its roots are the affine points of m^{-1}(t), and the gap
    between m.d and its degree is the multiplicity of infinity there."""
    den = Poly(t.ctx, m.den_coeffs)
    return den if t.is_infinity else Poly(t.ctx, m.num_coeffs) - den * t.x


def fiber_counts(m: RatMap, t: ProjPoint):
    """Rational part of the fiber m^{-1}(t) over t's field.

    Returns (counts, missing) where counts maps points to multiplicities in
    the degree-d fiber form t1*N - t0*D and missing is the multiplicity not
    rational over t's field.  Each fiber is found once per map: later calls
    return the same read-only counts.
    """
    if t.ctx.p != m.p:
        raise FieldMismatch("fiber target has the wrong characteristic")
    if t not in m._fibers:  # points of other fields differ from t
        counts, missing = _find_fiber(m, t)
        m._fibers[t] = MappingProxyType(counts), missing
    return m._fibers[t]


def _find_fiber(m: RatMap, t: ProjPoint):
    """The work behind ``fiber_counts``: the roots of the fiber form."""
    f = _fiber_form(m, t)
    counts = {}
    if f.degree < m.d:
        counts[ProjPoint.infinity(t.ctx)] = m.d - f.degree
    roots = f.roots()
    for root in roots:
        pt = ProjPoint.affine(root)
        counts[pt] = counts.get(pt, 0) + 1
    return counts, f.degree - len(roots)


def map_preimage(m: RatMap, targets):
    """The rational points of m^{-1}(targets); second value is the fiber
    mass missing from the targets' field (0: the preimage is complete)."""
    out = set()
    missing = 0
    for t in targets:
        counts, miss = fiber_counts(m, t)
        out.update(counts)
        missing += miss
    return out, missing


def fiber(m: RatMap, t: ProjPoint):
    """The full fiber divisor m*[t]; raises InsufficientField when part of
    the fiber is not rational over t's field (never drops mass silently)."""
    from .divisor import Divisor
    counts, missing = fiber_counts(m, t)
    if missing:
        raise InsufficientField(
            f"fiber of {t} under {m} has multiplicity {missing} outside {t.ctx!r}",
            missing=missing)
    return Divisor(t.ctx, counts)


def point_multiplicity_in_fiber(m: RatMap, point: ProjPoint) -> int:
    """Ramification index e_m(point), by the fiber route: the multiplicity of
    the point in the fiber form over its own image.  ``ramification`` reads
    the indices off the Wronskian instead; this is the tests' oracle."""
    f = _fiber_form(m, m.eval(point))
    return m.d - f.degree if point.is_infinity else f.multiplicity(point.x)


def ramification(m: RatMap, ctx: FieldCtx, strict: bool = True):
    """All points with ramification index e >= 2, as {point: e}, read off the
    Wronskian W = num'*den - num*den' alone (Dedekind's different theorem,
    tame case: p > d, so W != 0 and no index is divisible by p).  An affine
    point has e = 1 + its multiplicity in W, and infinity e = 2d - 1 - deg W.

    If W does not split over ctx, some ramification point is missing and
    InsufficientField is raised (with strict=False the rational part is
    returned instead, which is enough to test disjointness from a set of
    rational points).
    """
    require_tame(m, "ramification")
    w = Poly(ctx, m.wronskian_coeffs())
    roots = w.roots()
    if strict and len(roots) < w.degree:
        raise InsufficientField(
            f"ramification locus of {m} is not rational over {ctx!r}",
            missing=w.degree - len(roots))
    out = {ProjPoint.affine(x): 1 + k for x, k in Counter(roots).items()}
    if w.degree < 2 * m.d - 2:
        out[ProjPoint.infinity(ctx)] = 2 * m.d - 1 - w.degree
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
