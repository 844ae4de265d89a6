"""Divisor calculus on the projective line.

A divisor is a finite integer combination of points over one field: the
field its points carry, which only the empty divisor needs given
(``Divisor.zero``; ``Divisor.of_set`` reads it by ``p1.field_of``).
Operations that would need points outside that field raise
InsufficientField instead of silently dropping mass.
Because the line has trivial divisor class group, every degree-zero
divisor is principal and can be turned back into a rational function,
which is what makes the functional splitting criterion effective here.

The layer is built on the definitions: the pullback m* D is the sum of the
fibers m*[t] weighted by the multiplicities of D, and the restricted
different D_m(S0) is the pullback m* div(S0) less its reduced support.
"""

from __future__ import annotations

from .errors import InsufficientField, NonzeroDegree, ZeroFunction
from .ff import FieldCtx
from .p1 import ProjPoint, RatMap, fiber, field_of, require_tame
from .upoly import Poly, RatFun


class Divisor:
    __slots__ = ("ctx", "mults")

    def __init__(self, ctx: FieldCtx, mults=None):
        self.ctx = ctx
        self.mults = {p: m for p, m in (mults or {}).items() if m != 0}

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Divisor":
        return cls(ctx, {})

    @classmethod
    def of_set(cls, points) -> "Divisor":
        """div(S): each point of the finite set with multiplicity one, over
        the points' one field (``p1.field_of``: ValueError if none or two)."""
        points = list(points)
        return cls(field_of(points), {p: 1 for p in points})

    # -- queries ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return sum(self.mults.values())

    def mult(self, point: ProjPoint) -> int:
        return self.mults.get(point, 0)

    def support(self):
        return sorted(self.mults, key=lambda p: p.sort_key())

    def items(self):
        return [(p, self.mults[p]) for p in self.support()]

    def is_effective(self) -> bool:
        return all(m > 0 for m in self.mults.values())

    def is_zero(self) -> bool:
        return not self.mults

    # -- group operations ------------------------------------------------------

    def __add__(self, other: "Divisor") -> "Divisor":
        out = dict(self.mults)
        for p, m in other.mults.items():
            out[p] = out.get(p, 0) + m
        return Divisor(self.ctx, out)

    def __sub__(self, other: "Divisor") -> "Divisor":
        out = dict(self.mults)
        for p, m in other.mults.items():
            out[p] = out.get(p, 0) - m
        return Divisor(self.ctx, out)

    def __neg__(self) -> "Divisor":
        return Divisor(self.ctx, {p: -m for p, m in self.mults.items()})

    def __mul__(self, k: int) -> "Divisor":
        return Divisor(self.ctx, {p: k * m for p, m in self.mults.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Divisor)
                and self.ctx == other.ctx
                and self.mults == other.mults)

    def __hash__(self):
        return hash((self.ctx.key(), frozenset(self.mults.items())))

    def __str__(self):
        if not self.mults:
            return "0"
        parts = []
        for p, m in self.items():
            if m == 1:
                parts.append(f"[{p}]")
            else:
                parts.append(f"{m}[{p}]")
        return " + ".join(parts)

    def __repr__(self):
        return str(self)


# ---------------------------------------------------------------------------
# pullback, restricted different, principal divisors

def pullback(m: RatMap, d: Divisor) -> Divisor:
    """m* D: the sum of k m*[t] over the terms k[t] of D."""
    return sum((k * fiber(m, t) for t, k in d.items()), Divisor.zero(d.ctx))


def _less_support(pulled: Divisor) -> Divisor:
    """A pullback m* div(S0) less its support: the restricted different."""
    return Divisor(pulled.ctx, {q: e - 1 for q, e in pulled.mults.items()})


def restricted_different(m: RatMap, s0) -> Divisor:
    """D_m(S0): the pullback m* div(S0) less its support, that is the sum of
    (e_m(P) - 1) P over m^{-1}(S0) (tame: p > d), over the field of the
    (nonempty) S0."""
    require_tame(m, "the different")
    return _less_support(pullback(m, Divisor.of_set(s0)))


def principal_divisor(phi: RatFun) -> Divisor:
    """div(phi): zeros minus poles, including the contribution at infinity
    (degree of the denominator minus degree of the numerator), over phi's
    field."""
    if phi.is_zero():
        raise ZeroFunction("the zero function has no divisor")
    ctx = phi.ctx
    out = {}
    for f, sign in ((phi.num, 1), (phi.den, -1)):
        if f.degree == 0:
            continue
        roots = f.roots()
        if len(roots) < f.degree:
            raise InsufficientField(
                f"zeros/poles of {phi} not rational over {ctx!r}",
                missing=f.degree - len(roots))
        for x in roots:
            p = ProjPoint.affine(x)
            out[p] = out.get(p, 0) + sign
    inf_ord = phi.den.degree - phi.num.degree
    if inf_ord:
        p = ProjPoint.infinity(ctx)
        out[p] = out.get(p, 0) + inf_ord
    return Divisor(ctx, out)


def divisor_to_function(d: Divisor) -> RatFun:
    """A function with divisor d (requires deg d = 0; the class group of the
    line is trivial so one always exists).  Normalized with monic numerator
    and denominator, making the result reproducible."""
    if d.degree != 0:
        raise NonzeroDegree(f"divisor has degree {d.degree}, expected 0")

    def roots(sign: int):  # zeros for sign 1, poles for -1; infinity is the degree gap
        return [p.x for p, m in d.items() if not p.is_infinity for _ in range(sign * m)]

    return RatFun(Poly.from_roots(d.ctx, roots(1)), Poly.from_roots(d.ctx, roots(-1)))
