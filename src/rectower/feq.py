"""Completeness and regularness criteria for correspondence towers.

Three equivalent views of the same phenomenon, in increasing effectiveness:

* set-theoretic: S is complete iff g^{-1}(f(S)) and f^{-1}(g(S)) stay in S;
* divisorial: f^{-1}(S0) is complete iff
  f* div(S0) - g* div(S0) = D_f(S0) - D_g(S0)
  with D the restricted different;
* functional: given a complete f^{-1}(S0), a candidate value set T0 away
  from the ramification of g splits totally iff
  rho^t (phi o f) ~ (phi o g), where div(rho) = D_f(S0) - D_g(S0) and
  div(phi) = s div(T0) - t div(S0).

The functional criterion runs on points over F_{p^r} (``regularness_check``,
the oracle) or on F_p int lists for T0 the roots of R (``splitting_criterion``,
which ``verify`` runs).  They share S0's half and the exponents; T0 misses
ram(g) by points in the oracle and by gcd(R, W_g) = 1 in production.

On the line the divisor class group is trivial, so the auxiliary orders a
and b of the general statement are both 1; they are still carried in the
report for traceability.

The non-existence test: a complete S with D_f(S0) = D_g(S0) rules out any
nonempty finite d-regular component disjoint from S, *provided* the
correspondence is irreducible, which is not checked here; verdicts are
labeled conditional.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Optional

from .divisor import Divisor, _less_support, divisor_to_function, pullback, restricted_different
from .errors import FieldMismatch, NotComplete, RamifiedT0
from .ff import FieldCtx, FieldElem, pgcd, pmul, ppow, pproportional, psubst
from .p1 import RatMap, map_preimage, ramification, require_tame
from .upoly import Poly, RatFun, compose_rational, prime_field_ints, ratfun_proportional


def _working_ctx(points, ctx: Optional[FieldCtx]):
    points = list(points)
    if ctx is None:
        if not points:
            raise ValueError("empty point set needs an explicit field context")
        ctx = points[0].ctx
    for p in points:
        if p.ctx.key() != ctx.key():
            raise ValueError("all points must live over the working field")
    return points, ctx


def is_complete(f: RatMap, g: RatMap, s, ctx: FieldCtx = None):
    """(forward, backward) completeness of the point set s.

    A fiber point that is not rational over the working field cannot belong
    to s, so missing fiber mass decides the direction as False rather than
    raising; the verdict is exact either way.
    """
    points, ctx = _working_ctx(s, ctx)
    sset = set(points)

    def direction(src: RatMap, back: RatMap) -> bool:
        pre, missing = map_preimage(back, {src.eval(p) for p in sset}, ctx)
        return not missing and pre <= sset

    return direction(f, g), direction(g, f)


def divisorial_check(f: RatMap, g: RatMap, s0, ctx: FieldCtx = None) -> bool:
    """Whether f* div(S0) - g* div(S0) = D_f(S0) - D_g(S0); equivalent to
    completeness of f^{-1}(S0)."""
    points, ctx = _working_ctx(s0, ctx)
    for m in (f, g):
        require_tame(m, "the different")
    d0 = Divisor.of_set(points, ctx)
    pull_f, pull_g = pullback(f, d0), pullback(g, d0)
    return pull_f - pull_g == _less_support(pull_f) - _less_support(pull_g)


@dataclass
class FunctionalReport:
    holds: bool
    constant: Optional[FieldElem]
    rho: RatFun
    phi: RatFun
    s: int
    t: int
    a: int = 1
    b: int = 1

    def to_json_obj(self):
        return {
            "holds": self.holds,
            "constant": None if self.constant is None else str(self.constant),
            "rho": str(self.rho),
            "phi": str(self.phi),
            "s": self.s,
            "t": self.t,
            "a": self.a,
            "b": self.b,
        }


def _s0_half(f: RatMap, g: RatMap, s0, ctx: Optional[FieldCtx]):
    """The S0 half of the functional criterion's data.

    Raises NotComplete unless f^{-1}(S0) is complete.  Returns S0 as a
    sorted list of distinct points and rho with div(rho) = D_f(S0) - D_g(S0).
    """
    s0_points, ctx = _working_ctx(s0, ctx)
    s0_points = sorted(set(s0_points), key=lambda q: q.sort_key())
    if not s0_points:
        raise ValueError("S0 must be nonempty")
    if not divisorial_check(f, g, s0_points, ctx):
        raise NotComplete("S0 does not induce a complete set")
    d_f = restricted_different(f, s0_points, ctx)
    d_g = restricted_different(g, s0_points, ctx)
    return s0_points, divisor_to_function(d_f - d_g)


def _exponents(n_s0: int, n_t0: int):
    """The minimal positive s, t with t*|S0| = s*|T0|, for nonempty T0."""
    if not n_t0:
        raise ValueError("T0 must be nonempty")
    common = gcd(n_s0, n_t0)
    return n_s0 // common, n_t0 // common


def regularness_check(f: RatMap, g: RatMap, s0, t0, ctx: FieldCtx = None) -> FunctionalReport:
    """The functional criterion: holds iff f^{-1}(T0) is d-regular.

    S0's half is ``_s0_half``'s, and T0 must miss the ramification points of
    g over the working field; the proportionality test is exact polynomial
    arithmetic after clearing denominators.
    """
    s0_points, rho = _s0_half(f, g, s0, ctx)
    ctx = rho.ctx  # the working field, resolved by _s0_half
    t0_points = set(_working_ctx(t0, ctx)[0])
    s, t = _exponents(len(s0_points), len(t0_points))
    bad = sorted(str(q) for q in ramification(g, ctx, strict=False) if q in t0_points)
    if bad:
        raise RamifiedT0(f"T0 meets the ramification locus of g at {bad}")
    phi = divisor_to_function(
        s * Divisor.of_set(t0_points, ctx) - t * Divisor.of_set(s0_points, ctx))

    lhs = (rho ** t) * compose_rational(phi, f)
    rhs = compose_rational(phi, g)
    constant = ratfun_proportional(lhs, rhs)
    return FunctionalReport(constant is not None, constant, rho, phi, s, t)


def splitting_criterion(f: RatMap, g: RatMap, s0, r):
    """``regularness_check`` on F_p int lists for T0 = the roots of r, a
    monic squarefree polynomial over F_p that splits over S0's field, such
    as ``ff.pradical``'s gcd(h, x^q - x); no root of r is found.  T0 is
    affine, so it misses ram(g) iff gcd(r, W_g) = 1 for g's Wronskian W_g.
    phi = r^s / prod (x - sigma)^t over the affine points sigma of S0 has
    divisor s T0 - t S0 up to a constant, which cancels in rho^t (phi o f) ~
    phi o g.  Returns s, t, the constant (None when the sides are not
    proportional) and r o f with its denominator cleared, of formal degree
    deg(f) deg(r)."""
    s0_points, rho = _s0_half(f, g, s0, None)
    ctx, p = rho.ctx, rho.ctx.p
    s, t = _exponents(len(s0_points), len(r) - 1)
    shared = pgcd(r, g.wronskian_coeffs(), p)
    if len(shared) > 1:
        shared = Poly(FieldCtx(p), shared).monic()
        raise RamifiedT0(f"T0 meets the ramification locus of g at the roots of {shared}")
    lin = Poly.from_roots(ctx, [q.x for q in s0_points if not q.is_infinity])
    lin, rho_num, rho_den = forms = [prime_field_ints(h.coeffs) for h in (lin, rho.num, rho.den)]
    if None in forms:
        raise FieldMismatch("S0 and rho must be defined over F_p")
    parts = ((r, s), (lin, t))  # phi = r^s / prod (x - sigma)^t
    top = max(e * (len(base) - 1) for base, e in parts)  # one formal degree, so m's denominator cancels

    def composed(m):
        # psubst is multiplicative, and padding to formal degree top
        # multiplies by b^(top - deg), so r and prod (x - sigma) are
        # composed once each rather than their powers
        a, b = m.num_coeffs, m.den_coeffs
        bases = [psubst(base, a, b, p) for base, _ in parts]
        return bases[0], [pmul(ppow(c, e, p), ppow(b, top - e * (len(base) - 1), p), p)
                          for c, (base, e) in zip(bases, parts)]

    (r_f, (num_f, den_f)), (_, (num_g, den_g)) = composed(f), composed(g)
    lhs_num = pmul(ppow(rho_num, t, p), num_f, p)
    lhs_den = pmul(ppow(rho_den, t, p), den_f, p)
    constant = pproportional(pmul(lhs_num, den_g, p), pmul(num_g, lhs_den, p), p)
    return s, t, constant, r_f


class LenstraVerdict(Enum):
    NO_SPLITTING_SET_POSSIBLE = "no-splitting-set-possible"
    INCONCLUSIVE = "inconclusive"


def lenstra_check(f: RatMap, g: RatMap, s, ctx: FieldCtx = None) -> LenstraVerdict:
    """Non-existence test from a complete set s.

    When the restricted differents of f and g over S0 = f(s) agree, no
    nonempty finite d-regular component disjoint from s can exist (assuming
    the correspondence irreducible, which is not verified here).
    """
    points, ctx = _working_ctx(s, ctx)
    fwd, bwd = is_complete(f, g, points, ctx)
    if not (fwd and bwd):
        raise NotComplete("the given set is not complete")
    s0 = {f.eval(p) for p in points}
    d_f = restricted_different(f, s0, ctx)
    d_g = restricted_different(g, s0, ctx)
    if d_f == d_g:
        return LenstraVerdict.NO_SPLITTING_SET_POSSIBLE
    return LenstraVerdict.INCONCLUSIVE


@dataclass
class CriterionReport:
    forward_complete: bool
    backward_complete: bool
    divisorial_holds: bool
    functional: Optional[FunctionalReport]

    def to_json_obj(self):
        return {
            "forward_complete": self.forward_complete,
            "backward_complete": self.backward_complete,
            "divisorial_holds": self.divisorial_holds,
            "functional": None if self.functional is None else self.functional.to_json_obj(),
        }


def criterion_report(f: RatMap, g: RatMap, s, s0, t0=None, ctx: FieldCtx = None) -> CriterionReport:
    """Run all three criteria on one fixture; the functional part only when
    a candidate splitting value set t0 is supplied."""
    s_points, ctx = _working_ctx(s, ctx)
    fwd, bwd = is_complete(f, g, s_points, ctx)
    div_ok = divisorial_check(f, g, s0, ctx)
    functional = None
    if t0 is not None:
        functional = regularness_check(f, g, s0, t0, ctx)
    return CriterionReport(fwd, bwd, div_ok, functional)
