"""Production of degree-2 tower equations with a prescribed singular graph.

Normalizing by the automorphisms of the line pins g(y) = y^2 and leaves a
six-coefficient candidate f = (a2 x^2 + a1 x + a0)/(b2 x^2 + b1 x + b0),
one point of P^5(F_p) per candidate (canonical representative: first
nonzero coordinate scaled to 1).  The prescribed shape — two chains
loop(R_i) -> P_i -> S_i -> loop with R_i the ramification points of f and
S_1 = 0, S_2 = infinity those of g — translates into seven polynomial
conditions on the coefficients:

* f ramified at 1 (the Wronskian of f vanishes at 1); the second
  ramification point is then r2 = (a1 b0 - a0 b1 : a2 b1 - a1 b2);
* loops at 1, 0, infinity and r2, i.e. E(P, P) = 0 for the correspondence
  form E(X1,Y1,X2,Y2) = Y2^2 N(X1,Y1) - X2^2 D(X1,Y1);
* a length-2 path from 1 to 0 and from r2 to infinity, each equivalent to
  the vanishing of a resultant of two binary quadratics (so midpoints may
  live in the quadratic extension without ever computing there);
* the four ramification points pairwise distinct.

Four of the seven conditions are linear and are solved instead of
scanned.  The loops at 0 and infinity force a0 = 0 and b2 = 0.  The loop at
1 gives N(1) = D(1), and ramification at 1 then reads
D(1)·(2 a2 + a1 - b1) = 0.  D(1) = 0 would make N(1) = 0 as well, so N and
D would share the root 1 and the resultant would vanish; such candidates
are not maps of degree 2.  Hence b1 = 2 a2 + a1 and b0 = -a2: a line in
P^5, whose canonical points are (1, a1, 0, 0, 2 + a1, -1) for a1 in F_p
and (0, 1, 0, 0, 1, 0), which has zero resultant.  ``search`` runs the
resultant filter and the full ``constraint_check`` on the p points with
a2 = 1, in ascending a1, which is the order of ``candidate_stream``.
``candidate_stream`` is the exhaustive enumeration of P^5(F_p), kept as
the oracle the tests compare ``search`` against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, NamedTuple, Optional

from .ff import FieldCtx, pgcd, require_prime
from .p1 import ProjPoint, RatMap
from .upoly import Poly


class SearchParams(NamedTuple):
    a2: int
    a1: int
    a0: int
    b2: int
    b1: int
    b0: int


@dataclass
class SearchSolution:
    params: SearchParams
    f: RatMap
    r2: ProjPoint
    certificate: dict

    def to_json_obj(self):
        return {
            "params": list(self.params),
            "f": str(self.f),
            "r2": str(self.r2),
            "witnesses": {k: [str(x) for x in v] if isinstance(v, list) else str(v)
                          for k, v in self.certificate.items()},
        }


def _res2(a2, a1, a0, b2, b1, b0, p):
    """Resultant of two binary quadratics (closed 4x4 Sylvester form)."""
    u = a2 * b0 - a0 * b2
    return (u * u - (a2 * b1 - a1 * b2) * (a1 * b0 - a0 * b1)) % p


def candidate_stream(p: int) -> Iterator[SearchParams]:
    """All canonical points of P^5(F_p) whose coefficient pair defines a
    genuine degree-2 map (nonvanishing resultant kills both the constant
    and degree-1 degenerations)."""
    require_prime(p, "the search needs")
    rng = range(p)
    for lead in range(6):
        prefix = (0,) * lead + (1,)
        for rest in product(rng, repeat=5 - lead):
            v = prefix + rest
            if _res2(v[0], v[1], v[2], v[3], v[4], v[5], p):
                yield SearchParams(*v)


def constraint_check(params: SearchParams, p: int) -> Optional[SearchSolution]:
    """All seven shape constraints; returns a certified solution or None.
    Checks are ordered so that almost all candidates fail on the first
    couple of integer comparisons."""
    a2, a1, a0, b2, b1, b0 = params
    # loops at 0 and infinity: E(0,1,0,1) = a0, E(1,0,1,0) = -b2
    if a0 % p or b2 % p:
        return None
    # loop at 1: E(1,1,1,1) = N(1) - D(1)
    n1 = (a2 + a1 + a0) % p
    d1 = (b2 + b1 + b0) % p
    if (n1 - d1) % p:
        return None
    # f ramified at 1: Wronskian (N' D - N D')(1) = 0
    if ((2 * a2 + a1) * d1 - n1 * (2 * b2 + b1)) % p:
        return None
    # second ramification point of f, projectively
    r2n = (a1 * b0 - a0 * b1) % p
    r2d = (a2 * b1 - a1 * b2) % p
    if r2n == 0 and r2d == 0:
        return None  # f fails to have two distinct ramification points
    # the four ramification points 1, r2, 0, infinity pairwise distinct
    if r2n == 0 or r2d == 0 or (r2n - r2d) % p == 0:
        return None
    # loop at r2: E(r2, r2) = 0
    nr2 = (a2 * r2n * r2n + a1 * r2n * r2d + a0 * r2d * r2d) % p
    dr2 = (b2 * r2n * r2n + b1 * r2n * r2d + b0 * r2d * r2d) % p
    if (r2d * r2d * nr2 - r2n * r2n * dr2) % p:
        return None
    # length-2 path 1 -> P1 -> 0: common projective root of
    # d1*x^2 - n1 (g(P1) = f(1)) and N(x) (f(P1) = 0)
    if _res2(d1, 0, -n1, a2, a1, a0, p):
        return None
    # length-2 path r2 -> P2 -> infinity: common root of
    # dr2*x^2 - nr2 (g(P2) = f(r2)) and D(x) (f(P2) = infinity)
    if _res2(dr2, 0, -nr2, b2, b1, b0, p):
        return None
    return _certify(params, p, (r2n, r2d), (n1, d1), (nr2, dr2))


def _common_roots(u_coeffs, v_coeffs, ctx) -> list:
    """The roots over ctx of the gcd over F_p of two int polynomials."""
    return Poly(ctx, pgcd(u_coeffs, v_coeffs, ctx.p)).roots()


def _certify(params: SearchParams, p: int, r2_proj, f_at_1, f_at_r2) -> SearchSolution:
    """Build the explicit witnesses over F_{p^2} (the midpoints P_1, P_2 of
    the length-2 paths need not be rational over F_p), from f(1) = n1/d1 and
    f(r2) = nr2/dr2 (projective values, as ``constraint_check`` found them)."""
    a2, a1, a0, b2, b1, b0 = params
    f = RatMap(p, (a0, a1, a2), (b0, b1, b2))
    ext = FieldCtx(p, 2)
    r2n, r2d = r2_proj  # r2d != 0: constraint_check puts r2 away from infinity
    r2 = ProjPoint.affine(ext.lift(r2n) / ext.lift(r2d))
    (n1, d1), (nr2, dr2) = f_at_1, f_at_r2
    p1_pts = _common_roots((-n1, 0, d1), (a0, a1, a2), ext)
    p2_pts = _common_roots((-nr2, 0, dr2), (b0, b1, b2), ext)
    certificate = {
        "loops": ["1", "0", "inf", str(r2)],
        "path_mid_1_to_0": [ProjPoint.affine(x) for x in sorted(set(p1_pts), key=ext.element_index)],
        "path_mid_r2_to_inf": [ProjPoint.affine(x) for x in sorted(set(p2_pts), key=ext.element_index)],
    }
    return SearchSolution(params=params, f=f, r2=r2, certificate=certificate)


def search(p: int) -> list[SearchSolution]:
    """All solutions, in ``candidate_stream`` order: the candidates on the
    line cut out by the linear conditions (module docstring), each checked
    against all seven."""
    require_prime(p, "the search needs")
    out = []
    for a1 in range(p):
        params = SearchParams(1, a1, 0, 0, (2 + a1) % p, p - 1)
        if _res2(*params, p):
            sol = constraint_check(params, p)
            if sol is not None:
                out.append(sol)
    return out
