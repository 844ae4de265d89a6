"""Named tower fixtures and the end-to-end verification pipeline.

Three towers are wired in.  Each ``Fixture`` holds the facts that set its
tower apart, and ``verify_fixture`` and the command line read those facts,
never the tower's name:

* ``new-tower``:  y^2 = (x^2+x)/(3x-1), the search's unique output; its
  splitting polynomial is (-3/p) H_p, the mod-p truncation of the integer
  series of a_n = sum C(n,k)^2 C(2k,k) (``series_bridge``).
* ``gs-tower``:   y^2 = (x^2+1)/(2x), the classical optimal tower; its
  splitting polynomial satisfies the same kind of functional equation, and
  its singular component is a fixed chain of edges (``chain``).
* ``type-a-toy``: y^2 = x^2+x, a complete loop at infinity with equal
  restricted differents, so no splitting set can exist (``rho_expr`` None).

Loading a fixture re-checks its completeness and divisorial invariants on
the spot, so a broken fixture table cannot silently poison a pipeline.

T0 is read off the graph: the distinct f-value codes, kept by the build, at
``TowerGraph.regular_vertices()``.  Given the series bridge, ``verify``
certifies that set over F_p and finds no root of H_p: it counts the roots
as deg gcd(H_p, x^q - x), runs the regularness criterion on int lists, and
checks f^{-1}(T0) with ``p1.map_preimage``.
When a certificate fails it falls back to the roots over F_{p^r}
(``splitting_points``) and ``feq.regularness_check``, so a failed report is
the one that path gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import feq, genus, series
from .errors import BadPrime, TowerError
from .ff import (
    FieldCtx,
    _pow_mod,
    is_prime,
    legendre,
    padd,
    pgcd,
    pmul,
    ppow,
    pproportional,
    psubst,
)
from .p1 import (
    Mobius,
    ProjPoint,
    RatMap,
    map_parse,
    map_preimage,
    mobius_conjugate,
    point_parse,
    ratfun_parse,
)
from .tgraph import FieldArrays, TowerGraph
from .upoly import Poly, RatFun


@dataclass(frozen=True)
class Fixture:
    name: str
    f_expr: str
    g_expr: str
    s_exprs: tuple
    s0_exprs: tuple
    rho_expr: Optional[str]
    series_bridge: bool = False
    chain: tuple = ()


FIXTURES = {
    "new-tower": Fixture(
        name="new-tower",
        f_expr="(x^2+x)/(3*x-1)",
        g_expr="y^2",
        s_exprs=("0", "1", "-1", "1/3", "-1/3", "inf"),
        s0_exprs=("0", "1", "1/9", "inf"),
        rho_expr="(x-1)*(x+1/3)/x",
        series_bridge=True,
    ),
    "gs-tower": Fixture(
        name="gs-tower",
        f_expr="(x^2+1)/(2*x)",
        g_expr="y^2",
        s_exprs=("1", "-1", "i", "-i", "0", "inf"),
        s0_exprs=("1", "-1", "0", "inf"),
        rho_expr="(x-1)*(x+1)/x",
        chain=(("1", "1"), ("1", "-1"), ("-1", "i"), ("-1", "-i"),
               ("i", "0"), ("-i", "0"), ("0", "inf"), ("inf", "inf")),
    ),
    "type-a-toy": Fixture(
        name="type-a-toy",
        f_expr="x^2+x",
        g_expr="y^2",
        s_exprs=("inf",),
        s0_exprs=("inf",),
        rho_expr=None,
    ),
}


@dataclass
class BoundFixture:
    fixture: Fixture
    ctx: FieldCtx
    f: RatMap
    g: RatMap
    s: list
    s0: list
    rho: Optional[RatFun]


def load_fixture(name: str, p: int, ctx: FieldCtx = None, check: bool = True) -> BoundFixture:
    """Bind a fixture over F_p (points over ctx, defaulting to the smallest
    field where they are rational) and validate its invariants."""
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; have {sorted(FIXTURES)}")
    if p < 5 or not is_prime(p):
        raise BadPrime(f"fixtures need a prime >= 5, got {p}")
    fx = FIXTURES[name]
    if ctx is None:
        needs_i = "i" in fx.s_exprs and p % 4 != 1
        ctx = FieldCtx(p, 2) if needs_i else FieldCtx(p)
    f = map_parse(fx.f_expr, p)
    g = map_parse(fx.g_expr, p)
    s = [point_parse(e, ctx) for e in fx.s_exprs]
    s0 = [point_parse(e, ctx) for e in fx.s0_exprs]
    rho = ratfun_parse(fx.rho_expr, ctx) if fx.rho_expr else None
    bound = BoundFixture(fx, ctx, f, g, s, s0, rho)
    if check:
        fwd, bwd = feq.is_complete(f, g, s, ctx)
        if not (fwd and bwd):
            raise TowerError(f"fixture {name}: S is not complete over {ctx!r}")
        if not feq.divisorial_check(f, g, s0, ctx):
            raise TowerError(f"fixture {name}: divisorial identity fails over {ctx!r}")
    return bound


# ---------------------------------------------------------------------------
# splitting polynomials from graphs

def _prime_field_ints(elems):
    """The field elements as ints when all of them lie in F_p, else None."""
    elems = list(elems)
    if any(any(e.coeffs[1:]) for e in elems):
        return None
    return [e.coeffs[0] for e in elems]


def _splitting_codes(graph: TowerGraph):
    """The element codes of the f-values on the d-regular components'
    vertices, ascending and distinct, all affine."""
    # not np.unique: its first call imports numpy.ma, about 37 ms
    codes = np.flatnonzero(np.bincount(graph.f_codes[graph.regular_vertices()]))
    if codes[-1] == graph.ctx.order:
        raise TowerError("splitting values contain the point at infinity")
    return codes


def chi_from_graph(graph: TowerGraph) -> Poly:
    """Characteristic polynomial over F_p of the set of f-values on the
    d-regular component's vertices.

    The Frobenius v -> v^p is applied to all the values' codes at once, on
    their digit arrays, and the orbits are walked from it.  The value set
    must be stable under the Frobenius, and each orbit's product of (x - v),
    of at most r factors, must lie over F_p; both are asserted, not assumed.
    The orbit products are multiplied as int lists over F_p.
    """
    ctx = graph.ctx
    codes = _splitting_codes(graph)
    field = FieldArrays(ctx)
    conjugates = dict(zip(codes.tolist(),
                          field.codes(field.frobenius(field.digits(codes))).tolist()))
    chi = [1]
    while conjugates:
        first, v = conjugates.popitem()
        orbit = [ctx.element(first)]
        while v in conjugates:
            orbit.append(ctx.element(v))
            v = conjugates.pop(v)
        # an orbit that does not close has a conjugate missing from the set
        factor = _prime_field_ints(Poly.from_roots(ctx, orbit).coeffs) if v == first else None
        if factor is None:
            raise TowerError("splitting polynomial has coefficients outside F_p")
        chi = pmul(chi, factor, ctx.p)
    return Poly(FieldCtx(ctx.p), chi)


def splitting_points(p: int, ctx: FieldCtx) -> list:
    """The roots of the mod-p series truncation H_p over ctx, as points."""
    hp = series.truncate_H_mod_p(p)
    lifted = Poly(ctx, [c.coeffs[0] for c in hp.coeffs])
    return sorted((ProjPoint.affine(x) for x in set(lifted.roots())),
                  key=lambda q: q.sort_key())


def functional_equation(bound: BoundFixture, chi: Optional[Poly]):
    """Whether den^(p-1) h(num/den) ~ h(x^2) over F_p for f = num/den, with h
    = (-3/p) H_p given the series bridge (chi may then be None), else chi.
    Returns (holds, constant); both sides are linear in h."""
    p = bound.ctx.p
    h = series.truncate_H_mod_p(p) * legendre(-3, p) if bound.fixture.series_bridge else chi
    return series.functional_equation_holds(
        [c.coeffs[0] for c in h.coeffs], bound.f.num_coeffs, bound.f.den_coeffs, p)


def _root_count(h, q: int, p: int) -> int:
    """The number of distinct roots in F_q of h in F_p[x] (ascending ints,
    nonzero): deg gcd(h, x^q - x), since x^q - x is the product of x - a
    over F_q."""
    xq = _pow_mod([0, 1], q, h, p)
    return len(pgcd(h, padd(xq, [0, -1], p), p)) - 1


def _fp_certificate(bound: BoundFixture, graph: TowerGraph, hp: Poly):
    """verify's splitting-value checks over F_p, for a fixture whose series
    bridge chi (-3/p) = H_p holds, with no root of H_p found.

    The root count k is deg gcd(H_p, x^q - x).  When k = deg H_p, the bridge
    makes T0, the roots of H_p, exactly the f-values on the d-regular
    component.  phi = H_p^s / prod (x - sigma)^t over the affine points of
    S0 then has divisor s T0 - t S0 up to a constant factor, which cancels
    in rho^t (phi o f) ~ phi o g; rho and S0 are asserted to lie over F_p,
    so both sides are int lists.  Returns (k, T0, s, t, constant) as
    ``feq.regularness_check`` would find them, or None when a certificate
    fails, which leaves the F_{p^r} oracle path to report the failure.
    """
    f, g, ctx = bound.f, bound.g, bound.ctx
    p = ctx.p
    h = _prime_field_ints(hp.coeffs)
    k = _root_count(h, ctx.order, p)
    if k != len(h) - 1:
        return None
    values = [ProjPoint.affine(ctx.element(c)) for c in _splitting_codes(graph).tolist()]
    s0, t0, rho, s, t = feq.criterion_data(f, g, bound.s0, values, ctx)
    sigmas = _prime_field_ints(q.x for q in s0 if not q.is_infinity)
    rho_num, rho_den = _prime_field_ints(rho.num.coeffs), _prime_field_ints(rho.den.coeffs)
    if sigmas is None or rho_num is None or rho_den is None:
        return None
    num = ppow(h, s, p)
    den = [1]
    for sigma in sigmas:
        den = pmul(den, ppow([-sigma, 1], t, p), p)
    top = max(len(num), len(den))  # one formal degree, so m's denominator cancels
    num, den = num + [0] * (top - len(num)), den + [0] * (top - len(den))
    num_f, den_f, num_g, den_g = (psubst(part, m.num_coeffs, m.den_coeffs, p)
                                  for m in (f, g) for part in (num, den))
    lhs_num = pmul(ppow(rho_num, t, p), num_f, p)
    lhs_den = pmul(ppow(rho_den, t, p), den_f, p)
    constant = pproportional(pmul(lhs_num, den_g, p), pmul(num_g, lhs_den, p), p)
    return None if constant is None else (k, t0, s, t, constant)


# ---------------------------------------------------------------------------
# the modular model

def conjugate_check(p: int) -> dict:
    """Conjugating x^2 and (y^2+3y)/(y-1) by sigma = (x-1)/(x-9) and
    tau = (3x+1)/(x-1) must reproduce the new-tower pair over F_p."""
    if p < 5 or not is_prime(p):
        raise BadPrime(f"need a prime >= 5, got {p}")
    sigma = Mobius.parse("(x-1)/(x-9)", p)
    tau = Mobius.parse("(3*x+1)/(x-1)", p)
    f_model = map_parse("x^2", p)
    g_model = map_parse("(y^2+3*y)/(y-1)", p)
    f = map_parse(FIXTURES["new-tower"].f_expr, p)
    g = map_parse(FIXTURES["new-tower"].g_expr, p)
    f_ok = mobius_conjugate(f_model, sigma, tau) == f
    g_ok = mobius_conjugate(g_model, sigma, tau) == g
    return {
        "p": p,
        "sigma": str(sigma),
        "tau": str(tau),
        "f_conjugate_matches": f_ok,
        "g_conjugate_matches": g_ok,
        "ok": f_ok and g_ok,
    }


# ---------------------------------------------------------------------------
# full verification pipeline

def _check(checks: list, name: str, ok: bool, detail: str = ""):
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def verify_fixture(name: str, p: int, ext: int = 2, modulus=None) -> dict:
    """Run every end-to-end consistency check the fixture's facts call for
    and report one pass/fail entry per check."""
    checks: list = []
    ctx = FieldCtx(p, ext, modulus)
    bound = load_fixture(name, p, ctx=ctx, check=False)
    fx, f, g = bound.fixture, bound.f, bound.g
    graph = TowerGraph(f, g, ctx)  # refuses a field above the cap before any O(q) work

    fwd, bwd = feq.is_complete(f, g, bound.s, ctx)
    _check(checks, "singular-support-complete", fwd and bwd,
           f"forward={fwd} backward={bwd}")
    _check(checks, "divisorial-identity", feq.divisorial_check(f, g, bound.s0, ctx))
    verdict = feq.lenstra_check(f, g, bound.s, ctx)
    verdict_detail = f"{verdict.value} (conditional on irreducibility)"

    if fx.rho_expr is None:  # no splitting set can exist
        _check(checks, "lenstra-verdict",
               verdict is feq.LenstraVerdict.NO_SPLITTING_SET_POSSIBLE, verdict_detail)
        for r in range(1, ext + 1):
            graph_r = graph if r == ext else TowerGraph(f, g, FieldCtx(p, r))
            regs = graph_r.regular_components()
            _check(checks, f"no-regular-component-r{r}", not regs,
                   f"{len(regs)} regular components")
        return _finish(name, p, ext, checks)

    # a tower that can split: unique regular component of the right size
    regs = graph.regular_components()
    _check(checks, "regular-component-unique", len(regs) == 1,
           f"found {len(regs)}")
    size_ok = bool(regs) and regs[0].size == 2 * (p - 1)
    _check(checks, "regular-component-size", size_ok,
           f"{regs[0].size if regs else 0} vs {2 * (p - 1)}")
    _check(checks, "lenstra-verdict", verdict is feq.LenstraVerdict.INCONCLUSIVE,
           verdict_detail)

    try:
        chi = chi_from_graph(graph)
        _check(checks, "chi-degree", chi.degree == p - 1, f"deg {chi.degree}")
    except TowerError as exc:
        _check(checks, "chi-degree", False, str(exc))
        return _finish(name, p, ext, checks)

    if fx.series_bridge:
        eps, hp = legendre(-3, p), series.truncate_H_mod_p(p)
        bridge = chi * eps == hp
        _check(checks, "chi-series-bridge", bridge, f"(-3/p) = {eps}")
    if fx.chain:
        _check(checks, "singular-chain-shape", _gs_chain_ok(graph, ctx, fx.chain),
               f"{len(graph.singular_components())} singular components")
    holds, const = functional_equation(bound, chi)
    _check(checks, "functional-equation", holds, f"constant {const}")
    if not fx.series_bridge:
        return _finish(name, p, ext, checks)

    # the series bridge makes the roots of H_p the splitting values T0
    cert = _fp_certificate(bound, graph, hp) if bridge else None
    if cert is None:  # only a failed certificate pays for the roots over F_{p^r}
        t0 = splitting_points(p, ctx)
        report = feq.regularness_check(f, g, bound.s0, t0, ctx)
        k, regular, s, t, const = len(t0), report.holds, report.s, report.t, report.constant
    else:
        k, t0, s, t, const = cert
        regular = True
    _check(checks, "splitting-values-rational", k == p - 1, f"{k} of {p - 1}")
    _check(checks, "regularness-criterion", regular, f"s={s} t={t} constant={const}")
    pre, missing = map_preimage(f, t0, ctx)  # chi exists, so regs is not empty
    _check(checks, "splitting-set-is-regular-component",
           missing == 0 and pre == set(regs[0].vertices), f"preimage size {len(pre)}")
    genus_ok = all(genus.genus_sum(n) == genus.genus_closed(n) for n in range(2, 25))
    _check(checks, "genus-formulas-agree", genus_ok)
    paths = graph.path_counts(9, regs[0].indices)
    counts_ok = all(paths[n - 1] == (p - 1) * 2 ** n for n in range(2, 11))
    _check(checks, "splitting-path-counts", counts_ok)
    sing = graph.singular_path_counts(9)
    sing_ok = all(sing[n - 1] == 2 * (n - 2) for n in range(3, 11))
    _check(checks, "singular-path-counts", sing_ok)
    return _finish(name, p, ext, checks)


def _gs_chain_ok(graph: TowerGraph, ctx: FieldCtx,
                 chain: tuple = FIXTURES["gs-tower"].chain) -> bool:
    """Whether the singular component through the chain's first point has
    exactly the chain's vertices and edges (default: the classical tower's
    loop(1) -> -1 -> {i, -i} -> 0 -> inf(loop))."""
    pts = {e: point_parse(e, ctx) for edge in chain for e in edge}
    first = pts[chain[0][0]]
    comp = next((c for c in graph.singular_components() if first in c.vertices), None)
    if comp is None or set(comp.vertices) != set(pts.values()):
        return False
    idx = {e: graph.index(pt) for e, pt in pts.items()}
    inside = set(idx.values())
    # each edge of the chain once, and no other edge: the chain is the component
    within = sorted((i, j) for i in inside for j in graph.successors(i) if j in inside)
    return within == sorted((idx[a], idx[b]) for a, b in chain)


def _finish(name, p, ext, checks):
    return {
        "fixture": name,
        "p": p,
        "ext": ext,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
