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

``load_fixture`` re-checks a fixture's completeness and divisorial
invariants only with check=True, which no command passes (``verify`` reports
them as checks).  ``fixture_graph`` binds a fixture and builds its graph, and
``series_bridge`` forms (-3/p) H_p, for every command that needs them.

The splitting polynomial chi is read off the graph: the distinct f-value
codes, kept by the build, at ``TowerGraph.regular_vertices()``.  Given the
series bridge, ``verify`` checks the splitting values T0, the roots of H_p
over F_q, on F_p int lists and finds none of them: R = gcd(H_p, x^q - x)
(``ff.pradical``) has them as its roots, ``feq.splitting_criterion`` runs
the regularness criterion on R, and |f^{-1}(T0)| is the number of roots in
F_q of R o f (plus infinity when its degree drops), which must be the
regular component's size when R = chi.  ``splitting_points`` (the roots of
H_p over F_{p^r}), ``feq.regularness_check`` and ``p1.map_preimage`` are
the tests' oracles for these checks, not a path of ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import feq, genus, series
from .errors import TowerError
from .ff import FieldCtx, legendre, pmul, pradical, require_prime
from .fieldarrays import FieldArrays
from .p1 import (
    Mobius,
    ProjPoint,
    RatMap,
    map_parse,
    map_preimage,  # noqa: F401  the tests' preimage oracle; benchmark/tracing.py wraps it here
    mobius_conjugate,
    point_parse,
)
from .tgraph import TowerGraph, require_graph_size
from .upoly import Poly, prime_field_ints


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
    # parsed on first read: only a command that reads S needs gs-tower's i
    s = cached_property(lambda self: [point_parse(e, self.ctx) for e in self.fixture.s_exprs])
    s0 = cached_property(lambda self: [point_parse(e, self.ctx) for e in self.fixture.s0_exprs])


def load_fixture(name: str, p: int, ctx: FieldCtx = None, check: bool = True) -> BoundFixture:
    """Bind a fixture over F_p (points over ctx, defaulting to the smallest
    field where they are rational) and validate its invariants."""
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; have {sorted(FIXTURES)}")
    require_prime(p, "fixtures need")
    fx = FIXTURES[name]
    if ctx is None:
        needs_i = "i" in fx.s_exprs and p % 4 != 1
        ctx = FieldCtx(p, 2) if needs_i else FieldCtx(p)
    f = map_parse(fx.f_expr, p)
    g = map_parse(fx.g_expr, p)
    bound = BoundFixture(fx, ctx, f, g)
    if check:
        fwd, bwd = feq.is_complete(f, g, bound.s, ctx)
        if not (fwd and bwd):
            raise TowerError(f"fixture {name}: S is not complete over {ctx!r}")
        if not feq.divisorial_check(f, g, bound.s0, ctx):
            raise TowerError(f"fixture {name}: divisorial identity fails over {ctx!r}")
    return bound


def fixture_graph(name: str, p: int, ext: int = 2, modulus=None):
    """(bound, graph): the fixture bound over F_{p^ext} and its graph."""
    require_graph_size(p, ext)  # before the field: a modulus search is slow at large ext
    ctx = FieldCtx(p, ext, modulus)
    bound = load_fixture(name, p, ctx=ctx, check=False)
    return bound, TowerGraph(bound.f, bound.g, ctx)


# ---------------------------------------------------------------------------
# splitting polynomials from graphs

def chi_from_graph(graph: TowerGraph) -> Poly:
    """Characteristic polynomial over F_p of the set of f-values on the
    d-regular component's vertices.

    The values' codes and their conjugates under the Frobenius v -> v^p come
    from digit arrays, and each value's orbit size and least conjugate are
    read off them, so every orbit is split out at once.  The value set must
    be stable under the Frobenius, and each orbit's product of (x - v), of at
    most r factors, must lie over F_p; both are asserted, not assumed.  The
    orbit products of one size s are built together, s array steps of
    (x - v^(p^i)) on the digit arrays, and the factors are multiplied as int
    lists over F_p by a balanced product tree.
    """
    ctx = graph.ctx
    p, q, r = ctx.p, ctx.order, ctx.r
    # the values' distinct codes, ascending; not np.unique: its first call
    # imports numpy.ma, about 37 ms
    present = np.bincount(graph.f_codes[graph.regular_vertices()], minlength=q + 1) > 0
    if present[q]:
        raise TowerError("splitting values contain the point at infinity")
    codes = np.flatnonzero(present)
    field = FieldArrays(ctx)
    # conjugates[i] holds the digits of v^(p^i) for every value v
    conjugates = [field.digits(codes)]
    for _ in range(r - 1):
        conjugates.append(field.frobenius(conjugates[-1]))
    images = [field.codes(c) for c in conjugates]
    # an orbit that does not close has a conjugate missing from the set
    if not present[images[1 % r]].all():
        raise TowerError("splitting polynomial has coefficients outside F_p")
    size = np.full(len(codes), r)
    for i in range(r - 1, 0, -1):  # the least i >= 1 with v^(p^i) = v
        size[images[i] == codes] = i
    least = np.minimum.reduce(images)  # each orbit once, at its least value
    factors = []
    for s in range(1, r + 1):
        first = (size == s) & (least == codes)
        zero = field.digits(np.zeros(first.sum(), dtype=np.int64))
        poly = [field.digits(np.ones(first.sum(), dtype=np.int64))]  # a value per orbit
        for i in range(s):  # poly * (x - v^(p^i)), coefficients ascending
            scaled = [field.mul([d[first] for d in conjugates[i]], c) for c in poly]
            poly = [[(a - b) % p for a, b in zip(hi, lo)]
                    for hi, lo in zip([zero] + poly, scaled + [zero])]
        if any(d.any() for c in poly for d in c[1:]):
            raise TowerError("splitting polynomial has coefficients outside F_p")
        factors += np.stack([c[0] for c in poly], axis=1).tolist()
    while len(factors) > 1:  # a balanced product tree
        pairs = zip(factors[::2], factors[1::2])
        factors = [pmul(a, b, p) for a, b in pairs] + factors[len(factors) & ~1:]
    return Poly(FieldCtx(p), factors[0])


def splitting_points(p: int, ctx: FieldCtx) -> list:
    """The roots of the mod-p series truncation H_p over ctx, as points."""
    hp = series.truncate_H_mod_p(p)
    lifted = Poly(ctx, [c.coeffs[0] for c in hp.coeffs])
    return sorted((ProjPoint.affine(x) for x in set(lifted.roots())),
                  key=lambda q: q.sort_key())


def series_bridge(p: int) -> list:
    """(-3/p) H_p as ascending ints mod p: the splitting polynomial chi of a
    series-bridge fixture.  It is monic, as H_p leads with (-3/p)."""
    eps = legendre(-3, p)
    return [c * eps % p for c in prime_field_ints(series.truncate_H_mod_p(p).coeffs)]


def _preimage_size(r_f, formal: int, q: int, p: int) -> int:
    """|f^{-1}(T0)| for T0 the roots in F_q of r, from r o f of the given formal
    degree: its distinct roots in F_q, and infinity when its degree drops."""
    return len(pradical(r_f, q, p)) - 1 + (len(r_f) - 1 < formal)


# ---------------------------------------------------------------------------
# the modular model

def conjugate_check(p: int) -> dict:
    """Conjugating x^2 and (y^2+3y)/(y-1) by sigma = (x-1)/(x-9) and
    tau = (3x+1)/(x-1) must reproduce the new-tower pair over F_p."""
    require_prime(p)
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
    require_graph_size(p, ext)  # fixture_graph's steps, but S (gs-tower's i) is read before the graph
    bound = load_fixture(name, p, ctx=FieldCtx(p, ext, modulus), check=False)
    fx, ctx, f, g, support = bound.fixture, bound.ctx, bound.f, bound.g, bound.s
    graph = TowerGraph(f, g, ctx)

    fwd, bwd = feq.is_complete(f, g, support, ctx)
    _check(checks, "singular-support-complete", fwd and bwd,
           f"forward={fwd} backward={bwd}")
    _check(checks, "divisorial-identity", feq.divisorial_check(f, g, bound.s0, ctx))
    verdict = feq.lenstra_check(f, g, support, ctx)
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
        chi = prime_field_ints(chi_from_graph(graph).coeffs)
        _check(checks, "chi-degree", len(chi) == p, f"deg {len(chi) - 1}")
    except TowerError as exc:
        _check(checks, "chi-degree", False, str(exc))
        return _finish(name, p, ext, checks)

    h = series_bridge(p) if fx.series_bridge else chi  # the equation's polynomial
    if fx.series_bridge:
        _check(checks, "chi-series-bridge", chi == h, f"(-3/p) = {legendre(-3, p)}")
    if fx.chain:
        _check(checks, "singular-chain-shape", _gs_chain_ok(graph, ctx, fx.chain),
               f"{len(graph.singular_components())} singular components")
    holds, const = series.functional_equation_holds(h, f.num_coeffs, f.den_coeffs, p)
    _check(checks, "functional-equation", holds, f"constant {const}")
    if not fx.series_bridge:
        return _finish(name, p, ext, checks)

    # T0 is the set of roots of H_p over F_q, R = gcd(h, x^q - x) for h =
    # (-3/p) H_p; chi = R makes it the set of f-values on the d-regular vertices
    r = pradical(h, ctx.order, p)
    k = len(r) - 1
    s, t, const, r_f = feq.splitting_criterion(f, g, bound.s0, r)
    _check(checks, "splitting-values-rational", k == p - 1, f"{k} of {p - 1}")
    _check(checks, "regularness-criterion", const is not None, f"s={s} t={t} constant={const}")
    size = _preimage_size(r_f, f.d * k, ctx.order, p)
    _check(checks, "splitting-set-is-regular-component",
           r == chi and size == regs[0].size == f.d * k, f"preimage size {size}")
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
