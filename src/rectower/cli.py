"""Command-line driver: reproducible JSON workflows over the library.

Every subcommand prints JSON on stdout (DOT with --dot on the graph
command).  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fixtures, genus, search, series, tgraph
from .errors import BadIndex, NoRegularComponent, TowerError
from .ff import FieldCtx, legendre


def _parse_modulus(text):
    if text is None:
        return None
    try:
        return [int(c) for c in text.split(",")]
    except ValueError as exc:
        raise TowerError(f"modulus must be comma-separated integer coefficients "
                         f"(ascending), got {text!r}") from exc


def _fixture(args):
    """The fixture bound over F_{p^ext}, from --p/--ext/--modulus."""
    ctx = FieldCtx(args.p, args.ext, _parse_modulus(args.modulus))
    return fixtures.load_fixture(args.fixture, args.p, ctx=ctx, check=False)


def _fixture_graph(args):
    """The fixture bound over F_{p^ext} from --p/--ext/--modulus, and its graph."""
    tgraph.require_graph_size(args.p, args.ext)  # before the field's modulus search
    bound = _fixture(args)
    return bound, tgraph.TowerGraph(bound.f, bound.g, bound.ctx)


def _emit(obj):
    print(json.dumps(obj, indent=2))


def cmd_series(args) -> int:
    if args.n < 1:
        raise BadIndex(f"--n must be >= 1, got {args.n}")
    hp = None if args.p is None else [c.coeffs[0] for c in series.truncate_H_mod_p(args.p).coeffs]
    # checked as the values come, so a huge --n fails at the first value that
    # could not be printed instead of after computing them all
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    too_long = 10 ** limit if limit else None
    values = []
    for i, a in enumerate(series._a_exact(args.n - 1)):
        if too_long is not None and a >= too_long:
            raise BadIndex(f"--n {args.n}: a_{i} has more than {limit} digits, "
                           f"the interpreter's int-to-str limit")
        values.append(a)
    if args.plain:  # a_n on one line, then H_p's ascending coefficients
        print("\n".join(", ".join(map(str, row)) for row in (values, hp) if row is not None))
        return 0
    out = {"n": args.n, "a": values}
    if hp is not None:
        out["p"] = args.p
        out["H_p"] = hp
    _emit(out)
    return 0


def cmd_chi(args) -> int:
    bound, graph = _fixture_graph(args)
    chi = fixtures.chi_from_graph(graph)
    out = {
        "p": args.p,
        "fixture": args.fixture,
        "chi": [c.coeffs[0] for c in chi.coeffs],
        "degree": chi.degree,
        "legendre_minus3": legendre(-3, args.p),
    }
    if bound.fixture.series_bridge:
        out["series_bridge"] = chi * out["legendre_minus3"] == series.truncate_H_mod_p(args.p)
    _emit(out)
    return 0


def cmd_graph(args) -> int:
    _, graph = _fixture_graph(args)
    if args.dot:
        print(tgraph.graph_export(graph, "dot"))
    else:
        _emit(tgraph.graph_json_obj(graph, include_edges=args.edges))
    return 0


def cmd_search(args) -> int:
    solutions = search.search(args.p)
    _emit({"p": args.p, "solutions": [s.to_json_obj() for s in solutions]})
    return 0


def cmd_feq_check(args) -> int:
    if fixtures.FIXTURES[args.fixture].series_bridge:  # (-3/p) H_p stands in for chi
        bound, chi = _fixture(args), None  # no graph, but --ext and --modulus are checked
    else:
        bound, graph = _fixture_graph(args)
        chi = fixtures.chi_from_graph(graph)
    holds, constant = fixtures.functional_equation(bound, chi)
    _emit({"fixture": args.fixture, "p": args.p, "holds": holds,
           "constant": None if constant is None else str(constant)})
    return 0 if holds else 1


def cmd_genus(args) -> int:
    if args.n_max < 1:
        raise BadIndex(f"--n-max must be >= 1, got {args.n_max}")
    if args.p is not None:
        _, graph = _fixture_graph(args)
        rows = genus.asymptotic_report(args.p, args.n_max, graph)
        _emit({"p": args.p, "ext": graph.ctx.r,
               "note": "splitting over this extension degree is experimental",
               "rows": [r.to_json_obj() for r in rows]})
    else:
        rows = [{"n": n,
                 "delta": genus.delta(n) if n >= 2 else None,
                 "genus": genus.genus_closed(n)}
                for n in range(1, args.n_max + 1)]
        _emit({"rows": rows})
    return 0


def cmd_verify(args) -> int:
    report = fixtures.verify_fixture(args.fixture, args.p, ext=args.ext,
                                     modulus=_parse_modulus(args.modulus))
    _emit(report)
    return 0 if report["ok"] else 1


def cmd_conjugate(args) -> int:
    report = fixtures.conjugate_check(args.p)
    _emit(report)
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectower",
        description="recursive towers over finite fields: graphs, splitting "
                    "certificates, series identities, and equation search")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        s = sub.add_parser(name, **kwargs)
        s.set_defaults(func=func)
        return s

    s = add("series", cmd_series, help="integer coefficients a_n and their mod-p truncations")
    s.add_argument("--n", type=int, required=True, help="number of terms")
    s.add_argument("--p", type=int, default=None, help="also print H_p for this prime")
    s.add_argument("--plain", action="store_true", help="plain comma-separated list")

    s = add("chi", cmd_chi, help="splitting polynomial from the graph over F_{p^ext}")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--fixture", default="new-tower", choices=sorted(fixtures.FIXTURES))
    s.add_argument("--ext", type=int, default=2)
    s.add_argument("--modulus", default=None,
                   help="extension modulus, ascending integer coefficients, e.g. 2,-1,1")

    s = add("graph", cmd_graph, help="build and export the correspondence graph")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--fixture", default="new-tower", choices=sorted(fixtures.FIXTURES))
    s.add_argument("--ext", type=int, default=2)
    s.add_argument("--modulus", default=None)
    s.add_argument("--dot", action="store_true", help="DOT output instead of JSON")
    s.add_argument("--edges", action="store_true", help="include the edge list in JSON")

    s = add("search", cmd_search,
            help="solve for the towers over F_p with the prescribed singular graph")
    s.add_argument("--p", type=int, required=True)

    s = add("feq-check", cmd_feq_check, help="polynomial functional equation check")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--fixture", default="new-tower",
                   choices=[n for n, fx in fixtures.FIXTURES.items() if fx.rho_expr is not None])
    s.add_argument("--ext", type=int, default=2)
    s.add_argument("--modulus", default=None)

    s = add("series-check", cmd_series_check, help="series-level identities at a given order")
    s.add_argument("--order", type=int, default=60)
    s.add_argument("--p", type=int, default=5)

    s = add("genus", cmd_genus, help="genus table, optionally with point-count ratios")
    s.set_defaults(fixture="new-tower")  # the genus formulas are this tower's
    s.add_argument("--n-max", type=int, required=True)
    s.add_argument("--p", type=int, default=None)
    s.add_argument("--ext", type=int, default=2)
    s.add_argument("--modulus", default=None)

    s = add("verify", cmd_verify, help="run the full fixture pipeline")
    s.add_argument("--fixture", required=True, choices=sorted(fixtures.FIXTURES))
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--ext", type=int, default=2)
    s.add_argument("--modulus", default=None)

    s = add("conjugate", cmd_conjugate, help="check the modular model conjugacy")
    s.add_argument("--p", type=int, required=True)

    return parser


def cmd_series_check(args) -> int:
    n = args.order
    out = {
        "order": n,
        "hypergeometric_identity": series.hypergeom_identity_check(n),
        "ode": series.ode_check(n),
        "series_functional_equation": series.series_feq_check(n),
        "li_trick": series.li_trick_check(args.p, n),
        "p": args.p,
    }
    _emit(out)
    return 0 if all(v for k, v in out.items() if isinstance(v, bool)) else 1


_PARSER = None  # built on the first main call, not at import


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except NoRegularComponent as exc:
        # a valid call whose graph has nothing to split: a failed check, not misuse
        _emit({"p": args.p, "fixture": args.fixture, "ok": False, "error": str(exc)})
        return 1
    except (TowerError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
