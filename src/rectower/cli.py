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
from .upoly import prime_field_ints


def _parse_modulus(text):
    if text is None:
        return None
    try:
        return [int(c) for c in text.split(",")]
    except ValueError as exc:
        raise TowerError(f"modulus must be comma-separated integer coefficients "
                         f"(ascending), got {text!r}") from exc


def _graph_modulus(args):
    """--modulus, parsed after the graph cap check: a capped call names the cap."""
    tgraph.require_graph_size(args.p, args.ext)
    return _parse_modulus(args.modulus)


def _fixture_graph(args):
    """fixtures.fixture_graph from --fixture/--p/--ext/--modulus."""
    return fixtures.fixture_graph(args.fixture, args.p, args.ext, _graph_modulus(args))


def _emit(obj):
    print(json.dumps(obj, indent=2))


def cmd_series(args) -> int:
    if args.n < 1:
        raise BadIndex(f"--n must be >= 1, got {args.n}")
    # H_p's ints off the bulk table, whose cap is checked before it is built
    hp = None if args.p is None else series._a_mod_table(args.p, args.p - 1)[:args.p]
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
    chi = prime_field_ints(fixtures.chi_from_graph(graph).coeffs)
    out = {
        "p": args.p,
        "fixture": args.fixture,
        "chi": chi,
        "degree": len(chi) - 1,
        "legendre_minus3": legendre(-3, args.p),
    }
    if bound.fixture.series_bridge:
        out["series_bridge"] = chi == fixtures.series_bridge(args.p)
    _emit(out)
    return 0


def cmd_graph(args) -> int:
    _, graph = _fixture_graph(args)
    print(tgraph.graph_export(graph, "dot" if args.dot else "json", args.edges))
    return 0


def cmd_search(args) -> int:
    solutions = search.search(args.p)
    _emit({"p": args.p, "solutions": [s.to_json_obj() for s in solutions]})
    return 0


def cmd_feq_check(args) -> int:
    if fixtures.FIXTURES[args.fixture].series_bridge:  # (-3/p) H_p stands in for chi
        # no graph and no F_{p^ext}: the bridge lives over F_p.  A bad --ext and
        # a given --modulus fail as F_{p^ext} fails on them, but no default
        # modulus of degree --ext is searched for
        modulus = _parse_modulus(args.modulus)
        if args.ext < 1 or modulus is not None:
            FieldCtx(args.p, args.ext, modulus)
        bound = fixtures.load_fixture(args.fixture, FieldCtx(args.p))
        h = fixtures.series_bridge(args.p)
    else:
        bound, graph = _fixture_graph(args)
        h = prime_field_ints(fixtures.chi_from_graph(graph).coeffs)
    holds, constant = series.functional_equation_holds(
        h, bound.f.num_coeffs, bound.f.den_coeffs, args.p)
    _emit({"fixture": args.fixture, "p": args.p, "holds": holds,
           "constant": None if constant is None else str(constant)})
    return 0 if holds else 1


def cmd_genus(args) -> int:
    if args.n_max < 1:
        raise BadIndex(f"--n-max must be >= 1, got {args.n_max}")
    if args.p is not None:
        _, graph = _fixture_graph(args)
        rows = genus.asymptotic_report(args.n_max, graph)
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
                                     modulus=_graph_modulus(args))
    _emit(report)
    return 0 if report["ok"] else 1


def cmd_conjugate(args) -> int:
    report = fixtures.conjugate_check(args.p)
    _emit(report)
    return 0 if report["ok"] else 1


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


def _opt(flag, **kwargs):
    return flag, kwargs


_P = _opt("--p", type=int, required=True)
_EXT = _opt("--ext", type=int, default=2)
_MODULUS = _opt("--modulus", default=None)
_FIXTURE = _opt("--fixture", default="new-tower", choices=sorted(fixtures.FIXTURES))

# name -> (handler, help, options in order, parser-level defaults)
_COMMANDS = {
    "series": (cmd_series, "integer coefficients a_n and their mod-p truncations", (
        _opt("--n", type=int, required=True, help="number of terms"),
        _opt("--p", type=int, default=None, help="also print H_p for this prime"),
        _opt("--plain", action="store_true", help="plain comma-separated list")), {}),
    "chi": (cmd_chi, "splitting polynomial from the graph over F_{p^ext}", (
        _P, _FIXTURE, _EXT,
        _opt("--modulus", default=None,
             help="extension modulus, ascending integer coefficients, e.g. 2,-1,1")), {}),
    "graph": (cmd_graph, "build and export the correspondence graph", (
        _P, _FIXTURE, _EXT, _MODULUS,
        _opt("--dot", action="store_true", help="DOT output instead of JSON"),
        _opt("--edges", action="store_true", help="include the edge list in JSON")), {}),
    "search": (cmd_search, "solve for the towers over F_p with the prescribed singular graph",
               (_P,), {}),
    "feq-check": (cmd_feq_check, "polynomial functional equation check", (
        _P,
        _opt("--fixture", default="new-tower",
             choices=[n for n, fx in fixtures.FIXTURES.items() if fx.splits]),
        _EXT, _MODULUS), {}),
    "series-check": (cmd_series_check, "series-level identities at a given order", (
        _opt("--order", type=int, default=60), _opt("--p", type=int, default=5)), {}),
    "genus": (cmd_genus, "genus table, optionally with point-count ratios", (
        _opt("--n-max", type=int, required=True), _opt("--p", type=int, default=None),
        _EXT, _MODULUS), {"fixture": "new-tower"}),  # the genus formulas are this tower's
    "verify": (cmd_verify, "run the full fixture pipeline", (
        _opt("--fixture", required=True, choices=sorted(fixtures.FIXTURES)), _P, _EXT,
        _MODULUS), {}),
    "conjugate": (cmd_conjugate, "check the modular model conjugacy", (_P,), {}),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser for every command, or for the one command given.  A
    one-command parser keeps every command in its usage line, so its own
    errors read as the full parser's do; the full parser keeps argparse's
    default, which names the command slot `command` in its errors."""
    parser = argparse.ArgumentParser(
        prog="rectower",
        description="recursive towers over finite fields: graphs, splitting "
                    "certificates, series identities, and equation search")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (func, help_text, options, defaults) in _COMMANDS.items():
        if command in (None, name):
            s = sub.add_parser(name, help=help_text)
            s.set_defaults(func=func, **defaults)
            for flag, kwargs in options:
                s.add_argument(flag, **kwargs)
    return parser


_PARSERS = {}  # command (None for all of them) -> its parser, built on first use


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only a leading command name selects a one-command parser; --help, a
    # missing or an unknown command get the full one and its messages
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if command not in _PARSERS:
        _PARSERS[command] = build_parser(command)
    args = _PARSERS[command].parse_args(argv)
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
