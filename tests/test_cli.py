"""The command-line driver: exit codes and machine-readable output."""

import json
import time

import pytest

from rectower import fixtures, series
from rectower.cli import main
from rectower.ff import FieldCtx

CHI_23 = [-1, -3, 8, -1, 5, -7, -2, -9, 9, -9, 4, 0, 10, -7, -6, 8, -7, -2, 3,
          -10, 7, 8, 1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_series_command(capsys):
    code, out = run(capsys, "series", "--n", "8")
    assert code == 0
    assert json.loads(out)["a"] == [1, 3, 15, 93, 639, 4653, 35169, 272835]


def test_series_plain(capsys):
    code, out = run(capsys, "series", "--n", "4", "--plain")
    assert code == 0 and out.strip() == "1, 3, 15, 93"
    # --p adds H_p as a second line, coefficients ascending: a_0..a_6 mod 7
    code, out = run(capsys, "series", "--n", "3", "--p", "7", "--plain")
    assert code == 0 and out.splitlines() == ["1, 3, 15", "1, 3, 1, 2, 2, 5, 1"]


def test_chi_against_reference_row(capsys):
    code, out = run(capsys, "chi", "--p", "23", "--fixture", "new-tower")
    assert code == 0
    data = json.loads(out)
    assert data["chi"] == [c % 23 for c in CHI_23]
    assert data["series_bridge"] is True
    assert data["degree"] == 22


def test_graph_json(capsys):
    code, out = run(capsys, "graph", "--p", "5", "--fixture", "new-tower",
                    "--modulus", "2,-1,1")
    assert code == 0
    data = json.loads(out)
    sizes = sorted(c["size"] for c in data["components"] if c["class"] == "d-regular")
    assert sizes == [8]


def test_graph_dot(capsys):
    code, out = run(capsys, "graph", "--p", "5", "--dot")
    assert code == 0 and out.startswith("digraph")


def test_graph_ext_flag(capsys, monkeypatch):
    code, out = run(capsys, "graph", "--p", "5", "--ext", "1")
    assert code == 0
    data = json.loads(out)
    assert data["r"] == 1 and data["modulus"] is None
    assert sum(c["size"] for c in data["components"]) == 6
    # the graph reads neither S nor S0, so gs-tower needs no i in F_7;
    # verify reads S, and refuses F_7 before it builds a graph
    code, out = run(capsys, "graph", "--fixture", "gs-tower", "--p", "7", "--ext", "1")
    assert code == 0 and sum(c["size"] for c in json.loads(out)["components"]) == 8

    def no_graph(*_args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(fixtures, "TowerGraph", no_graph)
    assert main(["verify", "--fixture", "gs-tower", "--p", "7", "--ext", "1"]) == 2
    assert capsys.readouterr().err == "error: no square root of -1 in F_7\n"


def test_search_command(capsys):
    code, out = run(capsys, "search", "--p", "5")
    assert code == 0
    data = json.loads(out)
    assert [s["params"] for s in data["solutions"]] == [[1, 1, 0, 0, 3, 4]]


@pytest.mark.parametrize("argv, p, fixture", [
    (("chi", "--p", "13", "--fixture", "type-a-toy"), 13, "type-a-toy"),
    (("feq-check", "--fixture", "gs-tower", "--p", "5", "--ext", "1"), 5, "gs-tower"),
    (("genus", "--p", "5", "--ext", "1", "--n-max", "3"), 5, "new-tower"),
    (("chi", "--fixture", "gs-tower", "--p", "7", "--ext", "1"), 7, "gs-tower"),
    (("feq-check", "--fixture", "gs-tower", "--p", "11", "--ext", "3"), 11, "gs-tower"),
], ids=["chi", "feq-check", "genus", "chi-gs-7-ext1", "feq-check-gs-11-ext3"])
def test_chi_without_regular_component_is_a_failed_check(capsys, argv, p, fixture):
    # the graph of type-a-toy over F_{13^2}, and those of the towers over F_5
    # itself, have no d-regular component: a mathematical outcome of a valid
    # call, so exit 1 with a JSON report.  gs-tower's S holds i, which is not
    # in F_7 or F_{11^3}, but only verify reads S
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    data = json.loads(captured.out)
    assert (data["p"], data["fixture"], data["ok"]) == (p, fixture, False)
    assert "no d-regular component" in data["error"]


def test_feq_check_both_fixtures(capsys):
    code, out = run(capsys, "feq-check", "--p", "13")
    assert code == 0 and json.loads(out)["holds"] is True
    code, out = run(capsys, "feq-check", "--p", "13", "--fixture", "gs-tower")
    assert code == 0 and json.loads(out)["holds"] is True


def test_series_check_command(capsys):
    code, out = run(capsys, "series-check", "--order", "20", "--p", "5")
    assert code == 0
    data = json.loads(out)
    assert data["ode"] and data["li_trick"]


def test_genus_table(capsys):
    code, out = run(capsys, "genus", "--n-max", "5")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[3] == {"n": 4, "delta": 4, "genus": 9}


def test_genus_with_graph(capsys):
    code, out = run(capsys, "genus", "--n-max", "6", "--p", "5")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[5]["N_lower"] == 4 * 2 ** 6


def test_chi_invariants_small_primes(capsys):
    from rectower.ff import legendre

    for p in (5, 7, 11, 13, 17, 19, 23):
        code, out = run(capsys, "chi", "--p", str(p))
        assert code == 0
        data = json.loads(out)
        assert data["chi"][0] == legendre(-3, p) % p  # constant term
        assert data["series_bridge"] is True


def test_verify_command(capsys):
    for fixture, p in (("new-tower", "5"), ("gs-tower", "5"), ("type-a-toy", "5")):
        code, out = run(capsys, "verify", "--fixture", fixture, "--p", p)
        assert code == 0, out
        assert json.loads(out)["ok"] is True


def test_verify_exit_codes_across_primes(capsys):
    for fixture in ("new-tower", "gs-tower"):
        for p in ("7", "13"):
            code, out = run(capsys, "verify", "--fixture", fixture, "--p", p)
            assert code == 0, out


def test_conjugate_command(capsys):
    code, out = run(capsys, "conjugate", "--p", "7")
    assert code == 0 and json.loads(out)["ok"] is True


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["chi"])  # missing --p
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify", "--fixture", "unknown", "--p", "5"])
    assert err.value.code == 2


def test_domain_error_exit_code(capsys):
    code = main(["chi", "--p", "4", "--fixture", "new-tower"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_bad_modulus_reports_usage_error(capsys):
    code = main(["graph", "--p", "5", "--modulus", "a^2-a+2"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("graph", "--p", "5", "--ext", "0"),
    ("graph", "--p", "5", "--ext", "1", "--modulus", "2,-1,1"),
    ("series-check", "--order", "2"),
    ("series", "--n", "-3"),
    ("genus", "--n-max", "0"),
    ("graph", "--p", "2053"),
    ("series", "--n", "5000"),
    ("series", "--n", "5000", "--plain"),
    ("feq-check", "--p", "13", "--ext", "0"),
    ("feq-check", "--p", "13", "--modulus", "x"),
    ("series", "--n", "3", "--p", "0"),
    ("genus", "--n-max", "3", "--p", "0"),
])
def test_out_of_range_arguments_are_usage_errors(capsys, argv):
    # --ext below 1, a modulus for the prime field, a series order too
    # small for the ODE check, empty series and genus tables, a field
    # above the graph size cap, a_4511 onward, which have more digits
    # than the default int-to-str limit of 4300, and a bad --ext or
    # --modulus where feq-check builds no graph, and --p 0, which is no
    # prime rather than no --p: rejected with exit 2,
    # never run on silently and never a traceback
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("verify", "--fixture", "new-tower", "--p", "2053"),
    ("verify", "--fixture", "gs-tower", "--p", "2053"),
    ("chi", "--p", "2053"),
    # with a malformed --modulus too: every graph command names the cap first
    ("verify", "--fixture", "gs-tower", "--p", "2053", "--ext", "2", "--modulus", "1,x,1"),
    ("graph", "--fixture", "gs-tower", "--p", "2053", "--ext", "2", "--modulus", "1,x,1"),
    ("chi", "--fixture", "gs-tower", "--p", "2053", "--ext", "2", "--modulus", "1,x,1"),
    ("genus", "--n-max", "3", "--p", "2053", "--ext", "2", "--modulus", "1,x,1"),
])
def test_above_the_graph_cap_stops_before_field_work(capsys, monkeypatch, argv):
    # square roots answer at q = 2053^2, so the graph's cap is what stops
    # these calls, and it does so before any pass over the field
    def forbid(self):
        raise RuntimeError("a pass over the whole field")

    monkeypatch.setattr(FieldCtx, "elements", forbid)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("error:")
    assert "graphs are capped" in captured.err


@pytest.mark.parametrize("argv, err", [
    (("series", "--n", "1", "--p", "3"), "error: need a prime >= 5, got 3\n"),
    (("series", "--n", "1", "--p", "4"), "error: need a prime >= 5, got 4\n"),
    (("series-check", "--p", "9"), "error: need a prime >= 5, got 9\n"),
    (("search", "--p", "3"), "error: the search needs a prime >= 5, got 3\n"),
    (("search", "--p", "9"), "error: the search needs a prime >= 5, got 9\n"),
    (("verify", "--fixture", "new-tower", "--p", "3"),
     "error: fixtures need a prime >= 5, got 3\n"),
    (("conjugate", "--p", "3"), "error: need a prime >= 5, got 3\n"),
    (("conjugate", "--p", "15"), "error: need a prime >= 5, got 15\n"),
])
def test_bad_prime_messages(capsys, argv, err):
    assert run_any(capsys, argv) == (2, "", err)


def test_series_p_reads_the_table_without_a_poly(capsys, monkeypatch):
    def forbid(p):
        raise RuntimeError("a Poly of p field elements")

    monkeypatch.setattr(series, "truncate_H_mod_p", forbid)
    code, out = run(capsys, "series", "--n", "3", "--p", "7", "--plain")
    assert code == 0 and out.splitlines() == ["1, 3, 15", "1, 3, 1, 2, 2, 5, 1"]


def test_series_p_above_the_table_cap_builds_nothing(capsys, monkeypatch):
    monkeypatch.setattr(series, "MAX_TABLE_ENTRIES", 100)
    monkeypatch.setattr(series, "_A_MOD_CACHE", {})
    assert run_any(capsys, ["series", "--n", "1", "--p", "97"])[0] == 0  # 97 entries
    code, out, err = run_any(capsys, ["series", "--n", "1", "--p", "101"])
    assert (code, out) == (2, "")
    assert err == "error: index 100 at p = 101 needs more than 100 table entries\n"
    assert list(series._A_MOD_CACHE) == [97]


def test_output_is_deterministic(capsys):
    _, first = run(capsys, "chi", "--p", "7")
    _, second = run(capsys, "chi", "--p", "7")
    assert first == second


REUSED_PARSER_ARGV = (
    ("verify", "--fixture", "new-tower", "--p", "7"),
    ("chi", "--p", "11"),
    ("series", "--n", "6", "--p", "7"),
    ("chi", "--p", "11", "--ext", "x"),  # argparse rejects it: exit 2
    ("verify", "--fixture", "new-tower", "--p", "7"),
)


def run_any(capsys, argv):
    """Exit code, stdout and stderr of one main call, argparse exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    # one parser per command, each built on the command's first call
    from rectower import cli
    monkeypatch.setattr(cli, "_PARSERS", {})
    reused = [run_any(capsys, argv) for argv in REUSED_PARSER_ARGV]
    parsers = dict(cli._PARSERS)
    assert sorted(parsers) == ["chi", "series", "verify"]
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0]
    fresh = []
    for argv in REUSED_PARSER_ARGV:
        monkeypatch.setattr(cli, "_PARSERS", {})
        fresh.append(run_any(capsys, argv))
        assert list(cli._PARSERS) == [argv[0]]
        assert cli._PARSERS[argv[0]] is not parsers[argv[0]]
    assert reused == fresh


def full_parser_run(capsys, argv):
    """What main prints and returns when the full parser reads argv."""
    from rectower import cli
    try:
        args = cli.build_parser().parse_args(list(argv))
        code = args.func(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COMMAND_NAMES = ("series", "chi", "graph", "search", "feq-check", "series-check", "genus",
                 "verify", "conjugate")


@pytest.mark.parametrize("argv", [
    ("search", "--p", "7", "extra"),
    ("search",),
    ("chi", "--p", "x"),
    ("verify", "--p", "7"),
    ("feq-check", "-h"),
    ("search", "--p", "7"),
] + [(name, "--help") for name in COMMAND_NAMES])
def test_one_command_parser_reads_as_the_full_one(capsys, monkeypatch, argv):
    from rectower import cli
    monkeypatch.setattr(cli, "_PARSERS", {})
    assert run_any(capsys, argv) == full_parser_run(capsys, argv)
    assert list(cli._PARSERS) == [argv[0]]


@pytest.mark.parametrize("argv", [(), ("--help",), ("bogus",), ("-h", "search"), ("--p", "7")])
def test_no_leading_command_gets_the_full_parser(capsys, monkeypatch, argv):
    from rectower import cli
    monkeypatch.setattr(cli, "_PARSERS", {})
    code, out, err = run_any(capsys, argv)
    assert code == (0 if "--help" in argv or "-h" in argv else 2)
    assert list(cli._PARSERS) == [None]
    assert "{" + ",".join(COMMAND_NAMES) + "}" in out + err


@pytest.mark.parametrize("argv", [
    ("chi", "--p", "5", "--ext", "100"),
    ("genus", "--n-max", "3", "--p", "5", "--ext", "100"),
    ("chi", "--p", "5", "--ext", "200"),
    ("verify", "--fixture", "new-tower", "--p", "5", "--ext", "1000"),
    ("feq-check", "--fixture", "gs-tower", "--p", "5", "--ext", "100"),
])
def test_graph_cap_is_checked_before_the_field(capsys, monkeypatch, argv):
    # the default modulus of F_{5^100} alone took seconds to find: the
    # graph's cap on p^ext + 1 refuses these calls before any field is built
    def forbid(p, r):
        raise RuntimeError("a modulus search")

    monkeypatch.setattr(FieldCtx, "_default_modulus", staticmethod(forbid))
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "graphs are capped" in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    ("feq-check", "--p", "5", "--ext", "1000"),
    ("feq-check", "--p", "5", "--ext", "1"),
    ("feq-check", "--p", "7", "--ext", "2", "--modulus", "1,0,1"),
])
def test_feq_check_on_the_series_bridge_builds_no_extension(capsys, monkeypatch, argv):
    # the bridge reads H_p over F_p: a valid --ext and --modulus change
    # nothing, and no default modulus of degree --ext is searched for
    def forbid(p, r):
        raise RuntimeError("a modulus search")

    p = argv[2]
    plain = run(capsys, "feq-check", "--p", p)
    monkeypatch.setattr(FieldCtx, "_default_modulus", staticmethod(forbid))
    start = time.perf_counter()
    assert run(capsys, *argv) == plain
    assert time.perf_counter() - start < 1.0
    assert plain[0] == 0 and json.loads(plain[1])["holds"] is True


# every subcommand with the options it takes, each at a valid value
SUBCOMMANDS = {
    "series": {"--n": "3"},
    "chi": {"--p": "5"},
    "graph": {"--p": "5"},
    "search": {"--p": "5"},
    "feq-check": {"--p": "5"},
    "series-check": {"--order": "20", "--p": "5"},
    "genus": {"--n-max": "3", "--p": "5"},
    "verify": {"--fixture": "new-tower", "--p": "5"},
    "conjugate": {"--p": "5"},
}
BOUNDARY_VALUES = {
    "--p": ("-7", "0", "1", "4", "9", "2053"),
    "--ext": ("-1", "0", "40", "1000"),
    "--modulus": ("1,x,1",),
    "--n": ("-1", "0", "1"),
    "--n-max": ("-1", "0", "1"),
    "--order": ("-1", "0", "1"),
}
EXT_OPTIONS = ("chi", "graph", "feq-check", "genus", "verify")  # --ext and --modulus


def _boundary_cases():
    for command, valid in SUBCOMMANDS.items():
        options = dict(valid)
        if command in EXT_OPTIONS:
            options.update({"--ext": "2", "--modulus": None})
        for option in options:
            for value in BOUNDARY_VALUES.get(option, ()):
                argv = [command]
                for name, default in {**options, option: value}.items():
                    if default is not None:
                        argv += [name, default]
                yield pytest.param(argv, id=" ".join(argv))


@pytest.mark.parametrize("argv", list(_boundary_cases()))
def test_boundary_values_exit_cleanly(capsys, argv):
    # a documented exit code, no traceback, and nothing on stdout for a
    # usage error
    code, out, err = run_any(capsys, argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
