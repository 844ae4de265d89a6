"""The four workloads: their operations, made from a seed, and the checks
that every operation's output must pass.

An operation is one public call, written as a JSON-ready list:

* ``["cli", argv]``: ``rectower.cli.main(argv)`` with stdout captured;
* ``["lucas", n, p]``: ``rectower.series.lucas_check(n, p)``, which has no
  subcommand.

The seed only orders the operations (and picks the Lucas indices), so every
seed does the same work; the primes and sizes are fixed so that cycle times
stay comparable between runs.
"""

from __future__ import annotations

import json
import random

import reference


# The largest p whose F_{p^2} each workload works in; the traced run times
# field and polynomial operations there.
FIELD_P = {"verify-sweep": 43, "chi-genus": 97, "search-scan": 17, "series-congruence": 13}

VERIFY_CASES = (("new-tower", 11), ("new-tower", 23), ("new-tower", 31),
                ("gs-tower", 13), ("gs-tower", 29), ("gs-tower", 43),
                ("type-a-toy", 7), ("type-a-toy", 19), ("type-a-toy", 31))
CHI_P = 89
GENUS_P, GENUS_N = 97, 60
SEARCH_PRIMES = (11, 13, 17)
LUCAS_PRIMES = (7, 11, 13)
LUCAS_N_MAX = 10_000
LUCAS_PER_PRIME = 200
SERIES_N, SERIES_P = 200, 13
SERIES_CHECK_ORDER, SERIES_CHECK_P = 60, 11


def _cli(*args) -> list:
    return ["cli", [str(a) for a in args]]


def make_ops(name: str, seed: int) -> list:
    rng = random.Random(f"{name}:{seed}")
    if name == "verify-sweep":
        ops = [_cli("verify", "--fixture", fx, "--p", p) for fx, p in VERIFY_CASES]
    elif name == "chi-genus":
        ops = [_cli("chi", "--p", CHI_P), _cli("genus", "--p", GENUS_P, "--n-max", GENUS_N)]
    elif name == "search-scan":
        ops = [_cli("search", "--p", p) for p in SEARCH_PRIMES]
    elif name == "series-congruence":
        # Each prime's first call asks for the largest index, so its table is
        # built once at full size and every later call reads it; random first
        # indices would make the table grow by doubling, and the work with it,
        # depend on the seed.
        primes = list(LUCAS_PRIMES)
        rng.shuffle(primes)
        ops = [_cli("series-check", "--order", SERIES_CHECK_ORDER, "--p", SERIES_CHECK_P),
               _cli("series", "--n", SERIES_N, "--p", SERIES_P)]
        rng.shuffle(ops)
        for p in primes:
            ops.append(["lucas", LUCAS_N_MAX, p])
            ops += [["lucas", rng.randint(1, LUCAS_N_MAX), p] for _ in range(LUCAS_PER_PRIME - 1)]
        return ops
    else:
        raise KeyError(name)
    rng.shuffle(ops)
    return ops


def op_label(op) -> str:
    if op[0] == "lucas":
        return f"lucas_check p={op[2]}"
    return " ".join(op[1])


class Checker:
    """Checks outputs against ``reference``; the reference tables are made
    once, before any worker starts, and outside every timed region."""

    def __init__(self, name: str):
        reference.self_check()
        self.h = {}
        self.a = []
        self.a_mod = {}
        if name == "chi-genus":
            self.h[CHI_P] = reference.h_mod_p(CHI_P)
        elif name == "series-congruence":
            self.h[SERIES_P] = reference.h_mod_p(SERIES_P)
            self.a = reference.a_values(SERIES_N - 1)
            self.a_mod = reference.a_mod_tables(LUCAS_N_MAX, LUCAS_PRIMES)

    def check(self, op, result) -> str | None:
        """None when the output is right, else why it is not."""
        if result.get("error"):
            return result["error"]
        if op[0] == "lucas":
            n, p = op[1], op[2]
            want = reference.lucas_expected(self.a_mod[p], n, p)
            return None if result["value"] is want else f"lucas_check({n}, {p}) = {result['value']}"
        argv = op[1]
        if result["rc"] != 0:
            return f"exit code {result['rc']}: {result['err'][-300:]}"
        try:
            out = json.loads(result["out"])
        except ValueError:
            return "output is not JSON"
        opts = dict(zip(argv[1::2], argv[2::2]))
        return getattr(self, "_" + argv[0].replace("-", "_"))(out, opts)

    @staticmethod
    def _verify(out, opts):
        p = int(opts["--p"])
        if out.get("fixture") != opts["--fixture"] or out.get("p") != p:
            return "report names another fixture or prime"
        checks = out.get("checks") or []
        bad = [c["name"] for c in checks if c.get("ok") is not True]
        if not checks or bad or out.get("ok") is not True:
            return f"checks failed: {bad}"
        return None

    def _chi(self, out, opts):
        p = int(opts["--p"])
        chi = out.get("chi") or []
        eps = reference.legendre_minus3(p)
        if out.get("degree") != p - 1 or len(chi) != p:
            return f"chi has degree {out.get('degree')}, expected {p - 1}"
        if out.get("legendre_minus3") != eps:
            return "wrong (-3/p)"
        if [eps * c % p for c in chi] != self.h[p]:
            return "chi * (-3/p) differs from H_p"
        if out.get("series_bridge") is not True:
            return "series_bridge is not true"
        return None

    @staticmethod
    def _genus(out, opts):
        p, n_max = int(opts["--p"]), int(opts["--n-max"])
        rows = out.get("rows") or []
        if out.get("p") != p or [r.get("n") for r in rows] != list(range(1, n_max + 1)):
            return "wrong rows"
        for r in rows:
            n = r["n"]
            if r.get("genus") != reference.genus_closed(n):
                return f"genus at n={n}"
            if r.get("N_lower") != reference.splitting_paths(p, n):
                return f"N_lower at n={n}"
        return None

    @staticmethod
    def _search(out, opts):
        p = int(opts["--p"])
        sols = out.get("solutions") or []
        if out.get("p") != p or len(sols) != 1:
            return f"{len(sols)} solutions"
        if sols[0].get("params") != reference.search_solution(p):
            return f"solution {sols[0].get('params')}"
        return None

    def _series(self, out, opts):
        n, p = int(opts["--n"]), int(opts["--p"])
        if out.get("a") != self.a[:n]:
            return "a_n differ from the recurrence"
        if out.get("p") != p or out.get("H_p") != self.h[p]:
            return "H_p differs from the comb sums"
        return None

    @staticmethod
    def _series_check(out, opts):
        flags = {k: v for k, v in out.items() if isinstance(v, bool)}
        if out.get("order") != int(opts["--order"]) or out.get("p") != int(opts["--p"]):
            return "report names another order or prime"
        if len(flags) != 4 or not all(flags.values()):
            return f"flags {flags}"
        return None
