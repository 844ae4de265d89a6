"""Steadiness check: two sets of runs of the same commit, compared against
the bounds in BENCHMARK.json.

    python3 benchmark/steady.py [--runs 10] [--first-seed 1]

Set A uses seeds first-seed .. first-seed+runs-1, set B the next runs seeds;
every run is `run.py --trace 0` for run_seconds, on every workload.  The two
sets are interleaved: for each seed index i, every workload runs A[i] and
then B[i], so a change in host speed that lasts minutes falls on both sets
alike.  For each workload and end-to-end metric it prints each set's median
and spread (the distance between the first and third quartile as a share of
the median) and how far B's median lies from A's, either way.  A metric
passes when its spreads are within its bound, B's median is within the
bound of A's, and the share of failed operations is the same in both sets.
The spread of setup_s is printed but not gated: it is well under a second
of interpreter start and import, so its spread follows the host's
scheduling more than the program; its median is gated like the others.
Exits 1 if anything fails.  Raw values go to .bench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    raw = {w["name"]: {"A": [], "B": []} for w in spec["workloads"]}
    for i in range(args.runs):
        for workload, sets in raw.items():
            for set_no, set_name in enumerate("AB"):
                seed = args.first_seed + set_no * args.runs + i
                sets[set_name].append(run_once(workload, seed, spec["run_seconds"]))
    out = ROOT / ".bench_out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))

    ok = True
    for workload, sets in raw.items():
        shares = {k: {r["failed"] / r["attempted"] for r in runs} for k, runs in sets.items()}
        attempted = [r["attempted"] for r in sets["A"] + sets["B"]]
        failed = sum(r["failed"] for r in sets["A"] + sets["B"])
        same = len(shares["A"] | shares["B"]) == 1
        ok &= same
        print(f"{workload}: attempted {min(attempted)}..{max(attempted)} per run, "
              f"failed {failed}, failed share {'same' if same else 'DIFFERS'} in A and B")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            sa, sb = spread(a), spread(b)
            ma, mb = statistics.median(a), statistics.median(b)
            apart = abs(mb - ma) / ma
            passed = apart <= bound and (name == "setup_s" or max(sa, sb) <= bound)
            ok &= passed
            print(f"  {name:12s} A {ma:10.4f} spread {sa:6.2%}   B {mb:10.4f} spread {sb:6.2%}"
                  f"   B vs A {(mb - ma) / ma:+7.2%}   bound {bound:.0%}"
                  f"   {'ok' if passed else 'FAIL'} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
