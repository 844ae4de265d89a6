"""rectower benchmark: one run of one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each cycle runs the workload's whole list of
operations once, in a fresh worker interpreter (worker.py), one worker at a
time, so per-process caches start cold as they do for every CLI call.
Cycles repeat while another one still fits in S seconds (at least one runs).
Every output is checked against reference.py in this process, outside the
timed regions.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics (medians over cycles):

    setup_s      worker start until rectower is imported and inputs bound,
                 also timed in SETUP_ONLY_PER_CYCLE workers without operations
                 after each cycle
    cycle_s      wall time of the operations, checks excluded
    peak_rss_mb  peak resident memory of the worker

--trace 1 runs each cycle three times (untraced, span pass, count pass, see
tracing.py), reports the per-layer metrics, and writes the last span pass's
spans to .bench_out/spans-<workload>-seed<N>.json.  Per-operation median
times go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170  # a run must end within 180 s
# Set-up is a fraction of a second and the host's scheduling moves it by
# tens of percent, so an untraced run times it in this many extra workers per
# cycle, which only set up and exit, and reports the median of all set-ups.
SETUP_ONLY_PER_CYCLE = 2


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(spec: dict, timeout: float):
    """Run one worker; returns (report, None) or (None, why it failed)."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env())
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"worker ran past {timeout:.0f} s"
    if proc.returncode != 0 or not out.strip():
        return None, f"worker exited {proc.returncode}: {err.strip()[-500:]}"
    report = json.loads(out.splitlines()[-1])
    report["setup_s"] = report["t_ready"] - t_spawn
    return report, None


def median_of(reports, key) -> dict:
    keys = reports[0][key].keys()
    return {k: statistics.median(r[key][k] for r in reports) for k in keys}


def op_seconds(report) -> float:
    return sum(r["t"] for r in report["ops"])


def per_layer(cycles: dict) -> dict:
    plain, spans, counts = cycles["plain"], cycles["spans"], cycles["counts"]
    out = {}
    for reports in (spans, counts, plain):
        out.update(median_of(reports, "layers"))
    everyone = plain + spans + counts
    out["cli.import_s"] = statistics.median(r["import_s"] for r in everyone)
    out["search.useful_ratio"] = (out["search.survivors"] / out["search.candidates"]
                                  if out["search.candidates"] else 0.0)
    out["trace.cycle_s"] = statistics.median(op_seconds(r) for r in spans)
    out["trace.overhead_s"] = out["trace.cycle_s"] - statistics.median(op_seconds(r) for r in plain)
    return out


def report_ops(ops, reports) -> None:
    """Median seconds per operation label, summed within a cycle, to stderr."""
    per_cycle = []
    for rep in reports:
        sums = {}
        for op, res in zip(ops, rep["ops"]):
            label = workloads.op_label(op)
            sums[label] = sums.get(label, 0.0) + res["t"]
        per_cycle.append(sums)
    for label in per_cycle[0]:
        print(f"  {label:45s} {statistics.median(c[label] for c in per_cycle):9.4f} s",
              file=sys.stderr)


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FIELD_P))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rectower" / "cli.py").is_file():
        print(f"error: no rectower sources under {SRC}", file=sys.stderr)
        return 2

    ops = workloads.make_ops(args.workload, args.seed)
    checker = workloads.Checker(args.workload)
    # compile and page in the package once, so no cycle pays for it
    subprocess.run([sys.executable, "-c", "import rectower.cli"], env=_env(), check=True,
                   timeout=120)

    modes = ("plain", "spans", "counts") if args.trace else ("plain",)
    spans_out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
    cycles = {m: [] for m in modes}
    attempted = failed = 0
    deadline = time.monotonic() + args.seconds
    groups = []
    setups = []
    broken = False
    while not broken:
        g0 = time.monotonic()
        for mode in modes:
            spec = {"src": str(SRC), "ops": ops, "mode": mode, "seed": args.seed,
                    "micro_p": workloads.FIELD_P[args.workload] if args.trace else None,
                    "spans_out": str(spans_out) if mode == "spans" else None}
            budget = RUN_LIMIT_S - (time.monotonic() - started)
            report, why = spawn(spec, timeout=max(budget, 1.0))
            attempted += len(ops)
            if report is None:
                failed += len(ops)
                print(f"cycle failed: {why}", file=sys.stderr)
                broken = True
                break
            for op, res in zip(ops, report["ops"]):
                why = checker.check(op, res)
                if why:
                    failed += 1
                    print(f"{workloads.op_label(op)}: {why}", file=sys.stderr)
            cycles[mode].append(report)
            setups.append(report["setup_s"])
        for _ in range(0 if broken or args.trace else SETUP_ONLY_PER_CYCLE):
            report, why = spawn({"src": str(SRC), "ops": [], "mode": "plain"}, timeout=60)
            if report is None:
                print(f"set-up worker failed: {why}", file=sys.stderr)
                return 1
            setups.append(report["setup_s"])
        groups.append(time.monotonic() - g0)
        if time.monotonic() + statistics.mean(groups) > deadline:
            break

    if any(not reports for reports in cycles.values()):
        print("error: no complete cycle", file=sys.stderr)
        return 1
    plain = cycles["plain"]
    print(f"{args.workload} seed {args.seed}: {len(plain)} cycles, per-operation medians:",
          file=sys.stderr)
    report_ops(ops, plain)
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in per_layer(cycles).items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cycle_s": {"value": statistics.median(op_seconds(r) for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["rss_kb"] / 1024 for r in plain),
                            "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    for suffix, unit in (("_ns", "ns"), ("_ms", "ms"), ("_s", "s"), (".s", "s"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
