"""One cycle of a workload, in a fresh interpreter.

Reads a JSON spec on stdin: {"src", "ops", "mode", "micro_p", "seed",
"spans_out"}.  Imports rectower, binds the operations, notes the moment it
is ready (CLOCK_MONOTONIC, which the parent also reads, so the parent can
take set-up time from its own spawn time), then runs every operation once
and prints one JSON result line.

mode is "plain" (no wrappers), "spans" or "counts" (see tracing.py).
Per-process caches start cold here, as they do for each CLI call.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def run_op(cli, series, kind, args) -> dict:
    out, err = io.StringIO(), io.StringIO()
    res = {}
    t = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if kind == "cli":
                res["rc"] = cli.main(args)
            else:
                res["value"] = series.lucas_check(*args)
    except SystemExit as exc:  # argparse rejects its arguments this way
        res["rc"] = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
        res["error"] = f"{type(exc).__name__}: {exc}"
    res["t"] = time.perf_counter() - t
    res["out"], res["err"] = out.getvalue(), err.getvalue()
    return res


def main() -> int:
    t = time.perf_counter()
    from rectower import cli, series
    import_s = time.perf_counter() - t
    spec = json.load(sys.stdin)
    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"rectower was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    ops = [(op[0], op[1] if op[0] == "cli" else op[1:]) for op in spec["ops"]]
    t_ready = time.monotonic()

    if spec["mode"] != "plain":
        import tracing
        tracer = tracing.SpanTracer() if spec["mode"] == "spans" else tracing.Counters()
        tracer.install()

    results = [run_op(cli, series, kind, args) for kind, args in ops]
    op_seconds = sum(r["t"] for r in results)
    report = {"t_ready": t_ready, "import_s": import_s, "ops": results,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if spec["mode"] == "spans":
        report["layers"] = tracer.summary(op_seconds)
        if spec.get("spans_out"):
            Path(spec["spans_out"]).parent.mkdir(parents=True, exist_ok=True)
            with open(spec["spans_out"], "w") as fh:
                # the i-th root span (parent -1) is the i-th operation
                json.dump({"ops": spec["ops"],
                           "fields": ["name", "start", "end", "parent", "result_len"],
                           "spans": tracer.spans}, fh)
    elif spec["mode"] == "counts":
        report["layers"] = dict(tracer.counts)
    elif spec.get("micro_p"):
        import tracing
        report["layers"] = tracing.micro_timings(spec["micro_p"], spec["seed"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
