"""Benchmark of the qd-tree reproduction in ``src/repro``, one workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload build-tpch --seed 0 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``build-tpch`` and ``query-errlog``. The
inputs come from ``--seed``; WOODBLOCK's own seed is fixed. The program is
seen only through its public calls.

End-to-end metrics (``--trace 0``): ``setup_s``; ``op_p50_rel`` and
``op_p90_rel``, the median and 90th-percentile operation latency divided by
the median of a reference kernel timed in the same run (a pure-Python loop
between the phases of a build-tpch operation, a trivial Spark job after
each query), so that the machine speed of the moment cancels; and
``success_frac``. Raw latencies are in the record line and the per-layer
metrics.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each call
into a layer in a span and prints the per-layer metrics, the layers' self
times and the tracing overhead, and writes the spans to
``.perfbench/traces/``. The last line of standard output is the result
object; the line before it is a record with the run's context (commit,
cores, scale, seed) and the workload's own metrics by name and unit.

All files the run writes, Spark's included, stay under ``.perfbench/`` in
the checkout; the run's work directory is deleted at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin the BLAS / OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
CORES = min(4, os.cpu_count() or 1)  # Spark runs as local[CORES]

# Workload-specific metrics printed by name in the record line.
RECORD_UNITS = {
    "greedy_build_s": "s", "rl_build_s": "s", "score_s": "s", "access_pct": "%",
    "rl_access_pct": "%", "query_p50_ms": "ms", "query_p90_ms": "ms",
    "ingest_rows_per_s": "rows/s", "stored_bytes_per_row": "B/row",
    "failed_frac": "ratio", "setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ref_ms": "ms", "op_p50_rel": "x", "op_p90_rel": "x",
}
RECORD = {
    "build-tpch": ("greedy_build_s", "rl_build_s", "score_s", "access_pct", "rl_access_pct"),
    "query-errlog": ("query_p50_ms", "query_p90_ms", "ingest_rows_per_s",
                     "stored_bytes_per_row"),
}


def _commit() -> str:
    if not (ROOT / ".git").exists():  # a plain checkout: do not ask a parent repo
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    import sparkenv
    import spans
    import workloads  # imports repro from src/

    sparkenv.configure(work, CORES)

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    fn, cfg = workloads.WORKLOADS[args.workload]
    tr = spans.Tracer(enabled=bool(args.trace))
    run = workloads.Run(tr, args.seed, args.seconds, work, CORES)
    undo = workloads.wrap_internal_calls(tr)
    t0 = time.perf_counter()
    try:
        e2e = fn(run)
    finally:
        undo()
        shutil.rmtree(work, ignore_errors=True)
    wall = time.perf_counter() - t0

    ops = run.ops
    failed_frac = run.failed / run.attempted
    p50, p90, ref = statistics.median(ops), workloads.pct(ops, 90), statistics.median(run.ref)
    values = dict(
        e2e,
        setup_s=sum(run.setup.values()),
        op_p50_rel=p50 / ref,
        op_p90_rel=p90 / ref,
        success_frac=1.0 - failed_frac,
        op_p50_ms=1000 * p50,
        op_p90_ms=1000 * p90,
        ref_ms=1000 * ref,
        query_p50_ms=1000 * p50,
        query_p90_ms=1000 * p90,
        failed_frac=failed_frac,
        **run.m,
    )
    record = {
        "workload": args.workload, "commit": _commit(), "cores": CORES,
        "seed": args.seed, "trace": args.trace, "config": cfg,
        "ops": len(ops), "run_s": wall,
        "setup_stages_s": run.setup,
        "calls": tr.calls,
        "metrics": {k: {"value": values[k], "unit": RECORD_UNITS[k]}
                    for k in ("setup_s", "op_p50_ms", "op_p90_ms", "ref_ms", "op_p50_rel",
                              "op_p90_rel", *RECORD[args.workload], "failed_frac")},
    }
    print(json.dumps(record))

    if args.trace:
        layer = _layer_metrics(run, tr, ops, values)
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        out = traces / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
        tr.dump(out)
        print(f"spans written to {out}", file=sys.stderr)
        specs, values = bench["per_layer"], layer
    else:
        specs = bench["end_to_end"]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {s["name"]: {"value": float(values.get(s["name"], 0.0)),
                                "unit": s["unit"]} for s in specs},
    }
    print(json.dumps(result))
    return 0


def _layer_metrics(run, tr, ops, values) -> dict:
    """Per-layer metrics of a traced run; layers a workload does not use
    read 0."""
    import numpy as np

    from spans import span_cost_seconds

    t = run.t
    med = lambda k: statistics.median(t[k]) if t.get(k) else 0.0  # noqa: E731
    names = [s[0] for s in tr.spans]
    cutmatrix = [s[2] - s[1] for s in tr.spans
                 if s[0] == "greedy.cutmatrix" and s[3] >= 0 and names[s[3]] == "greedy"]
    route_s = med("route")
    per_op = tr.op_spans() / len(ops)
    overhead_ms = 1000 * per_op * span_cost_seconds()
    out = dict(
        values,
        gen_s=run.setup.get("gen", 0.0),
        cutmatrix_s=statistics.median(cutmatrix) if cutmatrix else 0.0,
        greedy_s=med("greedy"),
        evaluate_s=med("cost"),
        qroute_p50_ms=1000 * med("qroute"),
        qroute_p99_ms=1000 * float(np.percentile(t["qroute"], 99)),
        route_rows_per_s=values["n_rows"] / route_s if route_s else 0.0,
        spark_start_s=run.setup.get("spark_start", 0.0),
        oracle_s=run.setup.get("oracle", 0.0),
        trace_spans_per_op=per_op,
        trace_overhead_ms=overhead_ms,
        trace_overhead_pct=100 * overhead_ms / values["op_p50_ms"],
    )
    for layer, secs in tr.self_seconds().items():
        out[f"self_{layer}_s"] = secs
    return out


if __name__ == "__main__":
    sys.exit(main())
