"""One measured repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, because a CLI user pays
ccmin's lazy caches (``power_uc_constant``'s ``lru_cache``, the grid's
schedule cache) on every invocation. The script times the import of ccmin and
the workload's set-up, then the workload itself, checks what it produced and
writes one JSON result file. Nothing heavy may be imported before the set-up
clock starts.

    python3 perfbench/rep.py --workload grid-printed --seed 0 --size full \
        --trace 0 --out .perfbench-work/rep0 --result .perfbench-work/rep0.json
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import ccmin
    import ccmin.bench

    src = (Path.cwd() / "src").resolve()
    if src not in Path(ccmin.__file__).resolve().parents:
        print(f"ccmin was imported from {ccmin.__file__}, not from {src}", file=sys.stderr)
        return 2
    job = workloads.prepare(ccmin, args.workload, args.seed, args.size)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        args.result.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    shutil.rmtree(args.out, ignore_errors=True)
    args.out.mkdir(parents=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, ccmin)
        t_start = time.perf_counter()
        with tracer.span("workload"):
            result = workloads.execute(ccmin, job, args.out)
    else:
        t_start = time.perf_counter()
        result = workloads.execute(ccmin, job, args.out)
    wall_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = workloads.check(ccmin, job, result, args.out)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": job["ops"],
        **checked,
    }
    if tracer is not None:
        out["layers"] = _layer_metrics(tracer, job, checked)
        tracer.write(args.out.parent / f"{args.result.stem}-spans.npz", origin=t_start)
    args.result.write_text(json.dumps(out))
    return 0


def _layer_metrics(tracer: tracing.Tracer, job: dict, checked: dict) -> dict:
    """Per-layer calls and self seconds, plus the counts taken at the boundaries.

    Adds to ``checked["problems"]`` if the self times do not add up.
    """
    totals = tracing.layer_totals(tracer, tracing.LAYERS + ("workload",))
    _, remainder_s = totals.pop("workload")
    wall = tracing.durations(tracer, "workload")[0]
    self_sum = remainder_s + sum(s for _, s in totals.values())
    metrics = {}
    for name, (calls, self_s) in totals.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    opt_calls = totals["diagnostics.exact_optimum"][0]
    # distinct (d, seed) instances over calls; 1 when nothing was asked
    metrics["diagnostics.exact_optimum.useful_ratio"] = (
        len(tracer.optimum_keys) / opt_calls if opt_calls else 1.0
    )
    metrics["solvers.steps"] = tracer.steps
    metrics["bench.artifact_bytes"] = checked["artifact_bytes"]
    op_span = "diagnostics.lower_bound_experiment" if job["workload"] == "lowerbound" else "bench.run"
    run_ms = sorted(1e3 * d for d in tracing.durations(tracer, op_span))
    metrics["bench.run_ms.p50"] = statistics.median(run_ms)
    metrics["bench.run_ms.p95"] = run_ms[math.ceil(0.95 * len(run_ms)) - 1]
    metrics["trace.wall_s"] = wall
    metrics["trace.remainder_s"] = remainder_s
    # self times of every span plus the time outside all of them must add
    # up to the traced wall time; a gap means the span tree is malformed
    if abs(self_sum - wall) > 1e-6 * wall:
        checked["problems"].append("span self times do not add up to the traced wall time")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
