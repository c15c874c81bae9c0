"""ccmin benchmark: one workload, repeated in fresh interpreters, checked.

Run from the root of a ccmin checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload grid-printed --seed 0 --seconds 40 --trace 0

Repetitions of the workload run one after another, serially, each in a new
interpreter (see rep.py), as many as fit in ``--seconds`` (at least three).
Every repetition's artifacts must hash to the same digest, and to the
reference digest in reference.json when the seed is 0. With ``--trace 1`` one
more repetition runs with spans around every layer, and the per-layer metrics
replace the end-to-end ones. The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
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

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = Path(".perfbench-work")
MIN_REPS = 3
MIN_SETUP_SAMPLES = 9
REP_TIMEOUT_S = 150
REFERENCE_SEED = 0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "solvers.steps":
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".p50", ".p95")):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    return "ratio"


def layer_metric_names() -> list:
    names = [f"{layer}.{kind}" for layer in tracing.LAYERS for kind in ("calls", "self_s")]
    return names + [
        "diagnostics.exact_optimum.useful_ratio", "solvers.steps", "bench.artifact_bytes",
        "bench.run_ms.p50", "bench.run_ms.p95", "trace.wall_s", "trace.remainder_s",
        "tracing_overhead_frac",
    ]


def run_rep(args, tag: str, *flags) -> dict:
    """Start one repetition in a fresh interpreter and return its result."""
    result = WORK / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size,
           "--out", str(WORK / tag), "--result", str(result), *flags]
    src = str(Path.cwd() / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(cmd, env=env, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"repetition {tag} exited with code {proc.returncode}")
    return json.loads(result.read_text())


def describe(values, unit: str) -> str:
    med = statistics.median(values)
    return f"{med:.6g} {unit}  (median of {len(values)}; min {min(values):.6g}, max {max(values):.6g})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="'tiny' only exercises the plumbing (smoke test)")
    args = ap.parse_args(argv)
    if not (Path("src") / "ccmin" / "__init__.py").is_file():
        print("error: run from the root of a ccmin checkout (no src/ccmin here)", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    run_rep(args, "warmup", "--setup-only")  # bytecode compiled, files cached
    reps = []
    begin = time.perf_counter()
    rep_s = 0.0
    # as many repetitions as fit in the window, judged by the last one's length
    while len(reps) < MIN_REPS or time.perf_counter() - begin + rep_s <= args.seconds:
        started = time.perf_counter()
        reps.append(run_rep(args, f"rep{len(reps)}"))
        rep_s = time.perf_counter() - started
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_rep(args, f"setup{len(setups)}", "--setup-only")["setup_s"])
    traced = run_rep(args, "traced", "--trace", "1") if args.trace else None

    measured = reps + ([traced] if traced else [])
    problems = []
    digests = {r["digest"] for r in measured}
    if len(digests) > 1:
        problems.append(f"artifact digests differ between repetitions: {sorted(digests)}")
    reference = json.loads((HERE / "reference.json").read_text())
    check_reference = args.seed == REFERENCE_SEED and args.size == "full"
    reference_ok = digests == {reference[args.workload]}
    if check_reference and not reference_ok:
        problems.append(f"digest differs from the reference {reference[args.workload]}")
    attempted = sum(r["ops"] for r in measured)
    failed = 0
    for r in measured:
        problems.extend(r["problems"])
        bad = r["problems"] or r["digest"] != reps[0]["digest"] or (
            check_reference and r["digest"] != reference[args.workload])
        failed += r["ops"] if bad else r["failed"]

    walls = [r["wall_s"] for r in reps]
    rates = [r["steps"] / r["wall_s"] for r in reps]
    rss = [r["peak_rss_mb"] for r in reps]
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}: "
          f"{len(reps)} repetitions, each a fresh serial interpreter (workers=1)")
    print(reps[0]["text"], end="")
    print(f"setup_s      {describe(setups, 's')}")
    print(f"wall_s       {describe(walls, 's')}")
    print(f"steps_per_s  {describe(rates, '1/s')}  ({reps[0]['steps']} steps a repetition)")
    print(f"peak_rss_mb  {describe(rss, 'MB')}")
    print(f"failed_frac  {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    print(f"digest       {reps[0]['digest']}"
          + (f"  (reference {'match' if reference_ok else 'MISMATCH'})" if check_reference else ""))
    for p in dict.fromkeys(problems):
        print(f"PROBLEM: {p}")

    if traced:
        layers = dict(traced["layers"])
        layers["tracing_overhead_frac"] = layers["trace.wall_s"] / statistics.median(walls) - 1.0
        values = {name: layers[name] for name in layer_metric_names()}
        print(f"traced repetition: wall {layers['trace.wall_s']:.4f} s, "
              f"outside all spans {layers['trace.remainder_s']:.6f} s")
        for name, value in values.items():
            print(f"  {name:48s} {value:.6g} {layer_unit(name)}")
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in values.items()}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "steps_per_s": statistics.median(rates),
            "peak_rss_mb": statistics.median(rss),
        }
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in metrics.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
