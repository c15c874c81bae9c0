"""The benchmark's workloads: the inputs each one hands to ccmin, how one
repetition drives the public API, and the checks on what it produced.

Every function here runs inside the fresh interpreter that ``rep.py`` starts,
and receives the ``ccmin`` package from its caller, so that importing this
module costs nothing that the caller's set-up clock should see.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

NAMES = ("grid-printed", "grid-validated", "lowerbound")

# "full" is what the benchmark measures; "tiny" only proves the plumbing
SIZES = {
    "full": {"d": [20, 50, 100, 200], "printed_seeds": 20, "validated_seeds": 2, "trials": 200},
    "tiny": {"d": [20], "printed_seeds": 2, "validated_seeds": 1, "trials": 10},
}

VALIDATED_ALGORITHMS = ["nacsmd", "acsmd1", "acsmd2", "acsmd3"]

# (solver, q, epsilon) with mu = sigma = 1 and gamma = 1/2; horizons are 86
# steps at q = 2 and 171 at q = 3
LOWERBOUND_POINTS = [
    ("nacsmd", 2.0, 0.002),
    ("nacsmd", 3.0, 0.03),
    ("acsmd", 2.0, 0.002),
    ("acsmd", 3.0, 0.03),
]
LOWERBOUND_FIXED = {"mu": 1.0, "sigma": 1.0, "gamma": 0.5}


def prepare(ccmin, workload: str, seed: int, size: str) -> dict:
    """Build the workload's inputs from its seed: the set-up a CLI user pays
    before the first run starts (config resolution and grid expansion)."""
    sz = SIZES[size]
    if workload == "lowerbound":
        points = [dict(LOWERBOUND_FIXED, solver=s, q=q, epsilon=e) for s, q, e in LOWERBOUND_POINTS]
        return {"workload": workload, "points": points, "trials": sz["trials"],
                "seed": seed, "ops": len(points)}
    count = sz["printed_seeds"] if workload == "grid-printed" else sz["validated_seeds"]
    raw = {
        "instance": {"d": list(sz["d"])},
        "run": {"seeds": {"count": count, "base": seed * count}},
    }
    if workload == "grid-validated":
        raw["solver"] = {"schedule_mode": "validated", "algorithms": list(VALIDATED_ALGORITHMS)}
        raw["run"].update(stop_at_target=False, certificates=True)
    cfg = ccmin.bench.resolve_config(json.loads(json.dumps(raw)))
    cells = ccmin.bench.build_cells(cfg)
    return {"workload": workload, "raw": raw, "ops": len(cells) * len(cfg["run"]["seeds"])}


def execute(ccmin, job: dict, out_dir: Path):
    """The measured part: run the workload to its last artifact."""
    if job["workload"] == "lowerbound":
        return [
            ccmin.lower_bound_experiment(
                p["solver"], p["mu"], p["q"], p["sigma"], p["epsilon"], p["gamma"],
                job["trials"], seed=job["seed"],
            )
            for p in job["points"]
        ]
    return ccmin.bench.run_experiment(job["raw"], out_dir=out_dir, workers=1)


def check(ccmin, job: dict, result, out_dir: Path) -> dict:
    """Digest of the outputs, operation counts and the human-readable twin.

    Returns ``steps`` (oracle queries made), ``failed`` (operations that
    errored, violated a certificate or missed their own acceptance test),
    ``problems`` (reasons the outputs are wrong), ``digest``, ``text`` and
    ``artifact_bytes`` (size of everything written).
    """
    if job["workload"] == "lowerbound":
        return _check_lowerbound(job, result)
    return _check_grid(ccmin, job, result, out_dir)


def _check_grid(ccmin, job, summary, out_dir: Path) -> dict:
    validated = job["workload"] == "grid-validated"
    failed = 0
    violations = 0
    problems = []
    for cell in summary["cells"]:
        n = len(cell["seeds"])
        certs = cell["certificates"]
        violations += certs["violations"]
        unchecked = n - certs["checked"] if validated else 0
        failed += min(n, len(cell["failed_runs"]) + certs["violations"] + unchecked)
        if unchecked:
            problems.append(f"{cell['cell']}: {unchecked} runs without a certificate")
    if violations:
        problems.append(f"{violations} certificate violations")

    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name != "manifest.json":
            h.update(f"{path.name}\0{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    with (out_dir / "plotdata.csv").open() as fh:
        steps = sum(1 for _ in fh) - 1  # one row per step of every run

    text, _ = ccmin.bench.emit_table(summary)
    checked = sum(c["certificates"]["checked"] for c in summary["cells"])
    text += f"certificates checked {checked}, violations {violations}\n"
    return {"steps": steps, "failed": failed, "problems": problems,
            "digest": h.hexdigest(), "text": text,
            "artifact_bytes": sum(p.stat().st_size for p in out_dir.iterdir())}


def _check_lowerbound(job, reports) -> dict:
    rows = []
    lines = [f"{'solver':>7} {'q':>3} {'eps':>6} {'T':>4} {'fail':>6} {'thresh':>6} "
             f"{'silent':>6} {'(1-s)^T':>7}  ok"]
    for p, r in zip(job["points"], reports):
        rows.append([p["solver"], p["q"], p["epsilon"], r.T_bound,
                     repr(r.empirical_failure_rate), repr(r.allzero_rate)])
        lines.append(f"{p['solver']:>7} {p['q']:>3g} {p['epsilon']:>6g} {r.T_bound:>4d} "
                     f"{r.empirical_failure_rate:>6.3f} {r.threshold:>6.3f} "
                     f"{r.allzero_rate:>6.3f} {r.allzero_expected:>7.3f}  {r.ok}")
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    return {"steps": sum(job["trials"] * r.T_bound for r in reports),
            # a point whose failure rate sits below the lower-bound threshold
            # fails its own acceptance test (known at q = 3, see README.md)
            "failed": sum(1 for r in reports if not r.ok),
            "problems": [], "digest": digest, "text": "\n".join(lines) + "\n",
            "artifact_bytes": 0}
