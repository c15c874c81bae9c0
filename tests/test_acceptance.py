"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines inline.

Criterion 4 (benchmark trend reproduction) is asserted verbatim and is known
to fail on the baseline's position: with the pinned single-sample oracle the
regime that reproduces the mirror solvers' printed magnitudes and ordering
makes the Euclidean baseline transient-fast, and no instance scaling
reconciles the two (the per-query noise-to-signal ratio grows with the
dimension, see the companion test for what does hold). The achievable part
of the criterion is asserted separately so a single red line isolates the
irreproducible claim.
"""

import dataclasses
import time

import numpy as np
import pytest

from ccmin import (
    AdditiveNoiseOracle,
    PowerNormRegularizer,
    RidgeInstance,
    TraceOptions,
    acsmd,
    certificate_check,
    certificate_options,
    composite_prox,
    concentration_check,
    default_schedule,
    derive_params,
    exact_optimum,
    lower_bound_experiment,
    nacsmd,
    plan_from_params,
    power_uc_constant,
    restart,
    ridge_psi,
)
from ccmin.bench import run_experiment
from prox_reference import prox_bisection_oracle
from recording import Recording, RecordingOracle

TABLE2 = {20: [91, 81, 32, 20, 14], 50: [110, 66, 26, 16, 12],
          100: [145, 82, 33, 21, 15], 200: [138, 76, 26, 17, 12]}
ALGS = ["acsa", "nacsmd", "acsmd1", "acsmd2", "acsmd3"]


def philox(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def holder_ratio(pairs_a, pairs_b, x_star, kappa, norm_q):
    """Largest realized weak-smoothness ratio of the quadratic loss over
    consecutive evaluation pairs (rows of pairs_a vs pairs_b)."""
    diff_f = (np.sum((pairs_a - x_star) ** 2, axis=1)
              - np.sum((pairs_b - x_star) ** 2, axis=1)) / 3.0
    grad_term = np.sum(2.0 / 3.0 * (pairs_b - x_star) * (pairs_a - pairs_b), axis=1)
    step = np.sum(np.abs(pairs_a - pairs_b) ** norm_q, axis=1) ** (1.0 / norm_q)
    keep = step > 1e-12
    remainder = diff_f[keep] - grad_term[keep]
    return float(np.max(remainder / (step[keep] ** kappa / kappa), initial=0.0))


def test_criterion_1_pathwise_certificates():
    t0 = time.time()
    d, T, sigma, mu = 4, 500, 0.4, 2.0
    geometries = [(2.0, 2.0), (4.0, 2.0), (3.0, 1.5)]
    violations = []
    checked = 0
    for q, kappa in geometries:
        for seed in range(10):
            rng0 = philox(seed, 101)
            x_star = rng0.uniform(-1.0, 1.0, d)
            inst = RidgeInstance(x_star=x_star, sigma_b=0.0, mu=mu, q=q)
            # kappa = 2 uses the exact constant; kappa = 1.5 a region-valid one
            L = inst.L if kappa == 2.0 else 2.0
            params = derive_params(q, kappa, L, mu * power_uc_constant(q), sigma=sigma)
            H = PowerNormRegularizer(mu=mu, q=q)
            oracle = AdditiveNoiseOracle(
                lambda x, xs=x_star: 2.0 / 3.0 * (np.asarray(x, dtype=float) - xs),
                d, kind="bounded_sphere", sigma=sigma, q=q)
            x_opt, psi_star = exact_optimum(inst)
            psi = lambda x, i=inst: ridge_psi(i, x)  # noqa: E731
            cert_opts = certificate_options(params, H, x_opt, psi, psi_star)
            for solver, target in [(nacsmd, "nacsmd"), (acsmd, "acsmd")]:
                # the points too, for the region check below
                averaged = Recording(cert_opts.gap_fn)
                iterates = Recording(cert_opts.bregman_fn)
                queries = RecordingOracle(oracle)
                opts = dataclasses.replace(cert_opts, gap_fn=averaged, bregman_fn=iterates)
                sched = default_schedule(params, target, validate_horizon=2 * T)
                _, _, tr = solver(queries, H, sched, np.zeros(d), T,
                                  rng=philox(seed, 7), params=params, trace_opts=opts)
                rep = certificate_check(tr, params, H, x_opt, psi, psi_star)
                checked += 1
                if not rep.ok:
                    violations.append((q, kappa, target, seed, rep.first_violation))
                if kappa == 1.5:
                    # the declared region constant must cover the realized steps
                    xs = np.vstack([tr.start, iterates[0]])  # x_1 .. x_{T+1}
                    ratio = holder_ratio(xs[1:], xs[:-1], x_star, kappa, q)
                    if target == "acsmd":
                        ratio = max(ratio, holder_ratio(averaged[0], queries[0], x_star,
                                                        kappa, q))
                    assert ratio <= L, f"region smoothness constant exceeded: {ratio}"
    elapsed = time.time() - t0
    report("criterion 1 (pathwise certificates)",
           not violations and checked == 60 and elapsed < 60.0,
           f"{checked} runs, {len(violations)} violations, {elapsed:.1f}s")


def test_criterion_2_prox_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    for q in (2.0, 2.5, 3.0, 4.0):
        for _ in range(250):
            d = int(rng.integers(1, 9))
            H = PowerNormRegularizer(mu=float(rng.uniform(0.2, 4.0)), q=q)
            g = rng.normal(0, 3, d)
            y = rng.normal(0, 3, d)
            alpha = float(rng.uniform(0.05, 5.0))
            gamma = float(rng.uniform(0.05, 5.0))
            x = composite_prox(H, g, y, alpha, gamma)
            xb = prox_bisection_oracle(H, g, y, alpha, gamma, tol=1e-12)
            worst = max(worst, float(np.max(np.abs(x - xb))))
            count += 1
    elapsed = time.time() - t0
    report("criterion 2 (prox closed form vs bisection oracle)",
           count == 1000 and worst <= 1e-8,
           f"{count} instances, max coordinate deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_restart_halving():
    d, mu, q = 20, 2.0, 2.0
    rng0 = philox(3, 101)
    inst = RidgeInstance(x_star=rng0.uniform(-1, 1, d),
                         sigma_b=0.0, mu=mu, q=q)
    oracle = AdditiveNoiseOracle(
        lambda x: 2.0 / 3.0 * (np.asarray(x, dtype=float) - inst.x_star),
        d, kind="gaussian", sigma=0.0, q=q)
    params = derive_params(q, 2.0, inst.L, mu * power_uc_constant(q))
    H = PowerNormRegularizer(mu=mu, q=q)
    x_opt, _ = exact_optimum(inst)

    def breg(y):
        return H.value(x_opt) - H.value(y) - float(H.grad(y) @ (x_opt - y))

    x1 = np.zeros(d)
    V0 = breg(x1)
    sched = default_schedule(params, "nacsmd")
    plan = plan_from_params(params, "nacsmd", V0, V0 / 2 ** 10, sched, 100_000)
    _, rtrace = restart("nacsmd", oracle, H, sched, x1, plan, params=params)
    stages = rtrace.stage_traces + [rtrace.final_trace]
    Ds = [breg(tr.start) for tr in stages]
    ratios = [b / a for a, b in zip(Ds, Ds[1:])]
    ok = plan.n >= 8 and all(r <= 0.5 + 1e-3 for r in ratios)
    report("criterion 3 (restart halving)", ok,
           f"{plan.n} stages of K={plan.K}, worst contraction {max(ratios):.4f}")


def _table2_scoreboard(rows):
    lines = []
    failures = []
    for d, row in rows.items():
        ref = TABLE2[d]
        for i in range(4):
            if not row[i] > row[i + 1]:
                failures.append(f"d={d}: {ALGS[i]}={row[i]:.0f} !> {ALGS[i+1]}={row[i+1]:.0f}")
        for i, (m, r) in enumerate(zip(row, ref)):
            if not r / 3 <= m <= r * 3:
                failures.append(f"d={d}: {ALGS[i]}={m:.0f} outside [{r/3:.1f}, {r*3:.0f}]")
        lines.append(f"d={d}: " + " ".join(f"{a}={m:.0f}(ref {r})"
                                           for a, m, r in zip(ALGS, row, ref)))
    return lines, failures


@pytest.fixture(scope="module")
def table2_rows(tmp_path_factory):
    import ccmin.bench as bench
    out = tmp_path_factory.mktemp("table2")
    cfg = {
        "instance": {"d": [20, 50, 100, 200]},
        "run": {"seeds": {"count": 20, "base": 0}, "certificates": False},
        "output": {"traces": False, "plotdata": False},
    }
    summary = bench.run_experiment(cfg, out_dir=out)
    med = {(c["d"], c["algorithm"]): c["median_iterations"] for c in summary["cells"]}
    return {d: [med[(d, a)] for a in ALGS] for d in TABLE2}


def test_criterion_4_table2_trend(table2_rows):
    t0 = time.time()
    lines, failures = _table2_scoreboard(table2_rows)
    elapsed = time.time() - t0
    detail = "; ".join(lines) + (f" | unmet: {len(failures)} assertions" if failures else "")
    report("criterion 4 (benchmark trend, verbatim)", not failures, detail + "\n  " +
           "\n  ".join(failures))


def test_criterion_4_achievable_subset(table2_rows):
    # what does hold with the pinned oracle: the mirror-descent chain ordering
    # at every dimension, and the plain/accelerated windows everywhere
    lines, failures = _table2_scoreboard(table2_rows)
    chain_ok = all(
        row[1] > row[2] > row[3] > row[4] for row in table2_rows.values()
    )
    window_hits = sum(
        1
        for d, row in table2_rows.items()
        for m, r in zip(row, TABLE2[d])
        if r / 3 <= m <= r * 3
    )
    core = all(
        TABLE2[d][i] / 3 <= table2_rows[d][i] <= TABLE2[d][i] * 3
        for d in TABLE2 for i in (1, 2)  # nacsmd and acsmd1 at every d
    )
    report("criterion 4 (achievable subset: solver chain + 14+/20 windows)",
           chain_ok and core and window_hits >= 14,
           f"chain={chain_ok}, windows={window_hits}/20; " + "; ".join(lines))


def test_criterion_5_table3_robustness(tmp_path):
    t0 = time.time()
    cfg = {
        "instance": {"d": 50, "L_multiplier": [1, 2, 5, 10, 20]},
        "solver": {"algorithms": ["nacsmd", "acsmd1"]},
        "run": {"seeds": {"count": 20, "base": 0}, "certificates": False},
        "output": {"traces": False, "plotdata": False},
    }
    summary = run_experiment(cfg, out_dir=tmp_path)
    med = {(c["L_multiplier"], c["algorithm"]): c["median_iterations"]
           for c in summary["cells"]}
    ac1 = [med[(m, "acsmd1")] for m in (1.0, 2.0, 5.0, 10.0, 20.0)]
    nac20 = med[(20.0, "nacsmd")]
    nac1 = med[(1.0, "nacsmd")]
    ratio = max(ac1) / min(ac1)
    # ">999" is held to the same factor-3 protocol as the other printed values
    ok = ratio <= 1.6 and nac20 >= 999 / 3 and nac20 / nac1 > 3.0
    elapsed = time.time() - t0
    report("criterion 5 (L-overestimation robustness)", ok,
           f"acsmd1 sweep {[f'{v:.0f}' for v in ac1]} (max/min {ratio:.2f} <= 1.6), "
           f"nacsmd 1L={nac1:.0f} -> 20L={nac20:.0f} (>= {999/3:.0f}, degradation "
           f"{nac20/nac1:.1f}x), {elapsed:.1f}s")


def test_criterion_6_lower_bound():
    t0 = time.time()
    rep = lower_bound_experiment("acsmd", mu=1.0, q=2.0, sigma=1.0, epsilon=0.05,
                                 gamma=0.5, trials=400, seed=2026)
    elapsed = time.time() - t0
    ok = rep.ok and rep.empirical_failure_rate >= 0.425 and elapsed < 60.0
    report("criterion 6 (adversarial failure rate)", ok,
           f"T={rep.T_bound}, failure rate {rep.empirical_failure_rate:.3f} >= "
           f"{rep.threshold:.3f}, silent-run rate {rep.allzero_rate:.3f} vs "
           f"{rep.allzero_expected:.3f}, {elapsed:.1f}s")


def test_criterion_7_concentration():
    t0 = time.time()
    t = np.arange(1, 101, dtype=float)
    results = []
    for seed, (weights, label) in enumerate([(np.ones(100), "constant"), (t, "linear")]):
        rep = concentration_check("bounded_sphere", weights, trials=100_000,
                                  seed=7 + seed, sigma=1.0, R=1.0, dim=4, q=2.0,
                                  mgf_draws=1_000_000)
        results.append((label, rep))
    elapsed = time.time() - t0
    ok = all(rep.ok and rep.mgf_estimate <= 2.0 + 1e-6 and rep.tau.size == 10
             for _, rep in results) and elapsed < 120.0
    detail = "; ".join(
        f"{label}: worst tail margin "
        f"{np.max(rep.empirical - rep.bound):.2e}, mgf {rep.mgf_estimate:.6f}"
        for label, rep in results)
    report("criterion 7 (martingale tail bounds)", ok, detail + f", {elapsed:.1f}s")


def test_criterion_8_noise_rate_slope():
    t0 = time.time()
    d, q, mu, sigma_b, T = 4, 4.0, 2.0, 0.5, 500
    rng0 = philox(8, 101)
    inst = RidgeInstance(x_star=rng0.uniform(-1, 1, d),
                         sigma_b=sigma_b, mu=mu, q=q)
    params = derive_params(q, 2.0, inst.L, mu * power_uc_constant(q))
    H = PowerNormRegularizer(mu=mu, q=q)
    x_opt, psi_star = exact_optimum(inst)
    sched = default_schedule(params, "nacsmd", validate_horizon=2 * T)
    from ccmin import RidgeOracle

    gap_fn = lambda x: ridge_psi(inst, x) - psi_star  # noqa: E731
    opts = TraceOptions(gap_fn=gap_fn)
    curves = []
    for seed in range(100):
        oracle = RidgeOracle(inst)
        # start at the optimum so the whole run sits in the noise-driven regime
        _, _, tr = nacsmd(oracle, H, sched, x_opt.copy(), T, rng=philox(8, seed),
                          params=params, trace_opts=opts)
        curves.append(tr.psi_gap)
    mean_gap = np.mean(curves, axis=0)
    grid = np.unique(np.geomspace(50, T, 12).astype(int)) - 1
    slope = np.polyfit(np.log(grid + 1.0), np.log(mean_gap[grid]), 1)[0]
    target = -params.p / params.q + 0.1
    elapsed = time.time() - t0
    report("criterion 8 (noise-regime decay slope)", slope <= target,
           f"log-log slope {slope:.3f} <= {target:.3f} "
           f"(noise term exponent -p/q = {-params.p/params.q:.3f}), {elapsed:.1f}s")
