"""A grid runs the seeds of its cells as the rows of one mirror-descent batch
per grid point, and its ``acsa`` cells as the rows of one more. These tests
hold every row to the bytes of its seed's run alone: a grid of
N seeds must write what N one-seed grids write, a row that goes non-finite
must leave with the error of its own run and change no other row, and the
row-wise dot products must keep the bits of per-row ``a @ x``.
"""

import csv
import functools
import io
import math

import numpy as np
import pytest

import ccmin.bench as bench
from ccmin import (
    NoiseTerms,
    OracleRows,
    PowerNormRegularizer,
    RidgeInstance,
    RidgeOracle,
    acsa_baseline,
    acsmd,
    bregman_to,
    certificate_check,
    default_schedule,
    derive_params,
    exact_optimum,
    nacsmd,
    power_uc_constant,
    ridge_psi,
)
from ccmin.bench import parse_plotdata, run_experiment
from ccmin.errors import NumericalError
from ccmin.geometry import _row_dot
from ccmin.oracles import StochasticGradientOracle
from recording import Recording, RecordingOracle

SEEDS = [0, 1, 2]


@pytest.mark.parametrize("d", [1, 2, 7, 50, 200, 1000, 10001])
@pytest.mark.parametrize("S", [1, 2, 20])
def test_row_dot_keeps_the_bits_of_each_row(d, S):
    rng = np.random.default_rng(d * 31 + S)
    for scale in (1.0, 1e-3, 1e8):
        a = rng.uniform(-1.0, 1.0, (S, d))
        x = scale * rng.standard_normal((S, d))
        per_row = np.array([a[i] @ x[i] for i in range(S)])
        assert _row_dot(a, x).tobytes() == per_row.tobytes()
        # strided rows are made contiguous first, so they keep the bits too
        wide = np.repeat(x, 2, axis=1)[:, ::2]
        assert _row_dot(a, wide).tobytes() == per_row.tobytes()
    assert _row_dot(a[0], x[0]) == a[0] @ x[0]


def test_trace_csv_has_the_bytes_of_csv_writer(tmp_path):
    rows = np.array([
        [1.0, np.nan, np.inf, -0.0, 1e-300],
        [2.0, -np.inf, -3.25, 0.1, -1e300],
        [999.0, 5e-324, 123456789.0, -2.5e-17, 0.0],
    ])
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", "psi_gap", "bregman_to_opt", "alpha_t", "gamma_t"])
    for row in rows:
        w.writerow([int(row[0])] + [f"{v:.10e}" for v in row[1:]])
    path = tmp_path / "trace.csv"
    bench._write_trace_csv(path, rows)
    assert path.read_bytes() == buf.getvalue().encode()
    bench._write_trace_csv(path, rows[:0])
    assert path.read_bytes() == b"t,psi_gap,bregman_to_opt,alpha_t,gamma_t\r\n"


def philox(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def recording(hooks, oracle):
    """(hooks, oracle, recordings) of a run that also records its points:
    x^ag_{t+1}, x_{t+1} and the query points, in that order."""
    recs = Recording(hooks["gap_fn"]), Recording(hooks["bregman_fn"]), RecordingOracle(oracle)
    return dict(hooks, gap_fn=recs[0], bregman_fn=recs[1]), recs[2], recs


def assert_same_points(batch_recs, i, alone_recs):
    """Row i of a batch passed its hooks and its oracle the points of its run alone."""
    for rec, alone in zip(batch_recs, alone_recs):
        assert (np.array(rec.store.get(i, [])).tobytes()
                == np.array(alone.store.get(0, [])).tobytes())


@pytest.mark.parametrize("name", ["nacsmd", "acsmd", "acsa"])
def test_batch_rows_keep_every_recorded_and_certified_bit(name):
    d, q, T = 5, 3.0, 80
    insts = [RidgeInstance(x_star=philox(s, 1).uniform(-0.3, 0.3, d),
                           sigma_b=0.1, mu=2.0, q=q) for s in range(4)]
    opt = [exact_optimum(inst) for inst in insts]
    H = PowerNormRegularizer(mu=2.0, q=q)
    params = derive_params(q, 2.0, insts[0].L, 2.0 * power_uc_constant(q))
    x1 = np.full(d, 3.25)
    stop = np.array([0.0, 0.5, 0.0, 5.0])  # two rows stop early, at their own steps
    x_star, psi_star = np.stack([i.x_star for i in insts]), np.array([o[1] for o in opt])

    def solve(oracle, x1, hooks, stop_gap, rng=None):
        """(final iterates, final averages, trace); the baseline keeps only
        its averages, its gaps and no certificate."""
        if name == "acsa":
            y, trace = acsa_baseline(oracle, H, insts[0].mu_F, params.L, x1, T, rng=rng,
                                     gap_fn=hooks["gap_fn"], stop_gap=stop_gap)
            return y, y, trace
        sched = default_schedule(params, name)
        solver = nacsmd if name == "nacsmd" else acsmd
        return solver(oracle, H, sched, x1, T, rng=rng, **hooks, stop_gap=stop_gap)

    # the grid's own per-row functions
    x_opts = np.stack([o[0] for o in opt])
    hooks = dict(
        gap_fn=bench._RowFn(functools.partial(bench._ridge_gaps, insts[0]), x_star, psi_star),
        bregman_fn=bench._RowFn(functools.partial(bregman_to, H), x_opts),
        noise_fn=NoiseTerms(x_opts, params.p))
    hooks, oracle, points = recording(
        hooks, OracleRows([RidgeOracle(i) for i in insts], [philox(s, 7) for s in range(4)]))
    x, y, batch = solve(oracle, np.tile(x1, (4, 1)), hooks, stop)
    for i, (inst, (x_opt, p_star)) in enumerate(zip(insts, opt)):
        one, oracle_i, points_i = recording(
            dict(gap_fn=lambda z: ridge_psi(inst, z) - p_star,
                 bregman_fn=bregman_to(H, x_opt), noise_fn=NoiseTerms(x_opt, params.p)),
            RidgeOracle(inst))
        xi, yi, alone = solve(oracle_i, x1, one, stop[i] or None, rng=philox(i, 7))
        row = batch.row(i)
        assert x[i].tobytes() == xi.tobytes() and y[i].tobytes() == yi.tobytes()
        assert_same_points(points, i, points_i)
        assert row.T == alone.T and row.stopped_at == alone.stopped_at
        for field in ("alphas", "gammas", "A", "noise_norm", "noise_inner", "psi_gap",
                      "bregman_to_opt", "start", "last", "last_average"):
            a, b = getattr(row, field), getattr(alone, field)
            assert (a is None) == (b is None)
            assert a is None or a.tobytes() == b.tobytes(), field
        if name == "acsa":
            continue
        psi = functools.partial(ridge_psi, inst)
        reports = [certificate_check(tr, params, H, x_opt, psi, p_star) for tr in (row, alone)]
        for field in ("lhs", "rhs", "slack", "martingale", "noise_moment", "deterministic"):
            assert getattr(reports[0], field).tobytes() == getattr(reports[1], field).tobytes()
    assert [batch.row_stopped_at[i] is not None for i in range(4)] == [False, True, False, True]


def grid(cfg, out_dir, seeds, workers=1):
    """(trace CSV bytes by name, per-run records by (cell, seed), plotdata
    rows by (cell, seed)) of one grid; records are only read serially."""
    records = {}
    real_job = bench._job

    def job(args):
        results = real_job(args)
        for cell, cell_results in zip(args[1], results):
            for seed, (record, _) in zip(args[2], cell_results):
                records[(cell["label"], seed)] = record
        return results

    # the pool pickles the job function by name, so only a serial grid is watched
    bench._job = job if workers == 1 else real_job
    try:
        run_experiment(dict(cfg, run=dict(cfg["run"], seeds=seeds)), out_dir=out_dir,
                       workers=workers)
    finally:
        bench._job = real_job
    traces = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.name.startswith("trace-")}
    plot = {}
    for row in parse_plotdata((out_dir / "plotdata.csv").read_text()):
        plot.setdefault((row[0], row[2]), []).append(row)
    return traces, records, plot


def assert_batch_equals_one_seed_grids(cfg, tmp_path, workers=1):
    traces, records, plot = grid(cfg, tmp_path / "all", SEEDS, workers)
    one_traces, one_records, one_plot = {}, {}, {}
    for seed in SEEDS:
        t, r, p = grid(cfg, tmp_path / f"seed{seed}", [seed])
        one_traces.update(t)
        one_records.update(r)
        one_plot.update(p)
    assert traces and traces == one_traces
    assert plot == one_plot
    if workers == 1:
        assert records == one_records
        assert len(records) == len(SEEDS) * len(bench.build_cells(bench.resolve_config(cfg)))


ALL = ["acsa", "nacsmd", "acsmd1", "acsmd2", "acsmd3"]


@pytest.mark.parametrize("stop", [True, False])
@pytest.mark.parametrize("mode", ["printed", "validated"])
def test_grid_of_seeds_equals_one_seed_grids(tmp_path, stop, mode):
    cfg = {
        "instance": {"d": [3, 6]},
        "solver": {"algorithms": ALL, "schedule_mode": mode},
        "run": {"epsilon": 0.05, "T_max": 60, "stop_at_target": stop},
    }
    assert_batch_equals_one_seed_grids(cfg, tmp_path)


def test_grid_equality_with_thinning_and_auto_restart(tmp_path):
    cfg = {
        "instance": {"kind": "custom-deterministic", "d": [4], "q": 2.0},
        "solver": {"algorithms": ["nacsmd", "acsmd1"], "schedule_mode": "validated"},
        "run": {"epsilon": 0.01, "T_max": 3000, "restart": "auto", "thin": 3,
                "stop_at_target": False},
    }
    assert_batch_equals_one_seed_grids(cfg, tmp_path)


def test_grid_equality_with_thinning(tmp_path):
    cfg = {
        "instance": {"kind": "custom-deterministic", "d": [4]},
        "solver": {"algorithms": ALL},
        "run": {"epsilon": 0.01, "T_max": 80, "thin": 4, "certificates": False},
    }
    assert_batch_equals_one_seed_grids(cfg, tmp_path)


def test_grid_equality_on_the_bernoulli_instance(tmp_path):
    cfg = {
        "instance": {"kind": "bernoulli", "mu": 1.0, "q": 2.0, "sigma": 1.0,
                     "target_accuracy": 0.05},
        "solver": {"algorithms": ["nacsmd", "acsmd"]},
        "run": {"epsilon": 0.5, "T_max": 30},
    }
    assert_batch_equals_one_seed_grids(cfg, tmp_path)


def test_grid_equality_across_two_workers(tmp_path):
    cfg = {
        "instance": {"d": [3, 5]},
        "solver": {"algorithms": ALL},
        "run": {"epsilon": 0.05, "T_max": 60},
    }
    assert_batch_equals_one_seed_grids(cfg, tmp_path, workers=2)


class BlowUp(StochasticGradientOracle):
    """The seed's own oracle until a run's third query, whose gradient is
    infinite. The seed's cells share the oracle and each run draws from a
    generator of its own, so it counts the queries per generator."""

    def __init__(self, inner):
        self.inner = inner
        self.mean_gradient = inner.mean_gradient
        self.calls = {}  # generator -> queries; holding it keeps ids distinct

    def sample_gradient(self, x, rng=None):
        calls = self.calls[rng] = self.calls.get(rng, 0) + 1
        g = self.inner.sample_gradient(x, rng)
        return g * np.inf if calls == 3 else g


@pytest.mark.parametrize("stop", [True, False])
def test_a_row_that_goes_non_finite_leaves_alone(tmp_path, monkeypatch, stop):
    real_prepare = bench._prepare_cell
    poisoned = []

    def prepare(cfg, cell, seed):
        bundle = real_prepare(cfg, cell, seed)
        if seed == 1:
            bundle["oracle"] = BlowUp(bundle["oracle"])
            poisoned.append(bundle["oracle"])
        elif seed == 2:  # set-up is per seed, so every cell of the seed fails
            raise bench.ParameterError("synthetic set-up failure")
        return bundle

    monkeypatch.setattr(bench, "_prepare_cell", prepare)
    cfg = {
        "instance": {"d": [4]},
        "solver": {"algorithms": ["acsa", "nacsmd", "acsmd1"], "schedule_mode": "validated"},
        "run": {"epsilon": 0.05, "T_max": 40, "stop_at_target": stop},
    }
    assert_batch_equals_one_seed_grids(cfg, tmp_path)
    _, records, plot = grid(cfg, tmp_path / "again", SEEDS)
    errors = {key: r["error"] for key, r in records.items() if "error" in r}
    expected = {
        ("ridge-d4-Lx1-nacsmd", 1): "nacsmd: non-finite oracle output at t=3",
        ("ridge-d4-Lx1-acsmd1", 1): "acsmd: non-finite oracle output at t=3",
        **{(f"ridge-d4-Lx1-{alg}", 2): "synthetic set-up failure"
           for alg in ("acsa", "nacsmd", "acsmd1")},
    }
    if not stop:  # with the stop on, acsa reaches its target first
        expected[("ridge-d4-Lx1-acsa", 1)] = "acsa_baseline: non-finite oracle output at step 3"
    assert errors == expected
    assert sorted(key[0] for key in plot if key[1] == 1) == (
        ["ridge-d4-Lx1-acsa"] if stop else [])
    # a row that left draws nothing more: three queries up to the blow-up,
    # two for the acsa row that reached its target at step 2
    assert sorted({n for o in poisoned for n in o.calls.values()}) == ([2, 3] if stop else [3])
    assert all(math.isfinite(r["final_relative_gap"]) for r in records.values() if "error" not in r)


# The mirror-descent cells of one (d, L_multiplier) run as one batch, each
# row under its own cell's solver and schedule.
MIXED = ["nacsmd", "acsmd1", "acsmd2", "acsmd3"]


def one_algorithm_grids(cfg, tmp_path, seeds):
    """What one-algorithm, one-seed grids write, merged."""
    traces, records, plot = {}, {}, {}
    for alg in cfg["solver"]["algorithms"]:
        one_cfg = dict(cfg, solver=dict(cfg["solver"], algorithms=[alg]))
        for seed in seeds:
            t, r, p = grid(one_cfg, tmp_path / f"{alg}-{seed}", [seed])
            traces.update(t)
            records.update(r)
            plot.update(p)
    return traces, records, plot


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("stop", [True, False])
@pytest.mark.parametrize("mode", ["printed", "validated"])
def test_mixed_schedule_batch_equals_one_algorithm_grids(tmp_path, mode, stop, workers):
    cfg = {
        "instance": {"d": [3, 6]},
        "solver": {"algorithms": MIXED, "schedule_mode": mode},
        "run": {"epsilon": 0.05, "T_max": 60, "stop_at_target": stop},
    }
    traces, records, plot = grid(cfg, tmp_path / "all", SEEDS, workers)
    one_traces, one_records, one_plot = one_algorithm_grids(cfg, tmp_path, SEEDS)
    assert len(traces) == 2 * len(MIXED) * len(SEEDS)
    assert traces == one_traces
    assert plot == one_plot
    if workers == 1:
        assert records == one_records
        # certificates where the schedule validates, as alone
        assert any(r["certificate"] == "ok" for r in records.values())


def test_one_mirror_descent_call_per_d(tmp_path, monkeypatch):
    calls = []
    real = bench._mirror_descent

    def counted(name, oracle, H, sched, x1, T, **kwargs):
        calls.append((name, np.shape(x1), len({id(s) for s in sched})))
        return real(name, oracle, H, sched, x1, T, **kwargs)

    monkeypatch.setattr(bench, "_mirror_descent", counted)
    cfg = {"instance": {"d": [3, 6]}, "solver": {"algorithms": ["acsa"] + MIXED},
           "run": {"T_max": 30, "seeds": [0, 1]}}
    run_experiment(cfg, out_dir=tmp_path)
    # the rows in (cell, seed) order, each naming its own solver
    names = ["nacsmd"] * 2 + ["acsmd"] * 6
    assert calls == [(names, (8, 3), 4), (names, (8, 6), 4)]


class CountedSchedule:
    """A schedule that records every t it is evaluated at."""

    def __init__(self, sched):
        self.sched, self.target, self.ts = sched, sched.target, []

    def alpha(self, t):
        self.ts.append(t)
        return self.sched.alpha(t)

    def gamma(self, t):
        return self.sched.gamma(t)


@pytest.mark.parametrize("name", ["nacsmd", "acsmd"])
def test_batch_row_under_its_own_schedule_keeps_its_bits(name):
    d, q, T = 5, 3.0, 80
    insts = [RidgeInstance(x_star=philox(s, 1).uniform(-0.3, 0.3, d),
                           sigma_b=0.1, mu=2.0, q=q) for s in range(6)]
    opt = [exact_optimum(inst) for inst in insts]
    H = PowerNormRegularizer(mu=2.0, q=q)
    params = derive_params(q, 2.0, insts[0].L, 2.0 * power_uc_constant(q))
    solver = nacsmd if name == "nacsmd" else acsmd
    m = [0.0, 1.0, 2.0] if name == "nacsmd" else [1.0, 2.0, 3.0]
    scheds = [CountedSchedule(default_schedule(params, name, m=k)) for k in m]
    per_row = [scheds[i % 3] for i in range(6)]
    stop = np.array([0.0, 0.5, 0.0, 5.0, 0.0, 0.05])  # rows leave at their own steps
    x1 = np.full(d, 3.25)
    x_star, psi_star = np.stack([i.x_star for i in insts]), np.array([o[1] for o in opt])
    x_opts = np.stack([o[0] for o in opt])
    hooks = dict(
        gap_fn=bench._RowFn(functools.partial(bench._ridge_gaps, insts[0]), x_star, psi_star),
        bregman_fn=bench._RowFn(functools.partial(bregman_to, H), x_opts),
        noise_fn=NoiseTerms(x_opts, params.p))
    hooks, oracle, points = recording(
        hooks, OracleRows([RidgeOracle(i) for i in insts], [philox(s, 7) for s in range(6)]))
    x, y, batch = solver(oracle, H, per_row, np.tile(x1, (6, 1)), T, **hooks, stop_gap=stop)
    # every step evaluates each distinct schedule once, at a scalar t
    assert all(sc.ts == list(range(1, batch.T + 1)) for sc in scheds)
    assert batch.alphas.shape == (batch.T, 6)
    for i, (inst, (x_opt, p_star)) in enumerate(zip(insts, opt)):
        one, oracle_i, points_i = recording(
            dict(gap_fn=lambda z: ridge_psi(inst, z) - p_star,
                 bregman_fn=bregman_to(H, x_opt), noise_fn=NoiseTerms(x_opt, params.p)),
            RidgeOracle(inst))
        xi, yi, alone = solver(oracle_i, H, per_row[i].sched, x1, T,
                               rng=philox(i, 7), **one, stop_gap=stop[i] or None)
        row = batch.row(i)
        assert x[i].tobytes() == xi.tobytes() and y[i].tobytes() == yi.tobytes()
        assert_same_points(points, i, points_i)
        assert row.T == alone.T and row.stopped_at == alone.stopped_at
        for field in ("alphas", "gammas", "A", "noise_norm", "noise_inner", "psi_gap",
                      "bregman_to_opt", "start", "last", "last_average"):
            a, b = getattr(row, field), getattr(alone, field)
            assert (a is None) == (b is None)
            assert a is None or a.tobytes() == b.tobytes(), field
        psi = functools.partial(ridge_psi, inst)
        reports = [certificate_check(tr, params, H, x_opt, psi, p_star) for tr in (row, alone)]
        for field in ("lhs", "rhs", "slack", "martingale", "noise_moment", "deterministic"):
            assert getattr(reports[0], field).tobytes() == getattr(reports[1], field).tobytes()
    assert [s is not None for s in batch.row_stopped_at].count(True) >= 2


# Two nacsmd rows and four acsmd rows; the second order interleaves them.
KINDS = {"blocks": ["nacsmd", "nacsmd", "acsmd", "acsmd", "acsmd", "acsmd"],
         "interleaved": ["acsmd", "nacsmd", "acsmd", "acsmd", "nacsmd", "acsmd"]}
DEGREES = {"nacsmd": [0.0, 1.0], "acsmd": [1.0, 2.0, 3.0, 1.5]}


def mixed_problem(q, names):
    """(instances, optima, H, params, one validated schedule per row)."""
    d = 5
    insts = [RidgeInstance(x_star=philox(s, 1).uniform(-0.3, 0.3, d),
                           sigma_b=0.1, mu=2.0, q=q) for s in range(len(names))]
    opt = [exact_optimum(inst) for inst in insts]
    H = PowerNormRegularizer(mu=2.0, q=q)
    params = derive_params(q, 2.0, insts[0].L, 2.0 * power_uc_constant(q))
    degrees = {k: iter(m) for k, m in DEGREES.items()}
    scheds = [default_schedule(params, nm, m=next(degrees[nm])) for nm in names]
    return insts, opt, H, params, scheds


def mixed_hooks(insts, opt, H, params):
    x_star = np.stack([i.x_star for i in insts])
    x_opts, psi_star = np.stack([o[0] for o in opt]), np.array([o[1] for o in opt])
    return dict(
        gap_fn=bench._RowFn(functools.partial(bench._ridge_gaps, insts[0]), x_star, psi_star),
        bregman_fn=bench._RowFn(functools.partial(bregman_to, H), x_opts),
        noise_fn=NoiseTerms(x_opts, params.p))


@pytest.mark.parametrize("order", sorted(KINDS))
@pytest.mark.parametrize("q", [2.0, 3.0])
def test_a_mixed_batch_gives_every_row_the_bits_of_its_own_run(q, order):
    names, T = KINDS[order], 80
    insts, opt, H, params, scheds = mixed_problem(q, names)
    # the acsmd rows leave at their own stop gaps, the nacsmd rows run on
    gaps = iter([5.0, 1.0, 0.5, 0.2])
    stop = np.array([0.0 if nm == "nacsmd" else next(gaps) for nm in names])
    x1 = np.full(5, 3.25)
    hooks, oracle, points = recording(
        mixed_hooks(insts, opt, H, params),
        OracleRows([RidgeOracle(i) for i in insts], [philox(s, 7) for s in range(6)]))
    x, y, batch = bench._mirror_descent(names, oracle, H, scheds, np.tile(x1, (6, 1)), T,
                                        params=params, **hooks, stop_gap=stop)
    assert batch.algorithm == names
    ran = []
    for i, (inst, (x_opt, p_star)) in enumerate(zip(insts, opt)):
        one, oracle_i, points_i = recording(
            dict(gap_fn=lambda z: ridge_psi(inst, z) - p_star,
                 bregman_fn=bregman_to(H, x_opt), noise_fn=NoiseTerms(x_opt, params.p)),
            RidgeOracle(inst))
        solver = nacsmd if names[i] == "nacsmd" else acsmd
        xi, yi, alone = solver(oracle_i, H, scheds[i], x1, T, rng=philox(i, 7), **one,
                               stop_gap=stop[i] or None)
        row = batch.row(i)
        assert row.algorithm == alone.algorithm == names[i]
        assert x[i].tobytes() == xi.tobytes() and y[i].tobytes() == yi.tobytes()
        assert_same_points(points, i, points_i)
        assert row.T == alone.T and row.stopped_at == alone.stopped_at
        for field in ("alphas", "gammas", "A", "noise_norm", "noise_inner", "psi_gap",
                      "bregman_to_opt", "start", "last", "last_average"):
            assert getattr(row, field).tobytes() == getattr(alone, field).tobytes(), field
        psi = functools.partial(ridge_psi, inst)
        reports = [certificate_check(tr, params, H, x_opt, psi, p_star) for tr in (row, alone)]
        assert reports[0].ok
        for field in ("lhs", "rhs", "slack", "martingale", "noise_moment", "deterministic"):
            assert getattr(reports[0], field).tobytes() == getattr(reports[1], field).tobytes()
        ran.append((names[i], row.T))
    # every acsmd row left at its stop gap, so the last steps ran nacsmd alone
    assert max(t for nm, t in ran if nm == "acsmd") < batch.T == T
    assert [nm for nm, t in ran if t == T] == ["nacsmd", "nacsmd"]


@pytest.mark.parametrize("order", sorted(KINDS))
def test_rows_of_both_solvers_that_go_non_finite_at_once_keep_their_own_errors(order):
    names, T = KINDS[order], 30
    insts, opt, H, params, scheds = mixed_problem(3.0, names)
    # the first row of each solver blows up at its third query
    blown = {names.index("nacsmd"), names.index("acsmd")}
    x1 = np.full(5, 3.25)
    oracles = [RidgeOracle(i) for i in insts]
    batch_oracle = OracleRows([BlowUp(o) if i in blown else o for i, o in enumerate(oracles)],
                              [philox(s, 7) for s in range(6)])
    _, _, batch = bench._mirror_descent(names, batch_oracle, H, scheds, np.tile(x1, (6, 1)), T,
                                        **mixed_hooks(insts, opt, H, params))
    assert batch.row_errors == {i: f"{names[i]}: non-finite oracle output at t=3"
                                for i in blown}
    for i, (inst, (x_opt, p_star)) in enumerate(zip(insts, opt)):
        solver = nacsmd if names[i] == "nacsmd" else acsmd
        run = functools.partial(
            solver, H=H, sched=scheds[i], x1=x1, T=T, rng=philox(i, 7),
            gap_fn=lambda z: ridge_psi(inst, z) - p_star, bregman_fn=bregman_to(H, x_opt),
            noise_fn=NoiseTerms(x_opt, params.p))
        if i in blown:
            with pytest.raises(NumericalError) as alone:
                run(BlowUp(oracles[i]))
            with pytest.raises(NumericalError) as row:
                batch.row(i)
            assert str(row.value) == str(alone.value) == batch.row_errors[i]
            continue
        _, _, alone = run(oracles[i])
        row = batch.row(i)
        assert row.algorithm == names[i] and row.T == alone.T == T
        for field in ("alphas", "A", "psi_gap", "noise_norm", "last", "last_average"):
            assert getattr(row, field).tobytes() == getattr(alone, field).tobytes(), field


def test_a_mixed_batch_refuses_a_wrong_count_of_names():
    names = KINDS["blocks"]
    insts, opt, H, params, scheds = mixed_problem(3.0, names)
    oracle = OracleRows([RidgeOracle(i) for i in insts], [philox(s, 7) for s in range(6)])
    with pytest.raises(bench.ParameterError, match="5 solver names for a batch of 6 rows"):
        bench._mirror_descent(names[:5], oracle, H, scheds, np.zeros((6, 5)), 5)
    with pytest.raises(bench.ParameterError, match="solver must be one of"):
        bench._mirror_descent(names[:5] + ["acsa"], oracle, H, scheds, np.zeros((6, 5)), 5)


def test_schedules_must_match_the_rows():
    H = PowerNormRegularizer(mu=2.0, q=3.0)
    params = derive_params(3.0, 2.0, 1.0, 2.0 * power_uc_constant(3.0))
    sched = default_schedule(params, "acsmd")
    oracle = OracleRows([RidgeOracle(RidgeInstance(x_star=np.zeros(2),
                                                   sigma_b=0.1, mu=2.0, q=3.0))] * 3,
                        [philox(s) for s in range(3)])
    with pytest.raises(bench.ParameterError, match="2 schedules for a batch of 3 rows"):
        acsmd(oracle, H, [sched, sched], np.zeros((3, 2)), 5)


def test_a_cell_whose_schedule_fails_errors_only_its_runs(tmp_path, monkeypatch):
    real = bench.default_schedule

    def failing(params, target, m=None, **kwargs):
        if m == 2.0:
            raise bench.NumericalError("synthetic schedule failure")
        return real(params, target, m=m, **kwargs)

    monkeypatch.setattr(bench, "default_schedule", failing)
    cfg = {
        "instance": {"d": [3]},
        "solver": {"algorithms": MIXED, "schedule_mode": "validated"},
        "run": {"epsilon": 0.05, "T_max": 40},
    }
    traces, records, plot = grid(cfg, tmp_path / "all", SEEDS)
    errors = {key: r["error"] for key, r in records.items() if "error" in r}
    assert errors == {("ridge-d3-Lx1-acsmd2", s): "synthetic schedule failure" for s in SEEDS}
    rest = dict(cfg, solver=dict(cfg["solver"], algorithms=["nacsmd", "acsmd1", "acsmd3"]))
    one_traces, one_records, one_plot = one_algorithm_grids(rest, tmp_path, SEEDS)
    assert traces == one_traces and plot == one_plot
    assert {k: r for k, r in records.items() if k not in errors} == one_records
