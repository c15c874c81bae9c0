"""The step loop behind ``nacsmd``/``acsmd`` runs an ``(S, d)`` batch of
iterates, and ``lower_bound_experiment`` runs its trials as the rows of one
batch on a pre-drawn gradient block. These tests hold each batched row to
the bits of its own ``(d,)`` run, and the experiment's report to a copy of
the per-trial loop it replaced, run on a copy of the scalar-draw oracle.
"""

import math

import numpy as np
import pytest

import ccmin.diagnostics as diagnostics
import ccmin.solvers as solvers
from ccmin import (
    ParameterError,
    PowerNormRegularizer,
    acsmd,
    bernoulli_oracle,
    default_schedule,
    derive_params,
    lower_bound_experiment,
    nacsmd,
    power_uc_constant,
)
from ccmin.diagnostics import LowerBoundReport
from recording import Recording, RecordingOracle

SOLVERS = {"nacsmd": nacsmd, "acsmd": acsmd}


def philox(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


class DriftOracle:
    """g = a * (x - b) + noise[t]: depends on the query point, elementwise,
    so row i of a batch sees exactly what a run on row i alone sees."""

    mean_gradient = None

    def __init__(self, a, b, noise):
        self.a, self.b, self._rows = a, b, iter(noise)

    def sample_gradient(self, x, rng=None):
        return self.a * (x - self.b) + next(self._rows)


def problem(q, target):
    mu = 1.3
    params = derive_params(q, 2.0, 0.7, mu * power_uc_constant(q))
    return default_schedule(params, target), PowerNormRegularizer(mu=mu, q=q)


@pytest.mark.parametrize("name", ["nacsmd", "acsmd"])
@pytest.mark.parametrize("q", [2.0, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("S", [1, 7, 300])
def test_batched_rows_match_single_runs(name, q, S):
    T, d = 40, 3
    sched, H = problem(q, name)
    rng = philox(int(q * 10), S)
    x1 = rng.uniform(-2.0, 2.0, (S, d))
    a = 0.6
    b = rng.uniform(-1.0, 1.0, (S, d))
    noise = rng.standard_normal((T, S, d)) * np.array([0.0, 0.3, 5.0])
    solver = SOLVERS[name]

    def run(oracle, start):
        """The run's trace and the points it passed: x_{t+1}, x^ag_{t+1}, queries."""
        points = Recording(), Recording(), RecordingOracle(oracle)
        return solver(points[2], H, sched, start, T, gap_fn=points[1],
                      bregman_fn=points[0]), points

    (x, y, trace), points = run(DriftOracle(a, b, noise), x1)
    assert x.shape == y.shape == (S, d)
    assert all(rec[i].shape == (T, d) for rec in points for i in range(S))
    for i in sorted({*range(0, S, 13), S - 1}):
        (xi, yi, tri), alone = run(DriftOracle(a, b[i], noise[:, i]), x1[i])
        assert x[i].tobytes() == xi.tobytes()
        assert y[i].tobytes() == yi.tobytes()
        for rec, rec_i in zip(points, alone):  # iterates, averages, queries
            assert rec[i].tobytes() == rec_i[0].tobytes()
        assert trace.alphas.tobytes() == tri.alphas.tobytes()
        assert trace.gammas.tobytes() == tri.gammas.tobytes()


@pytest.mark.parametrize("name", ["nacsmd", "acsmd"])
@pytest.mark.parametrize("opts,stop_gap", [
    ({"gap_fn": lambda x: 1.0}, None),
    ({"gap_fn": lambda x: 1.0}, 0.5),
    ({"bregman_fn": lambda x: 1.0}, None),
    ({}, 0.5),
])
def test_batch_refuses_scalar_series(name, opts, stop_gap):
    sched, H = problem(2.0, name)
    oracle = DriftOracle(1.0, 0.0, np.zeros((5, 4, 3)))
    with pytest.raises(ParameterError):
        SOLVERS[name](oracle, H, sched, np.zeros((4, 3)), 5, **opts, stop_gap=stop_gap)


def test_uniform_block_equals_successive_draws():
    for seed in range(20):
        for i in (0, 1, 28):
            block = philox(seed, i).random(172)
            stream = philox(seed, i)
            successive = np.array([stream.random() for _ in range(172)])
            assert block.tobytes() == successive.tobytes()


class ScalarDrawOracle:
    """The hidden-sign oracle as it sampled before ``BernoulliOracle.gradients``:
    one scalar uniform per call, the gradient built in Python floats."""

    mean_gradient = None

    def __init__(self, inst):
        self.inst = inst

    def sample_gradient(self, x, rng):
        inst = self.inst
        b = 1.0 / inst.s if rng.random() < inst.s else 0.0
        return np.array([inst.nu * b * inst.C])


def test_bernoulli_gradients_keep_the_scalar_draw_bits():
    for q, eps in [(2.0, 0.002), (3.0, 0.03), (2.0, 0.2)]:
        for nu in (1, -1):
            orc, inst = bernoulli_oracle(1.0, q, 1.0, eps, nu=nu)
            ref = ScalarDrawOracle(inst)
            key = (int(q * 10), nu + 1)
            a, b, c = philox(*key), philox(*key), philox(*key)
            want = np.array([ref.sample_gradient(None, a) for _ in range(500)])
            got = np.array([orc.sample_gradient(np.zeros(1), b) for _ in range(500)])
            block = orc.gradients(c.random(500))
            assert np.any(want != 0.0)
            assert got.tobytes() == want.tobytes()
            assert block.tobytes() == want[:, 0].tobytes()


def reference_lower_bound(solver, mu, q, sigma, epsilon, gamma, trials, seed=0, T=None):
    """The per-trial loop ``lower_bound_experiment`` ran before its trials
    were batched: one solver call, one schedule check and one scalar draw a
    step per trial."""
    p = q / (q - 1.0)
    if T is None:
        bound = (
            0.5 / p ** (q - 1.0) * (sigma / mu) * (sigma / epsilon) ** (q - 1.0)
            * math.log(1.0 / (1.0 - gamma))
        )
        T = max(1, math.floor(bound))
    run = SOLVERS[solver]
    params = derive_params(q, 2.0, 0.0, mu * power_uc_constant(q), sigma=sigma)
    sched = default_schedule(params, solver, validate_horizon=max(T, 16))
    H = PowerNormRegularizer(mu=mu, q=q)
    signed = {}
    for nu in (1, -1):
        _, inst = bernoulli_oracle(mu, q, sigma, epsilon, nu=nu)
        signed[nu] = (ScalarDrawOracle(inst), inst)
    s_value, C_value = signed[1][1].s, signed[1][1].C

    class Recording:
        def __init__(self, oracle):
            self.oracle, self.mean_gradient, self.grads = oracle, None, []

        def sample_gradient(self, x, rng):
            g = self.oracle.sample_gradient(x, rng)
            self.grads.append(g)
            return g

    failures = 0
    allzero = 0
    outputs = []
    for i in range(trials):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, i))))
        nu = 1 if rng.random() < 0.5 else -1
        oracle, inst = signed[nu]
        recording = Recording(oracle)
        _, y, _ = run(recording, H, sched, np.zeros(1), T, rng=rng, params=params)
        outputs.append(y)
        subopt = inst.psi(float(y[0])) - inst.psi_star
        if subopt >= epsilon * (1.0 - 1e-9):
            failures += 1
        if not np.any(recording.grads):
            allzero += 1

    rate = failures / trials
    theory = 1.0 - gamma
    threshold = theory - 3.0 * math.sqrt(gamma * (1.0 - gamma) / trials)
    report = LowerBoundReport(
        empirical_failure_rate=rate,
        T_bound=T,
        theory_rate=theory,
        threshold=threshold,
        ok=rate >= threshold,
        allzero_rate=allzero / trials,
        allzero_expected=(1.0 - s_value) ** T,
        activation=s_value,
        gradient_scale=C_value,
        trials=trials,
    )
    return report, np.concatenate(outputs)


def batched_lower_bound(monkeypatch, solver, *args, **kwargs):
    """``lower_bound_experiment``'s report and every trial's output, read
    off the solver calls it makes."""
    outputs = []
    real = getattr(solvers, solver)

    def recorded(*a, **kw):
        x, y, trace = real(*a, **kw)
        outputs.append(y[:, 0])
        return x, y, trace

    monkeypatch.setattr(solvers, solver, recorded)
    return lower_bound_experiment(solver, *args, **kwargs), np.concatenate(outputs)


def assert_same_experiment(got, want):
    (got, got_y), (want, want_y) = got, want
    assert got_y.tobytes() == want_y.tobytes()
    for field in LowerBoundReport.__dataclass_fields__:
        a, b = getattr(got, field), getattr(want, field)
        assert type(a) is type(b), field
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), field


# the benchmark's four points, mu = sigma = 1, gamma = 1/2
BENCH_POINTS = [("nacsmd", 2.0, 0.002), ("nacsmd", 3.0, 0.03),
                ("acsmd", 2.0, 0.002), ("acsmd", 3.0, 0.03)]


@pytest.mark.parametrize("solver,q,eps", BENCH_POINTS)
@pytest.mark.parametrize("seed", [0, 11])
def test_lower_bound_matches_per_trial_loop(monkeypatch, solver, q, eps, seed):
    args = (1.0, q, 1.0, eps, 0.5, 40)
    assert_same_experiment(batched_lower_bound(monkeypatch, solver, *args, seed=seed),
                           reference_lower_bound(solver, *args, seed=seed))


@pytest.mark.parametrize("seed", [0, 3, 12345])
@pytest.mark.parametrize("solver,q,eps,T", [
    ("nacsmd", 2.0, 0.002, None), ("acsmd", 3.0, 0.03, None),
    ("acsmd", 2.5, 0.01, None), ("nacsmd", 4.0, 0.05, 60),
    ("acsmd", 2.0, 0.05, 1), ("nacsmd", 3.0, 0.03, 1),
])
def test_partial_last_block_matches_per_trial_loop(monkeypatch, seed, solver, q, eps, T):
    monkeypatch.setattr(diagnostics, "_TRIAL_BLOCK", 7)
    args = (1.0, q, 1.0, eps, 0.5, 23)
    assert_same_experiment(batched_lower_bound(monkeypatch, solver, *args, seed=seed, T=T),
                           reference_lower_bound(solver, *args, seed=seed, T=T))


def test_one_solver_call_per_block(monkeypatch):
    calls = []
    real = solvers.acsmd

    def counted(oracle, H, sched, x1, T, **kwargs):
        calls.append((np.shape(x1), kwargs.get("params")))
        return real(oracle, H, sched, x1, T, **kwargs)

    monkeypatch.setattr(solvers, "acsmd", counted)
    monkeypatch.setattr(diagnostics, "_TRIAL_BLOCK", 7)
    lower_bound_experiment("acsmd", 1.0, 2.0, 1.0, 0.05, 0.5, trials=16, seed=2)
    assert calls == [((7, 1), None), ((7, 1), None), ((2, 1), None)]
