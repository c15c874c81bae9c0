import dataclasses

import numpy as np
import pytest

import ccmin.diagnostics as diagnostics
from ccmin import (
    DiagnosticUnavailableError,
    NoiseTerms,
    ParameterError,
    PowerNormRegularizer,
    RidgeInstance,
    TraceOptions,
    AdditiveNoiseOracle,
    bernoulli_oracle,
    certificate_check,
    certificate_options,
    concentration_check,
    default_schedule,
    derive_params,
    exact_optimum,
    expectation_bound,
    lower_bound_experiment,
    martingale_tail_bound,
    nacsmd,
    acsmd,
    power_inv_r,
    power_uc_constant,
    RidgeOracle,
    ridge_psi,
)
from ccmin.solvers import _bound_term_arrays


def philox(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def ridge_problem(d=4, q=4.0, mu=2.0, sigma_b=0.0, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    inst = RidgeInstance(x_star=scale * rng.uniform(-1, 1, d),
                         sigma_b=sigma_b, mu=mu, q=q)
    params = derive_params(q, 2.0, inst.L, mu * power_uc_constant(q))
    H = PowerNormRegularizer(mu=mu, q=q)
    x_opt, psi_star = exact_optimum(inst)
    psi = lambda x: ridge_psi(inst, x)  # noqa: E731
    return inst, params, H, x_opt, psi_star, psi


class TestExactOptimum:
    def test_zero_regularization_returns_truth(self):
        inst = RidgeInstance(x_star=np.array([1.0, -2.0, 0.5]),
                             sigma_b=0.2, mu=0.0, q=2.0)
        x_opt, psi_star = exact_optimum(inst)
        assert np.allclose(x_opt, inst.x_star)
        assert psi_star == pytest.approx(0.04)

    def test_quadratic_closed_form(self):
        # q=2, mu=2: (2/3)(x - x*) + 2x = 0 gives x = x*/4
        inst = RidgeInstance(x_star=np.array([2.0, -1.0, 0.4, 0.0]),
                             sigma_b=0.0, mu=2.0, q=2.0)
        x_opt, _ = exact_optimum(inst)
        assert np.allclose(x_opt, inst.x_star / 4.0, atol=1e-12)

    def test_against_dense_grid_minimization(self):
        inst = RidgeInstance(x_star=np.array([0.8, -0.6]),
                             sigma_b=0.1, mu=2.0, q=4.0)
        x_opt, psi_star = exact_optimum(inst)
        for j in range(2):
            grid = np.linspace(x_opt[j] - 0.3, x_opt[j] + 0.3, 40_001)
            vals = ((grid - inst.x_star[j]) ** 2 / 3.0
                    + inst.mu / inst.q * np.abs(grid) ** inst.q)
            assert abs(grid[np.argmin(vals)] - x_opt[j]) <= 1e-4
        # first-order residual
        foc = 2.0 / 3.0 * (x_opt - inst.x_star) + inst.mu * np.abs(x_opt) ** 3 * np.sign(x_opt)
        assert np.max(np.abs(foc)) <= 1e-10


class TestCertificate:
    def run_trace(self, solver, target, params, H, inst, sigma=0.0, T=200, seed=1):
        x_opt, psi_star = exact_optimum(inst)
        oracle = AdditiveNoiseOracle(
            lambda x, xs=inst.x_star: 2.0 / 3.0 * (np.asarray(x, dtype=float) - xs),
            inst.dimension, kind="bounded_sphere", sigma=sigma, q=inst.q)
        sched = default_schedule(params, target, validate_horizon=max(2 * T, 500))
        _, _, tr = solver(oracle, H, sched, np.zeros(inst.dimension), T,
                          rng=philox(seed), params=params,
                          trace_opts=certificate_options(params, H, x_opt,
                                                         lambda x: ridge_psi(inst, x), psi_star))
        return tr

    def test_noiseless_run_has_zero_stochastic_terms(self):
        inst, params, H, x_opt, psi_star, psi = ridge_problem(q=4.0)
        tr = self.run_trace(nacsmd, "nacsmd", params, H, inst, sigma=0.0)
        rep = certificate_check(tr, params, H, x_opt, psi, psi_star)
        assert rep.ok
        assert np.all(rep.martingale == 0.0)
        assert np.all(rep.noise_moment == 0.0)
        assert np.all(rep.slack >= 0.0)

    def test_noisy_runs_hold_pathwise(self):
        for q, solver, target in [(2.0, nacsmd, "nacsmd"), (3.0, acsmd, "acsmd"),
                                  (4.0, acsmd, "acsmd")]:
            inst, params, H, x_opt, psi_star, psi = ridge_problem(q=q, seed=int(q))
            tr = self.run_trace(solver, target, params, H, inst, sigma=0.4, seed=int(q) + 10)
            rep = certificate_check(tr, params, H, x_opt, psi, psi_star)
            assert rep.ok, f"q={q}: violation at T={rep.first_violation}"

    def test_smooth_case_deterministic_term_is_zero(self):
        inst, params, H, x_opt, psi_star, psi = ridge_problem(q=2.0, mu=2.0)
        assert params.r == 0.0
        tr = self.run_trace(nacsmd, "nacsmd", params, H, inst, sigma=0.3)
        rep = certificate_check(tr, params, H, x_opt, psi, psi_star)
        assert np.all(rep.deterministic == 0.0)
        assert rep.ok

    def test_requires_recorded_noise(self):
        inst, params, H, x_opt, psi_star, psi = ridge_problem()
        oracle = RidgeOracle(inst)
        sched = default_schedule(params, "nacsmd", validate_horizon=100)
        opts = certificate_options(params, H, x_opt, psi, psi_star)
        _, _, tr = nacsmd(oracle, H, sched, np.zeros(4), 20, rng=philox(3),
                          params=params,
                          trace_opts=dataclasses.replace(opts, noise_fn=None))
        with pytest.raises(DiagnosticUnavailableError, match="noise terms"):
            certificate_check(tr, params, H, x_opt, psi, psi_star)

    def test_requires_recorded_iterates(self):
        # the gap and Bregman series stand in for the iterates a certificate
        # once re-evaluated; a run that recorded neither is refused
        inst, params, H, x_opt, psi_star, psi = ridge_problem()
        oracle = RidgeOracle(inst)
        sched = default_schedule(params, "nacsmd", validate_horizon=100)
        _, _, tr = nacsmd(oracle, H, sched, np.zeros(4), 20, rng=philox(4),
                          params=params,
                          trace_opts=TraceOptions(noise_fn=NoiseTerms(x_opt, params.p)))
        assert tr.noise_norm is not None
        with pytest.raises(DiagnosticUnavailableError, match="gap psi - psi_star"):
            certificate_check(tr, params, H, x_opt, psi, psi_star)

    @pytest.mark.parametrize("q,kappa", [(2.5, 1.8), (6.0, 2.0)])
    @pytest.mark.parametrize("noise", ["ridge", "pareto"])
    def test_certificate_stress_matrix(self, q, kappa, noise):
        # off-grid exponents and unbounded noise families: the inequality is
        # pathwise, so every realization must satisfy it
        d, mu = 5, 2.0
        for seed in range(3):
            rng0 = philox(seed, 101)
            inst = RidgeInstance(x_star=rng0.uniform(-1, 1, d),
                                 sigma_b=0.15, mu=mu, q=q)
            L = inst.L if kappa == 2.0 else 3.0  # generous region constant
            params = derive_params(q, kappa, L, mu * power_uc_constant(q))
            H = PowerNormRegularizer(mu=mu, q=q)
            if noise == "ridge":
                oracle = RidgeOracle(inst)
            else:
                oracle = AdditiveNoiseOracle(
                    lambda x, xs=inst.x_star: 2.0 / 3.0 * (np.asarray(x) - xs),
                    d, kind="pareto", sigma=0.6, q=q, tail=4.0)
            x_opt, psi_star = exact_optimum(inst)
            psi = lambda x, i=inst: ridge_psi(i, x)  # noqa: E731
            for solver, target in [(nacsmd, "nacsmd"), (acsmd, "acsmd")]:
                sched = default_schedule(params, target, validate_horizon=600)
                _, _, tr = solver(oracle, H, sched, np.zeros(d), 300,
                                  rng=philox(seed, 7), params=params,
                                  trace_opts=certificate_options(params, H, x_opt, psi,
                                                                 psi_star))
                rep = certificate_check(tr, params, H, x_opt, psi, psi_star)
                assert rep.ok, (q, kappa, noise, target, seed, rep.first_violation)


class RecordedNoise(NoiseTerms):
    """``NoiseTerms`` of a ``(d,)`` run that also keeps every delta_t."""

    def __init__(self, x_star, p):
        super().__init__(x_star, p)
        self.deltas = []

    def __call__(self, delta, x):
        self.deltas.append(delta[0].copy())
        return super().__call__(delta, x)


def reference_certificate_terms(trace, params, noise):
    """The certificate's noise-moment and deterministic sums, as first
    written, from the realized noise ``noise`` (T, d)."""
    alphas, gammas, A = trace.alphas, trace.gammas, trace.A
    p, q, mu, M, L, r = params.p, params.q, params.mu, params.M, params.L, params.r
    dual_norms = np.sum(np.abs(noise) ** p, axis=1) ** (1.0 / p)
    noise_moment = np.cumsum(
        2.0 * dual_norms ** p / (p * mu ** (p / q)) * (alphas ** q / gammas) ** (p / q)
    )
    if trace.algorithm == "nacsmd":
        base = 2.0 * M * alphas / (mu * gammas)
        det_steps = L * alphas * power_inv_r(base, r)
    else:
        base = 2.0 * M * alphas * (alphas / A) ** (q - 1.0) / (mu * gammas)
        det_steps = L * A * power_inv_r(base, r)
    return noise_moment, np.cumsum(det_steps)


def reference_bound_terms(params, sched, target, t, A_prev=0.0):
    """The mean bound's per-step terms, as first written."""
    alphas = np.asarray(sched.alpha(t), dtype=float)
    gammas = np.asarray(sched.gamma(t), dtype=float)
    A = A_prev + np.cumsum(alphas)
    p, q, mu, M, L, r = params.p, params.q, params.mu, params.M, params.L, params.r
    sigma = params.sigma
    noise = (2.0 * sigma ** p / (p * mu ** (p / q))) * (alphas ** q / gammas) ** (p / q)
    if target == "nacsmd":
        det = L * alphas * power_inv_r(2.0 * M * alphas / (mu * gammas), r)
    else:
        det = L * A * power_inv_r(
            2.0 * M * alphas * (alphas / A) ** (q - 1.0) / (mu * gammas), r
        )
    return A, noise, det


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])  # r = 0 at q = 2, r > 0 otherwise
@pytest.mark.parametrize("solver,target", [(nacsmd, "nacsmd"), (acsmd, "acsmd")])
def test_run_inequality_terms_keep_their_bits(q, solver, target):
    inst, _, H, x_opt, psi_star, psi = ridge_problem(q=q, sigma_b=0.2, seed=int(q))
    params = derive_params(q, 2.0, inst.L, 2.0 * power_uc_constant(q), sigma=0.3)
    assert (params.r == 0.0) == (q == 2.0)
    sched = default_schedule(params, target, validate_horizon=500)
    recorded = RecordedNoise(x_opt, params.p)
    opts = dataclasses.replace(certificate_options(params, H, x_opt, psi, psi_star),
                               noise_fn=recorded)
    _, _, tr = solver(RidgeOracle(inst), H, sched, np.zeros(inst.dimension), 200,
                      rng=philox(int(q), 17), params=params, trace_opts=opts)
    rep = certificate_check(tr, params, H, x_opt, psi, psi_star)
    noise_moment, deterministic = reference_certificate_terms(tr, params,
                                                              np.array(recorded.deltas))
    assert rep.noise_moment.tobytes() == noise_moment.tobytes()
    assert rep.deterministic.tobytes() == deterministic.tobytes()

    for t, A_prev in [(np.arange(1, 301, dtype=float), 0.0),
                      (np.arange(301, 401, dtype=float), 123.25)]:
        got = _bound_term_arrays(params, sched, target, t, A_prev=A_prev)
        want = reference_bound_terms(params, sched, target, t, A_prev=A_prev)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    t = np.arange(1, 301, dtype=float)
    _, noise, det = reference_bound_terms(params, sched, target, t)
    A = np.cumsum(np.asarray(sched.alpha(t), dtype=float))
    want = float((float(sched.gamma(1)) * 0.7 + noise.sum() + det.sum()) / A[-1])
    assert expectation_bound(params, sched, target, 0.7, 300) == want


class TestLowerBound:
    def test_signed_oracles_built_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["nu"])
            return bernoulli_oracle(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "bernoulli_oracle", counted)
        lower_bound_experiment("nacsmd", 1.0, 2.0, 1.0, 0.05, 0.5, trials=50, seed=3)
        assert sorted(calls) == [-1, 1]

    def test_small_experiment_fails_often_enough(self):
        rep = lower_bound_experiment("acsmd", 1.0, 2.0, 1.0, 0.05, 0.5,
                                     trials=120, seed=5)
        assert rep.T_bound == 3
        assert rep.ok
        assert rep.empirical_failure_rate >= rep.threshold

    def test_silence_rate_matches_geometric_law(self):
        rep = lower_bound_experiment("nacsmd", 1.0, 2.0, 1.0, 0.05, 0.5,
                                     trials=2000, seed=6)
        se = np.sqrt(rep.allzero_expected * (1 - rep.allzero_expected) / rep.trials)
        assert abs(rep.allzero_rate - rep.allzero_expected) <= 4 * se
        assert abs(rep.allzero_rate / rep.allzero_expected - 1.0) <= 0.05

    def test_single_query_keeps_expected_suboptimality(self):
        # even a one-query horizon fails on most trials: the oracle is silent
        # with probability 1 - s and the sign guess cannot beat level epsilon
        rep = lower_bound_experiment("acsmd", 1.0, 2.0, 1.0, 0.05, 0.5,
                                     trials=300, seed=7, T=1)
        assert rep.empirical_failure_rate >= 1.0 - rep.activation - 0.1

    def test_gamma_validation(self):
        with pytest.raises(ParameterError):
            lower_bound_experiment("acsmd", 1.0, 2.0, 1.0, 0.05, 1.5, trials=10)


class TestConcentration:
    def test_bounded_sphere_tails_and_mgf(self):
        weights = np.ones(50)
        rep = concentration_check("bounded_sphere", weights, trials=20_000,
                                  seed=8, sigma=1.0, R=1.0, dim=4, q=2.0)
        assert rep.ok
        assert rep.mgf_estimate <= 2.0 + 1e-9
        assert np.all(np.diff(rep.bound) <= 1e-12)  # tail bound decays along the grid

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_polynomial_weight_families(self, degree):
        t = np.arange(1, 41, dtype=float)
        rep = concentration_check("bounded_sphere", t ** degree, trials=5000,
                                  seed=9 + degree, sigma=0.8, R=1.5, dim=3, q=4.0)
        assert rep.ok

    def test_tau_zero_is_trivial(self):
        weights = np.ones(10)
        rep = concentration_check("bounded_sphere", weights, trials=2000, seed=10,
                                  tau_grid=np.array([0.0, 1.0]))
        assert rep.bound[0] == 1.0
        assert rep.ok

    def test_heavy_tail_rejected(self):
        with pytest.raises(ParameterError):
            concentration_check("pareto", np.ones(10), trials=100, seed=11)

    def test_gaussian_allowed_at_p2(self):
        rep = concentration_check("gaussian", np.ones(30), trials=5000, seed=12,
                                  sigma=1.0, R=1.0, dim=4, q=2.0)
        assert rep.ok

    def test_bound_regimes(self):
        weights = np.ones(4)
        sigma_R = 1.0
        S2 = 3.0 * sigma_R * 2.0  # = Sq at q = 2
        # gaussian regime
        inside = np.array([0.5 * S2])
        bound_in, _, _ = martingale_tail_bound(inside, weights, sigma_R, 2.0)
        assert bound_in[0] == pytest.approx(np.exp(-0.25 * 0.25), rel=1e-12)
        # past the gaussian regime: never weaker than the sub-exponential arm,
        # and the polynomial arm carries the derivation-backed 1/q factor
        tau = np.array([S2 ** 2 / sigma_R * 1.5])
        bound, _, _ = martingale_tail_bound(tau, weights, sigma_R, 2.0)
        mid = np.exp(-tau[0] / 4.0)
        poly = np.exp(-0.5 * 0.5 * (tau[0] / S2) ** 2)
        assert bound[0] == pytest.approx(min(mid, poly), rel=1e-12)
        assert bound[0] <= mid + 1e-15


class TestExpectationBound:
    def test_mean_gap_within_three_times_bound(self):
        # average the realized gap over 100 seeds and compare against the
        # computable bound with the declared noise level
        d, q, mu, sigma = 4, 4.0, 2.0, 0.5
        rng0 = np.random.default_rng(13)
        inst = RidgeInstance(x_star=rng0.uniform(-1, 1, d),
                             sigma_b=0.0, mu=mu, q=q)
        mu_eff = mu * power_uc_constant(q)
        params = derive_params(q, 2.0, inst.L, mu_eff, sigma=sigma)
        H = PowerNormRegularizer(mu=mu, q=q)
        x_opt, psi_star = exact_optimum(inst)
        sched = default_schedule(params, "nacsmd", validate_horizon=500)
        T = 200
        x1 = np.zeros(d)
        gaps = []
        for seed in range(100):
            oracle = AdditiveNoiseOracle(
                lambda x: 2.0 / 3.0 * (np.asarray(x, dtype=float) - inst.x_star),
                d, kind="bounded_sphere", sigma=sigma, q=q)
            _, x_avg, _ = nacsmd(oracle, H, sched, x1, T, rng=philox(14, seed),
                                 params=params, trace_opts=TraceOptions())
            gaps.append(ridge_psi(inst, x_avg) - psi_star)
        V0 = H.value(x_opt) - H.value(x1) - float(H.grad(x1) @ (x_opt - x1))
        bound = expectation_bound(params, sched, "nacsmd", V0, T)
        assert np.mean(gaps) <= 3.0 * bound
