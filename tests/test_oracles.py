import math

import numpy as np
import pytest

from ccmin import (
    AdditiveNoiseOracle,
    OracleRows,
    ParameterError,
    PowerNormRegularizer,
    RidgeInstance,
    RidgeOracle,
    bernoulli_oracle,
    default_schedule,
    derive_params,
    nacsmd,
    power_uc_constant,
)
from ccmin.oracles import solve_bernoulli_activation


def philox(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def make_ridge(d=6, sigma_b=0.1, mu=2.0, q=4.0, seed=0):
    rng = np.random.default_rng(seed)
    return RidgeInstance(x_star=rng.uniform(-1, 1, d),
                         sigma_b=sigma_b, mu=mu, q=q)


class TestRidge:
    def test_mean_gradient_formula(self):
        inst = make_ridge()
        orc = RidgeOracle(inst)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.normal(0, 2, inst.dimension)
            assert np.allclose(orc.mean_gradient(x), 2.0 / 3.0 * (x - inst.x_star))

    def test_sample_mean_converges_at_truth(self):
        # noiseless labels, query at the truth: gradients average to zero
        inst = make_ridge(d=4, sigma_b=0.0)
        orc = RidgeOracle(inst)
        rng = philox(2)
        total = np.zeros(4)
        n = 100_000
        for _ in range(n):
            total += orc.sample_gradient(inst.x_star, rng)
        assert np.linalg.norm(total / n) <= 0.02

    def test_unbiasedness_at_random_points(self):
        inst = make_ridge(d=3, sigma_b=0.2, seed=5)
        orc = RidgeOracle(inst)
        point_rng = np.random.default_rng(6)
        rng = philox(7)
        n = 4000
        for _ in range(20):
            x = point_rng.normal(0, 1.5, 3)
            draws = np.array([orc.sample_gradient(x, rng) for _ in range(n)])
            mean = orc.mean_gradient(x)
            se = draws.std(axis=0) / math.sqrt(n)
            assert np.all(np.abs(draws.mean(axis=0) - mean) <= 6 * se + 1e-12)

    def test_reproducibility_bit_exact(self):
        inst = make_ridge()
        orc = RidgeOracle(inst)
        x = np.ones(inst.dimension)
        a = [orc.sample_gradient(x, philox(42)) for _ in range(1)]
        stream1 = philox(42)
        stream2 = philox(42)
        for _ in range(50):
            g1 = orc.sample_gradient(x, stream1)
            g2 = orc.sample_gradient(x, stream2)
            assert np.array_equal(g1, g2)
        assert np.array_equal(a[0], orc.sample_gradient(x, philox(42)))

    def test_declared_constants(self):
        inst = make_ridge(d=16, q=4.0)
        assert inst.L == pytest.approx(2.0 / 3.0 * 16 ** 0.5)
        assert inst.mu_F == pytest.approx(2.0 / 3.0)
        p = 4.0 / 3.0
        R = inst.radius_estimate
        assert inst.declared_sigma == pytest.approx(16 ** (2 / p) * 0.01 + 2 * 256 * R ** 2)

    @pytest.mark.parametrize("R", [0.0, -1.0])
    def test_radius_must_be_positive(self, R):
        with pytest.raises(ParameterError, match="R must be positive"):
            RidgeInstance(x_star=np.ones(2), sigma_b=0.1, mu=2.0, q=3.0, R=R)

    def test_dimension_is_the_length_of_x_star(self):
        assert RidgeInstance(x_star=[0.5, -1.0, 2.0], sigma_b=0.1, mu=2.0, q=3.0).dimension == 3

    @pytest.mark.parametrize("x_star", [np.zeros(0), np.ones((2, 2)), 0.5])
    def test_x_star_must_be_a_non_empty_vector(self, x_star):
        with pytest.raises(ParameterError, match="x_star must be a non-empty 1-D array"):
            RidgeInstance(x_star=x_star, sigma_b=0.1, mu=2.0, q=3.0)


class TestBernoulli:
    def test_scale_constant_example(self):
        orc, inst = bernoulli_oracle(1.0, 2.0, 1.0, 0.1, nu=1)
        assert inst.C == pytest.approx(0.2 ** 0.5, abs=1e-12)
        assert inst.gap_at_origin == pytest.approx(0.1, abs=1e-12)

    def test_activation_solves_defining_equation(self):
        s = solve_bernoulli_activation(1.0, 2.0, 1.0, 0.1)
        # s/(1-s)^2 = 2 p mu eps / sigma^p = 0.4, unique root (1.8-sqrt(2.6))/0.8
        assert s / (1 - s) ** 2 == pytest.approx(0.4, abs=1e-10)
        assert s == pytest.approx((1.8 - math.sqrt(2.6)) / 0.8, abs=1e-10)

    def test_centered_moment_bounded(self):
        for q, eps in [(2.0, 0.1), (3.0, 0.05), (4.0, 0.02)]:
            orc, inst = bernoulli_oracle(1.0, q, 1.0, eps, nu=-1)
            p = q / (q - 1.0)
            s, C = inst.s, inst.C
            analytic = C ** p * (1 - s) * (1 + ((1 - s) / s) ** (p - 1.0))
            assert analytic <= 1.0 + 1e-9
            # Monte Carlo on |delta|^p: delta = nu C (b - 1)
            rng = philox(8)
            b = np.where(rng.random(200_000) < s, 1.0 / s, 0.0)
            emp = np.mean(np.abs(C * (b - 1.0)) ** p)
            assert emp <= 1.02

    @pytest.mark.parametrize("sigma", [1e-300, 1e300])
    def test_a_sigma_whose_power_is_not_finite_and_positive_is_refused(self, sigma):
        # sigma^p once underflowed to 0 (a ZeroDivisionError) or overflowed
        # (an OverflowError) in Python floats
        with pytest.raises(ParameterError, match="sigma"):
            solve_bernoulli_activation(1.0, 3.0, sigma, 1e-3)
        with pytest.raises(ParameterError, match="sigma"):
            bernoulli_oracle(1.0, 3.0, sigma, 1e-3, nu=1)

    def test_an_activation_equation_with_no_finite_positive_side_is_refused(self):
        # sigma^p is finite, but the right side underflows to 0
        with pytest.raises(ParameterError, match="right side"):
            solve_bernoulli_activation(1.0, 2.0, 1e150, 1e-300)

    def test_precondition_rejected(self):
        # epsilon above sigma^p/(2 p mu^{p-1}) breaks the construction
        with pytest.raises(ParameterError, match="epsilon"):
            bernoulli_oracle(1.0, 2.0, 1.0, 0.3, nu=1)

    def test_silence_probability(self):
        orc, inst = bernoulli_oracle(1.0, 2.0, 1.0, 0.05, nu=1)
        rng = philox(9)
        trials = 4000
        for T in (1, 5, 20):
            silent = 0
            for _ in range(trials):
                draws = [orc.sample_gradient(np.zeros(1), rng)[0] for _ in range(T)]
                silent += all(g == 0.0 for g in draws)
            expected = (1 - inst.s) ** T
            se = math.sqrt(expected * (1 - expected) / trials)
            assert abs(silent / trials - expected) <= 3 * se + 1e-9

    def test_optimum_closed_form(self):
        orc, inst = bernoulli_oracle(0.7, 3.0, 1.0, 0.02, nu=1)
        x = inst.x_opt
        # first-order condition nu C + mu |x|^{q-1} sign(x) = 0
        assert inst.nu * inst.C + inst.mu * abs(x) ** (inst.q - 1) * np.sign(x) == pytest.approx(0, abs=1e-12)
        grid = np.linspace(x - 0.5, x + 0.5, 2001)
        vals = [inst.psi(v) for v in grid]
        assert inst.psi_star <= min(vals) + 1e-12


class TestAdditiveNoise:
    def test_zero_sigma_is_exactly_deterministic(self):
        grad = lambda x: 3.0 * np.asarray(x)  # noqa: E731
        orc = AdditiveNoiseOracle(grad, 3, kind="gaussian", sigma=0.0)
        x = np.array([1.0, -2.0, 0.5])
        rng = philox(10)
        g = orc.sample_gradient(x, rng)
        assert np.array_equal(g, 3.0 * x)
        # no randomness consumed: the stream still produces its first draw
        assert rng.random() == philox(10).random()

    def test_bounded_sphere_norm_and_mgf(self):
        q, sigma, d = 4.0, 0.7, 5
        p = q / (q - 1.0)
        orc = AdditiveNoiseOracle(lambda x: np.zeros(d), d, kind="bounded_sphere",
                                  sigma=sigma, q=q)
        rng = philox(11)
        mgf_vals = []
        for _ in range(2000):
            delta = orc.sample_gradient(np.zeros(d), rng)
            norm_p = np.sum(np.abs(delta) ** p) ** (1 / p)
            assert norm_p == pytest.approx(sigma * math.log(2.0) ** (1 / p), rel=1e-12)
            mgf_vals.append(math.exp(norm_p ** p / sigma ** p))
        assert np.mean(mgf_vals) <= 2.0 + 1e-9
        assert orc.mgf_sigma == sigma

    def test_gaussian_moment_calibration_1d(self):
        sigma, p = 1.3, 2.0
        orc = AdditiveNoiseOracle(lambda x: np.zeros(1), 1, kind="gaussian",
                                  sigma=sigma, q=2.0)
        rng = philox(12)
        draws = np.array([orc.sample_gradient(np.zeros(1), rng)[0] for _ in range(100_000)])
        assert np.mean(np.abs(draws) ** p) == pytest.approx(sigma ** p, rel=0.02)

    def test_gaussian_moment_calibration_p_fractional(self):
        sigma, q, d = 0.9, 4.0, 3
        p = q / (q - 1.0)
        orc = AdditiveNoiseOracle(lambda x: np.zeros(d), d, kind="gaussian",
                                  sigma=sigma, q=q)
        rng = philox(13)
        draws = np.array([orc.sample_gradient(np.zeros(d), rng) for _ in range(100_000)])
        emp = np.mean(np.sum(np.abs(draws) ** p, axis=1))
        assert emp == pytest.approx(sigma ** p, rel=0.02)

    def test_gaussian_mgf_level_certified(self):
        orc = AdditiveNoiseOracle(lambda x: np.zeros(4), 4, kind="gaussian",
                                  sigma=1.0, q=2.0)
        rng = philox(14)
        draws = np.array([orc.sample_gradient(np.zeros(4), rng) for _ in range(50_000)])
        mgf = np.mean(np.exp(np.sum(draws ** 2, axis=1) / orc.mgf_sigma ** 2))
        assert mgf <= 2.0 + 0.02

    def test_pareto_moment_and_rejection(self):
        q, sigma = 2.0, 1.1
        orc = AdditiveNoiseOracle(lambda x: np.zeros(2), 2, kind="pareto",
                                  sigma=sigma, q=q, tail=5.0)
        assert orc.mgf_sigma is None
        rng = philox(15)
        draws = np.array([orc.sample_gradient(np.zeros(2), rng) for _ in range(200_000)])
        emp = np.mean(np.sum(np.abs(draws) ** 2, axis=1))
        assert emp == pytest.approx(sigma ** 2, rel=0.03)
        with pytest.raises(ParameterError, match="tail"):
            AdditiveNoiseOracle(lambda x: np.zeros(1), 1, kind="pareto",
                                sigma=1.0, q=2.0, tail=1.5)

    @pytest.mark.parametrize("kind", ["gaussian", "bounded_sphere"])
    @pytest.mark.parametrize("q,d", [(2.0, 1), (3.0, 4), (4.0, 7), (20.0, 50)])
    def test_block_draws_match_successive_samples(self, kind, q, d):
        orc = AdditiveNoiseOracle(lambda x: np.zeros(d), d, kind=kind, sigma=0.7, q=q)
        block = orc.draw_noise(philox(17, d), (300,))
        stream = philox(17, d)
        successive = np.array([orc.sample_gradient(np.zeros(d), stream) for _ in range(300)])
        assert block.shape == (300, d)
        assert block.tobytes() == successive.tobytes()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError, match="noise kind"):
            AdditiveNoiseOracle(lambda x: x, 1, kind="cauchy", sigma=1.0)

    def test_unbiasedness(self):
        grad = lambda x: np.array([1.0, -2.0]) + 0.5 * np.asarray(x)  # noqa: E731
        for kind in ("gaussian", "bounded_sphere", "pareto"):
            orc = AdditiveNoiseOracle(grad, 2, kind=kind, sigma=0.5, q=3.0, tail=6.0)
            rng = philox(16)
            x = np.array([0.4, 0.8])
            draws = np.array([orc.sample_gradient(x, rng) for _ in range(20_000)])
            se = draws.std(axis=0) / math.sqrt(len(draws))
            assert np.all(np.abs(draws.mean(axis=0) - grad(x)) <= 6 * se + 1e-12)


class TestCallerGenerator:
    """An oracle keeps no random stream: every draw comes from the caller."""

    def test_noisy_oracles_refuse_a_missing_generator(self):
        ridge = RidgeOracle(make_ridge())
        bern, _ = bernoulli_oracle(1.0, 2.0, 1.0, 0.05, nu=1)
        noisy = AdditiveNoiseOracle(lambda x: np.zeros(3), 3, kind="gaussian", sigma=0.5)
        for orc, x, name in ((ridge, np.zeros(6), "RidgeOracle"),
                             (bern, np.zeros(1), "BernoulliOracle"),
                             (noisy, np.zeros(3), "AdditiveNoiseOracle")):
            with pytest.raises(ParameterError, match=name):
                orc.sample_gradient(x)
            with pytest.raises(ParameterError, match=name):
                orc.sample_gradient(x, None)

    def test_zero_noise_oracle_needs_no_generator(self):
        orc = AdditiveNoiseOracle(lambda x: 3.0 * np.asarray(x), 2, sigma=0.0)
        assert np.array_equal(orc.sample_gradient(np.array([1.0, -1.0])), [3.0, -3.0])

    def test_solver_without_rng_is_refused(self):
        inst = make_ridge(d=4, q=2.0)
        params = derive_params(2.0, 2.0, inst.L, inst.mu * power_uc_constant(2.0))
        H = PowerNormRegularizer(mu=inst.mu, q=2.0)
        sched = default_schedule(params, "nacsmd", validate_horizon=10)
        with pytest.raises(ParameterError, match="RidgeOracle"):
            nacsmd(RidgeOracle(inst), H, sched, np.zeros(4), 10)

    def test_rows_refuse_a_missing_generator(self):
        oracles = [RidgeOracle(make_ridge(seed=k)) for k in range(2)]
        with pytest.raises(ParameterError, match="generator"):
            OracleRows(oracles, [None, None])
        with pytest.raises(ParameterError, match="generator"):
            OracleRows(oracles, [philox(1), None])
