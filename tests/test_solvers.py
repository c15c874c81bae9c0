import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import ccmin.solvers as solvers
from ccmin import (
    NoiseTerms,
    NumericalError,
    ParameterError,
    PolynomialSchedule,
    PowerNormRegularizer,
    RestartPlan,
    RidgeInstance,
    TraceOptions,
    acsa_baseline,
    acsmd,
    AdditiveNoiseOracle,
    default_schedule,
    derive_params,
    expectation_bound,
    exact_optimum,
    nacsmd,
    plan_from_params,
    power_uc_constant,
    restart,
    RidgeOracle,
    ridge_psi,
    validate_schedule,
)
from recording import Recording, RecordingOracle


def philox(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def explicit_schedule(alphas, gammas, target):
    """A schedule given by its sequences: step t reads alphas[t-1] and gammas[t-1]."""
    alphas, gammas = np.asarray(alphas, dtype=float), np.asarray(gammas, dtype=float)
    return SimpleNamespace(alpha=lambda t: alphas[np.asarray(t, dtype=int) - 1],
                           gamma=lambda t: gammas[np.asarray(t, dtype=int) - 1], target=target)


def deterministic_ridge(d=4, q=2.0, mu=2.0, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    inst = RidgeInstance(x_star=scale * rng.uniform(-1, 1, d),
                         sigma_b=0.0, mu=mu, q=q)
    oracle = AdditiveNoiseOracle(
        lambda x, xs=inst.x_star: 2.0 / 3.0 * (np.asarray(x, dtype=float) - xs),
        d, kind="gaussian", sigma=0.0, q=q)
    params = derive_params(q, 2.0, inst.L, mu * power_uc_constant(q))
    H = PowerNormRegularizer(mu=mu, q=q)
    return inst, oracle, params, H


class TestSchedules:
    def test_default_degree_smooth_case(self):
        params = derive_params(2.0, 2.0, 1.0, 1.0)
        sched = default_schedule(params, "nacsmd", validate_horizon=1000)
        assert sched.m == 0.0
        t = np.arange(1, 50)
        assert np.all(sched.alpha(t) == 1.0)  # constant steps

    def test_default_degrees_q4(self):
        params = derive_params(4.0, 2.0, 1.0, 1.0)
        assert default_schedule(params, "nacsmd", validate_horizon=1000).m == 0.0
        assert default_schedule(params, "acsmd", validate_horizon=1000).m == 2.0

    def test_acsmd_variant_offsets(self):
        # the accelerated variants use degree m and offset (L/mu)^(1/q)
        params = derive_params(2.0, 2.0, 4.0, 1.0)
        for m in (1.0, 2.0, 3.0):
            sched = default_schedule(params, "acsmd", m=m, offset=2.0,
                                     validate_horizon=1000)
            assert sched.m == m
            assert sched.base_offset == 2.0
            t = 5.0
            assert sched.alpha(t) == pytest.approx((t + sched.offset + 1.0) ** m)

    def test_auto_offset_repair(self):
        # q=4, kappa=2, L=mu=1: the accelerated printed offset violates the
        # curvature condition at t=1 and gets doubled until valid
        params = derive_params(4.0, 2.0, 1.0, 1.0)
        sched = default_schedule(params, "acsmd", validate_horizon=10_000)
        assert sched.offset > sched.base_offset
        assert validate_schedule(sched, params, 10_000).ok

    def test_validate_default_nacsmd_long_horizon(self):
        params = derive_params(4.0, 2.0, 1.0, 1.0)
        sched = default_schedule(params, "nacsmd", validate_horizon=10_000)
        report = validate_schedule(sched, params, 10_000)
        assert report.ok and report.first_violation is None

    def test_validate_flags_bad_custom_schedule(self):
        params = derive_params(2.0, 2.0, 1.0, 1.0)  # M/mu = 1
        t = np.arange(1, 101, dtype=float)
        sched = explicit_schedule(t ** 2, t, "nacsmd")
        report = validate_schedule(sched, params, 99)
        assert not report.ok
        assert report.first_violation == 1  # gamma_1 = 1 < 2 * alpha_1

    def test_growth_tolerance_scales_with_alpha(self):
        # gamma grows by 1.5 a step against alpha_t = 1: growth fails by 0.5,
        # which a tolerance relative to gamma_t (about 1e9) would hide
        params = derive_params(2.0, 2.0, 1.0, 1.0)
        t = np.arange(1, 102, dtype=float)
        report = validate_schedule(explicit_schedule(np.ones(101), 1e9 + 1.5 * t, "nacsmd"),
                                   params, 100)
        assert not report.ok
        assert report.first_violation == 1
        assert report.growth_slack_min == pytest.approx(-0.5)
        assert report.lower_slack_min > 0.0

    def test_gamma_scaling_raises_curvature_slack(self):
        params = derive_params(2.0, 2.0, 1.0, 1.0)
        t = np.arange(1, 101, dtype=float)
        base = explicit_schedule(t ** 2, t, "nacsmd")
        scaled = explicit_schedule(t ** 2, 10.0 * t, "nacsmd")
        r0 = validate_schedule(base, params, 99)
        r1 = validate_schedule(scaled, params, 99)
        assert r1.lower_slack_min > r0.lower_slack_min

    def test_polynomial_validation_errors(self):
        with pytest.raises(ParameterError):
            default_schedule(derive_params(2, 2, 1, 1), "sgd")


class TestSolvers:
    def test_fixed_point_at_optimum(self):
        inst, oracle, params, H = deterministic_ridge(d=1, q=4.0, mu=2.0)
        x_opt, _ = exact_optimum(inst)
        sched = default_schedule(params, "nacsmd", validate_horizon=200)
        xT, x_avg, _ = nacsmd(oracle, H, sched, x_opt, 100, params=params)
        assert np.max(np.abs(xT - x_opt)) <= 1e-12
        assert np.max(np.abs(x_avg - x_opt)) <= 1e-12

    def test_deterministic_gap_non_increasing(self):
        inst, oracle, params, H = deterministic_ridge(d=4, q=2.0, mu=2.0)
        _, psi_star = exact_optimum(inst)
        gap_fn = lambda x: ridge_psi(inst, x) - psi_star  # noqa: E731
        sched = default_schedule(params, "nacsmd", validate_horizon=2000)
        opts = TraceOptions(gap_fn=gap_fn)
        _, _, tr = nacsmd(oracle, H, sched, np.zeros(4), 1000, params=params,
                          trace_opts=opts)
        gaps = tr.psi_gap[9:]
        assert np.all(np.diff(gaps) <= 1e-12 * (1.0 + gaps[:-1]))

    def test_a_run_keeps_no_iterate(self):
        # default options: the trace holds per-step scalars and end points,
        # while one (T + 1, d) record would be (T + 1) d doubles
        d, T = 200, 2000
        inst, oracle, params, H = deterministic_ridge(d=d, q=3.0)
        sched = default_schedule(params, "acsmd", validate_horizon=T)
        tracemalloc.start()
        try:
            acsmd(oracle, H, sched, np.ones(d), T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < T * d * 8 / 2

    def test_acsmd_first_query_is_start_point(self):
        inst, oracle, params, H = deterministic_ridge(d=3, q=4.0)
        sched = default_schedule(params, "acsmd", validate_horizon=200)
        x1 = np.array([0.5, -1.0, 2.0])
        queries = RecordingOracle(oracle)
        acsmd(queries, H, sched, x1, 5, params=params)
        assert np.array_equal(queries[0][0], x1)

    def test_acceleration_beats_plain_on_deterministic_quadratic(self):
        inst, oracle, params, H = deterministic_ridge(d=50, q=2.0, mu=2.0, seed=3)
        _, psi_star = exact_optimum(inst)
        gap_fn = lambda x: ridge_psi(inst, x) - psi_star  # noqa: E731
        opts = TraceOptions(gap_fn=gap_fn)
        x1 = np.ones(50)

        def first_hit(solver, target, m=None):
            sched = default_schedule(params, target, m=m, validate_horizon=3000)
            _, _, tr = solver(oracle, H, sched, x1, 2000, params=params, trace_opts=opts)
            hits = np.nonzero(tr.psi_gap <= 1e-4)[0]
            return hits[0] + 1 if hits.size else np.inf

        assert first_hit(acsmd, "acsmd", m=1.0) < first_hit(nacsmd, "nacsmd")

    def test_average_is_alpha_weighted_combination(self):
        inst, oracle, params, H = deterministic_ridge(d=3, q=3.0)
        sched = default_schedule(params, "nacsmd", validate_horizon=200)
        rng = philox(4)
        orc = RidgeOracle(
            RidgeInstance(x_star=inst.x_star, sigma_b=0.1, mu=2.0, q=3.0))
        iterates = Recording()  # x_2 .. x_{T+1}
        _, x_avg, tr = nacsmd(orc, H, sched, np.zeros(3), 50, rng=rng, params=params,
                              trace_opts=TraceOptions(bregman_fn=iterates))
        weights = tr.alphas / tr.A[-1]
        assert weights.min() > 0.0
        assert np.sum(weights) == pytest.approx(1.0)
        recomputed = np.sum(weights[:, None] * iterates[0], axis=0)
        assert np.allclose(recomputed, x_avg, atol=1e-12)
        hull_lo = iterates[0].min(axis=0) - 1e-12
        hull_hi = iterates[0].max(axis=0) + 1e-12
        assert np.all(x_avg >= hull_lo) and np.all(x_avg <= hull_hi)
        # the accelerated recursion realizes the same alpha-weighted average
        sched_ac = default_schedule(params, "acsmd", validate_horizon=200)
        iterates_ac = Recording()
        _, ag, tra = acsmd(orc, H, sched_ac, np.zeros(3), 50, rng=philox(4),
                           params=params, trace_opts=TraceOptions(bregman_fn=iterates_ac))
        w = tra.alphas / tra.A[-1]
        assert np.allclose(np.sum(w[:, None] * iterates_ac[0], axis=0), ag,
                           atol=1e-10)

    def test_determinism_bit_exact(self):
        inst = RidgeInstance(x_star=np.array([0.3, -0.2, 0.8, 0.0]),
                             sigma_b=0.1, mu=2.0, q=4.0)
        oracle = RidgeOracle(inst)
        params = derive_params(4.0, 2.0, inst.L, 2.0 * power_uc_constant(4.0))
        H = PowerNormRegularizer(mu=2.0, q=4.0)
        for solver, target in [(nacsmd, "nacsmd"), (acsmd, "acsmd")]:
            sched = default_schedule(params, target, validate_horizon=300)
            runs, iterates = [], []
            for _ in range(2):
                iterates.append(Recording())
                opts = TraceOptions(bregman_fn=iterates[-1],
                                    noise_fn=NoiseTerms(inst.x_star, params.p))
                _, _, tr = solver(oracle, H, sched, np.zeros(4), 200,
                                  rng=philox(77), params=params, trace_opts=opts)
                runs.append(tr)
            assert np.array_equal(iterates[0][0], iterates[1][0])
            assert np.array_equal(runs[0].noise_norm, runs[1].noise_norm)
            assert np.array_equal(runs[0].noise_inner, runs[1].noise_inner)

    def test_nan_gradient_raises_numerical_error(self):
        H = PowerNormRegularizer(mu=1.0, q=2.0)
        bad = AdditiveNoiseOracle(lambda x: np.array([np.nan]), 1,
                                  kind="gaussian", sigma=0.0)
        sched = default_schedule(derive_params(2, 2, 1, 1), "nacsmd",
                                 validate_horizon=10)
        with pytest.raises(NumericalError, match="t=1"):
            nacsmd(bad, H, sched, np.zeros(1), 5)

    def test_invalid_schedule_rejected_when_params_given(self):
        inst, oracle, params, H = deterministic_ridge(d=2, q=2.0)
        t = np.arange(1, 20, dtype=float)
        sched = explicit_schedule(t ** 2, 0.01 * t, "nacsmd")
        with pytest.raises(ParameterError, match="step conditions"):
            nacsmd(oracle, H, sched, np.zeros(2), 10, params=params)

    @pytest.mark.parametrize("solver", ["nacsmd", "acsmd", "acsa"])
    def test_stop_gap_without_gap_fn_rejected(self, solver):
        inst, oracle, params, H = deterministic_ridge(d=2, q=2.0)
        with pytest.raises(ParameterError, match="stop_gap"):
            if solver == "acsa":
                acsa_baseline(oracle, H, inst.mu_F, params.L, np.zeros(2), 50,
                              stop_gap=1e9)
            else:
                sched = default_schedule(params, solver, validate_horizon=100)
                run = nacsmd if solver == "nacsmd" else acsmd
                run(oracle, H, sched, np.zeros(2), 50, params=params, stop_gap=1e9)

    @pytest.mark.parametrize("stage0", [2.5, 0, -3, True, 4.0])
    def test_baseline_rejects_a_stage0_that_is_no_integer_from_one(self, stage0):
        inst, oracle, params, H = deterministic_ridge(d=2, q=3.0)
        with pytest.raises(ParameterError, match="stage0"):
            acsa_baseline(oracle, H, inst.mu_F, params.L, np.zeros(2), 10, stage0=stage0)


PLAN_HORIZON = 100_000
# (target, derive_params arguments, V0, (n, K, T, halving_ratio's hex)) at epsilon 1e-2
PINNED_PLANS = [
    ("nacsmd", (3.0, 2.0, 1.5, 2.0 * power_uc_constant(3.0), 0.5), 4.0,
     (9, 3, 6750, "0x1.7974c0d9e251bp-2")),
    ("acsmd", (2.0, 2.0, 10.0, 1.0, 0.3), 8.0, (10, 26, 31, "0x1.f71d52300e633p-2")),
]


def default_plan(params, target, V0, epsilon, horizon=None):
    """``plan_from_params`` on ``default_schedule(params, target)``, by
    default within a horizon that every plan of these tests fits in."""
    return plan_from_params(params, target, V0, epsilon, default_schedule(params, target),
                            PLAN_HORIZON if horizon is None else horizon)


class TestRestart:
    def test_degenerate_plan_matches_single_run(self):
        inst = RidgeInstance(x_star=np.array([0.5, -0.5, 1.0]),
                             sigma_b=0.1, mu=2.0, q=4.0)
        oracle = RidgeOracle(inst)
        params = derive_params(4.0, 2.0, inst.L, 2.0 * power_uc_constant(4.0))
        H = PowerNormRegularizer(mu=2.0, q=4.0)
        sched = default_schedule(params, "nacsmd", validate_horizon=100)
        plan = RestartPlan(n=0, K=1, T=60)
        y, rtrace = restart("nacsmd", oracle, H, sched, np.zeros(3), plan,
                            rng=philox(5), params=params)
        _, y_direct, _ = nacsmd(oracle, H, sched, np.zeros(3), 60,
                                rng=philox(5), params=params)
        assert np.array_equal(y, y_direct)

    def test_stage_chaining_is_bit_exact(self):
        inst, oracle, params, H = deterministic_ridge(d=4, q=2.0, mu=2.0)
        sched = default_schedule(params, "nacsmd", validate_horizon=100)
        plan = RestartPlan(n=3, K=5, T=10)
        iterates = Recording()  # every stage's x_2 .. x_{K+1}, in turn
        _, rtrace = restart("nacsmd", oracle, H, sched, np.zeros(4), plan,
                            params=params, trace_opts=TraceOptions(bregman_fn=iterates))
        stages = rtrace.stage_traces + [rtrace.final_trace]
        ends = iterates[0][plan.K - 1::plan.K][:plan.n]
        assert len(rtrace.stage_traces) == plan.n
        assert np.array_equal(stages[0].start, np.zeros(4))
        for tr, end, following in zip(stages, ends, stages[1:]):
            assert np.array_equal(tr.last, end)
            assert np.array_equal(following.start, end)

    def test_halving_contraction_deterministic(self):
        # sigma = 0, q = kappa = 2: the run inequality makes each stage shrink
        # the divergence to the optimum by at least gamma_1/gamma_K <= 1/2
        inst, oracle, params, H = deterministic_ridge(d=6, q=2.0, mu=2.0, seed=9)
        x_opt, _ = exact_optimum(inst)

        def breg(y):
            return H.value(x_opt) - H.value(y) - float(H.grad(y) @ (x_opt - y))

        x1 = np.zeros(6)
        V0 = breg(x1)
        sched = default_schedule(params, "nacsmd")
        plan = plan_from_params(params, "nacsmd", V0, V0 / 2 ** 6, sched, PLAN_HORIZON)
        _, rtrace = restart("nacsmd", oracle, H, sched, x1, plan, params=params)
        Ds = [breg(tr.start) for tr in rtrace.stage_traces + [rtrace.final_trace]]
        for a, b in zip(Ds, Ds[1:]):
            assert b <= (0.5 + 1e-3) * a

    def test_schedule_is_checked_once_before_any_stage(self, monkeypatch):
        # growth fails by rounding at t = 16286: past the K-step stages,
        # within the final stage. The chain refuses the schedule before its
        # first oracle query, as a single run over T steps does.
        params = derive_params(2.0, 2.0, 1.0, 1.0)
        H = PowerNormRegularizer(mu=1.0, q=2.0)
        queries = []
        oracle = AdditiveNoiseOracle(lambda x: queries.append(1) or np.zeros_like(x), 1,
                                     kind="gaussian", sigma=0.0)
        far = PolynomialSchedule(m=2.0, offset=1.2e8 + 0.5, target="nacsmd")
        plan = RestartPlan(n=3, K=100, T=20_000)
        with pytest.raises(ParameterError, match="t=16286") as single:
            nacsmd(oracle, H, far, np.zeros(1), plan.T, params=params)
        with pytest.raises(ParameterError) as chained:
            restart("nacsmd", oracle, H, far, np.zeros(1), plan, params=params)
        assert str(chained.value) == str(single.value)
        assert queries == []
        # a valid schedule is scanned once, over the final stage
        horizons = []

        def recording(sched, params, horizon):
            horizons.append(horizon)
            return validate_schedule(sched, params, horizon)

        monkeypatch.setattr(solvers, "validate_schedule", recording)
        sched = PolynomialSchedule(m=2.0, offset=1e4, target="nacsmd")
        restart("nacsmd", oracle, H, sched, np.zeros(1), RestartPlan(n=3, K=5, T=40),
                params=params)
        assert horizons == [40]
        assert len(queries) == 3 * 5 + 40

    @pytest.mark.parametrize("blow_up", [3, 16])
    def test_a_batch_row_blowing_up_in_any_stage_ends_the_chain(self, blow_up):
        # 3 rows; the (blow_up)-th query and every later one is NaN: in a
        # halving stage at 3, in the final stage at 16
        class Failing:
            mean_gradient = None
            calls = 0

            def sample_gradient(self, x, rng=None):
                self.calls += 1
                return np.full(x.shape, np.nan if self.calls >= blow_up else 0.5)

        inst, _, params, H = deterministic_ridge(d=2, q=2.0, mu=2.0)
        sched = default_schedule(params, "nacsmd", validate_horizon=100)
        oracle = Failing()
        with pytest.raises(NumericalError, match="non-finite oracle output"):
            restart("nacsmd", oracle, H, sched, np.zeros((3, 2)), RestartPlan(n=2, K=5, T=20))
        assert oracle.calls == blow_up

    def test_plan_validation(self):
        with pytest.raises(ParameterError):
            RestartPlan(n=-1, K=1, T=1)
        with pytest.raises(ParameterError):
            RestartPlan(n=0, K=5, T=3)


class TestPlanning:
    def test_epsilon_above_v0_means_no_halving(self):
        params = derive_params(2.0, 2.0, 1.0, 1.0)
        plan = default_plan(params, "nacsmd", V0=0.5, epsilon=1.0)
        assert plan.n == 0

    def test_accelerated_halving_length_scales_with_condition_root(self):
        # sigma = 0, q = kappa = 2, L/mu = 100: n = 10 halvings; with the
        # literal polynomial constants (degree 1, offset sqrt(4M/mu) = 20)
        # the halving length is Theta((L/mu)^(1/2)) = Theta(10)
        from ccmin import PolynomialSchedule
        from ccmin.solvers import halving_horizon

        params = derive_params(2.0, 2.0, 100.0, 1.0)
        printed = PolynomialSchedule(m=1.0, offset=(4.0 * params.M / params.mu) ** 0.5,
                                     target="acsmd")
        assert 10 <= halving_horizon(printed) <= 30
        n = default_plan(params, "nacsmd", V0=2.0 ** 10, epsilon=1.0).n
        assert n == 10
        # the printed constants violate the smooth-case condition at small t,
        # so the bound-driven horizon search refuses them explicitly
        with pytest.raises(ParameterError, match="smooth-case"):
            plan_from_params(params, "acsmd", 2.0 ** 10, 1.0, printed, PLAN_HORIZON)

    def test_validated_accelerated_plan_still_halves(self):
        # the offset-repaired schedule pays a longer stage but the halving
        # guarantee is certificate-exact
        params = derive_params(2.0, 2.0, 100.0, 1.0)
        plan = default_plan(params, "acsmd", V0=2.0 ** 4, epsilon=1.0)
        assert plan.meta["halving_ratio"] <= 0.5
        assert plan.K >= 10

    def test_stochastic_horizon_scaling(self):
        params = derive_params(2.0, 2.0, 1.0, 1.0, sigma=2.0)
        t1 = default_plan(params, "nacsmd", 1.0, 1e-2).T
        t2 = default_plan(params, "nacsmd", 1.0, 5e-3).T
        # noise-dominated: halving epsilon roughly multiplies T by 2^(q-1) = 2
        assert 1.7 <= t2 / t1 <= 2.9

    def test_plan_does_not_evaluate_the_full_horizon_bound(self, monkeypatch):
        # the chunked search already found T; a second pass over all T steps
        # would only allocate T-step arrays
        import ccmin.solvers as solvers

        calls = []
        real = solvers.expectation_bound

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(solvers, "expectation_bound", counted)
        params = derive_params(2.0, 2.0, 1.0, 1.0, sigma=2.0)
        plan = default_plan(params, "nacsmd", 1.0, 1e-2)
        assert calls == []
        assert sorted(plan.meta) == ["gamma1", "halving_ratio", "schedule", "target"]

    @pytest.mark.parametrize("target,args,V0,want", PINNED_PLANS)
    def test_plans_keep_their_bits(self, target, args, V0, want):
        plan = default_plan(derive_params(*args), target, V0, 1e-2)
        assert (plan.n, plan.K, plan.T, float.hex(plan.meta["halving_ratio"])) == want

    @pytest.mark.parametrize("target,args,V0,want", PINNED_PLANS)
    def test_a_plan_fits_its_horizon_exactly(self, target, args, V0, want):
        n, K, T, _ = want
        plan = default_plan(derive_params(*args), target, V0, 1e-2, horizon=n * K + T)
        assert (plan.n, plan.K, plan.T, float.hex(plan.meta["halving_ratio"])) == want
        with pytest.raises(ParameterError, match=f"n={n} halving stages of K={K} steps"):
            default_plan(derive_params(*args), target, V0, 1e-2, horizon=n * K + T - 1)

    def test_expectation_bound_decreases(self):
        params = derive_params(4.0, 2.0, 1.0, 0.5, sigma=1.0)
        sched = default_schedule(params, "nacsmd", validate_horizon=5000)
        bounds = [expectation_bound(params, sched, "nacsmd", 1.0, T)
                  for T in (10, 100, 1000)]
        assert bounds[0] > bounds[1] > bounds[2] > 0


class TestBaseline:
    def test_deterministic_quadratic_trend(self):
        # sigma = 0, q = 2: the staged accelerated baseline converges steadily
        inst, oracle, params, H = deterministic_ridge(d=10, q=2.0, mu=2.0, seed=11)
        _, psi_star = exact_optimum(inst)
        gap_fn = lambda x: ridge_psi(inst, x) - psi_star  # noqa: E731
        x, tr = acsa_baseline(oracle, H, inst.mu_F, params.L, np.ones(10), 200,
                              gap_fn=gap_fn)
        assert tr.psi_gap[-1] <= 1e-8
        assert tr.psi_gap[-1] < tr.psi_gap[20] < tr.psi_gap[0]

    def test_q4_keeps_regularizer_exact(self):
        inst, oracle, params, H = deterministic_ridge(d=5, q=4.0, mu=2.0, seed=12)
        x_opt, psi_star = exact_optimum(inst)
        gap_fn = lambda x: ridge_psi(inst, x) - psi_star  # noqa: E731
        x, tr = acsa_baseline(oracle, H, inst.mu_F, params.L, np.ones(5), 400,
                              gap_fn=gap_fn)
        assert tr.psi_gap[-1] <= 1e-6
        assert np.max(np.abs(x - x_opt)) <= 1e-2

    def test_determinism(self):
        inst = RidgeInstance(x_star=np.array([0.2, 0.4, -0.6]),
                             sigma_b=0.1, mu=2.0, q=3.0)
        oracle = RidgeOracle(inst)
        H = PowerNormRegularizer(mu=2.0, q=3.0)
        outs = [acsa_baseline(oracle, H, inst.mu_F, inst.L, np.zeros(3), 64,
                              rng=philox(13))[0] for _ in range(2)]
        assert np.array_equal(outs[0], outs[1])
