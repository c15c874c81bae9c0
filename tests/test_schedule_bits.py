"""Schedules are evaluated, validated and certified once per use, on the bits
of the loops they replaced, which are copied here as the reference:

* a scalar ``alpha``/``gamma`` runs in Python floats, against numpy's 0-d
  power;
* ``validate_schedule`` takes gamma_t and gamma_{t+1} from one pass;
* ``default_schedule`` checks a prefix before the full horizon and accepts
  the schedule a single full scan accepts; a run's schedule is scanned over
  the steps the run takes and no further;
* ``certificate_check`` reuses the gaps a run recorded, and refuses a gap
  series of another function.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import ccmin.bench as bench
import ccmin.solvers as solvers
from ccmin import (
    DiagnosticUnavailableError,
    NumericalError,
    PolynomialSchedule,
    PowerNormRegularizer,
    RidgeInstance,
    RidgeOracle,
    acsmd,
    certificate_check,
    certificate_options,
    default_schedule,
    derive_params,
    exact_optimum,
    nacsmd,
    power_uc_constant,
    ridge_psi,
    validate_schedule,
)
from recording import Recording


def reference_alpha(sched, t):
    t = np.asarray(t, dtype=float)
    shift = 1.0 if sched.m >= 0.0 else 0.0
    out = (t + sched.offset + shift) ** sched.m
    return float(out) if out.ndim == 0 else out


def reference_gamma(sched, t):
    t = np.asarray(t, dtype=float)
    out = 1.0 / (sched.m + 1.0) * (t + sched.offset) ** (sched.m + 1.0)
    return float(out) if out.ndim == 0 else out


def reference_validate(sched, params, horizon):
    t = np.arange(1, horizon + 1, dtype=float)
    alphas = np.asarray(sched.alpha(t), dtype=float)
    gammas = np.asarray(sched.gamma(t), dtype=float)
    gammas_next = np.asarray(sched.gamma(t + 1.0), dtype=float)
    growth_slack = alphas - (gammas_next - gammas)
    beta = 2.0 * params.M / params.mu
    if sched.target == "nacsmd":
        lower_slack = gammas - beta * alphas
    else:
        A = np.cumsum(alphas)
        lower_slack = gammas - beta * alphas * (alphas / A) ** (params.q - 1.0)
    bad = (~(growth_slack >= -1e-9 * (1.0 + np.abs(alphas)))
           | ~(lower_slack >= -1e-9 * (1.0 + np.abs(gammas))))
    first = int(np.argmax(bad)) + 1 if bool(bad.any()) else None
    return solvers.ScheduleReport(
        ok=first is None,
        first_violation=first,
        slack_min=float(min(growth_slack.min(), lower_slack.min())),
        growth_slack_min=float(growth_slack.min()),
        lower_slack_min=float(lower_slack.min()),
    )


def reference_default_schedule(params, target, m=None, offset=None, validate_horizon=1_000_000):
    if m is None:
        m = solvers.default_degree(params, target)
    if offset is None:
        base = 2.0 * (m + 1.0) * params.M / params.mu
        offset = base if target == "nacsmd" else base ** (1.0 / params.q)
    sched = PolynomialSchedule(m=float(m), offset=float(offset), target=target,
                               base_offset=float(offset))
    for _ in range(60):
        if reference_validate(sched, params, validate_horizon).ok:
            return sched
        sched = dataclasses.replace(sched, offset=2.0 * sched.offset + 1.0)
    return None


def explicit_schedule(alphas, gammas, target):
    """A schedule given by its sequences: step t reads alphas[t-1] and gammas[t-1]."""
    alphas, gammas = np.asarray(alphas, dtype=float), np.asarray(gammas, dtype=float)
    return SimpleNamespace(alpha=lambda t: alphas[np.asarray(t, dtype=int) - 1],
                           gamma=lambda t: gammas[np.asarray(t, dtype=int) - 1], target=target)


def bits(x):
    return np.float64(x).tobytes()


def same_report(a, b):
    return (a.ok == b.ok and a.first_violation == b.first_violation
            and all(bits(getattr(a, k)) == bits(getattr(b, k))
                    for k in ("slack_min", "growth_slack_min", "lower_slack_min")))


class TestScalarSteps:
    MS = (-0.9, -0.5, -0.25, 0.0, 1.0 / 3.0, 0.5, 1.0, 2.0, 3.0, 7.3)
    OFFSETS = (0.0, 0.3, 1.0, 17.5, 1234.567)
    TS = (1, 2, 3, 7, 10, 99, 100, 999, 1000, 65_537, 10**6, 123_456_789)

    def test_python_floats_give_the_0d_numpy_bits(self):
        for m in self.MS:
            for offset in self.OFFSETS:
                sched = PolynomialSchedule(m=m, offset=offset, target="acsmd")
                for t in self.TS:
                    for arg in (t, float(t)):
                        a, g = sched.alpha(arg), sched.gamma(arg)
                        assert type(a) is float and type(g) is float
                        assert bits(a) == bits(reference_alpha(sched, t)), (m, offset, t)
                        assert bits(g) == bits(reference_gamma(sched, t)), (m, offset, t)

    def test_arrays_keep_the_numpy_path(self):
        t = np.arange(1, 2000, dtype=float)
        for m in self.MS:
            sched = PolynomialSchedule(m=m, offset=2.5, target="nacsmd")
            assert sched.alpha(t).tobytes() == reference_alpha(sched, t).tobytes()
            assert sched.gamma(t).tobytes() == reference_gamma(sched, t).tobytes()

    def test_overflow_is_inf(self):
        sched = PolynomialSchedule(m=7.3, offset=1e300, target="nacsmd")
        with np.errstate(over="ignore"):
            assert sched.alpha(1) == np.inf
            assert sched.gamma(1) == np.inf
            assert sched.alpha(5.0) == reference_alpha(sched, 5.0) == np.inf

    def test_cases_python_refuses_follow_numpy(self):
        # zero to a negative power, a negative base to a fractional power
        sched = PolynomialSchedule(m=-0.5, offset=0.0, target="nacsmd")
        with np.errstate(divide="ignore", invalid="ignore"):
            assert sched.alpha(0) == reference_alpha(sched, 0) == np.inf
            assert np.isnan(sched.alpha(-3)) and np.isnan(reference_alpha(sched, -3))
            assert np.isnan(sched.gamma(-3.0)) and np.isnan(reference_gamma(sched, -3.0))


class TestValidateSchedule:
    def cases(self):
        for q, kappa in ((2.0, 2.0), (3.0, 2.0), (4.0, 1.5)):
            params = derive_params(q, kappa, 3.0, 1.2 * power_uc_constant(q))
            for target in ("nacsmd", "acsmd"):
                for m in (0.0, 0.5, 1.0, 2.0, 3.0):
                    for offset in (0.0, 1.0, 40.0, 1e4):
                        yield params, PolynomialSchedule(m=m, offset=offset, target=target)

    @pytest.mark.parametrize("horizon", [1, 7, 1024, 5000])
    def test_report_matches_two_gamma_passes(self, horizon):
        n_bad = 0
        for params, sched in self.cases():
            got = validate_schedule(sched, params, horizon)
            assert same_report(got, reference_validate(sched, params, horizon)), sched
            n_bad += not got.ok
        assert n_bad > 0  # violations are covered too

    def test_custom_schedule(self):
        # gamma grows by 1 .. 60 a step and alpha is at most 2: growth fails
        params = derive_params(3.0, 2.0, 3.0, 1.2 * power_uc_constant(3.0))
        rng = np.random.default_rng(4)
        for target in ("nacsmd", "acsmd"):
            sched = explicit_schedule(rng.uniform(0.5, 2.0, 301),
                                      np.cumsum(rng.uniform(1.0, 60.0, 301)), target)
            for horizon in (1, 150, 300):
                got = validate_schedule(sched, params, horizon)
                assert same_report(got, reference_validate(sched, params, horizon))
                assert got.growth_slack_min < 0.0 and not got.ok


class TestDefaultSchedule:
    def test_small_horizons_accept_the_reference_schedule(self):
        for q, kappa in ((2.0, 2.0), (3.0, 2.0), (4.0, 1.5)):
            params = derive_params(q, kappa, 20.0, 0.7 * power_uc_constant(q))
            for target in ("nacsmd", "acsmd"):
                for m in (None, 0.0, 2.0):
                    for horizon in (1, 100, 1024, 1025, 20_000):
                        got = default_schedule(params, target, m=m, validate_horizon=horizon)
                        want = reference_default_schedule(params, target, m=m,
                                                          validate_horizon=horizon)
                        assert got == want, (q, target, m, horizon)

    def test_grid_schedules_need_no_full_check(self, monkeypatch):
        """The validated benchmark grid: 16 schedules, each accepted by scans
        of the 999 steps its runs take, and each the schedule a 1,000,000-step
        scan accepts."""
        cfg = bench.resolve_config({
            "instance": {"d": [20, 50, 100, 200]},
            "solver": {"schedule_mode": "validated",
                       "algorithms": ["nacsmd", "acsmd1", "acsmd2", "acsmd3"]},
            "run": {"seeds": {"count": 2, "base": 0}},
        })
        horizons = []

        def counting(sched, params, horizon):
            horizons.append(horizon)
            return validate_schedule(sched, params, horizon)

        monkeypatch.setattr(solvers, "validate_schedule", counting)
        found = {}
        for cell in bench.build_cells(cfg):
            params = bench._prepare_cell(cfg, cell, 0)["params"]
            sched = bench._resolve_schedule(cell["algorithm"], params,
                                            cell["algorithm"]["name"], cfg["solver"],
                                            cfg["instance"]["mu"], cfg["run"]["T_max"])
            found[sched] = params
        assert len(found) == 16
        assert set(horizons) == {999}
        for sched, params in found.items():
            want = reference_default_schedule(params, sched.target, m=sched.m,
                                              offset=sched.base_offset,
                                              validate_horizon=1_000_000)
            assert sched == want

    def test_default_schedule_matches_the_full_scan(self):
        for params, sched, horizon in schedule_grid(seed=4, n=24):
            args = dict(m=sched.m, offset=sched.offset, validate_horizon=horizon)
            want = reference_default_schedule(params, sched.target, **args)
            if want is None:
                with pytest.raises(NumericalError):
                    default_schedule(params, sched.target, **args)
            else:
                assert default_schedule(params, sched.target, **args) == want


def schedule_grid(seed, n):
    """Seeded (params, schedule, horizon) cases; the schedule's offset is a
    random start for ``default_schedule``'s offset chain."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        q = float(rng.choice([2.0, 2.5, 3.0, 4.0, 7.0, 12.0, 20.0]))
        kappa = float(rng.uniform(1.05, 2.0))
        params = derive_params(q, kappa, float(10 ** rng.uniform(-1, 3)),
                               float(10 ** rng.uniform(-1, 1)) * power_uc_constant(q))
        m = float(rng.choice([-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0,
                              rng.uniform(-0.99, 8.0)]))
        offset = float(rng.choice([0.0, 1.0, 10 ** rng.uniform(0, 4)]))
        sched = PolynomialSchedule(
            m=m, offset=offset, target=str(rng.choice(["nacsmd", "acsmd"])), base_offset=offset)
        yield params, sched, int(rng.choice([solvers._PREFIX_HORIZON + 1, 100_000, 1_000_000]))


class TestLongHorizons:
    """Schedules that pass the 1024-step prefix and fail, or come close to
    failing, far past it: only the full scan decides them."""

    def test_accepted_schedules_pass_the_reference_scan(self):
        n_accepted = 0
        for params, start, horizon in schedule_grid(seed=12, n=60):
            try:
                sched = default_schedule(params, start.target, m=start.m, offset=start.offset,
                                         validate_horizon=horizon)
            except NumericalError:
                continue
            n_accepted += 1
            assert reference_validate(sched, params, horizon).ok, (params, sched, horizon)
        assert n_accepted >= 30

    def test_an_overflowing_gamma_is_left_to_the_scan(self):
        # gamma_t is finite on the prefix and overflows before t = 200000
        params = derive_params(2.0, 2.0, 1.0, 1.0)
        for target in ("nacsmd", "acsmd"):
            sched = PolynomialSchedule(m=60.0, offset=200.0, target=target, base_offset=200.0)
            assert validate_schedule(sched, params, solvers._PREFIX_HORIZON).ok
            with np.errstate(over="ignore", invalid="ignore"):
                assert not validate_schedule(sched, params, 200_000).ok
                assert not reference_validate(sched, params, 200_000).ok
            assert default_schedule(params, target, m=60.0, offset=200.0,
                                    validate_horizon=30_000) == sched

    def test_a_nan_slack_fails(self):
        # doubling the offset of the schedule above reaches 205823, where
        # alpha_t and gamma_t overflow at every step: each slack is inf - inf
        params = derive_params(2, 2, 1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for target in ("nacsmd", "acsmd"):
                sched = PolynomialSchedule(m=60.0, offset=205823.0, target=target)
                assert not validate_schedule(sched, params, 10).ok
                assert not reference_validate(sched, params, 10).ok
            with pytest.raises(NumericalError, match="offset doublings"):
                default_schedule(params, "nacsmd", m=60.0, offset=200.0,
                                 validate_horizon=200_000)

    def test_a_long_acsmd_sum_is_left_to_the_scan(self):
        # (q - 1) * horizon * 2^-53 above 2.5e-10: the cumsum's rounding
        # reaches the size of the scan's tolerance
        params = derive_params(20.0, 2.0, 1.0, 1.0)
        for target in ("nacsmd", "acsmd"):
            got = default_schedule(params, target, m=1.0, offset=1e4)
            assert got == reference_default_schedule(params, target, m=1.0, offset=1e4)
            assert got.offset == 1e4

    def test_a_rounded_gamma_increment_is_left_to_the_scan(self):
        # at offset 1.2e8 and m = 2, an ulp of gamma_t (about 5e23) exceeds
        # the growth tolerance 1e-9 (1 + alpha_t): the scan fails growth at
        # t = 16286 although the inequality holds in exact arithmetic
        params = derive_params(2.0, 2.0, 1.0, 1.0)
        args = dict(m=2.0, offset=1.2e8 + 0.5)
        assert validate_schedule(PolynomialSchedule(target="nacsmd", **args), params,
                                 1_000_000).first_violation == 16_286
        assert default_schedule(params, "nacsmd", validate_horizon=16_285,
                                **args).offset == 1.2e8 + 0.5
        got = default_schedule(params, "nacsmd", validate_horizon=20_000, **args)
        assert got.offset > 1.2e8 + 0.5
        assert got == reference_default_schedule(params, "nacsmd", validate_horizon=20_000,
                                                 **args)

    def test_alpha_sum_ratio_is_nondecreasing(self):
        # A_t / alpha_t never decreases for any m >= 0, small offsets included
        # (alpha_t / alpha_{t+1} is nondecreasing in t)
        t = np.arange(1, 20_001, dtype=float)
        for m in (0.0, 0.5, 1.0, 2.0, 5.0, 8.0, 30.0):
            for offset in (0.0, 0.5, 3.0, 1e3):
                alphas = PolynomialSchedule(m=m, offset=offset, target="acsmd").alpha(t)
                ratio = np.cumsum(alphas) / alphas
                assert np.all(np.diff(ratio) >= -1e-12 * ratio[1:]), (m, offset)


def ridge_run(solver, d, q, seed, gap_fn=None):
    rng = np.random.default_rng(seed)
    inst = RidgeInstance(x_star=0.3 * rng.uniform(-1, 1, d),
                         sigma_b=0.1, mu=2.0, q=q)
    params = derive_params(q, 2.0, inst.L, 2.0 * power_uc_constant(q))
    H = PowerNormRegularizer(mu=2.0, q=q)
    x_opt, psi_star = exact_optimum(inst)
    calls = []

    def psi(x):
        calls.append(1)
        return ridge_psi(inst, x)

    # the run's gap function does not count towards the calls
    hooks = certificate_options(params, H, x_opt, lambda x: ridge_psi(inst, x), psi_star)
    averaged = Recording(hooks["gap_fn"] if gap_fn is None else gap_fn)  # x^ag_2 .. x^ag_{T+1}
    hooks["gap_fn"] = averaged
    sched = default_schedule(params, solver.__name__, validate_horizon=300)
    _, _, trace = solver(RidgeOracle(inst), H, sched, np.full(d, 3.25), 300,
                         rng=np.random.Generator(np.random.Philox(seed)), **hooks)
    return trace, (params, H, x_opt, psi, psi_star), calls, averaged


def same_certificate(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.tobytes() == y.tobytes(), f.name
        elif isinstance(x, float):
            assert bits(x) == bits(y), f.name
        else:
            assert x == y, f.name


class TestCertificateGaps:
    @pytest.mark.parametrize("solver", [nacsmd, acsmd])
    @pytest.mark.parametrize("d,q", [(3, 2.0), (20, 3.0), (50, 3.0), (200, 4.0)])
    def test_recorded_gaps_give_the_recomputed_report(self, solver, d, q):
        trace, args, calls, averaged = ridge_run(solver, d, q, seed=d)
        recorded = certificate_check(trace, *args)
        assert len(calls) == 1  # only the last row is re-evaluated
        del calls[:]
        _, _, _, psi, psi_star = args
        gaps = np.array([psi(row) for row in averaged[0]]) - psi_star
        recomputed = certificate_check(dataclasses.replace(trace, psi_gap=gaps), *args)
        assert len(calls) == trace.T + 1
        same_certificate(recorded, recomputed)
        assert recorded.ok

    def test_a_relative_gap_is_refused(self):
        trace, args, _, _ = ridge_run(acsmd, 20, 3.0, seed=5)
        gap0 = float(trace.psi_gap[0])
        rel_trace, _, _, _ = ridge_run(acsmd, 20, 3.0, seed=5,
                                       gap_fn=lambda x: (args[3](x) - args[4]) / gap0)
        with pytest.raises(DiagnosticUnavailableError, match="gap psi - psi_star"):
            certificate_check(rel_trace, *args)
        with pytest.raises(DiagnosticUnavailableError, match="Bregman"):
            certificate_check(dataclasses.replace(trace, bregman_to_opt=None), *args)
