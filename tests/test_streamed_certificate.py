"""``certificate_check`` reads two numbers per step and row that the run
streams, ||delta_t||_p and <delta_t, x* - x_t>, in place of the recorded
iterates and noise it once read. The copy below is the record-based check
as it was; the tests hold every field of the streamed report to its bits,
on ``(d,)`` runs and on batch rows that leave early, and hold a certified
grid batch to O(T S) memory: no ``(T, S, d)`` record.
"""

import functools
import tracemalloc
import types

import numpy as np
import pytest

import ccmin.bench as bench
from ccmin import (
    DiagnosticUnavailableError,
    NoiseTerms,
    OracleRows,
    ParameterError,
    PowerNormRegularizer,
    RidgeInstance,
    RidgeOracle,
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
from ccmin.diagnostics import CertificateReport
from ccmin.solvers import TARGETS, _run_inequality_steps
from recording import Recording

SOLVERS = {"nacsmd": nacsmd, "acsmd": acsmd}


def philox(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def old_recorded_gaps(trace, x_avg, psi, psi_star):
    recorded = trace.psi_gap
    if recorded is None or recorded.shape != (x_avg.shape[0],):
        return None
    last = np.array([psi(x_avg[-1])]) - psi_star
    return recorded if recorded[-1:].tobytes() == last.tobytes() else None


def old_certificate_check(trace, params, H, x_star, psi, psi_star, tol=1e-6):
    """The record-based ``certificate_check``, verbatim but for its refusals."""
    T = trace.T
    x_star = np.asarray(x_star, dtype=float)
    alphas, gammas, A = trace.alphas, trace.gammas, trace.A
    delta = trace.noise                       # (T, d)
    x_t = trace.iterates[:T]                  # x_1 .. x_T
    x_next = trace.iterates[1:]               # x_2 .. x_{T+1}
    x_avg = trace.averaged[1:]                # xag_2 .. xag_{T+1}

    p = params.p
    dual_norms = np.sum(np.abs(delta) ** p, axis=1) ** (1.0 / p)

    martingale = np.cumsum(alphas * np.sum(delta * (x_star - x_t), axis=1))
    assert trace.algorithm in TARGETS
    noise_steps, det_steps, base = _run_inequality_steps(
        params, trace.algorithm, alphas, gammas, A, dual_norms ** p)
    noise_moment = np.cumsum(noise_steps)
    deterministic = np.cumsum(det_steps)

    breg = bregman_to(H, x_star)
    init_term = float(gammas[0]) * breg(trace.iterates[0])
    gaps = old_recorded_gaps(trace, x_avg, psi, psi_star)
    if gaps is None:
        gaps = np.array([psi(row) for row in x_avg]) - psi_star
    lhs = A * gaps + gammas * breg(x_next)
    rhs = init_term + martingale + noise_moment + deterministic
    slack = rhs - lhs
    norm_slack = slack / (1.0 + np.abs(rhs))
    bad = norm_slack < -tol
    first = int(np.argmax(bad)) + 1 if bool(bad.any()) else None
    return CertificateReport(
        algorithm=trace.algorithm, lhs=lhs, rhs=rhs, slack=slack, init_term=init_term,
        martingale=martingale, noise_moment=noise_moment, deterministic=deterministic,
        ok=first is None, min_normalized_slack=float(norm_slack.min()),
        first_violation=first,
    )


def recording_options(gap_fn, bregman_fn, noise_fn):
    """Solver hooks that also record every x^ag_{t+1}, x_{t+1} and delta_t."""
    return {"gap_fn": Recording(gap_fn), "bregman_fn": Recording(bregman_fn),
            "noise_fn": Recording(noise_fn)}


def recorded_trace(trace, opts, i):
    """Row i of ``trace``, run under ``recording_options`` ``opts``, as the
    record-based check read it: with its iterates, averages and realized
    noise."""
    return types.SimpleNamespace(
        T=trace.T, algorithm=trace.algorithm, alphas=trace.alphas, gammas=trace.gammas,
        A=trace.A, iterates=np.vstack([trace.start, opts["bregman_fn"][i]]),
        averaged=np.vstack([trace.start, opts["gap_fn"][i]]),
        noise=opts["noise_fn"][i], psi_gap=trace.psi_gap)


def assert_same_report(got, want):
    for field in CertificateReport.__dataclass_fields__:
        a, b = getattr(got, field), getattr(want, field)
        if isinstance(b, np.ndarray):
            assert a.tobytes() == b.tobytes(), field
        elif isinstance(b, float):
            assert np.float64(a).tobytes() == np.float64(b).tobytes(), field
        else:
            assert a == b, field


def problem(d, q, S, seed):
    insts = [RidgeInstance(x_star=philox(seed, s, 1).uniform(-0.5, 0.5, d),
                           sigma_b=0.2, mu=2.0, q=q) for s in range(S)]
    opt = [exact_optimum(inst) for inst in insts]
    H = PowerNormRegularizer(mu=2.0, q=q)
    params = derive_params(q, 2.0, insts[0].L, 2.0 * power_uc_constant(q))
    return insts, opt, H, params


@pytest.mark.parametrize("name", ["nacsmd", "acsmd"])
@pytest.mark.parametrize("d,q", [(5, 2.0), (50, 3.0), (200, 3.0), (20, 4.0)])
def test_streamed_report_equals_the_recorded_one(name, d, q):
    """(d,) runs, and the rows of a batch under three schedules, some of
    which stop early."""
    S, T = 6, 150
    insts, opt, H, params = problem(d, q, S, seed=d)
    scheds = [default_schedule(params, name, m=m) for m in (0.5, 1.0, 2.0)]
    per_row = [scheds[i % 3] for i in range(S)]
    x_opts = np.stack([o[0] for o in opt])
    x1 = np.full(d, 1.5)
    psi_star = np.array([o[1] for o in opt])
    gap0 = np.array([ridge_psi(inst, x1) for inst in insts]) - psi_star
    stop = gap0 * np.array([0.0, 0.05, 0.0, 0.3, 0.0, 0.01])
    opts = recording_options(
        bench._RowFn(functools.partial(bench._ridge_gaps, insts[0]),
                     np.stack([i.x_star for i in insts]), psi_star),
        bench._RowFn(functools.partial(bregman_to, H), x_opts),
        NoiseTerms(x_opts, params.p))
    oracle = OracleRows([RidgeOracle(i) for i in insts], [philox(s, 7) for s in range(S)])
    _, _, batch = SOLVERS[name](oracle, H, per_row, np.tile(x1, (S, 1)), T, **opts,
                                stop_gap=stop)
    assert sum(s is not None for s in batch.row_stopped_at) >= 2
    for i, (inst, (x_opt, p_star)) in enumerate(zip(insts, opt)):
        psi = functools.partial(ridge_psi, inst)
        row = batch.row(i)
        got = certificate_check(row, params, H, x_opt, psi, p_star)
        old = recorded_trace(row, opts, i)
        assert_same_report(got, old_certificate_check(old, params, H, x_opt, psi, p_star))
        # the old check's own re-evaluation of every gap gives the same report
        old.psi_gap = None
        assert_same_report(got, old_certificate_check(old, params, H, x_opt, psi, p_star))
        # and so does the row run alone, as a (d,) run
        alone_opts = recording_options(lambda x: psi(x) - p_star, bregman_to(H, x_opt),
                                       NoiseTerms(x_opt, params.p))
        _, _, alone = SOLVERS[name](RidgeOracle(inst), H, per_row[i], x1, T,
                                    rng=philox(i, 7), **alone_opts,
                                    stop_gap=stop[i] or None)
        assert_same_report(certificate_check(alone, params, H, x_opt, psi, p_star), got)
        assert_same_report(got, old_certificate_check(
            recorded_trace(alone, alone_opts, 0), params, H, x_opt, psi, p_star))


def test_noise_terms_need_a_mean_gradient():
    insts, opt, H, params = problem(3, 3.0, 1, seed=1)
    oracle = RidgeOracle(insts[0])
    oracle.mean_gradient = None
    sched = default_schedule(params, "acsmd")
    _, _, tr = acsmd(oracle, H, sched, np.ones(3), 10, rng=philox(1),
                     noise_fn=NoiseTerms(opt[0][0], params.p))
    assert tr.noise_norm is None and tr.noise_inner is None
    with pytest.raises(DiagnosticUnavailableError, match="noise terms"):
        certificate_check(tr, params, H, opt[0][0], functools.partial(ridge_psi, insts[0]),
                          opt[0][1])


def test_no_certificate_for_the_baseline():
    insts, opt, H, params = problem(3, 2.0, 1, seed=2)
    tr = types.SimpleNamespace(noise_norm=np.zeros(1), algorithm="acsa")
    with pytest.raises(ParameterError, match="acsa"):
        certificate_check(tr, params, H, opt[0][0], None, opt[0][1])


def test_a_certified_grid_batch_holds_no_vector_record(tmp_path, monkeypatch):
    d, T = 200, 300
    seen = []
    real = bench._solver

    def solver(name):
        run = real(name)

        def watched(oracle, H, sched, x1, T, **kwargs):
            tracemalloc.start()
            try:
                out = run(oracle, H, sched, x1, T, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            seen.append((np.shape(x1), kwargs.get("noise_fn"), out[2], peak))
            return out
        return watched

    monkeypatch.setattr(bench, "_solver", solver)
    cfg = {"instance": {"d": [d]},
           "solver": {"algorithms": ["nacsmd", "acsmd1", "acsmd2", "acsmd3"],
                      "schedule_mode": "validated"},
           "run": {"T_max": T, "seeds": [0, 1], "stop_at_target": False,
                   "certificates": True}}
    summary = bench.run_experiment(cfg, out_dir=tmp_path)
    assert [c["certificates"] for c in summary["cells"]] == [
        {"checked": 2, "violations": 0}] * 4
    assert [shape for shape, *_ in seen] == [(2, d), (6, d)]
    for (S, _), noise_fn, trace, peak in seen:
        assert isinstance(noise_fn, NoiseTerms)
        for field in ("iterates", "averaged", "query_points", "noise"):
            assert getattr(trace, field, None) is None, field
        assert trace.noise_norm.shape == trace.noise_inner.shape == (T, S)
        # one (T, S, d) buffer alone would be T * S * d doubles
        assert peak < T * S * d * 8 / 2
