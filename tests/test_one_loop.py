"""All three solvers run on one step loop, ``solvers._run``.

``acsa_baseline`` once had a loop of its own: the copy below is that loop,
with the row holder it ran on, and the tests hold the one-loop baseline to
its bits on ``(d,)`` and ``(S, d)`` starts, with and without stop gaps, and
with a row that goes non-finite. The loop also checks each oracle output
where it enters: a row whose sampled gradient is not finite leaves with an
error that names the oracle, on every solver.
"""

import numpy as np
import pytest

from ccmin import (
    NumericalError,
    ParameterError,
    PowerNormRegularizer,
    RunTrace,
    TraceOptions,
    acsa_baseline,
    acsmd,
    default_schedule,
    derive_params,
    nacsmd,
    power_uc_constant,
)
from ccmin.solvers import _solve_power_linear, _take


class OldRows:
    """The row holder of the old baseline loop, verbatim."""

    def __init__(self, x, oracle, rng, gap_fn, bregman_fn, stop_gap):
        if x.ndim not in (1, 2):
            raise ParameterError(f"start point must be (d,) or (S, d), got shape {x.shape}")
        self.single = x.ndim == 1
        self.x = x[None] if self.single else x
        n = self.x.shape[0]
        self.oracle, self.rng = oracle, rng
        self.gap_fn, self.bregman_fn = gap_fn, bregman_fn
        self.stop = None if stop_gap is None else np.array(
            np.broadcast_to(np.asarray(stop_gap, dtype=float), (n,)))
        self.live = np.arange(n)
        self.at = slice(None)
        self.stopped_at = [None] * n
        self.errors = {}
        self.x_out = np.empty_like(self.x)
        self.avg_out = np.empty_like(self.x)

    def sample(self, x):
        if self.single:
            return np.reshape(self.oracle.sample_gradient(x[0], self.rng), (1, -1))
        return self.oracle.sample_gradient(x, self.rng)

    def gap(self, x):
        return self._series(self.gap_fn, x, "gap_fn")

    def _series(self, fn, x, what):
        if self.single:
            return np.array([float(fn(x[0]))])
        vals = np.asarray(fn(x), dtype=float)
        if vals.shape != (x.shape[0],):
            raise ParameterError(
                f"{what} must give one value per row of the batch, got shape {vals.shape}")
        return vals

    def leave(self, gone, x, x_avg, stopped_at=None, error=None):
        idx = self.live[gone]
        self.x_out[idx] = x[gone]
        self.avg_out[idx] = x_avg[gone]
        for i in idx.tolist():
            if error is None:
                self.stopped_at[i] = stopped_at
            else:
                self.errors[i] = error
        keep = np.flatnonzero(~gone)
        self.live = self.at = self.live[keep]
        if keep.size:
            self.oracle, self.gap_fn, self.bregman_fn, self.stop = (
                _take(obj, keep) for obj in (self.oracle, self.gap_fn, self.bregman_fn, self.stop))
        return keep

    def leave_if_nonfinite(self, x_new, x, x_avg, error):
        if np.isfinite(x_new).all():
            return None
        return self.leave(~np.isfinite(x_new).all(axis=1), x, x_avg, error=error)

    def finish(self, x, x_avg, trace):
        if self.live.size:
            self.x_out[self.live] = x
            self.avg_out[self.live] = x_avg
        trace.row_stopped_at, trace.row_errors = self.stopped_at, self.errors
        if self.single:
            return self.x_out[0], self.avg_out[0], trace.row(0)
        return self.x_out, self.avg_out, trace


def old_acsa_baseline(oracle, H, mu_f, L, x1, T, rng=None, gap_fn=None, stop_gap=None,
                      stage0=4):
    """The old baseline loop, verbatim but for the trace ``meta`` of its
    folded constants, which the baseline no longer attaches (nothing read
    it); every number it computes is the old loop's."""
    if T < 1:
        raise ParameterError(f"T must be >= 1, got {T}")
    if not mu_f > 0.0:
        raise ParameterError(f"mu_f must be positive, got {mu_f}")
    if stop_gap is not None and gap_fn is None:
        raise ParameterError("acsa_baseline: stop_gap needs gap_fn to measure the gap")
    fold = H.q == 2.0
    mu_eff = mu_f + (H.mu if fold else 0.0)
    L_eff = L + (H.mu if fold else 0.0)

    rows = OldRows(np.array(x1, dtype=float), oracle, rng, gap_fn, None, stop_gap)
    x_ag = rows.x
    psi_gap = np.empty((T, x_ag.shape[0])) if gap_fn is not None else None
    alphas_used = np.empty(T)
    gammas_used = np.empty(T)
    global_t = 0
    stage = max(1, stage0)

    while global_t < T and rows.live.size:
        N = min(stage, T - global_t)
        x_prev = x_ag.copy()
        for t in range(1, N + 1):
            alpha_t = 2.0 / (t + 1.0)
            gamma_t = 4.0 * L_eff / (t * (t + 1.0))
            denom = gamma_t + (1.0 - alpha_t ** 2) * mu_eff
            x_md = (
                (1.0 - alpha_t) * (mu_eff + gamma_t) * x_ag
                + alpha_t * ((1.0 - alpha_t) * mu_eff + gamma_t) * x_prev
            ) / denom
            gs = rows.sample(x_md)
            if fold:
                gs = gs + H.grad(x_md)
            beta = (1.0 - alpha_t) * mu_eff + gamma_t
            rhs = alpha_t * mu_eff * x_md + beta * x_prev - alpha_t * gs
            if fold:
                x_new = rhs / (mu_eff + gamma_t)
            else:
                x_new = _solve_power_linear(alpha_t * H.mu, mu_eff + gamma_t, rhs, H.q)
            keep = rows.leave_if_nonfinite(
                x_new, x_ag, x_ag, f"acsa_baseline: non-finite iterate at step {global_t + 1}")
            if keep is not None:
                if not keep.size:
                    break
                x_new, x_ag = x_new[keep], x_ag[keep]
            x_ag = alpha_t * x_new + (1.0 - alpha_t) * x_ag
            x_prev = x_new
            alphas_used[global_t] = alpha_t
            gammas_used[global_t] = gamma_t
            global_t += 1
            if psi_gap is not None:
                gap = rows.gap(x_ag)
                psi_gap[global_t - 1, rows.at] = gap
                if rows.stop is not None:
                    done = gap <= rows.stop
                    if done.any():
                        keep = rows.leave(done, x_ag, x_ag, stopped_at=global_t)
                        if not keep.size:
                            break
                        x_ag, x_prev = x_ag[keep], x_prev[keep]
        stage *= 2

    steps = global_t
    sl = slice(0, steps)
    trace = RunTrace(
        algorithm="acsa",
        T=steps,
        alphas=alphas_used[sl],
        gammas=gammas_used[sl],
        A=np.cumsum(alphas_used[sl]),
        psi_gap=None if psi_gap is None else psi_gap[:steps],
        stopped_at=steps if steps < T else None,
    )
    x_ag, _, trace = rows.finish(x_ag, x_ag, trace)
    return x_ag, trace


class Drift:
    """g = a (x - b) + noise[t], row i with its own b[i] and noise[:, i];
    ``take`` keeps the rows ``keep`` and the step count."""

    mean_gradient = None

    def __init__(self, a, b, noise, t=0):
        self.a, self.b, self.noise, self.t = a, b, noise, t

    def sample_gradient(self, x, rng=None):
        self.t += 1
        return self.a * (x - self.b) + self.noise[self.t - 1]

    def take(self, keep):
        return Drift(self.a, self.b[keep], self.noise[:, keep], self.t)


class Gap:
    """||x - c||^2 per row, against row i's own centre."""

    def __init__(self, c):
        self.c = c

    def __call__(self, x):
        return np.sum((x - self.c) ** 2, axis=-1)

    def take(self, keep):
        return Gap(self.c[keep])


def philox(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def baseline_problem(q, S, T, poison=None):
    """(oracle maker, regularizer, start, gap maker) of an S-row problem;
    ``poison`` = (step, row, value) puts ``value`` in that row's gradient."""
    d = 4
    rng = philox(int(q * 10), S, T)
    b = rng.uniform(-1.0, 1.0, (S, d))
    noise = rng.standard_normal((T, S, d)) * 0.3
    if poison is not None:
        step, row, value = poison
        noise[step - 1, row, 1] = value
    x1 = rng.uniform(-2.0, 2.0, (S, d))
    H = PowerNormRegularizer(mu=1.3, q=q)
    return (lambda: Drift(0.8, b.copy(), noise.copy())), H, x1, (lambda: Gap(b.copy()))


def run_both(make_oracle, H, x1, T, make_gap, stop, stage0):
    """(old, new) outcomes: (x, trace) or the NumericalError message."""
    out = []
    for solve in (old_acsa_baseline, acsa_baseline):
        try:
            gap = make_gap() if make_gap else None
            out.append(solve(make_oracle(), H, 0.8, 2.0, x1, T, gap_fn=gap,
                             stop_gap=stop, stage0=stage0))
        except NumericalError as exc:
            out.append(str(exc))
    return out


def assert_same_trace(old, new, T):
    """``new`` holds every bit of ``old``: a batch trace row by row, since
    the slots of a row after it left hold nothing."""
    for name in ("T", "algorithm", "noise_norm", "noise_inner", "bregman_to_opt"):
        assert getattr(new, name) == getattr(old, name), name
    for name in ("alphas", "gammas", "A"):
        assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), name
    # a run that stops on step T now reads None, as on the mirror solvers
    assert new.stopped_at == (None if old.stopped_at == T else old.stopped_at)
    if old.row_stopped_at is None:
        assert new.psi_gap.tobytes() == old.psi_gap.tobytes()
        return
    assert new.row_stopped_at == [None if s == T else s for s in old.row_stopped_at]
    for i in range(len(old.row_stopped_at)):
        if i not in old.row_errors:
            assert_same_trace(old.row(i), new.row(i), T)


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("stop", [None, "rows"])
@pytest.mark.parametrize("stage0", [1, 4])
def test_baseline_keeps_the_bits_of_its_old_loop(q, stop, stage0):
    S, T = 5, 70
    make_oracle, H, x1, make_gap = baseline_problem(q, S, T)
    stops = None if stop is None else np.array([0.0, 1e-3, 0.0, 0.05, 10.0])
    # the batch
    (x_old, tr_old), (x_new, tr_new) = run_both(make_oracle, H, x1, T, make_gap, stops, stage0)
    assert x_old.tobytes() == x_new.tobytes()
    assert_same_trace(tr_old, tr_new, T)
    assert tr_new.row_errors == tr_old.row_errors == {}
    if stop is not None:
        assert tr_new.row_stopped_at[4] is not None
    # every row alone, as a (d,) start
    for i in range(S):
        one_oracle = lambda i=i: _row_oracle(make_oracle().take([i]))  # noqa: E731
        one_gap = lambda i=i: _row_gap(make_gap().take([i]))  # noqa: E731
        (xo, to), (xn, tn) = run_both(one_oracle, H, x1[i], T, one_gap,
                                      None if stops is None else stops[i], stage0)
        assert xo.tobytes() == xn.tobytes() == x_new[i].tobytes()
        assert_same_trace(to, tn, T)
        assert tn.psi_gap.tobytes() == tr_new.row(i).psi_gap.tobytes()


def _row_oracle(oracle):
    """The one-row ``Drift`` as the oracle of a ``(d,)`` run."""
    return Drift(oracle.a, oracle.b[0], oracle.noise[:, 0], oracle.t)


def _row_gap(gap):
    return Gap(gap.c[0])


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("stop", [None, "rows"])
def test_baseline_row_going_non_finite_keeps_the_old_bits(q, stop):
    S, T = 4, 40
    make_oracle, H, x1, make_gap = baseline_problem(q, S, T, poison=(9, 2, np.inf))
    stops = None if stop is None else np.array([1e-3, 0.05, 0.0, 0.0])
    (x_old, tr_old), (x_new, tr_new) = run_both(make_oracle, H, x1, T, make_gap, stops, 4)
    assert x_old.tobytes() == x_new.tobytes()
    assert_same_trace(tr_old, tr_new, T)
    # the old loop blamed the iterate the infinite gradient made
    assert tr_old.row_errors == {2: "acsa_baseline: non-finite iterate at step 9"}
    assert tr_new.row_errors == {2: "acsa_baseline: non-finite oracle output at step 9"}
    with pytest.raises(NumericalError, match="oracle output at step 9"):
        tr_new.row(2)
    alone = run_both(lambda: _row_oracle(make_oracle().take([2])), H, x1[2], T,
                     lambda: _row_gap(make_gap().take([2])), None, 4)
    assert alone == ["acsa_baseline: non-finite iterate at step 9",
                     "acsa_baseline: non-finite oracle output at step 9"]


class NaNAt:
    """A ``Drift`` whose rows ``rows`` give a NaN gradient on step ``step``."""

    mean_gradient = None

    def __init__(self, inner, step, rows):
        self.inner, self.step, self.rows = inner, step, rows

    def sample_gradient(self, x, rng=None):
        g = np.array(self.inner.sample_gradient(x, rng), dtype=float)
        if self.inner.t == self.step:
            g[self.rows] = np.nan
        return g

    def take(self, keep):
        keep = list(keep)
        return NaNAt(self.inner.take(keep), self.step,
                     [keep.index(i) for i in np.atleast_1d(self.rows) if i in keep])


def run_solver(name, oracle, H, x1, T, gap=None):
    """(final iterates, trace) of one solver."""
    if name == "acsa":
        return acsa_baseline(oracle, H, 0.8, 2.0, x1, T, gap_fn=gap)
    params = derive_params(H.q, 2.0, 2.0, H.mu * power_uc_constant(H.q))
    sched = default_schedule(params, name, validate_horizon=T)
    run = nacsmd if name == "nacsmd" else acsmd
    _, y, trace = run(oracle, H, sched, x1, T, trace_opts=TraceOptions(gap_fn=gap))
    return y, trace


SOLVER_NAMES = ["nacsmd", "acsmd", "acsa"]


def blame(name, step):
    if name == "acsa":
        return f"acsa_baseline: non-finite oracle output at step {step}"
    return f"{name}: non-finite oracle output at t={step}"


@pytest.mark.parametrize("name", SOLVER_NAMES)
@pytest.mark.parametrize("q", [2.0, 3.0])
def test_nan_gradient_blames_the_oracle_on_a_single_start(name, q):
    T = 30
    make_oracle, H, x1, make_gap = baseline_problem(q, 1, T)
    oracle = NaNAt(_row_oracle(make_oracle()), 5, ...)
    with pytest.raises(NumericalError) as err:
        run_solver(name, oracle, H, x1[0], T, gap=_row_gap(make_gap()))
    assert str(err.value) == blame(name, 5)


@pytest.mark.parametrize("name", SOLVER_NAMES)
@pytest.mark.parametrize("q", [2.0, 3.0])
def test_nan_gradient_blames_the_oracle_on_a_batch(name, q):
    S, T = 3, 30
    make_oracle, H, x1, make_gap = baseline_problem(q, S, T)
    y, trace = run_solver(name, NaNAt(make_oracle(), 5, [1]), H, x1, T, gap=make_gap())
    clean_y, clean = run_solver(name, make_oracle(), H, x1, T, gap=make_gap())
    assert trace.row_errors == {1: blame(name, 5)}
    # the row left with its last finite iterates, and the others did not notice
    assert np.isfinite(y).all()
    for i in (0, 2):
        assert y[i].tobytes() == clean_y[i].tobytes()
        assert trace.row(i).psi_gap.tobytes() == clean.row(i).psi_gap.tobytes()
    assert trace.psi_gap.shape == (T, S)
    with pytest.raises(NumericalError, match="oracle output"):
        trace.row(1)
