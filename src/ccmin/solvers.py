"""Step-size schedules and the three solvers built on them.

One step loop, ``_run``, serves all three solvers. Each solver hands it
only its arithmetic, a ``step`` closure that turns the iterate and the
average into the next ones through one oracle sample:

* ``nacsmd`` — plain composite stochastic mirror descent: query the oracle at
  the current iterate, take one composite prox step, output the alpha-weighted
  average of the iterates.
* ``acsmd`` — accelerated variant: the oracle is queried at a moving convex
  combination of the averaged and raw iterates, and the averaged sequence is
  updated incrementally.
* ``acsa_baseline`` — the Euclidean accelerated stochastic approximation
  baseline, restarted from its average at doubling stage lengths.

The loop owns everything about rows. The start point may be one ``(d,)``
vector or an ``(S, d)`` batch of S independent runs; a ``(d,)`` start is
reshaped once, on entry, into a batch of one row. Every operation of a step
is elementwise, so row i of a batch gets the bits of a ``(d,)`` run on row
i's gradients. The steps alpha_t, gamma_t are scalars shared by all rows, or,
when the mirror-descent solvers get one schedule per row, ``(S, 1)``
columns: each distinct schedule is evaluated once a step as a scalar, and a
column only meets the iterates through elementwise ``+ - * /``, which round
as they do for the scalar. For a batch, the oracle returns an ``(S, d)`` block of
gradients per step (``oracles.OracleRows`` stacks S oracles so), and
``gap_fn``/``bregman_fn`` return one value per row. Each row has its own
``stop_gap``. A row leaves the batch at once when it reaches its stop gap,
when its sampled gradient is not finite (the error names the oracle), or
when its iterate goes non-finite: the loop then narrows the oracle and the
per-row functions to the rows left through their ``take(keep)``, so a row that
left draws nothing and raises nothing more. The rows of one mirror-descent
batch may also run different solvers, one ``nacsmd`` or ``acsmd`` name per
row (the grid runs every mirror-descent cell of a grid point so).
``RunTrace.row(i)`` is row i's own trace, or raises the error that ended
it. A trace keeps per-step scalar series (the steps, and what the
``gap_fn``, ``bregman_fn`` and ``noise_fn`` hooks return) and the start
and end points, never the iterates in between: its memory is O(T S) plus
O(S d), and a caller who wants the points records them through the hooks.

A mirror-descent schedule is a pair of sequences (alpha_t, gamma_t).
Validity means, for every t up to the horizon,

    alpha_t >= gamma_{t+1} - gamma_t                        (both solvers)
    gamma_t >= (2M/mu) * alpha_t                            (nacsmd)
    gamma_t >= (2M/mu) * alpha_t^q / A_t^{q-1}              (acsmd)

with A_t the running alpha sum. The run certificates in ``diagnostics`` hold
on every noise realization provided these inequalities do. Given ``params``,
``nacsmd``, ``acsmd`` and ``restart`` check them over the steps they run and
refuse a schedule that breaks them; without it they run any schedule, and
the caller validates first (the bench harness does). ``default_schedule``
builds the standard polynomial family and bumps its offset until the
inequalities hold at every step up to the horizon it is given, which its
callers set to the steps they run.

``restart`` chains stages of a fixed length, each started from the previous
stage's final non-averaged iterate, which turns the gamma_1/gamma_K decay of
the initialization term into geometric convergence; ``plan_from_params``
sizes the stages of a given schedule from the computable mean bound that
``expectation_bound`` evaluates, within a given horizon of steps: it reads
the bound no further than the horizon, and refuses a plan that does not
fit in it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ParameterError
from .geometry import GeometryParams, _bisect, power_inv_r
from .regularizers import PowerNormRegularizer, composite_prox

__all__ = [
    "PolynomialSchedule",
    "default_degree",
    "default_schedule",
    "validate_schedule",
    "ScheduleReport",
    "RunTrace",
    "nacsmd",
    "acsmd",
    "RestartPlan",
    "restart",
    "halving_horizon",
    "plan_from_params",
    "expectation_bound",
    "acsa_baseline",
]

TARGETS = ("nacsmd", "acsmd")


def _scalar_pow(base: float, exponent: float) -> float:
    """``base ** exponent`` with the bits and the overflow value (inf) of
    numpy's 0-d power. Python refuses overflow, zero to a negative power and
    a negative base to a fractional power; those cases go to numpy."""
    if base > 0.0:
        try:
            return base ** exponent
        except OverflowError:
            pass
    return float(np.float64(base) ** exponent)


@dataclass(frozen=True)
class PolynomialSchedule:
    """alpha_t = (t + offset [+1 if m >= 0])^m, gamma_t = 1/(m+1) (t + offset)^{m+1}.

    The +1 shift on alpha makes alpha_t dominate the gamma increments for
    m >= 0; for m < 0 the increments are decreasing so the shift is dropped.
    """

    m: float
    offset: float
    target: str
    base_offset: float | None = None  # offset before auto-tuning, for provenance

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ParameterError(f"target must be one of {TARGETS}, got {self.target!r}")
        if self.m <= -1.0:
            raise ParameterError(f"polynomial degree must exceed -1, got {self.m}")
        if self.offset < 0.0:
            raise ParameterError(f"offset must be nonnegative, got {self.offset}")

    # A scalar t (one solver step) is evaluated in Python floats, whose ``**``
    # gives the bits of numpy's 0-d power and costs a fraction of its
    # dispatch. An array t keeps numpy, whose vectorized ``**`` can differ
    # from the 0-d one in the last bit: so a run's steps must not be read off
    # an array evaluation.

    def alpha(self, t):
        shift = 1.0 if self.m >= 0.0 else 0.0
        if isinstance(t, (int, float)):
            return _scalar_pow(float(t) + self.offset + shift, self.m)
        t = np.asarray(t, dtype=float)
        out = (t + self.offset + shift) ** self.m
        return float(out) if out.ndim == 0 else out

    def gamma(self, t):
        if isinstance(t, (int, float)):
            return 1.0 / (self.m + 1.0) * _scalar_pow(
                float(t) + self.offset, self.m + 1.0)
        t = np.asarray(t, dtype=float)
        out = 1.0 / (self.m + 1.0) * (t + self.offset) ** (self.m + 1.0)
        return float(out) if out.ndim == 0 else out

    def describe(self) -> dict:
        return {
            "kind": "polynomial",
            "target": self.target,
            "m": self.m,
            "offset": self.offset,
            "base_offset": self.base_offset if self.base_offset is not None else self.offset,
            # gamma has no multiplier; the key keeps summary.json's bytes
            "safety_scale": 1.0,
        }


@dataclass(frozen=True)
class ScheduleReport:
    ok: bool
    first_violation: int | None
    slack_min: float
    growth_slack_min: float   # min over t of alpha_t - (gamma_{t+1} - gamma_t)
    lower_slack_min: float    # min over t of gamma_t - curvature requirement


def validate_schedule(sched, params: GeometryParams, horizon: int) -> ScheduleReport:
    """Exact per-t check of the two schedule inequalities up to ``horizon``."""
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    t = np.arange(1, horizon + 2, dtype=float)
    alphas = np.asarray(sched.alpha(t[:-1]), dtype=float)
    # one pass over t = 1 .. horizon + 1 serves both gamma_t and gamma_{t+1}
    gamma_all = np.asarray(sched.gamma(t), dtype=float)
    gammas, gammas_next = gamma_all[:-1], gamma_all[1:]
    growth_slack = alphas - (gammas_next - gammas)
    beta = 2.0 * params.M / params.mu
    if sched.target == "nacsmd":
        lower_slack = gammas - beta * alphas
    else:
        A = np.cumsum(alphas)
        # alpha^q / A^{q-1} written as alpha * (alpha/A)^{q-1}: the ratio is
        # <= 1 so high exponents cannot overflow
        lower_slack = gammas - beta * alphas * (alphas / A) ** (params.q - 1.0)
    # each slack is measured against the size of the term it bounds; a NaN
    # slack (an overflowed step minus another) fails
    bad = (~(growth_slack >= -1e-9 * (1.0 + np.abs(alphas)))
           | ~(lower_slack >= -1e-9 * (1.0 + np.abs(gammas))))
    first = int(np.argmax(bad)) + 1 if bool(bad.any()) else None
    return ScheduleReport(
        ok=first is None,
        first_violation=first,
        slack_min=float(min(growth_slack.min(), lower_slack.min())),
        growth_slack_min=float(growth_slack.min()),
        lower_slack_min=float(lower_slack.min()),
    )


def default_degree(params: GeometryParams, target: str) -> float:
    """Standard polynomial degree of a solver's schedule.

    m = max(1/r - 1, (2-q)/(q-1)) for nacsmd and m = max(q/r - 2, (2-q)/(q-1))
    for acsmd, falling back to the second branch when r = 0 (the smooth case,
    where the first is unbounded).
    """
    if target not in TARGETS:
        raise ParameterError(f"target must be one of {TARGETS}, got {target!r}")
    q, r = params.q, params.r
    fallback = (2.0 - q) / (q - 1.0)
    if r > 0.0:
        return max((1.0 / r - 1.0) if target == "nacsmd" else (q / r - 2.0), fallback)
    if target == "acsmd":
        # smooth case: a constant-degree schedule would force the offset
        # to ~L/mu through the t=1 curvature condition, losing the
        # square-root stage length; linear growth restores it
        return max(1.0, fallback)
    return fallback


_PREFIX_HORIZON = 1024
_MAX_DOUBLINGS = 60


def default_schedule(
    params: GeometryParams,
    target: str,
    m: float | None = None,
    offset: float | None = None,
    validate_horizon: int = 1_000_000,
) -> PolynomialSchedule:
    """Standard polynomial schedule for a solver, offset-tuned until valid.

    The degree defaults to ``default_degree(params, target)``. The
    printed offsets tie to (m+1) * 2M/mu but can violate the curvature
    inequality at small t; doubling the offset preserves the polynomial
    family and both inequalities eventually hold, so that is the repair
    applied here (a gamma-only bump would break the growth inequality at
    large t). The starting offset is kept in ``base_offset`` for reports.

    The accepted schedule is the first candidate that passes
    ``validate_schedule`` on its first ``min(validate_horizon, 1024)`` steps
    and then on all ``validate_horizon`` steps. Every quantity of the check
    at step t reads steps 1 .. t only (the alpha sum accumulates in order,
    and the elementwise powers give the same bits at every array length), so
    a prefix violation is a full-horizon violation, and a candidate that
    breaks early is dropped without the long scan. The schedule is valid up
    to ``validate_horizon`` and no further: a caller passes the number of
    steps it runs. The default of 1,000,000 steps is a real scan of that
    length (about 30 ms on a 2-vCPU VM).
    """
    if target not in TARGETS:
        raise ParameterError(f"target must be one of {TARGETS}, got {target!r}")
    if m is None:
        m = default_degree(params, target)
    if offset is None:
        base = 2.0 * (m + 1.0) * params.M / params.mu
        offset = base if target == "nacsmd" else base ** (1.0 / params.q)
    sched = PolynomialSchedule(m=float(m), offset=float(offset), target=target,
                               base_offset=float(offset))
    prefix = min(validate_horizon, _PREFIX_HORIZON)
    for _ in range(_MAX_DOUBLINGS):
        if validate_schedule(sched, params, prefix).ok and (
                prefix == validate_horizon
                or validate_schedule(sched, params, validate_horizon).ok):
            return sched
        sched = replace(sched, offset=2.0 * sched.offset + 1.0)
    raise NumericalError(
        f"default_schedule: could not satisfy the {target} step conditions "
        f"within {_MAX_DOUBLINGS} offset doublings (m={m})"
    )


@dataclass
class RunTrace:
    """What a run recorded: per-step series and the start and end points.
    A batch trace holds every row: its T is the number of steps the loop
    ran, its gap, Bregman and noise series are ``(T, S)``, its alphas,
    gammas and A ``(T,)`` when the rows share one schedule and ``(T, S)``
    when each has its own, and its points ``(S, d)``. ``row(i)`` is row i's
    own trace, as views of these arrays. A batch whose rows run different
    solvers records one ``algorithm`` name per row, and ``row(i)`` has row
    i's own. A row's ``(T, S)`` entries past the step it left at hold no
    value."""

    algorithm: str | list
    T: int
    alphas: np.ndarray
    gammas: np.ndarray
    A: np.ndarray
    noise_norm: np.ndarray | None = None     # noise_fn's first value, per t
    noise_inner: np.ndarray | None = None    # noise_fn's second value, per t
    psi_gap: np.ndarray | None = None
    bregman_to_opt: np.ndarray | None = None
    start: np.ndarray | None = None          # x_1
    last: np.ndarray | None = None           # x_{T+1}
    last_average: np.ndarray | None = None   # x^ag_{T+1}
    stopped_at: int | None = None
    row_stopped_at: list | None = None       # batch: each row's stopped_at
    row_errors: dict | None = None           # batch: row -> why it went non-finite

    def row(self, i: int) -> "RunTrace":
        """Row i of a batch trace, as the trace of its own run; raises the
        NumericalError that ended the row, if one did. Its A is a prefix of
        the batch's, since the alpha sum accumulates in order."""
        if self.row_stopped_at is None:
            raise ParameterError("row() needs the trace of a batch run")
        if i in self.row_errors:
            raise NumericalError(self.row_errors[i])
        stopped = self.row_stopped_at[i]
        k = self.T if stopped is None else stopped

        def cut(arr):
            return None if arr is None else arr[:k, i]

        def steps(arr):  # shared by the rows, or one column each
            return arr[:k] if arr.ndim == 1 else arr[:k, i]

        def point(arr):
            return None if arr is None else arr[i]

        return RunTrace(
            algorithm=self.algorithm if isinstance(self.algorithm, str) else self.algorithm[i],
            T=k,
            alphas=steps(self.alphas),
            gammas=steps(self.gammas),
            A=steps(self.A),
            noise_norm=cut(self.noise_norm),
            noise_inner=cut(self.noise_inner),
            psi_gap=cut(self.psi_gap),
            bregman_to_opt=cut(self.bregman_to_opt),
            start=point(self.start),
            last=point(self.last),
            last_average=point(self.last_average),
            stopped_at=stopped,
        )


def _take(obj, keep):
    """``obj`` narrowed to the rows ``keep``: arrays by indexing, anything
    else (a batch oracle, a per-row function) through its ``take``."""
    if obj is None:
        return None
    return obj[keep] if isinstance(obj, np.ndarray) else obj.take(keep)


class _Rows:
    """The live rows of a batch run and how each row ended.

    ``leave`` drops rows from the batch and narrows the oracle, the three
    per-row functions and the stop gaps to the rows left; ``at`` indexes
    the live rows along the row axis of the ``(T, S)`` series buffers.
    ``blame`` formats a row's error: one format for every row, or a list
    with one per row.
    """

    def __init__(self, x, oracle, fns, stop_gap, blame):
        n = x.shape[0]
        self.oracle, self.fns, self.blame = oracle, fns, blame
        self.stop = None if stop_gap is None else np.array(
            np.broadcast_to(np.asarray(stop_gap, dtype=float), (n,)))
        self.live = np.arange(n)
        self.at = slice(None)
        self.stopped_at = [None] * n
        self.errors = {}
        self.x_out = np.empty_like(x)
        self.avg_out = np.empty_like(x)

    def leave(self, gone, x, x_avg, stopped_at=None, error=None):
        """Rows ``gone`` (a mask over the live rows) leave with the final
        iterate ``x`` and average ``x_avg``, stopped at ``stopped_at`` or
        ended by ``error``, the (what went non-finite, step) that each
        row's ``blame`` formats. Returns the positions of the rows left."""
        idx = self.live[gone]
        self.x_out[idx] = x[gone]
        self.avg_out[idx] = x_avg[gone]
        for i in idx.tolist():
            if error is None:
                self.stopped_at[i] = stopped_at
            else:
                blame = self.blame if isinstance(self.blame, str) else self.blame[i]
                self.errors[i] = blame.format(*error)
        keep = np.flatnonzero(~gone)
        self.live = self.at = self.live[keep]
        if keep.size:
            self.oracle, self.stop = _take(self.oracle, keep), _take(self.stop, keep)
            self.fns = {k: _take(fn, keep) for k, fn in self.fns.items()}
        return keep


class _OneRow:
    """The oracle of a ``(d,)`` run, as the oracle of a batch of one row."""

    def __init__(self, oracle):
        self._oracle = oracle

    def sample_gradient(self, x, rng=None):
        return np.reshape(self._oracle.sample_gradient(x[0], rng), (1, -1))

    def mean_gradient(self, x):
        return np.reshape(self._oracle.mean_gradient(x[0]), (1, -1))


def _one_row(fn):
    """A gap or Bregman function of a ``(d,)`` run, as one of a batch of one row."""
    return None if fn is None else (lambda x: np.array([float(fn(x[0]))]))


def _run(algorithm, blame, step, oracle, x1, T, rng, stop_gap, gap_fn, bregman_fn, noise_fn,
         row_steps=False):
    """The step loop of every solver, on a ``(d,)`` start or an ``(S, d)`` batch.

    ``step(t, x, x_avg, state, sample, live)`` is a solver's arithmetic for
    step t on the live rows, whose batch positions are ``live``: from the
    iterate ``x`` and the average ``x_avg`` it returns (alpha_t, gamma_t,
    next iterate, next average), drawing its gradient through
    ``sample(query point)``. alpha_t and gamma_t are floats, or, with
    ``row_steps``, ``(live rows, 1)`` columns. ``state`` is a per-row
    array, zero at the start, that the step may update in place.
    Everything about rows is this loop's: the ``(d,)`` reshape, sampling
    and the noise terms, the series buffers, rows leaving at their stop
    gap or on a non-finite oracle output or iterate (``blame`` formats the
    error from what went non-finite and the step), the ``gap_fn``,
    ``bregman_fn`` and ``noise_fn`` hooks (see ``nacsmd``), and the trace.
    ``algorithm`` and ``blame`` are one for every row, or lists with one
    per row.
    Returns (final iterates, final averages, trace); a ``(d,)`` run gives
    its row's own and raises the error that ended it.
    """
    x = np.array(x1, dtype=float)
    if x.ndim not in (1, 2):
        raise ParameterError(f"start point must be (d,) or (S, d), got shape {x.shape}")
    single = x.ndim == 1
    if noise_fn is not None and oracle.mean_gradient is None:
        noise_fn = None  # no mean gradient, no realized noise
    fns = {"gap": gap_fn, "bregman": bregman_fn, "noise": noise_fn}
    if single:
        x, oracle = x[None], _OneRow(oracle)
        fns["gap"], fns["bregman"] = _one_row(fns["gap"]), _one_row(fns["bregman"])
    rows = _Rows(x, oracle, {k: fn for k, fn in fns.items() if fn is not None}, stop_gap, blame)
    start = x

    # steps first, so a run that stops early touches only the memory of the
    # steps it made: numpy backs a large buffer with huge pages, which one
    # write per row into a rows-first buffer would make resident whole
    def series(what):
        return np.empty((T, x.shape[0])) if what in rows.fns else None

    # a row's column past the step it left at is never written, and never read
    alphas = np.empty((T, x.shape[0]) if row_steps else T)
    gammas = np.empty(alphas.shape)
    noise_norm, noise_inner = series("noise"), series("noise")
    psi_gap, breg = series("gap"), series("bregman")

    g = delta = None

    def sample(x_q):
        nonlocal g, delta
        g = rows.oracle.sample_gradient(x_q, rng)
        if noise_norm is not None:
            delta = g - rows.oracle.mean_gradient(x_q)
        return g

    state = np.zeros(x.shape)
    x_avg = x.copy()
    steps = T
    for t in range(1, T + 1):
        a_t, g_t, x_next, avg_next = step(t, x, x_avg, state, sample, rows.live)
        if row_steps:
            alphas[t - 1, rows.at], gammas[t - 1, rows.at] = a_t[:, 0], g_t[:, 0]
        else:
            alphas[t - 1], gammas[t - 1] = a_t, g_t
        # a row whose gradient is not finite blames the oracle, not its iterate
        for what in ("oracle output", "iterate"):
            vals = g if what == "oracle output" else x_next
            if not np.isfinite(vals).all():
                keep = rows.leave(~np.isfinite(vals).all(axis=1), x, x_avg, error=(what, t))
                x, x_avg, state, x_next, avg_next, delta = (
                    _take(v, keep) for v in (x, x_avg, state, x_next, avg_next, delta))
        if not rows.live.size:
            steps = t - 1
            break
        if noise_norm is not None:  # x is still the iterate x_t the step started from
            noise_norm[t - 1, rows.at], noise_inner[t - 1, rows.at] = rows.fns["noise"](delta, x)
        if psi_gap is not None:
            gap = _series(rows.fns["gap"], avg_next, "gap_fn")
            psi_gap[t - 1, rows.at] = gap
        if breg is not None:
            breg[t - 1, rows.at] = _series(rows.fns["bregman"], x_next, "bregman_fn")
        x, x_avg = x_next, avg_next
        if rows.stop is not None:
            done = gap <= rows.stop
            if done.any():
                keep = rows.leave(done, x, x_avg, stopped_at=t if t < T else None)
                if not keep.size:
                    steps = t
                    break
                x, x_avg, state = x[keep], x_avg[keep], state[keep]

    if rows.live.size:  # else the last rows left with their own
        rows.x_out[rows.live] = x
        rows.avg_out[rows.live] = x_avg
    with np.errstate(all="ignore"):  # the unwritten columns sum to what no row reads
        A = np.cumsum(alphas[:steps], axis=0)
    trace = RunTrace(
        algorithm=algorithm,
        T=steps,
        alphas=alphas[:steps],
        gammas=gammas[:steps],
        A=A,
        noise_norm=_first(noise_norm, steps),
        noise_inner=_first(noise_inner, steps),
        psi_gap=_first(psi_gap, steps),
        bregman_to_opt=_first(breg, steps),
        start=start,
        last=rows.x_out,
        last_average=rows.avg_out,
        stopped_at=steps if steps < T else None,
        row_stopped_at=rows.stopped_at,
        row_errors=rows.errors,
    )
    if single:
        return rows.x_out[0], rows.avg_out[0], trace.row(0)
    return rows.x_out, rows.avg_out, trace


def _series(fn, x, what):
    """``fn``'s value on each row of ``x``."""
    vals = np.asarray(fn(x), dtype=float)
    if vals.shape != (x.shape[0],):
        raise ParameterError(
            f"{what} must give one value per row of the batch, got shape {vals.shape}")
    return vals


def _first(buf, n):
    """The first n steps of a record buffer."""
    return None if buf is None else buf[:n]


def _block(idx):
    """The positions ``idx``, increasing, as a slice where they are
    consecutive: the rows of one kind in a batch of cells mostly are."""
    return slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1 else idx


def _check_schedules(names, scheds, params, T):
    """Raise ``ParameterError`` unless each schedule of ``scheds`` passes
    ``validate_schedule`` over T steps; ``names[i]`` is the solver that runs
    ``scheds[i]``, or ``names`` is one name for them all."""
    if len(names) == 1:
        names = names * len(scheds)
    for name, sc in {id(sc): (name, sc) for name, sc in zip(names, scheds)}.values():
        report = validate_schedule(sc, params, T)
        if not report.ok:
            raise ParameterError(
                f"schedule fails the {name} step conditions at t={report.first_violation} "
                f"(slack {report.slack_min:.3e})"
            )


def _mirror_descent(name, oracle, H, sched, x1, T, rng=None, params=None,
                    gap_fn=None, bregman_fn=None, noise_fn=None, stop_gap=None):
    """The step of both mirror-descent solvers, run by ``_run``. The two
    averaging forms agree in exact arithmetic but not in the last bits, so
    each solver keeps its own; nacsmd keeps its alpha-weighted iterate sum
    in the per-row state.

    ``name`` is one of ``TARGETS`` for every row, or a list or tuple with
    one per row, and ``sched`` one schedule for every row, or a list or
    tuple with one per row. Each distinct schedule (by identity) is
    evaluated once a step, as a scalar, and keeps its own running alpha
    sum; with more than one, the step reads them as ``(S, 1)`` columns
    picked by each row's schedule. While rows of both solvers are live, a
    step samples, proxes and checks them all at once and applies each
    averaging form to its own rows only; once one solver's rows are left,
    it takes that solver's own step. Each row keeps the bits of its own
    run, and the error that ends a row names its own solver.
    """
    n = 1 if np.ndim(x1) == 1 else len(x1)
    names = list(name) if isinstance(name, (list, tuple)) else [name]
    kinds = list(dict.fromkeys(names))
    label = "/".join(map(str, kinds))
    if any(k not in TARGETS for k in kinds):
        raise ParameterError(f"solver must be one of {TARGETS}, got {label!r}")
    if len(names) not in (1, n):
        raise ParameterError(f"{label}: got {len(names)} solver names for a batch of {n} rows")
    if T < 1:
        raise ParameterError(f"T must be >= 1, got {T}")
    if stop_gap is not None and gap_fn is None:
        raise ParameterError(f"{label}: stop_gap needs gap_fn to measure the gap")
    per_row = list(sched) if isinstance(sched, (list, tuple)) else [sched]
    if len(per_row) not in (1, n):
        raise ParameterError(
            f"{label}: got {len(per_row)} schedules for a batch of {n} rows")
    mixed = len(kinds) > 1  # then there is one name per row
    if params is not None:
        _check_schedules(names, per_row, params, T)
    scheds = list({id(sc): sc for sc in per_row}.values())
    which = None
    if len(scheds) > 1 or mixed:
        index = {id(sc): j for j, sc in enumerate(scheds)}
        which = np.array([index[id(sc)] for sc in (per_row if len(per_row) == n else per_row * n)])
    A_prev = [0.0] * len(scheds)

    def coefficients(t, live):
        """(alpha_t, gamma_t, A_{t-1}, A_t) of the live rows: floats for one
        schedule, else ``(live rows, 1)`` columns."""
        vals = []
        for j, sc in enumerate(scheds):
            a_t = float(sc.alpha(t))
            vals.append((a_t, float(sc.gamma(t)), A_prev[j], A_prev[j] + a_t))
            A_prev[j] += a_t
        if which is None:
            return vals[0]
        return np.array(vals)[which[live]].T[:, :, None]

    accelerated = np.array([nm == "acsmd" for nm in names])
    split = [None, kinds[0] == "acsmd"]  # the live rows it was made for, and their kinds

    def kinds_of(live):
        """True or False when every live row runs acsmd or nacsmd, else the
        positions of the acsmd and the nacsmd rows among the live ones."""
        if mixed and split[0] is not live:
            acc = accelerated[live]
            split[:] = live, (bool(acc[0]) if acc.all() or not acc.any()
                              else (_block(np.flatnonzero(acc)), _block(np.flatnonzero(~acc))))
        return split[1]

    def step(t, x, x_avg, S, sample, live):
        a_t, g_t, A_p, A_t = coefficients(t, live)
        rows = kinds_of(live)
        if rows is False:
            x_next = composite_prox(H, sample(x), x, a_t, g_t)
            S += a_t * x_next
            return a_t, g_t, x_next, S / A_t
        if rows is True:
            w_avg, w_new = A_p / A_t, a_t / A_t
            x_next = composite_prox(H, sample(w_avg * x_avg + w_new * x), x, a_t, g_t)
            return a_t, g_t, x_next, w_avg * x_avg + w_new * x_next
        acc, plain = rows
        w_avg, w_new = A_p[acc] / A_t[acc], a_t[acc] / A_t[acc]
        x_q = x.copy()
        x_q[acc] = w_avg * x_avg[acc] + w_new * x[acc]
        x_next = composite_prox(H, sample(x_q), x, a_t, g_t)
        avg_next = np.empty_like(x_next)
        avg_next[acc] = w_avg * x_avg[acc] + w_new * x_next[acc]
        S[plain] += a_t[plain] * x_next[plain]
        avg_next[plain] = S[plain] / A_t[plain]
        return a_t, g_t, x_next, avg_next

    if mixed:
        algorithm, blame = names, [f"{nm}: non-finite {{}} at t={{}}" for nm in names]
    else:
        algorithm = kinds[0]
        blame = f"{algorithm}: non-finite {{}} at t={{}}"
    return _run(algorithm, blame, step, oracle, x1, T, rng, stop_gap, gap_fn, bregman_fn,
                noise_fn, row_steps=which is not None)


def nacsmd(
    oracle,
    H: PowerNormRegularizer,
    sched,
    x1: np.ndarray,
    T: int,
    rng: np.random.Generator | None = None,
    params: GeometryParams | None = None,
    gap_fn=None, bregman_fn=None, noise_fn=None,
    stop_gap: float | None = None,
):
    """Composite stochastic mirror descent; returns (x_{T+1}, x^ag_{T+1}, trace).

    ``x1`` is one start point ``(d,)`` or an ``(S, d)`` batch of S runs, each
    row with the bits of its own ``(d,)`` run. For a batch, ``sched`` and
    ``stop_gap`` may be one per row, the returned iterates are ``(S, d)`` (a
    row that left early keeps its last ones) and the trace is a batch trace.
    With ``params`` the schedule is checked over the T steps first.

    Three hooks choose the per-step scalar series the trace records.
    ``gap_fn``/``bregman_fn`` are evaluated on the averaged iterate
    x^ag_{t+1} / the raw iterate x_{t+1} after each step and stored as the
    series ``psi_gap``/``bregman_to_opt`` (for an ``(S, d)`` batch they take
    the live rows and give one value per row, and need a ``take(keep)`` if
    rows can leave early). ``stop_gap`` needs ``gap_fn``. ``noise_fn(delta,
    x)`` gets every step's realized noise delta_t = sample - mean gradient
    and the iterate x_t the step started from, always as ``(S, d)`` rows (a
    ``(d,)`` run is a batch of one), and returns two values per row, stored
    as the series ``noise_norm`` and ``noise_inner``; it is only called
    when the oracle exposes ``mean_gradient``. ``diagnostics.NoiseTerms`` is
    the one the run certificates read, and ``diagnostics.certificate_options``
    gives all three as keywords. Every step is recorded: the certificates
    hold step by step and read them all.

    No iterate is recorded: a trace keeps the start and end points only. A
    caller who wants the points records them through these hooks, which see
    every x^ag_{t+1}, x_{t+1} and x_t, and through the oracle, whose
    ``sample_gradient`` sees every query point.
    """
    return _mirror_descent("nacsmd", oracle, H, sched, x1, T, rng, params,
                           gap_fn, bregman_fn, noise_fn, stop_gap)


def acsmd(
    oracle,
    H: PowerNormRegularizer,
    sched,
    x1: np.ndarray,
    T: int,
    rng: np.random.Generator | None = None,
    params: GeometryParams | None = None,
    gap_fn=None, bregman_fn=None, noise_fn=None,
    stop_gap: float | None = None,
):
    """Accelerated variant; oracle queries move to the momentum point.

    Maintains x^md_t = (A_{t-1}/A_t) x^ag_t + (alpha_t/A_t) x_t, proxes from
    x_t using the gradient sampled at x^md_t, and averages incrementally:
    x^ag_{t+1} = (A_{t-1}/A_t) x^ag_t + (alpha_t/A_t) x_{t+1}. A_0 = 0 and
    x^ag_1 = x_1, so the first query lands exactly on x_1. ``x1`` may be an
    ``(S, d)`` batch, and ``params``, the hooks and ``stop_gap`` act as
    for ``nacsmd``.
    """
    return _mirror_descent("acsmd", oracle, H, sched, x1, T, rng, params,
                           gap_fn, bregman_fn, noise_fn, stop_gap)


def _solver(name: str):
    """The solver called ``name``, read from this module's namespace at each
    call so that a wrapper installed there (a tracer, a counter) sees it."""
    if name not in TARGETS:
        raise ParameterError(f"solver must be one of {TARGETS}, got {name!r}")
    return globals()[name]


@dataclass(frozen=True)
class RestartPlan:
    """n halving stages of K iterations, then one final stage of T iterations."""

    n: int
    K: int
    T: int

    def __post_init__(self):
        if self.n < 0:
            raise ParameterError(f"n must be >= 0, got {self.n}")
        if self.K < 1:
            raise ParameterError(f"K must be >= 1, got {self.K}")
        if self.T < self.K:
            raise ParameterError(f"T must be >= K, got T={self.T}, K={self.K}")


def restart(
    solver: str,
    oracle,
    H: PowerNormRegularizer,
    sched,
    x1: np.ndarray,
    plan: RestartPlan,
    rng: np.random.Generator | None = None,
    params: GeometryParams | None = None,
    gap_fn=None, bregman_fn=None, noise_fn=None,
):
    """Run n stages of K iterations, chaining the raw (non-averaged) endpoint
    as the next start, then a final T-iteration stage. Returns (y, traces):
    the final stage's averaged output and the stages' traces in order, the
    final stage's last; each stage's ``start`` is the previous stage's
    ``last``. ``solver`` names one of ``TARGETS``. Every stage gets the same
    hooks ``gap_fn``, ``bregman_fn`` and ``noise_fn`` (see ``nacsmd``). With
    n = 0 this is byte-identical to a single solver call. A batch row that
    goes non-finite in any stage, the final one included, ends the whole
    chain with its error.

    With ``params`` the schedule is checked once, over the final stage's T
    steps, before any stage runs: T >= K, and a violation within K steps is
    one within T, so that check covers every stage."""
    step = _solver(solver)
    if params is not None:
        _check_schedules([solver], sched if isinstance(sched, (list, tuple)) else [sched],
                         params, plan.T)
    x, traces = x1, []
    for steps in [plan.K] * plan.n + [plan.T]:
        x, y, tr = step(oracle, H, sched, x, steps, rng=rng, gap_fn=gap_fn,
                        bregman_fn=bregman_fn, noise_fn=noise_fn)
        if tr.row_errors:
            raise NumericalError(next(iter(tr.row_errors.values())))
        traces.append(tr)
    return y, traces


def _run_inequality_steps(params: GeometryParams, target: str, alphas, gammas, A, moment):
    """(noise, det, base): per-step terms of the run inequality, det being
    L alpha_t (L A_t for acsmd) times base^(1/r). ``moment`` is ||delta_t||_*^p,
    realized for a certificate or the declared sigma^p for the mean bound."""
    p, q, mu, M, L, r = params.p, params.q, params.mu, params.M, params.L, params.r
    noise = 2.0 * moment / (p * mu ** (p / q)) * (alphas ** q / gammas) ** (p / q)
    if target == "nacsmd":
        base = 2.0 * M * alphas / (mu * gammas)
        det = L * alphas * power_inv_r(base, r)
    else:
        base = 2.0 * M * alphas * (alphas / A) ** (q - 1.0) / (mu * gammas)
        det = L * A * power_inv_r(base, r)
    return noise, det, base


def _bound_term_arrays(params: GeometryParams, sched, target: str, t: np.ndarray,
                       A_prev: float = 0.0):
    """(A, noise, det) of the computable mean bound at the steps ``t``."""
    alphas = np.asarray(sched.alpha(t), dtype=float)
    gammas = np.asarray(sched.gamma(t), dtype=float)
    A = A_prev + np.cumsum(alphas)
    noise, det, _ = _run_inequality_steps(params, target, alphas, gammas, A,
                                          params.sigma ** params.p)
    return A, noise, det


def expectation_bound(params: GeometryParams, sched, target: str, V0: float, T: int) -> float:
    """Computable bound on the expected gap after T steps:

        (gamma_1 * V0 + sum noise terms + sum deterministic terms) / A_T

    with the noise moments replaced by their declared level sigma^p. This is
    the quantity restart planning compares against the target accuracy;
    ``plan_from_params`` streams the same terms in chunks rather than
    evaluating this over its whole horizon.
    """
    t = np.arange(1, T + 1, dtype=float)
    A, noise, det = _bound_term_arrays(params, sched, target, t)
    return float((float(sched.gamma(1)) * V0 + noise.sum() + det.sum()) / A[-1])


_PLAN_CHUNK = 1 << 17


def halving_horizon(sched) -> int:
    """Smallest k with gamma_k >= 2 gamma_1: one restart stage of this length
    at least halves the Bregman divergence to the optimum (up to the stage's
    own noise/smoothness residuals), by the run inequality."""
    gamma1 = float(sched.gamma(1))
    K = 1
    while float(sched.gamma(K)) < 2.0 * gamma1:
        K += max(1, K // 4)
    while K > 1 and float(sched.gamma(K - 1)) >= 2.0 * gamma1:
        K -= 1
    return K


def plan_from_params(
    params: GeometryParams,
    target: str,
    V0_estimate: float,
    epsilon: float,
    sched,
    horizon: int,
) -> RestartPlan:
    """Size a restart plan of ``sched``, the schedule it will run, within
    ``horizon`` steps in all.

    * n = ceil(log2(V0/epsilon)) halving stages;
    * K = smallest horizon with gamma_K >= 2 gamma_1, so each stage at least
      halves the divergence to the optimum (plus its own residual terms);
    * T = smallest horizon >= K at which the bound with start error epsilon
      falls below epsilon (driven by the noise term when sigma > 0), found
      by streaming the bound's terms in chunks of 2^17 steps up to the
      ``horizon - n K`` steps the final stage has.

    A plan whose n K + T steps do not fit in ``horizon`` is a
    ``ParameterError`` naming n, K and the horizon; the bound is never
    evaluated past the horizon. The planned halving ratio of a stage is
    ``sched.gamma(1) / sched.gamma(plan.K)``, at most 1/2.
    """
    if not epsilon > 0.0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if not V0_estimate > 0.0:
        raise ParameterError(f"V0_estimate must be positive, got {V0_estimate}")
    n = max(0, math.ceil(math.log2(V0_estimate / epsilon))) if epsilon < V0_estimate else 0

    gamma1 = float(sched.gamma(1))
    K = halving_horizon(sched)
    last = horizon - n * K  # the longest final stage that fits

    # stream the bound terms in chunks until the residual drops below epsilon
    T = None
    A_prev = 0.0
    acc = gamma1 * epsilon
    start = 1
    while start <= last:
        t = np.arange(start, min(start + _PLAN_CHUNK, last + 1), dtype=float)
        A, noise, det = _bound_term_arrays(params, sched, target, t, A_prev=A_prev)
        step_terms = noise + det
        if not np.all(np.isfinite(step_terms)):
            bad = int(t[np.nonzero(~np.isfinite(step_terms))[0][0]])
            raise ParameterError(
                f"plan_from_params: the bound term is undefined at t={bad} (the schedule "
                "violates the smooth-case step condition there); size the plan with a "
                "validated schedule"
            )
        residual = (acc + np.cumsum(step_terms)) / A
        hit = np.nonzero(residual <= epsilon)[0]
        if hit.size:
            T = start + int(hit[0])
            break
        acc += float(np.sum(step_terms))
        A_prev = float(A[-1])
        start += _PLAN_CHUNK
    if T is None or K > last:
        raise ParameterError(
            f"plan_from_params: no plan of n={n} halving stages of K={K} steps and a final "
            f"stage reaching epsilon={epsilon} fits in a horizon of {horizon} steps"
        )
    return RestartPlan(n=n, K=K, T=max(T, K))


def _power_linear_guess(a: float, b: float, c: np.ndarray, q: float) -> np.ndarray | None:
    """The closed-form root of a|x|^{q-1}sign(x) + b x = c at q = 2 or 3,
    else None: c/(a+b), or 2c/(b + sqrt(b^2 + 4a|c|)), which has no
    cancellation for either sign of c."""
    with np.errstate(all="ignore"):  # an overflowing guess only fails its walk
        if q == 2.0:
            return c / (a + b)
        if q == 3.0:
            return 2.0 * c / (b + np.sqrt(b * b + 4.0 * a * np.abs(c)))
    return None


def _solve_power_linear(a: float, b: float, c: np.ndarray, q: float) -> np.ndarray:
    """Vector root of a|x|^{q-1}sign(x) + b x = c_j (a > 0, b > 0, monotone).

    Bisects the bracket between 0 and c/b until it stops changing, within
    90 steps. ``acsa_baseline`` solves q = 2 in closed form instead.

    At q = 2 or 3 the bisection's test is monotone in floating point:
    ``**1.0`` and ``**2.0`` are numpy's copy and ``np.square``, and every
    other operation in it is one rounded IEEE operation, monotone in ``mid``.
    So ``_bisect`` starts from the closed-form root and certifies the
    bisection's bits within a few ulps of it; it runs the loop instead where
    the root is more than a few ulps off, is subnormal, sits next to an end
    of its bracket, or the loop could reach its 90-step cap first.
    """
    c = np.asarray(c, dtype=float)

    def go_up(mid):
        return a * np.abs(mid) ** (q - 1.0) * np.sign(mid) + b * mid < c

    return _bisect(go_up, np.minimum(0.0, c / b), np.maximum(0.0, c / b), 90,
                   _power_linear_guess(a, b, c, q))


def acsa_baseline(
    oracle,
    H: PowerNormRegularizer,
    mu_f: float,
    L: float,
    x1: np.ndarray,
    T: int,
    rng: np.random.Generator | None = None,
    gap_fn=None,
    stop_gap: float | None = None,
    stage0: int = 4,
):
    """Multi-stage accelerated stochastic approximation baseline (Euclidean).

    Classic strongly convex accelerated stochastic approximation with
    alpha_t = 2/(t+1), gamma_t = 4 L_eff / (t (t+1)), restarted from the
    averaged iterate at doubling stage lengths, the first ``stage0`` steps
    long (an integer >= 1). For q = 2 the regularizer is folded into the
    smooth part (L_eff = L + mu_H, mu_eff = mu_f + mu_H) and the inner step
    is a closed-form quadratic; otherwise the regularizer has no Euclidean
    strong convexity to offer, mu_eff = mu_f, and the inner step keeps it
    exact through a per-coordinate monotone solve. Counts one oracle query
    per iteration, like the mirror-descent solvers.

    ``x1`` may be an ``(S, d)`` batch, as for ``nacsmd``: the stage lengths
    and alpha_t, gamma_t are shared by all rows, the monotone solve stops at
    a fixed point of every coordinate, and each row has its own ``stop_gap``
    and the bits of its own run. A row stopped at step T reads
    ``stopped_at`` None, as on the mirror-descent solvers.
    """
    if T < 1:
        raise ParameterError(f"T must be >= 1, got {T}")
    if not mu_f > 0.0:
        raise ParameterError(f"mu_f must be positive, got {mu_f}")
    if stop_gap is not None and gap_fn is None:
        raise ParameterError("acsa_baseline: stop_gap needs gap_fn to measure the gap")
    if isinstance(stage0, bool) or not isinstance(stage0, numbers.Integral) or stage0 < 1:
        raise ParameterError(f"acsa_baseline: stage0 must be an integer >= 1, got {stage0!r}")
    fold = H.q == 2.0
    mu_eff = mu_f + (H.mu if fold else 0.0)
    L_eff = L + (H.mu if fold else 0.0)
    # each step's index within its stage; a stage starts at index 1
    local = []
    stage = stage0
    while len(local) < T:
        local.extend(range(1, min(stage, T - len(local)) + 1))
        stage *= 2

    def step(t, x_prev, x_ag, state, sample, live):
        k = local[t - 1]
        alpha_t = 2.0 / (k + 1.0)
        gamma_t = 4.0 * L_eff / (k * (k + 1.0))
        if k == 1:  # a stage restarts its prox centre from the average
            x_prev = x_ag
        beta = (1.0 - alpha_t) * mu_eff + gamma_t
        denom = gamma_t + (1.0 - alpha_t ** 2) * mu_eff
        x_md = ((1.0 - alpha_t) * (mu_eff + gamma_t) * x_ag + alpha_t * beta * x_prev) / denom
        gs = sample(x_md)
        if fold:
            gs = gs + H.grad(x_md)
        rhs = alpha_t * mu_eff * x_md + beta * x_prev - alpha_t * gs
        if fold:
            x_new = rhs / (mu_eff + gamma_t)
        else:
            x_new = _solve_power_linear(alpha_t * H.mu, mu_eff + gamma_t, rhs, H.q)
        return alpha_t, gamma_t, x_new, alpha_t * x_new + (1.0 - alpha_t) * x_ag

    _, x_ag, trace = _run(
        "acsa", "acsa_baseline: non-finite {} at step {}", step, oracle, x1, T, rng,
        stop_gap, gap_fn, None, None)
    return x_ag, trace
