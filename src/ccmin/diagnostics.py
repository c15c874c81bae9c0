"""Run diagnostics: exact gap metrics, pathwise certificates, and the two
Monte Carlo experiments (adversarial failure rate, martingale tail bounds).

The certificate is the central check. For a valid schedule, every run of
either solver satisfies, at every horizon t and for every noise realization,

    A_t [Psi(xag_{t+1}) - Psi*] + gamma_t D(x*, x_{t+1})
        <= gamma_1 D(x*, x_1)                                (initialization)
         + sum_s alpha_s <delta_s, x* - x_s>                 (martingale part)
         + sum_s 2||delta_s||_*^p / (p mu^{p/q}) (alpha_s^q/gamma_s)^{p/q}
         + L sum_s alpha_s (2 M alpha_s / (mu gamma_s))^{1/r}

(with the accelerated variant replacing the last sum by
L sum_s A_s (2 M alpha_s^q / (mu A_s^{q-1} gamma_s))^{1/r}). This is not a
statement in expectation — it can be asserted on a single trace, provided the
run streamed its two reads of the realized noise delta_s = sample - mean
gradient, ||delta_s||_* and <delta_s, x* - x_s>, which requires an oracle
that exposes its mean gradient. That makes the check a test-mode feature;
production oracles cannot reveal their mean. A run records these as two
numbers per step (``NoiseTerms``), next to its gap and Bregman series, so a
certified batch of S rows keeps O(T S) numbers, not the O(T S d) of its
iterates and noise. The last two sums share their per-step terms with
``solvers.expectation_bound``, which puts sigma^p where the certificate has
the realized ||delta_s||_*^p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DiagnosticUnavailableError, NumericalError, ParameterError
from .geometry import (GeometryParams, _bisect, _row_dot, bregman_to, derive_params,
                       dual_exponent, power_uc_constant)
from .oracles import (AdditiveNoiseOracle, RidgeInstance, _philox, _ridge_mean_gradient,
                      bernoulli_oracle)
from .regularizers import PowerNormRegularizer
from .solvers import (TARGETS, _power_linear_guess, _run_inequality_steps, _solver,
                      default_schedule)

__all__ = [
    "exact_optimum",
    "ridge_psi",
    "CertificateReport",
    "NoiseTerms",
    "certificate_options",
    "certificate_check",
    "LowerBoundReport",
    "lower_bound_experiment",
    "ConcentrationReport",
    "martingale_tail_bound",
    "concentration_check",
]


def ridge_psi(instance: RidgeInstance, x: np.ndarray):
    """Exact regularized objective of a ridge instance (population form);
    one value per row for an ``(S, d)`` batch of points."""
    return _ridge_psi(x, instance.x_star, instance.sigma_b, instance.mu, instance.q)


def _ridge_psi(x, x_star, sigma_b, mu, q):
    """``ridge_psi`` with the instance spelled out, so that an ``(S, d)``
    ``x_star`` gives each row of ``x`` its own instance; row i has the bits
    of the 1-D evaluation."""
    x = np.asarray(x, dtype=float)
    d = x - x_star
    out = _row_dot(d, d) / 3.0 + sigma_b ** 2 + mu / q * np.sum(np.abs(x) ** q, axis=-1)
    return float(out) if out.ndim == 0 else out


def exact_optimum(instance: RidgeInstance, residual_tol: float = 1e-10):
    """Coordinate-wise optimum of the ridge objective and its exact value.

    Each coordinate solves (2/3)(x - x*_j) + mu |x|^{q-1} sign(x) = 0, a
    strictly increasing scalar equation with root between 0 and x*_j;
    bisection to machine width, stopping once the bracket no longer changes,
    within 200 steps. The residual must stay within residual_tol * max(1, max|x*|),
    since that of a machine-width root grows with the scale of x*.

    At q = 2 or 3 the sign test of that equation is monotone in floating
    point (as in ``solvers._solve_power_linear``), so the bisection starts
    from the closed-form root of mu|x|^{q-1}sign(x) + (2/3)x = (2/3)x*_j and
    certifies its bits within a few ulps of it; it falls back to the loop
    where the root is further off, subnormal or next to 0 or x*_j, or the
    loop could reach its cap first.
    """
    xs = instance.x_star
    if instance.mu == 0.0:
        return xs.copy(), instance.sigma_b ** 2
    mu, q = instance.mu, instance.q

    def foc(x):
        return _ridge_mean_gradient(x, xs) + mu * np.abs(x) ** (q - 1.0) * np.sign(x)

    x_opt = _bisect(lambda mid: foc(mid) < 0.0, np.minimum(0.0, xs), np.maximum(0.0, xs), 200,
                    _power_linear_guess(mu, 2.0 / 3.0, 2.0 / 3.0 * xs, q))
    worst = float(np.max(np.abs(foc(x_opt))))
    tol = residual_tol * float(np.max(np.abs(xs), initial=1.0))
    if worst > tol:
        raise NumericalError(f"exact_optimum: optimality residual {worst:.3e} > {tol:.3e}")
    return x_opt, ridge_psi(instance, x_opt)


@dataclass
class CertificateReport:
    """Per-horizon decomposition of the run inequality; slack must stay >= 0."""

    algorithm: str
    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    init_term: float
    martingale: np.ndarray
    noise_moment: np.ndarray
    deterministic: np.ndarray
    ok: bool
    min_normalized_slack: float
    first_violation: int | None


class NoiseTerms:
    """The run inequality's two per-step reads of the realized noise, as a
    solver's ``noise_fn``: for each row, ||delta_t||_p and
    <delta_t, x* - x_t>, written as the certificate wrote them over a
    recorded run, so each keeps the bits of that evaluation. ``x_star`` is
    one ``(d,)`` minimizer or an ``(S, d)`` batch of each row's own;
    ``take(keep)`` keeps the rows ``keep``."""

    def __init__(self, x_star, p: float):
        self.x_star, self.p = np.asarray(x_star, dtype=float), p

    def __call__(self, delta, x):
        p = self.p
        return (np.sum(np.abs(delta) ** p, axis=-1) ** (1.0 / p),
                np.sum(delta * (self.x_star - x), axis=-1))

    def take(self, keep):
        return NoiseTerms(self.x_star if self.x_star.ndim == 1 else self.x_star[keep], self.p)


def certificate_options(params: GeometryParams, H: PowerNormRegularizer, x_star, psi,
                        psi_star: float) -> dict:
    """What a ``(d,)`` run must record for ``certificate_check``, as the
    solver keywords ``gap_fn`` (the gap psi - psi_star), ``bregman_fn`` (the
    Bregman divergence D(x*, .)) and ``noise_fn`` (the noise terms):
    ``nacsmd(..., **certificate_options(...))``. No iterate is recorded;
    certificate memory is O(T)."""
    return {"gap_fn": lambda x: psi(x) - psi_star,
            "bregman_fn": bregman_to(H, x_star),
            "noise_fn": NoiseTerms(x_star, params.p)}


def _verified(series, last, what):
    """The recorded ``series`` if its last value has the bits of ``last``,
    the same quantity evaluated afresh at the run's last point."""
    if series is None or series[-1:].tobytes() != last.tobytes():
        raise DiagnosticUnavailableError(
            f"certificate_check needs the run's {what} series; see certificate_options")
    return series


_SLACK_TOL = 1e-6  # a step violates where slack / (1 + |rhs|) < -_SLACK_TOL


def certificate_check(
    trace,
    params: GeometryParams,
    H: PowerNormRegularizer,
    x_star: np.ndarray,
    psi,
    psi_star: float,
) -> CertificateReport:
    """Evaluate the pathwise inequality of a recorded run at every horizon.

    Reads the run's series, one value per step, as ``certificate_options``
    has a run record them: the noise terms of ``NoiseTerms(x_star,
    params.p)``, the gap psi(x^ag_{t+1}) - psi_star and the divergence
    D(x*, x_{t+1}). The last value of the gap and divergence series is
    evaluated afresh at the trace's last points and must have the same
    bits, so a series of another function (a relative gap, say) is refused.
    ``psi`` is the exact objective; ``x_star`` its unique minimizer.
    """
    if trace.noise_norm is None:
        raise DiagnosticUnavailableError(
            "certificate_check needs the run's noise terms; run with an oracle exposing "
            "mean_gradient and a noise_fn (see certificate_options)"
        )
    if trace.algorithm not in TARGETS:
        raise ParameterError(f"no certificate for algorithm {trace.algorithm!r}")
    x_star = np.asarray(x_star, dtype=float)
    alphas, gammas, A = trace.alphas, trace.gammas, trace.A
    breg = bregman_to(H, x_star)
    gaps = _verified(trace.psi_gap, np.array([psi(trace.last_average)]) - psi_star,
                     "gap psi - psi_star")
    divergences = _verified(trace.bregman_to_opt, np.array([breg(trace.last)]),
                            "Bregman divergence to x_star")

    martingale = np.cumsum(alphas * trace.noise_inner)
    noise_steps, det_steps, base = _run_inequality_steps(
        params, trace.algorithm, alphas, gammas, A, trace.noise_norm ** params.p)
    if params.r == 0.0 and np.any(base > 1.0 + 1e-9):
        raise ParameterError(
            "certificate_check: schedule violates gamma_t >= 2 M alpha_t / mu in the "
            "smooth case; the deterministic term convention does not apply"
        )
    noise_moment = np.cumsum(noise_steps)
    deterministic = np.cumsum(det_steps)

    init_term = float(gammas[0]) * breg(trace.start)
    lhs = A * gaps + gammas * divergences
    rhs = init_term + martingale + noise_moment + deterministic
    slack = rhs - lhs
    norm_slack = slack / (1.0 + np.abs(rhs))
    bad = norm_slack < -_SLACK_TOL
    first = int(np.argmax(bad)) + 1 if bool(bad.any()) else None
    return CertificateReport(
        algorithm=trace.algorithm,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        init_term=init_term,
        martingale=martingale,
        noise_moment=noise_moment,
        deterministic=deterministic,
        ok=first is None,
        min_normalized_slack=float(norm_slack.min()),
        first_violation=first,
    )


@dataclass
class LowerBoundReport:
    empirical_failure_rate: float
    T_bound: int
    theory_rate: float
    threshold: float
    ok: bool
    allzero_rate: float
    allzero_expected: float
    activation: float
    gradient_scale: float
    trials: int


class _ReplayOracle:
    """Hands the step loop the rows of a pre-drawn ``(T, S, d)`` gradient
    block, one per query, in order."""

    mean_gradient = None

    def __init__(self, block: np.ndarray, t: int = 0):
        self._block, self._t = block, t

    def sample_gradient(self, x, rng=None):
        self._t += 1
        return self._block[self._t - 1]

    def take(self, keep):
        return _ReplayOracle(self._block[:, keep], self._t)


_TRIAL_BLOCK = 1024  # trials run together as the rows of one solver call


def lower_bound_experiment(
    solver: str,
    mu: float,
    q: float,
    sigma: float,
    epsilon: float,
    gamma: float,
    trials: int,
    seed: int = 0,
    T: int | None = None,
) -> LowerBoundReport:
    """Failure-probability experiment against the hidden-sign oracle.

    Runs the chosen solver for the horizon T = floor((1/(2 p^{q-1}))
    (sigma/mu) (sigma/eps)^{q-1} ln(1/(1-gamma))) from the uninformative
    start 0, with the sign drawn uniformly per trial. A trial fails when the
    output's suboptimality on the realized instance is >= epsilon (up to a
    1e-9 relative float guard). No algorithm can beat failure probability
    1 - gamma at this horizon, so the empirical rate must sit above
    (1 - gamma) minus three binomial standard errors.

    Trial i draws from its own stream ``Philox(SeedSequence((seed, i)))``:
    first its sign, then one uniform per step. The oracle's gradient does
    not depend on the query point, so those T uniforms fix the trial's whole
    gradient sequence before the run starts. Up to 1024 trials at a time are
    drawn as one ``(trials, T)`` block of gradients and run as the rows of
    one ``(trials, 1)`` solver call. This is exact, not a model of the
    per-trial runs: a block of T uniforms holds the doubles of T successive
    scalar draws, ``BernoulliOracle.gradients`` is the formula the oracle
    samples through, and the step loop is elementwise, so every row gets
    the bits of its trial's own run. A trial is silent when its gradients
    are all zero.
    """
    if not 0.0 < gamma < 1.0:
        raise ParameterError(f"gamma must lie in (0, 1), got {gamma}")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if not q >= 2.0:
        raise ParameterError(f"q must be >= 2, got {q}")
    p = dual_exponent(q)
    if T is None:
        bound = (
            0.5 / p ** (q - 1.0) * (sigma / mu) * (sigma / epsilon) ** (q - 1.0)
            * math.log(1.0 / (1.0 - gamma))
        )
        T = max(1, math.floor(bound))
    run = _solver(solver)
    params = derive_params(q, 2.0, 0.0, mu * power_uc_constant(q), sigma=sigma)
    # validated over the T steps each run takes, so the runs need no check of their own
    sched = default_schedule(params, solver, validate_horizon=T)
    H = PowerNormRegularizer(mu=mu, q=q)
    # the two signs share s and C
    plus, plus_inst = bernoulli_oracle(mu, q, sigma, epsilon, nu=1)
    minus, minus_inst = bernoulli_oracle(mu, q, sigma, epsilon, nu=-1)

    failures = 0
    allzero = 0
    for start in range(0, trials, _TRIAL_BLOCK):
        n = min(_TRIAL_BLOCK, trials - start)
        positive = np.empty((n, 1), dtype=bool)
        uniforms = np.empty((n, T))
        for k in range(n):
            rng = _philox((seed, start + k))
            positive[k] = rng.random() < 0.5
            uniforms[k] = rng.random(T)
        grads = np.where(positive, plus.gradients(uniforms), minus.gradients(uniforms))
        # (T, n, 1): step t hands the loop column t of the block
        _, y, trace = run(_ReplayOracle(grads.T[:, :, None]), H, sched, np.zeros((n, 1)), T)
        if trace.row_errors:
            # the first trial to go non-finite ends the experiment, as it would alone
            raise NumericalError(next(iter(trace.row_errors.values())))
        for k in range(n):
            inst = plus_inst if positive[k, 0] else minus_inst
            if inst.psi(float(y[k, 0])) - inst.psi_star >= epsilon * (1.0 - 1e-9):
                failures += 1
        allzero += int(np.count_nonzero(~grads.any(axis=1)))

    rate = failures / trials
    theory = 1.0 - gamma
    threshold = theory - 3.0 * math.sqrt(gamma * (1.0 - gamma) / trials)
    return LowerBoundReport(
        empirical_failure_rate=rate,
        T_bound=T,
        theory_rate=theory,
        threshold=threshold,
        ok=rate >= threshold,
        allzero_rate=allzero / trials,
        allzero_expected=(1.0 - plus_inst.s) ** T,
        activation=plus_inst.s,
        gradient_scale=plus_inst.C,
        trials=trials,
    )


_NOISE_CHUNK = 10_000  # trials whose noise paths are drawn as one block


@dataclass
class ConcentrationReport:
    tau: np.ndarray
    empirical: np.ndarray
    bound: np.ndarray
    stderr: np.ndarray
    ok: bool
    mgf_estimate: float
    sigma_R: float
    meta: dict = field(default_factory=dict)


def martingale_tail_bound(tau, weights: np.ndarray, sigma_R: float, q: float):
    """Tail bound for sum_t beta_t W_t when each W_t has the exponential
    moment bound E exp(|W|^p / sigma_R^p) <= 2 conditionally on the past.

    With S2 = 3 sigma_R sqrt(sum beta^2) and Sq = 3 sigma_R (sum beta^q)^{1/q}:

        tau <= S2^2 / sigma_R                ->  exp(-(tau/S2)^2 / 4)
        tau >  S2^2 / sigma_R                ->  exp(-tau / (4 sigma_R))
        tau >= q Sq^q / (2 sigma_R)^{q-1}    ->  also
                                   exp(-(1/p) (1/q)^{1/(q-1)} (tau/Sq)^p)

    Where two regimes apply the smaller bound is used. Published variants of
    the middle and polynomial regimes carry slightly stronger constants than
    their derivations support (4 vs p in the middle denominator, and a
    dropped (1/q)^{1/(q-1)} factor in the exponent of the third); this
    evaluator keeps the weaker, derivation-backed constants in both places.
    """
    tau = np.asarray(tau, dtype=float)
    beta = np.asarray(weights, dtype=float)
    p = dual_exponent(q)
    S2 = 3.0 * sigma_R * math.sqrt(float(np.sum(beta ** 2)))
    Sq = 3.0 * sigma_R * float(np.sum(np.abs(beta) ** q)) ** (1.0 / q)
    out = np.ones_like(tau)
    gauss_regime = tau <= S2 ** 2 / sigma_R
    out[gauss_regime] = np.exp(-0.25 * (tau[gauss_regime] / S2) ** 2)
    mid = ~gauss_regime
    out[mid] = np.exp(-tau[mid] / (4.0 * sigma_R))
    poly = tau >= q * Sq ** q / (2.0 * sigma_R) ** (q - 1.0)
    coeff = (1.0 / q) ** (1.0 / (q - 1.0)) / p
    out[poly] = np.minimum(out[poly], np.exp(-coeff * (tau[poly] / Sq) ** p))
    return np.minimum(out, 1.0), S2, Sq


def concentration_check(
    noise: str,
    weights: np.ndarray,
    trials: int,
    seed: int = 0,
    sigma: float = 1.0,
    R: float = 1.0,
    dim: int = 4,
    q: float = 2.0,
    tau_grid: np.ndarray | None = None,
    mgf_draws: int = 100_000,
) -> ConcentrationReport:
    """Monte Carlo check of the martingale tail bound on a scripted path.

    Simulates W_t = <noise_t, u_t> with deterministic directions u_t of l_q
    norm exactly R (a path inside the radius-R ball around the optimum) and
    compares the empirical tail of sum_t beta_t W_t against the bound on a
    tau grid. Only noise families with a certified exponential moment level
    are admitted; heavy-tailed noise is rejected.
    """
    # the tail bound divides by the noise level sigma * R, and by q - 1
    if not sigma > 0.0:
        raise ParameterError(f"concentration_check needs sigma > 0, got {sigma}")
    if not R > 0.0:
        raise ParameterError(f"concentration_check needs R > 0, got {R}")
    if not q >= 2.0:
        raise ParameterError(f"concentration_check needs q >= 2, got {q}")
    weights = np.asarray(weights, dtype=float)
    # the tail bound's scales; non-finite ones make the bound and tau grid NaN
    with np.errstate(over="ignore"):
        scales = np.array([np.sum(weights ** 2), np.sum(np.abs(weights) ** q)])
    if not np.all(np.isfinite(scales)):
        raise ParameterError("concentration_check needs finite weights whose squares and "
                             f"q-th powers have finite sums, got sums {scales.tolist()}")
    T = weights.size
    p = dual_exponent(q)
    probe = AdditiveNoiseOracle(lambda x: np.zeros(dim), dim, noise, sigma, q=q)
    if probe.mgf_sigma is None:
        raise ParameterError(
            f"noise kind {noise!r} (p={p}) has no certified exponential moment level"
        )
    sigma_R = probe.mgf_sigma * R

    # deterministic unit-l_q directions: alternating signed basis vectors
    dirs = np.zeros((T, dim))
    for t in range(T):
        dirs[t, t % dim] = R * (1.0 if t % 2 == 0 else -1.0)

    rng = _philox((seed, 0xC0))
    sums = np.empty(trials)
    for done in range(0, trials, _NOISE_CHUNK):
        n = min(_NOISE_CHUNK, trials - done)
        W = np.einsum("ntd,td->nt", probe.draw_noise(rng, (n, T)), dirs)
        sums[done:done + n] = W @ weights

    if tau_grid is None:
        S2 = 3.0 * sigma_R * math.sqrt(float(np.sum(weights ** 2)))
        tau_grid = np.linspace(0.5, 5.0, 10) * S2
    tau_grid = np.asarray(tau_grid, dtype=float)
    empirical = np.array([float(np.mean(sums > tau)) for tau in tau_grid])
    bound, S2, Sq = martingale_tail_bound(tau_grid, weights, sigma_R, q)
    stderr = np.sqrt(bound * (1.0 - bound) / trials)
    ok = bool(np.all(empirical <= bound + 3.0 * stderr + 1e-12))

    dual_p = np.sum(np.abs(probe.draw_noise(rng, (mgf_draws,))) ** p, axis=1)
    mgf_estimate = float(np.mean(np.exp(dual_p / probe.mgf_sigma ** p)))

    return ConcentrationReport(
        tau=tau_grid,
        empirical=empirical,
        bound=bound,
        stderr=stderr,
        ok=ok,
        mgf_estimate=mgf_estimate,
        sigma_R=sigma_R,
        meta={"S2": S2, "Sq": Sq, "T": T, "trials": trials, "noise": noise},
    )
