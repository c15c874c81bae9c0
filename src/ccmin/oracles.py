"""Stochastic first-order oracles: unbiased gradient estimates with a bounded
p-th dual-norm noise moment.

Three families are provided:

* ``RidgeOracle`` — the synthetic random-design regression benchmark; draws a
  fresh (a, b) sample per call and also exposes the exact mean gradient for
  diagnostics.
* ``BernoulliOracle`` — a one-dimensional adversarial instance whose gradient
  is zero with probability 1 - s and uninformatively large otherwise; used by
  the failure-probability experiment.
* ``AdditiveNoiseOracle`` — a deterministic gradient map plus synthetic noise
  (gaussian / bounded sphere / pareto), calibrated so the declared level
  sigma bounds the p-th moment; the bounded-sphere variant also satisfies the
  exponential moment bound E exp(||noise||_*^p / sigma^p) <= 2 needed by the
  concentration diagnostics. Its ``draw_noise`` serves both the oracle's
  samples and the blocks of ``diagnostics.concentration_check``.

``OracleRows`` stacks S oracles, each with its own generator, into one
oracle of ``(S, d)`` batches whose row i gets the draws and the bits of
oracle i queried alone.

Oracles are immutable descriptions and keep no random stream of their own:
an oracle that draws noise takes its ``numpy.random.Generator`` from the
caller on every ``sample_gradient`` call (the solver's ``rng``, or the
per-row generators of ``OracleRows``) and raises ``ParameterError`` when
handed ``None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .geometry import _bisect, _row_dot, dual_exponent, lq_norm

__all__ = [
    "StochasticGradientOracle",
    "RidgeInstance",
    "RidgeOracle",
    "OracleRows",
    "BernoulliLowerBoundInstance",
    "BernoulliOracle",
    "bernoulli_oracle",
    "solve_bernoulli_activation",
    "AdditiveNoiseOracle",
    "absolute_gaussian_moment",
]


def _philox(seed) -> np.random.Generator:
    """A Philox generator seeded by ``seed``, an int or a tuple of ints."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _ridge_mean_gradient(x, x_star):
    """(2/3)(x - x_star), the mean gradient of the ridge loss, for one point
    or row-wise for ``(S, d)`` blocks of points and minimizers."""
    return 2.0 / 3.0 * (x - x_star)


class StochasticGradientOracle:
    """Base interface: unbiased gradient samples.

    Attributes
    ----------
    mean_gradient : callable or None
        Exact expected gradient, when the instance can reveal it.
    """

    mean_gradient = None

    def sample_gradient(self, x: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        raise NotImplementedError


def _need_rng(oracle, rng) -> np.random.Generator:
    """``rng``, or a ``ParameterError`` naming the oracle's class if it is None."""
    if rng is None:
        raise ParameterError(
            f"{type(oracle).__name__} draws noise and needs a Generator, got rng=None")
    return rng


@dataclass(frozen=True)
class RidgeInstance:
    """Random-design regression: a ~ U[-1,1]^d i.i.d., b = <a, x_star> + xi.

    xi ~ N(0, sigma_b^2); the population loss is E (<a,x> - b)^2 =
    (1/3)||x - x_star||_2^2 + sigma_b^2 with mean gradient (2/3)(x - x_star).
    The regularized objective adds (mu/q)||x||_q^q. The dimension d is the
    length of ``x_star``.
    """

    x_star: np.ndarray
    sigma_b: float
    mu: float
    q: float
    R: float | None = None  # iterate radius bound; None means "estimate as 2||x_star||_q"
    dimension: int = field(init=False)

    def __post_init__(self):
        xs = np.asarray(self.x_star, dtype=float)
        if xs.ndim != 1 or xs.size == 0:
            raise ParameterError(f"x_star must be a non-empty 1-D array, got shape {xs.shape}")
        object.__setattr__(self, "x_star", xs)
        object.__setattr__(self, "dimension", xs.size)
        if self.sigma_b < 0.0:
            raise ParameterError(f"sigma_b must be nonnegative, got {self.sigma_b}")
        if self.mu < 0.0:
            raise ParameterError(f"mu must be nonnegative, got {self.mu}")
        if self.q < 2.0:
            raise ParameterError(f"q must be >= 2, got {self.q}")
        if self.R is not None and not self.R > 0.0:
            raise ParameterError(f"R must be positive, got {self.R}")

    @property
    def L(self) -> float:
        """Smoothness of the loss w.r.t. the l_q norm: (2/3) d^(1 - 2/q)."""
        return 2.0 / 3.0 * self.dimension ** (1.0 - 2.0 / self.q)

    @property
    def mu_F(self) -> float:
        """Euclidean strong convexity of the loss alone."""
        return 2.0 / 3.0

    @property
    def radius_estimate(self) -> float:
        return self.R if self.R is not None else 2.0 * lq_norm(self.x_star, self.q)

    @property
    def declared_sigma(self) -> float:
        """Conventional noise-level surrogate d^(2/p) sigma_b^2 + 2 d^2 R^2.

        Recorded for reporting and step-budget purposes only; it is a crude
        overestimate and nothing recomputes it from data.
        """
        p = dual_exponent(self.q)
        R = self.radius_estimate
        return self.dimension ** (2.0 / p) * self.sigma_b ** 2 + 2.0 * self.dimension ** 2 * R ** 2


class RidgeOracle(StochasticGradientOracle):
    """One fresh (a, b) draw per gradient call."""

    def __init__(self, instance: RidgeInstance):
        self.instance = instance

    def sample_gradient(self, x, rng=None):
        inst = self.instance
        a, xi = _draw_ridge([_need_rng(self, rng)], inst.dimension, inst.sigma_b > 0.0)
        return _ridge_gradients(a[0], np.asarray(x, dtype=float), inst, xi[0])

    def mean_gradient(self, x):
        return _ridge_mean_gradient(np.asarray(x, dtype=float), self.instance.x_star)


def _draw_ridge(rngs, d, noisy):
    """One sample per generator of ``rngs``: its design row a ~ U[-1, 1]^d
    and then, if the labels are noisy, its standard normal label noise,
    as an ``(S, d)`` block and an ``(S,)`` vector (zeros when not noisy).
    A row is filled with doubles u by ``random`` and mapped to 2u - 1 over
    the block: ``uniform(-1, 1)`` computes -1 + 2u from the same u, and 2u
    is exact, so the row has its bits and the stream moves as it would."""
    a = np.empty((len(rngs), d))
    xi = np.zeros(len(rngs))
    for i, rng in enumerate(rngs):
        rng.random(out=a[i])
        if noisy:
            xi[i] = rng.standard_normal()
    a *= 2.0
    a -= 1.0
    return a, xi


def _ridge_gradients(a, x, instance, xi, x_star=None):
    """2 (<a, x> - b) a with b = <a, x_star> + sigma_b xi, for one sample or
    row-wise for ``(S, d)`` blocks (``x_star`` then holds each row's own)."""
    b = _row_dot(a, instance.x_star if x_star is None else x_star)
    if instance.sigma_b > 0.0:
        b = b + instance.sigma_b * xi
    return (2.0 * (_row_dot(a, x) - b))[..., None] * a


class OracleRows(StochasticGradientOracle):
    """S oracles as the rows of one ``(S, d)`` batch.

    Row i is sampled from ``oracles[i]`` with its own generator ``rngs[i]``,
    so it gets the draws, and the bits, of that oracle queried alone; the
    ``rng`` argument of ``sample_gradient`` is ignored. Ridge oracles of
    one noise level draw each row's a_t and label noise in row order and
    then form every gradient at once through row-wise dot products; other
    oracles are queried row by row. ``take(keep)`` is the oracle of the
    rows ``keep`` only, which is how a row leaves a batch run early.
    """

    def __init__(self, oracles, rngs):
        self.oracles = list(oracles)
        self.rngs = list(rngs)
        if not self.oracles or len(self.rngs) != len(self.oracles) or None in self.rngs:
            raise ParameterError("OracleRows needs one generator per oracle, and at least one")
        ridge = all(type(o) is RidgeOracle for o in self.oracles) and len(
            {o.instance.sigma_b for o in self.oracles}) == 1
        self._x_star = np.stack([o.instance.x_star for o in self.oracles]) if ridge else None
        if any(o.mean_gradient is None for o in self.oracles):
            self.mean_gradient = None

    def take(self, keep) -> "OracleRows":
        return OracleRows([self.oracles[i] for i in keep], [self.rngs[i] for i in keep])

    def sample_gradient(self, x, rng=None):
        x = np.asarray(x, dtype=float)
        if self._x_star is None:
            return np.stack([o.sample_gradient(row, r)
                             for o, row, r in zip(self.oracles, x, self.rngs)])
        inst = self.oracles[0].instance
        a, xi = _draw_ridge(self.rngs, inst.dimension, inst.sigma_b > 0.0)
        return _ridge_gradients(a, x, inst, xi, x_star=self._x_star)

    def mean_gradient(self, x):
        x = np.asarray(x, dtype=float)
        if self._x_star is None:
            return np.stack([o.mean_gradient(row) for o, row in zip(self.oracles, x)])
        return _ridge_mean_gradient(x, self._x_star)


def _sigma_power(sigma: float, p: float) -> float:
    """sigma^p, or a ``ParameterError`` naming sigma where it overflows or
    underflows: the hidden-sign construction divides by it."""
    try:
        out = sigma ** p
    except OverflowError:
        out = math.inf
    if not 0.0 < out < math.inf:
        raise ParameterError(
            f"sigma={sigma!r} gives sigma^p = {out} at p={p}, not a finite positive number")
    return out


def solve_bernoulli_activation(mu: float, q: float, sigma: float, epsilon: float) -> float:
    """Activation probability s in (0, 1) solving

        s^(p-1) / (1-s)^p = 2 p mu^(p-1) epsilon / sigma^p.

    This is the equality form of the requirement that the oracle's p-th
    centered moment stays below sigma^p (given C = mu^(1/q) (eps*p)^(1/p),
    the right side equals 2 (C/sigma)^p). The left side increases
    monotonically from 0 to +inf, so the root is unique; bisection to machine
    width, stopping once the bracket no longer changes, within 200 steps.
    A sigma^p or a right side that is not a finite positive number is a
    ``ParameterError`` naming sigma.
    """
    p = dual_exponent(q)
    rhs = 2.0 * p * mu ** (p - 1.0) * epsilon / _sigma_power(sigma, p)
    if not 0.0 < rhs < math.inf:
        raise ParameterError(
            f"sigma={sigma!r}, mu={mu!r} and epsilon={epsilon!r} give the activation equation "
            f"the right side {rhs}, not a finite positive number")

    def go_up(mid):
        # Python's float **, as this root was always solved: numpy's ** can
        # differ in the last bit, and s sizes every lower-bound trial
        s = float(mid)
        return s ** (p - 1.0) / (1.0 - s) ** p < rhs

    return float(_bisect(go_up, np.float64(1e-300), np.float64(1.0 - 1e-16), 200))


@dataclass(frozen=True)
class BernoulliLowerBoundInstance:
    """Hidden-sign linear-plus-power objective nu*C*x + (mu/q)|x|^q on the line.

    The gradient oracle reveals nothing (returns 0) with probability 1 - s
    per draw; C and s are sized so the noise satisfies the p-th moment bound
    at level sigma while the two signs' epsilon-level sets stay disjoint.
    """

    nu: int
    s: float
    C: float
    mu: float
    q: float

    @property
    def x_opt(self) -> float:
        return -self.nu * (self.C / self.mu) ** (1.0 / (self.q - 1.0))

    def psi(self, x: float) -> float:
        return self.nu * self.C * float(x) + self.mu / self.q * abs(float(x)) ** self.q

    @property
    def psi_star(self) -> float:
        return self.psi(self.x_opt)

    @property
    def gap_at_origin(self) -> float:
        p = dual_exponent(self.q)
        return (self.C ** self.q / self.mu) ** (1.0 / (self.q - 1.0)) / p


class BernoulliOracle(StochasticGradientOracle):
    def __init__(self, instance: BernoulliLowerBoundInstance):
        self.instance = instance

    def sample_gradient(self, x, rng=None):
        return self.gradients(_need_rng(self, rng).random(1))

    def gradients(self, u) -> np.ndarray:
        """The gradients drawn by uniforms ``u`` (any shape): nu C / s where
        u < s, else 0. The oracle ignores the query point, so a block of
        uniforms fixes a whole run's gradients in advance."""
        inst = self.instance
        return (inst.nu * np.where(u < inst.s, 1.0 / inst.s, 0.0)) * inst.C

    def mean_gradient(self, x):
        return np.array([self.instance.nu * self.instance.C])


def bernoulli_oracle(
    mu: float,
    q: float,
    sigma: float,
    epsilon: float,
    nu: int,
) -> tuple[BernoulliOracle, BernoulliLowerBoundInstance]:
    """Construct the adversarial oracle together with its hidden-sign handle.

    Only the returned instance reveals nu; the experiment harness uses it for
    post-hoc scoring while the solver sees just the oracle. Requires
    epsilon <= sigma^p / (2 p mu^(p-1)); larger targets are rejected because
    the construction cannot bound the noise moment there, and a sigma whose
    sigma^p is not a finite positive number.
    """
    if nu not in (-1, 1):
        raise ParameterError(f"nu must be -1 or +1, got {nu}")
    if not (mu > 0.0 and sigma > 0.0 and epsilon > 0.0):
        raise ParameterError("mu, sigma, epsilon must all be positive")
    p = dual_exponent(q)
    ceiling = _sigma_power(sigma, p) / (2.0 * p * mu ** (p - 1.0))
    if epsilon > ceiling:
        raise ParameterError(
            f"epsilon={epsilon} exceeds sigma^p/(2 p mu^(p-1)) = {ceiling:.6g}; "
            "the adversarial construction requires epsilon below that level"
        )
    C = mu ** (1.0 / q) * (epsilon * p) ** (1.0 / p)
    s = solve_bernoulli_activation(mu, q, sigma, epsilon)
    instance = BernoulliLowerBoundInstance(nu=int(nu), s=s, C=C, mu=float(mu), q=float(q))
    return BernoulliOracle(instance), instance


def absolute_gaussian_moment(p: float) -> float:
    """E |N(0,1)|^p = 2^(p/2) Gamma((p+1)/2) / sqrt(pi)."""
    return 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


_NOISE_KINDS = ("gaussian", "bounded_sphere", "pareto")


class AdditiveNoiseOracle(StochasticGradientOracle):
    """Exact gradient map plus i.i.d. synthetic noise at declared level sigma.

    The noise is calibrated so E ||noise||_p^p <= sigma^p with p the dual
    exponent of the ambient l_q norm:

    * gaussian — i.i.d. N(0, s^2) coordinates with s solving d s^p m_p = sigma^p;
    * bounded_sphere — a vector of constant dual norm sigma * (ln 2)^(1/p),
      making exp(||noise||_p^p / sigma^p) identically 2 (the exponential
      moment bound holds with equality);
    * pareto — heavy-tailed magnitude with tail index ``tail`` > p, scaled to
      meet the moment bound; has no exponential moment.

    ``mgf_sigma`` is the smallest level at which the exponential moment bound
    E exp(||noise||_p^p / level^p) <= 2 provably holds (None when it cannot).
    ``draw_noise`` samples the noise alone, in blocks of any shape.
    """

    def __init__(self, grad_fn, dimension: int, kind: str = "gaussian", sigma: float = 0.0,
                 q: float = 2.0, tail: float = 4.0):
        if kind not in _NOISE_KINDS:
            raise ParameterError(f"unknown noise kind {kind!r}; expected one of {_NOISE_KINDS}")
        if sigma < 0.0:
            raise ParameterError(f"sigma must be nonnegative, got {sigma}")
        p = dual_exponent(q)
        if kind == "pareto" and tail <= p:
            raise ParameterError(f"pareto tail index must exceed p={p}, got {tail}")
        self._grad_fn = grad_fn
        self.dimension = int(dimension)
        self.kind = kind
        self.noise_level = float(sigma)
        self.noise_moment_exponent = p
        self.tail = float(tail)
        # gaussian: the coordinate scale; bounded sphere: the l_p norm; pareto:
        # x_m of the magnitude x_m U^(-1/tail), whose E mag^p = x_m^p tail/(tail-p)
        if kind == "gaussian":
            self._scale = sigma / (dimension * absolute_gaussian_moment(p)) ** (1.0 / p)
        elif kind == "bounded_sphere":
            self._scale = sigma * math.log(2.0) ** (1.0 / p)
        else:
            self._scale = sigma * ((self.tail - p) / self.tail) ** (1.0 / p)
        if sigma == 0.0:
            self.mgf_sigma = 0.0
        elif kind == "bounded_sphere":
            self.mgf_sigma = float(sigma)
        elif kind == "gaussian" and p == 2.0:
            self.mgf_sigma = float(self._scale * math.sqrt(2.0 / (1.0 - 2.0 ** (-2.0 / dimension))))
        else:
            self.mgf_sigma = None

    def sample_gradient(self, x, rng=None):
        g = np.asarray(self._grad_fn(x), dtype=float)
        if self.noise_level == 0.0:
            return g
        return g + self.draw_noise(_need_rng(self, rng))

    def draw_noise(self, rng: np.random.Generator, shape=()) -> np.ndarray:
        """Noise vectors of shape ``shape + (dimension,)``, drawn from ``rng``.

        A sphere direction is normalized by its own l_p norm; pareto draws its
        uniforms after all the normals.
        """
        size = tuple(shape) + (self.dimension,)
        if self.kind == "gaussian":
            return self._scale * rng.standard_normal(size)
        p = self.noise_moment_exponent
        u = rng.standard_normal(size)
        norms = np.sum(np.abs(u) ** p, axis=-1, keepdims=True) ** (1.0 / p)
        scale = self._scale
        if self.kind == "pareto":
            scale = scale * rng.random(tuple(shape) + (1,)) ** (-1.0 / self.tail)
        return scale * u / norms

    def mean_gradient(self, x):
        return np.asarray(self._grad_fn(x), dtype=float)
