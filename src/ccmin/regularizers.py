"""Power-norm regularizer H(x) = (mu/q) ||x||_q^q and its composite prox.

H doubles as the distance-generating function of the mirror-descent steps,
so the subproblem solved at every iteration is

    argmin_x  alpha * [<g, x> + H(x)] + gamma * D^H(x, y)

which is coordinate separable and has a closed form for any q >= 2:
per coordinate, with v_j = gamma * mu |y_j|^{q-1} sign(y_j) - alpha * g_j,

    x_j = sign(v_j) * (|v_j| / ((alpha + gamma) * mu)) ** (1/(q-1)).

``prox_bisection_oracle`` solves the same first-order condition by bracketed
bisection and exists purely to cross-check the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError

__all__ = ["PowerNormRegularizer", "composite_prox", "prox_bisection_oracle"]

_UNDERFLOW = 1e-300  # |v| below this maps to 0 before the 1/(q-1) root


@dataclass(frozen=True)
class PowerNormRegularizer:
    """H(x) = (mu/q) * sum_j |x_j|^q with mu > 0, q >= 2."""

    mu: float
    q: float
    dim: int

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ParameterError(f"mu must be positive, got {self.mu}")
        if not self.q >= 2.0:
            raise ParameterError(f"q must be >= 2, got {self.q}")
        if self.dim < 1:
            raise ParameterError(f"dim must be positive, got {self.dim}")

    def value(self, x: np.ndarray):
        """H(x); for an ``(S, d)`` batch, one value per row."""
        x = np.asarray(x, dtype=float)
        out = self.mu / self.q * np.sum(np.abs(x) ** self.q, axis=-1)
        return float(out) if out.ndim == 0 else out

    def grad(self, x: np.ndarray) -> np.ndarray:
        # sign(0) = 0 picks the minimal-norm subgradient at the kink-free origin
        x = np.asarray(x, dtype=float)
        return self.mu * np.abs(x) ** (self.q - 1.0) * np.sign(x)


def _positive(value) -> bool:
    """``value > 0`` for a scalar, or for every entry of an array (NaN is not)."""
    return bool((value > 0.0).all()) if isinstance(value, np.ndarray) else value > 0.0


def composite_prox(
    H: PowerNormRegularizer,
    g: np.ndarray,
    y: np.ndarray,
    alpha: float,
    gamma: float,
) -> np.ndarray:
    """Closed-form minimizer of alpha*[<g,x> + H(x)] + gamma*D^H(x,y).

    ``alpha`` and ``gamma`` may be scalars or arrays that broadcast against
    ``g`` (an ``(S, 1)`` column gives each row of an ``(S, d)`` batch its
    own); they meet the data only through elementwise ``+ - * /``, so a row
    gets the bits of the scalar call.
    """
    if not _positive(alpha):
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not _positive(gamma):
        raise ParameterError(f"gamma must be positive, got {gamma}")
    g = np.asarray(g, dtype=float)
    y = np.asarray(y, dtype=float)
    v = gamma * H.grad(y) - alpha * g
    scale = (alpha + gamma) * H.mu
    av = np.abs(v)
    mag = np.where(av < _UNDERFLOW, 0.0, (av / scale) ** (1.0 / (H.q - 1.0)))
    return np.sign(v) * mag


def prox_bisection_oracle(
    H: PowerNormRegularizer,
    g: np.ndarray,
    y: np.ndarray,
    alpha: float,
    gamma: float,
    tol: float = 1e-12,
) -> np.ndarray:
    """Independent prox solver: per-coordinate bisection on the optimality condition.

    The scalar condition (alpha + gamma) * mu |x|^{q-1} sign(x) = v_j is
    strictly monotone, so a geometrically widened bracket plus bisection
    converges unconditionally. Accepts alpha = 0 (pure divergence term),
    where the minimizer is y itself.
    """
    if alpha < 0.0:
        raise ParameterError(f"alpha must be nonnegative, got {alpha}")
    if not gamma > 0.0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    if not tol > 0.0:
        raise ParameterError(f"tol must be positive, got {tol}")
    g = np.asarray(g, dtype=float)
    y = np.asarray(y, dtype=float)
    v = gamma * H.grad(y) - alpha * g
    scale = (alpha + gamma) * H.mu
    qm1 = H.q - 1.0

    def resid(x: float, target: float) -> float:
        return scale * abs(x) ** qm1 * np.sign(x) - target

    out = np.empty_like(v)
    for j, target in enumerate(v):
        if target == 0.0:
            out[j] = 0.0
            continue
        lo, hi = (0.0, 1.0) if target > 0.0 else (-1.0, 0.0)
        width = 1.0
        expansions = 0
        while resid(hi if target > 0.0 else lo, target) * np.sign(target) < 0.0:
            width *= 2.0
            if target > 0.0:
                hi = width
            else:
                lo = -width
            expansions += 1
            if expansions > 200:
                raise NumericalError(
                    f"prox_bisection_oracle: bracket expansion failed at coordinate {j}"
                )
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if resid(mid, target) < 0.0:
                lo = mid
            else:
                hi = mid
        out[j] = 0.5 * (lo + hi)
    return out
