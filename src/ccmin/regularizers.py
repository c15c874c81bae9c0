"""Power-norm regularizer H(x) = (mu/q) ||x||_q^q and its composite prox.

H doubles as the distance-generating function of the mirror-descent steps,
so the subproblem solved at every iteration is

    argmin_x  alpha * [<g, x> + H(x)] + gamma * D^H(x, y)

which is coordinate separable and has a closed form for any q >= 2:
per coordinate, with v_j = gamma * mu |y_j|^{q-1} sign(y_j) - alpha * g_j,

    x_j = sign(v_j) * (|v_j| / ((alpha + gamma) * mu)) ** (1/(q-1)).

The tests cross-check it against an independent bracketed bisection on the
same first-order condition (``tests/prox_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["PowerNormRegularizer", "composite_prox"]

_UNDERFLOW = 1e-300  # |v| below this maps to 0 before the 1/(q-1) root


@dataclass(frozen=True)
class PowerNormRegularizer:
    """H(x) = (mu/q) * sum_j |x_j|^q with mu > 0, q >= 2."""

    mu: float
    q: float

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ParameterError(f"mu must be positive, got {self.mu}")
        if not self.q >= 2.0:
            raise ParameterError(f"q must be >= 2, got {self.q}")

    def value(self, x: np.ndarray):
        """H(x); for an ``(S, d)`` batch, one value per row."""
        x = np.asarray(x, dtype=float)
        out = self.mu / self.q * np.add.reduce(np.abs(x) ** self.q, axis=-1)
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
