"""Reference prox for the tests: an independent per-coordinate bisection on
the first-order condition that ``ccmin.composite_prox`` solves in closed form.
"""

import numpy as np

from ccmin import NumericalError, ParameterError, PowerNormRegularizer


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
