"""Norms, Bregman divergences, and the constant calculus behind the solvers.

The objectives handled by this package split into a weakly smooth part
(Hoelder gradient exponent ``kappa`` in (1, 2], constant ``L``) and a
uniformly convex part (degree ``q`` >= 2, modulus ``mu``), both measured in
the l_q norm. Everything downstream — step-size conditions, proximal steps,
run certificates — is driven by three derived constants:

    r = (q - kappa) / kappa         curvature mismatch (0 in the smooth case)
    M = (r/q)**r * L                smoothness constant after Young splitting
    p = q / (q - 1)                 dual exponent, in (1, 2]

with the convention 0**0 = 1 so that kappa == q gives M = L.

This module holds that calculus, the norm/divergence primitives, and the
numeric primitives that several modules share (a row-wise dot product and a
vectorised bisection). Vectors are plain 1-D numpy arrays; the Bregman map
also takes an ``(S, d)`` batch of C-contiguous rows and gives one value per
row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError

__all__ = [
    "GeometryParams",
    "derive_params",
    "lq_norm",
    "dual_exponent",
    "bregman_to",
    "power_uc_constant",
    "power_inv_r",
]


@dataclass(frozen=True)
class GeometryParams:
    """Problem constants plus the derived (r, M, p) triple.

    ``mu`` must be a genuine uniform-convexity modulus of the regularizer in
    use (see :func:`power_uc_constant`); ``sigma`` is the oracle noise level
    (p-th dual-norm moment scale). Radius bounds are not a field:
    ``diagnostics.concentration_check`` takes its own ``R``.
    """

    q: float
    kappa: float
    L: float
    mu: float
    sigma: float = 0.0
    r: float = 0.0
    M: float = 0.0
    p: float = 2.0


def derive_params(
    q: float,
    kappa: float,
    L: float,
    mu: float,
    sigma: float = 0.0,
) -> GeometryParams:
    """Validate the base constants and fill in r, M, p. Only the constants
    that a schedule, a bound or a certificate reads are kept."""
    if not q >= 2.0:
        raise ParameterError(f"q must be >= 2, got {q}")
    if not 1.0 < kappa <= 2.0:
        raise ParameterError(f"kappa must lie in (1, 2], got {kappa}")
    if kappa > q:
        raise ParameterError(f"kappa must not exceed q, got kappa={kappa} > q={q}")
    if L < 0.0:
        raise ParameterError(f"L must be nonnegative, got {L}")
    if not mu > 0.0:
        raise ParameterError(f"mu must be positive, got {mu}")
    if sigma < 0.0:
        raise ParameterError(f"sigma must be nonnegative, got {sigma}")
    r = (q - kappa) / kappa
    M = float(L) if r == 0.0 else (r / q) ** r * L
    p = dual_exponent(q)
    return GeometryParams(
        q=float(q), kappa=float(kappa), L=float(L), mu=float(mu),
        sigma=float(sigma), r=float(r), M=float(M), p=float(p),
    )


def lq_norm(x: np.ndarray, q: float) -> float:
    """l_q norm, q >= 1 (q = inf gives the max norm). Rescales to dodge overflow."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return 0.0
    if not np.all(np.isfinite(x)):
        raise ParameterError("lq_norm: input has non-finite entries")
    ax = np.abs(x)
    if np.isinf(q):
        return float(ax.max())
    if q < 1.0:
        raise ParameterError(f"lq_norm: q must be >= 1, got {q}")
    m = float(ax.max())
    if m == 0.0:
        return 0.0
    return m * float(np.sum((ax / m) ** q)) ** (1.0 / q)


def dual_exponent(q: float) -> float:
    """Exponent of the dual norm: q/(q-1), with q = 1 mapping to inf."""
    if q == 1.0:
        return np.inf
    if np.isinf(q):
        return 1.0
    return q / (q - 1.0)


def _row_dot(a: np.ndarray, b: np.ndarray):
    """``a @ b`` for 1-D vectors; for ``(S, d)`` arrays, the dot product of
    each row of ``a`` with the same row of ``b``.

    A stacked ``(1, d) @ (d, 1)`` matmul hands every row to the BLAS dot
    that a 1-D ``@`` calls, so row i keeps the bits of ``a[i] @ b[i]``.
    ``einsum``, and matmul on strided rows, sum in other orders and move
    the last bits, hence the contiguous copies (free for contiguous input).
    """
    if a.ndim == 1:
        return a @ b
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


# how many ulps _bisect walks from a guess before it falls back to the loop
_WALK_ULPS = 6
_TINY = np.finfo(float).tiny


def _bisect(go_up, lo: np.ndarray, hi: np.ndarray, max_steps: int,
            guess: np.ndarray | None = None) -> np.ndarray:
    """Vectorised bisection of the brackets [lo, hi]; returns their midpoints.

    ``go_up(mid)`` marks the rows whose root lies above ``mid``. Each step
    depends only on the bits of (lo, hi), so once a step leaves both
    unchanged every later step would too: the loop stops there, which gives
    the same bits as running all ``max_steps`` steps.

    A ``guess`` (an array shaped like ``lo``) skips the loop where it can
    prove the loop's result; the caller passes one only where ``go_up`` is
    monotone in floating point on [lo, hi]: true below some float, false
    from it on. See :func:`_walk_from_guess`; where that proof fails, the
    loop runs as without a guess.
    """
    if guess is not None:
        out = _walk_from_guess(go_up, lo, hi, max_steps, guess)
        if out is not None:
            return out
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        up = go_up(mid)
        new_lo = np.where(up, mid, lo)
        new_hi = np.where(up, hi, mid)
        if new_lo.tobytes() == lo.tobytes() and new_hi.tobytes() == hi.tobytes():
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def _walk_from_guess(go_up, lo, hi, max_steps, guess):
    """``_bisect``'s result for a monotone ``go_up``, found by walking one
    ulp at a time from ``guess``, or None where it cannot be certified.

    Each row walks until it holds adjacent floats l < h with ``go_up(l)``
    true and ``go_up(h)`` false. For a monotone ``go_up`` every bracket the
    loop visits then contains [l, h], and the loop's only fixed point is
    (l, h), so it returns 0.5*(l+h). That holds for a row if:

    - lo < l, h < hi, l and h are normal, and lo + lo and hi + hi are
      finite: then each midpoint the loop takes is the exact midpoint
      rounded, so a bracket with a float strictly inside loses at least one
      float a step;
    - the loop gets there within ``max_steps``: its width W_n obeys
      W_{n+1} <= (1/2 + 2^-53) W_n + 2^-53 max(|l|, |h|), so after
      ceil(log2((hi - lo)/(h - l))) + 1 steps the bracket is under 5(h - l)
      wide, holds at most 9 floats besides l and h, and loses one a step:
      (hi - lo)/(h - l) <= 2^(max_steps - 10), even as rounded, bounds the
      steps by max_steps.

    A row with lo == hi gives 0.5*(lo+hi), as the loop does. None (run the
    loop) if any row's walk is longer than ``_WALK_ULPS`` or fails a check.
    """
    same = lo == hi
    x = guess
    up = go_up(x)
    for _ in range(_WALK_ULPS):
        y = np.nextafter(x, np.where(up, np.inf, -np.inf))
        y_up = go_up(y)
        closed = (y_up != up) | same
        if closed.all():
            break
        x = np.where(closed, x, y)  # a row still walking has y_up == up
    else:
        return None
    l = np.where(up, x, y)
    h = np.where(up, y, x)
    with np.errstate(all="ignore"):
        ok = ((lo < l) & (h < hi) & (np.abs(l) >= _TINY) & (np.abs(h) >= _TINY)
              & np.isfinite(lo + lo) & np.isfinite(hi + hi)
              & ((hi - lo) / (h - l) <= 2.0 ** (max_steps - 10)))
        if not (ok | same).all():
            return None
        return np.where(same, 0.5 * (lo + hi), 0.5 * (l + h))


def bregman_to(omega, x: np.ndarray):
    """The map y -> omega(x) - omega(y) - <grad omega(y), x - y>, the
    Bregman divergence of ``omega`` between x and y, for a fixed x, with
    omega(x) evaluated once. ``omega`` is any object exposing
    ``value(x) -> float`` and ``grad(x) -> array`` (the regularizers in this
    package do).

    ``x`` and ``y`` may be ``(S, d)`` batches (omega's ``value`` then gives
    one value per row): row i of the result has the bits of the divergence
    between row i of ``x`` and row i of ``y``.
    """
    x = np.asarray(x, dtype=float)
    vx = omega.value(x)

    def divergence(y):
        y = np.asarray(y, dtype=float)
        out = vx - omega.value(y) - _row_dot(np.asarray(omega.grad(y)), x - y)
        return float(out) if np.ndim(out) == 0 else out

    return divergence


# the grid power_uc_constant scans for the minimum: the (start, stop, num) of
# two np.linspace parts, one on either side of the pole at a = 1
_UC_PARTS = ((-80.0, 0.9999, 400_001), (1.0001, 80.0, 40_001))
_UC_SIZE = sum(num for _, _, num in _UC_PARTS)
_UC_CHUNK = 1 << 15


def _uc_grid(k0: int, k1: int) -> np.ndarray:
    """Points ``k0 .. k1 - 1`` of the concatenation of ``np.linspace(*part)``
    over ``_UC_PARTS``, with its bits but without building it: np.linspace
    sets point k of a part to k * step + start, and its last point to stop."""
    pieces = []
    for start, stop, num in _UC_PARTS:
        lo, hi = max(k0, 0), min(k1, num)
        if lo < hi:
            piece = np.arange(lo, hi, dtype=float)
            piece *= (stop - start) / (num - 1)
            piece += start
            if hi == num:
                piece[-1] = stop
            pieces.append(piece)
        k0, k1 = k0 - num, k1 - num
    return np.concatenate(pieces)


@lru_cache(maxsize=None)
def power_uc_constant(q: float) -> float:
    """Exact modulus ratio of the scalar power t -> |t|^q, q >= 2.

    Returns the largest c such that

        |a|^q - |b|^q - q |b|^{q-1} sign(b) (a - b) >= c |a - b|^q

    for all scalars a, b. By coordinate separability the same c works for
    (mu/q)||x||_q^q in any dimension w.r.t. the l_q norm, so that function is
    (c * mu, q)-uniformly convex. c = 1 for q = 2 and decays for larger q
    (e.g. 1/3 at q = 4); folklore sometimes asserts c = 1 for all q, which
    fails already in one dimension, so solvers and certificates in this
    package always use the calibrated value.
    """
    q = float(q)
    if not q >= 2.0:
        raise ParameterError(f"power_uc_constant: q must be >= 2, got {q}")
    if q == 2.0:
        return 1.0

    def ratio(a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        return (np.abs(a) ** q - 1.0 - q * (a - 1.0)) / np.abs(a - 1.0) ** q

    # Scale invariance lets us pin b = 1; the infimum sits at some a < 1
    # (the ratio tends to 1 at +-inf and blows up near a = 1 for q > 2).
    # The first global minimum, as np.argmin over the whole grid finds it,
    # from one chunk of the grid at a time
    i, best_val = 0, np.inf
    for start in range(0, _UC_SIZE, _UC_CHUNK):
        vals = ratio(_uc_grid(start, start + _UC_CHUNK))
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            i, best_val = start + j, float(vals[j])
    # the grid points either side of it, or the point itself at an end
    bracket = _uc_grid(max(i - 1, 0), min(i + 2, _UC_SIZE))
    lo, hi = bracket[0], bracket[-1]

    # Golden-section refinement of the bracketed minimum.
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = float(ratio(c1)), float(ratio(c2))
    for _ in range(200):
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = float(ratio(c1))
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = float(ratio(c2))
        if b - a < 1e-13 * (1.0 + abs(a)):
            break
    best = min(best_val, f1, f2)
    return float(min(best, 1.0))


def power_inv_r(base, r: float):
    """base ** (1/r) with the smooth-case limit at r = 0.

    For r = 0 the analysis lets the Young gap go to zero, so the term is 0
    whenever base <= 1 (guaranteed by a valid step-size schedule) and +inf
    otherwise, flagging the violated precondition.
    """
    base = np.asarray(base, dtype=float)
    if r == 0.0:
        out = np.where(base <= 1.0 + 1e-12, 0.0, np.inf)
        return float(out) if out.ndim == 0 else out
    out = base ** (1.0 / r)
    return float(out) if out.ndim == 0 else out
