import numpy as np
import pytest

from ccmin import (
    NumericalError,
    ParameterError,
    PowerNormRegularizer,
    composite_prox,
)
from prox_reference import prox_bisection_oracle


def golden_min_1d(fn, lo, hi, iters=200):
    """Independent scalar minimizer used as a prox oracle in these tests."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = fn(c1), fn(c2)
    for _ in range(iters):
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = fn(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = fn(c2)
    return 0.5 * (a + b)


def test_evaluate_and_grad_examples():
    H = PowerNormRegularizer(mu=2.0, q=4.0)
    assert H.value(np.array([1.0, 1.0])) == pytest.approx(1.0)
    assert np.allclose(H.grad(np.array([1.0, 1.0])), [2.0, 2.0])
    assert H.value(np.zeros(2)) == 0.0
    assert np.all(H.grad(np.zeros(2)) == 0.0)
    H2 = PowerNormRegularizer(mu=1.0, q=2.0)
    assert H2.value(np.array([3.0, -4.0])) == pytest.approx(12.5)
    assert np.allclose(H2.grad(np.array([3.0, -4.0])), [3.0, -4.0])


def test_regularizer_validation():
    with pytest.raises(ParameterError):
        PowerNormRegularizer(mu=0.0, q=2.0)
    with pytest.raises(ParameterError):
        PowerNormRegularizer(mu=1.0, q=1.5)


def test_prox_scalar_example_against_golden_section():
    H = PowerNormRegularizer(mu=1.0, q=2.0)
    g, y, alpha, gamma = np.array([-1.0]), np.array([0.0]), 1.0, 1.0
    x = composite_prox(H, g, y, alpha, gamma)
    assert x[0] == pytest.approx(0.5, abs=1e-12)

    def objective(v):
        return alpha * (g[0] * v + H.value(np.array([v]))) + gamma * (
            H.value(np.array([v])) - H.value(y) - H.grad(y)[0] * (v - y[0])
        )

    assert golden_min_1d(objective, -3.0, 3.0) == pytest.approx(0.5, abs=1e-8)


def test_prox_quartic_example_against_bisection():
    H = PowerNormRegularizer(mu=2.0, q=4.0)
    x = composite_prox(H, np.array([0.0]), np.array([1.0]), 1.0, 1.0)
    assert x[0] == pytest.approx((2.0 / 4.0) ** (1.0 / 3.0), abs=1e-12)
    xb = prox_bisection_oracle(H, np.array([0.0]), np.array([1.0]), 1.0, 1.0)
    assert xb[0] == pytest.approx(x[0], abs=1e-10)


def test_prox_zero_gradient_shrinks_toward_y():
    # g = 0: x+_j = sign(y_j) (gamma/(alpha+gamma))^{1/(q-1)} |y_j|, tending
    # to y as alpha -> 0
    H = PowerNormRegularizer(mu=1.5, q=3.0)
    y = np.array([1.0, -2.0, 0.5])
    g = np.zeros(3)
    for alpha, gamma in [(1.0, 1.0), (0.5, 4.0), (1e-9, 1.0)]:
        x = composite_prox(H, g, y, alpha, gamma)
        expected = np.sign(y) * (gamma / (alpha + gamma)) ** (1.0 / (H.q - 1.0)) * np.abs(y)
        assert np.allclose(x, expected, atol=1e-12)
    x_limit = composite_prox(H, g, y, 1e-12, 1.0)
    assert np.allclose(x_limit, y, atol=1e-9)
    # the bisection oracle accepts alpha = 0 exactly
    assert np.allclose(prox_bisection_oracle(H, g, y, 0.0, 1.0), y, atol=1e-10)


@pytest.mark.parametrize("q", [2.0, 2.5, 3.0, 4.0])
def test_prox_matches_bisection_randomized(q):
    rng = np.random.default_rng(11)
    H_cache = {}
    for _ in range(60):
        d = int(rng.integers(1, 9))
        mu = float(rng.uniform(0.2, 4.0))
        H = H_cache.setdefault((mu, d), PowerNormRegularizer(mu=mu, q=q))
        g = rng.normal(0, 3, d)
        y = rng.normal(0, 3, d)
        alpha = float(rng.uniform(0.05, 5.0))
        gamma = float(rng.uniform(0.05, 5.0))
        x = composite_prox(H, g, y, alpha, gamma)
        xb = prox_bisection_oracle(H, g, y, alpha, gamma, tol=1e-12)
        assert np.max(np.abs(x - xb)) <= 1e-8


def test_prox_first_order_residual():
    rng = np.random.default_rng(12)
    for q in (2.0, 2.5, 3.0, 4.0):
        H = PowerNormRegularizer(mu=1.3, q=q)
        for _ in range(50):
            g = rng.normal(0, 2, 6)
            y = rng.normal(0, 2, 6)
            alpha = float(rng.uniform(0.1, 3.0))
            gamma = float(rng.uniform(0.1, 3.0))
            x = composite_prox(H, g, y, alpha, gamma)
            resid = alpha * g + (alpha + gamma) * H.grad(x) - gamma * H.grad(y)
            assert np.max(np.abs(resid)) <= 1e-8


def test_prox_three_point_inequality():
    # with f = alpha [<g,.> + H], nu = gamma H:
    #   f(u*) + D_nu(u*, y) + D_f(u, u*) <= f(u) + D_nu(u, y) - D_nu(u, u*)
    rng = np.random.default_rng(13)
    for q in (2.0, 3.0, 4.0):
        H = PowerNormRegularizer(mu=0.9, q=q)

        def breg(a, b):
            return H.value(a) - H.value(b) - float(H.grad(b) @ (a - b))

        for _ in range(333):
            g = rng.normal(0, 2, 4)
            y = rng.normal(0, 2, 4)
            u = rng.normal(0, 2, 4)
            alpha = float(rng.uniform(0.1, 3.0))
            gamma = float(rng.uniform(0.1, 3.0))
            ustar = composite_prox(H, g, y, alpha, gamma)

            def f(v):
                return alpha * (float(g @ v) + H.value(v))

            lhs = f(ustar) + gamma * breg(ustar, y) + (f(u) - f(ustar) - (
                alpha * float((g + H.grad(ustar)) @ (u - ustar))))
            rhs = f(u) + gamma * breg(u, y) - gamma * breg(u, ustar)
            assert lhs <= rhs + 1e-8


def test_prox_monotone_in_gradient_scale():
    rng = np.random.default_rng(14)
    H = PowerNormRegularizer(mu=1.0, q=3.0)
    for _ in range(50):
        g = rng.normal(0, 1, 5)
        y = rng.normal(0, 1, 5)
        x1 = composite_prox(H, g, y, 1.0, 2.0)
        x2 = composite_prox(H, 3.0 * g, y, 1.0, 2.0)
        move = x2 - x1
        # scaling the gradient up pushes each coordinate against sign(g)
        assert np.all(move * np.sign(g) <= 1e-12)


def test_prox_parameter_errors():
    H = PowerNormRegularizer(mu=1.0, q=2.0)
    with pytest.raises(ParameterError):
        composite_prox(H, np.zeros(1), np.zeros(1), 0.0, 1.0)
    with pytest.raises(ParameterError):
        composite_prox(H, np.zeros(1), np.zeros(1), 1.0, -1.0)
    with pytest.raises(ParameterError):
        prox_bisection_oracle(H, np.zeros(1), np.zeros(1), 1.0, 1.0, tol=0.0)


def test_prox_underflow_guard():
    H = PowerNormRegularizer(mu=1.0, q=4.0)
    x = composite_prox(H, np.array([1e-310]), np.zeros(1), 1.0, 1.0)
    assert x[0] == 0.0
    assert np.isfinite(x).all()
