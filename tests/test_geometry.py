import tracemalloc

import numpy as np
import pytest

from ccmin import (
    ParameterError,
    PowerNormRegularizer,
    bregman_to,
    derive_params,
    dual_exponent,
    geometry,
    lq_norm,
    power_inv_r,
    power_uc_constant,
)


@pytest.mark.parametrize(
    "q,kappa,L,mu,r,M,p",
    [
        (2.0, 2.0, 1.0, 1.0, 0.0, 1.0, 2.0),
        (4.0, 2.0, 1.0, 1.0, 1.0, 0.25, 4.0 / 3.0),
        (3.0, 1.5, 2.0, 0.5, 1.0, 2.0 / 3.0, 1.5),
    ],
)
def test_derive_params_examples(q, kappa, L, mu, r, M, p):
    out = derive_params(q, kappa, L, mu)
    assert out.r == pytest.approx(r)
    assert out.M == pytest.approx(M)
    assert out.p == pytest.approx(p)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(q=1.5, kappa=1.5, L=1.0, mu=1.0), "q"),
        (dict(q=2.0, kappa=1.0, L=1.0, mu=1.0), "kappa"),
        (dict(q=2.0, kappa=2.5, L=1.0, mu=1.0), "kappa"),
        (dict(q=2.0, kappa=2.0, L=-1.0, mu=1.0), "L"),
        (dict(q=2.0, kappa=2.0, L=1.0, mu=0.0), "mu"),
        (dict(q=3.0, kappa=3.1, L=1.0, mu=1.0), "kappa"),
    ],
)
def test_derive_params_rejects_and_names_field(kwargs, field):
    with pytest.raises(ParameterError, match=field):
        derive_params(**kwargs)


def test_derived_invariants_over_grid():
    rng = np.random.default_rng(0)
    for _ in range(200):
        q = float(rng.uniform(2.0, 6.0))
        kappa = float(rng.uniform(1.01, min(2.0, q)))
        params = derive_params(q, kappa, float(rng.uniform(0, 5)), float(rng.uniform(0.1, 5)))
        assert params.M * params.q >= 0.0
        assert (params.r == 0.0) == (params.kappa == params.q)
        assert 1.0 < params.p <= 2.0
    assert derive_params(2.0, 2.0, 2.5, 1.0).M == 2.5  # 0**0 = 1 convention


def test_lq_norm_examples():
    assert lq_norm(np.array([3.0, 4.0]), 2.0) == pytest.approx(5.0)
    assert lq_norm(np.ones(4), 4.0) == pytest.approx(4.0 ** 0.25)
    assert lq_norm(np.array([1.0, 0.0]), dual_exponent(4.0)) == pytest.approx(1.0)
    assert lq_norm(np.array([-2.0, 1.0]), np.inf) == pytest.approx(2.0)
    with pytest.raises(ParameterError):
        lq_norm(np.array([0.5]), 0.5)
    with pytest.raises(ParameterError):
        lq_norm(np.array([np.nan]), 2.0)


def test_bregman_quadratic_and_identity():
    H = PowerNormRegularizer(mu=1.0, q=2.0)
    assert bregman_to(H, np.array([1.0, 0.0]))(np.zeros(2)) == pytest.approx(0.5)
    x = np.array([0.3, -1.2])
    assert bregman_to(H, x)(x) == pytest.approx(0.0)


def test_bregman_power_example_against_finite_differences():
    # omega = (2/4)|x|^4, x = 1, y = -1: direct value is 4; cross-check the
    # gradient entering the divergence by central differences
    H = PowerNormRegularizer(mu=2.0, q=4.0)
    x, y = np.array([1.0]), np.array([-1.0])
    assert bregman_to(H, x)(y) == pytest.approx(4.0)
    h = 1e-6
    fd_grad = (H.value(y + h) - H.value(y - h)) / (2 * h)
    fd_breg = H.value(x) - H.value(y) - fd_grad * (x - y)[0]
    assert fd_breg == pytest.approx(4.0, rel=1e-6)


def reference_bregman(omega, x, y):
    """The Bregman divergence with omega(x) evaluated per call."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(omega.value(x) - omega.value(y) - np.dot(np.asarray(omega.grad(y)), x - y))


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0, 20.0])
@pytest.mark.parametrize("d", [1, 7, 200])
def test_bregman_to_keeps_the_bits(q, d):
    rng = np.random.default_rng(int(q) * 1000 + d)
    H = PowerNormRegularizer(mu=1.7, q=q)
    for scale in (1e-3, 1.0, 3.0):
        x = scale * rng.standard_normal(d)
        to_x = bregman_to(H, x)
        for _ in range(20):
            y = scale * rng.standard_normal(d)
            want = np.float64(reference_bregman(H, x, y)).tobytes()
            assert np.float64(to_x(y)).tobytes() == want
            assert np.float64(bregman_to(H, x)(y)).tobytes() == want


def test_bregman_to_evaluates_omega_x_once():
    class Counting(PowerNormRegularizer):
        def value(self, x):
            calls.append(np.array(x))
            return super().value(x)

    calls = []
    H = Counting(mu=1.0, q=3.0)
    to_x = bregman_to(H, np.array([0.5, -1.0]))
    for y in np.linspace(-1.0, 1.0, 6):
        to_x(np.array([y, 2 * y]))
    assert len(calls) == 1 + 6


def test_gradient_matches_finite_differences():
    # coordinate separability lets the central difference run on the scalar
    # slice, which avoids cancellation against the other coordinates' value
    rng = np.random.default_rng(3)
    for q in (2.0, 2.5, 3.0, 4.0):
        H = PowerNormRegularizer(mu=1.7, q=q)
        H1 = PowerNormRegularizer(mu=1.7, q=q)
        for _ in range(25):
            x = rng.normal(0.0, 2.0, 5)
            g = H.grad(x)
            for j in range(5):
                h = 1e-6 * max(1.0, abs(x[j]))
                fd = (H1.value(np.array([x[j] + h])) - H1.value(np.array([x[j] - h]))) / (2 * h)
                assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_quadratic_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    x_star = rng.normal(0, 1, 5)
    f = lambda x: float(np.sum((x - x_star) ** 2)) / 3.0  # noqa: E731
    g = lambda x: 2.0 / 3.0 * (x - x_star)  # noqa: E731
    for _ in range(100):
        x = rng.normal(0.0, 2.0, 5)
        grad = g(x)
        for j in range(5):
            e = np.zeros(5)
            e[j] = 1e-6
            fd = (f(x + e) - f(x - e)) / 2e-6
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("q,bits", [
    (2.5, "0x1.8939be04e001ap-1"),
    (3.0, "0x1.2bec333018867p-1"),
    (3.5, "0x1.c6086fea1c864p-2"),
    (4.0, "0x1.5555555555555p-2"),
    (6.0, "0x1.9ee41a9562a5ap-4"),
])
def test_power_uc_constant_keeps_its_bits(q, bits):
    # the values of the whole-grid search; the grid is now scanned in chunks
    power_uc_constant.cache_clear()
    assert power_uc_constant(q).hex() == bits


def whole_grid_power_uc_constant(q):
    """power_uc_constant as it was while it built its whole grid: the two
    np.linspace parts and their concatenation, scanned in chunks of 2^15."""
    q = float(q)

    def ratio(a):
        a = np.asarray(a, dtype=float)
        return (np.abs(a) ** q - 1.0 - q * (a - 1.0)) / np.abs(a - 1.0) ** q

    grid = np.concatenate(
        [np.linspace(-80.0, 0.9999, 400_001), np.linspace(1.0001, 80.0, 40_001)]
    )
    i, best_val = 0, np.inf
    for start in range(0, grid.size, 1 << 15):
        vals = ratio(grid[start:start + (1 << 15)])
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            i, best_val = start + j, float(vals[j])
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
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


def test_the_grid_chunks_have_the_linspace_bits():
    whole = np.concatenate(
        [np.linspace(-80.0, 0.9999, 400_001), np.linspace(1.0001, 80.0, 40_001)]
    )
    assert geometry._UC_SIZE == whole.size
    chunks = [geometry._uc_grid(k, k + geometry._UC_CHUNK)
              for k in range(0, whole.size, geometry._UC_CHUNK)]
    assert np.concatenate(chunks).tobytes() == whole.tobytes()
    # the brackets around a minimum, at both ends and across the parts
    for k in (0, 1, 400_000, 400_001, whole.size - 1):
        lo, hi = max(k - 1, 0), min(k + 2, whole.size)
        assert geometry._uc_grid(lo, hi).tobytes() == whole[lo:hi].tobytes()


@pytest.mark.parametrize("q", [2.5, 3.0, 4.0, 7.3, 20.0])
def test_power_uc_constant_equals_the_whole_grid_search(q):
    power_uc_constant.cache_clear()
    assert power_uc_constant(q).hex() == whole_grid_power_uc_constant(q).hex()


def test_power_uc_constant_holds_one_chunk_of_its_grid():
    # the whole grid and its two parts took about 7 MB
    power_uc_constant.cache_clear()
    tracemalloc.start()
    try:
        power_uc_constant(3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak


def test_power_uc_constant_values():
    assert power_uc_constant(2.0) == 1.0
    # q = 4: minimizer of the scalar ratio sits at a = -2b with value 1/3
    assert power_uc_constant(4.0) == pytest.approx(1.0 / 3.0, abs=1e-10)
    # q = 3: exact constant 2 - sqrt(2)
    assert power_uc_constant(3.0) == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-9)
    # independent oracle: dense 1-D scan of the defining ratio
    for q in (2.5, 4.0):
        c = power_uc_constant(q)
        a = np.linspace(-30.0, 30.0, 200_001)
        a = a[np.abs(a - 1.0) > 1e-6]
        ratios = (np.abs(a) ** q - 1.0 - q * (a - 1.0)) / np.abs(a - 1.0) ** q
        assert ratios.min() >= c - 1e-6
        assert ratios.min() <= c + 1e-3


def test_unit_modulus_claim_fails_for_q4():
    # the often-quoted constant 1 is refuted by a = -1, b = 1 in one dimension
    q = 4.0
    lhs = (abs(-1.0) ** q - 1.0 - q * (-2.0))
    assert lhs < (1.0 / q) * 2.0 ** q * q  # ratio 2 < 4
    assert lhs / 2.0 ** q < 1.0


def curvature_ratios(f, grad, dim, norm_q, power, samples, seed):
    """[f(x) - f(y) - <grad f(y), x - y>] / (||x - y||_norm_q^power / power)
    on random pairs (x, y): a sampled check of a curvature inequality."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        x, y = rng.normal(0.0, 2.0, dim), rng.normal(0.0, 2.0, dim)
        gap = f(x) - f(y) - np.dot(grad(y), x - y)
        out.append(gap / (lq_norm(x - y, norm_q) ** power / power))
    return np.array(out)


def test_check_uniform_convexity_quartic_1d():
    # power_uc_constant(4) is a modulus of |x|^4 on every sampled pair
    H = PowerNormRegularizer(mu=1.0, q=4.0)
    ratios = curvature_ratios(H.value, H.grad, 1, 4.0, 4.0, samples=2000, seed=2)
    assert power_uc_constant(4.0) - 1e-9 <= ratios.min() <= 1.0 + 1e-9
    assert ratios.min() >= 1.0 / 3.0 - 1e-9


def test_check_weak_smoothness_lq_dimension_factor():
    # the ridge loss's L in the l_q norm carries the factor d^(1 - 2/q)
    d, q = 16, 4.0
    f = lambda x: float(np.sum(x ** 2)) / 3.0  # noqa: E731
    g = lambda x: 2.0 / 3.0 * x  # noqa: E731
    bound = 2.0 / 3.0 * d ** (1.0 - 2.0 / q)
    assert curvature_ratios(f, g, d, q, 2.0, samples=800, seed=6).max() <= bound + 1e-9


def test_young_gap_dominance_sweep():
    # brute-force oracle: sample (distance, delta) pairs and check
    # (L/kappa) dist^kappa <= (M/(q delta^r)) dist^q + L delta
    params = derive_params(3.0, 1.5, 1.3, 0.7)
    rng = np.random.default_rng(7)
    dist = rng.uniform(0.0, 5.0, 10_000)
    delta = rng.uniform(1e-3, 5.0, 10_000)
    lhs = params.L / params.kappa * dist ** params.kappa
    rhs = params.M / (params.q * delta ** params.r) * dist ** params.q + params.L * delta
    assert np.all(lhs <= rhs + 1e-12)


def test_bregman_nonnegative_for_convex_omega():
    rng = np.random.default_rng(8)
    for q in (2.0, 3.0, 4.0):
        H = PowerNormRegularizer(mu=0.8, q=q)
        for _ in range(100):
            x, y = rng.normal(0, 2, 4), rng.normal(0, 2, 4)
            assert bregman_to(H, x)(y) >= -1e-12


def test_uniform_convexity_lower_bound_dense_grid_1d():
    # D(x, y) >= (mu c_q / q) |x - y|^q on a dense 1-D grid, with the
    # empirically calibrated constant (the nominal mu alone fails for q > 2)
    q, mu = 4.0, 2.0
    H = PowerNormRegularizer(mu=mu, q=q)
    c = power_uc_constant(q)
    grid = np.linspace(-3.0, 3.0, 201)
    for xv in grid:
        x = np.array([xv])
        ds = np.abs(grid - xv)
        keep = ds > 1e-9
        breg = np.array([bregman_to(H, x)(np.array([yv])) for yv in grid[keep]])
        assert np.all(breg >= mu * c / q * ds[keep] ** q - 1e-10)


def test_power_inv_r_conventions():
    assert power_inv_r(0.5, 0.0) == 0.0
    assert power_inv_r(1.0, 0.0) == 0.0
    assert np.isinf(power_inv_r(1.5, 0.0))
    assert power_inv_r(0.25, 0.5) == pytest.approx(0.0625)
    out = power_inv_r(np.array([0.3, 0.9]), 0.0)
    assert np.all(out == 0.0)
