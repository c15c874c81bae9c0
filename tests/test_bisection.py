"""The bisections behind ``acsa_baseline``'s inner step, ``exact_optimum``
and ``solve_bernoulli_activation`` stop once their bracket stops changing,
and at q = 2 or 3 the first two start from a closed-form root and certify
the bisection's result a few ulps from it. These tests hold them to the
bits of the fixed-count loops they replaced, which are copied here as the
reference.
"""

import numpy as np
import pytest

from ccmin import NumericalError, RidgeInstance, diagnostics, exact_optimum, geometry, solvers
from ccmin.oracles import solve_bernoulli_activation
from ccmin.solvers import _bisect, _solve_power_linear


def reference_power_linear(a, b, c, q):
    c = np.asarray(c, dtype=float)
    if a == 0.0 or q == 2.0:
        return c / (a + b) if q == 2.0 else c / b
    lo = np.minimum(0.0, c / b)
    hi = np.maximum(0.0, c / b)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        val = a * np.abs(mid) ** (q - 1.0) * np.sign(mid) + b * mid
        go_up = val < c
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
    return 0.5 * (lo + hi)


def reference_exact_optimum(instance, residual_tol=1e-10):
    xs = instance.x_star
    if instance.mu == 0.0:
        return xs.copy(), instance.sigma_b ** 2
    mu, q = instance.mu, instance.q

    def foc(x):
        return 2.0 / 3.0 * (x - xs) + mu * np.abs(x) ** (q - 1.0) * np.sign(x)

    lo = np.minimum(0.0, xs)
    hi = np.maximum(0.0, xs)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        go_up = foc(mid) < 0.0
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
    x_opt = 0.5 * (lo + hi)
    worst = float(np.max(np.abs(foc(x_opt))))
    tol = residual_tol * max(1.0, float(np.max(np.abs(xs))))
    if worst > tol:
        raise NumericalError(f"exact_optimum: optimality residual {worst:.3e} > {tol:.3e}")
    d = x_opt - xs
    psi = float(d @ d) / 3.0 + instance.sigma_b ** 2 + mu / q * float(np.sum(np.abs(x_opt) ** q))
    return x_opt, psi


def reference_bernoulli_activation(mu, q, sigma, epsilon):
    p = q / (q - 1.0)
    rhs = 2.0 * p * mu ** (p - 1.0) * epsilon / sigma ** p
    lo, hi = 1e-300, 1.0 - 1e-16
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** (p - 1.0) / (1.0 - mid) ** p < rhs:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()  # signs of zeros and NaN payloads too


QS = [2.5, 3.0, 4.0, 20.0]

_rng = np.random.default_rng(20221018)
RIGHT_HAND_SIDES = {
    "zeros": np.array([0.0, -0.0, 0.0]),
    "tiny": np.array([1e-300, -1e-300, 3e-301, -7e-300, 5e-324, -5e-324]),
    "huge": np.array([1e300, -1e300, 3e299, -7e300, 1.7e308, -1.7e308]),
    "mixed": np.concatenate([_rng.standard_normal(40) * 10.0 ** _rng.integers(-12, 12, 40),
                             [0.0, 1e-300, -1e300]]),
}


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("a", [1e-300, 1e-8, 1.0, 1e8, 1e300])
@pytest.mark.parametrize("b", [1e-6, 0.7, 1e6])
@pytest.mark.parametrize("rows", sorted(RIGHT_HAND_SIDES))
def test_power_linear_matches_fixed_count_loop(q, a, b, rows):
    c = RIGHT_HAND_SIDES[rows]
    with np.errstate(all="ignore"):
        assert_same_bits(_solve_power_linear(a, b, c, q), reference_power_linear(a, b, c, q))


X_STARS = {
    "with zeros": np.array([0.0, 0.3, -0.0, -0.25, 0.0]),
    "all zeros": np.zeros(4),
    "tiny": np.array([1e-300, -1e-300, 2e-308, -5e-324]),
    "huge": np.array([1e300, -1e300, 3e10, -7e15]),
    "mixed": np.concatenate([_rng.uniform(-1.0, 1.0, 30) * 10.0 ** _rng.integers(-8, 4, 30),
                             [0.0, 1e-300]]),
}


@pytest.mark.parametrize("q", [2.0] + QS)
@pytest.mark.parametrize("mu", [1e-300, 1e-6, 2.0, 1e6])
@pytest.mark.parametrize("xs", sorted(X_STARS))
def test_exact_optimum_matches_fixed_count_loop(q, mu, xs):
    x_star = X_STARS[xs]
    inst = RidgeInstance(x_star=x_star, sigma_b=0.1, mu=mu, q=q)
    with np.errstate(all="ignore"):
        # with no residual check the optimum is compared on every instance,
        # including those whose residual the check rejects
        got = exact_optimum(inst, residual_tol=np.inf)
        want = reference_exact_optimum(inst, residual_tol=np.inf)
        assert_same_bits(got[0], want[0])
        assert got[1] == want[1] or np.isnan(got[1]) and np.isnan(want[1])
        try:
            reference_exact_optimum(inst)
        except NumericalError as exc:
            # the residual check (<= 1e-10 * max(1, max|x_star|)) agrees
            with pytest.raises(NumericalError) as info:
                exact_optimum(inst)
            assert str(info.value) == str(exc)
        else:
            exact_optimum(inst)


def test_bisect_stops_at_the_fixed_point_within_the_cap():
    c = np.linspace(-3.0, 3.0, 25)
    calls = []

    def go_up(mid):
        calls.append(1)
        return mid ** 3 + mid < c

    root = _bisect(go_up, np.minimum(0.0, c), np.maximum(0.0, c), 200)
    assert len(calls) < 70
    assert np.all(np.abs(root ** 3 + root - c) <= 1e-14 * (1.0 + np.abs(c)))


def test_bisect_short_of_its_fixed_point_runs_to_the_cap():
    calls = []

    def go_up(mid):
        calls.append(1)
        return mid < 1e-300

    # reaching 1e-300 from [0, 1] takes about a thousand halvings
    out = _bisect(go_up, np.zeros(1), np.ones(1), 90)
    assert len(calls) == 90 and out[0] == 2.0 ** -91


def test_residual_check_scales_with_the_instance():
    # mu = 1e-300 at q = 2 leaves x_star as the optimum to the last bit; its
    # residual |mu x_star| reaches 1, far below 1e-10 * 1e300
    x_star = X_STARS["huge"]
    inst = RidgeInstance(x_star=x_star, sigma_b=0.1, mu=1e-300, q=2.0)
    with np.errstate(over="ignore"):
        x_opt, _ = exact_optimum(inst)
        assert x_opt.tobytes() == x_star.tobytes()
        with pytest.raises(NumericalError, match="residual"):
            exact_optimum(inst, residual_tol=1e-301)  # scaled tolerance 0.1 < 1


ACTIVATION_POINTS = [(2.0, 0.002), (3.0, 0.03)]  # the lower-bound benchmark's (q, epsilon)


@pytest.mark.parametrize("q", [2.0, 2.5, 3.0, 4.0, 20.0])
def test_activation_matches_fixed_count_loop(q):
    p = q / (q - 1.0)
    ceiling = 1.0 / (2.0 * p)  # sigma^p / (2 p mu^(p-1)) at mu = sigma = 1
    points = [(q, e) for q_, e in ACTIVATION_POINTS if q_ == q]
    points += [(q, ceiling * f) for f in np.geomspace(1e-12, 1.0, 60)]
    for mu, sigma in [(1.0, 1.0), (0.7, 1.3)]:
        for q_, eps in points:
            got = solve_bernoulli_activation(mu, q_, sigma, eps)
            want = reference_bernoulli_activation(mu, q_, sigma, eps)
            assert type(got) is float
            assert_same_bits(got, want)


def count_evaluations(monkeypatch, module):
    """Make ``module``'s ``_bisect`` count its ``go_up`` evaluations into the
    returned list."""
    calls = []

    def counting(go_up, *args):
        def counted(mid):
            calls.append(1)
            return go_up(mid)
        return _bisect(counted, *args)

    monkeypatch.setattr(module, "_bisect", counting)
    return calls


def test_a_benchmark_shaped_solve_takes_a_few_evaluations(monkeypatch):
    # an acsa inner step of the reproduction grid: 20 seeds at d = 200, q = 3;
    # the bisection took over 50 evaluations
    calls = count_evaluations(monkeypatch, solvers)
    rng = np.random.default_rng(3)
    a, b = 4.0 / 3.0, 3.2658
    c = rng.uniform(-50.0, 50.0, (20, 200))
    out = _solve_power_linear(a, b, c, 3.0)
    assert 2 <= len(calls) <= 8
    assert_same_bits(out, reference_power_linear(a, b, c, 3.0))


def test_a_benchmark_shaped_optimum_takes_a_few_evaluations(monkeypatch):
    calls = count_evaluations(monkeypatch, diagnostics)
    x_star = np.random.default_rng(4).uniform(-0.3, 0.3, 200)
    inst = RidgeInstance(x_star=x_star, sigma_b=0.1, mu=2.0, q=3.0)
    got = exact_optimum(inst)
    assert 2 <= len(calls) <= 8
    want = reference_exact_optimum(inst)
    assert_same_bits(got[0], want[0])
    assert got[1] == want[1]


# rows the certified start must leave to the loop, or get right next to it:
# zeros, subnormals, and values near the smallest normal
SWEEP_SPECIALS = [
    np.array([0.0, -0.0]),
    np.array([5e-324, -5e-324, 1e-310, -2.5e-320]),
    np.array([2.3e-308, -4.5e-308, 1e-300]),
]


def test_certified_roots_match_the_fixed_count_loops_in_a_seeded_sweep(monkeypatch):
    # a and b (or mu) from 1e-8 to 1e8; a solve where a|c|/b^2 is past about
    # 1e22 needs more than 90 steps and so hits the cap, and one where it is
    # below about 1e-16 has its root next to c/b, the end of its bracket
    walks = {"certified": 0, "fell back": 0}
    walk = geometry._walk_from_guess

    def counted_walk(*args):
        out = walk(*args)
        walks["certified" if out is not None else "fell back"] += 1
        return out

    monkeypatch.setattr(geometry, "_walk_from_guess", counted_walk)
    rng = np.random.default_rng(20261020)
    with np.errstate(all="ignore"):
        for k in range(400):
            a, b, mu = 10.0 ** rng.uniform(-8.0, 8.0, 3)
            # right-hand sides from 1e-12 to 1e12 in magnitude, of either sign
            c = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-12.0, 12.0, 3)
            if k % 10 == 0:
                c = np.concatenate([c, SWEEP_SPECIALS[k // 10 % len(SWEEP_SPECIALS)]])
            if k % 10 == 1:  # a root next to its bracket end c/b
                a, b = 1e-8, 1e8
            assert_same_bits(_solve_power_linear(a, b, c, 3.0),
                             reference_power_linear(a, b, c, 3.0))
            inst = RidgeInstance(x_star=c, sigma_b=0.1, mu=mu, q=3.0)
            got = exact_optimum(inst, residual_tol=np.inf)
            want = reference_exact_optimum(inst, residual_tol=np.inf)
            assert_same_bits(got[0], want[0])
            assert got[1] == want[1] or np.isnan(got[1]) and np.isnan(want[1])
    # both paths ran, so the sweep checked the certificate and its refusals
    assert walks["certified"] > 200 and walks["fell back"] > 100


@pytest.mark.parametrize("threshold, top, guess", [
    (1e-300, 1.0, 0.5),  # far from the guess
    (1e-310, 1e-300, 1e-310),  # subnormal
    (1.6e308, 1.7e308, 1.6e308),  # the loop's lo + hi overflows to inf
])
def test_a_start_that_cannot_be_certified_runs_the_loop(threshold, top, guess):
    # the walk gives up on a threshold far from the guess, and leaves a
    # subnormal pair, or a bracket whose sums overflow, to the loop
    calls = []

    def go_up(mid):
        calls.append(1)
        return mid < threshold

    with np.errstate(over="ignore"):
        out = _bisect(go_up, np.zeros(1), np.full(1, top), 90, np.full(1, guess))
        lo, hi = np.zeros(1), np.full(1, top)
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            lo, hi = np.where(mid < threshold, mid, lo), np.where(mid < threshold, hi, mid)
    assert_same_bits(out, 0.5 * (lo + hi))
    assert len(calls) > 2  # a certified start takes two evaluations here
