import math

import mpmath
import numpy as np
import pytest

from conebarriers import (
    newton_raphson,
    wright_omega,
)

EPS = np.finfo(float).eps


def bisect_omega(beta, lo=1e-300, hi=1e300, iters=200):
    """Independent oracle: bisection on x + log(x) - beta."""
    f = lambda x: x + math.log(x) - beta
    for _ in range(iters):
        mid = math.sqrt(lo * hi) if hi / lo > 4 else 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestWrightOmega:
    def test_omega_of_one(self):
        # 1 + log 1 = 1
        assert abs(wright_omega(1.0) - 1.0) <= 2 * EPS

    def test_omega_of_one_plus_e(self):
        # e + log e = 1 + e
        assert abs(wright_omega(1.0 + math.e) - math.e) <= 2 * EPS * math.e

    def test_omega_of_two_against_bisection(self):
        expected = bisect_omega(2.0)  # ~1.5571455989976113
        assert wright_omega(2.0) == pytest.approx(expected, rel=1e-14)
        assert wright_omega(2.0) == pytest.approx(1.5571455989976113, rel=1e-12)

    def test_defining_identity_on_range(self):
        betas = np.linspace(-30.0, 50.0, 100_000)
        for beta in betas:
            w = wright_omega(float(beta))
            assert w > 0.0
            assert abs(w + math.log(w) - beta) <= 8 * EPS * (1 + abs(beta))

    def test_strictly_increasing(self):
        betas = np.linspace(-30.0, 50.0, 20_000)
        values = np.array([wright_omega(float(b)) for b in betas])
        assert np.all(np.diff(values) > 0)

    def test_random_points_against_bisection(self, rng):
        for beta in rng.uniform(-25, 45, 50):
            assert wright_omega(float(beta)) == pytest.approx(
                bisect_omega(float(beta)), rel=1e-13)

    @pytest.mark.parametrize("beta", [-708.5, -720.0, -744.0, -745.0, -800.0])
    def test_below_exp_normal_range_against_mpmath(self, beta):
        # exp(beta) is subnormal or 0 here, where the bound allows no error;
        # omega = exp(beta - omega) with exp(-omega) rounding to 1
        with mpmath.workdps(50):
            ref = float(mpmath.lambertw(mpmath.exp(mpmath.mpf(beta))))
        assert abs(wright_omega(beta) - ref) <= 2 * EPS * ref

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            wright_omega(float("nan"))
        with pytest.raises(ValueError):
            wright_omega(float("inf"))


class TestNewtonRaphson:
    def test_known_quadratic(self):
        res = newton_raphson(lambda y: (y * y - 1.0, 2.0 * y), 2.0)
        assert res.converged
        assert res.root == pytest.approx(1.0, abs=1e-12)
        assert res.residual <= 1e3 * EPS * (1 + 3.0)

    def test_equal_weight_power_instance(self):
        # h(y) = sum_i a_i log(y - p a_i) - log prod r_i^a_i with
        # a = (1/2, 1/2), p = -1, r = (1, 1) has the exact root 1/2
        a = np.array([0.5, 0.5])
        p = -1.0

        def fn(y):
            t = y - p * a
            return float(np.dot(a, np.log(t))), float(np.sum(a / t))

        res = newton_raphson(fn, 0.0)
        assert res.converged
        assert res.root == pytest.approx(0.5, abs=1e-12)
        assert res.iterations <= 10

    def test_linf_quadratic_instance(self):
        # p=2, r=(1): 2y + sqrt(1+y^2) + 1 = 0 reduces to 3y^2 + 4y = 0,
        # so the negative root is -4/3; start at -(d+1)/p
        def fn(y):
            s = math.sqrt(1.0 + y * y)
            return 2.0 * y + s + 1.0, 2.0 + y / s

        res = newton_raphson(fn, -1.0)
        assert res.converged
        assert res.root == pytest.approx(-4.0 / 3.0, abs=1e-12)

    def test_zero_start_counts_zero_iterations(self):
        res = newton_raphson(lambda y: (0.0, 1.0), 5.0)
        assert res.converged and res.iterations == 0 and res.root == 5.0

    def test_flat_zero_converges_at_start(self):
        # |h| <= abs_h with h' = 0: the residual test alone accepts the start
        res = newton_raphson(lambda y: (0.0, 0.0), 2.0)
        assert res.converged and res.iterations == 0
        assert res.root == 2.0 and res.residual == 0.0

    def test_zero_derivative_not_converged(self):
        res = newton_raphson(lambda y: (1.0, 0.0), 0.0)
        assert not res.converged

    def test_iteration_cap(self):
        # Newton on y^3 - 2y + 2 from 0 cycles 0, 1, 0, ... exactly, so
        # neither the residual nor the step test fires; the driver must
        # give up at the cap of 64 steps
        res = newton_raphson(lambda y: (y**3 - 2.0 * y + 2.0, 3.0 * y * y - 2.0), 0.0)
        assert not res.converged
        assert res.iterations == 64
        assert res.root == 0.0 and res.residual == 2.0
