import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import special as sp
from scipy.integrate import quad

from sphkde.geometry import sphere_from_xyz
from sphkde.specfun import (
    BetaKernelArgs,
    assoc_legendre,
    assoc_legendre_integral,
    bessel_i0,
    bessel_i0_scaled,
    beta_kernel,
    incomplete_beta,
    legendre_integral,
    legendre_p,
    legendre_p_expansion,
    sh_addition_check,
    sh_norm_const,
)

FOUR_PI = 4 * math.pi


class TestLegendreP:
    def test_degree_zero_is_one(self):
        for u in (-1.0, -0.3, 0.0, 0.77, 1.0):
            assert legendre_p(0, u) == 1.0

    def test_value_one_at_right_endpoint(self):
        for ell in range(51):
            assert legendre_p(ell, 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_golden_value_degree_60(self):
        # the recurrence stays accurate where naive expansion in floats collapses
        assert legendre_p(60, 0.9) == pytest.approx(0.0317896, abs=1e-7)

    def test_exact_expansion_matches_recurrence_small_degree(self):
        for ell in range(16):
            for u in (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
                      Fraction(9, 10), Fraction(1)):
                exact = float(legendre_p_expansion(ell, u))
                assert legendre_p(ell, float(u)) == pytest.approx(exact, abs=5e-15)

    def test_bounded_by_one(self):
        grid = np.linspace(-1.0, 1.0, 201)
        for ell in (1, 5, 20, 50, 100, 200):
            for u in grid:
                assert abs(legendre_p(ell, float(u))) <= 1.0 + 1e-12

    def test_orthogonality(self):
        nodes, weights = np.polynomial.legendre.leggauss(64)
        for j in range(0, 21, 4):
            for k in range(j + 1, 21, 3):
                val = sum(
                    w * legendre_p(j, float(u)) * legendre_p(k, float(u))
                    for u, w in zip(nodes, weights)
                )
                assert abs(val) < 1e-10

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            ell = int(rng.integers(0, 80))
            u = float(rng.uniform(-1, 1))
            assert legendre_p(ell, u) == pytest.approx(float(sp.eval_legendre(ell, u)), rel=1e-10, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            legendre_p(3, 1.5)
        with pytest.raises(ValueError):
            legendre_p(-1, 0.5)


class TestAssocLegendre:
    def test_first_degree_at_zero(self):
        # P_1^1(u) = -sqrt(1 - u^2)
        assert assoc_legendre(1, 1, 0.0) == -1.0

    def test_second_degree_at_zero(self):
        # P_2^1(u) = -3 u sqrt(1 - u^2)
        assert assoc_legendre(2, 1, 0.0) == 0.0

    def test_vanishes_at_endpoints(self):
        for ell, m in ((3, 1), (5, 2), (10, 7)):
            assert assoc_legendre(ell, m, 1.0) == 0.0
            assert assoc_legendre(ell, m, -1.0) == 0.0

    def test_matches_scipy_lpmv(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            ell = int(rng.integers(1, 40))
            m = int(rng.integers(1, ell + 1))
            u = float(rng.uniform(-1, 1))
            ref = float(sp.lpmv(m, ell, u))
            assert assoc_legendre(ell, m, u) == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_order_range_enforced(self):
        with pytest.raises(ValueError):
            assoc_legendre(3, 0, 0.5)
        with pytest.raises(ValueError):
            assoc_legendre(3, 4, 0.5)


class TestShNormConst:
    def test_ell_zero(self):
        assert sh_norm_const(0, 0) == pytest.approx(1.0 / math.sqrt(FOUR_PI), rel=1e-15)

    def test_ell_one(self):
        assert sh_norm_const(1, 1) == pytest.approx(math.sqrt(3.0 / (8.0 * math.pi)), rel=1e-14)

    def test_zonal_identity(self):
        for ell in range(0, 101, 10):
            val = sh_norm_const(ell, 0) ** 2 * FOUR_PI / (2 * ell + 1)
            assert val == pytest.approx(1.0, rel=1e-13)

    def test_large_order_finite(self):
        assert 0.0 < sh_norm_const(92, 92) < 1e-150


class TestIncompleteBeta:
    def test_zero_endpoint(self):
        assert incomplete_beta(0.0, 2.0, 3.5) == 0.0

    def test_full_interval_is_beta(self):
        for a, b in ((1.5, 2.5), (2.0, 2.0), (0.5, 4.5)):
            assert incomplete_beta(1.0, a, b) == pytest.approx(float(sp.beta(a, b)), rel=1e-13)

    def test_uniform_integrand(self):
        assert incomplete_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_monotone_and_bounded(self):
        us = np.linspace(0, 1, 21)
        vals = [incomplete_beta(float(u), 2.5, 3.0) for u in us]
        assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] <= float(sp.beta(2.5, 3.0)) + 1e-15

    def test_extended_agrees_with_double(self):
        with mpmath.workprec(128):
            for u in (0.2, 0.5, 0.9):
                ref = float(mpmath.betainc(2.5, 7.0, 0, u, regularized=False))
                assert incomplete_beta(u, 2.5, 7.0) == pytest.approx(ref, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            incomplete_beta(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            incomplete_beta(0.5, 0.0, 1.0)


class TestBetaKernel:
    def test_equal_endpoints_vanish(self):
        assert beta_kernel(BetaKernelArgs(2, 5, 0.3, 0.3)) == 0.0

    def test_full_interval_half_integer(self):
        # B(3/2, 3/2) = pi / 8
        val = beta_kernel(BetaKernelArgs(1, 1, -1.0, 1.0))
        assert val == pytest.approx(math.pi / 8.0, rel=1e-13)

    def test_full_interval_integer(self):
        # B(2, 2) = 1/6
        val = beta_kernel(BetaKernelArgs(2, 2, -1.0, 1.0))
        assert val == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_nonnegative_when_ordered(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g1, g2 = np.sort(rng.uniform(-1, 1, 2))
            k = int(rng.integers(1, 12))
            m = int(rng.integers(1, k + 1))
            assert beta_kernel(BetaKernelArgs(m, k, float(g1), float(g2))) >= 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            BetaKernelArgs(3, 2, -1.0, 1.0)
        with pytest.raises(ValueError):
            BetaKernelArgs(1, 2, 0.5, 0.2)


class TestAssocLegendreIntegral:
    def test_first_degree_full_interval(self):
        # integral of -sqrt(1-u^2) over [-1, 1] is -pi/2
        assert assoc_legendre_integral(1, 1, -1.0, 1.0) == pytest.approx(-math.pi / 2, rel=1e-12)

    def test_odd_integrand_cancels(self):
        assert assoc_legendre_integral(2, 1, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_against_adaptive_quadrature(self):
        rng = np.random.default_rng(3)
        for ell in range(1, 21, 3):
            for m in range(1, ell + 1, max(1, ell // 3)):
                g1, g2 = np.sort(rng.uniform(-1, 1, 2))
                ref, _ = quad(
                    lambda u: sp.lpmv(m, ell, u), g1, g2, epsabs=1e-12, epsrel=1e-12, limit=200
                )
                val = assoc_legendre_integral(ell, m, float(g1), float(g2))
                assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_additive_over_interval_split(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            ell = int(rng.integers(1, 15))
            m = int(rng.integers(1, ell + 1))
            g1, g2, g3 = np.sort(rng.uniform(-1, 1, 3))
            whole = assoc_legendre_integral(ell, m, float(g1), float(g3))
            parts = assoc_legendre_integral(ell, m, float(g1), float(g2)) + assoc_legendre_integral(
                ell, m, float(g2), float(g3)
            )
            assert whole == pytest.approx(parts, abs=1e-10 * max(1.0, abs(whole)))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            assoc_legendre_integral(2, 1, 0.5, 0.5)
        with pytest.raises(ValueError):
            assoc_legendre_integral(2, 3, -0.5, 0.5)


class TestLegendreIntegral:
    def test_constant_full_interval(self):
        assert legendre_integral(0, 0.0, math.pi) == pytest.approx(2.0, rel=1e-14)

    def test_orthogonality_to_constants(self):
        for ell in range(1, 25):
            assert legendre_integral(ell, 0.0, math.pi) == pytest.approx(0.0, abs=1e-11)

    def test_first_degree_half_interval(self):
        # integral of u over [-1, 0]
        assert legendre_integral(1, math.pi / 2, math.pi) == pytest.approx(-0.5, rel=1e-13)

    def test_against_quadrature(self):
        rng = np.random.default_rng(5)
        for ell in (2, 5, 9, 14, 20):
            t1, t2 = np.sort(rng.uniform(0, math.pi, 2))
            ref, _ = quad(lambda u: sp.eval_legendre(ell, u), math.cos(t2), math.cos(t1),
                          epsabs=1e-13, epsrel=1e-13)
            assert legendre_integral(ell, float(t1), float(t2)) == pytest.approx(ref, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            legendre_integral(2, 1.0, 0.5)


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_series_value_at_one(self):
        # partial sums of the defining series converge to this value
        assert bessel_i0(1.0) == pytest.approx(1.2660658777520084, rel=1e-12)

    def test_increasing_and_at_least_one(self):
        grid = [0.0, 0.1, 0.5, 1.0, 3.0, 10.0, 14.9, 15.1, 30.0, 80.0]
        vals = [bessel_i0(k) for k in grid]
        assert all(v >= 1.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_matches_scipy_across_switch(self):
        for k in (0.5, 5.0, 14.0, 15.0, 16.0, 25.0, 60.0, 200.0):
            assert bessel_i0(k) == pytest.approx(float(sp.i0(k)), rel=1e-12)
            assert bessel_i0_scaled(k) == pytest.approx(float(sp.i0e(k)), rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bessel_i0(-1.0)


class TestAdditionFormula:
    def test_north_pole_degree_zero(self):
        p = sphere_from_xyz(0.0, 0.0, 1.0)
        lhs, rhs = sh_addition_check(0, p, p)
        assert lhs == pytest.approx(1.0 / FOUR_PI, rel=1e-14)
        assert rhs == pytest.approx(1.0 / FOUR_PI, rel=1e-14)

    def test_identity_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            ell = int(rng.integers(0, 11))
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            px = sphere_from_xyz(*(x / np.linalg.norm(x)))
            py = sphere_from_xyz(*(y / np.linalg.norm(y)))
            lhs, rhs = sh_addition_check(ell, px, py)
            assert abs(lhs - rhs) < 1e-10

    def test_coincident_points(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(3)
        p = sphere_from_xyz(*(v / np.linalg.norm(v)))
        for ell in (0, 3, 8, 15):
            lhs, _ = sh_addition_check(ell, p, p)
            assert lhs == pytest.approx((2 * ell + 1) / FOUR_PI, rel=1e-12)
