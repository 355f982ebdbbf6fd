import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special as sp
from scipy.integrate import quad

from sphkde.specfun import (
    assoc_legendre_integral,
    legendre_integral,
    legendre_p,
    legendre_p_expansion,
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
        # a float argument converts exactly, so the expansion is summed in rationals
        assert float(legendre_p_expansion(60, 0.9)) == pytest.approx(0.0317896, abs=1e-7)

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
