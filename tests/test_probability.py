import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sphkde._kernels import ALF_MAX_DEGREE
from sphkde.geometry import FULL_CIRCLE, FULL_SPHERE, arc_region, rect_region
from sphkde.kde import KdeConfig, SampleS1, SampleS2, make_config
from sphkde.probability import (
    METHOD_CLOSED,
    METHOD_QUADRATURE,
    _prob_rect_s2_extended,
    adaptive_simpson,
    prob_arc_s1,
    prob_rect_s2,
    quadrature_prob,
    vmf_true_prob_cap,
)
from sphkde.sampling import SeededRng, sample_uniform
from sphkde.specfun import NumericalError


class TestProbArcS1:
    def test_full_circle_is_one(self):
        sample = sample_uniform(1, 150, SeededRng(0))
        cfg = make_config(1, 0.5, 150)
        est = prob_arc_s1(sample, cfg, FULL_CIRCLE)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.method == METHOD_CLOSED

    def test_single_observation_half_arc(self):
        # all sine differences vanish at multiples of pi
        sample = SampleS1.from_angles([0.0])
        cfg = KdeConfig(dim=1, smoothness=1.0, decay=5, n_obs=1, bandwidth=0.5, cutoff=7)
        est = prob_arc_s1(sample, cfg, arc_region((0.0, math.pi)))
        assert est.value == pytest.approx(0.5, abs=1e-12)

    def test_split_additivity(self):
        sample = sample_uniform(1, 60, SeededRng(1))
        cfg = make_config(1, 1.0, 60)
        whole = prob_arc_s1(sample, cfg, arc_region((-1.0, 2.0))).value
        parts = (
            prob_arc_s1(sample, cfg, arc_region((-1.0, 0.4))).value
            + prob_arc_s1(sample, cfg, arc_region((0.4, 2.0))).value
        )
        assert whole == pytest.approx(parts, abs=1e-10)

    def test_multi_arc_equals_sum(self):
        sample = sample_uniform(1, 40, SeededRng(2))
        cfg = make_config(1, 1.0, 40)
        union = prob_arc_s1(sample, cfg, arc_region((2.46, math.pi), (-math.pi, -3.03))).value
        parts = (
            prob_arc_s1(sample, cfg, arc_region((2.46, math.pi))).value
            + prob_arc_s1(sample, cfg, arc_region((-math.pi, -3.03))).value
        )
        assert union == pytest.approx(parts, abs=1e-12)

    def test_wrapped_arc_via_builder(self):
        sample = sample_uniform(1, 40, SeededRng(3))
        cfg = make_config(1, 1.0, 40)
        wrapped = prob_arc_s1(sample, cfg, arc_region((2.0, -2.0))).value
        complement = prob_arc_s1(sample, cfg, arc_region((-2.0, 2.0))).value
        assert wrapped + complement == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        sample = sample_uniform(1, 10, SeededRng(4))
        with pytest.raises(ValueError):
            prob_arc_s1(sample, make_config(2, 1.0, 10), FULL_CIRCLE)


class TestProbRectS2:
    def test_full_sphere_is_one(self):
        sample = sample_uniform(2, 120, SeededRng(5))
        cfg = make_config(2, 0.5, 120)
        est = prob_rect_s2(sample, cfg, FULL_SPHERE)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_quarters_sum_to_one(self):
        sample = sample_uniform(2, 90, SeededRng(6))
        cfg = make_config(2, 1.0, 90)
        quarters = [
            rect_region((0.0, math.pi / 2, -math.pi, 0.0)),
            rect_region((0.0, math.pi / 2, 0.0, math.pi)),
            rect_region((math.pi / 2, math.pi, -math.pi, 0.0)),
            rect_region((math.pi / 2, math.pi, 0.0, math.pi)),
        ]
        total = sum(prob_rect_s2(sample, cfg, q).value for q in quarters)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_split_additivity(self):
        # theta splits, including bands that touch a pole, from cutoff 0 to 139
        sample = sample_uniform(2, 50, SeededRng(7))
        cfgs = [make_config(2, 1.0, 50)] + [
            KdeConfig(dim=2, smoothness=1.0, decay=6, n_obs=50, bandwidth=0.2, cutoff=cutoff)
            for cutoff in (0, 60, 139)
        ]
        splits = [(0.4, 1.1, 2.0, -1.0, 1.5), (0.0, 0.01, math.pi, -math.pi, math.pi),
                  (1.5, 3.0, math.pi, 2.9, 3.1)]
        for cfg in cfgs:
            for tlo, tmid, thi, plo, phi in splits:
                whole = prob_rect_s2(sample, cfg, rect_region((tlo, thi, plo, phi))).value
                parts = (
                    prob_rect_s2(sample, cfg, rect_region((tlo, tmid, plo, phi))).value
                    + prob_rect_s2(sample, cfg, rect_region((tmid, thi, plo, phi))).value
                )
                assert whole == pytest.approx(parts, abs=1e-12)

    def test_matches_256bit_reference(self):
        # the incomplete-Beta closed form at 256 bits is an independent theta integral
        sample = sample_uniform(2, 25, SeededRng(8))
        rect = (0.3, 1.7, -1.0, 2.0)
        for cutoff in (8, 19, 92):
            cfg = KdeConfig(dim=2, smoothness=0.05, decay=6, n_obs=25, bandwidth=0.05,
                            cutoff=cutoff)
            est = prob_rect_s2(sample, cfg, rect_region(rect)).value
            assert est == pytest.approx(_prob_rect_s2_extended(sample, cfg, rect, 256), abs=1e-12)

    def test_elapsed_recorded(self):
        sample = sample_uniform(2, 20, SeededRng(10))
        cfg = make_config(2, 1.0, 20)
        est = prob_rect_s2(sample, cfg, FULL_SPHERE)
        assert est.elapsed > 0.0

    def test_cutoffs_above_unnormalized_ceiling_match_quadrature(self):
        # unnormalized P_l^m passed the largest double from cutoff 135 (tables) and 151 (sums)
        sample = sample_uniform(2, 25, SeededRng(12))
        region = rect_region((0.5, 1.0, 0.0, 0.6))
        for cutoff in (139, 207):
            cfg = KdeConfig(dim=2, smoothness=1.0, decay=6, n_obs=25, bandwidth=0.1, cutoff=cutoff)
            closed = prob_rect_s2(sample, cfg, region).value
            assert closed == pytest.approx(quadrature_prob(sample, cfg, region).value, abs=1e-10)

    def test_cutoff_above_tested_degree_is_numerical_error(self):
        # above degree ~3600 the sectoral seeds underflow and whole orders would read 0
        sample = sample_uniform(2, 25, SeededRng(12))
        for cutoff in (ALF_MAX_DEGREE + 1, 3700):
            cfg = KdeConfig(dim=2, smoothness=1.0, decay=6, n_obs=25, bandwidth=0.1, cutoff=cutoff)
            with pytest.raises(NumericalError, match="above"):
                prob_rect_s2(sample, cfg, FULL_SPHERE)

    def test_dimension_mismatch(self):
        sample = sample_uniform(2, 10, SeededRng(11))
        with pytest.raises(ValueError):
            prob_rect_s2(sample, make_config(1, 1.0, 10), FULL_SPHERE)


_ANGLES = st.floats(0.0, 1.0)
_BANDWIDTHS = st.floats(0.01, 0.5)


def _sphere_case(seed, n, cutoff, h):
    sample = sample_uniform(2, n, SeededRng(seed))
    cfg = KdeConfig(dim=2, smoothness=1.0, decay=6, n_obs=n, bandwidth=h, cutoff=cutoff)
    return sample, cfg


class TestProbRectS2Properties:
    """Azimuth-split additivity and total mass of the sphere closed form."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.integers(1, 60), st.integers(0, 60), _BANDWIDTHS,
           st.lists(_ANGLES, min_size=3, max_size=3, unique=True), _ANGLES, _ANGLES)
    def test_phi_split_additivity(self, seed, n, cutoff, h, ps, t1, t2):
        plo, pmid, phi = sorted(2.0 * math.pi * p - math.pi for p in ps)
        tlo, thi = sorted((math.pi * t1, math.pi * t2))
        assume(plo < pmid < phi and tlo < thi)
        sample, cfg = _sphere_case(seed, n, cutoff, h)
        whole = prob_rect_s2(sample, cfg, rect_region((tlo, thi, plo, phi))).value
        parts = (prob_rect_s2(sample, cfg, rect_region((tlo, thi, plo, pmid))).value
                 + prob_rect_s2(sample, cfg, rect_region((tlo, thi, pmid, phi))).value)
        assert whole == pytest.approx(parts, abs=1e-12)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.integers(1, 200), st.integers(0, 120), _BANDWIDTHS)
    def test_full_sphere_is_one(self, seed, n, cutoff, h):
        sample, cfg = _sphere_case(seed, n, cutoff, h)
        assert prob_rect_s2(sample, cfg, FULL_SPHERE).value == pytest.approx(1.0, abs=1e-12)


class TestQuadratureProb:
    def test_constant_integrand_full_sphere(self):
        sample = SampleS2.from_xyz([[0.0, 0.0, 1.0]])
        cfg = KdeConfig(dim=2, smoothness=1.0, decay=6, n_obs=1, bandwidth=0.5, cutoff=0)
        est = quadrature_prob(sample, cfg, FULL_SPHERE)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.method == METHOD_QUADRATURE

    def test_matches_closed_form_on_circle(self):
        rng = np.random.default_rng(12)
        for i in range(5):
            n = int(rng.integers(10, 50))
            sample = sample_uniform(1, n, SeededRng(100 + i))
            cfg = make_config(1, float(rng.uniform(0.4, 2.0)), n)
            lo, hi = np.sort(rng.uniform(-math.pi, math.pi, 2))
            region = arc_region((float(lo), float(hi)))
            closed = prob_arc_s1(sample, cfg, region).value
            quad = quadrature_prob(sample, cfg, region).value
            assert closed == pytest.approx(quad, abs=1e-10)

    def test_matches_closed_form_on_sphere(self):
        rng = np.random.default_rng(13)
        for i in range(5):
            n = int(rng.integers(20, 60))
            sample = sample_uniform(2, n, SeededRng(200 + i))
            cfg = make_config(2, float(rng.uniform(0.4, 2.0)), n)
            tlo, thi = np.sort(rng.uniform(0, math.pi, 2))
            plo, phi = np.sort(rng.uniform(-math.pi, math.pi, 2))
            region = rect_region((float(tlo), float(thi), float(plo), float(phi)))
            closed = prob_rect_s2(sample, cfg, region).value
            quad = quadrature_prob(sample, cfg, region).value
            assert closed == pytest.approx(quad, abs=1e-8)

    def test_region_type_checked(self):
        sample = sample_uniform(2, 10, SeededRng(14))
        with pytest.raises(ValueError):
            quadrature_prob(sample, make_config(2, 1.0, 10), FULL_CIRCLE)


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        assert adaptive_simpson(lambda x: x * x, 0.0, 2.0, 1e-12) == pytest.approx(8.0 / 3.0)

    def test_oscillatory(self):
        val = adaptive_simpson(lambda x: math.cos(20 * x), 0.0, 1.3, 1e-12)
        assert val == pytest.approx(math.sin(26.0) / 20.0, abs=1e-10)


class TestVmfTrueProbCap:
    def test_reference_values(self):
        assert vmf_true_prob_cap(1.0, math.pi / 2) == pytest.approx(0.7311, abs=1e-4)
        assert vmf_true_prob_cap(1.0, math.pi / 3) == pytest.approx(0.4551, abs=1e-4)
        assert vmf_true_prob_cap(1.0, math.pi / 4) == pytest.approx(0.2936, abs=1e-4)
        assert vmf_true_prob_cap(1.0, math.pi / 5) == pytest.approx(0.2011, abs=1e-4)

    def test_full_sphere(self):
        assert vmf_true_prob_cap(1.0, math.pi) == pytest.approx(1.0, rel=1e-15)
        assert vmf_true_prob_cap(300.0, math.pi) == pytest.approx(1.0, rel=1e-15)

    def test_closed_form_expression(self):
        kappa, t = 2.5, 1.1
        expected = (math.exp(kappa) - math.exp(kappa * math.cos(t))) / (
            math.exp(kappa) - math.exp(-kappa)
        )
        assert vmf_true_prob_cap(kappa, t) == pytest.approx(expected, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            vmf_true_prob_cap(0.0, 1.0)
        with pytest.raises(ValueError):
            vmf_true_prob_cap(1.0, 0.0)
