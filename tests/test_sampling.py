import math

import numpy as np
import pytest

from sphkde.geometry import arc_region, point_from_angle, rect_region, sphere_from_xyz
from sphkde.kde import SampleS1, SampleS2
from sphkde.probability import adaptive_simpson
from sphkde.sampling import (
    SeededRng,
    UniformDistribution,
    VmfDistribution,
    VmfMixtureDistribution,
    VmfMixtureSpec,
    VmfSpec,
    _best_fisher_angles,
    mixture_density,
    sample_uniform,
    sample_vmf_mixture,
    sample_vmf_s1,
    sample_vmf_s2,
    vmf_density,
)

NORTH = sphere_from_xyz(0.0, 0.0, 1.0)

TABLE4_MIXTURE = VmfMixtureSpec(
    weights=(0.2, 0.3, 0.1, 0.4),
    components=(
        VmfSpec(d=1, mu=point_from_angle(0.0), kappa=4.0),
        VmfSpec(d=1, mu=point_from_angle(math.pi / 3), kappa=6.0),
        VmfSpec(d=1, mu=point_from_angle(math.pi / 4), kappa=10.0),
        VmfSpec(d=1, mu=point_from_angle(-math.pi / 2), kappa=12.0),
    ),
)


class TestSeededRng:
    def test_reproducible(self):
        a = sample_uniform(2, 100, SeededRng(42, stream=3))
        b = sample_uniform(2, 100, SeededRng(42, stream=3))
        assert np.array_equal(a.xyz, b.xyz)

    def test_streams_differ(self):
        a = sample_uniform(2, 100, SeededRng(42, stream=0))
        b = sample_uniform(2, 100, SeededRng(42, stream=1))
        assert not np.array_equal(a.xyz, b.xyz)

    def test_metadata_recorded(self):
        s = sample_uniform(1, 5, SeededRng(9, stream=2))
        assert s.seed == 9 and s.stream == 2


class TestUniformSampler:
    def test_unit_norms(self):
        s = sample_uniform(2, 2000, SeededRng(0))
        assert np.max(np.abs(np.einsum("ij,ij->i", s.xyz, s.xyz) - 1.0)) < 1e-12

    def test_mean_vector_near_zero(self):
        s = sample_uniform(2, 100000, SeededRng(1))
        assert np.linalg.norm(s.xyz.mean(axis=0)) < 0.02

    def test_hemisphere_balance(self):
        s = sample_uniform(2, 10000, SeededRng(2))
        freq = float((s.xyz[:, 2] > 0).mean())
        assert abs(freq - 0.5) < 3.0 * math.sqrt(0.25 / 10000)

    def test_circle_angles_in_range(self):
        s = sample_uniform(1, 5000, SeededRng(3))
        assert np.all((s.thetas > -math.pi) & (s.thetas <= math.pi))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sample_uniform(3, 10, SeededRng(0))
        with pytest.raises(ValueError):
            sample_uniform(1, 0, SeededRng(0))


class TestVmfCircleSampler:
    def test_mean_direction(self):
        spec = VmfSpec(d=1, mu=point_from_angle(0.0), kappa=4.0)
        s = sample_vmf_s1(spec, 10000, SeededRng(4))
        mean_dir = math.atan2(np.sin(s.thetas).mean(), np.cos(s.thetas).mean())
        assert abs(mean_dir) < 0.05

    def test_rotation_to_mean(self):
        mu = point_from_angle(2.1)
        s = sample_vmf_s1(VmfSpec(d=1, mu=mu, kappa=8.0), 10000, SeededRng(5))
        mean_dir = math.atan2(np.sin(s.thetas).mean(), np.cos(s.thetas).mean())
        assert abs(mean_dir - 2.1) < 0.05

    def test_rejection_efficiency(self):
        for kappa in (0.1, 1.0, 5.0, 20.0, 50.0):
            gen = SeededRng(6).generator()
            _, trials = _best_fisher_angles(gen, kappa, 4000)
            assert trials / 4000 < 2.0

    def test_arc_frequency_matches_density_integral(self):
        spec = VmfSpec(d=1, mu=point_from_angle(0.0), kappa=1.0)
        s = sample_vmf_s1(spec, 10000, SeededRng(7))
        arc = arc_region((-math.pi / 4, math.pi / 4))
        freq = float(((s.thetas >= -math.pi / 4) & (s.thetas < math.pi / 4)).mean())
        truth = adaptive_simpson(lambda t: vmf_density(spec, t), -math.pi / 4, math.pi / 4, 1e-11)
        assert abs(freq - truth) < 3.0 * math.sqrt(truth * (1 - truth) / 10000)
        assert arc.measure() == pytest.approx(math.pi / 2)


class TestVmfSphereSampler:
    def test_cap_frequency(self):
        spec = VmfSpec(d=2, mu=NORTH, kappa=1.0)
        s = sample_vmf_s2(spec, 10000, SeededRng(8))
        freq = float((s.thetas <= math.pi / 2).mean())
        assert abs(freq - 0.7311) < 3.0 * math.sqrt(0.7311 * 0.2689 / 10000)

    def test_rotation_to_mean(self):
        mu = sphere_from_xyz(*(np.ones(3) / math.sqrt(3.0)))
        s = sample_vmf_s2(VmfSpec(d=2, mu=mu, kappa=10.0), 10000, SeededRng(9))
        m = s.xyz.mean(axis=0)
        m /= np.linalg.norm(m)
        assert math.acos(min(1.0, float(np.dot(m, mu.xyz)))) < 0.05

    def test_south_pole_mean(self):
        s = sample_vmf_s2(VmfSpec(d=2, mu=sphere_from_xyz(0.0, 0.0, -1.0), kappa=6.0),
                          5000, SeededRng(10))
        assert s.xyz[:, 2].mean() < -0.8

    def test_small_kappa_approaches_uniform(self):
        s = sample_vmf_s2(VmfSpec(d=2, mu=NORTH, kappa=1e-4), 10000, SeededRng(11))
        freq = float((s.xyz[:, 2] > 0).mean())
        assert abs(freq - 0.5) < 3.0 * math.sqrt(0.25 / 10000)

    def test_unit_norms(self):
        s = sample_vmf_s2(VmfSpec(d=2, mu=NORTH, kappa=3.0), 1000, SeededRng(12))
        assert np.max(np.abs(np.einsum("ij,ij->i", s.xyz, s.xyz) - 1.0)) < 1e-12


class TestMixtureSampler:
    def test_single_component_equals_plain(self):
        spec = VmfSpec(d=2, mu=NORTH, kappa=3.0)
        mix = VmfMixtureSpec(weights=(1.0,), components=(spec,))
        a = sample_vmf_mixture(mix, 500, SeededRng(13))
        b = sample_vmf_s2(spec, 500, SeededRng(13))
        assert np.array_equal(a.xyz, b.xyz)
        assert a.components is not None and np.all(a.components == 0)

    def test_component_frequencies(self):
        s = sample_vmf_mixture(TABLE4_MIXTURE, 10000, SeededRng(14))
        counts = np.bincount(s.components, minlength=4) / 10000
        for w, c in zip(TABLE4_MIXTURE.weights, counts):
            assert abs(c - w) < 3.0 * math.sqrt(w * (1 - w) / 10000)

    def test_table4_wrapped_arc_true_probability(self):
        # the quoted reference value corresponds to the arc wrapped through pi,
        # i.e. the complement of (-pi/4, pi/4)
        wrapped = arc_region((math.pi / 4, -math.pi / 4))
        total = sum(
            adaptive_simpson(lambda t: float(mixture_density(TABLE4_MIXTURE, t)), lo, hi, 1e-11)
            for lo, hi in wrapped.arcs
        )
        assert total == pytest.approx(0.6968, abs=1e-4)

    def test_sphere_mixture_runs(self):
        mix = VmfMixtureSpec(
            weights=(0.5, 0.5),
            components=(
                VmfSpec(d=2, mu=NORTH, kappa=12.0),
                VmfSpec(d=2, mu=sphere_from_xyz(0.0, -1.0, 0.0), kappa=10.0),
            ),
        )
        s = sample_vmf_mixture(mix, 1000, SeededRng(15))
        assert s.n == 1000 and s.components.shape == (1000,)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            VmfMixtureSpec(weights=(0.7, 0.2), components=TABLE4_MIXTURE.components[:2])
        with pytest.raises(ValueError):
            VmfMixtureSpec(weights=(-0.1, 1.1), components=TABLE4_MIXTURE.components[:2])


class TestDensities:
    def test_sphere_density_at_mean(self):
        spec = VmfSpec(d=2, mu=NORTH, kappa=1.0)
        expected = math.e / (4.0 * math.pi * math.sinh(1.0))
        assert vmf_density(spec, NORTH) == pytest.approx(expected, rel=1e-13)

    def test_normalization_by_quadrature(self):
        # circle kappa on both sides of 15 and far above it, where only the scaled I0 is finite;
        # splitting at the mean puts the narrow peak on a node of both halves
        for kappa in (2.0, 15.01, 700.0):
            spec1 = VmfSpec(d=1, mu=point_from_angle(0.9), kappa=kappa)
            total = sum(adaptive_simpson(lambda t: float(vmf_density(spec1, t)), lo, hi, 1e-11)
                        for lo, hi in ((-math.pi, 0.9), (0.9, math.pi)))
            assert total == pytest.approx(1.0, abs=1e-8)
        spec2 = VmfSpec(d=2, mu=sphere_from_xyz(0.6, 0.0, 0.8), kappa=5.0)
        assert VmfDistribution(spec2).region_prob(
            rect_region((0.0, math.pi, -math.pi, math.pi))
        ) == pytest.approx(1.0, abs=1e-8)

    def test_depends_only_on_dot_product(self):
        spec = VmfSpec(d=2, mu=NORTH, kappa=3.0)
        ring = [sphere_from_xyz(math.sin(1.0) * math.cos(p), math.sin(1.0) * math.sin(p), math.cos(1.0))
                for p in (0.0, 1.3, -2.2)]
        vals = [vmf_density(spec, p) for p in ring]
        assert max(vals) - min(vals) < 1e-14

    def test_degenerate_weight_equals_component(self):
        comp = VmfSpec(d=1, mu=point_from_angle(0.3), kappa=2.0)
        other = VmfSpec(d=1, mu=point_from_angle(-1.0), kappa=5.0)
        mix = VmfMixtureSpec(weights=(1.0, 0.0), components=(comp, other))
        for t in (-2.0, 0.0, 0.4, 3.0):
            assert mixture_density(mix, t) == pytest.approx(vmf_density(comp, t), rel=1e-14)

    def test_component_swap_symmetry(self):
        a = VmfSpec(d=1, mu=point_from_angle(0.5), kappa=3.0)
        b = VmfSpec(d=1, mu=point_from_angle(-0.5), kappa=3.0)
        m1 = VmfMixtureSpec(weights=(0.5, 0.5), components=(a, b))
        m2 = VmfMixtureSpec(weights=(0.5, 0.5), components=(b, a))
        for t in (-1.0, 0.0, 2.0):
            assert mixture_density(m1, t) == pytest.approx(mixture_density(m2, t), rel=1e-14)


class TestDistributionWrappers:
    def test_uniform_region_prob(self):
        d = UniformDistribution(2)
        assert d.region_prob(rect_region((0.0, math.pi / 2, -math.pi, math.pi))) == pytest.approx(0.5)

    def test_vmf_cap_oracle_used_for_bands(self):
        d = VmfDistribution(VmfSpec(d=2, mu=NORTH, kappa=1.0))
        band = rect_region((math.pi / 5, math.pi / 2, -math.pi, math.pi))
        expected = 0.7311 - 0.2011
        assert d.region_prob(band) == pytest.approx(expected, abs=1e-4)

    def test_mixture_distribution_samples(self):
        d = VmfMixtureDistribution(TABLE4_MIXTURE)
        s = d.sample(100, SeededRng(16))
        assert isinstance(s, SampleS1) and s.n == 100

    def test_spec_type_validation(self):
        with pytest.raises(ValueError):
            VmfSpec(d=2, mu=point_from_angle(0.0), kappa=1.0)
        with pytest.raises(ValueError):
            VmfSpec(d=1, mu=point_from_angle(0.0), kappa=0.0)


def test_sample_types():
    assert isinstance(sample_uniform(1, 3, SeededRng(17)), SampleS1)
    assert isinstance(sample_uniform(2, 3, SeededRng(17)), SampleS2)
