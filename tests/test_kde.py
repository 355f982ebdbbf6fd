import math

import numpy as np
import pytest
from scipy.special import eval_legendre

from sphkde.kde import (
    KdeConfig,
    SampleS1,
    SampleS2,
    bandwidth,
    default_decay_exponent,
    kde_eval_s1,
    kde_eval_s2,
    kde_grid_eval,
    kernel_symbol,
    make_config,
    strict_ceil,
    truncation_index,
)
from sphkde.sampling import SeededRng, sample_uniform


def brute_force_s1(thetas, cfg, t):
    """Naive double sum, independent of the package evaluation path."""
    total = 0.0
    for tj in thetas:
        inner = 1.0
        for ell in range(1, cfg.cutoff + 1):
            g = 1.0 / (1.0 + (cfg.bandwidth * ell) ** cfg.decay)
            inner += 2.0 * g * math.cos(ell * (t - tj))
        total += inner
    return total / (2.0 * math.pi * len(thetas))


def brute_force_s2(xyz, cfg, x):
    total = 0.0
    for row in xyz:
        dot = float(np.dot(row, x))
        for ell in range(cfg.cutoff + 1):
            g = 1.0 / (1.0 + (cfg.bandwidth * math.sqrt(ell * (ell + 1.0))) ** cfg.decay)
            total += (2.0 * ell + 1.0) / (4.0 * math.pi) * g * float(eval_legendre(ell, dot))
    return total / len(xyz)


class TestStrictCeil:
    @pytest.mark.parametrize("s,expected", [(0.5, 1), (1.0, 2), (2.0, 3), (2.3, 3), (0.05, 1)])
    def test_values(self, s, expected):
        assert strict_ceil(s) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            strict_ceil(0.0)


class TestDefaultDecayExponent:
    @pytest.mark.parametrize("d,s,expected", [(2, 0.5, 6), (1, 1.0, 5), (2, 2.0, 8),
                                              (1, 2.0, 6), (2, 0.05, 6), (2, 1.0, 7)])
    def test_values(self, d, s, expected):
        assert default_decay_exponent(d, s) == expected


class TestBandwidth:
    def test_formula(self):
        assert bandwidth(1000, 1.0, 2) == pytest.approx(1000.0 ** (-0.25), rel=1e-15)

    @pytest.mark.parametrize("n,s,d,approx", [(691, 1.0, 1, 0.113), (1455, 2.0, 1, 0.233),
                                              (1630, 0.05, 2, 0.0295)])
    def test_case_study_values(self, n, s, d, approx):
        assert bandwidth(n, s, d) == pytest.approx(approx, abs=5e-4)


class TestTruncationIndex:
    @pytest.mark.parametrize(
        "n,s,d,r,expected",
        [
            (1000, 0.5, 1, 4, 85),
            (1000, 1.0, 1, 5, 17),
            (1000, 2.0, 1, 6, 6),
            (1000, 0.5, 2, 6, 19),
            (1000, 1.0, 2, 7, 8),
            (1000, 2.0, 2, 8, 4),
            (691, 1.0, 1, 5, 14),
            (1630, 0.05, 2, 6, 92),
        ],
    )
    def test_reference_values(self, n, s, d, r, expected):
        assert truncation_index(n, s, d, r) == expected

    def test_nondecreasing_in_n(self):
        values = [truncation_index(n, 1.0, 2, 7) for n in range(100, 20000, 333)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_requires_r_above_d(self):
        with pytest.raises(ValueError):
            truncation_index(1000, 1.0, 2, 2)


class TestKernelSymbol:
    def test_unit_at_zero(self):
        assert kernel_symbol(6, 0.0) == 1.0

    def test_half_at_one(self):
        assert kernel_symbol(6, 1.0) == 0.5

    def test_direct_value(self):
        assert kernel_symbol(4, 2.0) == pytest.approx(1.0 / 17.0, rel=1e-15)

    def test_even(self):
        assert kernel_symbol(5, -2.5) == kernel_symbol(5, 2.5)


class TestMakeConfig:
    def test_derived_fields(self):
        cfg = make_config(2, 1.0, 1000)
        assert cfg.decay == 7 and cfg.cutoff == 8 and cfg.decay_is_default
        assert cfg.bandwidth == pytest.approx(1000.0 ** (-0.25))

    def test_decay_override_recorded(self):
        cfg = make_config(2, 1.0, 1000, r=6)
        assert cfg.decay == 6 and not cfg.decay_is_default

    def test_invalid(self):
        with pytest.raises(ValueError):
            make_config(3, 1.0, 10)
        with pytest.raises(ValueError):
            make_config(2, -1.0, 10)
        with pytest.raises(ValueError):
            make_config(2, 1.0, 10, r=2)


class TestSamples:
    def test_s1_normalizes(self):
        s = SampleS1.from_angles([0.0, 3 * math.pi, -math.pi])
        assert s.thetas[1] == pytest.approx(math.pi)
        assert s.thetas[2] == math.pi

    def test_s1_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleS1.from_angles([])

    def test_s2_rejects_non_unit(self):
        with pytest.raises(ValueError):
            SampleS2.from_xyz([[1.0, 1.0, 1.0]])

    def test_s2_from_angles_round_trip(self):
        s = SampleS2.from_angles([math.pi / 2], [math.pi / 2])
        assert s.xyz[0] == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)


class TestKdeEvalS1:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        thetas = rng.uniform(-math.pi, math.pi, 20)
        sample = SampleS1.from_angles(thetas)
        cfg = KdeConfig(dim=1, smoothness=1.0, decay=5, n_obs=20, bandwidth=0.4, cutoff=10)
        for t in rng.uniform(-math.pi, math.pi, 10):
            assert kde_eval_s1(sample, cfg, float(t)) == pytest.approx(
                brute_force_s1(thetas, cfg, float(t)), abs=1e-12
            )

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        thetas = rng.uniform(-1.0, 1.0, 15)
        cfg = KdeConfig(dim=1, smoothness=1.0, decay=5, n_obs=15, bandwidth=0.3, cutoff=6)
        delta = 0.37
        v1 = kde_eval_s1(SampleS1.from_angles(thetas), cfg, 0.4)
        v2 = kde_eval_s1(SampleS1.from_angles(thetas + delta), cfg, 0.4 + delta)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_single_observation_single_frequency(self):
        # value at pi/2 collapses to the base level 1/(2 pi)
        sample = SampleS1.from_angles([0.0])
        cfg = KdeConfig(dim=1, smoothness=1.0, decay=5, n_obs=1, bandwidth=0.5, cutoff=1)
        assert kde_eval_s1(sample, cfg, math.pi / 2) == pytest.approx(1.0 / (2 * math.pi), abs=1e-14)

    def test_dimension_mismatch(self):
        sample = SampleS1.from_angles([0.0])
        with pytest.raises(ValueError):
            kde_eval_s1(sample, make_config(2, 1.0, 1), 0.0)

    def test_sample_size_mismatch(self):
        sample = SampleS1.from_angles([0.0, 1.0])
        with pytest.raises(ValueError):
            kde_eval_s1(sample, make_config(1, 1.0, 3), 0.0)

    def test_array_input(self):
        sample = SampleS1.from_angles([0.5, -0.5])
        cfg = make_config(1, 1.0, 2)
        pts = np.array([0.0, 0.3, 2.0])
        vals = kde_eval_s1(sample, cfg, pts)
        assert vals.shape == (3,)
        assert vals[1] == pytest.approx(kde_eval_s1(sample, cfg, 0.3), abs=1e-15)


class TestKdeEvalS2:
    def test_matches_brute_force(self):
        sample = sample_uniform(2, 15, SeededRng(2))
        cfg = KdeConfig(dim=2, smoothness=1.0, decay=6, n_obs=15, bandwidth=0.4, cutoff=9)
        rng = np.random.default_rng(3)
        for _ in range(8):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            assert kde_eval_s2(sample, cfg, v) == pytest.approx(
                brute_force_s2(sample.xyz, cfg, v), abs=1e-12
            )

    def test_self_evaluation_closed_form(self):
        # single observation evaluated at itself: (1/4pi) sum (2l+1) g_l
        sample = SampleS2.from_xyz([[0.0, 0.0, 1.0]])
        cfg = KdeConfig(dim=2, smoothness=1.0, decay=6, n_obs=1, bandwidth=0.5, cutoff=4)
        expected = sum(
            (2 * ell + 1) / (4 * math.pi) / (1.0 + (0.5 * math.sqrt(ell * (ell + 1))) ** 6)
            for ell in range(5)
        )
        assert kde_eval_s2(sample, cfg, np.array([0.0, 0.0, 1.0])) == pytest.approx(expected, rel=1e-13)

    def test_rotation_equivariance(self):
        from scipy.spatial.transform import Rotation

        sample = sample_uniform(2, 40, SeededRng(4))
        cfg = make_config(2, 1.0, 40)
        rng = np.random.default_rng(5)
        for _ in range(5):
            rot = Rotation.random(rng=rng).as_matrix()
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            rotated = SampleS2.from_xyz(sample.xyz @ rot.T)
            v1 = kde_eval_s2(sample, cfg, x)
            v2 = kde_eval_s2(rotated, cfg, rot @ x)
            assert v1 == pytest.approx(v2, abs=1e-10)

    def test_dimension_mismatch(self):
        sample = SampleS2.from_xyz([[0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            kde_eval_s2(sample, make_config(1, 1.0, 1), np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("x", [[0.0, 0.0, 2.0], [[0.0, 0.0, 1.0], [0.6, 0.0, 0.6]]])
    def test_points_must_be_unit_vectors(self, x):
        sample = SampleS2.from_xyz([[0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="unit vectors"):
            kde_eval_s2(sample, make_config(2, 1.0, 1), np.array(x))


class TestGridEval:
    def test_grid_matches_pointwise(self):
        sample = sample_uniform(1, 30, SeededRng(6))
        cfg = make_config(1, 1.0, 30)
        pts, vals = kde_grid_eval(sample, cfg, n_points=16)
        for p, v in zip(pts, vals):
            # same kernel either way; the numpy fallback's blocked reductions
            # may differ from a single-point call in the last ulp
            assert v == pytest.approx(kde_eval_s1(sample, cfg, float(p)), rel=1e-15, abs=0.0)

    def test_plotting_resolution_step(self):
        sample = sample_uniform(2, 10, SeededRng(7))
        cfg = make_config(2, 1.0, 10)
        thetas, phis, vals = kde_grid_eval(sample, cfg, n_theta=33, n_phi=65)
        assert vals.shape == (33, 65)
        assert thetas[1] - thetas[0] == pytest.approx(math.pi / 32)
        assert phis[1] - phis[0] == pytest.approx(math.pi / 32)

    def test_symmetric_for_centered_sample(self):
        sample = SampleS1.from_angles([0.0])
        cfg = KdeConfig(dim=1, smoothness=1.0, decay=5, n_obs=1, bandwidth=0.5, cutoff=3)
        pts, vals = kde_grid_eval(sample, cfg, n_points=64)
        lookup = {round(p, 12): v for p, v in zip(pts, vals)}
        for p, v in lookup.items():
            if -p in lookup:
                assert v == pytest.approx(lookup[-p], abs=1e-12)

    def test_degenerate_grid_rejected(self):
        sample = sample_uniform(1, 5, SeededRng(8))
        with pytest.raises(ValueError):
            kde_grid_eval(sample, make_config(1, 1.0, 5), n_points=1)
        s2 = sample_uniform(2, 5, SeededRng(9))
        with pytest.raises(ValueError):
            kde_grid_eval(s2, make_config(2, 1.0, 5), n_theta=1, n_phi=5)
