import math

import numpy as np
import pytest
from scipy.special import eval_legendre, lpmv

from sphkde import _kernels
from sphkde.geometry import arc_region, point_from_angle, rect_region, sphere_from_xyz
from sphkde.kde import kde_eval_s1, kde_eval_s2, make_config
from sphkde.evaluation import (
    bench_integration,
    bin_counts,
    chi2_statistic,
    chi2_threshold,
    empirical_frequency,
    equal_mass_angle_edges,
    equal_mass_cosine_edges,
    estimate_mise,
    integrated_squared_error,
    run_probability_table,
)
from sphkde.probability import adaptive_simpson, prob_arc_s1, prob_rect_s2
from sphkde.sampling import (
    SeededRng,
    UniformDistribution,
    VmfDistribution,
    VmfSpec,
    vmf_density,
)
from sphkde.specfun import sh_norm_const

NORTH = sphere_from_xyz(0.0, 0.0, 1.0)


class TestIntegratedSquaredError:
    def test_zero_when_truth_equals_estimate(self):
        dist = UniformDistribution(2)
        sample = dist.sample(50, SeededRng(0))
        cfg = make_config(2, 1.0, 50)
        ise = integrated_squared_error(lambda pts: kde_eval_s2(sample, cfg, pts), sample, cfg)
        assert ise == pytest.approx(0.0, abs=1e-12)
        sample1 = UniformDistribution(1).sample(50, SeededRng(1))
        cfg1 = make_config(1, 1.0, 50)
        ise1 = integrated_squared_error(lambda t: kde_eval_s1(sample1, cfg1, t), sample1, cfg1)
        assert ise1 == pytest.approx(0.0, abs=1e-12)

    def test_grid_refinement_converged(self):
        dist = VmfDistribution(VmfSpec(d=2, mu=NORTH, kappa=1.0))
        sample = dist.sample(200, SeededRng(2))
        cfg = make_config(2, 0.5, 200)
        base = integrated_squared_error(dist.density, sample, cfg)
        fine = integrated_squared_error(dist.density, sample, cfg, u_nodes=128, phi_nodes=256)
        assert abs(base - fine) < 1e-6
        dist1 = UniformDistribution(1)
        sample1 = dist1.sample(200, SeededRng(3))
        cfg1 = make_config(1, 0.5, 200)
        base1 = integrated_squared_error(dist1.density, sample1, cfg1)
        fine1 = integrated_squared_error(dist1.density, sample1, cfg1, s1_grid=2048)
        assert abs(base1 - fine1) < 1e-6

    def test_nonnegative(self):
        dist = UniformDistribution(1)
        sample = dist.sample(30, SeededRng(4))
        assert integrated_squared_error(dist.density, sample, make_config(1, 1.0, 30)) >= 0.0


class TestEstimateMise:
    def test_single_rep_has_no_stderr(self):
        rep = estimate_mise(UniformDistribution(1), 1.0, 100, 1, base_seed=5)
        assert rep.reps == 1 and rep.stderr is None and rep.values.shape == (1,)

    def test_mean_and_stream_independence(self):
        dist = UniformDistribution(1)
        rep = estimate_mise(dist, 1.0, 100, 4, base_seed=6)
        assert rep.mean == pytest.approx(float(rep.values.mean()))
        assert len(set(np.round(rep.values, 15))) == 4
        again = estimate_mise(dist, 1.0, 100, 4, base_seed=6)
        assert np.array_equal(rep.values, again.values)

    def test_mise_decreases_with_n(self):
        dist = UniformDistribution(2)
        means = [estimate_mise(dist, 1.0, n, 6, base_seed=7).mean for n in (250, 1000, 4000)]
        assert means[0] > means[1] > means[2]

    def test_smoothness_sweep_has_interior_minimum(self):
        # for a moderately concentrated target, under- and over-smoothing both lose
        dist = VmfDistribution(VmfSpec(d=2, mu=NORTH, kappa=1.0))
        means = {s: estimate_mise(dist, s, 1000, 6, base_seed=8).mean for s in (0.5, 2.0, 8.0)}
        assert means[2.0] < means[0.5]
        assert means[2.0] < means[8.0]


class TestEmpiricalFrequency:
    def test_partition_counts_once_circle(self):
        sample = UniformDistribution(1).sample(500, SeededRng(8))
        quarters = [
            arc_region((-math.pi, -math.pi / 2)),
            arc_region((-math.pi / 2, 0.0)),
            arc_region((0.0, math.pi / 2)),
            arc_region((math.pi / 2, math.pi)),
        ]
        assert sum(empirical_frequency(sample, q) for q in quarters) == pytest.approx(1.0)

    def test_boundary_point_belongs_to_upper_region(self):
        from sphkde.kde import SampleS1

        sample = SampleS1.from_angles([0.0, math.pi])
        assert empirical_frequency(sample, arc_region((-math.pi / 2, 0.0))) == 0.0
        assert empirical_frequency(sample, arc_region((0.0, math.pi / 2))) == 0.5
        # theta = pi is picked up by the arc closed at the top
        assert empirical_frequency(sample, arc_region((math.pi / 2, math.pi))) == 0.5

    def test_partition_counts_once_sphere(self):
        sample = UniformDistribution(2).sample(400, SeededRng(9))
        halves = [
            rect_region((0.0, math.pi, -math.pi, 0.0)),
            rect_region((0.0, math.pi, 0.0, math.pi)),
        ]
        assert sum(empirical_frequency(sample, h) for h in halves) == pytest.approx(1.0)


class TestRunProbabilityTable:
    def test_uniform_sphere_table(self):
        dist = UniformDistribution(2)
        halves = [
            rect_region((0.0, math.pi, -math.pi, 0.0)),
            rect_region((0.0, math.pi, 0.0, math.pi)),
        ]
        rows = run_probability_table(dist, [0.5, 1.0, 2.0], 200, halves, seed=10)
        assert len(rows) == 2
        for s in (0.5, 1.0, 2.0):
            assert sum(r.kde_probs[s] for r in rows) == pytest.approx(1.0, abs=1e-9)
        assert sum(r.frequency for r in rows) == pytest.approx(1.0)
        for r in rows:
            assert r.true_prob == pytest.approx(0.5)

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_fit_serves_every_smoothness(self, d):
        # the table slices one fit at the largest cutoff; each config alone fits its own
        dist = VmfDistribution(VmfSpec(d=d, mu=point_from_angle(0.5) if d == 1 else NORTH, kappa=4.0))
        if d == 1:
            regions = [arc_region((-1.0, 0.5)), arc_region((2.0, -2.5), (0.7, 1.1))]
        else:
            regions = [rect_region((0.3, 1.2, -1.0, 2.0)), rect_region((2.0, 3.0, 2.5, -2.5))]
        s_values = (0.5, 1.0, 2.0)
        rows = run_probability_table(dist, s_values, 300, regions, seed=12)
        sample = dist.sample(300, SeededRng(12, stream=0))
        prob = prob_arc_s1 if d == 1 else prob_rect_s2
        assert len({make_config(d, s, 300).cutoff for s in s_values}) == 3
        for s in s_values:
            cfg = make_config(d, s, 300)
            for row, region in zip(rows, regions):
                assert row.kde_probs[s] == pytest.approx(prob(sample, cfg, region).value, abs=1e-13)

    def test_vmf_true_column_uses_analytic_oracle(self):
        from sphkde.probability import vmf_true_prob_cap

        dist = VmfDistribution(VmfSpec(d=2, mu=NORTH, kappa=1.0))
        caps = [rect_region((0.0, math.pi / 2, -math.pi, math.pi))]
        rows = run_probability_table(dist, [1.0], 150, caps, seed=11)
        assert rows[0].true_prob == pytest.approx(vmf_true_prob_cap(1.0, math.pi / 2), rel=1e-12)


class TestBenchIntegration:
    def test_report_structure(self):
        report = bench_integration([200, 400], seed=12, repeats=1)
        assert report.n_values == (200, 400)
        for row in report.rows:
            assert row.closed_seconds > 0.0 and row.quadrature_seconds > 0.0
            assert row.cutoff == make_config(2, 1.0, row.n, 6).cutoff

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            bench_integration([], seed=0)


class TestChiSquare:
    def test_statistic(self):
        assert chi2_statistic([5, 7], [6, 6]) == pytest.approx(2.0 / 6.0)

    def test_threshold_seven_dof(self):
        assert chi2_threshold(7, 0.001) == pytest.approx(24.3219, abs=1e-3)

    def test_equal_mass_angle_edges(self):
        spec = VmfSpec(d=1, mu=point_from_angle(0.0), kappa=2.0)
        edges = equal_mass_angle_edges(lambda t: vmf_density(spec, t), 8)
        assert edges[0] == -math.pi and edges[-1] == math.pi
        for lo, hi in zip(edges, edges[1:]):
            mass = adaptive_simpson(lambda t: float(vmf_density(spec, t)), lo, hi, 1e-10)
            assert mass == pytest.approx(1.0 / 8.0, abs=1e-4)

    def test_equal_mass_cosine_edges(self):
        from sphkde.probability import vmf_true_prob_cap

        edges = equal_mass_cosine_edges(1.0, 8)
        assert edges[0] == -1.0 and edges[-1] == 1.0
        for lo, hi in zip(edges, edges[1:]):
            mass = vmf_true_prob_cap(1.0, math.acos(lo)) - (
                vmf_true_prob_cap(1.0, math.acos(hi)) if hi < 1.0 else 0.0
            )
            assert mass == pytest.approx(1.0 / 8.0, abs=1e-10)

    def test_bin_counts_half_open(self):
        counts = bin_counts(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5, 1.0]))
        assert counts.tolist() == [1.0, 2.0]


class TestKernelBackends:
    """Each kernel against its sum written out term by term."""

    def test_s1_kde_values(self):
        rng = np.random.default_rng(13)
        obs = rng.uniform(-math.pi, math.pi, 200)
        pts = rng.uniform(-math.pi, math.pi, 50)
        for cutoff in (0, 12):
            gcoef = 1.0 / (1.0 + (0.3 * np.arange(1, cutoff + 1)) ** 5)
            a = _kernels.s1_kde_values(obs, gcoef, pts)
            ells = np.arange(1, cutoff + 1)[:, None, None]
            cosines = np.cos(ells * (pts[None, :, None] - obs[None, None, :]))
            b = (1.0 + 2.0 * np.einsum("l,lij->ij", gcoef, cosines)).sum(axis=1) / (
                2.0 * math.pi * obs.size
            )
            assert np.max(np.abs(a - b)) < 1e-12

    def test_s2_kde_values(self):
        rng = np.random.default_rng(14)
        obs = rng.standard_normal((150, 3))
        obs /= np.linalg.norm(obs, axis=1)[:, None]
        pts = rng.standard_normal((40, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        # both poles, and phi = pi and -pi (the sign of the zero y picks the side)
        edge = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.6, 0.0, 0.8], [-0.6, -0.0, -0.8]])
        pts = np.vstack((pts, edge))
        for sample in (obs, np.vstack((obs, edge)), edge[3:]):  # n = 150, 154 and 1
            t = np.clip(pts @ sample.T, -1.0, 1.0)
            for cutoff in (0, 1, 10, 60):
                coef = (2.0 * np.arange(cutoff + 1) + 1.0) / (4 * math.pi)
                a = _kernels.s2_kde_values(sample, coef, pts)
                b = sum(c * eval_legendre(ell, t) for ell, c in enumerate(coef)).mean(axis=1)
                assert np.max(np.abs(a - b)) < 1e-12

    def test_s1_prob_sums(self):
        rng = np.random.default_rng(15)
        obs = rng.uniform(-math.pi, math.pi, 300)
        a = _kernels.s1_prob_sums(obs, 20, -1.0, 2.0)
        b = np.array([
            sum(math.sin(ell * (2.0 - t)) - math.sin(ell * (-1.0 - t)) for t in obs)
            for ell in range(1, 21)
        ])
        assert np.max(np.abs(a - b)) < 1e-9

    def test_s2_prob_datasums(self):
        rng = np.random.default_rng(16)
        u = rng.uniform(-1, 1, 250)
        phi = rng.uniform(-math.pi, math.pi, 250)
        a0, am = _kernels.s2_prob_datasums(u, phi, 15, -0.5, 2.5)
        b0 = np.array([sh_norm_const(ell, 0) * eval_legendre(ell, u).sum() for ell in range(16)])
        bm = np.zeros((16, 16))
        for ell in range(1, 16):
            for m in range(1, ell + 1):
                az = np.sin(m * (2.5 - phi)) - np.sin(m * (-0.5 - phi))
                bm[ell, m] = sh_norm_const(ell, m) * (lpmv(m, ell, u) * az).sum()
        assert np.max(np.abs(a0 - b0)) < 1e-9
        scale = np.maximum(1.0, np.abs(bm))
        assert np.max(np.abs(am - bm) / scale) < 1e-9

    def test_normalized_alf_columns_sum_rule(self):
        # addition theorem at zero angle: Pbar_l0^2 + 2 sum_m Pbar_lm^2 = (2l+1)/(4pi).
        # At sin(theta) = 1/e and the highest supported degree, sqrt(1-u^2)^m passes
        # below the smallest double for the orders that carry most of the sum.
        u = np.cos(np.array([0.05, math.asin(1.0 / math.e), 1.2]))
        nmax = _kernels.ALF_MAX_DEGREE
        total = np.zeros(u.size)
        for m, col in _kernels.normalized_alf_columns(u, nmax):
            total += (1.0 if m == 0 else 2.0) * col[-1] ** 2
        assert np.max(np.abs(total / ((2 * nmax + 1) / (4 * math.pi)) - 1.0)) < 1e-10
