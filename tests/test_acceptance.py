"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion.  Stochastic criteria use fixed seeds and the documented corridors;
the case-study regression is skipped with a notice when the (unbundled)
datasets are absent.
"""

import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import lpmv

import sphkde
from sphkde import (
    KdeConfig,
    SeededRng,
    UniformDistribution,
    VmfMixtureDistribution,
    VmfMixtureSpec,
    VmfSpec,
    arc_region,
    assoc_legendre_integral,
    bench_integration,
    estimate_mise,
    legendre_p,
    legendre_p_expansion,
    make_config,
    point_from_angle,
    prob_arc_s1,
    prob_rect_s2,
    quadrature_prob,
    rect_region,
    sample_uniform,
    sample_vmf_mixture,
    sample_vmf_s1,
    sample_vmf_s2,
    sphere_from_xyz,
    truncation_index,
    vmf_true_prob_cap,
)
from sphkde.evaluation import (
    bin_counts,
    chi2_statistic,
    chi2_threshold,
    equal_mass_angle_edges,
    equal_mass_cosine_edges,
)
from sphkde.geometry import FULL_CIRCLE, FULL_SPHERE
from sphkde.sampling import mixture_density, vmf_density

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


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_cutoff_reproduction():
    cases = [
        ((1000, 0.5, 1, 4), 85),
        ((1000, 1.0, 1, 5), 17),
        ((1000, 2.0, 1, 6), 6),
        ((1000, 0.5, 2, 6), 19),
        ((1000, 1.0, 2, 7), 8),
        ((1000, 2.0, 2, 8), 4),
        ((691, 1.0, 1, 5), 14),
        ((1630, 0.05, 2, 6), 92),
    ]
    got = {args: truncation_index(*args) for args, _ in cases}
    ok = all(got[args] == expect for args, expect in cases)
    report(1, ok, f"cutoff indices reproduce the reference table exactly: {list(got.values())}")


def test_criterion_02_stability_golden_value():
    rec = legendre_p(60, 0.9)
    exact = float(legendre_p_expansion(60, Fraction(9, 10)))
    ok = abs(rec - 0.0317896) <= 1e-7 and abs(exact - 0.0317896) <= 1e-7
    report(
        2,
        ok,
        f"legendre_p(60, 0.9): recurrence {rec:.9f}, exact-rational expansion {exact:.9f} "
        "(both within 1e-7 of 0.0317896)",
    )


def test_criterion_03_normalization():
    rng = np.random.default_rng(300)
    worst = 0.0
    for domain in (1, 2):
        for i in range(20):
            n = int(rng.integers(5, 201))
            sample = sample_uniform(domain, n, SeededRng(3000 + i, stream=domain))
            for s in (0.5, 1.0, 2.0):
                cfg = make_config(domain, s, n)
                if domain == 1:
                    val = prob_arc_s1(sample, cfg, FULL_CIRCLE).value
                else:
                    val = prob_rect_s2(sample, cfg, FULL_SPHERE).value
                worst = max(worst, abs(val - 1.0))
    ok = worst <= 1e-9
    report(3, ok, f"full-domain closed-form probability: worst |p - 1| = {worst:.3e} (tol 1e-9)")


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(400)
    worst_small = 0.0
    count = 0
    while count < 50:  # circle instances
        n = int(rng.integers(20, 81))
        s = float(rng.uniform(0.1, 2.5))
        r = int(rng.integers(2, 9))
        try:
            cfg = make_config(1, s, n, r)
        except ValueError:
            continue
        if cfg.cutoff > 20:
            continue
        sample = sample_uniform(1, n, SeededRng(4000 + count))
        lo, hi = np.sort(rng.uniform(-math.pi, math.pi, 2))
        region = arc_region((float(lo), float(hi)))
        diff = abs(
            prob_arc_s1(sample, cfg, region).value
            - quadrature_prob(sample, cfg, region).value
        )
        worst_small = max(worst_small, diff)
        count += 1
    count = 0
    while count < 50:  # sphere instances
        n = int(rng.integers(20, 81))
        s = float(rng.uniform(0.1, 2.5))
        r = int(rng.integers(3, 9))
        try:
            cfg = make_config(2, s, n, r)
        except ValueError:
            continue
        if cfg.cutoff > 20:
            continue
        sample = sample_uniform(2, n, SeededRng(4100 + count))
        tlo, thi = np.sort(rng.uniform(0.0, math.pi, 2))
        plo, phi = np.sort(rng.uniform(-math.pi, math.pi, 2))
        region = rect_region((float(tlo), float(thi), float(plo), float(phi)))
        diff = abs(
            prob_rect_s2(sample, cfg, region).value
            - quadrature_prob(sample, cfg, region).value
        )
        worst_small = max(worst_small, diff)
        count += 1

    # earthquake regime: cutoff 92
    worst_large = 0.0
    h = 1630.0 ** (-1.0 / 2.1)
    for i in range(10):
        n = 25
        sample = sample_uniform(2, n, SeededRng(4200 + i))
        cfg = KdeConfig(dim=2, smoothness=0.05, decay=6, n_obs=n, bandwidth=h, cutoff=92)
        tlo, thi = np.sort(rng.uniform(0.0, math.pi, 2))
        plo, phi = np.sort(rng.uniform(-math.pi, math.pi, 2))
        region = rect_region((float(tlo), float(thi), float(plo), float(phi)))
        closed = prob_rect_s2(sample, cfg, region).value
        oracle = quadrature_prob(sample, cfg, region).value
        worst_large = max(worst_large, abs(closed - oracle))
    ok = worst_small <= 1e-6 and worst_large <= 1e-8
    report(
        4,
        ok,
        f"closed form vs quadrature: worst diff {worst_small:.2e} over 100 instances "
        f"(tol 1e-6); {worst_large:.2e} over 10 cutoff-92 instances (tol 1e-8)",
    )


def test_criterion_05_legendre_integral_lemma():
    rng = np.random.default_rng(500)
    worst = 0.0
    for ell in range(1, 21):
        for m in range(1, ell + 1):
            for _ in range(5):
                g1, g2 = np.sort(rng.uniform(-1.0, 1.0, 2))
                ref, _ = quad(
                    lambda u: lpmv(m, ell, u),
                    g1,
                    g2,
                    epsabs=1e-12,
                    epsrel=1e-12,
                    limit=200,
                )
                val = assoc_legendre_integral(ell, m, float(g1), float(g2))
                worst = max(worst, abs(val - ref) / max(1.0, abs(ref)))
    ok = worst <= 1e-8
    report(
        5,
        ok,
        f"closed-form order-m Legendre integrals vs adaptive quadrature: worst "
        f"relative-or-absolute error {worst:.2e} over all 1<=m<=l<=20, 5 intervals each "
        "(tol 1e-8)",
    )


def test_criterion_06_vmf_cap_table():
    true_vals = {math.pi / 2: 0.7311, math.pi / 3: 0.4551, math.pi / 4: 0.2936, math.pi / 5: 0.2011}
    oracle_worst = max(abs(vmf_true_prob_cap(1.0, t) - v) for t, v in true_vals.items())
    spec = VmfSpec(d=2, mu=NORTH, kappa=1.0)
    sample = sample_vmf_s2(spec, 1000, SeededRng(101))
    kde_worst = 0.0
    for s in (0.5, 1.0, 2.0):
        cfg = make_config(2, s, 1000)
        for t in true_vals:
            est = prob_rect_s2(sample, cfg, rect_region((0.0, t, -math.pi, math.pi))).value
            kde_worst = max(kde_worst, abs(est - vmf_true_prob_cap(1.0, t)))
    ok = oracle_worst <= 1e-4 and kde_worst <= 0.03
    report(
        6,
        ok,
        f"vMF cap pipeline: analytic oracle within {oracle_worst:.1e} of the reference "
        f"values (tol 1e-4); KDE probabilities within {kde_worst:.3f} of truth (tol 0.03)",
    )


def test_criterion_07_mise_orderings():
    uniform_ref = {0.5: 0.00643, 1.0: 0.00204, 2.0: 0.00062}
    dist = UniformDistribution(2)
    uniform_means = {
        s: estimate_mise(dist, s, 1000, 30, base_seed=700).mean for s in (0.5, 1.0, 2.0)
    }
    ordering_ok = uniform_means[2.0] < uniform_means[1.0] < uniform_means[0.5]
    corridor_ok = all(
        ref / 2.0 <= uniform_means[s] <= ref * 2.0 for s, ref in uniform_ref.items()
    )

    mixture = VmfMixtureSpec(
        weights=(0.5, 0.5),
        components=(
            VmfSpec(d=2, mu=NORTH, kappa=12.0),
            VmfSpec(d=2, mu=sphere_from_xyz(0.0, -1.0, 0.0), kappa=10.0),
        ),
    )
    mix_dist = VmfMixtureDistribution(mixture)
    mix_ref = {0.5: 0.0058, 2.0: 0.15324}
    mix_means = {s: estimate_mise(mix_dist, s, 1000, 30, base_seed=701).mean for s in (0.5, 2.0)}
    mix_ok = mix_means[0.5] < mix_means[2.0] and all(
        ref / 2.0 <= mix_means[s] <= ref * 2.0 for s, ref in mix_ref.items()
    )
    ok = ordering_ok and corridor_ok and mix_ok
    report(
        7,
        ok,
        "MISE means (30 reps, n=1000): uniform "
        + ", ".join(f"s={s:g}: {m:.5f}" for s, m in sorted(uniform_means.items()))
        + " (decreasing in s, each within 2x of reference); mixture "
        + ", ".join(f"s={s:g}: {m:.5f}" for s, m in sorted(mix_means.items()))
        + " (reversed ordering, within 2x)",
    )


def test_criterion_08_benchmark_speedup():
    n_values = list(range(1000, 10001, 1000))
    result = bench_integration(n_values, s=1.0, r=6, seed=800, repeats=5)
    speedups = [row.quadrature_seconds / row.closed_seconds for row in result.rows]
    ok = all(sp > 1.0 for sp in speedups)
    report(
        8,
        ok,
        "closed form faster than quadrature at every n in 1000..10000: speedups "
        + ", ".join(f"{sp:.1f}x" for sp in speedups),
    )


def _gof_pass_count(draw, edges_for, n=10000, nbins=8, seeds=range(10)) -> int:
    passes = 0
    for seed in seeds:
        values = draw(SeededRng(900 + seed))
        edges = edges_for()
        counts = bin_counts(values, edges)
        expected = np.full(nbins, n / nbins)
        if chi2_statistic(counts, expected) < chi2_threshold(nbins - 1, 0.001):
            passes += 1
    return passes


def test_criterion_09_sampler_goodness_of_fit():
    n = 10000
    results = {}

    results["uniform-s1"] = _gof_pass_count(
        lambda rng: sample_uniform(1, n, rng).thetas,
        lambda: np.linspace(-math.pi, math.pi, 9),
    )
    results["uniform-s2"] = _gof_pass_count(
        lambda rng: sample_uniform(2, n, rng).xyz[:, 2],
        lambda: np.linspace(-1.0, 1.0, 9),
    )
    for kappa in (1.0, 12.0):
        spec1 = VmfSpec(d=1, mu=point_from_angle(0.0), kappa=kappa)
        results[f"vmf-s1-k{kappa:g}"] = _gof_pass_count(
            lambda rng, sp=spec1: sample_vmf_s1(sp, n, rng).thetas,
            lambda sp=spec1: equal_mass_angle_edges(lambda t: vmf_density(sp, t), 8),
        )
        spec2 = VmfSpec(d=2, mu=NORTH, kappa=kappa)
        results[f"vmf-s2-k{kappa:g}"] = _gof_pass_count(
            lambda rng, sp=spec2: sample_vmf_s2(sp, n, rng).xyz[:, 2],
            lambda k=kappa: equal_mass_cosine_edges(k, 8),
        )
    results["table4-mixture"] = _gof_pass_count(
        lambda rng: sample_vmf_mixture(TABLE4_MIXTURE, n, rng).thetas,
        lambda: equal_mass_angle_edges(lambda t: mixture_density(TABLE4_MIXTURE, t), 8),
    )
    ok = all(v >= 9 for v in results.values())
    report(
        9,
        ok,
        "chi-square (8 equal-mass bins, level 0.001, 10 fixed seeds) passes per sampler: "
        + ", ".join(f"{k}: {v}/10" for k, v in results.items()),
    )


# ---------------------------------------------------------------------------
# criterion 10: case-study regression (runs only when datasets are supplied)

def _data_dir() -> Path | None:
    env = os.environ.get("SPHKDE_DATA_DIR")
    if env and Path(env).is_dir():
        return Path(env)
    local = Path(__file__).parent / "data"
    return local if local.is_dir() else None


def _read_column(path: Path, name: str) -> list[str]:
    from sphkde.cli import read_csv

    header, rows = read_csv(str(path))
    idx = header.index(name) if name in header else 0
    return [r[idx] for r in rows]


def test_criterion_10_case_study_regression():
    data = _data_dir()
    if data is None:
        pytest.skip(
            "case-study datasets not supplied; set SPHKDE_DATA_DIR to a directory with "
            "honeybee_degrees.csv, la_rain_dates.csv and earthquakes_latlon.csv to enable "
            "this regression"
        )

    from sphkde.kde import SampleS1, SampleS2
    from sphkde.geometry import latlon_to_cartesian

    failures = []

    bees = data / "honeybee_degrees.csv"
    if bees.exists():
        degs = np.array([float(v) for v in _read_column(bees, "degrees")])
        sample = SampleS1.from_angles(np.radians(degs))
        cfg = make_config(1, 1.0, sample.n, r=5)
        peak = prob_arc_s1(sample, cfg, arc_region((-1.33, 0.81))).value
        valley = prob_arc_s1(sample, cfg, arc_region((2.46, math.pi), (-math.pi, -3.03))).value
        if abs(peak - 0.4893) > 0.005:
            failures.append(f"bee peak {peak:.4f} vs 0.4893")
        if abs(valley - 0.0637) > 0.005:
            failures.append(f"bee valley {valley:.4f} vs 0.0637")

    rain = data / "la_rain_dates.csv"
    if rain.exists():
        from datetime import date as date_t

        thetas = []
        for text in _read_column(rain, "date"):
            day = date_t.fromisoformat(text.strip())
            length = 366.0 if day.year % 4 == 0 and (day.year % 100 != 0 or day.year % 400 == 0) else 365.0
            t = (day - date_t(day.year, 1, 1)).days + 0.5
            thetas.append(2.0 * math.pi * t / length - math.pi)
        sample = SampleS1.from_angles(np.array(thetas))
        cfg = make_config(1, 2.0, sample.n, r=6)
        wet = prob_arc_s1(
            sample, cfg,
            arc_region((2 * math.pi * 31 / 365 - math.pi, 2 * math.pi * 90 / 365 - math.pi)),
        ).value
        dry = prob_arc_s1(
            sample, cfg,
            arc_region((2 * math.pi * 151 / 365 - math.pi, 2 * math.pi * 304 / 365 - math.pi)),
        ).value
        if abs(wet - 0.2815) > 0.01:
            failures.append(f"rain wet-season {wet:.4f} vs 0.2815")
        if abs(dry - 0.2008) > 0.01:
            failures.append(f"rain dry-season {dry:.4f} vs 0.2008")

    quakes = data / "earthquakes_latlon.csv"
    if quakes.exists():
        lats = np.array([float(v) for v in _read_column(quakes, "latitude")])
        lons = np.array([float(v) for v in _read_column(quakes, "longitude")])
        xyz = np.array([latlon_to_cartesian(la, lo if lo != -180.0 else 180.0).xyz
                        for la, lo in zip(lats, lons)])
        sample = SampleS2.from_xyz(xyz)
        cfg = make_config(2, 0.05, sample.n, r=6)
        boxes = {
            "japan": ((31.0, 45.5, 129.4, 145.5), 0.049808),
            "chile": ((-55.6, -17.6, -75.6, -70.0), 0.043289),
            "philippines": ((5.6, 18.5, 117.2, 126.5), 0.025305),
            "ireland": ((51.7, 55.1, -10.0, -6.0), 0.000002),
        }
        for name, ((lat1, lat2, lon1, lon2), ref) in boxes.items():
            region = rect_region((
                math.pi / 2 - math.radians(lat2),
                math.pi / 2 - math.radians(lat1),
                math.radians(lon1),
                math.radians(lon2),
            ))
            est = prob_rect_s2(sample, cfg, region).value
            if abs(est - ref) > 0.10 * abs(ref):
                failures.append(f"earthquake {name} {est:.6f} vs {ref}")

    ok = not failures
    report(10, ok, "case-study regression: " + ("all reference probabilities reproduced"
                                                if ok else "; ".join(failures)))
