"""Experiment harness: integrated squared error, MISE replication studies,
probability summary tables, the closed-form vs quadrature timing benchmark,
and chi-square goodness-of-fit helpers.

Replications draw from consecutive RNG streams, so results do not depend on
execution order and each replicate can be reproduced in isolation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtri

from .geometry import ArcRegion, RectRegion, rect_region
from .kde import KdeConfig, fit, make_config
from .probability import closed_prob, prob_rect_s2, quadrature_prob
from .sampling import SeededRng, UniformDistribution


@dataclass(frozen=True)
class MiseReport:
    """Replicated integrated-squared-error summary for one smoothness level."""
    smoothness: float
    reps: int
    n: int
    values: np.ndarray
    mean: float
    stderr: float | None


@dataclass(frozen=True)
class BenchRow:
    n: int
    cutoff: int
    closed_seconds: float
    quadrature_seconds: float


@dataclass(frozen=True)
class BenchReport:
    """Median wall times of the two probability methods across sample sizes."""
    rows: tuple[BenchRow, ...]
    region: RectRegion
    smoothness: float
    decay: int
    repeats: int
    seed: int

    @property
    def n_values(self) -> tuple[int, ...]:
        return tuple(r.n for r in self.rows)


# node-count floors of the ISE grids; each grid grows with the cutoff L so that
# it integrates the squared estimate, of degree 2L, exactly
ISE_S1_GRID = 1024
ISE_S2_U_NODES = 64
ISE_S2_PHI_NODES = 128


def integrated_squared_error(true_density, sample, cfg: KdeConfig) -> float:
    """Quadrature of (estimate - truth)^2 over the whole domain.

    Circle: trapezoid on max(1024, 2L + 2) equispaced angles (spectrally exact
    over the full period).  Sphere: max(64, L + 1) Gauss-Legendre nodes in
    cos(theta) crossed with a max(128, 2L + 2)-point full-period trapezoid in
    phi.  At cutoff L both rules integrate the squared estimate exactly.
    """
    f = fit(sample, cfg.cutoff)
    if cfg.dim == 1:
        s1_points = max(ISE_S1_GRID, 2 * cfg.cutoff + 2)
        pts = -math.pi + 2.0 * math.pi * np.arange(s1_points) / s1_points
        fhat = f.density(cfg, pts)
        diff = fhat - np.asarray(true_density(pts), dtype=np.float64)
        return float(np.sum(diff * diff) * (2.0 * math.pi / s1_points))
    n_u = max(ISE_S2_U_NODES, cfg.cutoff + 1)
    n_phi = max(ISE_S2_PHI_NODES, 2 * cfg.cutoff + 2)
    un, uw = np.polynomial.legendre.leggauss(n_u)
    phis = -math.pi + 2.0 * math.pi * np.arange(n_phi) / n_phi
    ug, pg = np.meshgrid(un, phis, indexing="ij")
    st = np.sqrt(1.0 - ug * ug)
    pts = np.stack((st * np.cos(pg), st * np.sin(pg), ug), axis=-1).reshape(-1, 3)
    fhat = f.density(cfg, ug.ravel(), pg.ravel())
    diff = fhat - np.asarray(true_density(pts), dtype=np.float64)
    sq = (diff * diff).reshape(n_u, n_phi)
    return float(uw @ sq.sum(axis=1) * (2.0 * math.pi / n_phi))


def estimate_mise(
    dist, s: float, n: int, reps: int, base_seed: int, r: int | None = None
) -> MiseReport:
    """Mean integrated squared error over independent replicated samples.

    Replicate k draws from stream id k of ``base_seed``; the reduction is a
    plain mean plus the standard error (absent for a single replicate).
    """
    if reps < 1:
        raise ValueError(f"need at least one replicate, got {reps}")
    cfg = make_config(dist.d, s, n, r)
    values = np.empty(reps)
    for k in range(reps):
        sample = dist.sample(n, SeededRng(base_seed, stream=k))
        values[k] = integrated_squared_error(dist.density, sample, cfg)
    stderr = float(np.std(values, ddof=1) / math.sqrt(reps)) if reps > 1 else None
    return MiseReport(
        smoothness=s, reps=reps, n=n, values=values, mean=float(np.mean(values)), stderr=stderr
    )


def empirical_frequency(sample, region) -> float:
    """Fraction of observations inside the region.

    Boundary convention: intervals are half-open [lo, hi) in each coordinate,
    except that intervals reaching the top of the coordinate range (pi) are
    closed there, so a partition of the domain counts every point exactly once.
    """
    if isinstance(region, ArcRegion):
        inside = np.zeros(sample.n, dtype=bool)
        for lo, hi in region.arcs:
            upper = sample.thetas <= hi if hi >= math.pi else sample.thetas < hi
            inside |= (sample.thetas >= lo) & upper
        return float(inside.sum()) / sample.n
    inside = np.zeros(sample.n, dtype=bool)
    for tlo, thi, plo, phi in region.rects:
        t_ok = (sample.thetas >= tlo) & (
            sample.thetas <= thi if thi >= math.pi else sample.thetas < thi
        )
        p_ok = (sample.phis >= plo) & (
            sample.phis <= phi if phi >= math.pi else sample.phis < phi
        )
        inside |= t_ok & p_ok
    return float(inside.sum()) / sample.n


@dataclass(frozen=True)
class ProbTableRow:
    region: ArcRegion | RectRegion
    kde_probs: dict = field(repr=False)
    frequency: float
    true_prob: float


def run_probability_table(
    dist, s_values, n: int, regions, seed: int, r: int | None = None
) -> list[ProbTableRow]:
    """Closed-form, empirical and true probabilities per region and smoothness, from one fit."""
    sample = dist.sample(n, SeededRng(seed, stream=0))
    configs = {s: make_config(dist.d, s, n, r) for s in s_values}
    f = fit(sample, max((cfg.cutoff for cfg in configs.values()), default=0))
    rows = []
    for region in regions:
        rows.append(
            ProbTableRow(
                region=region,
                kde_probs={s: closed_prob(f, cfg, region) for s, cfg in configs.items()},
                frequency=empirical_frequency(sample, region),
                true_prob=dist.region_prob(region),
            )
        )
    return rows


DEFAULT_BENCH_REGION = rect_region((math.pi / 4, 3 * math.pi / 4, -math.pi / 2, math.pi / 2))


def bench_integration(
    n_values,
    s: float = 1.0,
    r: int = 6,
    region: RectRegion | None = None,
    seed: int = 0,
    repeats: int = 5,
) -> BenchReport:
    """Time closed-form vs quadrature sphere probabilities on uniform samples.

    One untimed warm-up call per configuration precedes ``repeats`` timed
    calls of each method; rows report the medians.
    """
    if not n_values:
        raise ValueError("need at least one sample size")
    if repeats < 1:
        raise ValueError(f"need at least one repetition, got {repeats}")
    region = DEFAULT_BENCH_REGION if region is None else region
    dist = UniformDistribution(2)
    rows = []
    for i, n in enumerate(n_values):
        sample = dist.sample(n, SeededRng(seed, stream=i))
        cfg = make_config(2, s, n, r)
        prob_rect_s2(sample, cfg, region)
        quadrature_prob(sample, cfg, region)
        closed_times = []
        quad_times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            prob_rect_s2(sample, cfg, region)
            closed_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            quadrature_prob(sample, cfg, region)
            quad_times.append(time.perf_counter() - t0)
        rows.append(
            BenchRow(
                n=n,
                cutoff=cfg.cutoff,
                closed_seconds=float(np.median(closed_times)),
                quadrature_seconds=float(np.median(quad_times)),
            )
        )
    return BenchReport(
        rows=tuple(rows), region=region, smoothness=s, decay=r, repeats=repeats, seed=seed
    )


# ---------------------------------------------------------------------------
# goodness of fit

def chi2_statistic(counts, expected) -> float:
    counts = np.asarray(counts, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return float(np.sum((counts - expected) ** 2 / expected))


def chi2_threshold(df: int, level: float = 0.001) -> float:
    """Upper critical value at the given significance level."""
    return float(chdtri(df, level))


def equal_mass_angle_edges(density, nbins: int) -> np.ndarray:
    """Circle bin edges with equal probability mass under the given density."""
    grid = np.linspace(-math.pi, math.pi, 200001)
    pdf = np.asarray(density(grid), dtype=np.float64)
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))))
    cdf /= cdf[-1]
    qs = np.linspace(0.0, 1.0, nbins + 1)
    edges = np.interp(qs, cdf, grid)
    edges[0], edges[-1] = -math.pi, math.pi
    return edges


def equal_mass_cosine_edges(kappa: float, nbins: int) -> np.ndarray:
    """Equal-mass edges of t = <x, mu> for a sphere vMF law (any mean direction)."""
    qs = np.linspace(0.0, 1.0, nbins + 1)
    with np.errstate(divide="ignore"):
        edges = 1.0 + np.log(qs + (1.0 - qs) * math.exp(-2.0 * kappa)) / kappa
    edges[0], edges[-1] = -1.0, 1.0
    return edges


def bin_counts(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Histogram with [lo, hi) bins, top bin closed."""
    idx = np.searchsorted(edges, values, side="right") - 1
    idx = np.clip(idx, 0, edges.size - 2)
    return np.bincount(idx, minlength=edges.size - 1).astype(np.float64)
