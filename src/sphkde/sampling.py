"""Seeded samplers for the uniform and von Mises-Fisher laws on the circle and
sphere, their densities, and mixture variants.

Every sampler draws from a numpy PCG64 generator keyed by (seed, stream), so
identical keys reproduce identical output across runs; replicated experiments
use consecutive stream ids.  Circle vMF draws use Best-Fisher rejection from
a wrapped-Cauchy envelope; sphere vMF draws invert the analytic CDF of the
cosine coordinate.  Mean directions other than the reference axis are reached
by a final rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e

from .geometry import CirclePoint, SpherePoint
from .kde import SampleS1, SampleS2


@dataclass(frozen=True)
class SeededRng:
    """Reproducible stream key: a 64-bit seed plus a stream id."""
    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class VmfSpec:
    """A von Mises-Fisher law: dimension, mean direction, concentration."""
    d: int
    mu: CirclePoint | SpherePoint
    kappa: float

    def __post_init__(self) -> None:
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if self.kappa <= 0.0:
            raise ValueError(f"concentration must be positive, got {self.kappa}")
        expected = CirclePoint if self.d == 1 else SpherePoint
        if not isinstance(self.mu, expected):
            raise ValueError(f"mean direction type {type(self.mu).__name__} does not match d={self.d}")


@dataclass(frozen=True)
class VmfMixtureSpec:
    """A finite vMF mixture; weights sum to one and components share a dimension."""
    weights: tuple[float, ...]
    components: tuple[VmfSpec, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.components) or not self.components:
            raise ValueError("weights and components must be non-empty and aligned")
        if any(w < 0.0 for w in self.weights) or max(self.weights) <= 0.0:
            raise ValueError("weights must be non-negative with at least one positive")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)!r}")
        dims = {c.d for c in self.components}
        if len(dims) != 1:
            raise ValueError("mixture components must share one dimension")

    @property
    def d(self) -> int:
        return self.components[0].d


def _gaussian_unit_rows(gen: np.random.Generator, n: int, dim: int) -> np.ndarray:
    out = np.empty((n, dim))
    need = np.arange(n)
    while need.size:
        z = gen.standard_normal((need.size, dim))
        norms = np.linalg.norm(z, axis=1)
        ok = norms > 0.0
        out[need[ok]] = z[ok] / norms[ok, None]
        need = need[~ok]
    return out


def sample_uniform(d: int, n: int, rng: SeededRng) -> SampleS1 | SampleS2:
    """n independent uniform draws on the circle (d=1) or sphere (d=2)."""
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    gen = rng.generator()
    rows = _gaussian_unit_rows(gen, n, d + 1)
    meta = dict(source=f"uniform-s{d}", seed=rng.seed, stream=rng.stream)
    if d == 1:
        return SampleS1.from_angles(np.arctan2(rows[:, 1], rows[:, 0]), **meta)
    return SampleS2.from_xyz(rows, **meta)


def _best_fisher_angles(gen: np.random.Generator, kappa: float, n: int) -> tuple[np.ndarray, int]:
    """Best-Fisher rejection draws of vM angles about 0; returns (angles, trials)."""
    tau = 1.0 + math.sqrt(1.0 + 4.0 * kappa * kappa)
    rho = (tau - math.sqrt(2.0 * tau)) / (2.0 * kappa)
    rr = (1.0 + rho * rho) / (2.0 * rho)
    out = np.empty(n)
    trials = 0
    for i in range(n):
        while True:
            trials += 1
            u1, u2, u3 = gen.random(3)
            z = math.cos(math.pi * u1)
            f = (1.0 + rr * z) / (rr + z)
            c = kappa * (rr - f)
            if c * (2.0 - c) - u2 > 0.0:
                break
            if u2 > 0.0 and math.log(c / u2) + 1.0 - c >= 0.0:
                break
        out[i] = math.copysign(math.acos(f), u3 - 0.5)
    return out, trials


def sample_vmf_s1(spec: VmfSpec, n: int, rng: SeededRng) -> SampleS1:
    """n von Mises draws on the circle with the spec's mean and concentration."""
    if spec.d != 1:
        raise ValueError("spec must have d=1")
    gen = rng.generator()
    angles, _ = _best_fisher_angles(gen, spec.kappa, n)
    return SampleS1.from_angles(
        angles + spec.mu.theta,
        source=f"vmf-s1-kappa{spec.kappa:g}",
        seed=rng.seed,
        stream=rng.stream,
    )


def _vmf_s2_rows(gen: np.random.Generator, spec: VmfSpec, n: int) -> np.ndarray:
    kappa = spec.kappa
    phi = gen.uniform(-math.pi, math.pi, n)
    u = gen.random(n)
    w = 1.0 + np.log(u + (1.0 - u) * math.exp(-2.0 * kappa)) / kappa
    np.clip(w, -1.0, 1.0, out=w)
    st = np.sqrt(1.0 - w * w)
    rows = np.column_stack((np.cos(phi) * st, np.sin(phi) * st, w))
    m1, m2, m3 = spec.mu.x1, spec.mu.x2, spec.mu.x3
    if 1.0 + m3 < 1e-14:
        rot = -np.eye(3)
    else:
        rot = np.array(
            [
                [1.0 - m1 * m1 / (1.0 + m3), -m1 * m2 / (1.0 + m3), -m1],
                [-m1 * m2 / (1.0 + m3), 1.0 - m2 * m2 / (1.0 + m3), -m2],
                [m1, m2, m3],
            ]
        )
    rows = rows @ rot
    # rotation is orthogonal up to roundoff; renormalize to keep the invariant tight
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    return rows


def sample_vmf_s2(spec: VmfSpec, n: int, rng: SeededRng) -> SampleS2:
    """n von Mises-Fisher draws on the sphere via the analytic inverse CDF."""
    if spec.d != 2:
        raise ValueError("spec must have d=2")
    gen = rng.generator()
    rows = _vmf_s2_rows(gen, spec, n)
    return SampleS2.from_xyz(
        rows,
        source=f"vmf-s2-kappa{spec.kappa:g}",
        seed=rng.seed,
        stream=rng.stream,
    )


def sample_vmf_mixture(spec: VmfMixtureSpec, n: int, rng: SeededRng) -> SampleS1 | SampleS2:
    """n draws from a vMF mixture; the component of each draw is recorded."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if len(spec.components) == 1:
        base = (sample_vmf_s1 if spec.d == 1 else sample_vmf_s2)(spec.components[0], n, rng)
        object.__setattr__(base, "components", np.zeros(n, dtype=np.int64))
        return base
    gen = rng.generator()
    idx = gen.choice(len(spec.components), size=n, p=np.asarray(spec.weights))
    meta = dict(source="vmf-mixture", seed=rng.seed, stream=rng.stream, components=idx)
    if spec.d == 1:
        out = np.empty(n)
        for i, comp in enumerate(spec.components):
            mask = idx == i
            if mask.any():
                angles, _ = _best_fisher_angles(gen, comp.kappa, int(mask.sum()))
                out[mask] = angles + comp.mu.theta
        return SampleS1.from_angles(out, **meta)
    rows = np.empty((n, 3))
    for i, comp in enumerate(spec.components):
        mask = idx == i
        if mask.any():
            rows[mask] = _vmf_s2_rows(gen, comp, int(mask.sum()))
    return SampleS2.from_xyz(rows, **meta)


# ---------------------------------------------------------------------------
# densities

def _vmf_density_s1(kappa: float, mu_theta: float, theta) -> np.ndarray | float:
    t = np.cos(np.asarray(theta, dtype=np.float64) - mu_theta)
    val = np.exp(kappa * (t - 1.0)) / (2.0 * math.pi * i0e(kappa))
    return float(val) if val.ndim == 0 else val


def _vmf_density_s2(kappa: float, mu_xyz: np.ndarray, x) -> np.ndarray | float:
    pts = np.asarray(x, dtype=np.float64)
    t = pts @ mu_xyz
    val = kappa * np.exp(kappa * (t - 1.0)) / (2.0 * math.pi * (-math.expm1(-2.0 * kappa)))
    return float(val) if np.ndim(val) == 0 else val


def vmf_density(spec: VmfSpec, x) -> np.ndarray | float:
    """vMF density at a point (angle / unit vector) or an array of points."""
    if spec.d == 1:
        theta = x.theta if isinstance(x, CirclePoint) else x
        return _vmf_density_s1(spec.kappa, spec.mu.theta, theta)
    pts = np.array(x.xyz) if isinstance(x, SpherePoint) else x
    return _vmf_density_s2(spec.kappa, np.array(spec.mu.xyz), pts)


def mixture_density(spec: VmfMixtureSpec, x) -> np.ndarray | float:
    """Weighted sum of the component vMF densities."""
    return sum(w * vmf_density(c, x) for w, c in zip(spec.weights, spec.components))


# ---------------------------------------------------------------------------
# distribution wrappers used by the evaluation harness

class UniformDistribution:
    """Uniform law on the circle or sphere: sampler, density and exact probabilities."""

    def __init__(self, d: int):
        if d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {d}")
        self.d = d
        self._density = 1.0 / (2.0 * math.pi) if d == 1 else 1.0 / (4.0 * math.pi)

    def sample(self, n: int, rng: SeededRng):
        return sample_uniform(self.d, n, rng)

    def density(self, x):
        arr = np.asarray(x, dtype=np.float64)
        shape = arr.shape[:-1] if self.d == 2 and arr.ndim > 1 else arr.shape
        if shape == ():
            return self._density
        return np.full(shape, self._density)

    def region_prob(self, region) -> float:
        total = 2.0 * math.pi if self.d == 1 else 4.0 * math.pi
        return region.measure() / total


class VmfDistribution:
    """vMF law wrapper with an analytic polar-cap oracle on the sphere."""

    def __init__(self, spec: VmfSpec):
        self.spec = spec
        self.d = spec.d

    def sample(self, n: int, rng: SeededRng):
        return (sample_vmf_s1 if self.d == 1 else sample_vmf_s2)(self.spec, n, rng)

    def density(self, x):
        return vmf_density(self.spec, x)

    def region_prob(self, region) -> float:
        from .probability import vmf_true_prob_cap

        if self.d == 2:
            north = self.spec.mu.x1 == 0.0 and self.spec.mu.x2 == 0.0 and self.spec.mu.x3 == 1.0
            if north and all(
                plo == -math.pi and phi == math.pi for _, _, plo, phi in region.rects
            ):
                total = 0.0
                for tlo, thi, _, _ in region.rects:
                    hi = vmf_true_prob_cap(self.spec.kappa, thi)
                    lo = vmf_true_prob_cap(self.spec.kappa, tlo) if tlo > 0.0 else 0.0
                    total += hi - lo
                return total
        return _numeric_region_prob(self.density, self.d, region)


class VmfMixtureDistribution:
    """vMF mixture wrapper; probabilities come from high-resolution quadrature."""

    def __init__(self, spec: VmfMixtureSpec):
        self.spec = spec
        self.d = spec.d

    def sample(self, n: int, rng: SeededRng):
        return sample_vmf_mixture(self.spec, n, rng)

    def density(self, x):
        return mixture_density(self.spec, x)

    def region_prob(self, region) -> float:
        return _numeric_region_prob(self.density, self.d, region)


def _numeric_region_prob(density, d: int, region) -> float:
    from .probability import adaptive_simpson, gauss_nodes

    if d == 1:
        return sum(
            adaptive_simpson(lambda t: float(density(t)), lo, hi, 1e-11)
            for lo, hi in region.arcs
        )
    total = 0.0
    for tlo, thi, plo, phi in region.rects:
        tn, tw = gauss_nodes(192, tlo, thi)
        pn, pw = gauss_nodes(384, plo, phi)
        tg, pg = np.meshgrid(tn, pn, indexing="ij")
        st = np.sin(tg)
        pts = np.stack(
            (st * np.cos(pg), st * np.sin(pg), np.cos(tg)), axis=-1
        ).reshape(-1, 3)
        vals = np.asarray(density(pts)).reshape(tn.size, pn.size)
        total += float((tw * np.sin(tn)) @ vals @ pw)
    return total
