"""Finite-order kernel density estimators on the circle and the sphere.

The estimators truncate the spectral expansion at a cutoff index chosen from
the sample size, the assumed smoothness and the symbol's decay exponent, so
that truncation does not degrade the convergence rate.  Estimates may dip
slightly below zero; values are reported as-is because clipping would break
the closed-form integration identities used for region probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .geometry import SpherePoint, cartesian_to_angles, normalize_angles
from .specfun import NumericalError


def strict_ceil(s: float) -> int:
    """Smallest integer strictly greater than s (so strict_ceil(2) == 3)."""
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError(f"expected a positive finite value, got {s}")
    return math.floor(s) + 1


def default_decay_exponent(d: int, s: float) -> int:
    """Default symbol decay exponent 2d + strict_ceil(s) + 1."""
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    return 2 * d + strict_ceil(s) + 1


def bandwidth(n: int, s: float, d: int) -> float:
    """Smoothing scale n^(-1/(2s+d))."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    return float(n) ** (-1.0 / (2.0 * s + d))


def truncation_index(n: int, s: float, d: int, r: int) -> int:
    """Spectral cutoff floor((n^((s+r)/(2s+d)) / (d pi (r-d)))^(1/(r-d))) + 1."""
    if r <= d:
        raise ValueError(f"decay exponent must exceed the dimension, got r={r}, d={d}")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    inner = float(n) ** ((s + r) / (2.0 * s + d)) / (d * math.pi * (r - d))
    return int(math.floor(inner ** (1.0 / (r - d)))) + 1


def kernel_symbol(r: int, lam: float) -> float:
    """The spectral weight 1 / (1 + |lambda|^r); equals 1 at lambda = 0."""
    if r < 1:
        raise ValueError(f"decay exponent must be >= 1, got {r}")
    return 1.0 / (1.0 + abs(lam) ** r)


@dataclass(frozen=True)
class KdeConfig:
    """Estimator configuration with the derived bandwidth and cutoff index."""
    dim: int
    smoothness: float
    decay: int
    n_obs: int
    bandwidth: float
    cutoff: int
    decay_is_default: bool = True


def make_config(d: int, s: float, n: int, r: int | None = None) -> KdeConfig:
    """Build a :class:`KdeConfig`; the decay exponent defaults from (d, s)."""
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    if not (s > 0.0):
        raise ValueError(f"smoothness must be positive, got {s}")
    defaulted = r is None
    if defaulted:
        r = default_decay_exponent(d, s)
    if r <= d:
        raise ValueError(f"decay exponent must exceed the dimension, got r={r}, d={d}")
    return KdeConfig(
        dim=d,
        smoothness=float(s),
        decay=int(r),
        n_obs=int(n),
        bandwidth=bandwidth(n, s, d),
        cutoff=truncation_index(n, s, d, r),
        decay_is_default=defaulted,
    )


@dataclass(frozen=True)
class SampleS1:
    """Observations on the circle: polar angles in (-pi, pi] plus provenance."""
    thetas: np.ndarray
    source: str | None = None
    seed: int | None = None
    stream: int | None = None
    components: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return int(self.thetas.size)

    @staticmethod
    def from_angles(thetas, **meta) -> "SampleS1":
        arr = normalize_angles(np.asarray(thetas, dtype=np.float64).ravel())
        if arr.size == 0:
            raise ValueError("sample must be non-empty")
        return SampleS1(arr, **meta)


@dataclass(frozen=True)
class SampleS2:
    """Observations on the sphere: unit vectors with cached spherical coordinates."""
    xyz: np.ndarray
    thetas: np.ndarray
    phis: np.ndarray
    source: str | None = None
    seed: int | None = None
    stream: int | None = None
    components: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return int(self.xyz.shape[0])

    @staticmethod
    def from_xyz(xyz, **meta) -> "SampleS2":
        arr = np.asarray(xyz, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
            raise ValueError(f"expected a non-empty (n, 3) array, got shape {arr.shape}")
        nrm2 = np.einsum("ij,ij->i", arr, arr)
        worst = float(np.max(np.abs(nrm2 - 1.0)))
        if not worst <= 1e-9:  # also rejects NaN rows
            raise ValueError(f"rows must be unit vectors; worst |x|^2 - 1 = {worst:g}")
        theta, phi = cartesian_to_angles(arr)
        return SampleS2(arr, theta, phi, **meta)

    @staticmethod
    def from_angles(thetas, phis, **meta) -> "SampleS2":
        thetas = np.asarray(thetas, dtype=np.float64).ravel()
        phis = normalize_angles(np.asarray(phis, dtype=np.float64).ravel())
        if thetas.size == 0 or thetas.size != phis.size:
            raise ValueError("theta and phi arrays must be non-empty and aligned")
        if not np.all((thetas >= 0.0) & (thetas <= math.pi)):  # also rejects NaN
            raise ValueError("inclinations must lie in [0, pi]")
        st = np.sin(thetas)
        xyz = np.column_stack((st * np.cos(phis), st * np.sin(phis), np.cos(thetas)))
        return SampleS2(xyz, thetas, phis, **meta)


def s1_symbol_coefs(cfg: KdeConfig) -> np.ndarray:
    """g(h * l) for l = 1..cutoff."""
    ells = np.arange(1, cfg.cutoff + 1, dtype=np.float64)
    return 1.0 / (1.0 + (cfg.bandwidth * ells) ** cfg.decay)


def s2_symbol_coefs(cfg: KdeConfig) -> np.ndarray:
    """g(h * sqrt(l(l+1))) for l = 0..cutoff."""
    ells = np.arange(0, cfg.cutoff + 1, dtype=np.float64)
    lam = cfg.bandwidth * np.sqrt(ells * (ells + 1.0))
    return 1.0 / (1.0 + lam ** cfg.decay)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class SpectralFit:
    """A sample's moments up to degree ``nmax`` (``_kernels.s1_moments``, ``s2_moments``).

    Sufficient statistics of every estimator with cutoff <= nmax, whatever its
    smoothness, bandwidth or decay exponent.
    """
    dim: int
    n: int
    nmax: int
    cos: np.ndarray = field(repr=False)
    sin: np.ndarray = field(repr=False)

    def moments(self, cfg: KdeConfig) -> tuple[np.ndarray, np.ndarray]:
        """The moments up to ``cfg.cutoff``, once ``cfg`` is checked against this fit."""
        _require(cfg.dim == self.dim, f"config dimension is {cfg.dim}, expected {self.dim}")
        _require(cfg.n_obs == self.n, f"config n={cfg.n_obs} != sample n={self.n}")
        _require(cfg.cutoff <= self.nmax, f"cutoff {cfg.cutoff} is above the fit's {self.nmax}")
        k = (slice(cfg.cutoff + 1),) * self.dim
        return self.cos[k], self.sin[k]

    def density(self, cfg: KdeConfig, *coords: np.ndarray) -> np.ndarray:
        """Estimate at angles ``theta`` (circle) or at ``(u, phi)`` = (cos theta, azimuth)."""
        c, s = self.moments(cfg)
        if self.dim == 1:
            return _kernels.s1_synthesis(c, s, s1_symbol_coefs(cfg), *coords) / self.n
        return _kernels.s2_synthesis(c, s, s2_symbol_coefs(cfg), *coords) / self.n


def fit(sample: SampleS1 | SampleS2, nmax: int) -> SpectralFit:
    """The one pass over the observations: their moments up to degree ``nmax``.

    On the sphere, raises :class:`NumericalError` above ``_kernels.ALF_MAX_DEGREE``,
    the highest degree at which the Legendre recursion is tested, or if a moment
    is not finite.
    """
    if isinstance(sample, SampleS1):
        return SpectralFit(1, sample.n, nmax, *_kernels.s1_moments(sample.thetas, nmax))
    if nmax > _kernels.ALF_MAX_DEGREE:
        raise NumericalError(f"cutoff {nmax} is above {_kernels.ALF_MAX_DEGREE}, the highest "
                             "degree at which the Legendre recursion is tested")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite moments are reported below
        a, b = _kernels.s2_moments(sample.xyz[:, 2], sample.phis, nmax)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericalError(f"moments are not finite at cutoff {nmax}; check the coordinates")
    return SpectralFit(2, sample.n, nmax, a, b)


def kde_eval_s1(sample: SampleS1, cfg: KdeConfig, theta) -> float | np.ndarray:
    """Density estimate (per radian) at one angle or an array of angles."""
    _require(cfg.dim == 1, f"config dimension is {cfg.dim}, expected 1")
    pts = np.asarray(theta, dtype=np.float64)
    vals = fit(sample, cfg.cutoff).density(cfg, pts.ravel()).reshape(pts.shape)
    return float(vals) if pts.ndim == 0 else vals


def kde_eval_s2(sample: SampleS2, cfg: KdeConfig, x) -> float | np.ndarray:
    """Density estimate (per steradian) at a sphere point or an (m, 3) array of unit vectors."""
    _require(cfg.dim == 2, f"config dimension is {cfg.dim}, expected 2")
    pts = np.asarray((x.x1, x.x2, x.x3) if isinstance(x, SpherePoint) else x, dtype=np.float64)
    at = SampleS2.from_xyz(np.atleast_2d(pts))
    vals = fit(sample, cfg.cutoff).density(cfg, at.xyz[:, 2], at.phis)
    return float(vals[0]) if pts.ndim == 1 else vals


def s1_grid(n_points: int) -> np.ndarray:
    """Equispaced angles covering the full circle (step 2 pi / n_points)."""
    if n_points < 2:
        raise ValueError(f"grid needs >= 2 points, got {n_points}")
    pts = -math.pi + 2.0 * math.pi * np.arange(n_points) / n_points
    pts[pts == -math.pi] = math.pi
    return pts


def s2_grid(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive equispaced (theta, phi) axes over [0, pi] x [-pi, pi]."""
    if n_theta < 2 or n_phi < 2:
        raise ValueError(f"grid needs >= 2 points per axis, got {n_theta} x {n_phi}")
    return (
        np.linspace(0.0, math.pi, n_theta),
        np.linspace(-math.pi, math.pi, n_phi),
    )


def kde_grid_eval(
    sample, cfg: KdeConfig, n_points: int | None = None,
    n_theta: int | None = None, n_phi: int | None = None,
):
    """Evaluate the estimator on an equispaced angular grid.

    Circle (cfg.dim == 1): pass ``n_points``; returns (thetas, values).
    Sphere (cfg.dim == 2): pass ``n_theta``/``n_phi``; returns
    (thetas, phis, values) with values in row-major (theta, phi) order.
    A 33 x 65 grid reproduces a step of pi/32 in each coordinate.
    """
    if cfg.dim == 1:
        if n_points is None:
            raise ValueError("circle grids require n_points")
        pts = s1_grid(n_points)
        return pts, kde_eval_s1(sample, cfg, pts)
    if n_theta is None or n_phi is None:
        raise ValueError("sphere grids require n_theta and n_phi")
    thetas, phis = s2_grid(n_theta, n_phi)
    ug, pg = np.meshgrid(np.cos(thetas), phis, indexing="ij")
    vals = fit(sample, cfg.cutoff).density(cfg, ug.ravel(), pg.ravel())
    return thetas, phis, vals.reshape(n_theta, n_phi)
