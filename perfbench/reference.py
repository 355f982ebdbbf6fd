"""Reference computations that the benchmark checks sphkde's outputs against.

Nothing here imports sphkde.  The estimator is rebuilt from the paper's
formulas and from scipy's spherical Legendre functions:

* sphere: spherical-harmonic coefficients c_lm of the sample, so that the
  estimate is sum_l g_l sum_m c_lm Y_lm (addition theorem).  Densities are a
  synthesis, box probabilities integrate Y_lm over the box (Gauss-Legendre in
  theta, closed form in phi), and the integrated squared error against a vMF
  mixture is Parseval plus Funk-Hecke.
* circle: Fourier sums C_l, S_l of the sample, with the same three uses.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

FOUR_PI = 4.0 * math.pi
CHUNK = 256


def estimator_config(d: int, s: float, n: int, r: int | None = None) -> tuple[float, int, int]:
    """(bandwidth h, cutoff, decay r) from the paper's rules."""
    if r is None:
        r = 2 * d + (math.floor(s) + 1) + 1   # 2d + strict ceiling of s + 1
    h = float(n) ** (-1.0 / (2.0 * s + d))
    inner = float(n) ** ((s + r) / (2.0 * s + d)) / (d * math.pi * (r - d))
    return h, int(math.floor(inner ** (1.0 / (r - d)))) + 1, r


def symbol(d: int, s: float, n: int, r: int | None = None) -> np.ndarray:
    """Spectral weights g: l = 1..cutoff on the circle, l = 0..cutoff on the sphere."""
    h, cutoff, r = estimator_config(d, s, n, r)
    if d == 1:
        lam = h * np.arange(1, cutoff + 1, dtype=np.float64)
    else:
        ells = np.arange(0, cutoff + 1, dtype=np.float64)
        lam = h * np.sqrt(ells * (ells + 1.0))
    return 1.0 / (1.0 + lam ** r)


def _ybar(lmax: int, theta: np.ndarray) -> np.ndarray:
    """Orthonormal Y_lm(theta, 0) for 0 <= m <= l <= lmax, shape (lmax+1, lmax+1, len(theta))."""
    return special.sph_legendre_p_all(lmax, lmax, theta)[0][:, : lmax + 1]


def _latlon_rects(box) -> list[tuple[float, float, float, float]]:
    """A --latlon-box in degrees as (theta_lo, theta_hi, phi_lo, phi_hi) rects, split at +-pi."""
    lat_min, lat_max, lon_min, lon_max = box
    tlo = math.pi / 2.0 - math.radians(lat_max)
    thi = math.pi / 2.0 - math.radians(lat_min)
    return split_rect((tlo, thi, math.radians(lon_min), math.radians(lon_max)))


def split_rect(rect) -> list[tuple[float, float, float, float]]:
    tlo, thi, plo, phi = rect
    if plo < phi:
        return [rect]
    return [(tlo, thi, plo, math.pi), (tlo, thi, -math.pi, phi)]


def split_arc(arc) -> list[tuple[float, float]]:
    lo, hi = arc
    return [arc] if lo < hi else [(lo, math.pi), (-math.pi, hi)]


class SphereExpansion:
    """Spherical-harmonic form of the sphere estimator for one sample and one g."""

    def __init__(self, xyz: np.ndarray, g: np.ndarray):
        self.g = np.asarray(g, dtype=np.float64)
        self.lmax = self.g.size - 1
        theta = np.arccos(np.clip(xyz[:, 2], -1.0, 1.0))
        phi = np.arctan2(xyz[:, 1], xyz[:, 0])
        ms = np.arange(self.lmax + 1)
        c = np.zeros((self.lmax + 1, self.lmax + 1), dtype=np.complex128)
        for start in range(0, theta.size, CHUNK):
            y = _ybar(self.lmax, theta[start:start + CHUNK])
            e = np.exp(-1j * np.outer(ms, phi[start:start + CHUNK]))
            c += np.einsum("lmj,mj->lm", y, e)
        self.c = c / theta.size
        self._weighted = self.g[:, None] * self.c          # g_l c_lm
        self._mult = np.where(ms == 0, 1.0, 2.0)           # m and -m fold into 2 Re

    def density(self, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64).ravel()
        phi = np.asarray(phi, dtype=np.float64).ravel()
        ms = np.arange(self.lmax + 1)
        out = np.empty(theta.size)
        for start in range(0, theta.size, CHUNK):
            sl = slice(start, start + CHUNK)
            a = np.einsum("lm,lmj->mj", self._weighted, _ybar(self.lmax, theta[sl]))
            e = np.exp(1j * np.outer(ms, phi[sl]))
            out[sl] = (self._mult[:, None] * (a * e).real).sum(axis=0)
        return out

    def prob_rect(self, rect) -> float:
        tlo, thi, plo, phi = rect
        x, w = np.polynomial.legendre.leggauss(2 * self.lmax + 64)
        half = 0.5 * (thi - tlo)
        nodes = half * x + 0.5 * (thi + tlo)
        t = _ybar(self.lmax, nodes) @ (half * w * np.sin(nodes))   # int Y_lm(theta) sin(theta)
        ms = np.arange(1, self.lmax + 1)
        e = np.empty(self.lmax + 1, dtype=np.complex128)
        e[0] = phi - plo
        e[1:] = (np.exp(1j * ms * phi) - np.exp(1j * ms * plo)) / (1j * ms)
        return float((self._mult * (self._weighted * t * e[None, :]).sum(axis=0).real).sum())

    def prob_latlon_box(self, box) -> float:
        return sum(self.prob_rect(r) for r in _latlon_rects(box))

    def norm2(self) -> float:
        """Integral of the squared estimate (Parseval)."""
        return float((self.g[:, None] ** 2 * self._mult * np.abs(self.c) ** 2).sum())


def _sinhc_scaled(radius: float, shift: float) -> float:
    """sinh(R)/R * exp(-shift) without overflow."""
    if radius == 0.0:
        return math.exp(-shift)
    return -math.expm1(-2.0 * radius) / (2.0 * radius) * math.exp(radius - shift)


def sphere_ise_vmf_mixture(xyz, g, weights, mus, kappas) -> float:
    """Closed-form integrated squared error of the sphere estimate against a vMF mixture."""
    exp = SphereExpansion(xyz, g)
    ells = np.arange(exp.lmax + 1)
    front = exp.g * (2.0 * ells + 1.0) / FOUR_PI
    mus = [np.asarray(m, dtype=np.float64) / np.linalg.norm(m) for m in mus]
    cross = 0.0
    for w, mu, kappa in zip(weights, mus, kappas):
        # Funk-Hecke: int P_l(<x, y>) vmf(x) dx = P_l(<mu, y>) I_{l+1/2}(k) / I_{1/2}(k)
        ratio = special.ive(ells + 0.5, kappa) / special.ive(0.5, kappa)
        legendre = special.eval_legendre(ells[:, None], (xyz @ mu)[None, :]).mean(axis=1)
        cross += w * float(np.sum(front * ratio * legendre))
    self_term = 0.0
    for wa, ma, ka in zip(weights, mus, kappas):
        for wb, mb, kb in zip(weights, mus, kappas):
            radius = float(np.linalg.norm(ka * ma + kb * mb))
            ca = ka / (2.0 * math.pi * -math.expm1(-2.0 * ka))
            cb = kb / (2.0 * math.pi * -math.expm1(-2.0 * kb))
            self_term += wa * wb * ca * cb * FOUR_PI * _sinhc_scaled(radius, ka + kb)
    return exp.norm2() - 2.0 * cross + self_term


def vmf_mixture_density_s2(theta, phi, weights, mus, kappas) -> np.ndarray:
    st = np.sin(theta)
    pts = np.stack((st * np.cos(phi), st * np.sin(phi), np.cos(theta)), axis=-1)
    out = np.zeros(np.shape(theta))
    for w, mu, kappa in zip(weights, mus, kappas):
        mu = np.asarray(mu, dtype=np.float64) / np.linalg.norm(mu)
        out += w * kappa * np.exp(kappa * (pts @ mu - 1.0)) / (2.0 * math.pi * -math.expm1(-2.0 * kappa))
    return out


def vmf_mixture_prob_rect(rect, weights, mus, kappas, nodes: int = 96) -> float:
    """Gauss-Legendre product rule for the true mixture probability of one rect."""
    tlo, thi, plo, phi = rect
    x, w = np.polynomial.legendre.leggauss(nodes)
    tn = 0.5 * (thi - tlo) * x + 0.5 * (thi + tlo)
    tw = 0.5 * (thi - tlo) * w * np.sin(tn)
    x2, w2 = np.polynomial.legendre.leggauss(2 * nodes)
    pn = 0.5 * (phi - plo) * x2 + 0.5 * (phi + plo)
    pw = 0.5 * (phi - plo) * w2
    tg, pg = np.meshgrid(tn, pn, indexing="ij")
    return float(tw @ vmf_mixture_density_s2(tg, pg, weights, mus, kappas) @ pw)


class CircleExpansion:
    """Fourier form of the circle estimator for one sample and one g."""

    def __init__(self, thetas: np.ndarray, g: np.ndarray):
        self.g = np.asarray(g, dtype=np.float64)
        self.n = thetas.size
        self.ells = np.arange(1, self.g.size + 1, dtype=np.float64)
        lt = np.outer(self.ells, thetas)
        self.cs = np.cos(lt).sum(axis=1)
        self.sn = np.sin(lt).sum(axis=1)

    def density(self, t) -> np.ndarray:
        lt = np.outer(self.ells, np.asarray(t, dtype=np.float64).ravel())
        return 1.0 / (2.0 * math.pi) + (
            (self.g * self.cs) @ np.cos(lt) + (self.g * self.sn) @ np.sin(lt)
        ) / (math.pi * self.n)

    def prob_arc(self, arc) -> float:
        total = 0.0
        for lo, hi in split_arc(arc):
            # sum_j sin(l (b - t_j)) = sin(l b) C_l - cos(l b) S_l
            def s(b):
                return np.sin(self.ells * b) * self.cs - np.cos(self.ells * b) * self.sn
            total += (hi - lo) / (2.0 * math.pi) + float(
                np.sum(self.g / self.ells * (s(hi) - s(lo)))
            ) / (math.pi * self.n)
        return total

    def norm2(self) -> float:
        return 1.0 / (2.0 * math.pi) + float(
            np.sum(self.g ** 2 * (self.cs ** 2 + self.sn ** 2))
        ) / (math.pi * self.n ** 2)


def circle_ise_vm_mixture(thetas, g, weights, mus, kappas) -> float:
    """Closed-form integrated squared error of the circle estimate against a von Mises mixture."""
    exp = CircleExpansion(thetas, g)
    cross = 0.0
    for w, mu, kappa in zip(weights, mus, kappas):
        # <fhat, vm> = 1/(2 pi) + (1/(pi n)) sum_l g_l I_l(k)/I_0(k) sum_j cos(l (t_j - mu))
        ratio = special.ive(exp.ells, kappa) / special.ive(0.0, kappa)
        proj = np.cos(np.outer(exp.ells, thetas - mu)).sum(axis=1)
        cross += w * (1.0 / (2.0 * math.pi) + float(np.sum(exp.g * ratio * proj)) / (math.pi * exp.n))
    self_term = 0.0
    for wa, ma, ka in zip(weights, mus, kappas):
        for wb, mb, kb in zip(weights, mus, kappas):
            radius = abs(ka * complex(math.cos(ma), math.sin(ma)) + kb * complex(math.cos(mb), math.sin(mb)))
            scaled = special.ive(0, radius) / (special.ive(0, ka) * special.ive(0, kb))
            self_term += wa * wb * float(scaled) * math.exp(radius - ka - kb) / (2.0 * math.pi)
    return exp.norm2() - 2.0 * cross + self_term


def vm_mixture_prob_arc(arc, weights, mus, kappas, nodes: int = 200) -> float:
    total = 0.0
    x, w = np.polynomial.legendre.leggauss(nodes)
    for lo, hi in split_arc(arc):
        t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        dens = sum(
            wt * np.exp(k * (np.cos(t - mu) - 1.0)) / (2.0 * math.pi * special.ive(0, k))
            for wt, mu, k in zip(weights, mus, kappas)
        )
        total += float(0.5 * (hi - lo) * w @ dens)
    return total


def sample_vmf_mixture_s2(rng: np.random.Generator, n: int, weights, mus, kappas) -> np.ndarray:
    """Unit vectors from a sphere vMF mixture (inverse CDF of the cosine, then rotation)."""
    comp = rng.choice(len(weights), size=n, p=np.asarray(weights))
    out = np.empty((n, 3))
    for i, (mu, kappa) in enumerate(zip(mus, kappas)):
        idx = np.flatnonzero(comp == i)
        u = rng.random(idx.size)
        w = np.clip(1.0 + np.log(u + (1.0 - u) * math.exp(-2.0 * kappa)) / kappa, -1.0, 1.0)
        phi = rng.uniform(-math.pi, math.pi, idx.size)
        st = np.sqrt(1.0 - w * w)
        local = np.column_stack((st * np.cos(phi), st * np.sin(phi), w))
        mu = np.asarray(mu, dtype=np.float64) / np.linalg.norm(mu)
        # orthonormal frame whose third axis is mu
        helper = np.array([1.0, 0.0, 0.0]) if abs(mu[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        e1 = np.cross(helper, mu)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(mu, e1)
        out[idx] = local @ np.vstack((e1, e2, mu))
    return out / np.linalg.norm(out, axis=1)[:, None]
