"""Hot numeric kernels, in numpy.

Each kernel factorizes its observation sums for vectorization, so results
agree with a direct term-by-term sum to roundoff, not bitwise.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"

# evaluation points per block in s2_kde_values; bounds the (points x obs) buffer
_S2_BLOCK = 256


def s1_kde_values(obs: np.ndarray, gcoef: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Circle KDE values at ``pts``: (1/2pi n) sum_j (1 + 2 sum_l g_l cos(l (t - t_j)))."""
    n = obs.size
    nmax = gcoef.size
    out = np.full(pts.shape, 1.0 / (2.0 * math.pi))
    if nmax == 0 or n == 0:
        return out
    ells = np.arange(1, nmax + 1, dtype=np.float64)
    lobs = ells[:, None] * obs[None, :]
    cs = np.cos(lobs).sum(axis=1)
    sn = np.sin(lobs).sum(axis=1)
    lpts = ells[:, None] * pts[None, :]
    out += ((gcoef * cs) @ np.cos(lpts) + (gcoef * sn) @ np.sin(lpts)) / (math.pi * n)
    return out


def s2_kde_values(obs_xyz: np.ndarray, coef: np.ndarray, pts_xyz: np.ndarray) -> np.ndarray:
    """Sphere KDE values at ``pts_xyz``: (1/n) sum_j sum_l coef_l P_l(<x, X_j>)."""
    nmax = coef.size - 1
    n = obs_xyz.shape[0]
    out = np.empty(pts_xyz.shape[0])
    for start in range(0, pts_xyz.shape[0], _S2_BLOCK):
        t = pts_xyz[start:start + _S2_BLOCK] @ obs_xyz.T
        np.clip(t, -1.0, 1.0, out=t)
        acc = np.full(t.shape, coef[0])
        if nmax >= 1:
            pm = np.ones_like(t)
            p = t.copy()
            acc += coef[1] * p
            for ell in range(2, nmax + 1):
                pm, p = p, ((2.0 * ell - 1.0) * t * p - (ell - 1.0) * pm) / ell
                acc += coef[ell] * p
        out[start:start + _S2_BLOCK] = acc.sum(axis=1)
    return out / n


def s1_prob_sums(obs: np.ndarray, nmax: int, th1: float, th2: float) -> np.ndarray:
    """B_l = sum_j [sin(l (th2 - t_j)) - sin(l (th1 - t_j))] for l = 1..nmax."""
    if nmax == 0:
        return np.zeros(0)
    ells = np.arange(1, nmax + 1, dtype=np.float64)[:, None]
    return (np.sin(ells * (th2 - obs[None, :])) - np.sin(ells * (th1 - obs[None, :]))).sum(axis=1)


def s2_prob_datasums(
    u: np.ndarray, phi: np.ndarray, nmax: int, phi1: float, phi2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Observation sums entering the closed-form sphere probability.

    Returns:
        s0: s0[l] = sum_j P_l(u_j), l = 0..nmax.
        s:  s[l, m] = sum_j P_l^m(u_j) (sin(m (phi2 - phi_j)) - sin(m (phi1 - phi_j)))
            for 1 <= m <= l, zero elsewhere.

    ``P_l^m`` is unnormalized and carries (2m - 1)!!, so ``s`` overflows to
    inf/NaN from about cutoff 151 on.
    """
    n = u.size
    s0 = np.zeros(nmax + 1)
    s = np.zeros((nmax + 1, nmax + 1))
    s0[0] = n
    if nmax >= 1:
        pm = np.ones_like(u)
        p = u.copy()
        s0[1] = p.sum()
        for ell in range(2, nmax + 1):
            pm, p = p, ((2.0 * ell - 1.0) * u * p - (ell - 1.0) * pm) / ell
            s0[ell] = p.sum()
    somx2 = np.sqrt(np.clip((1.0 - u) * (1.0 + u), 0.0, None))
    pmm = np.ones_like(u)
    for m in range(1, nmax + 1):
        pmm = pmm * (-(2.0 * m - 1.0) * somx2)
        az = np.sin(m * (phi2 - phi)) - np.sin(m * (phi1 - phi))
        pl = pmm
        s[m, m] = (pl * az).sum()
        if m < nmax:
            pprev = pmm
            pcur = u * (2.0 * m + 1.0) * pmm
            s[m + 1, m] = (pcur * az).sum()
            for ell in range(m + 2, nmax + 1):
                pprev, pcur = pcur, (
                    (2.0 * ell - 1.0) * u * pcur - (ell + m - 1.0) * pprev
                ) / (ell - m)
                s[ell, m] = (pcur * az).sum()
    return s0, s
