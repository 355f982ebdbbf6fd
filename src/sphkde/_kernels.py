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

# scale on the sectoral Legendre seeds (Holmes & Featherstone 2002).  Unscaled,
# sqrt(1-u^2)^m underflows before the recursion in l lifts its column back to
# O(1) from degree ~1900 on; scaled, from ~3600 on (at sqrt(1-u^2) = 1/e), and
# the lost columns would read as zeros
_SEED_SCALE = 1e280

# highest degree at which normalized_alf_columns is tested (the addition-theorem
# sum rule); callers must not ask for more
ALF_MAX_DEGREE = 2000


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


def normalized_alf_columns(u: np.ndarray, nmax: int):
    """Yield ``(m, col)`` for m = 0..nmax, with ``col[l - m] = Pbar_lm(u)`` for l = m..nmax.

    ``Pbar_lm = sqrt((2l+1)/(4pi) (l-m)!/(l+m)!) P_l^m`` with the (-1)^m phase,
    so |Pbar_lm| <= sqrt((2l+1)/(4pi)).  Valid for nmax <= ``ALF_MAX_DEGREE``.
    Column recursion of Holmes & Featherstone (2002, J. Geodesy 76:279-299):
    sectoral seeds ``Pbar_mm = -sqrt((2m+1)/(2m)) sqrt(1-u^2) Pbar_{m-1,m-1}``,
    then ``Pbar_lm = a_lm u Pbar_{l-1,m} - (a_lm / a_{l-1,m}) Pbar_{l-2,m}`` with
    ``a_lm = sqrt((4l^2-1)/(l^2-m^2))``.  The seeds carry ``_SEED_SCALE``,
    which each column sheds.  Each yielded column is a fresh
    ``(nmax - m + 1, u.size)`` array.
    """
    somx2 = np.sqrt(np.clip((1.0 - u) * (1.0 + u), 0.0, None))
    pmm = np.full(u.shape, _SEED_SCALE / math.sqrt(4.0 * math.pi))
    for m in range(nmax + 1):
        if m > 0:
            pmm = (-math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * somx2) * pmm
        col = np.empty((nmax - m + 1,) + u.shape)
        col[0] = pmm
        if m < nmax:
            ells = np.arange(m + 1, nmax + 1, dtype=np.float64)
            a = np.sqrt((4.0 * ells * ells - 1.0) / (ells * ells - m * m))  # a[l - m - 1]
            b = a[1:] / a[:-1]
            col[1] = a[0] * u * pmm
            for i in range(2, nmax - m + 1):
                col[i] = a[i - 1] * u * col[i - 1] - b[i - 2] * col[i - 2]
        col *= 1.0 / _SEED_SCALE
        yield m, col


def s2_prob_datasums(
    u: np.ndarray, phi: np.ndarray, nmax: int, phi1: float, phi2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Observation sums entering the closed-form sphere probability.

    Returns:
        s0: s0[l] = sum_j Pbar_l0(u_j), l = 0..nmax.
        s:  s[l, m] = sum_j Pbar_lm(u_j) (sin(m (phi2 - phi_j)) - sin(m (phi1 - phi_j)))
            for 1 <= m <= l, zero elsewhere.

    ``Pbar_lm`` is the normalized function of :func:`normalized_alf_columns`;
    one order's column is built at a time, so memory is O(nmax n).
    """
    # sin(m (phi2 - p)) - sin(m (phi1 - p)) = 2 sin(m w / 2) cos(m (c - p)), w = phi2 - phi1
    half_width = 0.5 * (phi2 - phi1)
    offset = 0.5 * (phi1 + phi2) - phi
    columns = normalized_alf_columns(u, nmax)
    s0 = next(columns)[1].sum(axis=1)
    s = np.zeros((nmax + 1, nmax + 1))
    for m, col in columns:
        s[m:, m] = 2.0 * math.sin(m * half_width) * (col @ np.cos(m * offset))
    return s0, s
