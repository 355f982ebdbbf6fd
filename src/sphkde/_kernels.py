"""Hot numeric kernels, in numpy.

The moments (``s1_moments``, ``s2_moments``) are the one pass over the
observations; synthesis and :func:`arc_combine` read them, whatever n is.  The
last four kernels compose a pass and a reader; tests check each against its sum
written out term by term.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"

# scale on the sectoral Legendre seeds (Holmes & Featherstone 2002).  Unscaled,
# sqrt(1-u^2)^m underflows before the recursion in l lifts its column back to
# O(1) from degree ~1900 on; scaled, from ~3600 on (at sqrt(1-u^2) = 1/e), and
# the lost columns would read as zeros
_SEED_SCALE = 1e280

# highest degree at which normalized_alf_columns is tested (the addition-theorem
# sum rule); callers must not ask for more
ALF_MAX_DEGREE = 2000


def s1_moments(obs: np.ndarray, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """C_l, S_l = sum_j (cos, sin)(l t_j) for l = 0..nmax."""
    lobs = np.arange(nmax + 1, dtype=np.float64)[:, None] * obs[None, :]
    return np.cos(lobs).sum(axis=1), np.sin(lobs).sum(axis=1)


def s1_synthesis(c: np.ndarray, s: np.ndarray, gcoef: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """n times the circle estimate, (C_0 / 2 + sum_{l>=1} g_l (C_l cos lt + S_l sin lt)) / pi."""
    lpts = np.arange(1, gcoef.size + 1, dtype=np.float64)[:, None] * pts[None, :]
    return (0.5 * c[0] + (gcoef * c[1:]) @ np.cos(lpts) + (gcoef * s[1:]) @ np.sin(lpts)) / math.pi


def arc_combine(c: np.ndarray, s: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """sum_j w_j [sin(m (hi - t_j)) - sin(m (lo - t_j))] from the moments along the last axis.

    With ``c[..., m], s[..., m] = sum_j w_j (cos, sin)(m t_j)``, this is m times the
    integral of ``sum_j w_j cos(m (t - t_j))`` over [lo, hi]; zero at m = 0.
    """
    m = np.arange(c.shape[-1], dtype=np.float64)
    centre = 0.5 * (lo + hi)
    return 2.0 * np.sin(0.5 * (hi - lo) * m) * (np.cos(m * centre) * c + np.sin(m * centre) * s)


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


def s2_moments(u: np.ndarray, phi: np.ndarray, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """A[l, m], B[l, m] = sum_j Pbar_lm(u_j) (cos, sin)(m phi_j), zero for m > l."""
    a, b = np.zeros((2, nmax + 1, nmax + 1))
    trig = np.empty((u.size, 2))
    for m, col in normalized_alf_columns(u, nmax):
        np.cos(m * phi, out=trig[:, 0])
        np.sin(m * phi, out=trig[:, 1])
        a[m:, m], b[m:, m] = (col @ trig).T
    return a, b


def s2_synthesis(
    a: np.ndarray, b: np.ndarray, g: np.ndarray, u: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """n times the sphere estimate at (u, phi) = (cos theta, azimuth), ``g`` = g_0..g_L.

    By the addition theorem, sum_j sum_l g_l (2l+1)/(4pi) P_l(<x, X_j>) is
    sum_l g_l [A_l0 Pbar_l0(u) + 2 sum_m Pbar_lm(u) (A_lm cos(m phi) + B_lm sin(m phi))].
    Columns are built once per distinct u: a (theta, phi) grid costs O(L^2) per row.
    """
    uniq, row = np.unique(u, return_inverse=True)
    ga, gb = g[:, None] * a, g[:, None] * b
    out = np.zeros(u.shape)
    for m, col in normalized_alf_columns(uniq, g.size - 1):
        am, bm = (ga[m:, m] @ col)[row], (gb[m:, m] @ col)[row]
        out += (1.0 if m == 0 else 2.0) * (am * np.cos(m * phi) + bm * np.sin(m * phi))
    return out


def s1_kde_values(obs: np.ndarray, gcoef: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Circle KDE values at ``pts``: (1/2pi n) sum_j (1 + 2 sum_l g_l cos(l (t - t_j)))."""
    return s1_synthesis(*s1_moments(obs, gcoef.size), gcoef, pts) / obs.size


def s2_kde_values(obs_xyz: np.ndarray, coef: np.ndarray, pts_xyz: np.ndarray) -> np.ndarray:
    """Sphere KDE values at unit vectors ``pts_xyz``: (1/n) sum_j sum_l coef_l P_l(<x, X_j>)."""
    g = coef * (4.0 * math.pi / (2.0 * np.arange(coef.size) + 1.0))
    a, b = s2_moments(obs_xyz[:, 2], np.arctan2(obs_xyz[:, 1], obs_xyz[:, 0]), coef.size - 1)
    u, phi = pts_xyz[:, 2], np.arctan2(pts_xyz[:, 1], pts_xyz[:, 0])
    return s2_synthesis(a, b, g, u, phi) / obs_xyz.shape[0]


def s1_prob_sums(obs: np.ndarray, nmax: int, th1: float, th2: float) -> np.ndarray:
    """B_l = sum_j [sin(l (th2 - t_j)) - sin(l (th1 - t_j))] for l = 1..nmax."""
    return arc_combine(*s1_moments(obs, nmax), th1, th2)[1:]


def s2_prob_datasums(
    u: np.ndarray, phi: np.ndarray, nmax: int, phi1: float, phi2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Observation sums entering the closed-form sphere probability.

    Returns:
        s0: s0[l] = sum_j Pbar_l0(u_j), l = 0..nmax.
        s:  s[l, m] = sum_j Pbar_lm(u_j) (sin(m (phi2 - phi_j)) - sin(m (phi1 - phi_j)))
            for 1 <= m <= l, zero elsewhere.
    """
    a, b = s2_moments(u, phi, nmax)
    return a[:, 0], arc_combine(a, b, phi1, phi2)
