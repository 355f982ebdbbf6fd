"""Closed-form region probabilities for the finite-order estimators, plus an
independent quadrature oracle.

The circle closed form needs only sine sums and is stable at any cutoff.  The
sphere closed form combines per-degree/order coefficient integrals (computed
in double or extended precision, see :mod:`sphkde.specfun`) with observation
sums evaluated by the hot kernels.  The quadrature oracle integrates the
pointwise estimator directly: adaptive Simpson on circle arcs and a
Gauss-Legendre product rule in (theta, phi) on sphere rectangles, with node
counts scaled to the bandlimit so the rule stays spectrally accurate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import mpmath
import numpy as np

from . import _kernels
from .geometry import ArcRegion, RectRegion
from .kde import FOUR_PI, KdeConfig, SampleS1, SampleS2, s1_symbol_coefs, s2_symbol_coefs
from .specfun import (
    DOUBLE,
    NumericalError,
    PrecisionMode,
    _beta_kernel_double,
    _beta_kernel_mp,
    _alp_int_coef,
    resolve_mode,
)

METHOD_CLOSED = "closed-form"
METHOD_QUADRATURE = "quadrature"


@dataclass(frozen=True)
class ProbEstimate:
    """A region-probability estimate with the method and timing that produced it."""
    value: float
    region: ArcRegion | RectRegion
    method: str
    precision: PrecisionMode
    elapsed: float


def prob_arc_s1(sample: SampleS1, cfg: KdeConfig, region: ArcRegion) -> ProbEstimate:
    """Closed-form probability of an arc union under the circle estimator."""
    if cfg.dim != 1:
        raise ValueError(f"config dimension is {cfg.dim}, expected 1")
    if not isinstance(region, ArcRegion):
        raise ValueError("circle probabilities integrate over ArcRegion")
    if cfg.n_obs != sample.n:
        raise ValueError(f"config n={cfg.n_obs} != sample n={sample.n}")
    t0 = time.perf_counter()
    gcoef = s1_symbol_coefs(cfg)
    ells = np.arange(1, cfg.cutoff + 1, dtype=np.float64)
    total = 0.0
    for lo, hi in region.arcs:
        total += (hi - lo) / (2.0 * math.pi)
        if cfg.cutoff >= 1:
            sums = _kernels.s1_prob_sums(sample.thetas, cfg.cutoff, lo, hi)
            total += float(np.sum(gcoef / ells * sums)) / (math.pi * sample.n)
    return ProbEstimate(total, region, METHOD_CLOSED, DOUBLE, time.perf_counter() - t0)


def _rect_coef_tables_double(cfg: KdeConfig, rect) -> tuple[np.ndarray, np.ndarray]:
    """Per-degree (m = 0) and per-(degree, order) coefficient tables, doubles."""
    tlo, thi, plo, phi = rect
    nmax = cfg.cutoff
    g = s2_symbol_coefs(cfg)
    y1 = 1.0 - math.cos(tlo)
    y2 = 1.0 - math.cos(thi)
    x1 = 0.5 * (1.0 + math.cos(thi))
    x2 = 0.5 * (1.0 + math.cos(tlo))
    a0 = np.zeros(nmax + 1)
    for ell in range(nmax + 1):
        acc = 0.0
        comp = 0.0
        for k in range(ell + 1):
            c = math.comb(ell, k) * math.comb(ell + k, k)
            term = float(c) * (-0.5) ** k / (k + 1.0) * (y2 ** (k + 1) - y1 ** (k + 1))
            yk = term - comp
            tk = acc + yk
            comp = (tk - acc) - yk
            acc = tk
        n2 = (2.0 * ell + 1.0) / FOUR_PI
        a0[ell] = g[ell] * n2 * (phi - plo) * acc
    cm = np.zeros((nmax + 1, nmax + 1))
    for ell in range(1, nmax + 1):
        log_front = math.log((2.0 * ell + 1.0) / FOUR_PI)
        for m in range(1, ell + 1):
            acc = 0.0
            comp = 0.0
            for k in range(m, ell + 1):
                try:
                    coef = float(_alp_int_coef(ell, m, k))
                except OverflowError:
                    raise NumericalError(
                        f"the degree-{ell} coefficients overflow double precision "
                        f"(cutoff {nmax}); use an extended mode"
                    ) from None
                term = coef * _beta_kernel_double(m, k, x1, x2)
                yk = term - comp
                tk = acc + yk
                comp = (tk - acc) - yk
                acc = tk
            n2 = math.exp(log_front + math.lgamma(ell - m + 1) - math.lgamma(ell + m + 1))
            cm[ell, m] = g[ell] * (2.0 / m) * n2 * acc
    return a0, cm


def _rect_datasums(
    sample: SampleS2, nmax: int, plo: float, phi: float
) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        s0, s = _kernels.s2_prob_datasums(sample.xyz[:, 2], sample.phis, nmax, plo, phi)
    if not (np.isfinite(s0).all() and np.isfinite(s).all()):
        raise NumericalError(
            f"observation sums overflow double precision at cutoff {nmax}: the cutoff is "
            "above what the unnormalized Legendre basis holds, in any precision mode"
        )
    return s0, s


def _prob_rect_s2_double(sample: SampleS2, cfg: KdeConfig, rect) -> float:
    tlo, thi, plo, phi = rect
    s0, s = _rect_datasums(sample, cfg.cutoff, plo, phi)
    a0, cm = _rect_coef_tables_double(cfg, rect)
    val = float(a0 @ s0 + np.sum(cm * s)) / sample.n
    if not math.isfinite(val):
        raise NumericalError(
            "closed-form probability overflowed in double precision; "
            "retry with an extended mode (raise the bit count if needed)"
        )
    return val


def _prob_rect_s2_extended(sample: SampleS2, cfg: KdeConfig, rect, bits: int) -> float:
    tlo, thi, plo, phi = rect
    nmax = cfg.cutoff
    g = s2_symbol_coefs(cfg)
    s0, s = _rect_datasums(sample, nmax, plo, phi)
    x1 = 0.5 * (1.0 + math.cos(thi))
    x2 = 0.5 * (1.0 + math.cos(tlo))
    with mpmath.workprec(bits):
        y1 = 1 - mpmath.cos(mpmath.mpf(tlo))
        y2 = 1 - mpmath.cos(mpmath.mpf(thi))
        width = mpmath.mpf(phi) - mpmath.mpf(plo)
        half = mpmath.mpf(-1) / 2
        total = mpmath.mpf(0)
        for ell in range(nmax + 1):
            acc = mpmath.mpf(0)
            for k in range(ell + 1):
                c = math.comb(ell, k) * math.comb(ell + k, k)
                acc += c * half ** k / (k + 1) * (y2 ** (k + 1) - y1 ** (k + 1))
            n2 = (2 * ell + 1) / mpmath.mpf(FOUR_PI)
            total += g[ell] * n2 * width * acc * s0[ell]
            log_front = mpmath.log((2 * ell + 1) / mpmath.mpf(FOUR_PI))
            for m in range(1, ell + 1):
                if s[ell, m] == 0.0:
                    continue
                tsum = mpmath.mpf(0)
                for k in range(m, ell + 1):
                    tsum += _alp_int_coef(ell, m, k) * _beta_kernel_mp(m, k, x1, x2, bits)
                n2m = mpmath.exp(
                    log_front + mpmath.loggamma(ell - m + 1) - mpmath.loggamma(ell + m + 1)
                )
                total += g[ell] * mpmath.mpf(2) / m * n2m * tsum * s[ell, m]
        val = float(total / sample.n)
    if not math.isfinite(val):
        raise NumericalError(
            f"closed-form probability is not representable after {bits}-bit "
            "evaluation; raise the extended bit count"
        )
    return val


def prob_rect_s2(
    sample: SampleS2,
    cfg: KdeConfig,
    region: RectRegion,
    mode: PrecisionMode | None = None,
) -> ProbEstimate:
    """Closed-form probability of a rectangle union under the sphere estimator.

    ``mode=None`` picks double or extended arithmetic automatically from the
    cutoff; the mode actually used is recorded on the estimate.
    """
    if cfg.dim != 2:
        raise ValueError(f"config dimension is {cfg.dim}, expected 2")
    if not isinstance(region, RectRegion):
        raise ValueError("sphere probabilities integrate over RectRegion")
    if cfg.n_obs != sample.n:
        raise ValueError(f"config n={cfg.n_obs} != sample n={sample.n}")
    mode = resolve_mode(mode, cfg.cutoff)
    t0 = time.perf_counter()
    total = 0.0
    for rect in region.rects:
        if mode.kind == "double":
            total += _prob_rect_s2_double(sample, cfg, rect)
        else:
            total += _prob_rect_s2_extended(sample, cfg, rect, mode.bits)
    return ProbEstimate(total, region, METHOD_CLOSED, mode, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# quadrature oracle

def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 48) -> float:
    """Recursive adaptive Simpson integration of a scalar function."""
    fa = f(a)
    fb = f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, fa, lm, flm, m, fm, left, tol / 2.0, depth - 1) + recurse(
            m, fm, rm, frm, b, fb, right, tol / 2.0, depth - 1
        )

    return recurse(a, fa, m, fm, b, fb, whole, tol, max_depth)


def gauss_nodes(count: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(count)
    half = 0.5 * (hi - lo)
    return half * x + 0.5 * (hi + lo), half * w


def _bandlimited_nodes(floor: int, degree: int, length: float) -> int:
    # validated rule: nodes = ceil(0.62 * omega) + 24 with omega = degree * length / 2
    # keeps Gauss-Legendre at machine precision on trig integrands of that bandlimit
    omega = degree * length / 2.0
    return max(floor, int(math.ceil(0.62 * omega)) + 24)


def quadrature_prob(
    sample,
    cfg: KdeConfig,
    region: ArcRegion | RectRegion,
    theta_nodes: int = 64,
    phi_nodes: int = 128,
    arc_tol: float = 1e-10,
) -> ProbEstimate:
    """Numerically integrate the estimator over the region (oracle method).

    Node counts are floors; they are raised automatically with the cutoff so
    the product rule resolves the estimator's oscillations.
    """
    if cfg.n_obs != sample.n:
        raise ValueError(f"config n={cfg.n_obs} != sample n={sample.n}")
    t0 = time.perf_counter()
    if cfg.dim == 1:
        if not isinstance(region, ArcRegion):
            raise ValueError("circle estimators integrate over ArcRegion")
        obs = sample.thetas
        gcoef = s1_symbol_coefs(cfg)

        def f(t: float) -> float:
            return float(_kernels.s1_kde_values(obs, gcoef, np.array([t]))[0])

        total = sum(adaptive_simpson(f, lo, hi, arc_tol) for lo, hi in region.arcs)
    else:
        if not isinstance(region, RectRegion):
            raise ValueError("sphere estimators integrate over RectRegion")
        coef = (2.0 * np.arange(cfg.cutoff + 1) + 1.0) / FOUR_PI * s2_symbol_coefs(cfg)
        total = 0.0
        for tlo, thi, plo, phi in region.rects:
            kt = _bandlimited_nodes(theta_nodes, cfg.cutoff + 1, thi - tlo)
            kp = _bandlimited_nodes(phi_nodes, cfg.cutoff, phi - plo)
            tn, tw = gauss_nodes(kt, tlo, thi)
            pn, pw = gauss_nodes(kp, plo, phi)
            tg, pg = np.meshgrid(tn, pn, indexing="ij")
            st = np.sin(tg).ravel()
            pts = np.column_stack(
                (st * np.cos(pg.ravel()), st * np.sin(pg.ravel()), np.cos(tg).ravel())
            )
            vals = _kernels.s2_kde_values(sample.xyz, coef, pts).reshape(kt, kp)
            total += float((tw * np.sin(tn)) @ vals @ pw)
    return ProbEstimate(total, region, METHOD_QUADRATURE, DOUBLE, time.perf_counter() - t0)


def vmf_true_prob_cap(kappa: float, theta_max: float) -> float:
    """Exact vMF probability of the polar cap {theta <= theta_max} about the mean.

    Equals (e^k - e^(k cos t)) / (e^k - e^(-k)), evaluated in overflow-safe form.
    """
    if kappa <= 0.0:
        raise ValueError(f"concentration must be positive, got {kappa}")
    if not (0.0 < theta_max <= math.pi):
        raise ValueError(f"cap angle must lie in (0, pi], got {theta_max}")
    return math.expm1(-kappa * (1.0 - math.cos(theta_max))) / math.expm1(-2.0 * kappa)
