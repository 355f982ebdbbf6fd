"""Closed-form region probabilities for the finite-order estimators, plus a
quadrature oracle.

Both read the sample's moments (:func:`sphkde.kde.fit`).  The circle closed
form integrates the Fourier moments over each arc and is stable at any cutoff.
The sphere closed form runs in double precision: it integrates the moments of
normalized associated Legendre functions ``Pbar_lm`` over the azimuth interval
in closed form (:func:`sphkde._kernels.arc_combine`) and pairs them with the
integrals of ``Pbar_lm`` over the theta-band, taken by a Gauss-Legendre rule
exact for that bandlimit.  Above cutoff ``_kernels.ALF_MAX_DEGREE`` (2000), the
highest degree its Legendre recursion is tested at, the fit raises
NumericalError.  ``_prob_rect_s2_extended`` keeps the incomplete-Beta closed
form in 256-bit arithmetic (mpmath, imported inside it) as a test reference; no
production path calls it.  The quadrature oracle integrates the pointwise
estimate (the fit's synthesis) numerically: adaptive Simpson on circle arcs and
a Gauss-Legendre product rule in (theta, phi) on sphere rectangles, with node
counts scaled to the bandlimit so the rule stays spectrally accurate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .geometry import ArcRegion, RectRegion
from .kde import (
    KdeConfig,
    SampleS1,
    SampleS2,
    SpectralFit,
    fit,
    s1_symbol_coefs,
    s2_symbol_coefs,
)
from .specfun import FOUR_PI, NumericalError, _assoc_integral_mp
from .specfun import _beta_kernel_double  # noqa: F401  (perfbench/spans.py counts calls through it)

METHOD_CLOSED = "closed-form"
METHOD_QUADRATURE = "quadrature"

# quadrature oracle: node-count floors of the sphere product rule, and the
# tolerance of adaptive Simpson on circle arcs
QUAD_THETA_NODES = 64
QUAD_PHI_NODES = 128
QUAD_ARC_TOL = 1e-10


@dataclass(frozen=True)
class ProbEstimate:
    """A region-probability estimate with the method and timing that produced it."""
    value: float
    region: ArcRegion | RectRegion
    method: str
    elapsed: float


def _check_region(dim: int, region) -> None:
    domain, kind = ("circle", ArcRegion) if dim == 1 else ("sphere", RectRegion)
    if not isinstance(region, kind):
        raise ValueError(f"{domain} estimators integrate over {kind.__name__}")


def closed_prob(f: SpectralFit, cfg: KdeConfig, region: ArcRegion | RectRegion) -> float:
    """Closed-form probability of an arc or rectangle union, read from the sample's fit."""
    c, s = f.moments(cfg)
    _check_region(f.dim, region)
    if f.dim == 2:
        return sum(_prob_rect_s2_double(c, s, cfg, rect) for rect in region.rects) / f.n
    gcoef = s1_symbol_coefs(cfg) / (math.pi * f.n * np.arange(1, cfg.cutoff + 1))
    return sum(
        (hi - lo) / (2.0 * math.pi) + float(gcoef @ _kernels.arc_combine(c, s, lo, hi)[1:])
        for lo, hi in region.arcs
    )


def _closed_estimate(sample, cfg: KdeConfig, region) -> ProbEstimate:
    t0 = time.perf_counter()
    value = closed_prob(fit(sample, cfg.cutoff), cfg, region)
    return ProbEstimate(value, region, METHOD_CLOSED, time.perf_counter() - t0)


def prob_arc_s1(sample: SampleS1, cfg: KdeConfig, region: ArcRegion) -> ProbEstimate:
    """Closed-form probability of an arc union under the circle estimator."""
    return _closed_estimate(sample, cfg, region)


def _rect_coef_tables_double(cfg: KdeConfig, rect) -> tuple[np.ndarray, np.ndarray]:
    """Per-degree (m = 0) and per-(degree, order) coefficient tables of one rectangle.

    ``I_lm``, the integral of ``Pbar_lm(cos t) sin t`` over the theta-band, is a
    trigonometric polynomial of degree l + 1 in t, so the bandlimited
    Gauss-Legendre rule integrates it to roundoff.
    """
    tlo, thi, plo, phi = rect
    nmax = cfg.cutoff
    g = s2_symbol_coefs(cfg)
    tn, tw = gauss_nodes(_bandlimited_nodes(0, nmax + 1, thi - tlo), tlo, thi)
    weights = tw * np.sin(tn)
    columns = _kernels.normalized_alf_columns(np.cos(tn), nmax)
    a0 = g * (phi - plo) * (next(columns)[1] @ weights)
    cm = np.zeros((nmax + 1, nmax + 1))
    for m, col in columns:
        cm[m:, m] = g[m:] * (2.0 / m) * (col @ weights)  # col @ weights = I_lm, l = m..nmax
    return a0, cm


def _prob_rect_s2_double(a: np.ndarray, b: np.ndarray, cfg: KdeConfig, rect) -> float:
    """n times the probability of one rectangle, from the moments ``a``, ``b`` up to the cutoff."""
    plo, phi = rect[2:]
    a0, cm = _rect_coef_tables_double(cfg, rect)
    return float(a0 @ a[:, 0] + np.sum(cm * _kernels.arc_combine(a, b, plo, phi)))


def _prob_rect_s2_extended(sample: SampleS2, cfg: KdeConfig, rect, bits: int) -> float:
    """Test reference: the incomplete-Beta closed form of one rectangle in ``bits``-bit
    arithmetic (mpmath), combined with the normalized observation sums."""
    import mpmath

    tlo, thi, plo, phi = rect
    nmax = cfg.cutoff
    g = s2_symbol_coefs(cfg)
    f = fit(sample, nmax)
    s0, s = f.cos[:, 0], _kernels.arc_combine(f.cos, f.sin, plo, phi)
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
            total += g[ell] * mpmath.sqrt(n2) * width * acc * s0[ell]
            log_front = mpmath.log((2 * ell + 1) / mpmath.mpf(FOUR_PI))
            for m in range(1, ell + 1):
                if s[ell, m] == 0.0:
                    continue
                tsum = _assoc_integral_mp(ell, m, x1, x2, bits)
                n2m = mpmath.exp(
                    log_front + mpmath.loggamma(ell - m + 1) - mpmath.loggamma(ell + m + 1)
                )
                total += g[ell] * mpmath.mpf(2) / m * mpmath.sqrt(n2m) * tsum * s[ell, m]
        val = float(total / sample.n)
    if not math.isfinite(val):
        raise NumericalError(
            f"closed-form probability is not representable after {bits}-bit "
            "evaluation; raise the extended bit count"
        )
    return val


def prob_rect_s2(sample: SampleS2, cfg: KdeConfig, region: RectRegion) -> ProbEstimate:
    """Closed-form probability of a rectangle union under the sphere estimator.

    One double-precision path serves every cutoff up to ``_kernels.ALF_MAX_DEGREE``.
    Above it, raises :class:`NumericalError`.
    """
    return _closed_estimate(sample, cfg, region)


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


def quadrature_prob(sample, cfg: KdeConfig, region: ArcRegion | RectRegion) -> ProbEstimate:
    """Numerically integrate the estimator over the region (oracle method).

    The node counts ``QUAD_THETA_NODES`` and ``QUAD_PHI_NODES`` are floors; they
    are raised automatically with the cutoff so the product rule resolves the
    estimator's oscillations.
    """
    _check_region(cfg.dim, region)
    t0 = time.perf_counter()
    f = fit(sample, cfg.cutoff)
    if cfg.dim == 1:
        def density(t: float) -> float:
            return float(f.density(cfg, np.array([t]))[0])

        total = sum(adaptive_simpson(density, lo, hi, QUAD_ARC_TOL) for lo, hi in region.arcs)
    else:
        total = 0.0
        for tlo, thi, plo, phi in region.rects:
            kt = _bandlimited_nodes(QUAD_THETA_NODES, cfg.cutoff + 1, thi - tlo)
            kp = _bandlimited_nodes(QUAD_PHI_NODES, cfg.cutoff, phi - plo)
            tn, tw = gauss_nodes(kt, tlo, thi)
            pn, pw = gauss_nodes(kp, plo, phi)
            ug, pg = np.meshgrid(np.cos(tn), pn, indexing="ij")
            vals = f.density(cfg, ug.ravel(), pg.ravel()).reshape(kt, kp)
            total += float((tw * np.sin(tn)) @ vals @ pw)
    return ProbEstimate(total, region, METHOD_QUADRATURE, time.perf_counter() - t0)


def vmf_true_prob_cap(kappa: float, theta_max: float) -> float:
    """Exact vMF probability of the polar cap {theta <= theta_max} about the mean.

    Equals (e^k - e^(k cos t)) / (e^k - e^(-k)), evaluated in overflow-safe form.
    """
    if kappa <= 0.0:
        raise ValueError(f"concentration must be positive, got {kappa}")
    if not (0.0 < theta_max <= math.pi):
        raise ValueError(f"cap angle must lie in (0, pi], got {theta_max}")
    return math.expm1(-kappa * (1.0 - math.cos(theta_max))) / math.expm1(-2.0 * kappa)
