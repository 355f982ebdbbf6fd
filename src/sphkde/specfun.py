"""Special functions backing the estimators: Legendre polynomials and their
associated functions, spherical-harmonic normalization, the incomplete Beta
function, closed-form Legendre integrals, and the modified Bessel function I0.

Pointwise Legendre evaluation always goes through stable three-term
recurrences; the explicit alternating expansion is kept only for
exact-rational cross-validation (it cancels catastrophically in floating
point from moderate degree on).

Every function has one arithmetic.  The pointwise functions run in double
precision.  The closed-form (incomplete-Beta and power) Legendre integral sums
alternate in sign with factorially large terms, so :func:`assoc_legendre_integral`
and :func:`legendre_integral` always sum them in 256-bit arithmetic (mpmath,
imported inside the functions that use it).  These sums are references:
acceptance criterion 5 checks the lemma through :func:`assoc_legendre_integral`,
and the 256-bit sphere probability that tests compare against uses
``_assoc_integral_mp``.  The production sphere closed form needs none of them;
it integrates normalized Legendre columns in double precision
(:func:`sphkde._kernels.normalized_alf_columns`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lgamma

from scipy import special as sp

from .geometry import SpherePoint

FOUR_PI = 4.0 * math.pi

# bits of the mpmath sums behind the closed-form Legendre integrals
LEMMA_BITS = 256


class NumericalError(RuntimeError):
    """Raised when a computation cannot be completed at the requested precision."""


# ---------------------------------------------------------------------------
# Legendre polynomials

def _check_u(u: float) -> float:
    if not (-1.0 <= u <= 1.0):
        raise ValueError(f"argument must lie in [-1, 1], got {u}")
    return float(u)


def legendre_p(ell: int, u: float) -> float:
    """P_ell(u) by the three-term recurrence; |result| <= 1 on [-1, 1]."""
    if ell < 0:
        raise ValueError(f"degree must be >= 0, got {ell}")
    u = _check_u(u)
    if ell == 0:
        return 1.0
    pm, p = 1.0, u
    for j in range(2, ell + 1):
        pm, p = p, ((2.0 * j - 1.0) * u * p - (j - 1.0) * pm) / j
    return p


def legendre_p_expansion(ell: int, u):
    """P_ell(u) via the explicit alternating expansion in powers of (1 - u).

    Exact when ``u`` is a :class:`~fractions.Fraction` (or int); the float
    path is numerically unreliable at moderate degree and exists only to
    demonstrate the hazard.
    """
    if ell < 0:
        raise ValueError(f"degree must be >= 0, got {ell}")
    if isinstance(u, (Fraction, int)):
        x = Fraction(u)
        if not (-1 <= x <= 1):
            raise ValueError(f"argument must lie in [-1, 1], got {u}")
        acc = Fraction(0)
        for k in range(ell + 1):
            acc += comb(ell, k) * comb(ell + k, k) * Fraction(-1, 2) ** k * (1 - x) ** k
        return acc
    u = _check_u(u)
    acc = 0.0
    for k in range(ell + 1):
        acc += comb(ell, k) * comb(ell + k, k) * (-0.5) ** k * (1.0 - u) ** k
    return acc


def assoc_legendre(ell: int, m: int, u: float) -> float:
    """Associated Legendre function P_ell^m(u) with the (-1)^m phase, m >= 1."""
    if not (1 <= m <= ell):
        raise ValueError(f"order must satisfy 1 <= m <= ell, got m={m}, ell={ell}")
    u = _check_u(u)
    somx2 = math.sqrt(max(0.0, (1.0 - u) * (1.0 + u)))
    pmm = 1.0
    for i in range(1, m + 1):
        pmm *= -(2.0 * i - 1.0) * somx2
    if ell == m:
        return pmm
    pprev = pmm
    pcur = u * (2.0 * m + 1.0) * pmm
    for j in range(m + 2, ell + 1):
        pprev, pcur = pcur, ((2.0 * j - 1.0) * u * pcur - (j + m - 1.0) * pprev) / (j - m)
    return pcur


def sh_norm_const(ell: int, m: int) -> float:
    """Spherical-harmonic normalization sqrt((2l+1)/(4pi) * (l-m)!/(l+m)!).

    Computed through log-factorials so large orders neither overflow nor lose
    the exponent range.
    """
    if not (0 <= m <= ell):
        raise ValueError(f"order must satisfy 0 <= m <= ell, got m={m}, ell={ell}")
    logval = 0.5 * (
        math.log((2.0 * ell + 1.0) / FOUR_PI) + lgamma(ell - m + 1) - lgamma(ell + m + 1)
    )
    return math.exp(logval)


# ---------------------------------------------------------------------------
# incomplete Beta function and derived kernels

def incomplete_beta(u: float, a: float, b: float) -> float:
    """Non-regularized lower incomplete Beta integral of t^(a-1) (1-t)^(b-1) on [0, u]."""
    if not (0.0 <= u <= 1.0):
        raise ValueError(f"u must lie in [0, 1], got {u}")
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if u == 0.0:
        return 0.0
    if u == 1.0:
        return sp.beta(a, b)
    return float(sp.betainc(a, b, u)) * float(sp.beta(a, b))


@dataclass(frozen=True)
class BetaKernelArgs:
    """Arguments of the incomplete-Beta difference kernel."""
    m: int
    k: int
    gamma1: float
    gamma2: float

    def __post_init__(self) -> None:
        if not (1 <= self.m <= self.k):
            raise ValueError(f"need 1 <= m <= k, got m={self.m}, k={self.k}")
        if not (-1.0 <= self.gamma1 <= self.gamma2 <= 1.0):
            raise ValueError(
                f"need -1 <= gamma1 <= gamma2 <= 1, got ({self.gamma1}, {self.gamma2})"
            )


def beta_kernel(args: BetaKernelArgs) -> float:
    """B((1+g2)/2; m/2+1, k-m/2+1) - B((1+g1)/2; m/2+1, k-m/2+1)."""
    a = args.m / 2.0 + 1.0
    b = args.k - args.m / 2.0 + 1.0
    x1 = 0.5 * (1.0 + args.gamma1)
    x2 = 0.5 * (1.0 + args.gamma2)
    return incomplete_beta(x2, a, b) - incomplete_beta(x1, a, b)


@lru_cache(maxsize=262144)
def _beta_kernel_mp(m: int, k: int, x1: float, x2: float, bits: int):
    """Cached mpmath incomplete-Beta difference at the half arguments x = (1+gamma)/2."""
    import mpmath

    with mpmath.workprec(bits):
        a = mpmath.mpf(m) / 2 + 1
        b = mpmath.mpf(k) - mpmath.mpf(m) / 2 + 1
        hi = mpmath.betainc(a, b, 0, x2, regularized=False) if x2 > 0 else mpmath.mpf(0)
        lo = mpmath.betainc(a, b, 0, x1, regularized=False) if x1 > 0 else mpmath.mpf(0)
        return hi - lo


# no sphkde caller; perfbench/spans.py counts calls through probability's import
def _beta_kernel_double(m: int, k: int, x1: float, x2: float) -> float:
    a = m / 2.0 + 1.0
    b = k - m / 2.0 + 1.0
    full = float(sp.beta(a, b))
    hi = full if x2 >= 1.0 else (0.0 if x2 <= 0.0 else float(sp.betainc(a, b, x2)) * full)
    lo = full if x1 >= 1.0 else (0.0 if x1 <= 0.0 else float(sp.betainc(a, b, x1)) * full)
    return hi - lo


# ---------------------------------------------------------------------------
# closed-form Legendre integrals

def _alp_int_coef(ell: int, m: int, k: int) -> int:
    # C(l,k) C(l+k,k) * 2 * (-1)^k * k!/(k-m)!, exact integer
    c = comb(ell, k) * comb(ell + k, k) * 2 * (factorial(k) // factorial(k - m))
    return -c if k % 2 else c


def assoc_legendre_integral(ell: int, m: int, gamma1: float, gamma2: float) -> float:
    """Integral of P_ell^m over [gamma1, gamma2] in closed incomplete-Beta form.

    The sum over k alternates with factorially large coefficients, so it is
    taken in ``LEMMA_BITS``-bit arithmetic at every degree.
    """
    if not (1 <= m <= ell):
        raise ValueError(f"order must satisfy 1 <= m <= ell, got m={m}, ell={ell}")
    if not (-1.0 <= gamma1 < gamma2 <= 1.0):
        raise ValueError(f"need -1 <= gamma1 < gamma2 <= 1, got ({gamma1}, {gamma2})")
    x1 = 0.5 * (1.0 + gamma1)
    x2 = 0.5 * (1.0 + gamma2)
    out = float(_assoc_integral_mp(ell, m, x1, x2, LEMMA_BITS))
    if not math.isfinite(out):
        raise NumericalError(f"integral of P_{ell}^{m} overflows double precision")
    return out


def _assoc_integral_mp(ell: int, m: int, x1: float, x2: float, bits: int):
    import mpmath

    with mpmath.workprec(bits):
        total = mpmath.mpf(0)
        for k in range(m, ell + 1):
            total += _alp_int_coef(ell, m, k) * _beta_kernel_mp(m, k, x1, x2, bits)
        return total


def legendre_integral(ell: int, theta1: float, theta2: float) -> float:
    """Integral of P_ell(u) over [cos(theta2), cos(theta1)] in closed power form,
    summed in ``LEMMA_BITS``-bit arithmetic."""
    import mpmath

    if ell < 0:
        raise ValueError(f"degree must be >= 0, got {ell}")
    if not (0.0 <= theta1 < theta2 <= math.pi):
        raise ValueError(f"need 0 <= theta1 < theta2 <= pi, got ({theta1}, {theta2})")
    # y = (1 - cos(theta)): antiderivative of (1-u)^k across [cos t2, cos t1]
    with mpmath.workprec(LEMMA_BITS):
        y1 = mpmath.mpf(1.0 - math.cos(theta1))
        y2 = mpmath.mpf(1.0 - math.cos(theta2))
        half = mpmath.mpf(-1) / 2
        total = mpmath.mpf(0)
        for k in range(ell + 1):
            c = comb(ell, k) * comb(ell + k, k)
            total += c * half ** k / (k + 1) * (y2 ** (k + 1) - y1 ** (k + 1))
        return float(total)


# ---------------------------------------------------------------------------
# modified Bessel I0

def _bessel_i0_series(kappa: float) -> float:
    # all-positive power series; no cancellation
    term = 1.0
    acc = 1.0
    q = 0.25 * kappa * kappa
    k = 1
    while True:
        term *= q / (k * k)
        acc += term
        if term < acc * 1e-17:
            return acc
        k += 1


def _bessel_i0_scaled_asymptotic(kappa: float) -> float:
    # e^(-kappa) I0(kappa) ~ (1/sqrt(2 pi kappa)) sum_k ((2k-1)!!)^2 / (k! (8 kappa)^k)
    acc = 1.0
    term = 1.0
    for k in range(1, 40):
        factor = (2.0 * k - 1.0) ** 2 / (8.0 * kappa * k)
        nxt = term * factor
        if nxt >= term:
            break
        term = nxt
        acc += term
        if term < 1e-17 * acc:
            break
    return acc / math.sqrt(2.0 * math.pi * kappa)


def bessel_i0(kappa: float) -> float:
    """Modified Bessel function I0; power series below 15, scaled asymptotics above."""
    if kappa < 0.0:
        raise ValueError(f"argument must be >= 0, got {kappa}")
    if kappa <= 15.0:
        return _bessel_i0_series(kappa)
    return math.exp(kappa) * _bessel_i0_scaled_asymptotic(kappa)


def bessel_i0_scaled(kappa: float) -> float:
    """Exponentially scaled e^(-kappa) I0(kappa), safe for large arguments."""
    if kappa < 0.0:
        raise ValueError(f"argument must be >= 0, got {kappa}")
    if kappa <= 15.0:
        return math.exp(-kappa) * _bessel_i0_series(kappa)
    return _bessel_i0_scaled_asymptotic(kappa)


# ---------------------------------------------------------------------------
# addition-formula self test

def sh_addition_check(ell: int, x: SpherePoint, y: SpherePoint) -> tuple[float, float]:
    """Evaluate both sides of the harmonic addition identity at degree ell.

    lhs = (2l+1)/(4pi) P_l(<x, y>); rhs accumulates the order sum through the
    real form implied by conjugation symmetry.  Used as a self test.
    """
    dot = min(1.0, max(-1.0, x.x1 * y.x1 + x.x2 * y.x2 + x.x3 * y.x3))
    lhs = (2.0 * ell + 1.0) / FOUR_PI * legendre_p(ell, dot)
    ux = math.cos(x.theta)
    uy = math.cos(y.theta)
    rhs = sh_norm_const(ell, 0) ** 2 * legendre_p(ell, ux) * legendre_p(ell, uy)
    for m in range(1, ell + 1):
        rhs += (
            2.0
            * sh_norm_const(ell, m) ** 2
            * assoc_legendre(ell, m, ux)
            * assoc_legendre(ell, m, uy)
            * math.cos(m * (x.phi - y.phi))
        )
    return lhs, rhs
