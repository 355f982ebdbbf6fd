"""Special functions that the estimators and the paper's Legendre-integral
lemma call: Legendre polynomials, spherical-harmonic normalization and the
closed-form Legendre integrals.

Pointwise Legendre evaluation goes through the stable three-term recurrence;
the explicit alternating expansion is summed only in exact rationals, as a
reference (in floating point it cancels catastrophically from moderate degree
on).

Every function has one arithmetic.  :func:`legendre_p` and
:func:`sh_norm_const` run in double precision.  The closed-form
(incomplete-Beta and power) Legendre integral sums alternate in sign with
factorially large terms, so :func:`assoc_legendre_integral` and
:func:`legendre_integral` always sum them in 256-bit arithmetic (mpmath,
imported inside the functions that use it).  These sums are references:
acceptance criterion 5 checks the lemma through :func:`assoc_legendre_integral`,
and the 256-bit sphere probability that tests compare against uses
``_assoc_integral_mp``.  The production sphere closed form needs none of them;
it integrates normalized Legendre columns in double precision
(:func:`sphkde._kernels.normalized_alf_columns`).

``_beta_kernel_mp`` keeps its LRU cache, and ``_beta_kernel_double`` (no
sphkde caller) stays, because the benchmark's tracer (``perfbench/spans.py``)
reads the cache statistics of the one and counts calls to the other.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lgamma

from scipy import special as sp

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


def legendre_p_expansion(ell: int, u) -> Fraction:
    """P_ell(u) summed exactly, in rational arithmetic, from the explicit
    alternating expansion in powers of (1 - u).

    ``u`` may be an int, a :class:`~fractions.Fraction` or a float, which
    converts exactly.  In floating point this expansion cancels
    catastrophically from moderate degree on; summed exactly it is the
    reference that :func:`legendre_p` is checked against.
    """
    if ell < 0:
        raise ValueError(f"degree must be >= 0, got {ell}")
    x = Fraction(u)
    if not (-1 <= x <= 1):
        raise ValueError(f"argument must lie in [-1, 1], got {u}")
    acc = Fraction(0)
    for k in range(ell + 1):
        acc += comb(ell, k) * comb(ell + k, k) * Fraction(-1, 2) ** k * (1 - x) ** k
    return acc


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
# incomplete-Beta difference kernels

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
