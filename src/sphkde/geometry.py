"""Coordinates, distances and angular regions on the unit circle and unit sphere.

All internal angles are radians.  Polar angles live in the half-open interval
(-pi, pi] (with -pi normalized to pi); sphere inclinations live in [0, pi].
Degrees are accepted only at ingestion boundaries (``latlon_to_cartesian``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

CARTESIAN_NORM_TOL = 1e-9


def normalize_angle(theta: float) -> float:
    """Reduce an angle mod 2*pi into (-pi, pi], mapping -pi to pi."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta}")
    out = math.pi - (math.pi - theta) % TWO_PI
    # float modulo can round up to exactly 2*pi; fold the stray endpoint back
    return out if out > -math.pi else math.pi


def normalize_angles(theta: np.ndarray) -> np.ndarray:
    """Vectorized :func:`normalize_angle`."""
    theta = np.asarray(theta, dtype=np.float64)
    if not np.all(np.isfinite(theta)):
        raise ValueError("angles must be finite")
    out = math.pi - np.remainder(math.pi - theta, TWO_PI)
    return np.where(out > -math.pi, out, math.pi)


@dataclass(frozen=True)
class CirclePoint:
    """A point on the unit circle, stored as its polar angle in (-pi, pi]."""
    theta: float

    @property
    def xy(self) -> tuple[float, float]:
        return (math.cos(self.theta), math.sin(self.theta))


@dataclass(frozen=True)
class SpherePoint:
    """A point on the unit sphere with cached spherical coordinates.

    Invariants: x1^2 + x2^2 + x3^2 = 1 within 1e-12; theta in [0, pi];
    phi in (-pi, pi] with phi = pi at the poles (x1 = x2 = 0).
    """
    x1: float
    x2: float
    x3: float
    theta: float
    phi: float

    @property
    def xyz(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)


def point_from_angle(theta: float) -> CirclePoint:
    """Build a circle point from an arbitrary finite angle."""
    return CirclePoint(normalize_angle(theta))


def angle_of_cartesian(x1: float, x2: float) -> float:
    """Polar angle in (-pi, pi] of a unit vector (x1, x2).

    Raises:
        ValueError: if x1^2 + x2^2 deviates from 1 by more than 1e-9.
    """
    nrm2 = x1 * x1 + x2 * x2
    if abs(nrm2 - 1.0) > CARTESIAN_NORM_TOL:
        raise ValueError(f"(x1, x2) must be unit length, got |x|^2 = {nrm2!r}")
    a = math.acos(min(1.0, max(-1.0, x1)))
    return a if x2 >= 0.0 else -a


def sphere_from_angles(theta: float, phi: float) -> SpherePoint:
    """Build a sphere point from inclination theta in [0, pi] and azimuth phi."""
    if not (0.0 <= theta <= math.pi):
        raise ValueError(f"inclination must lie in [0, pi], got {theta}")
    phi = normalize_angle(phi)
    st = math.sin(theta)
    x1 = st * math.cos(phi)
    x2 = st * math.sin(phi)
    x3 = math.cos(theta)
    if x1 == 0.0 and x2 == 0.0:
        phi = math.pi
    return SpherePoint(x1, x2, x3, theta, phi)


def sphere_from_xyz(x1: float, x2: float, x3: float) -> SpherePoint:
    """Build a sphere point from unit Cartesian coordinates."""
    nrm2 = x1 * x1 + x2 * x2 + x3 * x3
    if abs(nrm2 - 1.0) > CARTESIAN_NORM_TOL:
        raise ValueError(f"(x1, x2, x3) must be unit length, got |x|^2 = {nrm2!r}")
    theta = math.acos(min(1.0, max(-1.0, x3)))
    rho = math.hypot(x1, x2)
    if rho == 0.0:
        phi = math.pi
    else:
        a = math.acos(min(1.0, max(-1.0, x1 / rho)))
        phi = a if x2 >= 0.0 else -a
    return SpherePoint(x1, x2, x3, theta, phi)


def angles_of_sphere(p: SpherePoint) -> tuple[float, float]:
    """Resolve (theta, phi) from a sphere point; phi = pi when x1 = x2 = 0."""
    q = sphere_from_xyz(p.x1, p.x2, p.x3)
    return (q.theta, q.phi)


def cartesian_to_angles(xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (theta, phi) for an (n, 3) array of unit vectors."""
    xyz = np.asarray(xyz, dtype=np.float64)
    theta = np.arccos(np.clip(xyz[:, 2], -1.0, 1.0))
    phi = np.arctan2(xyz[:, 1], xyz[:, 0])
    polar = np.hypot(xyz[:, 0], xyz[:, 1]) == 0.0
    phi[polar] = math.pi
    # arctan2 emits -pi on the negative-x axis; the convention wants +pi
    phi[phi == -math.pi] = math.pi
    return theta, phi


def distance(a: CirclePoint | SpherePoint, b: CirclePoint | SpherePoint) -> float:
    """Geodesic (angular) distance arccos(<a, b>), with the dot clamped to [-1, 1]."""
    if isinstance(a, CirclePoint) and isinstance(b, CirclePoint):
        dot = math.cos(a.theta - b.theta)
    elif isinstance(a, SpherePoint) and isinstance(b, SpherePoint):
        dot = a.x1 * b.x1 + a.x2 * b.x2 + a.x3 * b.x3
    else:
        raise ValueError("points must lie on the same sphere")
    return math.acos(min(1.0, max(-1.0, dot)))


def latlon_to_cartesian(lat: float, lon: float) -> SpherePoint:
    """Map latitude/longitude in degrees to a unit vector.

    Latitude in [-90, 90]; longitude in (-180, 180].
    """
    if not (-90.0 <= lat <= 90.0):
        raise ValueError(f"latitude must lie in [-90, 90], got {lat}")
    if not (-180.0 < lon <= 180.0):
        raise ValueError(f"longitude must lie in (-180, 180], got {lon}")
    la = math.radians(lat)
    lo = math.radians(lon)
    return sphere_from_xyz(
        math.cos(la) * math.cos(lo),
        math.cos(la) * math.sin(lo),
        math.sin(la),
    )


def periodic_to_angle(t: float, a: float, b: float) -> CirclePoint:
    """Affinely map t in the period (a, b] onto the circle (-pi, pi]."""
    if not (a < b):
        raise ValueError(f"period must satisfy a < b, got a={a}, b={b}")
    if not (a < t <= b):
        raise ValueError(f"t must lie in ({a}, {b}], got {t}")
    return CirclePoint(TWO_PI * (t - a) / (b - a) - math.pi)


@dataclass(frozen=True)
class ArcRegion:
    """A disjoint union of angular arcs (theta_lo, theta_hi) on the circle."""
    arcs: tuple[tuple[float, float], ...]

    def measure(self) -> float:
        return sum(hi - lo for lo, hi in self.arcs)

    def __str__(self) -> str:
        return " + ".join(f"[{lo:g}, {hi:g}]" for lo, hi in self.arcs)


@dataclass(frozen=True)
class RectRegion:
    """A disjoint union of spherical rectangles [t_lo, t_hi] x [p_lo, p_hi]."""
    rects: tuple[tuple[float, float, float, float], ...]

    def measure(self) -> float:
        # surface measure: (cos t_lo - cos t_hi) * (p_hi - p_lo) per rectangle
        return sum(
            (math.cos(tlo) - math.cos(thi)) * (phi - plo)
            for tlo, thi, plo, phi in self.rects
        )

    def __str__(self) -> str:
        return " + ".join(
            f"[{tlo:g}, {thi:g}]x[{plo:g}, {phi:g}]"
            for tlo, thi, plo, phi in self.rects
        )


def _check_arc_overlap(arcs: list[tuple[float, float]]) -> None:
    ordered = sorted(arcs)
    for (alo, ahi), (blo, bhi) in zip(ordered, ordered[1:]):
        if blo < ahi - 1e-15:
            raise ValueError(f"arcs [{alo}, {ahi}] and [{blo}, {bhi}] overlap")


def arc_region(*bounds: tuple[float, float]) -> ArcRegion:
    """Build an :class:`ArcRegion`, splitting arcs that wrap across theta = pi.

    Each bound is (lo, hi) with both endpoints in [-pi, pi]; lo > hi denotes
    the wrapped arc passing through pi and is split automatically.
    """
    if not bounds:
        raise ValueError("at least one arc is required")
    arcs: list[tuple[float, float]] = []
    for lo, hi in bounds:
        if not (-math.pi <= lo <= math.pi and -math.pi <= hi <= math.pi):
            raise ValueError(f"arc bounds must lie in [-pi, pi], got ({lo}, {hi})")
        if lo == hi:
            raise ValueError(f"arc ({lo}, {hi}) is empty")
        if lo < hi:
            arcs.append((float(lo), float(hi)))
        else:
            arcs.append((float(lo), math.pi))
            if hi > -math.pi:
                arcs.append((-math.pi, float(hi)))
    _check_arc_overlap(arcs)
    total = sum(hi - lo for lo, hi in arcs)
    if total > TWO_PI + 1e-12:
        raise ValueError(f"total arc length {total} exceeds 2*pi")
    return ArcRegion(tuple(arcs))


def rect_region(*bounds: tuple[float, float, float, float]) -> RectRegion:
    """Build a :class:`RectRegion`, splitting rectangles that wrap across phi = pi.

    Each bound is (theta_lo, theta_hi, phi_lo, phi_hi) with inclinations in
    [0, pi] and azimuths in [-pi, pi]; phi_lo > phi_hi denotes a wrapped band.
    """
    if not bounds:
        raise ValueError("at least one rectangle is required")
    rects: list[tuple[float, float, float, float]] = []
    for tlo, thi, plo, phi in bounds:
        if not (0.0 <= tlo < thi <= math.pi):
            raise ValueError(f"inclination bounds must satisfy 0 <= lo < hi <= pi, got ({tlo}, {thi})")
        if not (-math.pi <= plo <= math.pi and -math.pi <= phi <= math.pi):
            raise ValueError(f"azimuth bounds must lie in [-pi, pi], got ({plo}, {phi})")
        if plo == phi:
            raise ValueError(f"rectangle with empty azimuth span ({plo}, {phi})")
        if plo < phi:
            rects.append((float(tlo), float(thi), float(plo), float(phi)))
        else:
            rects.append((float(tlo), float(thi), float(plo), math.pi))
            if phi > -math.pi:
                rects.append((float(tlo), float(thi), -math.pi, float(phi)))
    for i, a in enumerate(rects):
        for b in rects[i + 1:]:
            t_overlap = min(a[1], b[1]) - max(a[0], b[0])
            p_overlap = min(a[3], b[3]) - max(a[2], b[2])
            if t_overlap > 1e-15 and p_overlap > 1e-15:
                raise ValueError(f"rectangles {a} and {b} overlap")
    return RectRegion(tuple(rects))


FULL_CIRCLE = ArcRegion(((-math.pi, math.pi),))
FULL_SPHERE = RectRegion(((0.0, math.pi, -math.pi, math.pi),))
