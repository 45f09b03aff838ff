"""Coordinate frames and range-based multilateration.

The local frame is a flat-earth equirectangular projection anchored at an
origin: x east-ish along the road (meters), y lateral, z up. Good to well
under a meter for the sub-kilometer road segments this toolkit targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateGeometry,
    EmptyInput,
    InsufficientAnchors,
    NoConvergence,
    PolarRegion,
)

EARTH_RADIUS_M = 6_371_000.0

# |latitude| limit for the equirectangular approximation
_MAX_LAT_DEG = 89.0

# Gauss-Newton controls
_GN_MAX_ITERS = 100
_GN_STEP_TOL = 1e-9

# anchors closer than this are treated as coincident / collinear
_GEOM_TOL = 1e-9

# the coordinates a solve frees: x and y; z stays at the hint's height
_XY = np.array([True, True, False])


@dataclass(frozen=True)
class GlobalPosition:
    """Geographic position: latitude/longitude in degrees, altitude in meters."""

    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude {self.latitude_deg} outside [-90, 90]")
        if not -180.0 <= self.longitude_deg <= 180.0:
            raise ValueError(f"longitude {self.longitude_deg} outside [-180, 180]")


@dataclass(frozen=True)
class LocalPoint:
    """Point in the road-aligned local frame, meters."""

    x_m: float
    y_m: float
    z_m: float = 0.0

    def __post_init__(self) -> None:
        for v in (self.x_m, self.y_m, self.z_m):
            if not math.isfinite(v):
                raise ValueError(f"non-finite local coordinate: {v}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x_m, self.y_m, self.z_m], dtype=float)


@dataclass(frozen=True)
class AnchorRange:
    """A measured/estimated distance to a known anchor point."""

    anchor: LocalPoint
    range_m: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.range_m) and self.range_m >= 0.0):
            raise ValueError(f"range_m must be finite and >= 0, got {self.range_m}")


def _check_latitudes(*positions: GlobalPosition) -> None:
    for p in positions:
        if abs(p.latitude_deg) >= _MAX_LAT_DEG:
            raise PolarRegion(
                f"latitude {p.latitude_deg} too close to a pole for the "
                f"flat-earth frame (|lat| must be < {_MAX_LAT_DEG})"
            )


def to_local(g: GlobalPosition, origin: GlobalPosition) -> LocalPoint:
    """Project a global position into the local frame of `origin`.

    x grows with longitude (scaled by cos of the origin latitude), y with
    latitude, z with altitude. Exact inverse of :func:`to_global` for the
    same origin.
    """
    _check_latitudes(g, origin)
    dlat = math.radians(g.latitude_deg - origin.latitude_deg)
    dlon = math.radians(g.longitude_deg - origin.longitude_deg)
    x = EARTH_RADIUS_M * dlon * math.cos(math.radians(origin.latitude_deg))
    y = EARTH_RADIUS_M * dlat
    z = g.altitude_m - origin.altitude_m
    return LocalPoint(x, y, z)


def to_global(p: LocalPoint, origin: GlobalPosition) -> GlobalPosition:
    """Inverse of :func:`to_local` on the same origin."""
    _check_latitudes(origin)
    lat = origin.latitude_deg + math.degrees(p.y_m / EARTH_RADIUS_M)
    lon = origin.longitude_deg + math.degrees(
        p.x_m / (EARTH_RADIUS_M * math.cos(math.radians(origin.latitude_deg)))
    )
    alt = origin.altitude_m + p.z_m
    if abs(lat) >= _MAX_LAT_DEG:
        raise PolarRegion(
            f"resulting latitude {lat} too close to a pole for the flat-earth frame"
        )
    return GlobalPosition(lat, lon, alt)


def _anchor_matrix(ranges: Sequence[AnchorRange]) -> np.ndarray:
    return np.array([r.anchor.as_array() for r in ranges], dtype=float)


def _line_direction_xy(anchors: np.ndarray) -> Optional[np.ndarray]:
    """Unit direction of the anchors' (x, y) line; None if they are not on
    one line (two anchors always are)."""
    centered = anchors[:, :2] - anchors[:, :2].mean(axis=0)
    _, s, vt = np.linalg.svd(centered)
    if len(anchors) > 2 and s[1] > _GEOM_TOL * max(s[0], 1.0):
        return None
    return vt[0] / np.linalg.norm(vt[0])


def _reflect_across_line_2d(
    p: np.ndarray, anchors: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Mirror a point across the anchor line of direction d, within (x, y)."""
    base = anchors[:, :2].mean(axis=0)
    rel = p[:2] - base
    along = rel.dot(d) * d
    mirrored = base + along - (rel - along)
    return np.array([mirrored[0], mirrored[1], p[2]])


def _linear_init(
    anchors: np.ndarray, rng_m: np.ndarray, z_fixed: float
) -> np.ndarray:
    """Closed-form linearized solve (pairwise-difference equations).

    Subtracting the first range equation from the others cancels the
    quadratic terms, leaving a linear system in (x, y). Exact for noiseless
    data with non-degenerate anchors; for collinear anchors lstsq returns
    the minimum-norm component (a point on the anchor line), which the
    caller nudges off before iterating.
    """
    a0 = anchors[0]
    rows = []
    rhs = []
    for a_i, r_i in zip(anchors[1:], rng_m[1:]):
        rows.append(2.0 * (a_i - a0)[_XY])
        const = np.sum((z_fixed - a_i[~_XY]) ** 2) - np.sum(
            (z_fixed - a0[~_XY]) ** 2
        )
        rhs.append(
            rng_m[0] ** 2
            - r_i**2
            + np.sum(a_i[_XY] ** 2)
            - np.sum(a0[_XY] ** 2)
            + const
        )
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    p = np.full(3, z_fixed, dtype=float)
    p[_XY] = sol
    return p


def _gauss_newton(
    start: np.ndarray, anchors: np.ndarray, rng_m: np.ndarray
) -> np.ndarray:
    """Minimize sum((||p - a_i|| - r_i)^2) over (x, y), z held at start's z.

    Gauss-Newton steps with Levenberg damping: the damping handles the flat
    valley that appears when noisy ranges leave the circles disjoint and
    the minimum sits on the anchor line. Converges on step norm, on
    objective stagnation, or when no damped step can improve (numerically
    stationary). Raises NoConvergence only if none of those trigger. Runs on
    scalar floats with a closed-form 2x2 solve (the damped determinant is at
    least lam * trace > 0), so it is not bitwise equal to numpy's LAPACK path.
    """
    px, py, z = map(float, start)
    terms = [
        (ax, ay, (z - az) * (z - az), r)
        for (ax, ay, az), r in zip(anchors.tolist(), rng_m.tolist())
    ]
    lam = 1e-3
    stagnant = 0
    for _ in range(_GN_MAX_ITERS):
        prev_obj = n00 = n01 = n11 = g0 = g1 = 0.0
        for ax, ay, dz2, r in terms:
            dx, dy = px - ax, py - ay
            dist = max(math.sqrt(dx * dx + dy * dy + dz2), 1e-12)
            res = dist - r
            prev_obj += res * res
            jx, jy = dx / dist, dy / dist
            n00 += jx * jx
            n01 += jx * jy
            n11 += jy * jy
            g0 += jx * res
            g1 += jy * res
        for _ in range(40):
            a00, a11 = n00 + lam, n11 + lam
            det = a00 * a11 - n01 * n01
            if 0.0 < det < math.inf:
                sx = (n01 * g1 - a11 * g0) / det
                sy = (n01 * g0 - a00 * g1) / det
                obj = 0.0
                for ax, ay, dz2, r in terms:
                    dx, dy = px + sx - ax, py + sy - ay
                    res = math.sqrt(dx * dx + dy * dy + dz2) - r
                    obj += res * res
                if math.isfinite(obj) and obj <= prev_obj + 1e-18:
                    break
            lam *= 10.0
        else:
            break  # no damped step improves: numerically stationary
        px, py = px + sx, py + sy
        lam = max(lam * 0.3, 1e-12)
        if math.sqrt(sx * sx + sy * sy) < _GN_STEP_TOL:
            break
        stagnant = stagnant + 1 if prev_obj - obj <= 1e-15 * (1.0 + prev_obj) else 0
        if stagnant >= 3:
            break
    else:
        raise NoConvergence(
            f"multilateration did not converge in {_GN_MAX_ITERS} iterations"
        )
    return np.array([px, py, z])


def multilaterate(
    ranges: Sequence[AnchorRange], hint: Optional[LocalPoint] = None
) -> LocalPoint:
    """Estimate a position on the road plane from distances to known anchors.

    Least squares in the range residuals, solved by Gauss-Newton for (x, y)
    with z fixed to the hint's z (or 0); the anchors' heights enter the
    distances but are never solved for. Needs at least two anchors that are
    distinct in (x, y).

    Anchors collinear in (x, y) leave a mirror ambiguity across their line:
    it resolves to the solution nearer the hint or, without a hint, to the
    road-side convention of picking the solution with y >= the anchors'
    mean y.
    """
    if len(ranges) < 2:
        raise InsufficientAnchors(
            f"2D multilateration needs >= 2 anchors, got {len(ranges)}"
        )

    anchors = _anchor_matrix(ranges)
    rng_m = np.array([r.range_m for r in ranges], dtype=float)
    xy_spread = np.linalg.norm(
        anchors[:, :2] - anchors[:, :2].mean(axis=0), axis=1
    )
    if np.all(xy_spread <= _GEOM_TOL):
        raise DegenerateGeometry("anchors coincident in the 2D solve plane")

    z = hint.z_m if hint is not None else 0.0
    d = _line_direction_xy(anchors)
    normal = None if d is None else np.array([-d[1], d[0]])
    if hint is not None:
        start = np.array([hint.x_m, hint.y_m, z])
        if normal is not None:
            # a start on the anchor line never leaves it; nudge off
            rel = start[:2] - anchors[:, :2].mean(axis=0)
            if abs(rel.dot(normal)) < 1e-6:
                start[:2] += normal
    else:
        start = _linear_init(anchors, rng_m, z)
        if normal is not None:
            # the linearized solve lands on the anchor line; push off on
            # the +y side so the road-side convention holds
            if normal[1] < 0:
                normal = -normal
            start[:2] += normal

    p = _gauss_newton(start, anchors, rng_m)

    if d is not None:
        mirror = _reflect_across_line_2d(p, anchors, d)
        if hint is not None:
            h = np.array([hint.x_m, hint.y_m, z])
            if np.linalg.norm(mirror - h) < np.linalg.norm(p - h):
                p = mirror
        else:
            mean_y = anchors[:, 1].mean()
            if p[1] < mean_y and mirror[1] >= mean_y:
                p = mirror
    return LocalPoint(p[0], p[1], p[2])


def fuse_fixes(points: Iterable[LocalPoint]) -> LocalPoint:
    """Component-wise mean of several position fixes."""
    pts = list(points)
    if not pts:
        raise EmptyInput("fuse_fixes needs at least one point")
    arr = np.array([p.as_array() for p in pts])
    mean = arr.mean(axis=0)
    return LocalPoint(mean[0], mean[1], mean[2])
