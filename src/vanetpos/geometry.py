"""Coordinate frames and range-based multilateration.

The local frame is a flat-earth equirectangular projection anchored at an
origin: x east-ish along the road (meters), y lateral, z up. Good to well
under a meter for the sub-kilometer road segments this toolkit targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import InsufficientAnchors, NoConvergence, VanetPosError

EARTH_RADIUS_M = 6_371_000.0

# |latitude| limit for the equirectangular approximation
_MAX_LAT_DEG = 89.0

# Gauss-Newton controls
_GN_MAX_ITERS = 100
_GN_STEP_TOL = 1e-9

# anchors closer than this are treated as coincident / collinear
_GEOM_TOL = 1e-9

@dataclass(frozen=True)
class GlobalPosition:
    """Geographic position: latitude/longitude in degrees, altitude in meters."""

    latitude_deg: float = 0.0
    longitude_deg: float = 0.0
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
            raise VanetPosError(
                f"latitude {p.latitude_deg} too close to a pole for the "
                f"flat-earth frame (|lat| must be < {_MAX_LAT_DEG})"
            )


def to_local(g: GlobalPosition, origin: GlobalPosition) -> LocalPoint:
    """Project a global position into the local frame of `origin`.

    x grows with longitude (scaled by cos of the origin latitude), y with
    latitude, z with altitude. Exact inverse of :func:`to_global` for the
    same origin. A longitude difference beyond half a turn is wrapped into
    [-180, 180] degrees, so a track across the antimeridian stays whole.
    """
    _check_latitudes(g, origin)
    dlat = math.radians(g.latitude_deg - origin.latitude_deg)
    dlon_deg = g.longitude_deg - origin.longitude_deg
    if abs(dlon_deg) > 180.0:
        dlon_deg = math.remainder(dlon_deg, 360.0)
    dlon = math.radians(dlon_deg)
    x = EARTH_RADIUS_M * dlon * math.cos(math.radians(origin.latitude_deg))
    y = EARTH_RADIUS_M * dlat
    z = g.altitude_m - origin.altitude_m
    return LocalPoint(x, y, z)


def to_global(p: LocalPoint, origin: GlobalPosition) -> GlobalPosition:
    """Inverse of :func:`to_local` on the same origin; a longitude past
    ±180 degrees is wrapped back into range."""
    _check_latitudes(origin)
    lat = origin.latitude_deg + math.degrees(p.y_m / EARTH_RADIUS_M)
    lon = origin.longitude_deg + math.degrees(
        p.x_m / (EARTH_RADIUS_M * math.cos(math.radians(origin.latitude_deg)))
    )
    alt = origin.altitude_m + p.z_m
    if abs(lon) > 180.0:
        lon = math.remainder(lon, 360.0)
    if abs(lat) >= _MAX_LAT_DEG:
        raise VanetPosError(
            f"resulting latitude {lat} too close to a pole for the flat-earth frame"
        )
    return GlobalPosition(lat, lon, alt)


def _line_direction(
    offsets: Sequence[Tuple[float, float]],
) -> Optional[Tuple[float, float]]:
    """Unit direction of the centred anchor offsets' line, or None if they
    are not collinear (two always are); see `multilaterate`."""
    sxx = sxy = syy = det = 0.0
    for i, (xi, yi) in enumerate(offsets):
        sxx, sxy, syy = sxx + xi * xi, sxy + xi * yi, syy + yi * yi
        for xj, yj in offsets[i + 1 :]:
            det += (xi * yj - xj * yi) ** 2  # Lagrange identity: det(C^T C)
    disc = math.sqrt((sxx - syy) ** 2 + 4.0 * sxy * sxy)
    lam0 = 0.5 * (sxx + syy + disc)
    if len(offsets) > 2 and det / lam0 > _GEOM_TOL * _GEOM_TOL * max(lam0, 1.0):
        return None
    # C^T C's eigenvector of lam0, from the row that does not cancel; the
    # first row gives d_x > 0, the second d_y > 0 and d_x of either sign
    if sxx >= syy:
        dx, dy = 0.5 * (sxx - syy + disc), sxy
    else:
        dx, dy = sxy, 0.5 * (syy - sxx + disc)
    norm = math.sqrt(dx * dx + dy * dy)
    if dx < 0.0:
        norm = -norm
    return dx / norm, dy / norm


def _linear_init(
    pts: Sequence[Tuple[float, float, float, float]], z: float
) -> Tuple[float, float]:
    """Closed-form linearized solve (pairwise-difference equations).

    Subtracting the first range equation from the others cancels the
    quadratic terms, leaving a linear system in (x, y). Exact for noiseless
    data with non-degenerate anchors; for collinear anchors lstsq returns
    the minimum-norm solution, which the caller moves to 1 m off the
    anchor line before iterating.
    """
    x0, y0, z0, r0 = pts[0]
    rows, rhs = [], []
    for x, y, zi, r in pts[1:]:
        rows.append((2.0 * (x - x0), 2.0 * (y - y0)))
        const = (z - zi) * (z - zi) - (z - z0) * (z - z0)
        rhs.append(r0**2 - r**2 + (x * x + y * y) - (x0 * x0 + y0 * y0) + const)
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    return float(sol[0]), float(sol[1])


def _gauss_newton(
    px: float, py: float, terms: Sequence[Tuple[float, float, float, float]]
) -> Tuple[float, float]:
    """Minimize sum((||p - a_i|| - r_i)^2) over (x, y) from (px, py).

    Each term is (a_x, a_y, (z - a_z)**2, r) at the fixed height z.
    Gauss-Newton steps with Levenberg damping: the damping handles the flat
    valley that appears when noisy ranges leave the circles disjoint and the
    minimum sits on the anchor line. Converges on step norm, on objective
    stagnation, or when no damped step can improve (numerically stationary).
    Raises NoConvergence only if none of those trigger. Runs on scalar floats
    with a closed-form 2x2 solve (the damped determinant is at least
    lam * trace > 0), so it is not bitwise equal to numpy's LAPACK path.
    Each point is evaluated once: a trial also sums the normal equations
    (with the clamped objective) that the next iteration takes if it wins.
    A trial is rejected at the anchor whose square takes its partial
    objective past the acceptance bound: a float sum of non-negative squares
    never decreases, and a NaN or inf objective still fails the final test.
    """
    lam = 1e-3
    stagnant = 0
    prev_obj = n00 = n01 = n11 = g0 = g1 = 0.0
    for ax, ay, dz2, r in terms:
        dx, dy = px - ax, py - ay
        dist = max(math.sqrt(dx * dx + dy * dy + dz2), 1e-12)
        res = dist - r
        prev_obj += res * res
        jx, jy = dx / dist, dy / dist
        n00, n01, n11 = n00 + jx * jx, n01 + jx * jy, n11 + jy * jy
        g0, g1 = g0 + jx * res, g1 + jy * res
    for _ in range(_GN_MAX_ITERS):
        bound = prev_obj + 1e-18
        for _ in range(40):
            a00, a11 = n00 + lam, n11 + lam
            det = a00 * a11 - n01 * n01
            if 0.0 < det < math.inf:
                sx = (n01 * g1 - a11 * g0) / det
                sy = (n01 * g0 - a00 * g1) / det
                qx, qy = px + sx, py + sy
                obj = cobj = m00 = m01 = m11 = h0 = h1 = 0.0
                for ax, ay, dz2, r in terms:
                    dx, dy = qx - ax, qy - ay
                    dist = math.sqrt(dx * dx + dy * dy + dz2)
                    res = dist - r
                    obj += res * res  # the acceptance test is unclamped
                    if obj > bound:
                        break
                    if dist < 1e-12:  # max(dist, 1e-12), as at the start
                        dist, res = 1e-12, 1e-12 - r
                    cobj += res * res
                    jx, jy = dx / dist, dy / dist
                    m00, m01, m11 = m00 + jx * jx, m01 + jx * jy, m11 + jy * jy
                    h0, h1 = h0 + jx * res, h1 + jy * res
                if math.isfinite(obj) and obj <= bound:
                    break
            lam *= 10.0
        else:
            break  # no damped step improves: numerically stationary
        px, py = qx, qy
        lam = max(lam * 0.3, 1e-12)
        if math.sqrt(sx * sx + sy * sy) < _GN_STEP_TOL:
            break
        stagnant = stagnant + 1 if prev_obj - obj <= 1e-15 * (1.0 + prev_obj) else 0
        if stagnant >= 3:
            break
        prev_obj, n00, n01, n11, g0, g1 = cobj, m00, m01, m11, h0, h1
    else:
        raise NoConvergence(
            f"multilateration did not converge in {_GN_MAX_ITERS} iterations"
        )
    return px, py


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
    mean y. Collinear means the centred anchors' singular values s0 >= s1
    have s1 <= 1e-9 * max(s0, 1 m), where s1**2 = det / s0**2 and det is
    summed by the Lagrange identity, which does not cancel. The line
    direction d has d_x > 0, or d_y > 0 on a line along y. A solve that
    starts on the line never leaves it, so a hint on the line moves 1 m
    along the normal (-d_y, d_x), and a start without a hint is placed 1 m
    off the line on that side: +y, or -x on a line along y.
    """
    n = len(ranges)
    if n < 2:
        raise InsufficientAnchors(f"2D multilateration needs >= 2 anchors, got {n}")
    pts = [(r.anchor.x_m, r.anchor.y_m, r.anchor.z_m, r.range_m) for r in ranges]
    mx, my = pts[0][0], pts[0][1]
    for ax, ay, _, _ in pts[1:]:
        mx, my = mx + ax, my + ay
    mx, my = mx / n, my / n
    offsets = [(ax - mx, ay - my) for ax, ay, _, _ in pts]
    if all(math.sqrt(cx * cx + cy * cy) <= _GEOM_TOL for cx, cy in offsets):
        raise VanetPosError("anchors coincident in the 2D solve plane")

    z = hint.z_m if hint is not None else 0.0
    d = _line_direction(offsets)
    if hint is not None:
        px, py = hint.x_m, hint.y_m
        if d is not None and abs((px - mx) * -d[1] + (py - my) * d[0]) < 1e-6:
            px, py = px - d[1], py + d[0]
    else:
        px, py = _linear_init(pts, z)
        if d is not None:
            # collinear: lstsq gives no side; start 1 m off the line
            off = 1.0 - ((px - mx) * -d[1] + (py - my) * d[0])
            px, py = px - off * d[1], py + off * d[0]

    terms = [(ax, ay, (z - az) * (z - az), r) for ax, ay, az, r in pts]
    px, py = _gauss_newton(px, py, terms)
    if d is not None:
        rx, ry = px - mx, py - my
        t = rx * d[0] + ry * d[1]
        ux, uy = t * d[0], t * d[1]
        qx, qy = mx + ux - (rx - ux), my + uy - (ry - uy)
        if hint is not None:
            hx, hy = hint.x_m, hint.y_m
            if math.hypot(qx - hx, qy - hy) < math.hypot(px - hx, py - hy):
                px, py = qx, qy
        elif py < my and qy >= my:
            px, py = qx, qy
    return LocalPoint(px, py, z)


def fuse_fixes(points: Iterable[LocalPoint]) -> LocalPoint:
    """Component-wise mean of several position fixes."""
    pts = list(points)
    if not pts:
        raise VanetPosError("fuse_fixes needs at least one point")
    x, y, z = pts[0].x_m, pts[0].y_m, pts[0].z_m
    for p in pts[1:]:
        x, y, z = x + p.x_m, y + p.y_m, z + p.z_m
    k = len(pts)
    return LocalPoint(x / k, y / k, z / k)
