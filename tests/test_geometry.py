import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetpos import geometry
from vanetpos.errors import InsufficientAnchors, NoConvergence, VanetPosError
from vanetpos.geometry import (
    EARTH_RADIUS_M,
    AnchorRange,
    GlobalPosition,
    LocalPoint,
    fuse_fixes,
    multilaterate,
    to_global,
    to_local,
)

from helpers import scalar_gauss_newton_reference


def brute_force_minimum(anchors, ranges, center, half_width=1.0, step=0.01, z=0.0):
    """Independent grid-search minimizer of the multilateration objective.

    Deliberately naive: evaluates sum((dist - range)^2) on a regular (x, y)
    grid and returns the argmin. Shares no code with the Gauss-Newton path.
    """
    xs = np.arange(center[0] - half_width, center[0] + half_width + step / 2, step)
    ys = np.arange(center[1] - half_width, center[1] + half_width + step / 2, step)
    gx, gy = np.meshgrid(xs, ys)
    obj = np.zeros_like(gx)
    for (ax, ay, az), r in zip(anchors, ranges):
        dist = np.sqrt((gx - ax) ** 2 + (gy - ay) ** 2 + (z - az) ** 2)
        obj += (dist - r) ** 2
    idx = np.unravel_index(np.argmin(obj), obj.shape)
    return np.array([gx[idx], gy[idx], z])


_XY = np.array([True, True, False])


def reference_gauss_newton(start, anchors, rng_m, max_iters=100):
    """The numpy Gauss-Newton loop the scalar solver replaced.

    Same control flow as `geometry._gauss_newton`, on arrays: matmul normal
    equations, a LAPACK solve with an lstsq fallback, a numpy objective. The
    scalar solver rounds differently, so it must agree within a tolerance,
    not bit for bit.
    """

    def objective(p):
        return float(np.sum((np.linalg.norm(anchors - p, axis=1) - rng_m) ** 2))

    p = start.astype(float).copy()
    lam = 1e-3
    prev_obj = objective(p)
    stagnant = 0
    for _ in range(max_iters):
        diffs = p - anchors
        dists = np.maximum(np.linalg.norm(diffs, axis=1), 1e-12)
        jac = (diffs / dists[:, None])[:, _XY]
        normal = jac.T @ jac
        grad = jac.T @ (dists - rng_m)
        improved = False
        for _ in range(40):
            try:
                step = np.linalg.solve(normal + lam * np.eye(2), -grad)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(normal + lam * np.eye(2), -grad, rcond=None)
            trial = p.copy()
            trial[_XY] += step
            obj = objective(trial)
            if np.isfinite(obj) and obj <= prev_obj + 1e-18:
                improved = True
                break
            lam *= 10.0
        if not improved:
            return p
        p = trial
        lam = max(lam * 0.3, 1e-12)
        if np.linalg.norm(step) < 1e-9:
            return p
        if prev_obj - obj <= 1e-15 * (1.0 + prev_obj):
            stagnant += 1
            if stagnant >= 3:
                return p
        else:
            stagnant = 0
        prev_obj = obj
    raise NoConvergence(f"multilateration did not converge in {max_iters} iterations")


def gauss_newton_xyz(start, anchors, rng_m):
    """`geometry._gauss_newton` on arrays: (x, y, z) start, (n, 3) anchors."""
    z = float(start[2])
    terms = [
        (ax, ay, (z - az) * (z - az), r)
        for (ax, ay, az), r in zip(np.asarray(anchors, float).tolist(), rng_m.tolist())
    ]
    x, y = geometry._gauss_newton(float(start[0]), float(start[1]), terms)
    return np.array([x, y, z])


def reference_multilaterate(ranges, hint=None):
    """The numpy pre- and post-processing the float `multilaterate` replaced.

    One SVD of the centred anchors gives the collinearity test and the line
    direction; numpy means, norms and dot products give the centroid, the
    coincidence test, the hint nudge and the mirror. The line direction
    takes `multilaterate`'s sign (LAPACK's is arbitrary). The solve itself
    is the scalar `_gauss_newton`, so on a row along x or y whose centroid
    lies on it, where every product with the direction is exact, the float
    path must agree bit for bit, unless a hint on the line ties the two
    mirror solutions.
    """
    if len(ranges) < 2:
        raise InsufficientAnchors("2D multilateration needs >= 2 anchors")
    anchors = np.array([r.anchor.as_array() for r in ranges], dtype=float)
    rng_m = np.array([r.range_m for r in ranges], dtype=float)
    base = anchors[:, :2].mean(axis=0)
    if np.all(np.linalg.norm(anchors[:, :2] - base, axis=1) <= 1e-9):
        raise VanetPosError("anchors coincident in the 2D solve plane")
    _, s, vt = np.linalg.svd(anchors[:, :2] - base)
    d = None
    if len(anchors) == 2 or s[1] <= 1e-9 * max(s[0], 1.0):
        d = vt[0] / np.linalg.norm(vt[0])
        if d[0] < 0.0 or d[0] == 0.0 and d[1] < 0.0:
            d = -d  # LAPACK's sign is arbitrary; d_x > 0, or d_y > 0
    normal = None if d is None else np.array([-d[1], d[0]])
    z = hint.z_m if hint is not None else 0.0
    if hint is not None:
        start = np.array([hint.x_m, hint.y_m, z])
        if normal is not None and abs((start[:2] - base).dot(normal)) < 1e-6:
            start[:2] += normal
    else:
        a0, rows, rhs = anchors[0], [], []
        for a_i, r_i in zip(anchors[1:], rng_m[1:]):
            rows.append(2.0 * (a_i - a0)[:2])
            const = np.sum((z - a_i[2:]) ** 2) - np.sum((z - a0[2:]) ** 2)
            rhs.append(
                rng_m[0] ** 2 - r_i**2 + np.sum(a_i[:2] ** 2) - np.sum(a0[:2] ** 2)
                + const
            )
        sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        start = np.array([sol[0], sol[1], z])
        if normal is not None:
            start[:2] += (1.0 - (start[:2] - base).dot(normal)) * normal
    p = gauss_newton_xyz(start, anchors, rng_m)
    if d is not None:
        rel = p[:2] - base
        along = rel.dot(d) * d
        mirrored = base + along - (rel - along)
        mirror = np.array([mirrored[0], mirrored[1], p[2]])
        if hint is not None:
            h = np.array([hint.x_m, hint.y_m, z])
            if np.linalg.norm(mirror - h) < np.linalg.norm(p - h):
                p = mirror
        elif p[1] < anchors[:, 1].mean() and mirror[1] >= anchors[:, 1].mean():
            p = mirror
    return LocalPoint(p[0], p[1], p[2])


def _solve_or_none(solver, *args):
    try:
        return solver(*args)
    except NoConvergence:
        return None


class TestLocalFrame:
    def test_origin_maps_to_zero(self):
        origin = GlobalPosition(26.3, 43.9, 650.0)
        p = to_local(origin, origin)
        assert p == LocalPoint(0.0, 0.0, 0.0)

    def test_one_degree_latitude_arc(self):
        origin = GlobalPosition(0.0, 0.0, 0.0)
        g = GlobalPosition(1.0, 0.0, 0.0)
        p = to_local(g, origin)
        assert abs(p.y_m - 111_195.0) < 1.0
        assert p.x_m == pytest.approx(0.0)
        # the arc length is R * pi/180 by construction
        assert p.y_m == pytest.approx(EARTH_RADIUS_M * math.pi / 180.0)

    def test_zero_point_maps_to_origin(self):
        origin = GlobalPosition(26.3, 43.9, 650.0)
        assert to_global(LocalPoint(0.0, 0.0, 0.0), origin) == origin

    def test_known_local_point_to_global(self):
        origin = GlobalPosition(0.0, 0.0, 0.0)
        g = to_global(LocalPoint(0.0, 111_195.0, 0.0), origin)
        assert abs(g.latitude_deg - 1.0) < 1e-5

    def test_round_trip_random_points(self):
        rng = np.random.default_rng(7)
        origin = GlobalPosition(26.35, 43.97, 600.0)
        for _ in range(100):
            g = GlobalPosition(
                origin.latitude_deg + rng.uniform(-0.05, 0.05),
                origin.longitude_deg + rng.uniform(-0.05, 0.05),
                origin.altitude_m + rng.uniform(-50, 50),
            )
            back = to_global(to_local(g, origin), origin)
            assert back.latitude_deg == pytest.approx(g.latitude_deg, abs=1e-9)
            assert back.longitude_deg == pytest.approx(g.longitude_deg, abs=1e-9)
            assert back.altitude_m == pytest.approx(g.altitude_m, abs=1e-6)

    def test_polar_region_rejected(self):
        origin = GlobalPosition(0.0, 0.0, 0.0)
        polar = r"^latitude {} too close to a pole for the flat-earth frame \("
        with pytest.raises(VanetPosError, match=polar.format(r"89\.5")):
            to_local(GlobalPosition(89.5, 0.0, 0.0), origin)
        with pytest.raises(VanetPosError, match=polar.format(r"-89\.2")):
            to_local(GlobalPosition(0.0, 0.0, 0.0), GlobalPosition(-89.2, 0.0, 0.0))
        with pytest.raises(VanetPosError, match=polar.format(r"89\.5")):
            to_global(LocalPoint(0.0, 0.0, 0.0), GlobalPosition(89.5, 0.0, 0.0))

    def test_latitude_bounds_validated(self):
        with pytest.raises(ValueError):
            GlobalPosition(91.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            GlobalPosition(0.0, 181.0, 0.0)

    @pytest.mark.parametrize("x_m, lon", [(300.0, 179.999), (-300.0, -179.999)])
    def test_antimeridian_crossing_wraps_the_longitude(self, x_m, lon):
        # 300 m is 0.0054 degrees of longitude at 60 degrees: past 180
        origin = GlobalPosition(60.0, lon, 600.0)
        g = to_global(LocalPoint(x_m, 7.0, 1.1), origin)
        assert 179.99 < abs(g.longitude_deg) < 180.0
        assert (g.longitude_deg < 0) != (lon < 0)  # across the antimeridian
        back = to_local(g, origin)
        assert back.x_m == pytest.approx(x_m, abs=1e-6)
        assert back.y_m == pytest.approx(7.0, abs=1e-9)


class TestMultilaterate:
    def test_two_anchor_fix_with_hint(self):
        r = math.sqrt(100.0**2 + 7.0**2)
        ranges = [
            AnchorRange(LocalPoint(0.0, 7.0, 0.0), r),
            AnchorRange(LocalPoint(200.0, 7.0, 0.0), r),
        ]
        p = multilaterate(ranges, hint=LocalPoint(100.0, 0.0, 0.0))
        assert abs(p.x_m - 100.0) < 1e-6
        assert abs(p.y_m - 0.0) < 1e-6

    def test_two_anchor_mirror_resolution(self):
        # same geometry, hint on the other side picks the mirrored solution
        r = math.sqrt(100.0**2 + 7.0**2)
        ranges = [
            AnchorRange(LocalPoint(0.0, 7.0, 0.0), r),
            AnchorRange(LocalPoint(200.0, 7.0, 0.0), r),
        ]
        p = multilaterate(ranges, hint=LocalPoint(100.0, 15.0, 0.0))
        assert abs(p.y_m - 14.0) < 1e-6

    def test_road_side_convention_without_hint(self):
        # anchors on y = 0, truth on y = +7: no hint picks y >= anchors' y
        truth = np.array([55.0, 7.0, 0.0])
        anchors = [(0.0, 0.0, 0.0), (100.0, 0.0, 0.0)]
        ranges = [
            AnchorRange(LocalPoint(*a), float(np.linalg.norm(truth - np.array(a))))
            for a in anchors
        ]
        p = multilaterate(ranges)
        assert abs(p.x_m - 55.0) < 1e-6
        assert abs(p.y_m - 7.0) < 1e-6

    def test_hint_on_anchor_line_is_nudged_off(self):
        # a start on the anchor line never leaves it without the nudge
        truth = np.array([55.0, 7.0, 0.0])
        anchors = [(0.0, 0.0, 0.0), (100.0, 0.0, 0.0), (200.0, 0.0, 0.0)]
        ranges = [
            AnchorRange(LocalPoint(*a), float(np.linalg.norm(truth - np.array(a))))
            for a in anchors
        ]
        p = multilaterate(ranges, hint=LocalPoint(50.0, 0.0, 0.0))
        assert abs(p.x_m - 55.0) < 1e-6
        assert abs(abs(p.y_m) - 7.0) < 1e-6

    def test_hintless_collinear_start_off_the_line(self):
        # lstsq's minimum-norm start lies on the anchor line only if the line
        # passes through the origin: here it is (4, 0), a 1 m push put it on
        # the line y = 1, and the solve ended there, at (3.943, 1.0)
        truth = (4.0, 6.0, 0.0)
        anchors = [(0.0, 1.0, 0.0), (10.0, 1.0, 0.0), (20.0, 1.0, 0.0)]
        ranges = [AnchorRange(LocalPoint(*a), math.dist(a, truth)) for a in anchors]
        for order in (ranges, ranges[::-1]):
            p = multilaterate(order)
            assert math.dist((p.x_m, p.y_m), truth[:2]) < 1e-6

    def test_hintless_row_along_y_is_order_free(self):
        # the mirror across a row along y keeps y, so the road-side
        # convention cannot pick a side: the start's side, 1 m to -x, does
        ranges = [
            AnchorRange(LocalPoint(1.0, 0.0, 0.0), 1.0),
            AnchorRange(LocalPoint(1.0, 1.0, 0.0), math.sqrt(2.0)),
        ]
        fixes = [multilaterate(order) for order in (ranges, ranges[::-1])]
        assert fixes[0] == fixes[1]
        assert math.dist((fixes[0].x_m, fixes[0].y_m), (0.0, 0.0)) < 1e-9

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_range_rejected(self, bad):
        # NaN and inf pass a plain `< 0` check; the solve then returned the hint
        with pytest.raises(ValueError, match="range_m"):
            AnchorRange(LocalPoint(0.0, 0.0, 1.1), bad)

    def test_single_anchor_rejected(self):
        with pytest.raises(InsufficientAnchors):
            multilaterate([AnchorRange(LocalPoint(0, 0, 0), 5.0)])

    def test_coincident_anchors_rejected(self):
        ranges = [
            AnchorRange(LocalPoint(1, 1, 0), 5.0),
            AnchorRange(LocalPoint(1, 1, 0), 6.0),
        ]
        with pytest.raises(
            VanetPosError, match="^anchors coincident in the 2D solve plane$"
        ):
            multilaterate(ranges)

    def test_collinear_three_anchor_case_against_brute_force(self):
        anchors = [(0.0, 7.0, 0.0), (100.0, 7.0, 0.0), (200.0, 7.0, 0.0)]
        truth = np.array([55.0, 0.0, 0.0])
        ranges = [
            AnchorRange(LocalPoint(*a), float(np.linalg.norm(truth - np.array(a))))
            for a in anchors
        ]
        p = multilaterate(ranges, hint=LocalPoint(50.0, -1.0, 0.0))
        assert np.linalg.norm(p.as_array() - truth) < 1e-6
        grid = brute_force_minimum(anchors, [r.range_m for r in ranges], truth)
        assert np.linalg.norm(p.as_array() - grid) < 0.05

    def test_noiseless_random_recovery(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            anchors = rng.uniform(-50, 250, size=(3, 2))
            anchors = np.column_stack([anchors, np.zeros(3)])
            truth = np.append(rng.uniform(0, 200, size=2), 0.0)
            ranges = [
                AnchorRange(LocalPoint(*a), float(np.linalg.norm(truth - a)))
                for a in anchors
            ]
            p = multilaterate(ranges)
            assert np.linalg.norm(p.as_array() - truth) < 1e-6

    def test_translation_equivariance(self):
        rng = np.random.default_rng(3)
        anchors = np.array([[0.0, 0.0, 0.0], [80.0, 10.0, 0.0], [160.0, -5.0, 0.0]])
        truth = np.array([70.0, 40.0, 0.0])
        ranges = np.linalg.norm(anchors - truth, axis=1) + rng.normal(0, 0.01, 3)
        shift = np.array([123.4, -56.7, 0.0])

        base = multilaterate(
            [AnchorRange(LocalPoint(*a), float(r)) for a, r in zip(anchors, ranges)],
        )
        moved = multilaterate(
            [
                AnchorRange(LocalPoint(*(a + shift)), float(r))
                for a, r in zip(anchors, ranges)
            ],
        )
        assert np.allclose(moved.as_array() - shift, base.as_array(), atol=1e-6)


def _outcome(ranges, hint, solver):
    try:
        p = solver(ranges, hint)
    except VanetPosError as e:  # a degenerate layout is no NoConvergence
        return f"{type(e).__name__}: {e}"
    return (float(p.x_m), float(p.y_m), float(p.z_m))


def _mirror(p, a0, u):
    """p mirrored across the line through a0 of unit direction u."""
    rx, ry = p[0] - a0[0], p[1] - a0[1]
    t = rx * u[0] + ry * u[1]
    return (a0[0] + 2.0 * t * u[0] - rx, a0[1] + 2.0 * t * u[1] - ry, p[2])


@st.composite
def anchor_rows(draw, kind):
    """2-4 distinct anchors on one row, ranges to them, and a hint.

    "axis" rows run along x or y at an integer cross coordinate (the drives'
    roads run along y = 0), with range noise up to 5 m. "axis_float" rows
    take any float cross coordinate; their centroid then misses the row by
    rounding, and LAPACK tilts its direction by that in its own way. "diag"
    rows sit on an integer lattice line. Those two kinds take noiseless
    ranges to a truth at least 1 m off the line: with the truth on the line,
    or with disjoint range circles, the minimum is a flat valley where the
    solve stops anywhere within about 1e-3 m (see test_stagnation_exit), so
    an ulp in the start moves the fix by more than 1e-9 m. The hint is
    absent, off the line, or exactly on it.
    """
    n = draw(st.integers(2, 4))
    coord = st.floats(-300.0, 300.0, allow_nan=False)
    if kind == "diag":
        ux = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
        uy = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
        ts = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n, unique=True))
        step = draw(st.sampled_from([1.0, 7.5, 25.0]))
        ox, oy = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
        rows = [(ox + t * ux * step, oy + t * uy * step) for t in ts]
        norm = math.hypot(ux, uy)
        u = (ux / norm, uy / norm)
    else:
        along = draw(st.lists(coord, min_size=n, max_size=n, unique=True))
        across = draw(coord if kind == "axis_float" else st.integers(-300, 300))
        u, rows = (1.0, 0.0), [(a, float(across)) for a in along]
        if draw(st.booleans()):
            u, rows = (0.0, 1.0), [(y, x) for x, y in rows]
    zs = draw(st.lists(st.sampled_from([0.0, 1.1]), min_size=n, max_size=n))
    anchors = [(x, y, z) for (x, y), z in zip(rows, zs)]
    a0 = anchors[0]
    side = draw(st.floats(1.0, 60.0)) * draw(st.sampled_from([1.0, -1.0]))
    t = draw(st.floats(-300.0, 300.0))
    mode = draw(st.sampled_from(["absent", "off", "on"]))
    z = 0.0 if mode == "absent" else 1.1  # the height the solve holds
    truth = (a0[0] + t * u[0] - side * u[1], a0[1] + t * u[1] + side * u[0], z)
    noise = st.floats(-5.0, 5.0) if kind == "axis" else st.just(0.0)
    ranges = [
        AnchorRange(LocalPoint(*a), max(math.dist(a, truth) + draw(noise), 0.0))
        for a in anchors
    ]
    hint = None
    if mode == "off":
        hint = LocalPoint(truth[0] + draw(coord) / 10, truth[1] + draw(coord) / 10, 1.1)
    elif mode == "on":
        s = draw(st.integers(-5, 5))
        x1, y1, _ = anchors[1]
        hint = LocalPoint(a0[0] + s * (x1 - a0[0]), a0[1] + s * (y1 - a0[1]), 1.1)
    return ranges, hint, (a0, u, mode)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(anchor_rows("axis"))
    def test_axis_aligned_rows_bit_for_bit(self, case):
        # the two mirror solutions tie when the hint is on the line: the
        # last bit of each distance to the hint then picks one, and numpy's
        # norm rounds it differently from math.hypot
        ranges, hint, (a0, u, mode) = case
        tied = mode == "on"
        for order in (ranges, ranges[::-1]):
            ref = _outcome(order, hint, reference_multilaterate)
            new = _outcome(order, hint, multilaterate)
            if tied and isinstance(ref, tuple) and isinstance(new, tuple):
                err = min(math.dist(ref, new), math.dist(_mirror(ref, a0, u), new))
                assert err < 1e-9, (ref, new)
                continue
            if isinstance(ref, tuple):
                ref, new = [v.hex() for v in ref], [v.hex() for v in new]
            assert new == ref

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(anchor_rows("diag"), anchor_rows("axis_float")))
    def test_other_rows_within_1e9_m(self, case):
        # the two mirror solutions tie when the hint is on the line; without
        # a hint, when the line runs along y, or when one of them lies at the
        # anchors' mean y: the road-side convention compares y with it. The
        # last bit of the line direction then decides, and LAPACK rounds it
        # differently
        ranges, hint, (a0, u, mode) = case
        mean_y = sum(r.anchor.y_m for r in ranges) / len(ranges)
        for order in (ranges, ranges[::-1]):
            ref = _outcome(order, hint, reference_multilaterate)
            new = _outcome(order, hint, multilaterate)
            if not (isinstance(ref, tuple) and isinstance(new, tuple)):
                assert new == ref
                continue
            mirrored = _mirror(ref, a0, u)
            at_mean_y = min(abs(ref[1] - mean_y), abs(mirrored[1] - mean_y)) < 1e-9
            tied = mode == "on" or mode == "absent" and (u[0] == 0.0 or at_mean_y)
            err = math.dist(ref, new)
            if tied:
                err = min(err, math.dist(mirrored, new))
            assert err < 1e-9, (ref, new)


class TestCollinearity:
    ANGLES = [30.0, *np.random.default_rng(30).uniform(0.0, 180.0, 24).tolist()]

    @staticmethod
    def _row(angle_deg, third_off_m=0.0):
        u = (math.cos(math.radians(angle_deg)), math.sin(math.radians(angle_deg)))
        anchors = [(12.0 + t * u[0], -40.0 + t * u[1], 1.1) for t in (0, 150, 300)]
        x, y, z = anchors[2]
        anchors[2] = (x - third_off_m * u[1], y + third_off_m * u[0], z)
        return anchors, u

    @staticmethod
    def _offsets(anchors):
        mx = sum(a[0] for a in anchors) / len(anchors)
        my = sum(a[1] for a in anchors) / len(anchors)
        return [(a[0] - mx, a[1] - my) for a in anchors]

    @pytest.mark.parametrize("angle_deg", ANGLES)
    def test_diagonal_road_is_collinear(self, angle_deg):
        # a closed-form s1**2 = (tr - disc) / 2 cancels to ~1e-11 m**2 here,
        # a thousand times the 1e-9 m threshold squared
        anchors, u = self._row(angle_deg)
        d = geometry._line_direction(self._offsets(anchors))
        assert d is not None and abs(d[0] * u[0] + d[1] * u[1]) > 1.0 - 1e-12
        # a hint on the road, or 1e-7 m off it, is nudged 1 m along d's
        # normal (a start on the road never leaves it); the mirror then
        # brings the fix to the side of the hint, 7 m off the road
        normal = (-u[1], u[0])
        on_road = (12.0 + 100.0 * u[0], -40.0 + 100.0 * u[1])
        truth = (on_road[0] + 7.0 * normal[0], on_road[1] + 7.0 * normal[1], 1.1)
        ranges = [AnchorRange(LocalPoint(*a), math.dist(a, truth)) for a in anchors]
        for side, expected in ((1.0, truth), (-1.0, _mirror(truth, anchors[0], u))):
            hint = LocalPoint(
                on_road[0] + side * 1e-7 * normal[0],
                on_road[1] + side * 1e-7 * normal[1],
                1.1,
            )
            p = multilaterate(ranges, hint=hint)
            assert math.dist((p.x_m, p.y_m), expected[:2]) < 1e-6, side
        p = multilaterate(ranges, hint=LocalPoint(*on_road, 1.1))
        off_road = (p.x_m - on_road[0]) * normal[0] + (p.y_m - on_road[1]) * normal[1]
        assert abs(abs(off_road) - 7.0) < 1e-6

    @pytest.mark.parametrize("angle_deg", ANGLES)
    def test_third_anchor_1mm_off_is_not_collinear(self, angle_deg):
        anchors, _ = self._row(angle_deg, third_off_m=1e-3)
        assert geometry._line_direction(self._offsets(anchors)) is None


@st.composite
def gauss_newton_systems(draw):
    """2-6 anchors, ranges 0-500 m and a start, as `_gauss_newton` takes them.

    Each anchor sits at the solve height (dz2 = 0) or 1.1 m off it. Half
    the systems take any ranges and any start; the other half put the
    solution on an anchor at the solve height: its range is 0, the others'
    are the exact distances from it, and the start lies within 1e-6 m of
    it, so a trial lands within 1e-12 m of the anchor, where the distance
    is clamped.
    """
    n = draw(st.integers(2, 6))
    coord = st.floats(-250.0, 250.0)
    xy = [(draw(coord), draw(coord)) for _ in range(n)]
    dz2 = [draw(st.sampled_from([0.0, 1.1 * 1.1])) for _ in range(n)]
    if draw(st.booleans()):
        ranges = [draw(st.floats(0.0, 500.0)) for _ in range(n)]
        start = (draw(coord), draw(coord))
    else:
        k = draw(st.integers(0, n - 1))
        (kx, ky), dz2[k] = xy[k], 0.0
        ranges = [
            math.sqrt((x - kx) ** 2 + (y - ky) ** 2 + d) for (x, y), d in zip(xy, dz2)
        ]
        near = st.floats(-1e-6 / math.sqrt(2.0), 1e-6 / math.sqrt(2.0))
        start = (kx + draw(near), ky + draw(near))
    terms = [(x, y, d, r) for (x, y), d, r in zip(xy, dz2, ranges)]
    return start, terms


def _gauss_newton_outcome(solver, start, terms):
    try:
        return solver(*start, terms)
    except NoConvergence as e:
        return str(e)


class TestGaussNewton:
    @settings(max_examples=600, deadline=None)
    @given(gauss_newton_systems())
    def test_each_point_evaluated_once_bit_for_bit(self, system):
        # the normal equations an accepted trial carries into the next
        # iteration are the ones the two-pass loop rebuilt there, clamp and all
        ref = _gauss_newton_outcome(scalar_gauss_newton_reference, *system)
        new = _gauss_newton_outcome(geometry._gauss_newton, *system)
        if isinstance(ref, tuple):
            # float.hex tells -0.0 from 0.0, which == does not
            ref, new = [v.hex() for v in ref], [v.hex() for v in new]
        assert new == ref

    def test_matches_numpy_reference_on_random_systems(self, monkeypatch):
        # 1,280 systems: 2 and 3 anchors, collinear on y = 0 as in the drives
        # or scattered, noiseless or 5 m range noise, start on either side
        rng = np.random.default_rng(11)
        flips = cases = 0
        for n, collinear, noisy, side in itertools.product(
            (2, 3), (True, False), (False, True), (1.0, -1.0)
        ):
            for _ in range(80):
                if collinear:
                    xs = np.sort(rng.uniform(0.0, 300.0, n))
                    anchors = np.column_stack([xs, np.zeros(n), np.full(n, 1.1)])
                else:
                    anchors = np.column_stack(
                        [rng.uniform(-50.0, 250.0, (n, 2)), rng.choice([0.0, 1.1], n)]
                    )
                truth = np.array(
                    [rng.uniform(0.0, 300.0), rng.uniform(-30.0, 30.0), 1.1]
                )
                ranges = np.linalg.norm(anchors - truth, axis=1)
                if noisy:
                    ranges = np.maximum(ranges + rng.normal(0.0, 5.0, n), 0.0)
                start = np.array([
                    truth[0] + rng.uniform(-20.0, 20.0),
                    side * rng.uniform(1.0, 20.0),
                    1.1,
                ])
                args = (start, anchors, ranges)
                ref = _solve_or_none(reference_gauss_newton, *args)
                new = _solve_or_none(gauss_newton_xyz, *args)
                if (ref is None) != (new is None):
                    # a slow solve can end on either side of the iteration
                    # limit; past it both must reach the same point
                    flips += 1
                    monkeypatch.setattr(geometry, "_GN_MAX_ITERS", 200)
                    ref = reference_gauss_newton(*args, max_iters=200)
                    new = gauss_newton_xyz(*args)
                    monkeypatch.undo()
                cases += 1
                if ref is None:
                    continue
                tol = 1e-4 if noisy else 1e-6
                assert np.linalg.norm(new - ref) < tol, (args, ref, new)
                assert new[2] == start[2]
        assert cases == 1280
        assert flips <= 3

    def test_step_norm_exit(self):
        # noiseless: quadratic convergence takes the step below 1e-9 m
        anchors = np.array([[0.0, 0.0, 0.0], [150.0, 10.0, 0.0], [40.0, 120.0, 0.0]])
        truth = np.array([60.0, 25.0, 0.0])
        ranges = np.linalg.norm(anchors - truth, axis=1)
        start = np.array([80.0, 5.0, 0.0])
        p = gauss_newton_xyz(start, anchors, ranges)
        assert np.linalg.norm(p - truth) < 1e-9
        assert np.linalg.norm(p - reference_gauss_newton(start, anchors, ranges)) < 1e-9

    def test_stagnation_exit(self):
        # tangent circles: the objective is quartic in y, each step halves y
        # and the objective stalls long before a step falls below 1e-9 m
        # (that needs y < 2e-9); the start (y = 1) is not returned either
        anchors = np.array([[0.0, 0.0, 1.1], [100.0, 0.0, 1.1]])
        ranges = np.array([50.0, 50.0])
        start = np.array([50.0, 1.0, 1.1])
        p = gauss_newton_xyz(start, anchors, ranges)
        assert abs(p[0] - 50.0) < 1e-9
        assert 1e-6 < p[1] < 1e-2
        assert np.linalg.norm(p - reference_gauss_newton(start, anchors, ranges)) < 1e-6

    def test_no_improving_step_returns_start(self):
        # squared offsets overflow: no damped step has a finite objective
        anchors = np.array([[-1e155, 0.0, 0.0], [1e155, 0.0, 0.0]])
        ranges = np.array([1.0, 1.0])
        start = np.array([0.0, 1.0, 0.0])
        p = gauss_newton_xyz(start, anchors, ranges)
        assert p.tolist() == start.tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            ref = reference_gauss_newton(start, anchors, ranges)
        assert ref.tolist() == start.tolist()

    def test_no_convergence_on_ghost_beacon_pair(self):
        # the pair solve that ends the 41-RSU pair-policy corridor at channel
        # seed 30: two ghost-beacon circles some 2.8 km from a hint 1.4 km
        # off the road
        ranges = [
            AnchorRange(LocalPoint(150.0, 0.0, 1.1), 2959.8484868980927),
            AnchorRange(LocalPoint(300.0, 0.0, 1.1), 2809.7894300364196),
        ]
        hint = LocalPoint(2755.894227705645, 1399.98242154462, 1.1000000000000227)
        with pytest.raises(NoConvergence, match="did not converge in 100 iterations"):
            multilaterate(ranges, hint=hint)
        start = hint.as_array()
        anchors = np.array([r.anchor.as_array() for r in ranges])
        rng_m = np.array([r.range_m for r in ranges])
        with pytest.raises(NoConvergence):
            reference_gauss_newton(start, anchors, rng_m)


class TestFuseFixes:
    def test_singleton(self):
        assert fuse_fixes([LocalPoint(5, 0, 0)]) == LocalPoint(5, 0, 0)

    def test_hand_mean(self):
        fused = fuse_fixes(
            [LocalPoint(0, 0, 0), LocalPoint(2, 0, 0), LocalPoint(1, 3, 0)]
        )
        assert fused == LocalPoint(1.0, 1.0, 0.0)

    def test_permutation_invariant(self):
        pts = [LocalPoint(1, 2, 3), LocalPoint(-4, 0, 1), LocalPoint(9, 9, 9)]
        assert fuse_fixes(pts) == fuse_fixes(list(reversed(pts)))

    def test_idempotent_on_identical_points(self):
        p = LocalPoint(3.5, -1.25, 0.75)
        assert fuse_fixes([p, p, p]) == p

    def test_empty_rejected(self):
        with pytest.raises(VanetPosError, match="^fuse_fixes needs at least one point$"):
            fuse_fixes([])
