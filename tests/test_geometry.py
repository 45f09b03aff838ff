import math

import numpy as np
import pytest

from vanetpos.errors import (
    DegenerateGeometry,
    EmptyInput,
    InsufficientAnchors,
    PolarRegion,
)
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
        with pytest.raises(PolarRegion):
            to_local(GlobalPosition(89.5, 0.0, 0.0), origin)
        with pytest.raises(PolarRegion):
            to_local(GlobalPosition(0.0, 0.0, 0.0), GlobalPosition(-89.2, 0.0, 0.0))
        with pytest.raises(PolarRegion):
            to_global(LocalPoint(0.0, 0.0, 0.0), GlobalPosition(89.5, 0.0, 0.0))

    def test_latitude_bounds_validated(self):
        with pytest.raises(ValueError):
            GlobalPosition(91.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            GlobalPosition(0.0, 181.0, 0.0)


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

    def test_single_anchor_rejected(self):
        with pytest.raises(InsufficientAnchors):
            multilaterate([AnchorRange(LocalPoint(0, 0, 0), 5.0)])

    def test_coincident_anchors_rejected(self):
        ranges = [
            AnchorRange(LocalPoint(1, 1, 0), 5.0),
            AnchorRange(LocalPoint(1, 1, 0), 6.0),
        ]
        with pytest.raises(DegenerateGeometry):
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
        with pytest.raises(EmptyInput):
            fuse_fixes([])
