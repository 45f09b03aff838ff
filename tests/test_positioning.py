import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetpos.channel import (
    ChannelModel,
    Rsu,
    SurveyLayout,
    channels_overlap,
    generate_survey,
)
from vanetpos.errors import InsufficientAnchors, NoCoverage
from vanetpos.fit import Polynomial4, evaluate_poly4, filter_near_field, fit_poly4
from vanetpos.geometry import GlobalPosition, LocalPoint, multilaterate, to_global
from vanetpos.geometry import AnchorRange, fuse_fixes
from vanetpos.positioning import (
    Beacon,
    CalibratedPoly,
    FixSource,
    NnPositionEstimator,
    PolynomialRangeEstimator,
    PositionFix,
    SelectionPolicy,
    locate,
    rss_to_range,
    select_rsus,
)

from helpers import column, reference_select_rsus, standard_rsu_row

ORIGIN = GlobalPosition(26.35, 43.97, 600.0)


def beacon(rsu_id, x, channel, rss):
    return Beacon(
        rsu=Rsu(id=rsu_id, x_m=x, channel=channel),
        rss_dbm=rss,
    )


# linear "quartic" (only p4, p5 nonzero): distance = -3*R - 90, monotone on
# any domain, invertible by hand in tests
LINEAR_POLY = Polynomial4(0.0, 0.0, 0.0, -3.0, -90.0)


def linear_cal(rmse=1.0, lo=-95.0, hi=-55.0):
    return CalibratedPoly(poly=LINEAR_POLY, rss_min_dbm=lo, rss_max_dbm=hi, rmse_m=rmse)


def rss_for_distance(d):
    # inverse of LINEAR_POLY
    return -(d + 90.0) / 3.0


def select(good, bad, policy):
    """`select_rsus` over beacons already judged: `good` as heard, then `bad`."""
    good_ids = {b.rsu.id for b in good}
    return select_rsus([*good, *bad], lambda b: b.rsu.id in good_ids, policy)


class TestSelectRsus:
    def test_prefers_weakest_on_distinct_channels(self):
        beacons = [
            beacon("a", 0.0, 1, -50.0),
            beacon("b", 100.0, 7, -70.0),
            beacon("c", 200.0, 13, -85.0),
            beacon("d", 300.0, 2, -60.0),  # overlaps a; weaker, so it wins
        ]
        selected, degraded = select(beacons, [], SelectionPolicy())
        assert [b.rsu.id for b in selected] == ["c", "b", "d"]
        assert degraded is False

    def test_channel_conflict_skips_to_clean_channel(self):
        beacons = [
            beacon("a", 0.0, 6, -75.0),
            beacon("b", 100.0, 6, -60.0),
            beacon("c", 200.0, 11, -50.0),
        ]
        selected, degraded = select(beacons, [], SelectionPolicy())
        # the weaker of the channel-6 pair plus channel 11
        assert [b.rsu.id for b in selected] == ["a", "c"]
        assert degraded is False

    def test_insufficient(self):
        with pytest.raises(InsufficientAnchors, match="1 calibrated RSUs heard, need 2"):
            select([beacon("a", 0.0, 1, -60.0)], [], SelectionPolicy())

    def test_fallback_when_channels_collide(self):
        beacons = [
            beacon("b", 100.0, 6, -60.0),
            beacon("a", 0.0, 6, -75.0),
            beacon("c", 200.0, 6, -50.0),
        ]
        selected, degraded = select(beacons, [], SelectionPolicy())
        # the two weakest, weakest first
        assert [b.rsu.id for b in selected] == ["a", "b"]
        assert degraded is True

    def test_order_independence(self):
        beacons = [
            beacon("a", 0.0, 1, -50.0),
            beacon("b", 100.0, 7, -70.0),
            beacon("c", 200.0, 13, -85.0),
            beacon("d", 300.0, 2, -60.0),
        ]
        a, _ = select(beacons, [], SelectionPolicy())
        b, _ = select(list(reversed(beacons)), [], SelectionPolicy())
        assert [x.rsu.id for x in a] == [x.rsu.id for x in b]

    def test_rss_tie_breaks_on_id(self):
        beacons = [
            beacon("b", 100.0, 1, -70.0),
            beacon("a", 0.0, 1, -70.0),
            beacon("c", 200.0, 13, -50.0),
        ]
        selected, _ = select(beacons, [], SelectionPolicy())
        assert [x.rsu.id for x in selected] == ["a", "c"]

    def test_top_up_keeps_good_weakest_first_then_weakest_bad(self):
        good = [beacon("x", 0.0, 1, -60.0), beacon("y", 100.0, 7, -80.0)]
        bad = [
            beacon("p", 200.0, 13, -50.0),
            beacon("q", 300.0, 1, -90.0),
            beacon("r", 400.0, 7, -70.0),
        ]
        selected, degraded = select(good, bad, SelectionPolicy(min_rsu_count=4))
        assert [b.rsu.id for b in selected] == ["y", "x", "q", "r"]
        assert degraded is True


@st.composite
def judged_beacons(draw):
    """Beacons as heard, with tied RSS and ids out of heard order, plus the
    ids of the good ones."""
    n = draw(st.integers(0, 9))
    tied_rss = st.integers(-95, -90).map(float)
    ids = draw(st.permutations([f"r{i}" for i in range(n)]))
    beacons = [
        beacon(rsu_id, 100.0 * k, draw(st.integers(1, 13)), draw(tied_rss))
        for k, rsu_id in enumerate(ids)
    ]
    good_ids = {b.rsu.id for b in beacons if draw(st.booleans())}
    return beacons, good_ids


class TestSelectRsusAgainstReference:
    @settings(max_examples=600, deadline=None)
    @given(judged_beacons(), st.integers(2, 4))
    def test_same_selection_ranging_only_what_it_can_pick(self, judged, needed):
        beacons, good_ids = judged
        policy = SelectionPolicy(min_rsu_count=needed)
        ranged = []

        def is_good(b):
            ranged.append(b)
            return b.rsu.id in good_ids

        good = [b for b in beacons if b.rsu.id in good_ids]
        bad = [b for b in beacons if b.rsu.id not in good_ids]
        try:
            expected, expected_degraded = reference_select_rsus(good, bad, policy)
        except InsufficientAnchors as e:
            with pytest.raises(InsufficientAnchors, match=f"^{e}$"):
                select_rsus(beacons, is_good, policy)
            assert ranged == []
            return
        selected, degraded = select_rsus(beacons, is_good, policy)
        assert len(selected) == len(expected)
        assert all(a is b for a, b in zip(selected, expected))
        assert degraded is expected_degraded
        ids = [b.rsu.id for b in ranged]
        assert len(ids) == len(set(ids))  # no beacon ranged twice
        if degraded:
            assert set(ids) == {b.rsu.id for b in beacons}
            return
        # a clean selection never ranges a beacon an earlier pick blocks
        for k, b in enumerate(ranged):
            earlier_picks = [p for p in ranged[:k] if p in selected]
            assert not any(
                channels_overlap(b.rsu.channel, p.rsu.channel) for p in earlier_picks
            )


class TestRssToRange:
    def test_pass_through_inside_domain(self):
        cal = linear_cal()
        rng, clamped = rss_to_range(cal, -80.0)
        assert rng == evaluate_poly4(LINEAR_POLY, -80.0) == 150.0
        assert clamped is False

    def test_clamps_above_domain(self):
        cal = linear_cal(hi=-55.0)
        rng, clamped = rss_to_range(cal, -45.0)
        assert rng == evaluate_poly4(LINEAR_POLY, -55.0)
        assert clamped is True

    def test_clamps_below_domain(self):
        cal = linear_cal(lo=-95.0)
        rng, clamped = rss_to_range(cal, -100.0)
        assert rng == evaluate_poly4(LINEAR_POLY, -95.0)
        assert clamped is True

    def test_negative_range_clamps_to_zero(self):
        poly = Polynomial4(0.0, 0.0, 0.0, 1.0, 0.0)  # distance = R (negative)
        cal = CalibratedPoly(poly=poly, rss_min_dbm=-95.0, rss_max_dbm=-55.0, rmse_m=1.0)
        rng, clamped = rss_to_range(cal, -80.0)
        assert rng == 0.0
        assert clamped is True

    @staticmethod
    def fitted_cal():
        """The quartic fitted to one RSU of a synthetic survey."""
        model = ChannelModel(
            far_sigma_db=0.25, near_sigma_db=2.0, rss_floor_dbm=-130.0
        )
        layout = SurveyLayout(rsus=standard_rsu_row([0.0, 100.0, 200.0], [1, 7, 13]))
        survey = generate_survey(layout, model, seed=13)
        kept = filter_near_field(*column(survey, "ap200"), cutoff_m=60.0)
        poly, report = fit_poly4(kept)
        return CalibratedPoly(
            poly=poly,
            rss_min_dbm=kept.rss_min,
            rss_max_dbm=kept.rss_max,
            rmse_m=report.rmse,
        )

    def test_monotone_over_fitted_domain(self):
        # weaker RSS means farther: scan the fitted synthetic quartic
        cal = self.fitted_cal()
        grid = np.arange(cal.rss_min_dbm, cal.rss_max_dbm, 0.1)
        ranges = [rss_to_range(cal, float(r))[0] for r in grid]
        assert all(a > b for a, b in zip(ranges, ranges[1:]))

    def test_quartic_is_evaluate_poly4_bit_for_bit(self):
        # the quartic written out in `rss_to_range` is `evaluate_poly4`'s
        # Horner form; lowered by 150 m it also clamps at the strong end
        cal = self.fitted_cal()
        lowered = replace(cal, poly=replace(cal.poly, p5=cal.poly.p5 - 150.0))
        outcomes = set()
        for c in (cal, lowered):
            lo, hi = c.rss_min_dbm, c.rss_max_dbm
            grid = np.linspace(lo - 10.0, hi + 10.0, 301)
            for r in [*grid.tolist(), lo, hi, *grid[::50]]:  # floats, np.float64
                rng, clamped = rss_to_range(c, r)
                edge = min(max(r, lo), hi)
                want = evaluate_poly4(c.poly, edge)
                assert type(rng) is float
                assert rng.hex() == (0.0 if want < 0.0 else want).hex(), r
                assert clamped == (edge != r or want < 0.0)
                outcomes.add((r < lo, r > hi, want < 0.0))
        # inside the domain, beyond both edges, and clamped to 0 m
        assert {
            (False, False, False), (True, False, False), (False, True, False),
            (False, False, True), (False, True, True),
        } <= outcomes


class TestLocate:
    @staticmethod
    def policy():
        return SelectionPolicy()

    @staticmethod
    def estimator_three_rsus():
        return PolynomialRangeEstimator(
            by_rsu={r: linear_cal(rmse=0.5) for r in ("a", "b", "c")}
        )

    def test_dgps_wins_when_both_flags_true(self):
        dgps_pos = GlobalPosition(26.351, 43.972, 601.0)
        beacons = [beacon("a", 0.0, 1, -60.0), beacon("b", 100.0, 7, -75.0)]
        fix = locate(
            dgps_pos, beacons, self.estimator_three_rsus(), self.policy(), ORIGIN
        )
        assert fix.source is FixSource.DGPS
        assert fix.global_position == dgps_pos
        assert fix.used_rsu_ids == ()
        assert fix.quality_m == 0.0

    @pytest.mark.parametrize(
        "sats,corr", [(True, False), (False, True), (False, False)]
    )
    def test_decision_table_rss_cases(self, sats, corr):
        # a receiver short of satellites or of corrections has no DGPS fix
        truth = LocalPoint(150.0, 80.0, 1.10)
        anchors = {"a": 0.0, "b": 150.0, "c": 300.0}
        beacons = []
        for rsu_id, x in anchors.items():
            d = math.dist((x, 0.0, 1.10), (truth.x_m, truth.y_m, truth.z_m))
            ch = {"a": 1, "b": 7, "c": 13}[rsu_id]
            beacons.append(beacon(rsu_id, x, ch, rss_for_distance(d)))
        dgps = to_global(truth, ORIGIN) if sats and corr else None
        fix = locate(
            dgps, beacons, self.estimator_three_rsus(), self.policy(), ORIGIN,
            hint=LocalPoint(140.0, 70.0, 1.10),
        )
        assert fix.source is FixSource.RSS
        assert set(fix.used_rsu_ids) == set(anchors)

    def test_rss_ranges_two_beacons_heard(self):
        # two clean beacons are enough for an RSS fix without DGPS
        truth = LocalPoint(150.0, 80.0, 1.10)
        anchors = {"a": 0.0, "b": 150.0}
        beacons = []
        for rsu_id, x in anchors.items():
            d = math.dist((x, 0.0, 1.10), (truth.x_m, truth.y_m, truth.z_m))
            ch = {"a": 1, "b": 7}[rsu_id]
            beacons.append(beacon(rsu_id, x, ch, rss_for_distance(d)))
        fix = locate(
            None, beacons, self.estimator_three_rsus(), self.policy(), ORIGIN,
            hint=LocalPoint(140.0, 70.0, 1.10),
        )
        assert fix.source is FixSource.RSS
        assert set(fix.used_rsu_ids) == set(anchors)

    def test_noiseless_ranges_recover_truth(self):
        truth = LocalPoint(150.0, 80.0, 1.10)
        anchors = {"a": 0.0, "b": 150.0, "c": 300.0}
        beacons = []
        for rsu_id, x in anchors.items():
            d = math.dist((x, 0.0, 1.10), (truth.x_m, truth.y_m, truth.z_m))
            ch = {"a": 1, "b": 7, "c": 13}[rsu_id]
            beacons.append(beacon(rsu_id, x, ch, rss_for_distance(d)))
        fix = locate(
            None,
            beacons,
            self.estimator_three_rsus(),
            self.policy(),
            ORIGIN,
            hint=LocalPoint(140.0, 70.0, 1.10),
        )
        assert abs(fix.local_position.x_m - truth.x_m) < 1e-6
        assert abs(fix.local_position.y_m - truth.y_m) < 1e-6
        # all three anchors were clean, so three pair-fixes were fused
        assert set(fix.used_rsu_ids) == {"a", "b", "c"}

    def test_fused_fix_is_mean_of_pair_fixes(self):
        truth = LocalPoint(150.0, 80.0, 1.10)
        anchors = {"a": 0.0, "b": 150.0, "c": 300.0}
        hint = LocalPoint(140.0, 70.0, 1.10)
        beacons = []
        rng = np.random.default_rng(21)
        ranges = {}
        for rsu_id, x in anchors.items():
            d = math.dist((x, 0.0, 1.10), (truth.x_m, truth.y_m, truth.z_m))
            d_noisy = d + rng.normal(0, 0.5)
            ranges[rsu_id] = d_noisy
            ch = {"a": 1, "b": 7, "c": 13}[rsu_id]
            beacons.append(beacon(rsu_id, x, ch, rss_for_distance(d_noisy)))
        fix = locate(
            None,
            beacons,
            self.estimator_three_rsus(),
            self.policy(),
            ORIGIN,
            hint=hint,
        )
        pair_fixes = []
        import itertools

        for pair in itertools.combinations(sorted(anchors), 2):
            ar = [
                AnchorRange(LocalPoint(anchors[r], 0.0, 1.10), ranges[r])
                for r in pair
            ]
            pair_fixes.append(multilaterate(ar, hint=hint))
        fused = fuse_fixes(pair_fixes)
        assert fix.local_position.x_m == pytest.approx(fused.x_m, abs=1e-9)
        assert fix.local_position.y_m == pytest.approx(fused.y_m, abs=1e-9)

    def test_near_field_anchor_deprioritized(self):
        # the strongest RSU sits inside the near field; the fix should use
        # the two far ones and stay clean
        truth = LocalPoint(150.0, 30.0, 1.10)
        anchors = {"a": 0.0, "b": 150.0, "c": 300.0}
        beacons = []
        for rsu_id, x in anchors.items():
            d = math.dist((x, 0.0, 1.10), (truth.x_m, truth.y_m, truth.z_m))
            ch = {"a": 1, "b": 7, "c": 13}[rsu_id]
            beacons.append(beacon(rsu_id, x, ch, rss_for_distance(d)))
        # b is 30 m away: inside the default 60 m near field
        fix = locate(
            None,
            beacons,
            self.estimator_three_rsus(),
            self.policy(),
            ORIGIN,
            hint=LocalPoint(140.0, 25.0, 1.10),
        )
        assert set(fix.used_rsu_ids) == {"a", "c"}
        assert fix.quality_m == 0.5  # not inflated

    def test_noiseless_survey_calibrated_end_to_end(self):
        # calibrate quartics from a noiseless survey, then locate against the
        # same channel's noiseless readings: error within 2x calibration rmse
        from dataclasses import replace

        from vanetpos.channel import expected_rss
        from vanetpos.cli import calibrate_polynomial

        layout = SurveyLayout(
            rsus=standard_rsu_row([0.0, 150.0, 300.0], [1, 7, 13], tx_ref_rss_dbm=-35.0),
            end_m=300.0,
        )
        model = ChannelModel(
            ref_rss_dbm=-35.0,
            path_loss_exponent=2.4,
            far_sigma_db=0.0,
            near_sigma_db=0.0,
            rss_floor_dbm=-130.0,
        )
        est = calibrate_polynomial(layout, model, 60.0, seed=1)
        threshold = 2.0 * max(c.rmse_m for c in est.by_rsu.values())
        for x in (75.0, 105.0, 130.0, 220.0):
            truth = layout.vehicle_point(x)
            beacons = []
            for rsu in layout.rsus:
                d = math.dist(truth.as_array(), rsu.position.as_array())
                per = replace(model, ref_rss_dbm=rsu.tx_ref_rss_dbm)
                beacons.append(Beacon(rsu=rsu, rss_dbm=expected_rss(per, d)))
            fix = locate(
                None,
                beacons,
                est,
                SelectionPolicy(),
                ORIGIN,
                hint=LocalPoint(x - 5.0, 7.0, 1.10),
            )
            assert abs(fix.local_position.x_m - x) <= threshold

    def test_one_beacon_insufficient(self):
        with pytest.raises(InsufficientAnchors):
            locate(
                None,
                [beacon("a", 0.0, 1, -80.0)],
                self.estimator_three_rsus(),
                self.policy(),
                ORIGIN,
            )

    def test_uncalibrated_rsu_is_heard_but_never_ranged(self):
        with pytest.raises(InsufficientAnchors, match="^1 calibrated RSUs heard"):
            locate(
                None,
                [beacon("a", 0.0, 1, -80.0), beacon("z", 150.0, 7, -80.0)],
                self.estimator_three_rsus(),
                self.policy(),
                ORIGIN,
            )

    def test_no_beacons_no_coverage(self):
        with pytest.raises(NoCoverage):
            locate(
                None,
                [],
                self.estimator_three_rsus(),
                self.policy(),
                ORIGIN,
            )

    def test_channel_rule_disabled_uses_all_anchors_cleanly(self):
        # three good anchors on mutually clear channels: every one is used
        truth = LocalPoint(150.0, 80.0, 1.10)
        anchors = {"a": (0.0, 1), "b": (150.0, 7), "c": (300.0, 13)}
        beacons = []
        for rsu_id, (x, channel) in anchors.items():
            d = math.dist((x, 0.0, 1.10), (truth.x_m, truth.y_m, truth.z_m))
            beacons.append(beacon(rsu_id, x, channel, rss_for_distance(d)))
        fix = locate(
            None,
            beacons,
            self.estimator_three_rsus(),
            SelectionPolicy(),
            ORIGIN,
            hint=LocalPoint(140.0, 70.0, 1.10),
        )
        assert set(fix.used_rsu_ids) == {"a", "b", "c"}
        assert fix.quality_m == 0.5  # no fallback, no inflation

    def test_quality_doubles_on_channel_fallback(self):
        truth = LocalPoint(150.0, 80.0, 1.10)
        anchors = {"a": 0.0, "b": 150.0}
        beacons = []
        for rsu_id, x in anchors.items():
            d = math.dist((x, 0.0, 1.10), (truth.x_m, truth.y_m, truth.z_m))
            beacons.append(beacon(rsu_id, x, 6, rss_for_distance(d)))  # same channel
        est = PolynomialRangeEstimator(
            by_rsu={r: linear_cal(rmse=0.5) for r in ("a", "b")}
        )
        fix = locate(
            None, beacons, est, self.policy(), ORIGIN,
            hint=LocalPoint(140.0, 70.0, 1.10),
        )
        assert fix.quality_m == 1.0  # 2 x 0.5

    def test_deterministic(self):
        truth = LocalPoint(150.0, 80.0, 1.10)
        anchors = {"a": 0.0, "b": 150.0, "c": 300.0}
        beacons = []
        for rsu_id, x in anchors.items():
            d = math.dist((x, 0.0, 1.10), (truth.x_m, truth.y_m, truth.z_m))
            ch = {"a": 1, "b": 7, "c": 13}[rsu_id]
            beacons.append(beacon(rsu_id, x, ch, rss_for_distance(d)))
        args = (
            None,
            beacons,
            self.estimator_three_rsus(),
            self.policy(),
            ORIGIN,
        )
        fix = locate(*args, hint=truth)
        assert locate(*args, hint=truth) == fix
        # the same readings heard in any order give the same fix
        for heard in itertools.permutations(beacons):
            assert locate(None, list(heard), *args[2:], hint=truth) == fix


class TestLocateNn:
    @staticmethod
    def make_estimator():
        from vanetpos.nn import TrainConfig, dataset_from_survey, init_mlp, split_dataset, train

        layout = SurveyLayout(rsus=standard_rsu_row([0.0, 100.0, 200.0], [1, 7, 13]))
        model_cfg = ChannelModel(far_sigma_db=0.5, near_sigma_db=1.0, rss_floor_dbm=-130.0)
        survey = generate_survey(layout, model_cfg, seed=17)
        ds = dataset_from_survey(survey)
        splits = split_dataset(ds.n, seed=17)
        trained, _ = train(
            init_mlp(3, 8, seed=17),
            ds,
            splits,
            TrainConfig(max_epochs=800, patience=800, learning_rate=0.05),
        )
        est = NnPositionEstimator(
            model=trained,
            rsu_order=ds.feature_names,
            layout=layout,
            rmse_m=5.0,
            missing_rss_dbm=-130.0,
        )
        return est, survey, layout

    def test_nn_path_estimates_position(self):
        est, survey, layout = self.make_estimator()
        x_true = 100.0
        cell = dict(zip(survey.rsu_ids(), survey.rss_dbm[survey.x_m == x_true][0]))
        beacons = [
            Beacon(rsu=r, rss_dbm=cell[r.id]) for r in layout.rsus
        ]
        fix = locate(
            None, beacons, est, SelectionPolicy(), ORIGIN
        )
        assert fix.source is FixSource.RSS
        assert set(fix.used_rsu_ids) == {"ap0", "ap100", "ap200"}
        assert abs(fix.local_position.x_m - x_true) < 3 * est.rmse_m
        assert fix.local_position.y_m == 7.0

    def test_nn_needs_min_count(self):
        est, survey, layout = self.make_estimator()
        beacons = [Beacon(rsu=layout.rsus[0], rss_dbm=-70.0)]
        with pytest.raises(InsufficientAnchors):
            locate(
                None, beacons, est, SelectionPolicy(), ORIGIN
            )

    def test_output_clamped_to_segment(self):
        est, survey, layout = self.make_estimator()
        # wildly strong signals push the net far off segment; clamp + derate
        beacons = [Beacon(rsu=r, rss_dbm=-20.0) for r in layout.rsus]
        fix = locate(
            None, beacons, est, SelectionPolicy(), ORIGIN
        )
        x = fix.local_position.x_m
        assert est.layout.start_m <= x <= est.layout.end_m
        if x in (est.layout.start_m, est.layout.end_m):
            assert fix.quality_m == 2 * est.rmse_m

    def test_fix_lies_on_the_calibrated_layouts_test_line(self):
        from vanetpos.nn import forward_batch

        est, survey, layout = self.make_estimator()
        raised = replace(layout, lane_y_m=12.5, antenna_z_m=1.6)
        est = replace(est, layout=raised)
        cell = dict(zip(survey.rsu_ids(), survey.rss_dbm[survey.x_m == 100.0][0]))
        beacons = [Beacon(rsu=r, rss_dbm=cell[r.id]) for r in layout.rsus]
        fix = locate(None, beacons, est, SelectionPolicy(), ORIGIN)
        x = float(forward_batch(est.model, [[cell[r] for r in est.rsu_order]])[0])
        assert 0.0 < x < 200.0  # not clamped
        assert fix.local_position == raised.vehicle_point(x)
        assert fix.local_position == LocalPoint(x, 12.5, 1.6)
        assert fix.global_position == to_global(raised.vehicle_point(x), ORIGIN)


@pytest.mark.parametrize("weaker_first", [True, False])
@pytest.mark.parametrize("kind", ["poly", "nn"])
def test_weaker_duplicate_reading_leaves_the_fix(kind, weaker_first):
    # `locate` keeps each RSU's strongest reading: a weaker copy of a
    # selected RSU would be picked first by the weakest-first selection, and
    # read last into the network's input vector
    if kind == "poly":
        truth = (150.0, 80.0, 1.10)
        beacons = [
            beacon(rsu_id, x, ch, rss_for_distance(math.dist((x, 0.0, 1.10), truth)))
            for rsu_id, x, ch in (("a", 0.0, 1), ("b", 150.0, 7), ("c", 300.0, 13))
        ]
        est, hint = TestLocate.estimator_three_rsus(), LocalPoint(140.0, 70.0, 1.10)
    else:
        est, survey, layout = TestLocateNn.make_estimator()
        cell = dict(zip(survey.rsu_ids(), survey.rss_dbm[survey.x_m == 100.0][0]))
        beacons = [Beacon(rsu=r, rss_dbm=cell[r.id]) for r in layout.rsus]
        hint = None
    fix = locate(None, beacons, est, SelectionPolicy(), ORIGIN, hint=hint)
    strong = beacons[1]
    assert strong.rsu.id in fix.used_rsu_ids
    weak = Beacon(rsu=strong.rsu, rss_dbm=strong.rss_dbm - 3.0)
    pair = [weak, strong] if weaker_first else [strong, weak]
    doubled = [beacons[0], *pair, beacons[2]]
    assert locate(None, doubled, est, SelectionPolicy(), ORIGIN, hint=hint) == fix


class TestTypes:
    def test_rss_fix_needs_rsus(self):
        with pytest.raises(ValueError):
            PositionFix(
                global_position=ORIGIN,
                local_position=LocalPoint(0, 0, 0),
                source=FixSource.RSS,
                used_rsu_ids=(),
                quality_m=1.0,
            )

    def test_beacon_is_an_immutable_named_tuple(self):
        rsu = Rsu(id="a", x_m=0.0, channel=1)
        b = Beacon(rsu, -70.0)
        assert b == Beacon(rsu=rsu, rss_dbm=-70.0)
        for field in ("rsu", "rss_dbm"):
            with pytest.raises(AttributeError):
                setattr(b, field, None)

    def test_policy_min_count(self):
        with pytest.raises(ValueError):
            SelectionPolicy(min_rsu_count=1)
