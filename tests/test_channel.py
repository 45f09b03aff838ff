import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vanetpos.channel import (
    ChannelModel,
    Rsu,
    RssSample,
    SurveyLayout,
    channels_overlap,
    count_interferers,
    expected_rss,
    generate_survey,
    read_survey_csv,
    sample_rss,
    write_survey_csv,
)
from vanetpos.cli import main
from vanetpos.errors import OutOfRange, VanetPosError
from vanetpos.nn import dataset_from_columns, dataset_from_survey

from helpers import column, standard_rsu_row


def default_layout(channels=(1, 7, 13)):
    return SurveyLayout(rsus=standard_rsu_row([0.0, 100.0, 200.0], channels))


def survey_exit(edit, tmp_path, capsys):
    """`survey`'s exit code on configs/drive.json with `edit`'s sections
    updated, and its one stderr line's field, when no file was written."""
    cfg = json.loads((Path(__file__).parent.parent / "configs/drive.json").read_text())
    for section, values in edit.items():
        cfg[section].update(values)
    config, out = tmp_path / "edge.json", tmp_path / "edge.csv"
    config.write_text(json.dumps(cfg))
    code = main(["survey", "--config", str(config), "--out", str(out)])
    (line,) = capsys.readouterr().err.splitlines()
    assert not out.exists()
    return code, line.removeprefix("config error: ").split(" must be in ")[0]


def all_samples(survey):
    """The survey grid as flat rows, one RSU after another."""
    return [
        RssSample(x, rsu_id, r, d)
        for rsu_id in survey.rsu_ids()
        for x, r, d in zip(
            survey.x_m.tolist(), *(c.tolist() for c in column(survey, rsu_id))
        )
    ]


def assert_same_grid(a, b):
    assert [r.id for r in a.rsus] == [r.id for r in b.rsus]
    for name in ("x_m", "distance_m", "rss_dbm"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestExpectedRss:
    def test_reference_distance(self):
        assert expected_rss(ChannelModel(), 1.0) == -40.0

    def test_ten_meters(self):
        assert expected_rss(ChannelModel(), 10.0) == pytest.approx(-67.0)

    def test_hundred_meters(self):
        assert expected_rss(ChannelModel(), 100.0) == pytest.approx(-94.0)

    def test_floor_clamp(self):
        # defaults put the floor crossing just past 100 m
        assert expected_rss(ChannelModel(), 500.0) == -95.0

    def test_below_reference_rejected(self):
        with pytest.raises(
            VanetPosError, match=r"^distance 0\.5 m closer than reference 1\.0 m$"
        ):
            expected_rss(ChannelModel(), 0.5)

    def test_strictly_decreasing_until_floor(self):
        model = ChannelModel(rss_floor_dbm=-200.0)
        d = np.linspace(1.0, 300.0, 200)
        rss = np.array([expected_rss(model, float(x)) for x in d])
        assert np.all(np.diff(rss) < 0)


class TestChannelsOverlap:
    def test_same_channel(self):
        assert channels_overlap(6, 6) is True

    def test_1_7_13_plan_is_clean(self):
        # the classic three-AP plan is mutually non-overlapping
        assert channels_overlap(1, 7) is False
        assert channels_overlap(7, 13) is False
        assert channels_overlap(1, 13) is False

    def test_five_apart_does_not_overlap(self):
        # 1/6/11 are spaced exactly five channels and count as clean
        assert channels_overlap(1, 6) is False
        assert channels_overlap(6, 11) is False

    def test_four_apart_overlaps(self):
        assert channels_overlap(1, 5) is True

    def test_out_of_range(self):
        with pytest.raises(VanetPosError, match=r"^channel 0 outside \[1, 13\]$"):
            channels_overlap(0, 6)
        with pytest.raises(VanetPosError, match=r"^channel 14 outside \[1, 13\]$"):
            channels_overlap(6, 14)


class TestSampleRss:
    def test_zero_noise_is_expected(self):
        model = ChannelModel(far_sigma_db=0.0)
        rng = np.random.default_rng(1)
        assert sample_rss(model, 80.0, 0, rng) == expected_rss(model, 80.0)

    def test_deterministic_given_seed(self):
        model = ChannelModel()
        a = sample_rss(model, 30.0, 1, np.random.default_rng(99))
        b = sample_rss(model, 30.0, 1, np.random.default_rng(99))
        assert a == b

    def test_near_field_sigma_monte_carlo(self):
        # 30 m is inside the near field: sigma should match the configured 8
        model = ChannelModel(rss_floor_dbm=-500.0)
        rng = np.random.default_rng(5)
        draws = np.array([sample_rss(model, 30.0, 0, rng) for _ in range(10_000)])
        assert 7.5 <= draws.std(ddof=1) <= 8.5

    def test_far_field_sigma_within_ten_percent(self):
        model = ChannelModel(rss_floor_dbm=-500.0)
        rng = np.random.default_rng(6)
        draws = np.array([sample_rss(model, 120.0, 0, rng) for _ in range(10_000)])
        resid = draws - expected_rss(model, 120.0)
        assert abs(resid.std(ddof=1) - model.far_sigma_db) < 0.1 * model.far_sigma_db

    def test_interference_adds_variance(self):
        model = ChannelModel(rss_floor_dbm=-500.0)
        rng = np.random.default_rng(7)
        draws = np.array([sample_rss(model, 120.0, 2, rng) for _ in range(10_000)])
        expected_sigma = np.sqrt(2.0**2 + 2 * 6.0**2)
        assert abs(draws.std(ddof=1) - expected_sigma) < 0.1 * expected_sigma

    def test_near_noisier_than_far(self):
        model = ChannelModel(rss_floor_dbm=-500.0)
        rng = np.random.default_rng(8)
        near = np.array([sample_rss(model, 30.0, 0, rng) for _ in range(4000)])
        far = np.array([sample_rss(model, 120.0, 0, rng) for _ in range(4000)])
        assert near.var(ddof=1) > far.var(ddof=1)


class TestGenerateSurvey:
    def test_grid_size(self):
        survey = generate_survey(default_layout(), ChannelModel(), seed=1)
        # 41 positions x 3 RSUs
        assert survey.x_m.shape == (41,)
        assert survey.distance_m.shape == survey.rss_dbm.shape == (41, 3)

    def test_complete_grid(self):
        survey = generate_survey(default_layout(), ChannelModel(), seed=1)
        cells = {(s.x_m, s.rsu_id) for s in all_samples(survey)}
        assert len(cells) == 123

    def test_cochannel_interferer_count(self):
        rsus = standard_rsu_row([0.0, 100.0, 200.0], [6, 6, 6])
        for rsu in rsus:
            assert count_interferers(rsu, rsus) == 2

    def test_clean_plan_has_no_interferers(self):
        rsus = standard_rsu_row([0.0, 100.0, 200.0], [1, 7, 13])
        for rsu in rsus:
            assert count_interferers(rsu, rsus) == 0

    def test_seed_reproducibility(self):
        a = generate_survey(default_layout(), ChannelModel(), seed=42)
        b = generate_survey(default_layout(), ChannelModel(), seed=42)
        assert_same_grid(a, b)

    def test_seeds_differ(self):
        a = generate_survey(default_layout(), ChannelModel(), seed=1)
        b = generate_survey(default_layout(), ChannelModel(), seed=2)
        assert not np.array_equal(a.rss_dbm, b.rss_dbm)

    def test_rsu_list_order_irrelevant(self):
        rsus = standard_rsu_row([0.0, 100.0, 200.0], [1, 7, 13])
        fwd = SurveyLayout(rsus=rsus)
        rev = SurveyLayout(rsus=list(reversed(rsus)))
        a = generate_survey(fwd, ChannelModel(), seed=4)
        b = generate_survey(rev, ChannelModel(), seed=4)
        assert_same_grid(a, b)

    def test_true_distance_includes_lateral_offset(self):
        survey = generate_survey(default_layout(), ChannelModel(), seed=1)
        _, dist = column(survey, "ap100")
        assert dist[survey.x_m.tolist().index(100.0)] == pytest.approx(7.0)

    def test_samples_respect_floor(self):
        model = ChannelModel()
        survey = generate_survey(default_layout(), model, seed=3)
        assert np.all(survey.rss_dbm >= model.rss_floor_dbm)

    def test_cochannel_survey_noisier(self):
        clean = generate_survey(default_layout((1, 7, 13)), ChannelModel(), seed=11)
        dirty = generate_survey(default_layout((6, 6, 6)), ChannelModel(), seed=11)
        model = ChannelModel()

        def residual_var(survey):
            resid = [
                s.rss_dbm - expected_rss(model, s.true_distance_m)
                for s in all_samples(survey)
                if s.true_distance_m >= model.near_field_m
                and s.rss_dbm > model.rss_floor_dbm
            ]
            return np.var(resid, ddof=1)

        assert residual_var(dirty) > 4.0 * residual_var(clean)

    def test_nn_dataset_equals_pivot_of_samples(self):
        survey = generate_survey(default_layout(), ChannelModel(), seed=5)
        grid = dataset_from_survey(survey)
        pivot = dataset_from_columns(all_samples(survey))
        assert grid.feature_names == pivot.feature_names == ("ap0", "ap100", "ap200")
        assert grid.inputs.tolist() == pivot.inputs.tolist()
        assert grid.targets.tolist() == pivot.targets.tolist()


def per_cell_draws(rsus, model, point, rng):
    """The one-RSU-at-a-time sampling loop, kept as the survey's oracle."""
    ordered = sorted(rsus, key=lambda r: r.id)
    dist, rss = [], []
    for rsu in ordered:
        d = float(np.linalg.norm(point.as_array() - rsu.position.as_array()))
        per_rsu = replace(model, ref_rss_dbm=rsu.tx_ref_rss_dbm)
        dist.append(d)
        rss.append(sample_rss(per_rsu, d, count_interferers(rsu, ordered), rng))
    return dist, rss


class TestSurveyGrid:
    # ids out of x order; heights and lateral offsets differ; "r2" on
    # channel 13 overlaps no other RSU, so with far_sigma_db 0 its cells
    # beyond the near field have sigma 0 and consume no draw
    MODEL = ChannelModel(
        far_sigma_db=0.0,
        near_sigma_db=3.0,
        near_field_m=40.0,
        interference_sigma_db=2.5,
        rss_floor_dbm=-110.0,
    )
    RSUS = [
        Rsu("r3", 0.0, 1, 0.0, 1.1, tx_ref_rss_dbm=-40.0),
        Rsu("r1", 30.0, 3, -4.5, 2.0, tx_ref_rss_dbm=-35.0),
        Rsu("r2", 90.0, 13, 3.0, 0.5, tx_ref_rss_dbm=-38.0),
        Rsu("r0", 160.0, 5, 1.0, 6.0, tx_ref_rss_dbm=-42.0),
    ]

    def test_bit_identical_to_per_cell_draws(self):
        assert count_interferers(self.RSUS[2], self.RSUS) == 0
        layout = SurveyLayout(self.RSUS, start_m=-30.0, end_m=230.0, step_m=2.0)
        fast, slow = np.random.default_rng(5), np.random.default_rng(5)
        survey = generate_survey(layout, self.MODEL, fast)  # draws from `fast`
        assert [r.id for r in survey.rsus] == ["r0", "r1", "r2", "r3"]
        assert survey.x_m.shape == (131,)
        assert survey.distance_m.shape == survey.rss_dbm.shape == (131, 4)
        for row, x in enumerate(survey.x_m.tolist()):
            ref_dist, ref_rss = per_cell_draws(
                self.RSUS, self.MODEL, layout.vehicle_point(x), slow
            )
            assert survey.distance_m[row].tolist() == ref_dist
            assert survey.rss_dbm[row].tolist() == ref_rss
        r2_model = replace(self.MODEL, ref_rss_dbm=-38.0)
        silent = sum(
            r == expected_rss(r2_model, d)
            for d, r in zip(
                survey.distance_m[:, 2].tolist(), survey.rss_dbm[:, 2].tolist()
            )
        )
        assert silent > 50  # sigma-0 cells were exercised
        assert fast.standard_normal() == slow.standard_normal()

    def test_below_reference_distance_rejected(self):
        # the x = 30 row passes 0.5 m from r1
        rsus = [Rsu("r1", 30.5, 3, 7.0, 1.1)]
        layout = SurveyLayout(rsus, start_m=0.0, end_m=60.0, step_m=2.0)
        with pytest.raises(
            VanetPosError, match=r"^RSU r1 at x=30\.0: distance 0\.5 m closer"
        ):
            generate_survey(layout, self.MODEL, 0)

    def test_cell_at_the_reference_distance_drawn_one_ulp_closer_refused(self):
        # the RSU stands at the lane's x and height, ref_distance_m from it
        model = ChannelModel(ref_distance_m=1.0, far_sigma_db=0.0, near_sigma_db=0.0)
        rsus = [Rsu("r1", 50.0, 3, 0.0, 1.1)]
        at_ref = SurveyLayout(
            rsus, start_m=50.0, end_m=50.0, lane_y_m=1.0, antenna_z_m=1.1
        )
        survey = generate_survey(at_ref, model, 0)
        assert survey.distance_m.tolist() == [[1.0]]
        assert survey.rss_dbm.tolist() == [[-40.0]]
        closer = replace(at_ref, lane_y_m=math.nextafter(1.0, 0.0))
        with pytest.raises(VanetPosError, match=r"^RSU r1 at x=50\.0: distance 0\.99"):
            generate_survey(closer, model, 0)

    def test_first_row_below_reference_distance_named(self):
        # the x = 30 row is 0.5 m from r1; the later x = 90 row comes
        # closer, 0.25 m from r2
        rsus = [
            Rsu("r2", 90.25, 13, 7.0, 1.1),
            Rsu("r1", 30.5, 3, 7.0, 1.1),
        ]
        layout = SurveyLayout(rsus, start_m=0.0, end_m=120.0, step_m=2.0)
        with pytest.raises(
            VanetPosError, match=r"^RSU r1 at x=30\.0: distance 0\.5 m closer"
        ):
            generate_survey(layout, self.MODEL, 0)


class TestSurveyCsv:
    def test_round_trip(self, tmp_path):
        survey = generate_survey(default_layout(), ChannelModel(), seed=9)
        path = tmp_path / "survey.csv"
        n = write_survey_csv(survey, path)
        assert n == 123
        samples = read_survey_csv(path)
        assert len(samples) == 123
        # values survive at the written precision
        assert samples[0].rss_dbm == pytest.approx(survey.rss_dbm[0, 0], abs=1e-4)

    def test_byte_stable(self, tmp_path):
        survey = generate_survey(default_layout(), ChannelModel(), seed=9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_survey_csv(survey, p1)
        write_survey_csv(survey, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_written_in_blocks_below_the_file_size(self, tmp_path):
        # the whole text in memory took 21 MB of Python strings and floats
        # for this 3.8 MB file
        layout = SurveyLayout(
            rsus=standard_rsu_row([0.0, 100.0, 200.0], (1, 7, 13)),
            start_m=0.0, end_m=33_332.0, step_m=1.0,
        )
        survey = generate_survey(layout, ChannelModel(), seed=9)
        path = tmp_path / "survey.csv"
        tracemalloc.start()
        try:
            n = write_survey_csv(survey, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 99_999
        assert peak < path.stat().st_size

    def test_row_order(self, tmp_path):
        survey = generate_survey(default_layout(), ChannelModel(), seed=9)
        path = tmp_path / "survey.csv"
        write_survey_csv(survey, path)
        lines = path.read_text().splitlines()[1:]
        keys = [(float(l.split(",")[0]), l.split(",")[1]) for l in lines]
        assert keys == sorted(keys)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(ValueError):
            read_survey_csv(path)

    @pytest.mark.parametrize(
        "row",
        [
            "nan,ap0,-60.0,7.0,1",
            "0.0,ap0,nan,7.0,1",
            "0.0,ap0,-60.0,inf,1",
            "0.0,ap0,-inf,7.0,1",
            "0.0,ap0,loud,7.0,1",
        ],
    )
    def test_non_finite_field_rejected_with_line(self, tmp_path, row):
        path = tmp_path / "survey.csv"
        header = "x_m,rsu_id,rss_dbm,true_distance_m,channel"
        path.write_text(f"{header}\n0.0,ap1,-60.0,7.0,1\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
            read_survey_csv(path)


class TestValidation:
    def test_rsu_channel_validated(self):
        with pytest.raises(OutOfRange, match=r"^channel must be in \[1, 13\], got 14$"):
            Rsu(id="x", x_m=0, channel=14, z_m=0)

    def test_layout_step_positive(self):
        with pytest.raises(ValueError):
            SurveyLayout(rsus=standard_rsu_row([0.0], [6]), step_m=0.0)

    def test_layout_refuses_a_repeated_rsu_id(self):
        # a survey of two RSUs named "a" was written, then refused when read
        with pytest.raises(ValueError, match="^duplicate RSU id 'a'$"):
            SurveyLayout(rsus=[Rsu("a", 0.0, 1), Rsu("a", 100.0, 7)])
        # the first id that repeats, in list order
        ids = ["b", "a", "b", "a"]
        rsus = [Rsu(i, 100.0 * k, 1) for k, i in enumerate(ids)]
        with pytest.raises(ValueError, match="^duplicate RSU id 'b'$"):
            SurveyLayout(rsus=rsus)

    def test_model_sigma_nonnegative(self):
        with pytest.raises(ValueError):
            ChannelModel(far_sigma_db=-1.0)

    @pytest.mark.parametrize(
        "name, sigma",
        [("far_sigma_db", 1e200), ("near_sigma_db", 1e160),
         ("interference_sigma_db", 1e200)],
    )
    def test_sigma_with_overflowing_square_rejected(self, name, sigma):
        # generate_survey raised OverflowError from `sigma**2`
        message = f"{name} must be in [0.0, 100.0], got {sigma!r}"
        with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
            ChannelModel(**{name: sigma})

    def test_overflowing_cochannel_variance_rejected_by_the_sigma_range(self):
        # each square is finite, the variance of two interferers is not: the
        # survey drew inf RSS
        with pytest.raises(OutOfRange) as exc:
            ChannelModel(interference_sigma_db=1e154)
        assert str(exc.value) == (
            "interference_sigma_db must be in [0.0, 100.0], got 1e+154"
        )

    def test_largest_finite_noise_variance_draws_finite_rss(self, tmp_path, capsys):
        # the largest sigmas, each RSU with two co-channel interferers
        sigmas = ("near_sigma_db", "far_sigma_db", "interference_sigma_db")
        model = ChannelModel(**dict.fromkeys(sigmas, 100.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            survey = generate_survey(default_layout((1, 1, 1)), model, seed=0)
        assert np.all(np.isfinite(survey.rss_dbm))
        for name in sigmas:
            beyond = {"channel": {name: math.nextafter(100.0, math.inf)}}
            assert survey_exit(beyond, tmp_path, capsys) == (2, f"channel.{name}")

    @pytest.mark.parametrize(
        "layout, message",
        [
            ({"lane_y_m": 1e200}, "lane_y_m must be in [-1000000.0, 1000000.0], "
             "got 1e+200"),
            # the track's far end: 0, 1e154, 2e154
            ({"end_m": 2e154, "step_m": 1e154}, "end_m must be in [-1000000.0, "
             "1000000.0], got 2e+154"),
            ({"start_m": -1e308, "end_m": 1e308, "step_m": 1e307},
             "start_m must be in [-1000000.0, 1000000.0], got -1e+308"),
        ],
        ids=["lane", "track-end", "span"],
    )
    def test_overflowing_geometry_rejected_before_any_grid(self, layout, message):
        # wrote inf distances after a numpy overflow warning, or raised
        # OverflowError from positions()
        rsus = standard_rsu_row([0.0, 100.0, 200.0], [1, 7, 13])
        with pytest.raises(OutOfRange) as exc:
            SurveyLayout(rsus=rsus, **layout)
        assert str(exc.value) == message

    def test_far_but_finite_geometry_surveys_finite_distances(self, tmp_path, capsys):
        layout = replace(default_layout(), lane_y_m=1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            survey = generate_survey(layout, ChannelModel(), seed=0)
        assert np.all(np.isfinite(survey.distance_m))
        beyond = {"layout": {"lane_y_m": math.nextafter(1e6, math.inf)}}
        assert survey_exit(beyond, tmp_path, capsys) == (2, "layout.lane_y_m")

    def test_survey_grid_past_the_cell_bound_rejected_before_any_grid(self):
        # a finite but huge position count passed: 1e9 positions, 8 GB
        rsus = standard_rsu_row([0.0, 100.0, 200.0], [1, 7, 13])
        SurveyLayout(rsus=rsus, end_m=333_332.0, step_m=1.0)  # 999,999 cells
        with pytest.raises(ValueError, match="^333334 positions x 3 RSUs must be 1 to "):
            SurveyLayout(rsus=rsus, end_m=333_333.0, step_m=1.0)
        with pytest.raises(ValueError, match="^1000000001 positions x 1 RSUs"):
            SurveyLayout(rsus=rsus[:1], start_m=-5e5, end_m=5e5, step_m=1e-3)
