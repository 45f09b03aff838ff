import math
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from vanetpos.channel import (
    ChannelModel,
    RssSample,
    SurveyLayout,
    generate_survey,
)
from vanetpos.cli import load_scenario
from vanetpos.errors import RankDeficient, TooFewSamples
from vanetpos.fit import (
    FitInput,
    Polynomial4,
    _raw_coefficients,
    evaluate_poly4,
    filter_near_field,
    fit_poly4,
)

from helpers import column, standard_rsu_row

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# published degree-4 coefficients for a 60 m cutoff calibration
PUBLISHED_COEFFS_60M = Polynomial4(-0.005206, -1.553, -173.5, -8608, -1.601e5)


def naive_power_sum(poly, r):
    """Independent evaluation oracle: explicit powers, no Horner."""
    p1, p2, p3, p4, p5 = astuple(poly)
    return p1 * r**4 + p2 * r**3 + p3 * r**2 + p4 * r + p5


def default_survey(seed=1, **model_kwargs):
    layout = SurveyLayout(rsus=standard_rsu_row([0.0, 100.0, 200.0], [1, 7, 13]))
    return generate_survey(layout, ChannelModel(**model_kwargs), seed=seed)


class TestFilterNearField:
    def test_cutoff_60_keeps_29_pairs(self):
        survey = default_survey()
        kept = filter_near_field(*column(survey, "ap200"), cutoff_m=60.0)
        assert kept.n == 29
        # with the 7 m lateral offset, x <= 140 m stays beyond 60 m range
        assert max(kept.distance_m) == pytest.approx(math.sqrt(200.0**2 + 49.0))

    def test_cutoff_100_keeps_21_pairs(self):
        survey = default_survey()
        kept = filter_near_field(*column(survey, "ap200"), cutoff_m=100.0)
        assert kept.n == 21

    def test_cutoff_0_keeps_all(self):
        survey = default_survey()
        kept = filter_near_field(*column(survey, "ap200"), cutoff_m=0.0)
        assert kept.n == 41

    def test_order_preserved(self):
        survey = default_survey()
        kept = filter_near_field(*column(survey, "ap200"), cutoff_m=60.0)
        assert list(kept.distance_m) == sorted(kept.distance_m, reverse=True)

    def test_too_few_after_filter(self):
        survey = default_survey()
        with pytest.raises(TooFewSamples):
            filter_near_field(*column(survey, "ap200"), cutoff_m=190.0)

    def test_survey_rows_keep_what_the_columns_keep(self):
        # the `fit` command passes its CSV rows and the cutoff
        survey = default_survey()
        rss, dist = column(survey, "ap200")
        rows = iter(
            [RssSample(x, "ap200", r, d) for x, r, d in zip(survey.x_m, rss, dist)]
        )
        by_rows = filter_near_field(rows, 60.0)
        by_columns = filter_near_field(rss, dist, 60.0)
        for name in ("rss_dbm", "distance_m"):
            got, want = getattr(by_rows, name), getattr(by_columns, name)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
        with pytest.raises(TooFewSamples, match=r"distance >= 190.0 m"):
            filter_near_field(iter([]), 190.0)


class TestFitPoly4:
    def test_exact_quartic_recovery(self):
        truth = Polynomial4(2e-5, 0.004, 0.21, 7.5, 310.0)
        rss = np.linspace(-90.0, -60.0, 10)
        dist = np.array([naive_power_sum(truth, r) for r in rss])
        poly, report = fit_poly4(FitInput(rss, dist))
        grid = np.linspace(rss.min(), rss.max(), 200)
        fitted = evaluate_poly4(poly, grid)
        expected = np.array([naive_power_sum(truth, r) for r in grid])
        assert np.max(np.abs(fitted - expected)) < 1e-6
        assert report.sse < 1e-10

    def test_four_pairs_rejected(self):
        with pytest.raises(TooFewSamples):
            FitInput(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 2.0, 3.0, 4.0]))

    def test_repeated_rss_rejected(self):
        rss = np.array([-80.0, -80.0, -80.0, -80.0, -80.0, -70.0])
        dist = np.array([100.0, 101.0, 99.0, 100.5, 100.2, 50.0])
        with pytest.raises(RankDeficient):
            fit_poly4(FitInput(rss, dist))

    def test_report_matches_naive_goodness_oracle(self):
        # floor low enough that the far field stays unclamped and the fit is
        # well conditioned
        survey = default_survey(seed=3, rss_floor_dbm=-130.0)
        kept = filter_near_field(*column(survey, "ap0"), cutoff_m=60.0)
        poly, report = fit_poly4(kept)

        predicted = [naive_power_sum(poly, r) for r in kept.rss_dbm]
        actual = list(kept.distance_m)
        n = len(actual)
        sse = sum((a - p) ** 2 for a, p in zip(actual, predicted))
        rmse = math.sqrt(sse / (n - 5))
        mean_a = sum(actual) / n
        sst = sum((a - mean_a) ** 2 for a in actual)
        r2 = 1 - sse / sst
        assert report.rmse == pytest.approx(rmse, rel=1e-9)
        assert report.sse == pytest.approx(sse, rel=1e-9)
        assert report.r_square == pytest.approx(r2, rel=1e-9)

    def test_residual_orthogonality(self):
        survey = default_survey(seed=5)
        kept = filter_near_field(*column(survey, "ap200"), cutoff_m=60.0)
        poly, _ = fit_poly4(kept)
        rss = np.array(kept.rss_dbm)
        dist = np.array(kept.distance_m)
        z = (rss - rss.mean()) / rss.std()
        resid = dist - evaluate_poly4(poly, rss)
        scale = np.linalg.norm(dist)
        for j in range(5):
            assert abs(np.sum(resid * z**j)) < 1e-6 * scale

    def test_constant_shift_moves_only_intercept(self):
        survey = default_survey(seed=7)
        kept = filter_near_field(*column(survey, "ap200"), cutoff_m=60.0)
        poly_a, _ = fit_poly4(kept)
        shifted = FitInput(kept.rss_dbm, kept.distance_m + 37.5)
        poly_b, _ = fit_poly4(shifted)
        for name in ("p1", "p2", "p3", "p4"):
            a, b = getattr(poly_a, name), getattr(poly_b, name)
            assert b == pytest.approx(a, rel=1e-8, abs=1e-10)
        assert poly_b.p5 - poly_a.p5 == pytest.approx(37.5, rel=1e-8)

    def test_noiseless_log_distance_r_square(self):
        # clean log-distance data over the far field fits to R^2 >= 0.999
        model = ChannelModel(far_sigma_db=0.0, near_sigma_db=0.0, rss_floor_dbm=-500.0)
        layout = SurveyLayout(
            rsus=standard_rsu_row([0.0, 100.0, 200.0], [1, 7, 13])
        )
        survey = generate_survey(layout, model, seed=1)
        kept = filter_near_field(*column(survey, "ap200"), cutoff_m=60.0)
        _, report = fit_poly4(kept)
        assert report.r_square >= 0.999


def reference_compose(z_coeffs, mu, sigma):
    """Oracle: the np.poly1d composition the quartic's expansion replaces."""
    raw = np.poly1d(z_coeffs)(np.poly1d([1.0 / sigma, -mu / sigma]))
    coeffs = np.zeros(5)
    coeffs[5 - len(raw.coeffs):] = raw.coeffs
    return coeffs


def bits(values):
    """Exact float identity, zero signs included."""
    return [float(v).hex() for v in values]


def calibration_surveys():
    """(name, survey) for every shipped config and one long corridor."""
    out = []
    for name in ("exp1", "exp2", "drive"):
        config = load_scenario(str(CONFIGS / f"{name}.json"))
        out.append((name, generate_survey(config.layout, config.channel, config.seed)))
    # 41 RSUs 150 m apart over 6 km, drive.json's channel
    rsus = standard_rsu_row(
        [150.0 * i for i in range(41)], [(1, 7, 13)[i % 3] for i in range(41)],
        tx_ref_rss_dbm=-35.0,
    )
    layout = replace(config.layout, rsus=rsus, end_m=6000.0)
    out.append(("corridor41", generate_survey(layout, config.channel, 3)))
    return out


class TestRawCoefficients:
    def test_random_sets_match_poly1d_bit_for_bit(self):
        rng = np.random.default_rng(20)
        mismatches = []
        for i in range(10_000):
            z_coeffs = rng.standard_normal(5) * 10.0 ** rng.uniform(-4.0, 3.0, 5)
            mu = rng.uniform(-95.0, -40.0)
            sigma = rng.uniform(0.2, 25.0)
            got = _raw_coefficients(z_coeffs, mu, sigma)
            assert all(type(c) is float for c in got)
            if bits(got) != bits(reference_compose(z_coeffs, mu, sigma)):
                mismatches.append(i)
        assert mismatches == []

    def test_every_calibration_fit_matches_poly1d_bit_for_bit(self):
        fits = 0
        for name, survey in calibration_surveys():
            for rsu_id in survey.rsu_ids():
                kept = filter_near_field(*column(survey, rsu_id), 60.0)
                poly, _ = fit_poly4(kept)
                rss = np.asarray(kept.rss_dbm)
                mu, sigma = rss.mean(), rss.std()
                z_coeffs = np.polyfit((rss - mu) / sigma, kept.distance_m, deg=4)
                got = astuple(poly)
                assert all(type(c) is float for c in got), (name, rsu_id)
                assert bits(got) == bits(reference_compose(z_coeffs, mu, sigma)), (
                    name,
                    rsu_id,
                )
                fits += 1
        assert fits == 3 + 3 + 3 + 41


class TestEvaluatePoly4:
    def test_zero_polynomial(self):
        zero = Polynomial4(0.0, 0.0, 0.0, 0.0, 0.0)
        for r in (-95.0, -40.0, 0.0, 10.0):
            assert evaluate_poly4(zero, r) == 0.0

    def test_published_coefficients_against_power_sum_oracle(self):
        # the published 4-significant-figure coefficients leave the absolute
        # value hypersensitive; the contract is agreement between evaluation
        # orders, not field truth
        horner = evaluate_poly4(PUBLISHED_COEFFS_60M, -80.0)
        naive = naive_power_sum(PUBLISHED_COEFFS_60M, -80.0)
        assert horner == pytest.approx(naive, rel=1e-9)
        assert 37.0 < horner < 39.5

    def test_horner_matches_power_sum_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            poly = Polynomial4(*rng.uniform(-1.0, 1.0, size=5))
            r = rng.uniform(-95.0, -40.0)
            h = evaluate_poly4(poly, r)
            n = naive_power_sum(poly, r)
            assert h == pytest.approx(n, rel=1e-12, abs=1e-12)

    def test_array_evaluation(self):
        poly = Polynomial4(0.0, 0.0, 1.0, 0.0, -2.0)
        out = evaluate_poly4(poly, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, [-1.0, 2.0, 7.0])

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(ValueError):
            Polynomial4(float("nan"), 0.0, 0.0, 0.0, 0.0)
