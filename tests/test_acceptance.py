"""Acceptance suite: one test per release criterion, tolerances pinned.

Criteria 1-3 reproduce published reporting conventions exactly; 4-9 are
property/oracle analogues of the experimental claims, run on the shipped
experiment configs. Each test prints a PASS line so a -s run reads as a
checklist.
"""

import copy
import math
from pathlib import Path

import numpy as np
import pytest

from vanetpos.channel import generate_survey
from vanetpos.cli import calibrate_polynomial, load_scenario, main
from vanetpos.fit import (
    FitInput,
    Polynomial4,
    evaluate_poly4,
    filter_near_field,
    fit_poly4,
)
from vanetpos.geometry import AnchorRange, LocalPoint, multilaterate
from vanetpos.metrics import fit_report_from_summary, regression_metrics
from vanetpos.nn import (
    SweepConfig,
    batch_loss,
    dataset_from_survey,
    gradients,
    init_mlp,
    sweep,
)

from helpers import column

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(name, detail):
    print(f"PASS {name}: {detail}")


class TestCriterion1MetricConventions:
    def test_goodness_of_fit_reproduces_published_numbers(self):
        r60 = fit_report_from_summary(sse=422.7, r_square=0.9917, n=29, k=5)
        assert r60.rmse == pytest.approx(4.197, abs=0.001)
        assert r60.adj_r_square == pytest.approx(0.9903, abs=0.0001)
        r100 = fit_report_from_summary(sse=85.13, r_square=0.9956, n=21, k=5)
        assert r100.rmse == pytest.approx(2.307, abs=0.001)
        assert r100.adj_r_square == pytest.approx(0.9945, abs=0.0001)
        report(
            "criterion-1",
            f"rmse {r60.rmse:.4f}/{r100.rmse:.4f}, "
            f"adj-R2 {r60.adj_r_square:.5f}/{r100.adj_r_square:.5f}",
        )


class TestCriterion2VarianceConvention:
    def test_variance_and_std_from_mse(self):
        n = 41
        errors = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n - 1)] + [0.0])
        errors -= errors.mean()
        errors *= math.sqrt(6.0 * n / np.sum(errors**2))  # exact mse 6.0, mean 0
        actual = np.linspace(0.0, 200.0, n)
        r = regression_metrics(actual, actual + errors)
        assert r.mse == pytest.approx(6.0, abs=1e-12)
        assert r.variance == pytest.approx(6.15, abs=0.005)
        assert r.std_dev == pytest.approx(2.48, abs=0.005)
        report(
            "criterion-2",
            f"mse {r.mse:.2f} -> variance {r.variance:.4f}, std {r.std_dev:.4f}",
        )


class TestCriterion3FilterGeometry:
    def test_sample_counts_at_both_cutoffs(self):
        config = load_scenario(CONFIGS / "exp2.json")
        survey = generate_survey(config.layout, config.channel, seed=config.seed)
        ap200 = column(survey, "ap200")
        n60 = filter_near_field(*ap200, 60.0).n
        n100 = filter_near_field(*ap200, 100.0).n
        assert n60 == 29
        assert n100 == 21
        report("criterion-3", f"cutoff 60 -> {n60} pairs, cutoff 100 -> {n100} pairs")


class TestCriterion4CutoffImprovement:
    def test_cutoff_100_beats_60_in_most_seeds(self):
        config = load_scenario(CONFIGS / "exp2.json")
        wins = 0
        for seed in range(20):
            survey = generate_survey(config.layout, config.channel, seed=seed)
            ap200 = column(survey, "ap200")
            _, r60 = fit_poly4(filter_near_field(*ap200, 60.0))
            _, r100 = fit_poly4(filter_near_field(*ap200, 100.0))
            wins += r100.rmse < r60.rmse
        assert wins >= 16
        report("criterion-4", f"cutoff-100 rmse lower in {wins}/20 seeded runs")


class TestCriterion5InterferenceDegradation:
    def test_cochannel_sweep_at_least_3x_worse(self):
        clean_cfg = load_scenario(CONFIGS / "exp2.json")
        dirty_cfg = load_scenario(CONFIGS / "exp1.json")
        seed = 42
        config = SweepConfig()  # 9 hidden sizes x 20 seeds = 180 models
        assert len(config.hidden_sizes) * len(config.seeds) == 180

        clean = sweep(
            dataset_from_survey(
                generate_survey(clean_cfg.layout, clean_cfg.channel, seed)
            ),
            config,
        )
        dirty = sweep(
            dataset_from_survey(
                generate_survey(dirty_cfg.layout, dirty_cfg.channel, seed)
            ),
            config,
        )
        clean_err = clean[0].all.max_abs_error
        dirty_err = dirty[0].all.max_abs_error
        assert dirty_err >= 3.0 * clean_err
        report(
            "criterion-5",
            f"best max-error clean {clean_err:.1f} m vs co-channel "
            f"{dirty_err:.1f} m ({dirty_err / clean_err:.1f}x)",
        )


class TestCriterion6GradientCorrectness:
    def test_backprop_matches_central_differences(self):
        rng = np.random.default_rng(60)
        h = 1e-5
        worst = 0.0
        for trial in range(10):
            d = int(rng.integers(1, 4))
            nh = int(rng.integers(2, 11))
            model = init_mlp(d, nh, seed=trial)
            x = rng.uniform(-1.0, 1.0, size=(7, d))
            y = rng.uniform(-1.0, 1.0, size=7)
            g = gradients(model, x, y)

            def loss_of(flat):
                m = copy.deepcopy(model)
                k = 0
                m.w1 = flat[k : k + m.w1.size].reshape(m.w1.shape); k += m.w1.size
                m.b1 = flat[k : k + m.b1.size]; k += m.b1.size
                m.w2 = flat[k : k + m.w2.size]; k += m.w2.size
                m.b2 = float(flat[k])
                return batch_loss(m, x, y)

            flat = np.concatenate(
                [model.w1.ravel(), model.b1, model.w2, [model.b2]]
            )
            analytic = np.concatenate([g.w1.ravel(), g.b1, g.w2, [g.b2]])
            numeric = np.zeros_like(flat)
            for i in range(len(flat)):
                up, dn = flat.copy(), flat.copy()
                up[i] += h
                dn[i] -= h
                numeric[i] = (loss_of(up) - loss_of(dn)) / (2 * h)
            assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-9)
            denom = np.maximum(np.abs(numeric), 1e-9)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
        report("criterion-6", f"10 networks, worst relative deviation {worst:.2e}")


class TestCriterion7MultilaterationOracle:
    @staticmethod
    def _spread_triple(rng, min_area):
        # reject nearly-collinear triples: those are covered by the hinted
        # road-side tests, not this oracle
        while True:
            anchors = rng.uniform(-100.0, 300.0, size=(3, 2))
            u = anchors[1] - anchors[0]
            v = anchors[2] - anchors[0]
            if abs(u[0] * v[1] - u[1] * v[0]) >= min_area:
                return np.column_stack([anchors, np.zeros(3)])

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(70)
        worst = 0.0
        for _ in range(100):
            anchors3 = self._spread_triple(rng, 100.0)
            truth = np.append(rng.uniform(0.0, 200.0, size=2), 0.0)
            ranges = [
                AnchorRange(LocalPoint(*a), float(np.linalg.norm(truth - a)))
                for a in anchors3
            ]
            p = multilaterate(ranges)
            err = float(np.linalg.norm(p.as_array() - truth))
            worst = max(worst, err)
            assert err < 1e-6
        report("criterion-7a", f"100 noiseless cases, worst error {worst:.2e} m")

    def test_noisy_cases_match_grid_oracle(self):
        rng = np.random.default_rng(71)
        worst = 0.0
        for _ in range(20):
            anchors3 = self._spread_triple(rng, 500.0)
            truth = np.append(rng.uniform(0.0, 200.0, size=2), 0.0)
            ranges_m = [
                float(np.linalg.norm(truth - a)) + rng.normal(0.0, 0.02)
                for a in anchors3
            ]
            p = multilaterate(
                [AnchorRange(LocalPoint(*a), r) for a, r in zip(anchors3, ranges_m)]
            )
            # independent check: argmin of the same objective on a 0.01 m grid
            xs = np.arange(truth[0] - 1.0, truth[0] + 1.0 + 0.005, 0.01)
            ys = np.arange(truth[1] - 1.0, truth[1] + 1.0 + 0.005, 0.01)
            gx, gy = np.meshgrid(xs, ys)
            obj = np.zeros_like(gx)
            for a, r in zip(anchors3, ranges_m):
                obj += (np.sqrt((gx - a[0]) ** 2 + (gy - a[1]) ** 2) - r) ** 2
            idx = np.unravel_index(np.argmin(obj), obj.shape)
            grid_min = np.array([gx[idx], gy[idx], 0.0])
            err = float(np.linalg.norm(p.as_array() - grid_min))
            worst = max(worst, err)
            assert err < 0.05
        report("criterion-7b", f"20 noisy cases, worst grid deviation {worst:.3f} m")


class TestCriterion8FitRecovery:
    def test_exact_quartic_and_power_sum_oracle(self):
        truth = Polynomial4(3e-5, 0.006, 0.35, 9.0, 420.0)
        rss = np.linspace(-92.0, -58.0, 12)
        dist = np.array(
            [
                truth.p1 * r**4 + truth.p2 * r**3 + truth.p3 * r**2
                + truth.p4 * r + truth.p5
                for r in rss
            ]
        )
        poly, _ = fit_poly4(FitInput(rss, dist))
        grid = np.linspace(rss.min(), rss.max(), 300)
        fitted = evaluate_poly4(poly, grid)
        exact = (
            truth.p1 * grid**4 + truth.p2 * grid**3 + truth.p3 * grid**2
            + truth.p4 * grid + truth.p5
        )
        max_dev = float(np.max(np.abs(fitted - exact)))
        assert max_dev < 1e-6

        published = Polynomial4(-0.005206, -1.553, -173.5, -8608, -1.601e5)
        r = -80.0
        horner = evaluate_poly4(published, r)
        naive = (
            published.p1 * r**4 + published.p2 * r**3 + published.p3 * r**2
            + published.p4 * r + published.p5
        )
        assert horner == pytest.approx(naive, rel=1e-9)
        assert 37.0 < horner < 39.5  # the stored-coefficient value near 38 m
        report(
            "criterion-8",
            f"quartic recovery {max_dev:.2e} m; published coefficients at "
            f"-80 dBm -> {horner:.2f} m (oracle agreement 1e-9)",
        )


class TestCriterion9EndToEndDrive:
    def test_drive_switches_sources_and_bounds_error(self, tmp_path, capsys):
        config = load_scenario(CONFIGS / "drive.json")
        est = calibrate_polynomial(
            config.layout, config.channel, config.estimator.cutoff_m, config.seed
        )
        calibration_rmse = max(c.rmse_m for c in est.by_rsu.values())

        out_a = tmp_path / "trace_a.csv"
        out_b = tmp_path / "trace_b.csv"
        assert main(["drive", "--config", str(CONFIGS / "drive.json"),
                     "--out", str(out_a)]) == 0
        assert main(["drive", "--config", str(CONFIGS / "drive.json"),
                     "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

        rows = [l.split(",") for l in out_a.read_text().splitlines()[1:]]
        outage_errors = []
        for r in rows:
            x = float(r[1])
            in_outage = 80.0 <= x <= 160.0
            # the decision table: DGPS outside the outage, RSS inside
            assert r[4] == ("RSS" if in_outage else "DGPS")
            if in_outage:
                assert r[5] != ""
                outage_errors.append(float(r[7]))
            else:
                assert float(r[7]) == 0.0
        max_err = max(outage_errors)
        assert max_err <= 2.0 * calibration_rmse
        report(
            "criterion-9",
            f"in-outage max error {max_err:.2f} m <= "
            f"2 x calibration rmse {calibration_rmse:.2f} m; byte-identical reruns",
        )
