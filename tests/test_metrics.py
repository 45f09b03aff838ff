import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetpos.errors import TooFewSamples, VanetPosError
from vanetpos.metrics import (
    MetricsReport,
    fit_report_from_summary,
    goodness_of_fit,
    regression_metrics,
)

CONSTANT_SERIES = "correlation undefined for a constant series"


def naive_metrics(actual, predicted):
    """Independent recomputation: plain-Python loops, no numpy accumulation."""
    n = len(actual)
    errors = [p - a for a, p in zip(actual, predicted)]
    mse = sum(e * e for e in errors) / n
    max_abs = max(abs(e) for e in errors)
    mean_e = sum(errors) / n
    variance = sum((e - mean_e) ** 2 for e in errors) / (n - 1)
    mean_a = sum(actual) / n
    mean_p = sum(predicted) / n
    cov = sum((a - mean_a) * (p - mean_p) for a, p in zip(actual, predicted))
    var_a = sum((a - mean_a) ** 2 for a in actual)
    var_p = sum((p - mean_p) ** 2 for p in predicted)
    product = var_a * var_p
    # None where the product underflows (to 0 or to a subnormal)
    corr = cov / math.sqrt(product) if product >= sys.float_info.min else None
    return mse, max_abs, variance, corr

def reference_regression_metrics(actual, predicted):
    """regression_metrics as written with np.mean, np.var, np.std and np.corrcoef.

    The shipped function must give the same report, bit for bit, and raise
    its constant-series VanetPosError in the same cases.
    """
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    n = len(a)
    errors = p - a
    mse = float(np.mean(errors**2))
    max_abs = float(np.max(np.abs(errors)))
    variance = float(np.var(errors, ddof=1))
    if np.std(a) == 0.0 or np.std(p) == 0.0:
        raise VanetPosError(CONSTANT_SERIES)
    corr = float(np.corrcoef(a, p)[0, 1])
    return MetricsReport(
        mse=mse,
        max_abs_error=max_abs,
        std_dev=math.sqrt(variance),
        variance=variance,
        correlation=corr,
        n=n,
    )


def oracle_draw(rng):
    """One (actual, predicted) pair: n in [2, 200], scale in [1e-3, 1e4].

    Three kinds in eight hold a constant series. A constant's mean need not
    round back to the constant, so only some of them raise.
    """
    n = int(rng.integers(2, 201))
    scale = 10.0 ** rng.uniform(-3.0, 4.0)
    actual = rng.normal(size=n) * scale + rng.normal() * 10 * scale
    kind = int(rng.integers(0, 8))
    if kind == 0:  # a good predictor
        predicted = actual + rng.normal(size=n) * scale * rng.uniform(0.0, 1.0)
    elif kind == 1:  # constant prediction
        predicted = np.full(n, rng.normal() * scale)
    elif kind == 2:  # constant ground truth
        actual = np.full(n, rng.normal() * scale)
        predicted = rng.normal(size=n) * scale
    elif kind == 3:  # both constant
        actual = np.full(n, rng.normal() * scale)
        predicted = np.full(n, rng.normal() * scale)
    elif kind == 4:  # exact
        predicted = actual.copy()
    elif kind == 5:  # anti-correlated
        predicted = -actual + rng.normal(size=n) * 1e-9 * scale
    elif kind == 6:  # few distinct values, many ties
        actual = rng.integers(0, 3, size=n) * scale
        predicted = rng.integers(0, 3, size=n) * scale
    else:  # unrelated
        predicted = rng.normal(size=n) * scale
    return actual, predicted


def check_against_naive(actual, predicted):
    """regression_metrics agrees with the plain-Python oracle on one draw."""
    if np.std(actual) == 0.0 or np.std(predicted) == 0.0:
        with pytest.raises(VanetPosError, match=f"^{CONSTANT_SERIES}$"):
            regression_metrics(actual, predicted)
        return
    report = regression_metrics(actual, predicted)
    mse, max_abs, variance, corr = naive_metrics(actual, predicted)
    assert report.mse == pytest.approx(mse, rel=1e-12, abs=1e-12)
    assert report.max_abs_error == pytest.approx(max_abs, rel=1e-12, abs=1e-12)
    assert report.variance == pytest.approx(variance, rel=1e-12, abs=1e-12)
    # spreads tiny enough to underflow the oracle's variance product leave
    # its correlation undefined: out of scope (meters-scale data in practice)
    if corr is not None:
        assert report.correlation == pytest.approx(corr, rel=1e-9)


def naive_goodness(actual, predicted, k):
    n = len(actual)
    sse = sum((a - p) ** 2 for a, p in zip(actual, predicted))
    mean_a = sum(actual) / n
    sst = sum((a - mean_a) ** 2 for a in actual)
    r2 = 1 - sse / sst
    adj = 1 - (1 - r2) * (n - 1) / (n - k)
    rmse = math.sqrt(sse / (n - k))
    return sse, r2, adj, rmse


class TestRegressionMetrics:
    def test_perfect_prediction(self):
        actual = [1.0, 2.0, 3.0, 4.0]
        report = regression_metrics(actual, actual)
        assert report.mse == 0.0
        assert report.max_abs_error == 0.0
        assert report.correlation == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        actual = [0.0, 10.0, 20.0]
        predicted = [1.0, 9.0, 22.0]  # errors 1, -1, 2
        report = regression_metrics(actual, predicted)
        assert report.mse == pytest.approx(2.0)
        assert report.max_abs_error == pytest.approx(2.0)

    def test_table_convention_variance_from_mse(self):
        # mse 6.0 at n 41 with zero-mean errors forces variance 6.15, std 2.48
        n = 41
        a = math.sqrt(6.0 * n / (n - 1))
        errors = np.array([a if i % 2 == 0 else -a for i in range(n - 1)] + [0.0])
        errors -= errors.mean()  # exact zero mean
        errors *= math.sqrt(6.0 * n / np.sum(errors**2))  # exact mse 6.0
        actual = np.linspace(0.0, 200.0, n)
        report = regression_metrics(actual, actual + errors)
        assert report.mse == pytest.approx(6.0, abs=1e-12)
        assert report.variance == pytest.approx(6.15, abs=1e-9)
        assert report.std_dev == pytest.approx(2.48, abs=0.005)

    def test_std_is_sqrt_variance(self):
        rng = np.random.default_rng(0)
        actual = rng.normal(size=30)
        predicted = actual + rng.normal(size=30)
        report = regression_metrics(actual, predicted)
        assert report.std_dev == pytest.approx(math.sqrt(report.variance))

    def test_length_mismatch(self):
        with pytest.raises(
            VanetPosError,
            match=r"^actual and predicted must be equal-length 1-D series, "
            r"got \(2,\) vs \(1,\)$",
        ):
            regression_metrics([1.0, 2.0], [1.0])

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            regression_metrics([1.0], [1.0])

    def test_constant_series_rejected(self):
        with pytest.raises(VanetPosError, match=f"^{CONSTANT_SERIES}$"):
            regression_metrics([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3),
            min_size=3,
            max_size=40,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_recomputation(self, actual, rnd):
        predicted = [a + rnd.uniform(-5.0, 5.0) for a in actual]
        check_against_naive(actual, predicted)

    def test_underflowing_oracle_variance_product(self):
        # a draw of the test above: np.std is about 1.2e-99, but the
        # oracle's var_a * var_p underflows to 0
        actual = [0.0, 0.0, 2.6e-99]
        assert naive_metrics(actual, actual)[3] is None
        check_against_naive(actual, actual)
        assert regression_metrics(actual, actual).correlation == pytest.approx(1.0)

    def test_permutation_invariant_over_pairs(self):
        rng = np.random.default_rng(9)
        actual = rng.normal(size=25) * 40
        predicted = actual + rng.normal(size=25) * 3
        perm = rng.permutation(25)
        a = regression_metrics(actual, predicted)
        b = regression_metrics(actual[perm], predicted[perm])
        assert a.mse == pytest.approx(b.mse, rel=1e-12)
        assert a.max_abs_error == b.max_abs_error
        assert a.variance == pytest.approx(b.variance, rel=1e-12)
        assert a.correlation == pytest.approx(b.correlation, rel=1e-12)

    def test_equals_numpy_reference_on_seeded_draws(self):
        rng = np.random.default_rng(2024)
        raised = 0
        for _ in range(10_000):
            actual, predicted = oracle_draw(rng)
            try:
                expected = reference_regression_metrics(actual, predicted)
            except VanetPosError:
                raised += 1
                with pytest.raises(VanetPosError, match=f"^{CONSTANT_SERIES}$"):
                    regression_metrics(actual, predicted)
                continue
            report = regression_metrics(actual, predicted)
            assert report == expected
            # == holds for 0.0 against -0.0; the bits must match too
            fields = ("mse", "max_abs_error", "std_dev", "variance", "correlation")
            assert [getattr(report, f).hex() for f in fields] == [
                getattr(expected, f).hex() for f in fields
            ]
        assert 1_000 < raised < 9_000

    def test_mse_variance_identity(self):
        # mse = variance*(n-1)/n + mean_error^2
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = rng.integers(2, 50)
            actual = rng.normal(size=n) * 100
            predicted = actual + rng.normal(size=n) * 10
            if np.std(actual) == 0 or np.std(predicted) == 0:
                continue
            r = regression_metrics(actual, predicted)
            mean_e = float(np.mean(predicted - actual))
            lhs = r.mse
            rhs = r.variance * (n - 1) / n + mean_e**2
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestGoodnessOfFit:
    def test_published_convention_60m_cutoff(self):
        report = fit_report_from_summary(sse=422.7, r_square=0.9917, n=29, k=5)
        assert report.rmse == pytest.approx(4.197, abs=0.001)
        assert report.adj_r_square == pytest.approx(0.9903, abs=0.0001)

    def test_published_convention_100m_cutoff(self):
        report = fit_report_from_summary(sse=85.13, r_square=0.9956, n=21, k=5)
        assert report.rmse == pytest.approx(2.307, abs=0.001)
        assert report.adj_r_square == pytest.approx(0.9945, abs=0.0001)

    def test_constructed_data_reproduces_convention(self):
        # build a 29-point dataset whose sse and sst hit the published pair
        n, k, sse, r2 = 29, 5, 422.7, 0.9917
        sst = sse / (1 - r2)
        actual = np.linspace(60.0, 200.0, n)
        actual = actual * math.sqrt(sst / np.sum((actual - actual.mean()) ** 2))
        resid = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
        resid -= resid.mean()
        resid *= math.sqrt(sse / np.sum(resid**2))
        report = goodness_of_fit(actual, actual - resid, k=k)
        assert report.sse == pytest.approx(sse, rel=1e-12)
        assert report.r_square == pytest.approx(r2, rel=1e-9)
        assert report.rmse == pytest.approx(4.197, abs=0.001)
        assert report.adj_r_square == pytest.approx(0.9903, abs=0.0001)

    def test_perfect_fit(self):
        actual = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        report = goodness_of_fit(actual, actual, k=5)
        assert report.sse == 0.0
        assert report.r_square == 1.0
        assert report.rmse == 0.0

    def test_needs_n_greater_than_k(self):
        with pytest.raises(TooFewSamples):
            goodness_of_fit([1.0, 2.0], [1.0, 2.0], k=5)

    def test_constant_response_rejected(self):
        with pytest.raises(
            VanetPosError, match="^R-squared undefined for a constant response$"
        ):
            goodness_of_fit(
                [2.0] * 10, list(np.linspace(1, 3, 10)), k=5
            )

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(7, 60))
            actual = rng.normal(size=n) * 50 + 100
            predicted = actual + rng.normal(size=n) * 5
            report = goodness_of_fit(actual, predicted, k=5)
            sse, r2, adj, rmse = naive_goodness(list(actual), list(predicted), 5)
            assert report.sse == pytest.approx(sse, rel=1e-12)
            assert report.r_square == pytest.approx(r2, rel=1e-12)
            assert report.adj_r_square == pytest.approx(adj, rel=1e-12)
            assert report.rmse == pytest.approx(rmse, rel=1e-12)
