"""Error and goodness-of-fit statistics.

Conventions pinned by back-calculation from published results: prediction
error variance uses the n-1 sample convention, fit RMSE uses n-k residual
degrees of freedom, and adjusted R-squared uses the (n-1)/(n-k) factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import TooFewSamples, VanetPosError


@dataclass(frozen=True)
class MetricsReport:
    """Prediction-error statistics for one model on one sample set."""

    mse: float
    max_abs_error: float
    std_dev: float
    variance: float
    correlation: float
    n: int


@dataclass(frozen=True)
class FitReport:
    """Regression goodness of fit for a model with k coefficients.

    `fit` writes these fields, in this order, after the quartic's.
    """

    sse: float
    r_square: float
    adj_r_square: float
    rmse: float
    n: int


def _paired_arrays(actual: Sequence[float], predicted: Sequence[float]):
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape or a.ndim != 1:
        raise VanetPosError(
            f"actual and predicted must be equal-length 1-D series, "
            f"got {a.shape} vs {p.shape}"
        )
    return a, p


def regression_metrics(
    actual: Sequence[float], predicted: Sequence[float]
) -> MetricsReport:
    """Error statistics of predictions against ground truth.

    mse averages over n; the error variance and standard deviation use the
    n-1 convention; correlation is Pearson's between the two series.
    """
    a, p = _paired_arrays(actual, predicted)
    n = len(a)
    if n < 2:
        raise TooFewSamples(f"need >= 2 samples, got {n}")
    errors = p - a  # np.mean/max/var/std/corrcoef's arithmetic, minus their wrappers
    mse = float(np.add.reduce(errors * errors)) / n
    max_abs = float(np.maximum.reduce(np.abs(errors)))
    variance = float(np.add.reduce((errors - np.add.reduce(errors) / n) ** 2)) / (n - 1)
    x = np.array((a - np.add.reduce(a) / n, p - np.add.reduce(p) / n))
    if not (np.add.reduce(x * x, axis=1) / n).all():  # np.std(a) or np.std(p) is 0
        raise VanetPosError("correlation undefined for a constant series")
    cov = np.dot(x, x.T.conj()) * (1 / (n - 1))  # np.cov's own product and scale
    corr = cov[0, 1] / math.sqrt(cov[0, 0]) / math.sqrt(cov[1, 1])
    return MetricsReport(
        mse=mse,
        max_abs_error=max_abs,
        std_dev=math.sqrt(variance),
        variance=variance,
        correlation=float(min(max(corr, -1.0), 1.0)),
        n=n,
    )


def _check_dof(n: int, k: int) -> None:
    if n <= k:
        raise TooFewSamples(f"need n > k, got n={n}, k={k}")


def goodness_of_fit(
    actual: Sequence[float], predicted: Sequence[float], k: int
) -> FitReport:
    """SSE, R-squared, adjusted R-squared and RMSE of a k-coefficient fit."""
    a, p = _paired_arrays(actual, predicted)
    n = len(a)
    _check_dof(n, k)
    sse = float(np.sum((a - p) ** 2))
    sst = float(np.sum((a - a.mean()) ** 2))
    if sst == 0.0:
        raise VanetPosError("R-squared undefined for a constant response")
    return fit_report_from_summary(sse, 1.0 - sse / sst, n, k)


def fit_report_from_summary(sse: float, r_square: float, n: int, k: int) -> FitReport:
    """Rebuild a FitReport from summary numbers (SSE, R-squared).

    The one place a FitReport is built, with its (n-1)/(n-k) adjusted
    R-squared and its n-k RMSE; `goodness_of_fit` builds its report here.
    """
    _check_dof(n, k)
    return FitReport(
        sse=sse,
        r_square=r_square,
        adj_r_square=1.0 - (1.0 - r_square) * (n - 1) / (n - k),
        rmse=math.sqrt(sse / (n - k)),
        n=n,
    )
