"""Quartic curve-fit estimator mapping RSS (dBm) to distance (meters).

Distance = p1*R^4 + p2*R^3 + p3*R^2 + p4*R + p5. A raw Vandermonde in R is
badly conditioned (R^4 reaches ~6.6e7 at -90 dBm), so the fit runs in the
standardized variable z = (R - mean) / std and the coefficients are expanded
back to raw R for reporting. Training data is filtered to the far field
first: readings taken closer than the cutoff are near-field chaos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import RankDeficient, TooFewSamples
from .metrics import FitReport, goodness_of_fit

_N_COEFFS = 5
_MIN_PAIRS = _N_COEFFS + 1  # the fit's RMSE needs n > k


@dataclass(frozen=True)
class Polynomial4:
    """Coefficients of the quartic, highest power first."""

    p1: float
    p2: float
    p3: float
    p4: float
    p5: float

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "p3", "p4", "p5"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True, eq=False)
class FitInput:
    """Far-field calibration pairs (one RSU) as two float arrays; `==` is identity."""

    rss_dbm: np.ndarray
    distance_m: np.ndarray

    def __post_init__(self) -> None:
        if len(self.rss_dbm) != len(self.distance_m):
            raise ValueError("rss_dbm and distance_m must have equal length")
        if len(self.rss_dbm) < _MIN_PAIRS:
            raise TooFewSamples(
                f"need >= {_MIN_PAIRS} pairs, got {len(self.rss_dbm)}"
            )

    @property
    def n(self) -> int:
        return len(self.rss_dbm)

    @property
    def rss_min(self) -> float:
        return float(self.rss_dbm.min())

    @property
    def rss_max(self) -> float:
        return float(self.rss_dbm.max())


def filter_near_field(
    rss_dbm: Iterable,
    distance_m: Union[Sequence[float], float],
    cutoff_m: Optional[float] = None,
) -> FitInput:
    """Keep only the pairs at true distance >= cutoff, preserving order.

    Takes an RSS and a distance column and the cutoff, or survey rows (as
    `read_survey_csv` gives them) and the cutoff: `(rows, cutoff_m)`.
    """
    if cutoff_m is None:
        rows, cutoff_m = list(rss_dbm), distance_m
        rss_dbm = [s.rss_dbm for s in rows]
        distance_m = [s.true_distance_m for s in rows]
    dist = np.asarray(distance_m, dtype=float)
    keep = dist >= cutoff_m
    rss = np.asarray(rss_dbm, dtype=float)[keep]
    if len(rss) < _MIN_PAIRS:
        raise TooFewSamples(
            f"only {len(rss)} samples at distance >= {cutoff_m} m "
            f"(need {_MIN_PAIRS})"
        )
    return FitInput(rss_dbm=rss, distance_m=dist[keep])


def fit_poly4(fit_input: FitInput) -> Tuple[Polynomial4, FitReport]:
    """Least-squares quartic fit of distance on RSS.

    Solved in the standardized predictor for conditioning, then expanded to
    raw-R coefficients. The goodness-of-fit report is computed from the
    expanded coefficients (the ones reported), with k = 5.
    """
    rss, dist = fit_input.rss_dbm, fit_input.distance_m
    distinct = len(set(rss.tolist()))
    if distinct < _N_COEFFS:
        raise RankDeficient(
            f"need >= {_N_COEFFS} distinct RSS values, got {distinct}"
        )

    mu = rss.mean()
    sigma = rss.std()
    z = (rss - mu) / sigma
    z_coeffs = np.polyfit(z, dist, deg=4)
    poly = Polynomial4(*_raw_coefficients(z_coeffs, mu, sigma))

    predicted = evaluate_poly4(poly, rss)
    report = goodness_of_fit(dist, predicted, k=_N_COEFFS)
    return poly, report


def _raw_coefficients(z_coeffs: np.ndarray, mu: float, sigma: float) -> List[float]:
    """Compose a polynomial in z with z(R) = (R - mu) / sigma.

    Horner's rule over polynomials, in the order numpy's ``poly1d``
    composes them, so the values match that composition bit for bit (up to
    the sign of a zero) without its per-step objects. Highest power first,
    as floats.
    """
    lin = np.array([1.0 / sigma, -mu / sigma])
    coeffs = z_coeffs[:1]
    for c in z_coeffs[1:]:
        coeffs = np.convolve(coeffs, lin)
        coeffs[-1] += c
    return coeffs.tolist()


def evaluate_poly4(
    poly: Polynomial4, rss_dbm: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """Evaluate the quartic at an RSS value (Horner form)."""
    r = rss_dbm
    acc = poly.p1
    for c in (poly.p2, poly.p3, poly.p4, poly.p5):
        acc = acc * r + c
    if isinstance(acc, np.ndarray):
        return acc
    return float(acc)
