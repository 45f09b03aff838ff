"""Synthetic Wi-Fi propagation and RSS survey generation.

Log-distance path loss with distance-dependent Gaussian shadowing: chaotic
inside the near-field band, mild beyond it, plus extra variance for every
co-channel interferer. The survey generator drives a vehicle along a test
line past a row of roadside units and records one RSS reading per
(position, RSU) cell, mirroring a drive-by site survey. It is the only RSS
draw: a drive's calibration and the beacons it hears are both surveys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .errors import BelowReferenceDistance, ChannelOutOfRange, VanetPosError
from .geometry import LocalPoint

WIFI_CHANNEL_MIN = 1
WIFI_CHANNEL_MAX = 13

# channels this far apart (or more) do not interfere
_OVERLAP_SEPARATION = 5


@dataclass(frozen=True)
class Rsu:
    """A roadside unit: fixed access point broadcasting position beacons."""

    id: str
    position: LocalPoint
    channel: int
    tx_ref_rss_dbm: float = -40.0

    def __post_init__(self) -> None:
        # the id is a field of the survey CSV and of a trace's used_rsus list
        if not self.id or any(c in self.id for c in ",;\n\r"):
            raise ValueError(
                f"RSU id {self.id!r} must be non-empty, without ',', ';' or a "
                "line break"
            )
        if not WIFI_CHANNEL_MIN <= self.channel <= WIFI_CHANNEL_MAX:
            raise ChannelOutOfRange(
                f"RSU {self.id}: channel {self.channel} outside "
                f"[{WIFI_CHANNEL_MIN}, {WIFI_CHANNEL_MAX}]"
            )


@dataclass(frozen=True)
class ChannelModel:
    """Log-distance propagation law with two-zone shadowing.

    The received level at distance d is
    ``ref_rss_dbm - 10 * path_loss_exponent * log10(d / ref_distance_m)``,
    floored at the receiver sensitivity. Noise sigma is `near_sigma_db`
    below `near_field_m` (emitter-receiver interference chaos) and
    `far_sigma_db` beyond; each co-channel interferer adds
    `interference_sigma_db**2` of variance.
    """

    ref_distance_m: float = 1.0
    ref_rss_dbm: float = -40.0
    path_loss_exponent: float = 2.7
    far_sigma_db: float = 2.0
    near_sigma_db: float = 8.0
    near_field_m: float = 60.0
    interference_sigma_db: float = 6.0
    rss_floor_dbm: float = -95.0

    def __post_init__(self) -> None:
        if self.ref_distance_m <= 0:
            raise ValueError("ref_distance_m must be > 0")
        if self.path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be > 0")
        if min(self.far_sigma_db, self.near_sigma_db, self.interference_sigma_db) < 0:
            raise ValueError("noise sigmas must be >= 0")
        for name in ("near_sigma_db", "far_sigma_db", "interference_sigma_db"):
            sigma = getattr(self, name)
            if not math.isfinite(sigma * sigma):  # _sigmas squares it
                raise ValueError(f"{name} must have a finite square, got {sigma}")
        if self.near_field_m < 0:
            raise ValueError("near_field_m must be >= 0")


@dataclass(frozen=True)
class SurveyLayout:
    """Drive-by survey geometry: RSU row plus the parallel test line."""

    rsus: List[Rsu]
    start_m: float = 0.0
    end_m: float = 200.0
    step_m: float = 5.0
    lane_y_m: float = 7.0
    antenna_z_m: float = 1.10

    def __post_init__(self) -> None:
        if not self.rsus:
            raise ValueError("layout needs at least one RSU")
        if self.step_m <= 0:
            raise ValueError("step_m must be > 0")
        if self.end_m < self.start_m:
            raise ValueError("end_m must be >= start_m")
        if not math.isfinite((self.end_m - self.start_m) / self.step_m):
            raise ValueError("(end_m - start_m) / step_m overflows the float range")
        # an RSU's distance from the test line peaks at one of its two ends
        for x in (self.start_m, self.start_m + self.step_m * (self._count() - 1)):
            for rsu in self.rsus:
                p = rsu.position
                d = (x - p.x_m, self.lane_y_m - p.y_m, self.antenna_z_m - p.z_m)
                if not math.isfinite(sum(c * c for c in d)):
                    raise ValueError(
                        f"RSU {rsu.id}: squared distance to the test line at x={x} "
                        "overflows"
                    )

    def _count(self) -> int:
        return int(math.floor((self.end_m - self.start_m) / self.step_m + 1e-9)) + 1

    def positions(self) -> np.ndarray:
        """Longitudinal sample positions, inclusive of both ends."""
        return self.start_m + self.step_m * np.arange(self._count())

    def vehicle_point(self, x_m: float) -> LocalPoint:
        return LocalPoint(x_m, self.lane_y_m, self.antenna_z_m)


class RssSample(NamedTuple):
    """One RSS reading: vehicle at x_m, heard from rsu_id.

    A row of the survey CSV, as `read_survey_csv` returns it.
    """

    x_m: float
    rsu_id: str
    rss_dbm: float
    true_distance_m: float


@dataclass(frozen=True, eq=False)
class SurveyDataset:
    """Complete survey grid: one reading per (position, RSU).

    `rsus` are the layout's RSUs in id order and `x_m` the P positions;
    `distance_m` and `rss_dbm` are P x n, one row per position and one
    column per RSU. Datasets compare by identity (`eq=False`), so `==`
    never compares arrays.
    """

    rsus: Tuple[Rsu, ...]
    x_m: np.ndarray
    distance_m: np.ndarray
    rss_dbm: np.ndarray

    def rsu_ids(self) -> List[str]:
        return [r.id for r in self.rsus]


def expected_rss(model: ChannelModel, distance_m: float) -> float:
    """Mean RSS at a given distance under the log-distance law."""
    if distance_m < model.ref_distance_m:
        raise BelowReferenceDistance(
            f"distance {distance_m} m closer than reference "
            f"{model.ref_distance_m} m"
        )
    rss = model.ref_rss_dbm - 10.0 * model.path_loss_exponent * float(
        np.log10(distance_m / model.ref_distance_m)
    )
    return max(rss, model.rss_floor_dbm)


def channels_overlap(a: int, b: int) -> bool:
    """Whether two Wi-Fi channels interfere (closer than 5 channels apart)."""
    for ch in (a, b):
        if not WIFI_CHANNEL_MIN <= ch <= WIFI_CHANNEL_MAX:
            raise ChannelOutOfRange(
                f"channel {ch} outside [{WIFI_CHANNEL_MIN}, {WIFI_CHANNEL_MAX}]"
            )
    return abs(a - b) < _OVERLAP_SEPARATION


def _sigmas(model: ChannelModel, n_cochannel_interferers: int) -> Tuple[float, float]:
    """Near- and far-field noise sigmas with `n` co-channel interferers."""
    var = n_cochannel_interferers * model.interference_sigma_db**2
    return (
        math.sqrt(model.near_sigma_db**2 + var),
        math.sqrt(model.far_sigma_db**2 + var),
    )


def sample_rss(
    model: ChannelModel,
    distance_m: float,
    n_cochannel_interferers: int,
    rng: np.random.Generator,
) -> float:
    """Draw one noisy RSS reading.

    Variance is the near/far base sigma squared plus
    ``n * interference_sigma_db**2``; the draw is floored at the receiver
    sensitivity. Deterministic given the generator state.
    """
    mean = expected_rss(model, distance_m)
    near, far = _sigmas(model, n_cochannel_interferers)
    sigma = near if distance_m < model.near_field_m else far
    value = mean + sigma * rng.standard_normal() if sigma > 0 else mean
    return max(value, model.rss_floor_dbm)


def count_interferers(rsu: Rsu, others: Sequence[Rsu]) -> int:
    """How many other RSUs transmit on a channel overlapping this one."""
    return sum(
        1
        for other in others
        if other.id != rsu.id and channels_overlap(rsu.channel, other.channel)
    )


def generate_survey(layout: SurveyLayout, model: ChannelModel, seed) -> SurveyDataset:
    """Simulate the drive-by survey: every RSU's reading at every position.

    `seed` is anything `np.random.default_rng` takes. An RSU's interferer
    count and noise sigmas depend only on the layout, so they are computed
    once per RSU. The noise comes from one `standard_normal` call over the
    cells with sigma > 0, positions ascending and RSUs by id within each,
    so the values and the generator state match, bit for bit, one
    `sample_rss` call per cell in that order: the dataset is a pure
    function of (layout, model, seed). A position closer than the
    reference distance to an RSU raises BelowReferenceDistance for the
    first such position, with its nearest distance, before any noise is
    drawn; an RSU whose co-channel noise variance overflows, before that.
    """
    rsus = tuple(sorted(layout.rsus, key=lambda r: r.id))
    near, far = zip(*(_sigmas(model, count_interferers(r, rsus)) for r in rsus))
    for rsu, *sigmas in zip(rsus, near, far):
        # ChannelModel bounds each sigma's square, not their sum with interferers'
        if not math.isfinite(max(sigmas)):
            raise VanetPosError(f"RSU {rsu.id}: co-channel noise variance overflows")
    x = layout.positions()
    points = np.column_stack(
        (x, np.full_like(x, layout.lane_y_m), np.full_like(x, layout.antenna_z_m))
    )
    offsets = points[:, None, :] - np.array([r.position.as_array() for r in rsus])
    # one dot product per cell, as np.linalg.norm takes it (np.einsum and
    # norm(axis=-1) round differently)
    dist = np.sqrt((offsets[..., None, :] @ offsets[..., :, None])[..., 0, 0])
    nearest = dist.min(axis=1)
    below = np.flatnonzero(nearest < model.ref_distance_m)
    if below.size:
        # raises BelowReferenceDistance
        expected_rss(model, float(nearest[below[0]]))
    log = np.log10(dist / model.ref_distance_m)
    tx_ref_dbm = np.array([r.tx_ref_rss_dbm for r in rsus])
    floor = model.rss_floor_dbm
    rss = np.maximum(tx_ref_dbm - 10.0 * model.path_loss_exponent * log, floor)
    sigma = np.where(dist < model.near_field_m, np.array(near), np.array(far))
    noisy = sigma > 0
    rng = np.random.default_rng(seed)
    rss[noisy] += sigma[noisy] * rng.standard_normal(np.count_nonzero(noisy))
    return SurveyDataset(
        rsus=rsus,
        x_m=x,
        distance_m=dist,
        rss_dbm=np.maximum(rss, floor),
    )


# --- survey CSV interface (fixed format for byte-stable experiment files) ---

SURVEY_CSV_HEADER = "x_m,rsu_id,rss_dbm,true_distance_m,channel"


def write_survey_csv(dataset: SurveyDataset, path: Union[str, Path]) -> int:
    """Write the survey grid; returns the data row count.

    Rows in grid order, x_m then rsu_id, floats at 4 decimal places so
    repeat runs are byte-identical.
    """
    lines = [SURVEY_CSV_HEADER]
    for x, dists, levels in zip(
        dataset.x_m.tolist(), dataset.distance_m.tolist(), dataset.rss_dbm.tolist()
    ):
        for rsu, d, r in zip(dataset.rsus, dists, levels):
            lines.append(f"{x:.4f},{rsu.id},{r:.4f},{d:.4f},{rsu.channel}")
    Path(path).write_text("\n".join(lines) + "\n")
    return len(lines) - 1


def read_survey_csv(path: Union[str, Path]) -> List[RssSample]:
    """Read samples back from the survey CSV (channel column ignored).

    A field that is not a finite number, or a second row for an (x_m,
    rsu_id) cell, is a data error, named by line.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as e:
        raise VanetPosError(f"{path}: not a survey CSV ({e})") from e
    if not lines or lines[0] != SURVEY_CSV_HEADER:
        raise VanetPosError(f"{path}: not a survey CSV (bad header)")
    samples = []
    first_line: Dict[Tuple[float, str], int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise VanetPosError(f"{path}:{lineno}: expected 5 columns")
        try:
            values = [float(parts[i]) for i in (0, 2, 3)]
        except ValueError:
            values = [math.nan]
        if not all(map(math.isfinite, values)):
            raise VanetPosError(
                f"{path}:{lineno}: x_m, rss_dbm and true_distance_m must be "
                "finite numbers"
            )
        x_m, rss_dbm, distance_m = values
        first = first_line.setdefault((x_m, parts[1]), lineno)
        if first != lineno:
            raise VanetPosError(
                f"{path}:{lineno}: repeats the x_m={parts[0]}, rsu_id={parts[1]} "
                f"cell of line {first}"
            )
        samples.append(RssSample(x_m, parts[1], rss_dbm, distance_m))
    return samples

