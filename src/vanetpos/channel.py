"""Synthetic Wi-Fi propagation and RSS survey generation.

Log-distance path loss with distance-dependent Gaussian shadowing: chaotic
inside the near-field band, mild beyond it, plus extra variance for every
co-channel interferer. The survey generator drives a vehicle along a test
line past a row of roadside units and records one RSS reading per
(position, RSU) cell, mirroring a drive-by site survey. It is the only RSS
draw: a drive's calibration and the beacons it hears are both surveys.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .domain import COORD_M, LENGTH_M, LEVEL_DBM, SIGMA_DB, check_ranges, ranged
from .errors import VanetPosError
from .geometry import LocalPoint

WIFI_CHANNEL_MIN = 1
WIFI_CHANNEL_MAX = 13

# channels this far apart (or more) do not interfere
_OVERLAP_SEPARATION = 5
MAX_CELLS = 10**6  # positions x RSUs of one survey grid
_CSV_BLOCK_CELLS = 4096  # survey cells formatted per write of the CSV


@dataclass(frozen=True)
class Rsu:
    """A roadside unit: fixed access point broadcasting position beacons.

    The fields are the keys of a config's RSU entry.
    """

    id: str
    x_m: float = ranged(MISSING, *COORD_M)
    # `positioning` indexes its channel blocks by this number
    channel: int = ranged(MISSING, WIFI_CHANNEL_MIN, WIFI_CHANNEL_MAX)
    y_m: float = ranged(0.0, *COORD_M)
    z_m: float = ranged(1.10, *COORD_M)
    tx_ref_rss_dbm: float = ranged(-40.0, *LEVEL_DBM)

    def __post_init__(self) -> None:
        check_ranges(self)
        # the id is a field of the survey CSV and of a trace's used_rsus list
        if not self.id or any(c in self.id for c in ",;\n\r"):
            raise ValueError(
                f"RSU id {self.id!r} must be non-empty, without ',', ';' or a "
                "line break"
            )

    @functools.cached_property
    def position(self) -> LocalPoint:
        return LocalPoint(self.x_m, self.y_m, self.z_m)


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

    ref_distance_m: float = ranged(1.0, 1e-3, 1e3)
    ref_rss_dbm: float = ranged(-40.0, *LEVEL_DBM)
    path_loss_exponent: float = ranged(2.7, 0.1, 10.0)
    far_sigma_db: float = ranged(2.0, *SIGMA_DB)
    near_sigma_db: float = ranged(8.0, *SIGMA_DB)
    near_field_m: float = ranged(60.0, *LENGTH_M)
    interference_sigma_db: float = ranged(6.0, *SIGMA_DB)
    rss_floor_dbm: float = ranged(-95.0, *LEVEL_DBM)

    def __post_init__(self) -> None:
        check_ranges(self)


@dataclass(frozen=True)
class SurveyLayout:
    """Drive-by survey geometry: RSU row plus the parallel test line."""

    rsus: List[Rsu]
    start_m: float = ranged(0.0, *COORD_M)
    end_m: float = ranged(200.0, *COORD_M)
    step_m: float = ranged(5.0, 1e-3, 1e6)
    lane_y_m: float = ranged(7.0, *COORD_M)
    antenna_z_m: float = ranged(1.10, *COORD_M)

    def __post_init__(self) -> None:
        check_ranges(self)
        if self.end_m < self.start_m:
            raise ValueError("end_m must be >= start_m")
        n, m = self._count(), len(self.rsus)  # before positions() allocates
        if not 1 <= n * m <= MAX_CELLS:
            raise ValueError(f"{n} positions x {m} RSUs must be 1 to {MAX_CELLS} cells")

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
        raise VanetPosError(
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
            raise VanetPosError(
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
    reference distance to an RSU raises VanetPosError for the
    first such position, naming it, its nearest RSU and their distance,
    before any noise is drawn.
    """
    rsus = tuple(sorted(layout.rsus, key=lambda r: r.id))
    near, far = zip(*(_sigmas(model, count_interferers(r, rsus)) for r in rsus))
    x = layout.positions()
    points = np.column_stack(
        (x, np.full_like(x, layout.lane_y_m), np.full_like(x, layout.antenna_z_m))
    )
    offsets = points[:, None, :] - np.array([r.position.as_array() for r in rsus])
    # one dot product per cell, as np.linalg.norm takes it (np.einsum and
    # norm(axis=-1) round differently)
    dist = np.sqrt((offsets[..., None, :] @ offsets[..., :, None])[..., 0, 0])
    below = np.flatnonzero(dist.min(axis=1) < model.ref_distance_m)
    if below.size:
        i = below[0]
        j = int(dist[i].argmin())
        raise VanetPosError(
            f"RSU {rsus[j].id} at x={float(x[i])}: distance {float(dist[i, j])} m "
            f"closer than reference {model.ref_distance_m} m"
        )
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
    repeat runs are byte-identical. Each write formats a block of about
    `_CSV_BLOCK_CELLS` cells, so the text never exists whole in memory.
    """
    grid = (dataset.x_m, dataset.distance_m, dataset.rss_dbm)
    step = max(_CSV_BLOCK_CELLS // len(dataset.rsus), 1)
    with open(path, "w") as f:
        f.write(SURVEY_CSV_HEADER + "\n")
        for i in range(0, len(dataset.x_m), step):
            f.write("".join(
                f"{x:.4f},{rsu.id},{r:.4f},{d:.4f},{rsu.channel}\n"
                for x, dists, levels in zip(*(a[i:i + step].tolist() for a in grid))
                for rsu, d, r in zip(dataset.rsus, dists, levels)
            ))
    return dataset.rss_dbm.size


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

