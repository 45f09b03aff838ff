"""Hybrid positioning engine: DGPS when available, RSS ranging otherwise.

The RSS path follows the deployment policy: prefer the farthest RSUs heard
(weakest signal, clear of near-field chaos) on mutually non-interfering
channels, convert each RSS to a range with the calibrated quartic,
multilaterate, and average the fixes from every minimal anchor subset when
extra RSUs are available. A neural estimator can replace the
range-and-multilaterate chain with a direct street-position readout.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Collection, Container, Dict, List, NamedTuple
from typing import Optional, Sequence, Tuple, Union

from .channel import WIFI_CHANNEL_MAX, WIFI_CHANNEL_MIN, Rsu, SurveyLayout
from .channel import channels_overlap
from .domain import LENGTH_M, check_ranges, ranged
from .errors import InsufficientAnchors, NoCoverage
from .fit import Polynomial4
from .geometry import (
    AnchorRange,
    GlobalPosition,
    LocalPoint,
    fuse_fixes,
    multilaterate,
    to_global,
    to_local,
)
from .nn import MlpModel, forward_batch


class FixSource(Enum):
    DGPS = "DGPS"
    RSS = "RSS"


@dataclass(frozen=True)
class SelectionPolicy:
    """RSU selection rules."""

    min_rsu_count: int = ranged(2, 2, 100)
    near_field_m: float = ranged(60.0, *LENGTH_M)

    def __post_init__(self) -> None:
        check_ranges(self)


class Beacon(NamedTuple):
    """One beacon heard in the current window: the RSU plus measured RSS."""

    rsu: Rsu
    rss_dbm: float


@dataclass(frozen=True)
class CalibratedPoly:
    """A fitted quartic plus the RSS domain it was calibrated on."""

    poly: Polynomial4
    rss_min_dbm: float
    rss_max_dbm: float
    rmse_m: float

    def __post_init__(self) -> None:
        if self.rss_min_dbm > self.rss_max_dbm:
            raise ValueError("rss_min_dbm must be <= rss_max_dbm")


@dataclass(frozen=True)
class PolynomialRangeEstimator:
    """Per-RSU calibrated quartics (RSS in dBm to range in meters)."""

    by_rsu: Dict[str, CalibratedPoly]


@dataclass(frozen=True)
class NnPositionEstimator:
    """Direct street-position network, valid on its calibration layout's track."""

    model: MlpModel
    rsu_order: Tuple[str, ...]
    layout: SurveyLayout
    rmse_m: float
    missing_rss_dbm: float = -95.0


RangeEstimator = Union[PolynomialRangeEstimator, NnPositionEstimator]


@dataclass(frozen=True)
class PositionFix:
    """Engine output: absolute and local position with provenance."""

    global_position: GlobalPosition
    local_position: LocalPoint
    source: FixSource
    used_rsu_ids: Tuple[str, ...]
    quality_m: float

    def __post_init__(self) -> None:
        if self.source is FixSource.RSS and not self.used_rsu_ids:
            raise ValueError("RSS fixes must record the RSUs they used")


# bit o of _BLOCKS[c] is set when channel o overlaps channel c
_CHANNELS = range(WIFI_CHANNEL_MIN, WIFI_CHANNEL_MAX + 1)
_BLOCKS = {
    c: sum(1 << o for o in _CHANNELS if channels_overlap(c, o)) for c in _CHANNELS
}
_ALL_BLOCKED = sum(1 << c for c in _CHANNELS)
_WEAKEST_FIRST = operator.attrgetter("rss_dbm", "rsu.id")


def select_rsus(
    beacons: Collection[Beacon],
    is_good: Callable[[Beacon], bool],
    policy: SelectionPolicy,
) -> Tuple[List[Beacon], bool]:
    """Pick the anchors of one fix, farthest (weakest RSS) first.

    `beacons` are the calibrated ones as heard, one per RSU; `is_good(b)`
    ranges `b` and says whether it is clear of the near field and of any
    clamp. Not degraded: every good beacon the weakest-first greedy pass
    keeps on mutually non-overlapping channels, when that reaches
    `min_rsu_count`; a beacon on a channel blocked by an earlier pick is
    never ranged, and the pass stops once the picks block every channel.
    Else, degraded: the first `min_rsu_count` of the good beacons, then the
    bad, each weakest first. No beacon is ranged twice.
    """
    needed = policy.min_rsu_count
    if len(beacons) < needed:
        raise InsufficientAnchors(
            f"{len(beacons)} calibrated RSUs heard, need {needed}"
        )
    ordered = sorted(beacons, key=_WEAKEST_FIRST)
    picked: List[Beacon] = []
    good_by_id: Dict[str, bool] = {}
    blocked = 0
    for b in ordered:
        if not blocked >> b.rsu.channel & 1:
            ok = good_by_id[b.rsu.id] = is_good(b)
            if ok:
                picked.append(b)
                blocked |= _BLOCKS[b.rsu.channel]
                if blocked == _ALL_BLOCKED:
                    break  # no later beacon could be picked
    if len(picked) >= needed:
        return picked, False
    for b in ordered:  # range what the pass skipped
        if b.rsu.id not in good_by_id:
            good_by_id[b.rsu.id] = is_good(b)
    return sorted(ordered, key=lambda b: not good_by_id[b.rsu.id])[:needed], True


def rss_to_range(cal: CalibratedPoly, rss_dbm: float) -> Tuple[float, bool]:
    """Convert RSS to range with the calibrated quartic.

    RSS outside the calibration domain is evaluated at the nearest domain
    edge (the quartic diverges outside its fit range); negative outputs
    clamp to zero. The flag reports whether any clamp fired. The quartic
    is `fit.evaluate_poly4`'s Horner form, written out.
    """
    clamped = False
    r = rss_dbm
    if r < cal.rss_min_dbm:
        r, clamped = cal.rss_min_dbm, True
    elif r > cal.rss_max_dbm:
        r, clamped = cal.rss_max_dbm, True
    p = cal.poly
    value = float((((p.p1 * r + p.p2) * r + p.p3) * r + p.p4) * r + p.p5)
    if value < 0.0:
        value, clamped = 0.0, True
    return value, clamped


def _strongest_by_rsu(
    beacons: Sequence[Beacon], known: Container[str]
) -> Dict[str, Beacon]:
    """The strongest reading of each RSU in `known`, in first-heard order."""
    best: Dict[str, Beacon] = {}
    for b in beacons:
        rsu_id = b.rsu.id
        if rsu_id in known:
            cur = best.get(rsu_id)
            if cur is None or b.rss_dbm > cur.rss_dbm:
                best[rsu_id] = b
    return best


def _locate_polynomial(
    beacons: Sequence[Beacon],
    estimator: PolynomialRangeEstimator,
    policy: SelectionPolicy,
    hint: Optional[LocalPoint],
) -> Tuple[LocalPoint, Tuple[str, ...], float]:
    # deprioritize anchors inside the near-field chaos zone or outside
    # their calibrated RSS domain; use them only to reach the minimum count
    by_rsu = estimator.by_rsu
    ranges_m: Dict[str, float] = {}

    def is_good(b: Beacon) -> bool:
        range_m, clamped = rss_to_range(by_rsu[b.rsu.id], b.rss_dbm)
        ranges_m[b.rsu.id] = range_m
        return not clamped and range_m >= policy.near_field_m

    calibrated = _strongest_by_rsu(beacons, by_rsu).values()
    selected, degraded = select_rsus(calibrated, is_good, policy)

    ranges = [
        AnchorRange(anchor=b.rsu.position, range_m=ranges_m[b.rsu.id])
        for b in selected
    ]

    core = policy.min_rsu_count
    if len(ranges) > core:
        fixes = [
            multilaterate(list(subset), hint=hint)
            for subset in itertools.combinations(ranges, core)
        ]
        local = fuse_fixes(fixes)
    else:
        local = multilaterate(ranges, hint=hint)

    used = tuple(b.rsu.id for b in selected)
    quality = max(by_rsu[r].rmse_m for r in used)
    if degraded:  # the only way a clamped (bad) RSU is selected
        quality *= 2.0
    return local, used, quality


def _locate_nn(
    beacons: Sequence[Beacon],
    estimator: NnPositionEstimator,
    policy: SelectionPolicy,
) -> Tuple[LocalPoint, Tuple[str, ...], float]:
    by_id = _strongest_by_rsu(beacons, estimator.rsu_order)
    heard = [r for r in estimator.rsu_order if r in by_id]
    if len(heard) < policy.min_rsu_count:
        raise InsufficientAnchors(
            f"{len(heard)} of the estimator's RSUs heard, "
            f"need {policy.min_rsu_count}"
        )
    vector = [
        by_id[r].rss_dbm if r in by_id else estimator.missing_rss_dbm
        for r in estimator.rsu_order
    ]
    x = float(forward_batch(estimator.model, [vector])[0])
    layout, clamped = estimator.layout, False
    if x < layout.start_m:
        x, clamped = layout.start_m, True
    elif x > layout.end_m:
        x, clamped = layout.end_m, True
    quality = estimator.rmse_m * (2.0 if clamped else 1.0)
    return layout.vehicle_point(x), tuple(heard), quality


def locate(
    dgps: Optional[GlobalPosition],
    beacons: Sequence[Beacon],
    estimator: RangeEstimator,
    policy: SelectionPolicy,
    origin: GlobalPosition,
    hint: Optional[LocalPoint] = None,
) -> PositionFix:
    """Produce one position fix from the receiver's DGPS fix and the beacons.

    `dgps` is the receiver's corrected position, or None when it has none.
    A DGPS fix wins whenever there is one; otherwise the RSS path selects
    RSUs per the policy (`select_rsus`) and applies the estimator. Quality
    is the calibration RMSE (polynomial: the worst of the selected RSUs'),
    doubled when the fix is degraded:

    - polynomial: `select_rsus` fell back, to good RSUs on overlapping
      channels or to bad ones (near field, or clamped by `rss_to_range`)
    - nn: the estimate was clamped to the calibrated segment
    """
    if dgps is not None:
        return PositionFix(
            global_position=dgps,
            local_position=to_local(dgps, origin),
            source=FixSource.DGPS,
            used_rsu_ids=(),
            quality_m=0.0,
        )

    if not beacons:
        raise NoCoverage("no GPS and no beacons heard")

    if isinstance(estimator, PolynomialRangeEstimator):
        local, used, quality = _locate_polynomial(beacons, estimator, policy, hint)
    else:
        local, used, quality = _locate_nn(beacons, estimator, policy)

    return PositionFix(
        global_position=to_global(local, origin),
        local_position=local,
        source=FixSource.RSS,
        used_rsu_ids=used,
        quality_m=quality,
    )
