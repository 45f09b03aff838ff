"""Builders the tests share."""

from typing import List, Sequence, Tuple

from vanetpos.channel import Rsu, channels_overlap
from vanetpos.errors import InsufficientAnchors
from vanetpos.geometry import LocalPoint
from vanetpos.positioning import Beacon, SelectionPolicy


def standard_rsu_row(
    positions_m: Sequence[float],
    channels: Sequence[int],
    antenna_z_m: float = 1.10,
    tx_ref_rss_dbm: float = -40.0,
) -> List[Rsu]:
    """RSUs on the y = 0 line at the given x positions, named ap<pos>."""
    return [
        Rsu(
            id=f"ap{int(round(x))}",
            position=LocalPoint(float(x), 0.0, antenna_z_m),
            channel=int(ch),
            tx_ref_rss_dbm=tx_ref_rss_dbm,
        )
        for x, ch in zip(positions_m, channels, strict=True)
    ]


def _sorted_weakest_first(beacons: Sequence[Beacon]) -> List[Beacon]:
    return sorted(beacons, key=lambda b: (b.rss_dbm, b.rsu.id))


def reference_select_rsus(
    good: Sequence[Beacon], bad: Sequence[Beacon], policy: SelectionPolicy
) -> Tuple[List[Beacon], bool]:
    """The RSU selection over beacons already ranged and split good/bad.

    The oracle of `positioning.select_rsus`, which ranges only the beacons
    its pass can still pick: the same selection and degraded flag, with
    the pairwise `channels_overlap` test in place of channel masks.
    """
    needed = policy.min_rsu_count
    if len(good) + len(bad) < needed:
        raise InsufficientAnchors(
            f"{len(good) + len(bad)} calibrated RSUs heard, need {needed}"
        )
    ordered = _sorted_weakest_first(good)
    picked = ordered
    if policy.require_distinct_channels:
        picked = []
        for b in ordered:
            if all(not channels_overlap(b.rsu.channel, p.rsu.channel) for p in picked):
                picked.append(b)
    if len(picked) >= needed:
        return picked, False
    if len(good) >= needed:
        return ordered[:needed], True
    # anchor order changes multilaterate's rounding: keep good as heard
    return list(good) + _sorted_weakest_first(bad)[: needed - len(good)], True
