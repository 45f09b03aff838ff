"""Builders the tests share."""

import math
from typing import List, Sequence, Tuple

import numpy as np

from vanetpos.channel import Rsu, SurveyDataset, channels_overlap
from vanetpos.errors import InsufficientAnchors, NoConvergence
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
            x_m=float(x),
            channel=int(ch),
            z_m=antenna_z_m,
            tx_ref_rss_dbm=tx_ref_rss_dbm,
        )
        for x, ch in zip(positions_m, channels, strict=True)
    ]


def column(survey: SurveyDataset, rsu_id: str) -> Tuple[np.ndarray, np.ndarray]:
    """One RSU's (rss_dbm, distance_m) columns of a survey grid, by position."""
    j = survey.rsu_ids().index(rsu_id)
    return survey.rss_dbm[:, j], survey.distance_m[:, j]


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
    picked = []
    for b in ordered:
        if all(not channels_overlap(b.rsu.channel, p.rsu.channel) for p in picked):
            picked.append(b)
    if len(picked) >= needed:
        return picked, False
    return (ordered + _sorted_weakest_first(bad))[:needed], True


def scalar_gauss_newton_reference(
    px: float,
    py: float,
    terms: Sequence[Tuple[float, float, float, float]],
) -> Tuple[float, float]:
    """The scalar Gauss-Newton loop that evaluated each accepted point twice.

    The oracle of `geometry._gauss_newton`, which carries the normal
    equations of an accepted trial into the next iteration: each iteration
    here walks the terms once for the clamped objective and the normal
    equations at (px, py), then once per damped trial for the unclamped
    objective. Both must give the same bits.
    """
    lam = 1e-3
    stagnant = 0
    for _ in range(100):
        prev_obj = n00 = n01 = n11 = g0 = g1 = 0.0
        for ax, ay, dz2, r in terms:
            dx, dy = px - ax, py - ay
            dist = max(math.sqrt(dx * dx + dy * dy + dz2), 1e-12)
            res = dist - r
            prev_obj += res * res
            jx, jy = dx / dist, dy / dist
            n00 += jx * jx
            n01 += jx * jy
            n11 += jy * jy
            g0 += jx * res
            g1 += jy * res
        for _ in range(40):
            a00, a11 = n00 + lam, n11 + lam
            det = a00 * a11 - n01 * n01
            if 0.0 < det < math.inf:
                sx = (n01 * g1 - a11 * g0) / det
                sy = (n01 * g0 - a00 * g1) / det
                obj = 0.0
                for ax, ay, dz2, r in terms:
                    dx, dy = px + sx - ax, py + sy - ay
                    res = math.sqrt(dx * dx + dy * dy + dz2) - r
                    obj += res * res
                if math.isfinite(obj) and obj <= prev_obj + 1e-18:
                    break
            lam *= 10.0
        else:
            break  # no damped step improves: numerically stationary
        px, py = px + sx, py + sy
        lam = max(lam * 0.3, 1e-12)
        if math.sqrt(sx * sx + sy * sy) < 1e-9:
            break
        stagnant = stagnant + 1 if prev_obj - obj <= 1e-15 * (1.0 + prev_obj) else 0
        if stagnant >= 3:
            break
    else:
        raise NoConvergence("multilateration did not converge in 100 iterations")
    return px, py
