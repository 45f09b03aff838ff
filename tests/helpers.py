"""Builders the tests share."""

from typing import List, Sequence

from vanetpos.channel import Rsu
from vanetpos.geometry import LocalPoint


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
