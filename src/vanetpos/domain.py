"""The stated range of each config number, and the one rule that checks it."""

from dataclasses import field, fields

from .errors import OutOfRange

COORD_M = (-1e6, 1e6)  # a coordinate of the local frame
LENGTH_M = (0.0, 1e6)
LEVEL_DBM = (-1e3, 1e3)
SIGMA_DB = (0.0, 100.0)
SEED = (0, 2**64 - 1)


def ranged(default, lo, hi):
    """A dataclass field whose value must lie in [lo, hi]; `default` may be
    `dataclasses.MISSING`. The class's `__post_init__` calls `check_ranges`."""
    return field(default=default, metadata={"range": (lo, hi)})


def check_ranges(obj) -> None:
    """Raise OutOfRange at the first ranged field of the dataclass `obj`
    outside its range, naming the field, the range and the value."""
    for f in fields(obj):
        bounds, value = f.metadata.get("range"), getattr(obj, f.name)
        if bounds and not bounds[0] <= value <= bounds[1]:  # NaN fails too
            raise OutOfRange(f"{f.name} must be in {list(bounds)}, got {value!r}")
