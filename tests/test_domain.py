"""Every `domain.ranged` field: its stated range, and `check_ranges` at its ends."""

import copy
import importlib
import math
import pkgutil
from dataclasses import fields, is_dataclass

import pytest

import vanetpos
from vanetpos import channel, cli, nn, positioning
from vanetpos.domain import check_ranges
from vanetpos.errors import OutOfRange

_RSU = channel.Rsu("ap0", 0.0, 1)
_LAYOUT = channel.SurveyLayout(rsus=[_RSU])
# one valid instance of each class that declares a ranged field
BASES = {
    channel.Rsu: _RSU,
    channel.ChannelModel: channel.ChannelModel(),
    channel.SurveyLayout: _LAYOUT,
    cli.EstimatorSpec: cli.EstimatorSpec(kind="poly"),
    cli.ScenarioConfig: cli.ScenarioConfig(_LAYOUT, channel.ChannelModel()),
    nn.TrainConfig: nn.TrainConfig(),
    positioning.SelectionPolicy: positioning.SelectionPolicy(),
}
# the ranges the README's "Ranges" table states, written out independently
STATED = {
    "Rsu.x_m": (-1e6, 1e6),
    "Rsu.channel": (1, 13),
    "Rsu.y_m": (-1e6, 1e6),
    "Rsu.z_m": (-1e6, 1e6),
    "Rsu.tx_ref_rss_dbm": (-1e3, 1e3),
    "ChannelModel.ref_distance_m": (1e-3, 1e3),
    "ChannelModel.ref_rss_dbm": (-1e3, 1e3),
    "ChannelModel.path_loss_exponent": (0.1, 10.0),
    "ChannelModel.far_sigma_db": (0.0, 100.0),
    "ChannelModel.near_sigma_db": (0.0, 100.0),
    "ChannelModel.near_field_m": (0.0, 1e6),
    "ChannelModel.interference_sigma_db": (0.0, 100.0),
    "ChannelModel.rss_floor_dbm": (-1e3, 1e3),
    "SurveyLayout.start_m": (-1e6, 1e6),
    "SurveyLayout.end_m": (-1e6, 1e6),
    "SurveyLayout.step_m": (1e-3, 1e6),
    "SurveyLayout.lane_y_m": (-1e6, 1e6),
    "SurveyLayout.antenna_z_m": (-1e6, 1e6),
    "EstimatorSpec.cutoff_m": (0.0, 1e6),
    "EstimatorSpec.hidden": (1, 100),
    "EstimatorSpec.train_seed": (0, 2**64 - 1),
    "EstimatorSpec.max_epochs": (1, 100_000),
    "EstimatorSpec.patience": (1, 100_000),
    "EstimatorSpec.learning_rate": (1e-6, 10.0),
    "EstimatorSpec.momentum": (0.0, 0.999),
    "ScenarioConfig.seed": (0, 2**64 - 1),
    "TrainConfig.max_epochs": (1, 100_000),
    "TrainConfig.patience": (1, 100_000),
    "TrainConfig.learning_rate": (1e-6, 10.0),
    "TrainConfig.momentum": (0.0, 0.999),
    "SelectionPolicy.min_rsu_count": (2, 100),
    "SelectionPolicy.near_field_m": (0.0, 1e6),
}


def ranged_fields():
    """(class, field) of every ranged field the package's dataclasses declare."""
    found = []
    for info in pkgutil.iter_modules(vanetpos.__path__):
        module = importlib.import_module(f"vanetpos.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and is_dataclass(cls) and (
                cls.__module__ == module.__name__
            ):
                found += [(cls, f) for f in fields(cls) if "range" in f.metadata]
    return found


RANGED = ranged_fields()


def test_each_ranged_field_has_its_stated_range():
    declared = {f"{cls.__name__}.{f.name}": f.metadata["range"] for cls, f in RANGED}
    assert declared == STATED
    assert {cls for cls, _ in RANGED} == set(BASES)


@pytest.mark.parametrize(
    "cls, field", RANGED, ids=[f"{cls.__name__}.{f.name}" for cls, f in RANGED]
)
def test_check_ranges_accepts_both_ends_and_refuses_one_step_outside(cls, field):
    lo, hi = field.metadata["range"]

    def with_value(value):
        changed = copy.copy(BASES[cls])
        object.__setattr__(changed, field.name, value)
        return changed

    for end in (lo, hi):
        check_ranges(with_value(end))
    for outside in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
        with pytest.raises(OutOfRange, match=f"^{field.name} must be in "):
            check_ranges(with_value(outside))
