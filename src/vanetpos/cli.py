"""Command-line harness wiring the toolkit into reproducible experiments.

Subcommands: `survey` (generate an RSS survey CSV), `fit` (calibrate the
quartic for one RSU), `sweep` (network model-selection table), and `drive`
(simulated run along the road with DGPS outages and an error summary).
Every command is deterministic given (config, seed) and writes byte-stable
output. Exit codes: 0 ok, 1 usage, 2 data/config error, 3 insufficient
data/anchors or no converged fix.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import channel as ch
from . import nn
from .domain import COORD_M, LENGTH_M, SEED, check_ranges, ranged
from .errors import (
    ConfigError,
    InsufficientAnchors,
    NoConvergence,
    NoCoverage,
    OutOfRange,
    RankDeficient,
    TooFewSamples,
    VanetPosError,
)
from .fit import filter_near_field, fit_poly4
from .geometry import (
    EARTH_RADIUS_M, GlobalPosition, LocalPoint, _check_latitudes, to_global
)
from .positioning import (
    Beacon,
    CalibratedPoly,
    FixSource,
    NnPositionEstimator,
    PolynomialRangeEstimator,
    PositionFix,
    SelectionPolicy,
    locate,
)

SWEEP_CSV_HEADER = (
    "rank,hidden,seed,mse_test,mse_all,maxerr_test,maxerr_all,"
    "std_test,std_all,var_test,var_all,corr_test,corr_all"
)
TRACE_CSV_HEADER = (
    "t_s,x_true_m,x_est_m,y_est_m,source,used_rsus,quality_m,abs_error_m"
)
# too little data or too few anchors, or no converged fix (else exit 2)
_EXIT_3 = (
    TooFewSamples, RankDeficient, InsufficientAnchors, NoCoverage, NoConvergence
)
HIDDEN = (1, 100)  # neurons: `estimator.hidden` and each size of `sweep --hidden`
MIN_RSU_SPACING_M = 100.0  # the least distance between any two RSUs of a layout


@dataclass(frozen=True)
class EstimatorSpec:
    kind: str  # "poly" | "nn"
    cutoff_m: float = ranged(60.0, *LENGTH_M)
    hidden: int = ranged(8, *HIDDEN)
    train_seed: int = ranged(0, *SEED)
    max_epochs: int = 1000
    learning_rate: float = 0.05
    momentum: float = 0.9
    patience: int = 50

    def __post_init__(self) -> None:
        if self.kind not in ("poly", "nn"):
            raise ValueError(
                f"estimator.kind must be 'poly' or 'nn', got {self.kind!r}"
            )
        check_ranges(self)
        self.train_config()  # checks the training fields

    def train_config(self) -> nn.TrainConfig:
        return nn.TrainConfig(
            max_epochs=self.max_epochs,
            patience=self.patience,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
        )


@dataclass(frozen=True)
class ScenarioConfig:
    layout: ch.SurveyLayout
    channel: ch.ChannelModel
    seed: int = ranged(0, *SEED)
    gps_outages: Tuple[Tuple[float, float], ...] = ()
    origin: GlobalPosition = GlobalPosition(0.0, 0.0, 0.0)
    estimator: Optional[EstimatorSpec] = None
    policy: SelectionPolicy = SelectionPolicy()

    def __post_init__(self) -> None:
        check_ranges(self)
        _check_latitudes(self.origin)  # the local frame's own rule
        altitude = self.origin.altitude_m  # `to_global` adds a point's z_m to it
        if not COORD_M[0] <= altitude <= COORD_M[1]:
            raise OutOfRange(
                f"origin.altitude_m must be in {list(COORD_M)}, got {altitude!r}"
            )
        # farther along x than half a turn of longitude, the frame's
        # antimeridian wrap would move a point to the other side
        lat = self.origin.latitude_deg
        half_turn_m = math.pi * EARTH_RADIUS_M * math.cos(math.radians(lat))
        if max(abs(self.layout.start_m), abs(self.layout.end_m)) > half_turn_m:
            raise ValueError(
                f"layout [{self.layout.start_m}, {self.layout.end_m}] m reaches "
                f"past half a turn of longitude, {half_turn_m:.1f} m from the "
                f"origin at latitude {lat}"
            )
        for lo, hi in self.gps_outages:
            if lo > hi:
                raise ValueError(f"outage [{lo}, {hi}] starts after it ends")
            if lo < self.layout.start_m or hi > self.layout.end_m:
                raise ValueError(
                    f"outage [{lo}, {hi}] outside survey range "
                    f"[{self.layout.start_m}, {self.layout.end_m}]"
                )
        seen = set()
        for rsu in self.layout.rsus:
            if rsu.id in seen:
                raise ValueError(f"duplicate RSU id {rsu.id!r}")
            seen.add(rsu.id)
        for a, b in itertools.combinations(self.layout.rsus, 2):
            d = math.dist((a.x_m, a.y_m, a.z_m), (b.x_m, b.y_m, b.z_m))
            if d < MIN_RSU_SPACING_M:
                raise ValueError(
                    f"RSUs {a.id} and {b.id} are {d:.1f} m apart; policy requires "
                    f">= {MIN_RSU_SPACING_M} m"
                )


# the JSON types each scalar annotation accepts; bool is never a number
_JSON_TYPES = {float: (int, float), int: (int,), str: (str,)}
# resolving a dataclass's string annotations is costly: once per class
_field_types = functools.lru_cache(maxsize=None)(get_type_hints)


def _check_section(section, context: str, allowed, required) -> None:
    if not isinstance(section, dict):
        raise ConfigError(
            f"{context} must be an object, got {type(section).__name__}"
        )
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {sorted(unknown)}")
    missing = [k for k in required if k not in section]
    if missing:
        raise ConfigError(f"{context} missing key(s): {missing}")


def _build(cls, section, context: str, base=None, **given):
    """Build the dataclass `cls` from the config object `section`.

    Every key of `section` names a field of `cls` that `given` (fields the
    caller built from elsewhere) does not fill; fields without a default
    are required unless `base`, an instance of `cls`, supplies the values
    of absent keys. Values are checked against the field annotations by
    `_value`, value ranges by the dataclass, which `where` names.
    """
    own = [f for f in fields(cls) if f.name not in given]
    required = [f.name for f in own if f.default is MISSING and base is None]
    _check_section(section, context, [f.name for f in own], required)
    hints = _field_types(cls)
    values = dict(given)
    for f in own:
        if f.name in section:
            where = f"{context}.{f.name}"
            values[f.name] = _value(hints[f.name], section[f.name], where, f.default)
        elif base is not None:
            values[f.name] = getattr(base, f.name)
    try:
        return cls(**values)
    except OutOfRange as e:
        raise ConfigError(f"{context}.{e}") from e


def _value(kind, value, where: str, default=MISSING):
    """Check one config value against the annotation `kind` and convert it.

    A scalar must be exactly its JSON type (a float field also takes an
    int, stored as a float) and a float must be finite. A dataclass is built
    from a nested object (absent keys keep the values of the field's
    default, if it has one), and a list or tuple from a JSON list.
    """
    if kind in _JSON_TYPES:
        if type(value) not in _JSON_TYPES[kind]:
            raise ConfigError(f"{where} must be {kind.__name__}, got {value!r}")
        try:
            converted = kind(value)
        except OverflowError:  # an int beyond the float range
            converted = math.inf
        if kind is float and not math.isfinite(converted):
            raise ConfigError(f"{where} must be finite, got {value!r}")
        return converted
    if is_dataclass(kind):
        return _build(kind, value, where, None if default is MISSING else default)
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    container, args = get_origin(kind), get_args(kind)
    if container is list or args[-1] is Ellipsis:
        args = args[:1] * len(value)
    elif len(value) != len(args):
        raise ConfigError(f"{where} must list {len(args)} values, got {value!r}")
    return container(
        _value(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value))
    )


def load_scenario(path: str) -> ScenarioConfig:
    """Parse and validate a scenario config JSON; unknown keys are errors.

    Every section goes through `_build`. Every malformed value, down to the
    dataclass validators and the deployment rules of `ScenarioConfig`,
    raises ConfigError; a path that cannot be read raises its OSError, as
    any other unread path does.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as e:  # a JSONDecodeError, or an int past str limits
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    try:
        config = _parse_scenario(raw)
    except ConfigError:
        raise
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{path}: {e}") from e
    return config


def _parse_scenario(raw) -> ScenarioConfig:
    _check_section(
        raw, "config", ("layout", "channel", "scenario", "estimator"),
        ("layout", "channel"),
    )
    return _build(
        ScenarioConfig,
        raw.get("scenario", {}),
        "scenario",
        layout=_build(ch.SurveyLayout, raw["layout"], "layout"),
        channel=_build(ch.ChannelModel, raw["channel"], "channel"),
        estimator=(
            _build(EstimatorSpec, raw["estimator"], "estimator")
            if "estimator" in raw
            else None
        ),
    )


def calibrate_polynomial(
    layout: ch.SurveyLayout,
    model: ch.ChannelModel,
    cutoff_m: float,
    seed: int,
) -> PolynomialRangeEstimator:
    """Fit one quartic per RSU, in id order, from a fresh calibration survey.

    Each fit reads its RSU's RSS and distance columns of the survey grid.
    A failed fit raises its error, named by the RSU.
    """
    survey = ch.generate_survey(layout, model, seed)
    by_rsu: Dict[str, CalibratedPoly] = {}
    for rsu, rss, dist in zip(survey.rsus, survey.rss_dbm.T, survey.distance_m.T):
        try:
            kept = filter_near_field(rss, dist, cutoff_m)
            poly, report = fit_poly4(kept)
        except VanetPosError as e:  # name the RSU; `main` picks the code
            raise type(e)(f"RSU {rsu.id}: {e}") from e
        by_rsu[rsu.id] = CalibratedPoly(
            poly=poly,
            rss_min_dbm=kept.rss_min,
            rss_max_dbm=kept.rss_max,
            rmse_m=report.rmse,
        )
    return PolynomialRangeEstimator(by_rsu=by_rsu)


def calibrate_nn(
    layout: ch.SurveyLayout,
    model: ch.ChannelModel,
    spec: EstimatorSpec,
    seed: int,
) -> NnPositionEstimator:
    """Train the direct position network on a fresh calibration survey."""
    survey = ch.generate_survey(layout, model, seed=seed)
    dataset = nn.dataset_from_survey(survey)
    splits = nn.split_dataset(dataset.n, spec.train_seed)
    trained, _ = nn.train(
        nn.init_mlp(dataset.inputs.shape[1], spec.hidden, spec.train_seed),
        dataset,
        splits,
        spec.train_config(),
    )
    pred = nn.forward_batch(trained, dataset.inputs)
    rmse = float(np.sqrt(np.mean((pred - dataset.targets) ** 2)))
    return NnPositionEstimator(
        model=trained,
        rsu_order=dataset.feature_names,
        layout=layout,
        rmse_m=rmse,
        missing_rss_dbm=model.rss_floor_dbm,
    )


def cmd_survey(config_path: str, seed: Optional[int], out_path: str) -> int:
    config = load_scenario(config_path)
    survey = ch.generate_survey(
        config.layout, config.channel, seed if seed is not None else config.seed
    )
    n = ch.write_survey_csv(survey, out_path)
    print(f"wrote {n} rows to {out_path}")
    return 0


def cmd_fit(
    in_csv: str, rsu_id: str, min_distance_m: float, report_path: str
) -> int:
    mine = [s for s in ch.read_survey_csv(in_csv) if s.rsu_id == rsu_id]
    if not mine:
        raise VanetPosError(f"RSU {rsu_id!r} not present in {in_csv}")
    poly, report = fit_poly4(filter_near_field(mine, min_distance_m))
    payload = {
        "p1": poly.p1,
        "p2": poly.p2,
        "p3": poly.p3,
        "p4": poly.p4,
        "p5": poly.p5,
        "sse": report.sse,
        "r_square": report.r_square,
        "adj_r_square": report.adj_r_square,
        "rmse": report.rmse,
        "n": report.n,
    }
    Path(report_path).write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"fit {rsu_id}: n={report.n} rmse={report.rmse:.4f} "
        f"r_square={report.r_square:.6f} -> {report_path}"
    )
    return 0


def _parse_hidden_range(text: str) -> Tuple[int, ...]:
    try:
        lo_s, hi_s = text.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as e:
        raise ConfigError(f"--hidden must look like LO..HI, got {text!r}") from e
    if lo > hi:
        raise ConfigError(f"--hidden range {text!r}: LO exceeds HI")
    if not (HIDDEN[0] <= lo and hi <= HIDDEN[1]):
        raise ConfigError(f"--hidden range {text!r} must lie in {list(HIDDEN)}")
    return tuple(range(lo, hi + 1))


def _sweep_row_to_csv(row: nn.SweepRow) -> str:
    t, a = row.test, row.all
    vals = [
        t.mse, a.mse, t.max_abs_error, a.max_abs_error,
        t.std_dev, a.std_dev, t.variance, a.variance,
        t.correlation, a.correlation,
    ]
    joined = ",".join(f"{v:.4f}" for v in vals)
    return f"{row.rank},{row.hidden},{row.seed},{joined}"


def cmd_sweep(
    in_csv: str, hidden_range: Tuple[int, ...], n_seeds: int, out_csv: str
) -> int:
    dataset = nn.dataset_from_columns(ch.read_survey_csv(in_csv))
    config = nn.SweepConfig(
        hidden_sizes=hidden_range,
        seeds=tuple(range(n_seeds)),
        train=nn.TrainConfig(),
    )
    rows = nn.sweep(dataset, config)
    lines = [SWEEP_CSV_HEADER] + [_sweep_row_to_csv(r) for r in rows]
    Path(out_csv).write_text("\n".join(lines) + "\n")
    print(f"swept {len(rows)} models -> {out_csv}")
    print(SWEEP_CSV_HEADER)
    for row in rows[:5]:
        print(_sweep_row_to_csv(row))
    return 0


def drive(config: ScenarioConfig, seed: int) -> Iterator[Tuple[float, PositionFix]]:
    """Run the simulated drive: one `(x_m, fix)` pair per survey position.

    The estimator is calibrated on a fresh survey drawn from `seed`. A
    position inside an outage gets an RSS fix, any other the DGPS truth;
    each fix is the next one's hint. A step without a fix raises its error,
    named by the step's x.
    """
    if config.estimator is None:
        raise ConfigError("drive needs an estimator section in the config")
    if config.estimator.kind == "poly":
        estimator = calibrate_polynomial(
            config.layout, config.channel, config.estimator.cutoff_m, seed
        )
    else:
        estimator = calibrate_nn(config.layout, config.channel, config.estimator, seed)
    # the beacons are one more survey of the track, drawn from a stream
    # independent of the calibration survey
    grid = ch.generate_survey(config.layout, config.channel, [seed, 1])
    # below the receiver sensitivity a beacon is lost
    heard_dbm = config.channel.rss_floor_dbm + 1e-9
    hint: Optional[LocalPoint] = None
    in_outage = np.zeros(grid.x_m.shape, dtype=bool)
    for lo, hi in config.gps_outages:
        in_outage |= (lo <= grid.x_m) & (grid.x_m <= hi)

    for x, rss, dgps_ok in zip(
        grid.x_m.tolist(), grid.rss_dbm.tolist(), (~in_outage).tolist()
    ):
        beacons = () if dgps_ok else [  # a DGPS fix reads no beacon
            Beacon(rsu, r)
            for rsu, r in zip(grid.rsus, rss)
            if r > heard_dbm
        ]
        try:
            dgps = (  # the truth, where the receiver has a DGPS fix
                to_global(config.layout.vehicle_point(x), config.origin)
                if dgps_ok
                else None
            )
            fix = locate(
                dgps, beacons, estimator, config.policy, config.origin, hint=hint
            )
        except VanetPosError as e:  # name the step; `main` picks the code
            raise type(e)(f"at x={x}: {e}") from e
        hint = fix.local_position
        yield x, fix


def cmd_drive(config_path: str, out_csv: str, seed: Optional[int]) -> int:
    config = load_scenario(config_path)
    lines = [TRACE_CSV_HEADER]
    all_errors: List[float] = []
    outage_errors: List[float] = []
    steps = drive(config, seed if seed is not None else config.seed)
    for step, (x, fix) in enumerate(steps):
        est = fix.local_position
        # the summary averages the errors as the trace writes them
        err = round(abs(est.x_m - x), 4)
        lines.append(
            f"{step},{x:.4f},{est.x_m:.4f},{est.y_m:.4f},{fix.source.value},"
            f"{';'.join(fix.used_rsu_ids)},{fix.quality_m:.4f},{err:.4f}"
        )
        all_errors.append(err)
        if fix.source is FixSource.RSS:  # DGPS is lost exactly in an outage
            outage_errors.append(err)

    Path(out_csv).write_text("\n".join(lines) + "\n")
    print(f"wrote {len(all_errors)} trace rows to {out_csv}")
    print(
        f"overall: mean_abs_error_m={np.mean(all_errors):.9f} "
        f"max_abs_error_m={np.max(all_errors):.9f}"
    )
    if outage_errors:
        print(
            f"in_outage: rows={len(outage_errors)} "
            f"mean_abs_error_m={np.mean(outage_errors):.9f} "
            f"max_abs_error_m={np.max(outage_errors):.9f}"
        )
    else:
        print("in_outage: rows=0")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse variant honoring the exit-code contract (1 on usage)."""

    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def number_in(kind, bounds):
    """argparse type: a `kind` number in [lo, hi] = `bounds`, else a usage error."""

    def parse(text: str):
        value = kind(text)
        if not bounds[0] <= value <= bounds[1]:
            raise argparse.ArgumentTypeError(f"must be in {list(bounds)}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vanetpos", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_survey = sub.add_parser("survey", help="generate a synthetic RSS survey CSV")
    p_survey.add_argument("--config", required=True, help="scenario config JSON")
    p_survey.add_argument("--seed", type=number_in(int, SEED), default=None)
    p_survey.add_argument("--out", required=True, help="output CSV path")

    p_fit = sub.add_parser("fit", help="calibrate the quartic for one RSU")
    p_fit.add_argument("in_csv", help="survey CSV input")
    p_fit.add_argument("--rsu", required=True, help="RSU id to calibrate")
    p_fit.add_argument(
        "--min-distance", type=number_in(float, LENGTH_M), default=60.0,
        help="near-field cutoff in meters (default 60)",
    )
    p_fit.add_argument("--out", required=True, help="fit report JSON path")

    p_sweep = sub.add_parser("sweep", help="hidden-size x seed model selection")
    p_sweep.add_argument("in_csv", help="survey CSV input")
    p_sweep.add_argument(
        "--hidden", default="2..10", help="hidden-size range LO..HI (default 2..10)"
    )
    p_sweep.add_argument(
        "--seeds", type=number_in(int, (0, 100)), default=20,
        help="number of seeds, at most 100 (default 20)",
    )
    p_sweep.add_argument("--out", required=True, help="ranked table CSV path")

    p_drive = sub.add_parser("drive", help="simulated drive with DGPS outages")
    p_drive.add_argument("--config", required=True, help="scenario config JSON")
    p_drive.add_argument("--seed", type=number_in(int, SEED), default=None)
    p_drive.add_argument("--out", required=True, help="trace CSV path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command: the only place an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        if not Path(args.out).parent.is_dir():  # fail before any work
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
        # by global name, so a wrapper patched over a command sees the call
        if args.command == "survey":
            return cmd_survey(args.config, args.seed, args.out)
        if args.command == "fit":
            return cmd_fit(args.in_csv, args.rsu, args.min_distance, args.out)
        if args.command == "sweep":
            return cmd_sweep(
                args.in_csv, _parse_hidden_range(args.hidden), args.seeds, args.out
            )
        return cmd_drive(args.config, args.out, args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (VanetPosError, OSError) as e:  # OSError: a path not read or written
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, _EXIT_3) else 2


if __name__ == "__main__":
    sys.exit(main())
