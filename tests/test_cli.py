import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vanetpos import channel, cli, fit, nn, positioning
from vanetpos.cli import load_scenario, main
from vanetpos.errors import ConfigError, VanetPosError
from vanetpos.positioning import FixSource

from helpers import reference_select_rsus

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def exp2_csv(tmp_path, capsys):
    out = tmp_path / "exp2.csv"
    code, _, _ = run(
        ["survey", "--config", CONFIGS / "exp2.json", "--out", out], capsys
    )
    assert code == 0
    return out


class TestSurveyCommand:
    def test_row_count_and_header(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, stdout, _ = run(
            ["survey", "--config", CONFIGS / "exp2.json", "--out", out], capsys
        )
        assert code == 0
        assert "123" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "x_m,rsu_id,rss_dbm,true_distance_m,channel"
        assert len(lines) == 124

    def test_cochannel_config_same_schema(self, tmp_path, capsys):
        out = tmp_path / "s1.csv"
        code, _, _ = run(
            ["survey", "--config", CONFIGS / "exp1.json", "--out", out], capsys
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x_m,rsu_id,rss_dbm,true_distance_m,channel"
        assert all(l.split(",")[4] == "6" for l in lines[1:])

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["survey", "--config", CONFIGS / "exp2.json", "--seed", 5, "--out", a], capsys)
        run(["survey", "--config", CONFIGS / "exp2.json", "--seed", 5, "--out", b], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_overrides(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["survey", "--config", CONFIGS / "exp2.json", "--seed", 5, "--out", a], capsys)
        run(["survey", "--config", CONFIGS / "exp2.json", "--seed", 6, "--out", b], capsys)
        assert a.read_bytes() != b.read_bytes()

    def test_exp2_survey_bytes_pinned(self, exp2_csv):
        # the same digest the benchmark checks
        assert hashlib.sha256(exp2_csv.read_bytes()).hexdigest() == (
            "08ec779303b34d4fa34901c10249b1509a33614f70599238ca6d523ee73721fc"
        )

    def test_exp1_survey_bytes_pinned(self, tmp_path, capsys):
        # co-channel RSUs and floor-clamped cells, byte for byte
        out = tmp_path / "exp1.csv"
        code, _, _ = run(
            ["survey", "--config", CONFIGS / "exp1.json", "--out", out], capsys
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a8d6719e5ff1c40c2fb96c307d055d42ea9b6242396ab89f9f85127a83fd3657"
        )

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            ["survey", "--config", tmp_path / "nope.json", "--out", tmp_path / "x.csv"],
            capsys,
        )
        assert code == 2

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "exp2.json").read_text())
        cfg["channel"]["typo_key"] = 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code, _, err = run(
            ["survey", "--config", bad, "--out", tmp_path / "x.csv"], capsys
        )
        assert code == 2
        assert "typo_key" in err

    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            (("layout",), "step_m", 0, "step_m"),
            (("channel",), "far_sigma_db", -0.5, "sigma"),
            (("layout", "rsus", 0), "x_m", "east", "x_m"),
            (("scenario", "policy"), "min_rsu_count", 1, "min_rsu_count"),
            ((), "channel", [], "channel"),
            ((), "scenario", [], "scenario"),
            ((), "estimator", [], "estimator"),
            (("layout",), "rsus", {"id": "ap0", "x_m": 0.0, "channel": 1},
             "layout.rsus must be a list"),
            (("layout", "rsus", 1), "id", "ap0", "duplicate RSU id 'ap0'"),
            (("layout", "rsus", 1), "x_m", 20.0,
             "RSUs ap0 and ap150 are 20.0 m apart; policy requires >= 100.0 m"),
            (("estimator",), "hidden", 0, "hidden"),
            (("estimator",), "patience", 0, "patience"),
            (("estimator",), "hidden", 2.7, "hidden"),
            (("layout", "rsus", 0), "beacon_interval_ms", 100.0, "beacon_interval_ms"),
            # the channel rule is fixed: a config that still sets it is stale
            (("scenario", "policy"), "require_distinct_channels", True,
             "config error: unknown key(s) in scenario.policy: "
             "['require_distinct_channels']"),
            (("scenario", "policy"), "require_distinct_channels", False,
             "config error: unknown key(s) in scenario.policy: "
             "['require_distinct_channels']"),
            (("channel",), "far_sigma_db", float("nan"), "far_sigma_db"),
            (("channel",), "far_sigma_db", 10**400, "far_sigma_db"),
            (("scenario",), "seed", -1, "scenario.seed"),
            (("estimator",), "train_seed", -1, "estimator.train_seed"),
            (("estimator",), "cutoff_m", -5, "estimator.cutoff_m"),
            (("scenario", "origin"), "latitude_deg", 89.5, "latitude"),
            (("scenario", "policy"), "near_field_m", -5, "near_field_m"),
            # the spacing rule is fixed at 100 m: a config that still sets it
            # is stale
            (("scenario", "policy"), "min_rsu_spacing_m", 100.0,
             "config error: unknown key(s) in scenario.policy: "
             "['min_rsu_spacing_m']"),
            # an id is a survey CSV field and an entry of a trace's used_rsus
            (("layout", "rsus", 0), "id", "ap,0", "RSU id 'ap,0'"),
            (("layout", "rsus", 0), "id", "ap;0", "RSU id 'ap;0'"),
            (("layout", "rsus", 0), "id", "", "RSU id ''"),
            (("layout", "rsus", 0), "id", "ap\n0", "RSU id 'ap\\n0'"),
            (("layout", "rsus", 0), "id", "ap\r0", "RSU id 'ap\\r0'"),
            # the domain rule, as for every other ranged number
            (("layout", "rsus", 1), "channel", 14,
             "config error: layout.rsus[1].channel must be in [1, 13], got 14"),
            (("layout", "rsus", 0), "channel", 0,
             "config error: layout.rsus[0].channel must be in [1, 13], got 0"),
        ],
        ids=[
            "zero-step", "negative-sigma", "non-numeric-x", "one-rsu-policy",
            "channel-not-object", "scenario-not-object", "estimator-not-object",
            "rsus-not-list", "duplicate-rsu-id", "rsus-20m-apart", "zero-hidden",
            "zero-patience", "fractional-hidden",
            "removed-beacon-interval", "removed-channel-rule-true",
            "removed-channel-rule-false", "nan-sigma", "huge-int-sigma",
            "negative-seed", "negative-train-seed", "negative-cutoff",
            "polar-origin", "negative-policy-near-field", "removed-rsu-spacing",
            "comma-rsu-id", "semicolon-rsu-id", "empty-rsu-id", "newline-rsu-id",
            "carriage-return-rsu-id", "channel-14", "channel-0",
        ],
    )
    def test_malformed_value_exit_2_one_line(
        self, section, key, value, named, tmp_path, capsys
    ):
        cfg = json.loads((CONFIGS / "drive.json").read_text())
        target = cfg
        for part in section:
            target = target[part]
        target[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code, _, err = run(
            ["survey", "--config", bad, "--out", tmp_path / "x.csv"], capsys
        )
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert named in lines[0]

    def test_int_past_str_digit_limit_exit_2_one_line(self, tmp_path, capsys):
        # json refuses to parse an int literal of more than 4,300 digits
        text = (CONFIGS / "drive.json").read_text()
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace('"far_sigma_db": 0.2', '"far_sigma_db": 1' + "0" * 4999))
        assert bad.read_text() != text
        code, _, err = run(
            ["survey", "--config", bad, "--out", tmp_path / "x.csv"], capsys
        )
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["survey"])  # missing required flags
        assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["survey", "--config", CONFIGS / "drive.json", "--seed", -1],
        ["drive", "--config", CONFIGS / "drive.json", "--seed", -1],
        ["sweep", "in.csv", "--seeds", -2],
    ],
    ids=["survey-seed", "drive-seed", "sweep-seeds"],
)
def test_negative_seed_flag_exit_1_one_line(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv] + ["--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    errors = [l for l in err.splitlines() if "error:" in l]
    assert len(errors) == 1 and "must be in [0, " in errors[0]
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["sweep", "in.csv", "--hidden", "1..100000000"], 2,
         "config error: --hidden range '1..100000000' must lie in [1, 100]"),
        (["sweep", "in.csv", "--hidden", "0..3"], 2,
         "config error: --hidden range '0..3' must lie in [1, 100]"),
        (["sweep", "in.csv", "--hidden", "3..2"], 2,
         "config error: --hidden range '3..2': LO exceeds HI"),
        (["sweep", "in.csv", "--seeds", 101], 1,
         "vanetpos sweep: error: argument --seeds: must be in [0, 100], got 101"),
        (["fit", "in.csv", "--rsu", "ap0", "--min-distance", "1e7"], 1,
         "vanetpos fit: error: argument --min-distance: must be in "
         "[0.0, 1000000.0], got 1e7"),
        (["drive", "--config", "c.json", "--seed", 2**64], 1,
         "vanetpos drive: error: argument --seed: must be in "
         f"[0, {2**64 - 1}], got {2**64}"),
    ],
    ids=[
        "hidden-huge", "hidden-zero", "hidden-reversed", "seeds", "min-distance",
        "seed",
    ],
)
def test_flag_outside_its_range_rejected_at_parse_time(
    argv, code, message, tmp_path, capsys
):
    # `--hidden 1..100000000` built a 1e8-entry tuple, then trained it; the
    # input paths do not exist, so any work would fail another way
    out = tmp_path / "x.csv"
    try:
        exit_code = main([str(a) for a in argv] + ["--out", str(out)])
    except SystemExit as usage:
        exit_code = usage.code
    assert exit_code == code
    err = capsys.readouterr().err
    assert [l for l in err.splitlines() if "error:" in l] == [message]
    assert not out.exists()


def poison_survey(src, dst, x, rsu_id, column, value):
    """Copy survey CSV `src` to `dst` with one field of one cell replaced.

    Returns the line number of the changed row.
    """
    lines = src.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if float(parts[0]) == x and parts[1] == rsu_id:
            parts[column] = value
            lines[i] = ",".join(parts)
            dst.write_text("\n".join(lines) + "\n")
            return i + 1
    raise AssertionError(f"no cell ({x}, {rsu_id})")


@pytest.mark.parametrize(
    "cell, argv",
    [
        # sweep trained on a nan and wrote an all-nan table (exit 0)
        ((100.0, "ap100", 2, "nan"), ["sweep", "--hidden", "2..2", "--seeds", 1]),
        # a far-field nan reached the quartic's SVD (exit 1, traceback)
        ((0.0, "ap200", 2, "nan"), ["fit", "--rsu", "ap200"]),
        # an infinite distance made a non-finite coefficient (exit 1)
        ((0.0, "ap0", 3, "inf"), ["fit", "--rsu", "ap0"]),
    ],
    ids=["sweep-nan-rss", "fit-nan-rss", "fit-inf-distance"],
)
def test_non_finite_survey_field_exit_2_one_line(
    cell, argv, exp2_csv, tmp_path, capsys
):
    bad = tmp_path / "bad.csv"
    lineno = poison_survey(exp2_csv, bad, *cell)
    out = tmp_path / "out"
    code, _, err = run([argv[0], bad, *argv[1:], "--out", out], capsys)
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}:{lineno}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        # sweep kept one of the two readings (the dataset pivot overwrote it)
        ["sweep", "--hidden", "2..2", "--seeds", 1],
        # fit fitted both: n=42 on the 41 positions
        ["fit", "--rsu", "ap0", "--min-distance", 0],
    ],
    ids=["sweep", "fit"],
)
def test_repeated_survey_cell_exit_2_one_line(argv, exp2_csv, tmp_path, capsys):
    lines = exp2_csv.read_text().splitlines()
    row = next(i for i, l in enumerate(lines) if l.split(",")[1] == "ap0")
    parts = lines[row].split(",")
    parts[2] = "-20.0000"
    lines.append(",".join(parts))
    bad = tmp_path / "dup.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code, _, err = run([argv[0], bad, *argv[1:], "--out", out], capsys)
    assert code == 2
    errors = err.strip().splitlines()
    assert len(errors) == 1
    assert errors[0].startswith(f"error: {bad}:{len(lines)}: ")
    assert f"line {row + 1}" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["survey", "--config", CONFIGS / "exp2.json", "--out", "{missing}"],
        ["fit", "{survey}", "--rsu", "ap200", "--out", "{missing}"],
        ["sweep", "{survey}", "--hidden", "2..2", "--seeds", 1, "--out", "{missing}"],
        ["drive", "--config", CONFIGS / "drive.json", "--out", "{missing}"],
        ["survey", "--config", "{dir}", "--out", "{out}"],
        ["drive", "--config", "{dir}", "--out", "{out}"],
        ["fit", "{latin1}", "--rsu", "ap200", "--out", "{out}"],
        ["sweep", "{latin1}", "--hidden", "2..2", "--seeds", 1, "--out", "{out}"],
    ],
    ids=[
        "survey-out-dir", "fit-out-dir", "sweep-out-dir", "drive-out-dir",
        "survey-config-is-dir", "drive-config-is-dir",
        "fit-not-utf8", "sweep-not-utf8",
    ],
)
def test_unreadable_or_unwritable_path_exit_2_one_line(
    argv, exp2_csv, tmp_path, capsys
):
    # an --out in a missing directory and a --config naming a directory
    # ended in a traceback (exit 1); a survey that is not UTF-8 must stay a
    # data error now that fit and sweep catch nothing themselves
    latin1 = tmp_path / "latin1.csv"
    text = exp2_csv.read_text().replace("ap200", "ap200\xe9")
    latin1.write_bytes(text.encode("latin-1"))
    paths = {
        "survey": exp2_csv, "latin1": latin1, "dir": tmp_path,
        "missing": tmp_path / "missing" / "out", "out": tmp_path / "out",
    }
    code, _, err = run([str(a).format(**paths) for a in argv], capsys)
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "drive"])
def test_out_in_missing_directory_exit_2_before_any_work(
    command, exp2_csv, tmp_path, capsys, monkeypatch
):
    # sweep trained all 180 networks, and drive calibrated and drove,
    # before the write of --out failed
    def no_work(*args, **kwargs):
        raise AssertionError("work done before --out was checked")

    monkeypatch.setattr(nn, "sweep", no_work)
    monkeypatch.setattr(cli, "calibrate_polynomial", no_work)
    out = tmp_path / "missing" / "out.csv"
    argv = {
        "sweep": ["sweep", exp2_csv, "--out", out],
        "drive": ["drive", "--config", CONFIGS / "drive.json", "--out", out],
    }[command]
    code, stdout, err = run(argv, capsys)
    assert code == 2 and stdout == ""
    assert err.splitlines() == [f"error: [Errno 2] No such file or directory: '{out}'"]
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["survey", "drive"])
def test_missing_config_exit_2_one_error_line_naming_it(command, tmp_path, capsys):
    # a missing --config gets the same `error:` line as any unread path
    config = tmp_path / "nope.json"
    code, _, err = run(
        [command, "--config", config, "--out", tmp_path / "x.csv"], capsys
    )
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [Errno 2] ")
    assert str(config) in lines[0]
    assert not (tmp_path / "x.csv").exists()


def _two_interferers(cfg):
    cfg["channel"]["interference_sigma_db"] = 1e154
    for rsu in cfg["layout"]["rsus"]:
        rsu["channel"] = 1


@pytest.mark.parametrize("estimator", ["survey", "poly", "nn"])
@pytest.mark.parametrize(
    "edit, prefix, names",
    [
        (lambda c: c["channel"].update(far_sigma_db=1e200),
         "config error: ", "channel.far_sigma_db must be in [0.0, 100.0], got 1e+200"),
        (lambda c: c["channel"].update(near_sigma_db=1e160),
         "config error: ", "channel.near_sigma_db must be in [0.0, 100.0]"),
        (lambda c: c["channel"].update(interference_sigma_db=1e200),
         "config error: ", "channel.interference_sigma_db must be in [0.0, 100.0]"),
        (_two_interferers, "config error: ",
         "channel.interference_sigma_db must be in [0.0, 100.0], got 1e+154"),
        (lambda c: c["layout"].update(lane_y_m=1e200),
         "config error: ", "layout.lane_y_m must be in [-1000000.0, 1000000.0]"),
        (lambda c: c["layout"]["rsus"][1].update(y_m=1e200),
         "config error: ", "layout.rsus[1].y_m must be in [-1000000.0, 1000000.0]"),
        (lambda c: c["layout"].update(start_m=-1e308, end_m=1e308, step_m=1e307),
         "config error: ", "layout.start_m must be in [-1000000.0, 1000000.0]"),
        # the drive exited 0: the DGPS truth's round trip through to_global
        # lost the antenna height, and RSS rows 16-29 of the trace moved
        (lambda c: c["scenario"]["origin"].update(altitude_m=1e17),
         "config error: ", "scenario.origin.altitude_m must be in "
         "[-1000000.0, 1000000.0], got 1e+17"),
    ],
    ids=["far-sigma", "near-sigma", "interference-sigma", "two-interferers",
         "lane", "rsu-offset", "span", "altitude"],
)
def test_overflowing_config_exit_2_one_line_no_file(
    edit, prefix, names, estimator, tmp_path, capsys
):
    # before these checks, each exited 1 with an OverflowError traceback, exited 0
    # after writing inf RSS or distances (with a numpy overflow warning), or
    # failed later in the fit or the network with another error
    cfg = json.loads((CONFIGS / "drive.json").read_text())
    edit(cfg)
    if estimator == "nn":
        cfg["estimator"] = {"kind": "nn"}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    command = "survey" if estimator == "survey" else "drive"
    code, stdout, err = run([command, "--config", path, "--out", out], capsys)
    assert code == 2 and stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix) and names in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("altitude_m", [-1e6, 1e6])
def test_origin_altitude_range_ends_load_one_step_outside_refused(altitude_m, tmp_path):
    cfg = json.loads((CONFIGS / "drive.json").read_text())
    path = tmp_path / "altitude.json"
    cfg["scenario"]["origin"]["altitude_m"] = altitude_m
    path.write_text(json.dumps(cfg))
    assert load_scenario(str(path)).origin.altitude_m == altitude_m
    cfg["scenario"]["origin"]["altitude_m"] = math.nextafter(altitude_m, 2 * altitude_m)
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=r"^scenario\.origin\.altitude_m must be in "):
        load_scenario(str(path))


def _numeric_keys(node, path=()):
    """The key path of every number in a parsed config (a bool is none)."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [p for k, v in items for p in _numeric_keys(v, path + (k,))]
    return [path] if type(node) in (int, float) else []


_DRIVE = json.loads((CONFIGS / "drive.json").read_text())
# every number of the shipped drive config, and the keys the nn estimator
# trains with
_EXTREME_KEYS = _numeric_keys(_DRIVE) + [
    ("estimator", k)
    for k in ("hidden", "train_seed", "max_epochs", "learning_rate", "momentum",
              "patience")
]
_NN_KEYS = _EXTREME_KEYS[-6:]


@settings(max_examples=150, deadline=None)
@given(
    key=st.sampled_from(_EXTREME_KEYS),
    value=st.sampled_from([1e307, -1e307, 1e-310, -1e-310, 0, 1e154, 1e19,
                           2**63, -(2**63)]),
    command=st.sampled_from(["survey", "drive"]),
)
# each exited 1, or exited 0 or 3 after a RuntimeWarning, before the ranges
@example(key=("layout", "rsus", 1, "y_m"), value=1e154, command="drive")
@example(key=("layout", "end_m"), value=1e19, command="survey")
@example(key=("layout", "start_m"), value=-(2**63), command="drive")
@example(key=("channel", "far_sigma_db"), value=1e154, command="drive")
@example(key=("channel", "ref_distance_m"), value=1e-310, command="survey")
@example(key=("channel", "path_loss_exponent"), value=1e307, command="drive")
@example(key=("estimator", "hidden"), value=2**63, command="drive")
@example(key=("estimator", "learning_rate"), value=1e19, command="drive")
def test_one_extreme_config_number_keeps_the_exit_contract(key, value, command):
    # exit 0, 2 or 3; one stderr line on an error; no RuntimeWarning; and no
    # non-finite number in the file written
    cfg = copy.deepcopy(_DRIVE)
    if key in _NN_KEYS:  # a short training, where a value is in range
        cfg["estimator"], command = {"kind": "nn", "max_epochs": 30}, "drive"
    target = cfg
    for part in key[:-1]:
        target = target[part]
    target[key[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "extreme.json", Path(tmp) / "out.csv"
        config.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()):
                with contextlib.redirect_stderr(err):
                    code = main([command, "--config", str(config), "--out", str(out)])
        written = out.read_text() if out.exists() else ""
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) == (code != 0)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not {"nan", "inf", "-inf"} & set(re.split("[,;\n]", written))


def _child_env():
    """The environment of a child Python that imports this tree's vanetpos."""
    paths = [os.environ.get("PYTHONPATH", ""), str(ROOT / "src")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths[::-1])))


def test_overflowing_sigma_prints_one_stderr_line_from_a_process(tmp_path):
    # far_sigma_db 1e154 reached the quartic's SVD, and LAPACK wrote its own
    # "On entry to DLASCL" lines to the process's C-level stderr, which
    # capsys does not see
    cfg = copy.deepcopy(_DRIVE)
    cfg["channel"]["far_sigma_db"] = 1e154
    config = tmp_path / "sigma.json"
    config.write_text(json.dumps(cfg))
    child = "import sys\nfrom vanetpos.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    proc = subprocess.run(
        [sys.executable, "-c", child, "drive", "--config", str(config),
         "--out", str(tmp_path / "trace.csv")],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "config error: channel.far_sigma_db must be in [0.0, 100.0], got 1e+154"
    ]


class TestFitCommand:
    def test_fit_writes_full_report(self, exp2_csv, tmp_path, capsys):
        report_path = tmp_path / "fit.json"
        code, stdout, _ = run(
            ["fit", exp2_csv, "--rsu", "ap200", "--min-distance", 60, "--out", report_path],
            capsys,
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {
            "p1", "p2", "p3", "p4", "p5",
            "sse", "r_square", "adj_r_square", "rmse", "n",
        }
        assert report["n"] == 29

    def test_cutoff_100_keeps_21_and_improves_rmse(self, exp2_csv, tmp_path, capsys):
        p60, p100 = tmp_path / "fit60.json", tmp_path / "fit100.json"
        run(["fit", exp2_csv, "--rsu", "ap200", "--min-distance", 60, "--out", p60], capsys)
        code, _, _ = run(
            ["fit", exp2_csv, "--rsu", "ap200", "--min-distance", 100, "--out", p100],
            capsys,
        )
        assert code == 0
        r60 = json.loads(p60.read_text())
        r100 = json.loads(p100.read_text())
        assert r100["n"] == 21
        assert r100["rmse"] < r60["rmse"]

    def test_missing_rsu_exit_2(self, exp2_csv, tmp_path, capsys):
        code, _, _ = run(
            ["fit", exp2_csv, "--rsu", "ap999", "--out", tmp_path / "x.json"], capsys
        )
        assert code == 2

    def test_too_few_samples_exit_3(self, exp2_csv, tmp_path, capsys):
        code, _, _ = run(
            ["fit", exp2_csv, "--rsu", "ap200", "--min-distance", 195,
             "--out", tmp_path / "x.json"],
            capsys,
        )
        assert code == 3

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,survey\n1,2,3\n")
        code, _, _ = run(
            ["fit", bad, "--rsu", "ap200", "--out", tmp_path / "x.json"], capsys
        )
        assert code == 2

    def test_four_distinct_far_field_rss_exit_3_one_line(self, tmp_path, capsys):
        rows = [channel.SURVEY_CSV_HEADER]
        # near field: distinct readings the 60 m cutoff drops
        rows += [f"{5.0 * i:.4f},ap0,{-40.0 - i:.4f},{10.0 + 5.0 * i:.4f},1" for i in range(4)]
        # far field: eight readings on four RSS values
        rows += [
            f"{100.0 + 5.0 * i:.4f},ap0,{-70.0 - i % 4:.4f},{100.0 + 5.0 * i:.4f},1"
            for i in range(8)
        ]
        survey = tmp_path / "few.csv"
        survey.write_text("\n".join(rows) + "\n")
        out = tmp_path / "x.json"
        code, _, err = run(["fit", survey, "--rsu", "ap0", "--out", out], capsys)
        assert code == 3
        assert err.splitlines() == ["error: need >= 5 distinct RSS values, got 4"]
        assert not out.exists()

    def test_five_far_field_samples_exit_3_before_fitting(
        self, tmp_path, capsys, monkeypatch
    ):
        # the quartic's n - k RMSE needs six pairs: five reached np.polyfit
        # and failed only in the goodness-of-fit report
        def no_fit(*args, **kwargs):
            raise AssertionError("np.polyfit called")

        monkeypatch.setattr(np, "polyfit", no_fit)
        rows = [channel.SURVEY_CSV_HEADER]
        rows += [f"{5.0 * i:.4f},ap0,{-40.0 - i:.4f},{10.0 + 5.0 * i:.4f},1" for i in range(4)]
        rows += [
            f"{100.0 + 5.0 * i:.4f},ap0,{-70.0 - i:.4f},{100.0 + 5.0 * i:.4f},1"
            for i in range(5)
        ]
        survey = tmp_path / "five.csv"
        survey.write_text("\n".join(rows) + "\n")
        out = tmp_path / "x.json"
        code, _, err = run(["fit", survey, "--rsu", "ap0", "--out", out], capsys)
        assert code == 3
        assert err.splitlines() == [
            "error: only 5 samples at distance >= 60.0 m (need 6)"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_min_distance_not_finite_non_negative_exit_1(
        self, value, exp2_csv, tmp_path, capsys
    ):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(exp2_csv), "--rsu", "ap200",
                  "--min-distance", value, "--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        errors = [l for l in err.splitlines() if "error:" in l]
        assert len(errors) == 1 and "--min-distance" in errors[0]
        assert "Traceback" not in err and not out.exists()


class TestSweepCommand:
    def test_small_grid(self, exp2_csv, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(
            ["sweep", exp2_csv, "--hidden", "2..3", "--seeds", 2, "--out", out], capsys
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "rank,hidden,seed,mse_test,mse_all,maxerr_test,maxerr_all,"
            "std_test,std_all,var_test,var_all,corr_test,corr_all"
        )
        assert len(lines) == 5  # header + 2x2 grid
        # printed top rows match the file
        assert lines[1] in stdout

    def test_seeds_zero_is_empty_table_minus_one_is_usage(
        self, exp2_csv, tmp_path, capsys
    ):
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(exp2_csv), "--seeds", "-1", "--out", str(out)])
        assert exc.value.code == 1 and not out.exists()
        code, _, _ = run(["sweep", exp2_csv, "--seeds", 0, "--out", out], capsys)
        assert code == 0
        assert out.read_text().splitlines() == [
            "rank,hidden,seed,mse_test,mse_all,maxerr_test,maxerr_all,"
            "std_test,std_all,var_test,var_all,corr_test,corr_all"
        ]

    def test_table_sorted(self, exp2_csv, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        run(["sweep", exp2_csv, "--hidden", "2..4", "--seeds", 2, "--out", out], capsys)
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        mse_all = [float(r[4]) for r in rows]
        assert mse_all == sorted(mse_all)

    def test_rerun_identical(self, exp2_csv, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["sweep", exp2_csv, "--hidden", "2..3", "--seeds", 2, "--out", a], capsys)
        run(["sweep", exp2_csv, "--hidden", "2..3", "--seeds", 2, "--out", b], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_exp2_sweep_bytes_pinned(self, exp2_csv, tmp_path, capsys):
        # the paper's 180-network sweep at the config's seed, byte for byte
        # (the same digest the benchmark checks)
        out = tmp_path / "sweep.csv"
        code, _, _ = run(["sweep", exp2_csv, "--out", out], capsys)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "efa0a17632f655556ec238b44681ec547534801e510a9f3c8c090d6556fa3124"
        )

    def test_exp1_sweep_bytes_pinned(self, tmp_path, capsys):
        # the sweep over the co-channel survey at the config's seed
        survey, out = tmp_path / "exp1.csv", tmp_path / "sweep.csv"
        code, _, _ = run(
            ["survey", "--config", CONFIGS / "exp1.json", "--out", survey], capsys
        )
        assert code == 0
        code, _, _ = run(["sweep", survey, "--out", out], capsys)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d3e2cba2d8be528a06de931f851d867950edac1c38f1442f2079d60a6e461a6b"
        )

    def test_survey_too_small_for_a_test_split_exit_3_before_training(
        self, exp2_csv, tmp_path, capsys, monkeypatch
    ):
        # 10 positions leave a 1-row test split (floor(0.15 * 10)); the
        # sweep must say so before it trains a single network
        header, *rows = exp2_csv.read_text().splitlines()
        xs = sorted({float(r.split(",")[0]) for r in rows})[:10]
        kept = [r for r in rows if float(r.split(",")[0]) in xs]
        small = tmp_path / "small.csv"
        small.write_text("\n".join([header, *kept]) + "\n")
        calls = []
        monkeypatch.setattr(nn, "_train_stack", lambda *a: calls.append(a))
        out = tmp_path / "x.csv"
        code, _, err = run(["sweep", small, "--out", out], capsys)
        assert code == 3
        assert err.splitlines() == [
            "error: a 2-row test split needs >= 14 positions, got 10"
        ]
        assert calls == [] and not out.exists()

    def test_bad_hidden_range_exit_2(self, exp2_csv, tmp_path, capsys):
        code, _, _ = run(
            ["sweep", exp2_csv, "--hidden", "oops", "--out", tmp_path / "x.csv"], capsys
        )
        assert code == 2

    def test_constant_rss_column_exit_2_one_line(self, tmp_path, capsys):
        # an RSU always at the -95 dBm floor leaves a degenerate input range
        lines = ["x_m,rsu_id,rss_dbm,true_distance_m,channel"]
        for x in range(0, 205, 5):
            lines.append(f"{x}.0000,ap0,{-40.0 - x / 10:.4f},{x}.0000,1")
            lines.append(f"{x}.0000,ap200,-95.0000,{200 - x}.0000,13")
        flat = tmp_path / "flat.csv"
        flat.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            ["sweep", flat, "--hidden", "2..2", "--seeds", 1,
             "--out", tmp_path / "x.csv"],
            capsys,
        )
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert lines[0].endswith("constant RSS from ap200")

    def test_missing_reading_exit_2_names_position_and_rsu(
        self, exp2_csv, tmp_path, capsys
    ):
        header, *rows = exp2_csv.read_text().splitlines()
        kept = [r for r in rows if not r.startswith("5.0000,ap100,")]
        assert len(kept) == len(rows) - 1
        holed = tmp_path / "holed.csv"
        holed.write_text("\n".join([header, *kept]) + "\n")
        out = tmp_path / "x.csv"
        code, _, err = run(["sweep", holed, "--out", out], capsys)
        assert code == 2 and not out.exists()
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "x=5.0" in lines[0] and "ap100" in lines[0]

    def test_malformed_input_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("garbage\n")
        code, _, _ = run(
            ["sweep", bad, "--out", tmp_path / "x.csv"], capsys
        )
        assert code == 2


def corridor_config(n_rsus, channel_seed, min_rsu_count=2, channels=(1, 7, 13)):
    """drive.json's channel and policy along a row of RSUs 150 m apart.

    Channels cycle through `channels`; the DGPS outage leaves 300 m of
    coverage at each end of the road.
    """
    cfg = json.loads((CONFIGS / "drive.json").read_text())
    cfg["layout"]["rsus"] = [
        {"id": f"ap{150 * i}", "x_m": 150.0 * i,
         "channel": channels[i % len(channels)], "tx_ref_rss_dbm": -35.0}
        for i in range(n_rsus)
    ]
    end_m = 150.0 * (n_rsus - 1)
    cfg["layout"]["end_m"] = end_m
    cfg["scenario"]["seed"] = channel_seed
    cfg["scenario"]["gps_outages"] = [[300.0, end_m - 300.0]]
    cfg["scenario"]["policy"]["min_rsu_count"] = min_rsu_count
    return cfg


class TestDriveCommand:
    def test_trace_schema_and_sources(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, stdout, _ = run(
            ["drive", "--config", CONFIGS / "drive.json", "--out", out], capsys
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "t_s,x_true_m,x_est_m,y_est_m,source,used_rsus,quality_m,abs_error_m"
        )
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 61  # 0..300 step 5
        for r in rows:
            x = float(r[1])
            if 80.0 <= x <= 160.0:
                assert r[4] == "RSS"
                assert r[5] != ""
            else:
                assert r[4] == "DGPS"
                assert float(r[7]) == 0.0

    def test_trace_contiguous_steps(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        run(["drive", "--config", CONFIGS / "drive.json", "--out", out], capsys)
        xs = [float(l.split(",")[1]) for l in out.read_text().splitlines()[1:]]
        assert np.allclose(np.diff(xs), 5.0)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["drive", "--config", CONFIGS / "drive.json", "--out", a], capsys)
        run(["drive", "--config", CONFIGS / "drive.json", "--out", b], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_drive_trace_bytes_pinned(self, tmp_path, capsys):
        # the same digest the benchmark checks
        out = tmp_path / "trace.csv"
        code, _, _ = run(
            ["drive", "--config", CONFIGS / "drive.json", "--out", out], capsys
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "9501ef043c0cadd450f6b89ab800f7b78df2a6c779e9f4184cd7573a845a52f7"
        )

    def test_corridor_trace_bytes_pinned(self, tmp_path, capsys):
        # 11 RSUs at channel seed 0
        rows = [
            # each fix fused from RSU pairs: the n > 3 beacon path
            ((1, 7, 13),
             "4f7e6101492ecc3c8b580acd230d6cd2d615a2bc34726cc8675cbf674a48f536"),
            # every RSS fix takes the degraded colliding-channel selection
            ((6,),
             "fb2e3bcb450e807b86abb8ef9b50b6fbcabe087e43d72a8a080a61299c80deaf"),
        ]
        for channels, digest in rows:
            path = tmp_path / "corridor.json"
            path.write_text(
                json.dumps(corridor_config(11, channel_seed=0, channels=channels))
            )
            out = tmp_path / "trace.csv"
            code, _, _ = run(["drive", "--config", path, "--out", out], capsys)
            assert code == 0, channels
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, channels

    def test_no_converged_fix_exit_3_one_line(self, tmp_path, capsys):
        # at channel seed 30 one pair of ghost-beacon range circles leaves
        # multilateration without a converged fix
        path = tmp_path / "corridor.json"
        path.write_text(json.dumps(corridor_config(41, channel_seed=30)))
        code, _, err = run(
            ["drive", "--config", path, "--out", tmp_path / "x.csv"], capsys
        )
        assert code == 3
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "converge" in lines[0]
        assert "at x=" in lines[0]

    def test_rank_deficient_calibration_exit_3_as_fit_does(
        self, tmp_path, capsys
    ):
        # every reading of ap3000 sits at the -95 dBm floor, so its quartic
        # is rank-deficient; drive exited 2 where fit exits 3, and drive's
        # calibration names the RSU
        cfg = json.loads((CONFIGS / "drive.json").read_text())
        cfg["layout"]["rsus"][2].update(id="ap3000", x_m=3000.0)
        cfg["channel"].update(far_sigma_db=0.0, near_sigma_db=0.0)
        path, survey = tmp_path / "far.json", tmp_path / "far.csv"
        path.write_text(json.dumps(cfg))
        code, _, _ = run(["survey", "--config", path, "--out", survey], capsys)
        assert code == 0
        out = tmp_path / "x.csv"
        msg = "need >= 5 distinct RSS values, got 1"
        for argv, line in (
            (["drive", "--config", path, "--out", out], f"error: RSU ap3000: {msg}"),
            (["fit", survey, "--rsu", "ap3000", "--out", out], f"error: {msg}"),
        ):
            code, _, err = run(argv, capsys)
            assert code == 3, argv[0]
            assert err.splitlines() == [line]
            assert not out.exists()

    def test_poly_calibration_error_names_its_rsu(self, tmp_path, capsys):
        # the road runs 250..350 m, so no reading of ap300 lies beyond the
        # 60 m cutoff, while ap0 and ap600 calibrate
        cfg = json.loads((CONFIGS / "drive.json").read_text())
        cfg["layout"].update(start_m=250.0, end_m=350.0)
        cfg["layout"]["rsus"] = [
            {"id": f"ap{x}", "x_m": float(x), "channel": c, "tx_ref_rss_dbm": -35.0}
            for x, c in ((0, 1), (300, 7), (600, 13))
        ]
        cfg["scenario"]["gps_outages"] = [[280.0, 320.0]]
        cfg["estimator"] = {"kind": "poly"}
        path, out = tmp_path / "near.json", tmp_path / "t.csv"
        path.write_text(json.dumps(cfg))
        code, stdout, err = run(["drive", "--config", path, "--out", out], capsys)
        assert (code, stdout) == (3, "")
        assert err.splitlines() == [
            "error: RSU ap300: only 0 samples at distance >= 60.0 m (need 6)"
        ]
        assert not out.exists()

    def test_calibration_and_beacons_are_one_survey_each(
        self, tmp_path, capsys, monkeypatch
    ):
        seeds = []
        draw = channel.generate_survey

        def recording(layout, model, seed):
            seeds.append(seed)
            return draw(layout, model, seed)

        monkeypatch.setattr(channel, "generate_survey", recording)
        config = CONFIGS / "drive.json"
        code, _, _ = run(["drive", "--config", config, "--out", tmp_path / "t.csv"], capsys)
        assert code == 0
        seed = load_scenario(str(config)).seed
        assert seeds == [seed, [seed, 1]]

    def test_calibration_filters_each_rsu_column_once_in_id_order(
        self, tmp_path, monkeypatch
    ):
        # ids sort as ap0, ap1050, ap1200, ap150, ...: not in x order
        path = tmp_path / "corridor.json"
        path.write_text(json.dumps(corridor_config(11, channel_seed=0)))
        config = load_scenario(str(path))
        calls = []
        real = cli.filter_near_field

        def recording(rss_dbm, distance_m, cutoff_m):
            calls.append((rss_dbm, distance_m, cutoff_m))
            return real(rss_dbm, distance_m, cutoff_m)

        monkeypatch.setattr(cli, "filter_near_field", recording)
        est = cli.calibrate_polynomial(
            config.layout, config.channel, 60.0, config.seed
        )
        survey = channel.generate_survey(config.layout, config.channel, config.seed)
        ids = sorted(r.id for r in config.layout.rsus)
        assert survey.rsu_ids() == list(est.by_rsu) == ids
        xs = survey.x_m.tolist()
        assert xs == sorted(set(xs))
        assert len(calls) == len(ids)
        for j, (rss_dbm, distance_m, cutoff_m) in enumerate(calls):
            assert cutoff_m == 60.0
            for name, got in (("rss_dbm", rss_dbm), ("distance_m", distance_m)):
                column = getattr(survey, name)[:, j].tolist()
                got = np.asarray(got).tolist()
                assert [v.hex() for v in got] == [v.hex() for v in column], name

    def test_summary_matches_independent_recomputation(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        _, stdout, _ = run(
            ["drive", "--config", CONFIGS / "drive.json", "--out", out], capsys
        )
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        errs = [float(r[7]) for r in rows]
        outage = [
            float(r[7]) for r in rows if 80.0 <= float(r[1]) <= 160.0
        ]
        # stdout has overall then in_outage lines; recover both pairs
        means = re.findall(r"mean_abs_error_m=([0-9.]+)", stdout)
        maxes = re.findall(r"max_abs_error_m=([0-9.]+)", stdout)
        assert abs(float(means[0]) - np.mean(errs)) < 1e-9
        assert abs(float(maxes[0]) - np.max(errs)) < 1e-9
        assert abs(float(means[1]) - np.mean(outage)) < 1e-9
        assert abs(float(maxes[1]) - np.max(outage)) < 1e-9

    def test_no_outage_scenario_is_all_dgps(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "drive.json").read_text())
        cfg["scenario"]["gps_outages"] = []
        path = tmp_path / "no_outage.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "trace.csv"
        code, _, _ = run(["drive", "--config", path, "--out", out], capsys)
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert all(r[4] == "DGPS" for r in rows)
        assert all(float(r[7]) == 0.0 for r in rows)

    def test_drive_yields_each_fix_and_hints_the_next_with_it(
        self, tmp_path, capsys, monkeypatch
    ):
        config = load_scenario(str(CONFIGS / "drive.json"))
        hints, fixes, heard = [], [], []
        real = cli.locate

        def recording(*args, hint):
            hints.append(hint)
            heard.append(args[1])
            fixes.append(real(*args, hint=hint))
            return fixes[-1]

        monkeypatch.setattr(cli, "locate", recording)
        monkeypatch.chdir(tmp_path)
        steps = list(cli.drive(config, config.seed))
        assert [x for x, _ in steps] == config.layout.positions().tolist()
        assert [fix for _, fix in steps] == fixes
        assert hints[0] is None
        assert all(h is f.local_position for h, f in zip(hints[1:], fixes))
        sources = [
            FixSource.RSS
            if any(lo <= x <= hi for lo, hi in config.gps_outages)
            else FixSource.DGPS
            for x, _ in steps
        ]
        assert [fix.source for _, fix in steps] == sources
        assert set(sources) == {FixSource.RSS, FixSource.DGPS}
        # a DGPS step gets no beacons; an RSS step gets every reading above
        # the floor, one per RSU in id order
        grid = channel.generate_survey(config.layout, config.channel, [config.seed, 1])
        floor = config.channel.rss_floor_dbm + 1e-9
        rsus = sorted(config.layout.rsus, key=lambda r: r.id)
        for source, beacons, row in zip(sources, heard, grid.rss_dbm.tolist()):
            expected = [
                positioning.Beacon(rsu=rsu, rss_dbm=r)
                for rsu, r in zip(rsus, row)
                if r > floor
            ] if source is FixSource.RSS else []
            assert list(beacons) == expected
        assert any(len(b) == len(rsus) for b in heard)
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr() == ("", "")

    def test_polar_dgps_step_exit_2_named_by_its_x(self, tmp_path, capsys):
        # the origin passes the 89 degree rule, but the lane's 7 m offset
        # carries the first DGPS truth past it
        cfg = json.loads((CONFIGS / "drive.json").read_text())
        cfg["scenario"]["origin"]["latitude_deg"] = 88.99999
        path = tmp_path / "polar.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "x.csv"
        code, _, err = run(["drive", "--config", path, "--out", out], capsys)
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: at x=0.0:"), lines
        assert not out.exists()

    @pytest.mark.parametrize("latitude", [0.0, 60.0])
    def test_drive_across_the_antimeridian_matches_the_shipped_trace(
        self, latitude, tmp_path, capsys
    ):
        # from 179.999 degrees east the track crosses 180 after 111 m at the
        # equator and after 56 m at 60 degrees; the local frame is the same
        cfg = json.loads((CONFIGS / "drive.json").read_text())
        cfg["scenario"]["origin"].update(latitude_deg=latitude, longitude_deg=179.999)
        path = tmp_path / "antimeridian.json"
        path.write_text(json.dumps(cfg))
        shipped, crossing = tmp_path / "shipped.csv", tmp_path / "crossing.csv"
        run(["drive", "--config", CONFIGS / "drive.json", "--out", shipped], capsys)
        code, _, err = run(["drive", "--config", path, "--out", crossing], capsys)
        assert (code, err) == (0, "")
        assert crossing.read_bytes() == shipped.read_bytes()

    def test_layout_past_half_a_turn_of_longitude_exit_2_no_file(
        self, tmp_path, capsys
    ):
        # half a turn of longitude is 384 km at 88.9 degrees: the wrap would
        # carry the DGPS rows beyond it to the far side of the origin
        cfg = json.loads((CONFIGS / "drive.json").read_text())
        cfg["scenario"]["origin"]["latitude_deg"] = 88.9
        cfg["layout"].update(end_m=500_000.0, step_m=5_000.0)
        path = tmp_path / "far.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "x.csv"
        code, stdout, err = run(["drive", "--config", path, "--out", out], capsys)
        assert code == 2 and stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:"), lines
        assert "past half a turn of longitude" in lines[0]
        assert not out.exists()

    @staticmethod
    def steps_and_ranges(config, monkeypatch):
        """Every (x, fix) of a drive, its error if one ends it, and the
        number of `rss_to_range` calls."""
        calls = []
        real = positioning.rss_to_range

        def counting(cal, rss_dbm):
            calls.append(rss_dbm)
            return real(cal, rss_dbm)

        steps, error = [], None
        with monkeypatch.context() as m:
            m.setattr(positioning, "rss_to_range", counting)
            try:
                for step in cli.drive(config, config.seed):
                    steps.append(step)
            except VanetPosError as e:
                error = str(e)
        return steps, error, len(calls)

    @pytest.mark.parametrize("min_rsu_count", [2, 3])
    def test_selection_ranges_fewer_beacons_for_the_same_fixes(
        self, tmp_path, monkeypatch, min_rsu_count
    ):
        heard = []  # calibrated beacons of each step that selected

        def ranging_every_beacon(beacons, is_good, policy):
            good, bad = [], []
            for b in beacons:
                (good if is_good(b) else bad).append(b)
            selection = reference_select_rsus(good, bad, policy)
            heard.append(len(beacons))
            return selection

        for channel_seed in range(3):
            cfg = corridor_config(11, channel_seed, min_rsu_count)
            path = tmp_path / "corridor.json"
            path.write_text(json.dumps(cfg))
            config = load_scenario(str(path))
            steps, error, ranged = self.steps_and_ranges(config, monkeypatch)
            heard.clear()
            with monkeypatch.context() as m:
                m.setattr(positioning, "select_rsus", ranging_every_beacon)
                expected, expected_error, _ = self.steps_and_ranges(config, monkeypatch)
            assert steps == expected and error == expected_error, channel_seed
            assert len(steps) > 0 and sum(heard) > 0
            assert ranged < sum(heard), channel_seed

    @staticmethod
    def nn_drive(tmp_path, capsys):
        """drive.json with a trained network as the estimator; the trace path."""
        cfg = json.loads((CONFIGS / "drive.json").read_text())
        cfg["estimator"] = {
            "kind": "nn", "hidden": 8, "train_seed": 3, "max_epochs": 1500,
            "learning_rate": 0.05, "momentum": 0.9, "patience": 100,
        }
        path = tmp_path / "drive_nn.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "trace.csv"
        code, _, _ = run(["drive", "--config", path, "--out", out], capsys)
        assert code == 0
        return out

    def test_nn_estimator_drive(self, tmp_path, capsys):
        out = self.nn_drive(tmp_path, capsys)
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        rss_rows = [r for r in rows if r[4] == "RSS"]
        assert rss_rows
        assert all(r[5] != "" for r in rss_rows)

    def test_nn_estimator_drive_trace_bytes_pinned(self, tmp_path, capsys):
        # train() through a CLI output, byte for byte
        out = self.nn_drive(tmp_path, capsys)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "6d0749c8205a437d55c563afed381b9705b7c571e9cb2221c751f148abada64f"
        )

    def test_outage_outside_range_exit_2(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "drive.json").read_text())
        path = tmp_path / "bad.json"
        for (lo, hi), reason in [
            ((250.0, 400.0), "outside survey range [0.0, 300.0]"),
            ((160.0, 80.0), "starts after it ends"),  # both ends inside the range
        ]:
            cfg["scenario"]["gps_outages"] = [[lo, hi]]
            path.write_text(json.dumps(cfg))
            code, _, err = run(
                ["drive", "--config", path, "--out", tmp_path / "x.csv"], capsys
            )
            assert code == 2
            assert err == f"config error: {path}: outage [{lo}, {hi}] {reason}\n"

    def test_drive_without_estimator_exit_2(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "drive.json").read_text())
        del cfg["estimator"]
        path = tmp_path / "noest.json"
        path.write_text(json.dumps(cfg))
        code, _, _ = run(
            ["drive", "--config", path, "--out", tmp_path / "x.csv"], capsys
        )
        assert code == 2


def test_rss_sample_keyword_and_positional_agree():
    keyword = channel.RssSample(
        x_m=12.5, rsu_id="ap0", rss_dbm=-61.25, true_distance_m=70.0
    )
    assert keyword == channel.RssSample(12.5, "ap0", -61.25, 70.0)


def test_drive_and_fit_do_not_import_numpy_ma(exp2_csv, tmp_path):
    # np.unique imports all of numpy.ma on its first call, about 15 ms per
    # process; the commands' own work needs none of it
    child = (
        "import sys\n"
        "from vanetpos.cli import main\n"
        "drive_json, trace, survey, report = sys.argv[1:]\n"
        "assert main(['drive', '--config', drive_json, '--out', trace]) == 0\n"
        "assert main(['fit', survey, '--rsu', 'ap200', '--out', report]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, str(CONFIGS / "drive.json"),
         str(tmp_path / "trace.csv"), str(exp2_csv), str(tmp_path / "fit.json")],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def readme_block(heading, language):
    """The first `language` code block under `heading` in the README."""
    section = (ROOT / "README.md").read_text().split(heading, 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_config_example_loads(tmp_path):
    # the README's "Config format" example, comments stripped, is a valid config
    path = tmp_path / "example.json"
    path.write_text(re.sub(r"//.*", "", readme_block("## Config format", "jsonc")))
    config = load_scenario(str(path))
    assert [r.id for r in config.layout.rsus] == ["ap0"]
    assert config.estimator is not None and config.estimator.kind == "poly"


def test_readme_library_example_runs(capsys):
    exec(readme_block("## Library use", "python"), {})
    rmse, r_square = map(float, capsys.readouterr().out.split())
    assert rmse > 0 and 0 < r_square <= 1


def test_readme_walkthrough_commands_exit_0(tmp_path, monkeypatch, capsys):
    # each `vanetpos ...` line, run from a directory holding the shipped configs
    shutil.copytree(CONFIGS, tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line)
        for line in readme_block("## CLI walkthrough", "sh").splitlines()
        if line.startswith("vanetpos ")
    ]
    assert [argv[1] for argv in commands] == ["survey", "fit", "fit", "sweep", "drive"]
    for argv in commands:
        assert run(argv[1:], capsys)[0] == 0, argv


def test_benchmark_tracer_names_resolve():
    # the benchmark's tracer skips a name the program no longer has, and
    # that name's metrics then read 0 without notice
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [*spans.SPANNED, *spans.COUNTED]
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"vanetpos.{module}"), attr)
    ]
    assert names and missing == []


def test_benchmark_calibration_hook_counts_the_grid(tmp_path):
    # the tracer wraps cli.filter_near_field and reads its first argument as
    # the RSS column: every grid cell is offered once, the far-field ones kept
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    path = tmp_path / "corridor.json"
    path.write_text(json.dumps(corridor_config(11, channel_seed=0)))
    config = load_scenario(str(path))
    args = (config.layout, config.channel, 60.0, config.seed)
    untraced = cli.calibrate_polynomial(*args)
    tracer = spans.Tracer()
    spans.install(
        tracer,
        {"channel": channel, "cli": cli, "fit": fit, "nn": nn, "positioning": positioning},
    )
    try:
        traced = cli.calibrate_polynomial(*args)
    finally:
        tracer.uninstall()
    survey = channel.generate_survey(config.layout, config.channel, config.seed)
    positions = len(config.layout.positions())
    assert tracer.counts["filter_near_field.offered"] == positions * 11
    kept = int(np.count_nonzero(survey.distance_m >= 60.0))
    assert 0 < tracer.counts["filter_near_field.kept"] == kept < positions * 11
    assert traced.by_rsu == untraced.by_rsu
