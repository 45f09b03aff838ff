"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from vanetpos import channel, cli, fit, nn, positioning  # noqa: E402

MODULES = {"channel": channel, "cli": cli, "fit": fit, "nn": nn, "positioning": positioning}


def _small(kind: str, tmp: Path) -> workloads.Workload:
    if kind == "drive":
        out = tmp / "trace.csv"
        argv = ("drive", "--config", str(REPO / "configs" / "drive.json"), "--out", str(out))
        return workloads.Workload("dense_poly", "drive", (workloads.Input(argv, out),), 61)
    survey = tmp / "survey.csv"
    assert workloads.run_cli(
        cli.main, ["survey", "--config", str(REPO / "configs" / "exp2.json"), "--out", str(survey)]
    ) == 0
    out = tmp / "sweep.csv"
    argv = ("sweep", str(survey), "--hidden", "2..3", "--seeds", "2", "--out", str(out))
    return workloads.Workload("sweep_exp2", "sweep", (workloads.Input(argv, out),), 4)


@pytest.mark.parametrize("kind", ["drive", "sweep"])
def test_traced_output_is_byte_identical(kind, tmp_path):
    wl = _small(kind, tmp_path)
    plain = run.run_child(wl, 0, False, tmp_path, 0)
    traced = run.run_child(wl, 0, True, tmp_path, 1)
    assert plain.ok and traced.ok, plain.problems + traced.problems
    assert plain.digest == traced.digest
    assert plain.stdout == traced.stdout
    assert "layers" in traced.result and "layers" not in plain.result
    assert (tmp_path / f"spans_{wl.name}.csv").stat().st_size > 0


def _bench_config():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def _last_json(args):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=REPO, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    res = _last_json(["--workload", "dense_poly", "--seed", "3", "--seconds", "0.1", "--trace", trace])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in _bench_config()[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared


def test_benchmark_json_matches_the_code():
    config = _bench_config()
    assert {w["name"]: w["why"] for w in config["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    layer_names = set(spans.layer_metrics({}, {})) | {run.OVERHEAD}
    assert {m["name"] for m in config["per_layer"]} == layer_names


def test_generator_is_deterministic_per_seed(tmp_path):
    for name in workloads.WHY:
        a = workloads.generate(name, 7, tmp_path / "a", REPO)
        b = workloads.generate(name, 7, tmp_path / "b", REPO)
        c = workloads.generate(name, 8, tmp_path / "c", REPO)
        assert a.units == b.units > 0
        assert len(a.inputs) == len(b.inputs) == len(c.inputs)
        for x, y, z in zip(a.inputs, b.inputs, c.inputs):
            # the config of a drive, the survey of a sweep
            first = Path(x.argv[2] if x.scenario else x.argv[1]).read_bytes()
            assert first == Path(y.argv[2] if y.scenario else y.argv[1]).read_bytes()
            assert first != Path(z.argv[2] if z.scenario else z.argv[1]).read_bytes()


def test_drive_checks_catch_broken_traces(tmp_path):
    inp = _small("drive", tmp_path).inputs[0]
    assert workloads.run_cli(cli.main, list(inp.argv)) == 0
    scenario = cli.load_scenario(inp.argv[2])
    positions = [float(x) for x in scenario.layout.positions()]
    text = inp.output.read_text()
    assert checks.drive_problems(text, positions, scenario.gps_outages) == []
    lines = text.splitlines()
    dgps_err = lines[:2] + [lines[2].rsplit(",", 1)[0] + ",0.5000"] + lines[3:]
    one_rsu = [
        ",".join(c[:5] + [c[5].split(";")[0]] + c[6:]) if c[4] == "RSS" else line
        for line, c in ((line, line.split(",")) for line in lines)
    ]
    for broken in (lines[:-1], dgps_err, one_rsu, [lines[0], *lines[1:3], "nan" + lines[3][1:]]):
        assert checks.drive_problems("\n".join(broken), positions, scenario.gps_outages)


def test_tracer_restores_functions_and_keeps_iterables():
    originals = {(m, a): getattr(MODULES[m], a) for (m, a) in {**spans.SPANNED, **spans.COUNTED}}
    tracer = spans.Tracer()
    spans.install(tracer, MODULES)
    samples = [
        channel.RssSample(x_m=float(i), rsu_id="a", rss_dbm=-50.0 - i, true_distance_m=70.0 + i)
        for i in range(8)
    ]
    kept = cli.filter_near_field(iter(samples), 60.0)
    tracer.uninstall()
    assert kept.n == 8
    assert tracer.counts["filter_near_field.offered"] == 8
    for (m, a), fn in originals.items():
        assert getattr(MODULES[m], a) is fn


def test_tracer_skips_functions_a_module_no_longer_has():
    tracer = spans.Tracer()
    module = types.SimpleNamespace()
    tracer.span(module, "gone", "nn.gone")
    tracer.count(module, "gone_too", "channel.gone_too")
    assert vars(module) == {} and tracer.counts == {"channel.gone_too": 0}
    assert spans.layer_metrics(tracer.totals(), tracer.counts)["nn.train.calls"] == 0
