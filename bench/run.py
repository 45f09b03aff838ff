#!/usr/bin/env python3
"""vanetpos benchmark: end-to-end and per-layer metrics for one workload.

Usage (from the repository root):

    python3 bench/run.py --workload corridor_poly --seed 1 --seconds 30 --trace 0

Set-up regenerates the pinned shipped outputs (correctness gate) and the
workload's inputs from --seed. The measured loop then starts one fresh
Python process per run of ``vanetpos.cli.main``, one at a time, until
--seconds have passed (at least MIN_RUNS runs, and one per input). With --trace 0 it prints
the end-to-end metrics; with --trace 1 it alternates untraced and traced
processes and prints the per-layer metrics plus the tracing overhead.
Every metric is a median over the runs, or a percentile over all samples
pooled. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = REPO / ".bench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_RUNS = 3
# no child may run past this many seconds after the benchmark started
HARD_LIMIT_S = 150
TAIL_SAMPLES = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "units_per_s": "1/s",
    "unit_p50_ms": "ms",
    "unit_tail_ms": "ms",
    "error_m": "m",
    "peak_rss_mb": "MB",
    "completed_frac": "ratio",
}
OVERHEAD = "trace.overhead_s"
# what the generic end-to-end names mean for each kind of workload, printed
# beside them
KIND_NAMES = {
    "sweep": {"units_per_s": "models_per_s", "unit_p50_ms": "network_p50_ms",
              "unit_tail_ms": "network_tail_ms", "error_m": "best_rmse_m"},
    "drive": {"units_per_s": "fixes_per_s", "unit_p50_ms": "fix_p50_ms",
              "unit_tail_ms": "fix_p99_ms", "error_m": "outage_mae_m"},
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_fix"):
        return "count/fix"
    return "count"


def is_timing(name: str) -> bool:
    return layer_unit(name) == "s"


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


@dataclass
class Run:
    """One child process: its timings, output digest and check result."""

    traced: bool
    input_index: int
    problems: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    result: Dict = field(default_factory=dict)
    digest: str = ""
    stdout: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


def run_child(
    wl: workloads.Workload,
    input_index: int,
    traced: bool,
    work: Path,
    index: int,
    timeout_s: float = HARD_LIMIT_S,
) -> Run:
    """Run one fresh process on input `input_index`; time it from spawn."""
    run = Run(traced, input_index)
    inp = wl.inputs[input_index]
    result_path = work / f"run_{index}.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED="0")
    with open(work / "run_stdout.txt", "w") as out, open(work / "run_stderr.txt", "w") as err:
        spawn = now_ns()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(result_path), str(spawn),
             "1" if traced else "0", str(work / f"spans_{wl.name}.csv"), "--",
             *inp.argv],
            stdout=out, stderr=err, env=env, cwd=REPO,
        )
        try:
            rc = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = None
        run.wall_s = (now_ns() - spawn) * 1e-9
    run.stdout = (work / "run_stdout.txt").read_text()
    if rc != 0:
        tail = (work / "run_stderr.txt").read_text().strip().splitlines()[-1:]
        run.problems.append(f"exit {rc}: {' '.join(tail)}")
    elif not inp.output.exists():
        run.problems.append("no output file")
    else:
        run.result = json.loads(result_path.read_text())
        run.digest = checks.sha256(inp.output)
    return run


def error_m(wl: workloads.Workload, run: Run) -> Optional[float]:
    """In-outage MAE printed by drive; rank-1 RMSE of the sweep table."""
    if wl.kind == "drive":
        for line in run.stdout.splitlines():
            if line.startswith("in_outage:") and "mean_abs_error_m=" in line:
                return float(line.split("mean_abs_error_m=")[1].split()[0])
        return None
    best = wl.inputs[run.input_index].output.read_text().splitlines()[1].split(",")
    return math.sqrt(float(best[4]))


def output_problems(wl: workloads.Workload, inp: workloads.Input) -> List[str]:
    text = inp.output.read_text()
    if wl.kind == "sweep":
        return checks.sweep_problems(text, workloads.SWEEP_HIDDEN, range(workloads.SWEEP_SEEDS))
    positions = [float(x) for x in inp.scenario.layout.positions()]
    return checks.drive_problems(text, positions, inp.scenario.gps_outages)


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(n: int) -> int:
    """The highest percentile, at most 99, with ten samples beyond it."""
    return max(50, min(99, math.floor(100 * (1 - TAIL_SAMPLES / n))))


def end_to_end(
    wl: workloads.Workload, runs: List[Run], errors: Dict[int, float], completed: float
) -> Dict[str, float]:
    res = [r.result for r in runs]
    if wl.kind == "sweep":
        # one sample per run: a network's training time depends on its
        # survey, so per-network samples would make the tail the seed's
        rate = [wl.units / r["sweep_s"] for r in res]
        unit_ms = [1000.0 * r["sweep_s"] / wl.units for r in res]
    else:
        rate = [wl.units / r["after_setup_s"] for r in res]
        unit_ms = [t for r in res for t in r["fix_ms"]]
    tail = tail_percentile(len(unit_ms))
    print(f"unit latency: {len(unit_ms)} samples; unit_tail_ms is p{tail}")
    return {
        "setup_s": statistics.median(r["setup_s"] for r in res),
        "wall_s": statistics.median(r.wall_s for r in runs),
        "units_per_s": statistics.median(rate),
        "unit_p50_ms": percentile(unit_ms, 50),
        "unit_tail_ms": percentile(unit_ms, tail),
        "error_m": statistics.median(errors.values()),
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in res),
        "completed_frac": completed,
    }


def per_layer(plain: List[Run], traced: List[Run]) -> Dict[str, float]:
    layers = [r.result["layers"] for r in traced]
    out = {}
    for name in layers[0]:
        if is_timing(name):
            out[name] = statistics.median(lay[name] for lay in layers)
        else:
            out[name] = layers[0][name]
    out[OVERHEAD] = statistics.median(r.wall_s for r in traced) - statistics.median(
        r.wall_s for r in plain
    )
    return out


def measure(
    wl: workloads.Workload, seconds: float, trace: bool, work: Path, hard_end: float
) -> Tuple[List[Run], Dict[int, float]]:
    """Run child processes until `seconds` pass; check every output.

    Untraced, runs cycle through the workload's inputs. Traced, untraced
    and traced runs alternate on the first input, so their counts and
    walls compare like for like. Returns the runs and, per input, the
    error_m of its output.
    """
    modes = [False, True] if trace else [False]
    n_inputs = len(wl.inputs)
    runs: List[Run] = []
    checked: Dict[Tuple[int, str], List[str]] = {}
    errors: Dict[int, float] = {}
    # every input runs at least once, so error_m covers the same inputs
    # on every invocation
    minimum = len(modes) if trace else max(MIN_RUNS, n_inputs)
    deadline = time.monotonic() + seconds

    def wanted() -> bool:
        if len(runs) < minimum or len(runs) % len(modes):
            return True
        # start another run (or pair) only if it should end before the deadline
        wall = statistics.median(r.wall_s for r in runs)
        return time.monotonic() + wall * len(modes) <= deadline

    while time.monotonic() < hard_end and wanted():
        k = len(runs)
        run = run_child(
            wl, 0 if trace else k % n_inputs, modes[k % len(modes)], work, k,
            timeout_s=hard_end - time.monotonic(),
        )
        if run.ok:
            key = (run.input_index, run.digest)
            if key not in checked:
                checked[key] = output_problems(wl, wl.inputs[run.input_index])
            run.problems.extend(checked[key])
        if run.ok and not run.traced and run.input_index not in errors:
            err = error_m(wl, run)
            if err is None:
                run.problems.append("no in-outage error printed")
            else:
                errors[run.input_index] = err
        runs.append(run)
    reference: Dict[int, str] = {}
    for r in runs:
        if r.ok and reference.setdefault(r.input_index, r.digest) != r.digest:
            r.problems.append("output bytes differ between runs of one input")
    if trace:
        ok_traced = [r for r in runs if r.traced and r.ok]
        counts = [
            {k: v for k, v in r.result["layers"].items() if not is_timing(k)}
            for r in ok_traced
        ]
        for r, c in zip(ok_traced, counts):
            if c != counts[0]:
                r.problems.append("traced counts differ between runs of one input")
    return runs, errors


def machine() -> Dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
    }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    hard_end = time.monotonic() + HARD_LIMIT_S
    args = parse_args(argv)
    for needed in ("src/vanetpos/cli.py", "configs/exp2.json", "configs/drive.json"):
        if not (REPO / needed).is_file():
            print(f"bench: {needed} not found under {REPO}", file=sys.stderr)
            return 2
    sys.path.insert(0, str(REPO / "src"))
    from vanetpos import cli

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    attempted = failed = 0
    problems: List[str] = []
    for name, rows, ok in checks.pinned_outputs(cli.main, REPO, WORK):
        attempted += rows
        if not ok:
            failed += rows
            problems.append(f"{name}: output differs from the pinned digest")

    wl = workloads.generate(args.workload, args.seed, WORK, REPO)
    runs, errors = measure(wl, args.seconds, bool(args.trace), WORK, hard_end)
    for i, r in enumerate(runs):
        attempted += wl.units
        if not r.ok:
            failed += wl.units
            problems.extend(f"run {i}: {p}" for p in r.problems)
    plain = [r for r in runs if r.ok and not r.traced]
    traced = [r for r in runs if r.ok and r.traced]
    if not plain or (args.trace and not traced):
        for p in problems:
            print(f"bench: {p}", file=sys.stderr)
        print("bench: no run completed; no metrics", file=sys.stderr)
        return 1
    completed = 1.0 - failed / attempted
    if args.trace:
        values = per_layer(plain, traced)
        units = {k: layer_unit(k) for k in values}
    else:
        values = end_to_end(wl, plain, errors, completed)
        units = END_TO_END

    info = machine()
    print(f"workload {wl.name} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced runs; {info}")
    for p in problems:
        print(f"FAILED {p}")
    names = {} if args.trace else KIND_NAMES[wl.kind]
    for name, value in values.items():
        print(f"{name:42s} {names.get(name, ''):16s} {value:>16.6f} {units[name]}")
    if not args.trace:
        print(f"{'':42s} {'failed_frac':16s} {failed / attempted:>16.6f} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
