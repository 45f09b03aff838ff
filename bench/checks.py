"""Output correctness checks run on every benchmark invocation.

The shipped experiments are pinned by digest: the exp2 survey, its sweep
and the configs/drive.json trace, each at the config's own seed. The
generated drive workloads are expected to change when the channel model is
fixed, so their traces are checked for invariants instead.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

from workloads import run_cli, sweep_args

# name -> (sha256 at the seed commit, data rows)
PINNED = {
    "exp2_survey": ("08ec779303b34d4fa34901c10249b1509a33614f70599238ca6d523ee73721fc", 123),
    "exp2_sweep": ("efa0a17632f655556ec238b44681ec547534801e510a9f3c8c090d6556fa3124", 180),
    "drive_trace": ("9501ef043c0cadd450f6b89ab800f7b78df2a6c779e9f4184cd7573a845a52f7", 61),
}

MAX_PROBLEMS = 5
TRACE_HEADER = "t_s,x_true_m,x_est_m,y_est_m,source,used_rsus,quality_m,abs_error_m"
SWEEP_HEADER = (
    "rank,hidden,seed,mse_test,mse_all,maxerr_test,maxerr_all,"
    "std_test,std_all,var_test,var_all,corr_test,corr_all"
)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pinned_outputs(cli_main: Callable, repo: Path, work: Path) -> List[Tuple[str, int, bool]]:
    """Regenerate the shipped outputs; (name, data rows, digest matches) each."""
    work.mkdir(parents=True, exist_ok=True)
    configs = repo / "configs"
    files = {name: work / f"pinned_{name}.csv" for name in PINNED}
    runs = {
        "exp2_survey": ["survey", "--config", str(configs / "exp2.json"),
                        "--out", str(files["exp2_survey"])],
        "exp2_sweep": list(sweep_args(files["exp2_survey"], files["exp2_sweep"])),
        "drive_trace": ["drive", "--config", str(configs / "drive.json"),
                        "--out", str(files["drive_trace"])],
    }
    results = []
    for name, argv in runs.items():
        try:
            rc = run_cli(cli_main, argv)
        except Exception as e:  # a crash fails this check, not the benchmark
            print(f"bench: {name}: {type(e).__name__}: {e}", file=sys.stderr)
            rc = None
        path = files[name]
        digest, rows = PINNED[name]
        results.append((name, rows, rc == 0 and path.exists() and sha256(path) == digest))
    return results


def _finite(values: Sequence[str]) -> bool:
    try:
        return all(math.isfinite(float(v)) for v in values)
    except ValueError:
        return False


def drive_problems(
    text: str, positions: Sequence[float], outages: Sequence[Tuple[float, float]]
) -> List[str]:
    """Invariants of a drive trace: one row per step, DGPS exact outside
    the outage, at least two RSUs per RSS fix, every number finite."""
    lines = text.splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        return ["bad trace header"]
    rows = lines[1:]
    if len(rows) != len(positions):
        return [f"{len(rows)} rows for {len(positions)} steps"]
    problems = []
    for step, (line, x) in enumerate(zip(rows, positions)):
        cols = line.split(",")
        if len(cols) != 8:
            problems.append(f"row {step}: {len(cols)} columns")
            continue
        t, x_true, x_est, y_est, source, used, quality, err = cols
        if not _finite((t, x_true, x_est, y_est, quality, err)):
            problems.append(f"row {step}: non-finite value")
            continue
        if int(t) != step or abs(float(x_true) - x) > 1e-4:
            problems.append(f"row {step}: step or position out of order")
        in_outage = any(lo <= x <= hi for lo, hi in outages)
        if not in_outage and (source != "DGPS" or float(err) != 0.0):
            problems.append(f"row {step}: outside the outage but {source} err={err}")
        if source == "RSS" and len(used.split(";")) < 2:
            problems.append(f"row {step}: RSS fix from {used!r}")
    if len(problems) > MAX_PROBLEMS:
        problems[MAX_PROBLEMS:] = [f"and {len(problems) - MAX_PROBLEMS} more rows"]
    return problems


def sweep_problems(text: str, hidden: Sequence[int], seeds: Sequence[int]) -> List[str]:
    """Invariants of a sweep table: one ranked row per (hidden, seed)."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return ["bad sweep header"]
    rows = [line.split(",") for line in lines[1:]]
    expected = {(h, s) for h in hidden for s in seeds}
    problems = []
    if [r[0] for r in rows] != [str(i) for i in range(1, len(rows) + 1)]:
        problems.append("ranks are not 1..n")
    if any(len(r) != 13 or not _finite(r) for r in rows):
        problems.append("malformed or non-finite row")
    elif {(int(r[1]), int(r[2])) for r in rows} != expected or len(rows) != len(expected):
        problems.append("rows do not cover the hidden x seed grid once each")
    return problems
