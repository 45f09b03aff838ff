"""One measured process: run ``vanetpos.cli.main`` once and report timings.

Usage: child.py RESULT_JSON SPAWN_NS TRACE SPANS_CSV -- CLI_ARGS...

SPAWN_NS is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time includes interpreter start and imports.
TRACE is 0 or 1. Untraced, only the workload's entry points are timed:
``cli.locate`` (one sample per RSS fix) and ``nn.sweep``. Traced, every
function listed in spans.py records spans; they are written to SPANS_CSV
and folded into layer totals in the result.
"""

import json
import resource
import sys
import time


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main() -> int:
    sep = sys.argv.index("--")
    result_path, spawn_ns, trace, spans_path = sys.argv[1:sep]
    cli_args = sys.argv[sep + 1 :]
    spawn_ns, trace = int(spawn_ns), trace == "1"

    from vanetpos import channel, cli, fit, nn, positioning

    state = {"entry_ns": None, "sweep_ns": 0, "fix_ns": []}

    def mark_entry() -> None:
        if state["entry_ns"] is None:
            state["entry_ns"] = now_ns()

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(
            tracer,
            {"channel": channel, "cli": cli, "fit": fit, "nn": nn,
             "positioning": positioning},
        )
    # the entry probes wrap outside any tracer span, so both modes time the
    # same boundary
    locate, sweep = cli.locate, nn.sweep

    def timed_locate(*args, **kwargs):
        mark_entry()
        t0 = time.perf_counter_ns()
        fix = locate(*args, **kwargs)
        if fix.source is positioning.FixSource.RSS:
            state["fix_ns"].append(time.perf_counter_ns() - t0)
        return fix

    def timed_sweep(*args, **kwargs):
        mark_entry()
        t0 = time.perf_counter_ns()
        table = sweep(*args, **kwargs)
        state["sweep_ns"] += time.perf_counter_ns() - t0
        return table

    cli.locate, nn.sweep = timed_locate, timed_sweep
    try:
        rc = cli.main(cli_args)
    finally:
        cli.locate, nn.sweep = locate, sweep
        if tracer is not None:
            tracer.uninstall()
    end_ns = now_ns()
    sys.stdout.flush()

    result = {
        "rc": rc,
        "setup_s": (
            (state["entry_ns"] - spawn_ns) * 1e-9
            if state["entry_ns"] is not None
            else None
        ),
        "after_setup_s": (
            (end_ns - state["entry_ns"]) * 1e-9
            if state["entry_ns"] is not None
            else None
        ),
        "sweep_s": state["sweep_ns"] * 1e-9,
        "fix_ms": [t * 1e-6 for t in state["fix_ns"]],
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.totals(), tracer.counts)
        tracer.write(spans_path)
    with open(result_path, "w") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
