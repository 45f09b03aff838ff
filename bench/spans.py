"""In-memory span tracer for one child process of the benchmark.

Each traced function is replaced, at the module attribute its caller
resolves (``cli.locate``, ``positioning.multilaterate``, ...), by a wrapper
that records one span: name, parent span, group, start and end. A group is
one unit of work: a new one opens at every drive step (``cli.to_global``)
and every trained network (``nn.split_dataset``). Very hot leaf functions
(``channels_overlap``) are counted only. Spans stay in compact arrays until
the run ends; ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import math
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute) -> the module.function whose work the span measures,
# used to name layer metrics. Span names keep the caller-resolved name.
SPANNED: Dict[Tuple[str, str], str] = {
    ("channel", "generate_survey"): "channel.generate_survey",
    ("channel", "sample_rss"): "channel.sample_rss",
    ("channel", "count_interferers"): "channel.count_interferers",
    ("channel", "read_survey_csv"): "channel.read_survey_csv",
    ("channel", "write_survey_csv"): "channel.write_survey_csv",
    ("fit", "goodness_of_fit"): "metrics.goodness_of_fit",
    ("nn", "sweep"): "nn.sweep",
    ("nn", "train"): "nn.train",
    ("nn", "gradients"): "nn.gradients",
    ("nn", "batch_loss"): "nn.batch_loss",
    ("nn", "forward_batch"): "nn.forward_batch",
    ("nn", "dataset_from_columns"): "nn.dataset_from_columns",
    ("nn", "split_dataset"): "nn.split_dataset",
    ("nn", "regression_metrics"): "metrics.regression_metrics",
    ("positioning", "multilaterate"): "geometry.multilaterate",
    ("positioning", "fuse_fixes"): "geometry.fuse_fixes",
    ("positioning", "to_global"): "geometry.to_global",
    ("positioning", "to_local"): "geometry.to_local",
    ("positioning", "rss_to_range"): "positioning.rss_to_range",
    ("cli", "load_scenario"): "cli.load_scenario",
    ("cli", "calibrate_polynomial"): "cli.calibrate_polynomial",
    ("cli", "filter_near_field"): "fit.filter_near_field",
    ("cli", "fit_poly4"): "fit.fit_poly4",
    ("cli", "to_global"): "geometry.to_global",
    ("cli", "locate"): "positioning.locate",
    ("cli", "cmd_sweep"): "cli.cmd_sweep",
    ("cli", "cmd_drive"): "cli.cmd_drive",
}
COUNTED: Dict[Tuple[str, str], str] = {
    ("channel", "channels_overlap"): "channel.channels_overlap",
    ("positioning", "channels_overlap"): "channel.channels_overlap",
}
# calls that open a new group: the first traced call of a drive step and
# of a trained network
GROUP_OPENERS = {("cli", "to_global"), ("nn", "split_dataset")}


class Tracer:
    """Spans and counters of one process, plus the patches that feed them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.group = array("i")
        self.start = array("q")
        self.end = array("q")
        self.failed = array("b")
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._group = 0
        self._patches: List[Tuple[object, str, Callable]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(
        self,
        owner,
        attr: str,
        name: str,
        opens_group: bool = False,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``before(args, kwargs)`` may return new (args, kwargs) to forward;
        ``after(args, kwargs, result)`` observes the result. A function the
        module no longer has is skipped, and its metrics read 0.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            if opens_group:
                tracer._group += 1
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name_of.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.group.append(tracer._group)
            tracer.failed.append(0)
            tracer.end.append(0)
            stack.append(idx)
            tracer.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[idx] = 1
                raise
            finally:
                tracer.end[idx] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, key: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls."""
        fn = getattr(owner, attr, None)
        counts = self.counts
        counts.setdefault(key, 0)
        if fn is None:
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, failed calls, inclusive and self seconds.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out = {
            name: {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        for i in range(n):
            rec = out[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["failed"] += self.failed[i]
            rec["s"] += dur * 1e-9
            rec["self_s"] += (dur - child_ns[i]) * 1e-9
        return out

    def write(self, path: str) -> None:
        """Write every span as one CSV row."""
        with open(path, "w") as f:
            f.write("span,parent,group,name,start_ns,end_ns,failed\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i},{self.parent[i]},{self.group[i]},"
                    f"{self.names[self.name_of[i]]},{self.start[i]},"
                    f"{self.end[i]},{self.failed[i]}\n"
                )


def install(tracer: Tracer, modules: Dict[str, object]) -> None:
    """Wrap every traced function of the vanetpos modules given by name."""

    def materialise(args, kwargs):
        # filter_near_field takes any iterable; forward a list so the
        # count below does not consume it
        samples = list(args[0]) if args else list(kwargs.pop("samples"))
        tracer.add("filter_near_field.offered", len(samples))
        return (samples,) + tuple(args[1:]), kwargs

    def kept(args, kwargs, result):
        tracer.add("filter_near_field.kept", result.n)

    def train_epochs(args, kwargs, result):
        history = result[1]
        tracer.add("train.epochs", len(history))
        if history:
            val = [h.val_mse_m2 for h in history]
            tracer.add("train.best_epoch", val.index(min(val)) + 1)

    def clamped(args, kwargs, result):
        tracer.add("rss_to_range.clamped", 1 if result[1] else 0)

    rss = modules["positioning"].FixSource.RSS

    def fix(args, kwargs, result):
        if result.source is rss:
            beacons = args[1] if len(args) > 1 else kwargs["beacons"]
            tracer.add("locate.rss_fixes")
            tracer.add("locate.beacons", len(beacons))

    hooks = {
        ("cli", "filter_near_field"): {"before": materialise, "after": kept},
        ("nn", "train"): {"after": train_epochs},
        ("positioning", "rss_to_range"): {"after": clamped},
        ("cli", "locate"): {"after": fix},
    }
    for (mod, attr), key in COUNTED.items():
        tracer.count(modules[mod], attr, key)
    for (mod, attr) in SPANNED:
        tracer.span(
            modules[mod],
            attr,
            f"{mod}.{attr}",
            opens_group=(mod, attr) in GROUP_OPENERS,
            **hooks.get((mod, attr), {}),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    totals: Dict[str, Dict[str, float]], counts: Dict[str, float]
) -> Dict[str, float]:
    """Fold span totals by the function they measure into layer metrics."""
    by_fn: Dict[str, Dict[str, float]] = {}
    for (mod, attr), fn in SPANNED.items():
        rec = totals.get(f"{mod}.{attr}")
        agg = by_fn.setdefault(fn, {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0})
        if rec:
            for k in agg:
                agg[k] += rec[k]

    def get(fn: str, field: str) -> float:
        return by_fn[fn][field]

    rss_fixes = counts.get("locate.rss_fixes", 0)
    epochs = counts.get("train.epochs", 0)
    m = {
        "channel.count_interferers.calls": get("channel.count_interferers", "calls"),
        "channel.count_interferers.s": get("channel.count_interferers", "s"),
        "channel.channels_overlap.calls": counts.get("channel.channels_overlap", 0),
        "channel.generate_survey.calls": get("channel.generate_survey", "calls"),
        "channel.generate_survey.s": get("channel.generate_survey", "s"),
        "channel.sample_rss.calls": get("channel.sample_rss", "calls"),
        "channel.sample_rss.s": get("channel.sample_rss", "s"),
        "channel.read_survey_csv.s": get("channel.read_survey_csv", "s"),
        "channel.write_survey_csv.s": get("channel.write_survey_csv", "s"),
        "fit.fit_poly4.calls": get("fit.fit_poly4", "calls"),
        "fit.fit_poly4.s": get("fit.fit_poly4", "s"),
        "fit.filter_near_field.kept_ratio": _ratio(
            counts.get("filter_near_field.kept", 0),
            counts.get("filter_near_field.offered", 0),
        ),
        "nn.train.calls": get("nn.train", "calls"),
        "nn.train.s": get("nn.train", "s"),
        "nn.train.epochs": epochs,
        "nn.train.useful_epoch_ratio": _ratio(
            counts.get("train.best_epoch", 0), epochs
        ),
        "nn.gradients.calls": get("nn.gradients", "calls"),
        "nn.gradients.s": get("nn.gradients", "s"),
        "nn.batch_loss.calls": get("nn.batch_loss", "calls"),
        "nn.batch_loss.s": get("nn.batch_loss", "s"),
        "nn.forward_batch.calls": get("nn.forward_batch", "calls"),
        "nn.forward_batch.s": get("nn.forward_batch", "s"),
        "nn.dataset_from_columns.s": get("nn.dataset_from_columns", "s"),
        "metrics.regression_metrics.calls": get("metrics.regression_metrics", "calls"),
        "metrics.regression_metrics.s": get("metrics.regression_metrics", "s"),
        "metrics.goodness_of_fit.calls": get("metrics.goodness_of_fit", "calls"),
        "metrics.goodness_of_fit.s": get("metrics.goodness_of_fit", "s"),
        "geometry.multilaterate.calls": get("geometry.multilaterate", "calls"),
        "geometry.multilaterate.s": get("geometry.multilaterate", "s"),
        "geometry.fuse_fixes.calls": get("geometry.fuse_fixes", "calls"),
        "geometry.to_global.calls": get("geometry.to_global", "calls"),
        "geometry.to_global.s": get("geometry.to_global", "s"),
        "positioning.locate.calls": get("positioning.locate", "calls"),
        "positioning.locate.self_s": get("positioning.locate", "self_s"),
        "positioning.locate.failed": get("positioning.locate", "failed"),
        "positioning.beacons_per_fix": _ratio(
            counts.get("locate.beacons", 0), rss_fixes
        ),
        "positioning.subsets_per_fix": _ratio(
            get("geometry.multilaterate", "calls"), rss_fixes
        ),
        "positioning.rss_to_range.calls": get("positioning.rss_to_range", "calls"),
        "positioning.rss_to_range.clamped_ratio": _ratio(
            counts.get("rss_to_range.clamped", 0),
            get("positioning.rss_to_range", "calls"),
        ),
        "cli.load_scenario.s": get("cli.load_scenario", "s"),
        "cli.calibrate_polynomial.s": get("cli.calibrate_polynomial", "s"),
        "cli.cmd_sweep.self_s": get("cli.cmd_sweep", "self_s"),
        "cli.cmd_drive.self_s": get("cli.cmd_drive", "self_s"),
    }
    return {k: (float(v) if math.isfinite(v) else 0.0) for k, v in m.items()}
