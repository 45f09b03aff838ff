"""Feedforward network estimating street position from RSS readings.

One tanh hidden layer, linear output, inputs and output min-max normalized
to [-1, 1] on the training split only. Training is full-batch gradient
descent (classical momentum) with early stopping on the validation set:
the returned weights are the snapshot from the best validation epoch. The
sweep trains one network per (hidden size, seed) pair and ranks the
results the way the experiment logs report them. The whole grid trains
as one stack, each network on its own split, bit-identical to training it
alone. The stack takes its networks in ascending hidden size, so row r is
network r and each size is one block of rows; the parameters, velocities
and gradients are one (S, K) array each, updated in place: a row holds one
network's w1 (row-major), b1 and w2, zeros up to K - 1, and b2 in the last
column, K = h_max*(i + 2) + 1. Each lockstep epoch runs the matmuls, b1
add, tanh and hidden-layer gradients per block, then the output gradient,
MSEs, b2, momentum and patience updates once over all rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .channel import SurveyDataset
from .domain import check_ranges, ranged
from .errors import TooFewSamples, VanetPosError
from .metrics import MetricsReport, regression_metrics

_VAL_FRACTION = 0.15
_TEST_FRACTION = 0.15
_MIN_SWEEP_ROWS = math.ceil(2 / _TEST_FRACTION)  # the fewest with a 2-row test split


@dataclass
class MlpModel:
    """Single-hidden-layer regression network plus its normalization."""

    n_inputs: int
    n_hidden: int
    w1: np.ndarray  # (n_hidden, n_inputs)
    b1: np.ndarray  # (n_hidden,)
    w2: np.ndarray  # (n_hidden,)
    b2: float
    in_min: np.ndarray  # (n_inputs,)
    in_max: np.ndarray  # (n_inputs,)
    out_min: float = -1.0
    out_max: float = 1.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MlpModel):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint train/validation/test index partition of a dataset."""

    train: Tuple[int, ...]
    validation: Tuple[int, ...]
    test: Tuple[int, ...]


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = ranged(1000, 1, 100_000)
    patience: int = ranged(6, 1, 100_000)
    learning_rate: float = ranged(0.01, 1e-6, 10.0)
    momentum: float = ranged(0.9, 0.0, 0.999)

    def __post_init__(self) -> None:
        check_ranges(self)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_mse_m2: float
    val_mse_m2: float


@dataclass(frozen=True)
class Gradients:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float


@dataclass(frozen=True)
class NnDataset:
    """Regression samples: one RSS vector per row, street position target."""

    inputs: np.ndarray  # (n, n_inputs)
    targets: np.ndarray  # (n,)
    feature_names: Tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class SweepConfig:
    hidden_sizes: Tuple[int, ...] = tuple(range(2, 11))
    seeds: Tuple[int, ...] = tuple(range(20))
    train: TrainConfig = TrainConfig()


@dataclass(frozen=True)
class SweepRow:
    rank: int
    hidden: int
    seed: int
    test: MetricsReport
    all: MetricsReport


def split_dataset(n: int, seed: int) -> SplitIndices:
    """Shuffled 70/15/15 split; validation and test take floor(0.15 n) each."""
    if n < 7:
        raise TooFewSamples(f"need >= 7 samples to split, got {n}")
    order = np.random.default_rng(seed).permutation(n).tolist()
    n_test = int(math.floor(_TEST_FRACTION * n))
    n_val = int(math.floor(_VAL_FRACTION * n))
    test = tuple(order[:n_test])
    validation = tuple(order[n_test : n_test + n_val])
    train = tuple(order[n_test + n_val :])
    return SplitIndices(train=train, validation=validation, test=test)


def init_mlp(n_inputs: int, n_hidden: int, seed: int) -> MlpModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], zero biases.

    Normalization starts as the identity ([-1, 1] onto itself); training
    replaces it with ranges measured on the training split.
    """
    if n_inputs < 1 or n_hidden < 1:
        raise ValueError("n_inputs and n_hidden must be >= 1")
    rng = np.random.default_rng(seed)
    bound1 = 1.0 / math.sqrt(n_inputs)
    bound2 = 1.0 / math.sqrt(n_hidden)
    return MlpModel(
        n_inputs=n_inputs,
        n_hidden=n_hidden,
        w1=rng.uniform(-bound1, bound1, size=(n_hidden, n_inputs)),
        b1=np.zeros(n_hidden),
        w2=rng.uniform(-bound2, bound2, size=n_hidden),
        b2=0.0,
        in_min=-np.ones(n_inputs),
        in_max=np.ones(n_inputs),
    )


def _normalize(v, lo, hi):
    return 2.0 * (v - lo) / (hi - lo) - 1.0


def _stack_params(models: Sequence[MlpModel]) -> np.ndarray:
    """The (S, K) parameter buffer of `models`, a row each (module docstring)."""
    width = max(m.n_hidden for m in models) * (models[0].n_inputs + 2) + 1
    buf = np.zeros((len(models), width))
    for row, m in zip(buf, models):
        w = np.concatenate((m.w1.ravel(), m.b1, m.w2))
        row[: w.size], row[-1] = w, m.b2
    return buf


def _param_views(buf: np.ndarray, blocks: Sequence[Tuple[int, int]]):
    """Per nonempty block, (rows, [w1 (s, h, i), b1 (s, 1, h), w2 (s, h, 1)]),
    and b2 (S, 1), as views into an (S, K) buffer.

    `blocks` lists (hidden size, row count) in row order; an emptied block
    stays listed, because the widest hidden size fixes K.
    """
    n_inputs = (buf.shape[1] - 1) // max(h for h, _ in blocks) - 2
    views, start = [], 0
    for h, count in blocks:
        if count:
            rows, k = slice(start, start + count), h * n_inputs
            w1, b = buf[rows, :k].reshape(count, h, n_inputs), buf[rows]
            b1, w2 = b[:, None, k : k + h], b[:, k + h : k + 2 * h, None]
            views.append((rows, [w1, b1, w2]))
            start += count
    return views, buf[:, -1:]


def _stack_forward(params, xn: Sequence[np.ndarray]):
    """Hidden activations (one (s, n, h) array per block) and outputs (S, n).

    `xn` holds each block's (s, n, n_inputs) inputs. Slice s goes through
    network s with the same BLAS calls a single network makes, so stacking
    does not change a single bit of the results.
    """
    views, b2 = params
    out = np.empty((len(b2), xn[0].shape[1], 1))
    h1s = []
    for (rows, (w1, b1, w2)), x in zip(views, xn):
        h1 = x @ w1.transpose(0, 2, 1)
        h1 += b1
        h1s.append(np.tanh(h1, out=h1))
        np.matmul(h1, w2, out=out[rows])
    pred = out[:, :, 0]
    pred += b2
    return h1s, pred


def _mse(pred: np.ndarray, yn: np.ndarray) -> np.ndarray:
    """Each row's mean squared error, summed and divided as np.mean does."""
    return np.add.reduce((pred - yn) ** 2, axis=1) / yn.shape[1]


def _stack_gradients(params, xn, yn, h1s, pred, out) -> None:
    """Backpropagate each network's batch MSE into `out`, the
    `_param_views` of a gradient buffer; `xn` as for `_stack_forward`.

    Takes the forward pass (h1s, pred) as arguments, so a training epoch
    reuses the pass that measured the previous epoch's training loss.
    """
    d_pred = 2.0 * (pred - yn) / yn.shape[1]  # (S, n)
    grads, g_b2 = out
    for (rows, (_, _, w2)), x, h1, (_, (g_w1, g_b1, g_w2)) in zip(
        params[0], xn, h1s, grads
    ):
        d = d_pred[rows, :, None]
        d_a1 = d * w2.transpose(0, 2, 1) * (1.0 - h1**2)
        np.matmul(d_a1.transpose(0, 2, 1), x, out=g_w1)
        np.add.reduce(d_a1, axis=1, keepdims=True, out=g_b1)
        np.matmul(h1.transpose(0, 2, 1), d, out=g_w2)
    np.add.reduce(d_pred, axis=1, keepdims=True, out=g_b2)


def forward_batch(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    """Estimate position (meters) from each row of `inputs` (dBm per RSU)."""
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.n_inputs:
        raise VanetPosError(
            f"expected (n, {model.n_inputs}) inputs, got shape {x.shape}"
        )
    xn = _normalize(x, model.in_min, model.in_max)
    params = _param_views(_stack_params([model]), [(model.n_hidden, 1)])
    yn = _stack_forward(params, [xn[None]])[1][0]
    return (yn + 1.0) / 2.0 * (model.out_max - model.out_min) + model.out_min


def batch_loss(model: MlpModel, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error in the normalized output space."""
    xn = _normalize(np.asarray(inputs, dtype=float), model.in_min, model.in_max)
    yn = _normalize(np.asarray(targets, dtype=float), model.out_min, model.out_max)
    params = _param_views(_stack_params([model]), [(model.n_hidden, 1)])
    pred = _stack_forward(params, [xn[None]])[1]
    return float(_mse(pred, yn[None])[0])


def gradients(
    model: MlpModel, inputs: np.ndarray, targets: np.ndarray
) -> Gradients:
    """Backpropagation gradients of the normalized-space batch MSE."""
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or len(x) == 0:
        raise VanetPosError("gradients needs a nonempty (n, n_inputs) batch")
    if x.shape[1] != model.n_inputs or len(y) != len(x):
        raise VanetPosError(
            f"batch shape {x.shape} vs targets {y.shape} does not match "
            f"a {model.n_inputs}-input model"
        )
    xn = [_normalize(x, model.in_min, model.in_max)[None]]
    yn = _normalize(y, model.out_min, model.out_max)[None]
    buf, blocks = _stack_params([model]), [(model.n_hidden, 1)]
    params, grads = (_param_views(b, blocks) for b in (buf, np.empty_like(buf)))
    _stack_gradients(params, xn, yn, *_stack_forward(params, xn), grads)
    [(_, (g_w1, g_b1, g_w2))], g_b2 = grads
    return Gradients(w1=g_w1[0], b1=g_b1[0, 0], w2=g_w2[0, :, 0], b2=float(g_b2[0, 0]))


def _train_stack(
    models: Sequence[MlpModel],
    dataset: NnDataset,
    splits: Sequence[SplitIndices],
    config: TrainConfig,
) -> Tuple[List[MlpModel], List[Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Train S networks at once, network s on splits[s], in lockstep epochs.

    The networks come in ascending hidden size (ValueError otherwise), so
    each size is one block of rows, and every split has validation rows.
    Every network keeps its own min-max normalization (fitted on its
    training split), momentum, best-validation snapshot and patience
    counter; a network whose patience runs out leaves the stack. Returns
    the best snapshots, snapshot s of network s, and per epoch the arrays
    (networks still training, as indices into `models`; their normalized
    train MSEs; their validation MSEs).
    """
    hidden = np.array([m.n_hidden for m in models])
    if np.any(hidden[1:] < hidden[:-1]):
        raise ValueError(f"stack hidden sizes must ascend, got {hidden.tolist()}")
    rows_tr = np.array([s.train for s in splits], dtype=int)
    rows_va = np.array([s.validation for s in splits], dtype=int)
    x_tr, y_tr = dataset.inputs[rows_tr], dataset.targets[rows_tr]
    in_min, in_max = x_tr.min(axis=1), x_tr.max(axis=1)
    out_min, out_max = y_tr.min(axis=1), y_tr.max(axis=1)
    flat = np.any(in_max - in_min <= 0, axis=0)
    if flat.any():
        names = ", ".join(n for n, f in zip(dataset.feature_names, flat) if f)
        raise VanetPosError(
            f"degenerate input range in the training split: constant RSS from {names}"
        )
    if np.any(out_max - out_min <= 0):
        raise VanetPosError("degenerate target range in the training split")
    # normalized once per call, each network with its own ranges
    x_lo, x_hi = in_min[:, None, :], in_max[:, None, :]
    y_lo, y_hi = out_min[:, None], out_max[:, None]
    xn_tr = _normalize(x_tr, x_lo, x_hi)
    yn_tr = _normalize(y_tr, y_lo, y_hi)
    xn_va = _normalize(dataset.inputs[rows_va], x_lo, x_hi)
    yn_va = _normalize(dataset.targets[rows_va], y_lo, y_hi)
    del x_tr, y_tr  # the whole grid's raw copies: keep only the normalized ones
    sizes = sorted(set(hidden.tolist()))

    def layout(rows) -> List[Tuple[int, int]]:
        return [(h, np.count_nonzero(hidden[rows] == h)) for h in sizes]

    def block_views():
        # made again only when the stack compacts: making them every epoch
        # costs about what the lockstep saves
        params = _param_views(packed, layout(live))
        rows = [r for r, _ in params[0]]
        return (params, _param_views(grads, layout(live)),
                [xn_tr[r] for r in rows], [xn_va[r] for r in rows])

    packed = _stack_params(models)
    best, velocity, grads = packed.copy(), np.zeros_like(packed), np.zeros_like(packed)
    live = np.arange(len(models))  # stack slot -> network

    params, grad_views, xb_tr, xb_va = block_views()
    best_val = _mse(_stack_forward(params, xb_va)[1], yn_va)
    epochs_since_best = np.zeros(len(models), dtype=int)
    mses = []  # per epoch: (live, train MSE, validation MSE)

    h1s, pred = _stack_forward(params, xb_tr)
    for _ in range(config.max_epochs):
        _stack_gradients(params, xb_tr, yn_tr, h1s, pred, grad_views)
        velocity *= config.momentum
        grads *= config.learning_rate
        velocity -= grads
        packed += velocity

        h1s, pred = _stack_forward(params, xb_tr)
        train_mse = _mse(pred, yn_tr)
        val_mse = _mse(_stack_forward(params, xb_va)[1], yn_va)
        mses.append((live, train_mse, val_mse))
        improved = val_mse < best_val
        if improved.any():
            best_val[improved] = val_mse[improved]
            best[live[improved]] = packed[improved]
        epochs_since_best = np.where(improved, 0, epochs_since_best + 1)
        keep = epochs_since_best < config.patience
        if not keep.all():
            # compact only when a network stops: indexing every epoch costs more
            live = live[keep]
            if not live.size:
                break
            h1s = [h1[keep[rows]] for (rows, _), h1 in zip(params[0], h1s)]
            h1s = [h1 for h1 in h1s if len(h1)]
            packed, velocity, grads = packed[keep], velocity[keep], grads[keep]
            best_val, epochs_since_best = best_val[keep], epochs_since_best[keep]
            xn_tr, yn_tr, xn_va, yn_va, pred = (
                a[keep] for a in (xn_tr, yn_tr, xn_va, yn_va, pred)
            )
            params, grad_views, xb_tr, xb_va = block_views()

    views, b2 = _param_views(best, layout(slice(None)))
    weights = [w for _, block in views for w in zip(*block)]  # row r: network r
    return [
        replace(
            m, w1=w1.copy(), b1=b1[0].copy(), w2=w2[:, 0].copy(), b2=float(b2[r, 0]),
            in_min=in_min[r], in_max=in_max[r],
            out_min=float(out_min[r]), out_max=float(out_max[r]),
        )
        for r, (m, (w1, b1, w2)) in enumerate(zip(models, weights))
    ], mses


def train(
    model: MlpModel,
    dataset: NnDataset,
    splits: SplitIndices,
    config: TrainConfig,
) -> Tuple[MlpModel, List[EpochRecord]]:
    """Full-batch momentum gradient descent with best-validation stopping.

    Stops after `patience` consecutive epochs without a new validation
    minimum (or at max_epochs) and returns the best-validation snapshot.
    History MSEs are reported in meters squared.
    """
    for name, rows in (("training", splits.train), ("validation", splits.validation)):
        if not rows:
            raise TooFewSamples(f"{name} split is empty")
    [best], records = _train_stack([model], dataset, [splits], config)
    to_m2 = ((best.out_max - best.out_min) / 2.0) ** 2
    return best, [
        EpochRecord(epoch=e, train_mse_m2=float(t) * to_m2, val_mse_m2=float(v) * to_m2)
        for e, (_, [t], [v]) in enumerate(records, start=1)
    ]


def dataset_from_survey(survey: SurveyDataset) -> NnDataset:
    """A survey grid as training rows: each position's RSS vector, by RSU id."""
    return NnDataset(
        inputs=survey.rss_dbm,
        targets=survey.x_m,
        feature_names=tuple(survey.rsu_ids()),
    )


def dataset_from_columns(samples) -> NnDataset:
    """Build an NnDataset from flat RssSample rows (e.g. a survey CSV)."""
    by_cell: Dict[float, Dict[str, float]] = {}
    seen = set()
    for s in samples:
        by_cell.setdefault(s.x_m, {})[s.rsu_id] = s.rss_dbm
        seen.add(s.rsu_id)
    ids = tuple(sorted(seen))
    xs = sorted(by_cell.keys())
    rows = []
    for x in xs:
        cell = by_cell[x]
        missing = [r for r in ids if r not in cell]
        if missing:
            raise VanetPosError(
                f"incomplete survey grid at x={x}: no reading from {', '.join(missing)}"
            )
        rows.append([cell[r] for r in ids])
    return NnDataset(
        inputs=np.asarray(rows, dtype=float),
        targets=np.asarray(xs, dtype=float),
        feature_names=ids,
    )


def sweep(dataset: NnDataset, config: SweepConfig) -> Tuple[SweepRow, ...]:
    """Train the full (hidden size x seed) grid and rank the results.

    Sorted by MSE over all samples, then max absolute error over all
    samples; ties break on (hidden, seed) so the table is reproducible
    regardless of execution order.
    """
    if dataset.n < _MIN_SWEEP_ROWS:
        raise TooFewSamples(
            f"a 2-row test split needs >= {_MIN_SWEEP_ROWS} positions, got {dataset.n}"
        )
    grid = [(h, seed) for h in sorted(config.hidden_sizes) for seed in config.seeds]
    if not grid:
        return ()
    by_seed = {seed: split_dataset(dataset.n, seed) for seed in config.seeds}
    splits = [by_seed[seed] for _, seed in grid]
    n_inputs = dataset.inputs.shape[1]
    models = [init_mlp(n_inputs, hidden, seed) for hidden, seed in grid]
    trained = _train_stack(models, dataset, splits, config.train)[0]
    results = []
    for (hidden, seed), split, model in zip(grid, splits, trained):
        pred_all = forward_batch(model, dataset.inputs)
        test_idx = list(split.test)
        report_test = regression_metrics(dataset.targets[test_idx], pred_all[test_idx])
        report_all = regression_metrics(dataset.targets, pred_all)
        results.append((hidden, seed, report_test, report_all))
    results.sort(
        key=lambda r: (r[3].mse, r[3].max_abs_error, r[0], r[1])
    )
    return tuple(
        SweepRow(rank=i + 1, hidden=h, seed=s, test=t, all=a)
        for i, (h, s, t, a) in enumerate(results)
    )
