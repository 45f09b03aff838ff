import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest

from vanetpos import nn
from vanetpos.channel import ChannelModel, SurveyLayout, generate_survey
from vanetpos.errors import TooFewSamples, VanetPosError
from vanetpos.metrics import regression_metrics
from vanetpos.nn import (
    EpochRecord,
    NnDataset,
    SplitIndices,
    SweepConfig,
    TrainConfig,
    batch_loss,
    dataset_from_survey,
    forward_batch,
    gradients,
    init_mlp,
    split_dataset,
    sweep,
    train,
)

from helpers import standard_rsu_row


def linear_task(n=41, span_m=20.0):
    """Noise-free: position is a linear function of one RSS input."""
    rss = np.linspace(-90.0, -50.0, n)
    pos = span_m / 40.0 * (rss + 90.0)
    return NnDataset(inputs=rss[:, None], targets=pos, feature_names=("ap",))


def reference_train(model, dataset, splits, config):
    """One network at a time, on 2-D arrays: the trainer the stacked one replaced.

    Returns (best-validation snapshot, history) like `train`; the stacked
    trainer must reproduce both bit for bit.
    """

    def norm_in(m, x):
        return 2.0 * (x - m.in_min) / (m.in_max - m.in_min) - 1.0

    def norm_out(m, y):
        return 2.0 * (y - m.out_min) / (m.out_max - m.out_min) - 1.0

    def loss(m, x, y):
        pred = np.tanh(norm_in(m, x) @ m.w1.T + m.b1) @ m.w2 + m.b2
        return float(np.mean((pred - norm_out(m, y)) ** 2))

    def grads(m, x, y):
        xn, yn = norm_in(m, x), norm_out(m, y)
        h1 = np.tanh(xn @ m.w1.T + m.b1)
        d_pred = 2.0 * (h1 @ m.w2 + m.b2 - yn) / len(x)
        d_a1 = np.outer(d_pred, m.w2) * (1.0 - h1**2)
        return d_a1.T @ xn, d_a1.sum(axis=0), h1.T @ d_pred, float(np.sum(d_pred))

    x_train = dataset.inputs[list(splits.train)]
    y_train = dataset.targets[list(splits.train)]
    x_val = dataset.inputs[list(splits.validation)]
    y_val = dataset.targets[list(splits.validation)]
    current = copy.deepcopy(model)
    current.in_min, current.in_max = x_train.min(axis=0), x_train.max(axis=0)
    current.out_min, current.out_max = float(y_train.min()), float(y_train.max())
    to_m2 = ((current.out_max - current.out_min) / 2.0) ** 2

    best = copy.deepcopy(current)
    best_val = loss(current, x_val, y_val)
    epochs_since_best = 0
    history = []
    v_w1, v_b1 = np.zeros_like(current.w1), np.zeros_like(current.b1)
    v_w2, v_b2 = np.zeros_like(current.w2), 0.0
    for epoch in range(1, config.max_epochs + 1):
        g_w1, g_b1, g_w2, g_b2 = grads(current, x_train, y_train)
        v_w1 = config.momentum * v_w1 - config.learning_rate * g_w1
        v_b1 = config.momentum * v_b1 - config.learning_rate * g_b1
        v_w2 = config.momentum * v_w2 - config.learning_rate * g_w2
        v_b2 = config.momentum * v_b2 - config.learning_rate * g_b2
        current.w1 = current.w1 + v_w1
        current.b1 = current.b1 + v_b1
        current.w2 = current.w2 + v_w2
        current.b2 = current.b2 + v_b2
        train_mse = loss(current, x_train, y_train)
        val_mse = loss(current, x_val, y_val)
        history.append(EpochRecord(epoch, train_mse * to_m2, val_mse * to_m2))
        if val_mse < best_val:
            best_val = val_mse
            best = copy.deepcopy(current)
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break
    return best, history


def stack_histories(records, n_nets):
    """Per network, its normalized (train MSE, validation MSE) per epoch,
    from the per-epoch records `nn._train_stack` returns."""
    histories = [[] for _ in range(n_nets)]
    for nets, train_mse, val_mse in records:
        for s, t, v in zip(nets.tolist(), train_mse.tolist(), val_mse.tolist()):
            histories[s].append((t, v))
    return histories


def reference_forward_batch(m, x):
    xn = 2.0 * (x - m.in_min) / (m.in_max - m.in_min) - 1.0
    yn = np.tanh(xn @ m.w1.T + m.b1) @ m.w2 + m.b2
    return (yn + 1.0) / 2.0 * (m.out_max - m.out_min) + m.out_min


def numeric_gradient(model, inputs, targets, h=1e-5):
    """Central finite differences of batch_loss over every parameter."""

    def loss_with(w1, b1, w2, b2):
        m = copy.deepcopy(model)
        m.w1, m.b1, m.w2, m.b2 = w1, b1, w2, b2
        return batch_loss(m, inputs, targets)

    g_w1 = np.zeros_like(model.w1)
    for idx in np.ndindex(model.w1.shape):
        wp, wm = model.w1.copy(), model.w1.copy()
        wp[idx] += h
        wm[idx] -= h
        g_w1[idx] = (
            loss_with(wp, model.b1, model.w2, model.b2)
            - loss_with(wm, model.b1, model.w2, model.b2)
        ) / (2 * h)
    g_b1 = np.zeros_like(model.b1)
    for i in range(len(model.b1)):
        bp, bm = model.b1.copy(), model.b1.copy()
        bp[i] += h
        bm[i] -= h
        g_b1[i] = (
            loss_with(model.w1, bp, model.w2, model.b2)
            - loss_with(model.w1, bm, model.w2, model.b2)
        ) / (2 * h)
    g_w2 = np.zeros_like(model.w2)
    for i in range(len(model.w2)):
        wp, wm = model.w2.copy(), model.w2.copy()
        wp[i] += h
        wm[i] -= h
        g_w2[i] = (
            loss_with(model.w1, model.b1, wp, model.b2)
            - loss_with(model.w1, model.b1, wm, model.b2)
        ) / (2 * h)
    g_b2 = (
        loss_with(model.w1, model.b1, model.w2, model.b2 + h)
        - loss_with(model.w1, model.b1, model.w2, model.b2 - h)
    ) / (2 * h)
    return g_w1, g_b1, g_w2, g_b2


class TestSplitDataset:
    def test_41_samples(self):
        s = split_dataset(41, seed=0)
        assert (len(s.train), len(s.validation), len(s.test)) == (29, 6, 6)

    def test_100_samples(self):
        s = split_dataset(100, seed=0)
        assert (len(s.train), len(s.validation), len(s.test)) == (70, 15, 15)

    def test_disjoint_and_exhaustive(self):
        for seed in range(10):
            s = split_dataset(53, seed=seed)
            combined = set(s.train) | set(s.validation) | set(s.test)
            assert combined == set(range(53))
            assert len(s.train) + len(s.validation) + len(s.test) == 53

    def test_deterministic(self):
        assert split_dataset(41, seed=5) == split_dataset(41, seed=5)

    def test_seeds_differ(self):
        a, b = split_dataset(41, seed=1), split_dataset(41, seed=2)
        assert a != b
        assert len(a.train) == len(b.train)

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            split_dataset(6, seed=0)


class TestInitMlp:
    def test_deterministic(self):
        assert init_mlp(3, 8, seed=7) == init_mlp(3, 8, seed=7)

    def test_equality_reads_every_field(self):
        m = init_mlp(3, 4, seed=1)
        for f in dataclasses.fields(m):
            other = copy.deepcopy(m)
            setattr(other, f.name, getattr(m, f.name) + 1)
            assert other != m, f.name

    def test_weight_bounds(self):
        m = init_mlp(4, 9, seed=1)
        assert np.all(np.abs(m.w1) <= 1.0 / np.sqrt(4))
        assert np.all(np.abs(m.w2) <= 1.0 / np.sqrt(9))
        assert np.all(m.b1 == 0.0)
        assert m.b2 == 0.0

    def test_seeds_differ(self):
        assert init_mlp(3, 8, seed=1) != init_mlp(3, 8, seed=2)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            init_mlp(0, 5, seed=0)


class TestForward:
    def test_zero_weights_give_output_midpoint(self):
        m = init_mlp(2, 4, seed=0)
        m.w1 = np.zeros_like(m.w1)
        m.w2 = np.zeros_like(m.w2)
        m.out_min, m.out_max = 0.0, 200.0
        assert forward_batch(m, [[-60.0, -70.0]])[0] == pytest.approx(100.0)

    def test_pure(self):
        m = init_mlp(3, 5, seed=2)
        x = [[-55.0, -60.0, -80.0]]
        assert forward_batch(m, x)[0] == forward_batch(m, x)[0]

    def test_weight_bump_changes_output_by_activation(self):
        m = init_mlp(2, 4, seed=3)
        x = np.array([-60.0, -70.0])
        xn = 2.0 * (x - m.in_min) / (m.in_max - m.in_min) - 1.0
        activation = np.tanh(m.w1 @ xn + m.b1)
        base = forward_batch(m, x[None])[0]
        delta = 0.37
        m2 = copy.deepcopy(m)
        m2.w2 = m.w2.copy()
        m2.w2[1] += delta
        bumped = forward_batch(m2, x[None])[0]
        half_range = (m.out_max - m.out_min) / 2.0
        assert bumped - base == pytest.approx(
            delta * activation[1] * half_range, rel=1e-9
        )

    def test_dimension_mismatch(self):
        m = init_mlp(3, 4, seed=0)
        with pytest.raises(
            VanetPosError, match=r"^expected \(n, 3\) inputs, got shape \(1, 2\)$"
        ):
            forward_batch(m, [[-60.0, -70.0]])

    @staticmethod
    def spread_model():
        m = init_mlp(3, 6, seed=4)
        m.in_min, m.in_max = np.full(3, -95.0), np.full(3, -40.0)
        m.out_min, m.out_max = 0.0, 300.0
        x = np.random.default_rng(5).uniform(-95.0, -40.0, size=(61, 3))
        return m, x

    def test_one_row_batch_agrees_with_that_row_of_a_larger_batch(self):
        # a fix reads the network one row at a time, the sweep a whole
        # survey at once. Not bit for bit: BLAS takes a one-row product
        # down another kernel (with numpy 2.4.6's OpenBLAS, 5 of these 61
        # rows differ by one ulp)
        m, x = self.spread_model()
        one_rows = np.array([forward_batch(m, row[None])[0] for row in x])
        np.testing.assert_array_max_ulp(one_rows, forward_batch(m, x), maxulp=2)

    def test_one_row_batch_keeps_the_bits_of_a_single_vector_forward(self):
        # the bits the former one-vector `forward` gave these rows, where the
        # one-row product and the 61-row one round apart
        m, x = self.spread_model()
        for i, bits in ((22, "0x1.09f9f1565d2a2p+7"), (37, "0x1.5037b9ee2fcc3p+7")):
            assert forward_batch(m, x[i][None])[0].hex() == bits


class TestGradients:
    def test_zero_at_perfect_fit(self):
        # a model that already maps its data exactly has zero gradient
        m = init_mlp(1, 3, seed=1)
        x = np.linspace(-1.0, 1.0, 9)[:, None]
        y_norm = np.array(
            [float(np.tanh(xi @ m.w1.T + m.b1) @ m.w2 + m.b2) for xi in x]
        )
        y = (y_norm + 1.0) / 2.0 * (m.out_max - m.out_min) + m.out_min
        g = gradients(m, x, y)
        assert np.max(np.abs(g.w1)) < 1e-10
        assert np.max(np.abs(g.b1)) < 1e-10
        assert np.max(np.abs(g.w2)) < 1e-10
        assert abs(g.b2) < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            d = int(rng.integers(1, 4))
            h = int(rng.integers(2, 11))
            m = init_mlp(d, h, seed=trial)
            m.in_min = -90.0 * np.ones(d)
            m.in_max = -50.0 * np.ones(d)
            m.out_min, m.out_max = 0.0, 200.0
            x = rng.uniform(-90.0, -50.0, size=(6, d))
            y = rng.uniform(0.0, 200.0, size=6)
            g = gradients(m, x, y)
            n_w1, n_b1, n_w2, n_b2 = numeric_gradient(m, x, y)
            assert np.allclose(g.w1, n_w1, rtol=1e-6, atol=1e-9)
            assert np.allclose(g.b1, n_b1, rtol=1e-6, atol=1e-9)
            assert np.allclose(g.w2, n_w2, rtol=1e-6, atol=1e-9)
            assert g.b2 == pytest.approx(n_b2, rel=1e-6, abs=1e-9)

    def test_batch_gradient_is_mean_of_singles(self):
        m = init_mlp(2, 4, seed=5)
        x = np.array([[-60.0, -75.0], [-80.0, -55.0]])
        y = np.array([40.0, 160.0])
        m.in_min = np.array([-90.0, -90.0])
        m.in_max = np.array([-50.0, -50.0])
        m.out_min, m.out_max = 0.0, 200.0
        g_both = gradients(m, x, y)
        g_a = gradients(m, x[:1], y[:1])
        g_b = gradients(m, x[1:], y[1:])
        assert np.allclose(g_both.w1, (g_a.w1 + g_b.w1) / 2, rtol=1e-12, atol=1e-15)
        assert np.allclose(g_both.w2, (g_a.w2 + g_b.w2) / 2, rtol=1e-12, atol=1e-15)
        assert g_both.b2 == pytest.approx((g_a.b2 + g_b.b2) / 2, rel=1e-12)

    def test_empty_batch(self):
        m = init_mlp(2, 3, seed=0)
        with pytest.raises(
            VanetPosError, match=r"^gradients needs a nonempty \(n, n_inputs\) batch$"
        ):
            gradients(m, np.empty((0, 2)), np.empty(0))


class TestTrain:
    def test_linear_task_converges(self):
        ds = linear_task()
        splits = split_dataset(ds.n, seed=3)
        model = init_mlp(1, 8, seed=3)
        config = TrainConfig(
            max_epochs=4000, patience=4000, learning_rate=0.1, momentum=0.95
        )
        trained, history = train(model, ds, splits, config)
        pred = forward_batch(trained, ds.inputs)
        test = list(splits.test)
        mse_test = float(np.mean((pred[test] - ds.targets[test]) ** 2))
        assert mse_test < 1e-2

    def test_history_bounded_and_best_returned(self):
        ds = linear_task()
        splits = split_dataset(ds.n, seed=1)
        model = init_mlp(1, 4, seed=1)
        config = TrainConfig(max_epochs=200, patience=10, learning_rate=0.05)
        trained, history = train(model, ds, splits, config)
        assert len(history) <= config.max_epochs
        val = list(splits.validation)
        returned_val_mse = float(
            np.mean((forward_batch(trained, ds.inputs)[val] - ds.targets[val]) ** 2)
        )
        best_in_history = min(r.val_mse_m2 for r in history)
        assert returned_val_mse == pytest.approx(best_in_history, rel=1e-9)

    def test_early_stopping_never_returns_worse_than_final(self):
        layout = SurveyLayout(rsus=standard_rsu_row([0.0, 100.0, 200.0], [1, 7, 13]))
        survey = generate_survey(layout, ChannelModel(), seed=2)
        ds = dataset_from_survey(survey)
        splits = split_dataset(ds.n, seed=2)
        model = init_mlp(3, 6, seed=2)
        trained, history = train(model, ds, splits, TrainConfig())
        val = list(splits.validation)
        returned = float(
            np.mean((forward_batch(trained, ds.inputs)[val] - ds.targets[val]) ** 2)
        )
        assert returned <= history[-1].val_mse_m2 + 1e-12

    def test_deterministic(self):
        ds = linear_task()
        splits = split_dataset(ds.n, seed=4)
        config = TrainConfig(max_epochs=100)
        a, _ = train(init_mlp(1, 4, seed=4), ds, splits, config)
        b, _ = train(init_mlp(1, 4, seed=4), ds, splits, config)
        assert a == b


class TestSweep:
    @staticmethod
    def survey_dataset(channels=(1, 7, 13), seed=11):
        layout = SurveyLayout(rsus=standard_rsu_row([0.0, 100.0, 200.0], channels))
        return dataset_from_survey(
            generate_survey(layout, ChannelModel(), seed=seed)
        )

    def test_row_count_matches_grid(self):
        ds = self.survey_dataset()
        config = SweepConfig(
            hidden_sizes=(2, 3), seeds=(0, 1), train=TrainConfig(max_epochs=50)
        )
        table = sweep(ds, config)
        assert len(table) == 4
        assert {(r.hidden, r.seed) for r in table} == {
            (2, 0), (2, 1), (3, 0), (3, 1)
        }

    def test_sorted_by_mse_all(self):
        ds = self.survey_dataset()
        config = SweepConfig(
            hidden_sizes=(2, 4, 6), seeds=(0, 1, 2), train=TrainConfig(max_epochs=60)
        )
        table = sweep(ds, config)
        mses = [r.all.mse for r in table]
        assert mses == sorted(mses)
        assert table[0].all.mse == min(mses)
        assert [r.rank for r in table] == list(range(1, len(mses) + 1))

    def test_deterministic(self):
        ds = self.survey_dataset()
        config = SweepConfig(
            hidden_sizes=(2, 3), seeds=(0, 1), train=TrainConfig(max_epochs=40)
        )
        assert sweep(ds, config) == sweep(ds, config)

    def test_grid_order_does_not_change_table(self):
        ds = self.survey_dataset()
        fwd = SweepConfig(
            hidden_sizes=(2, 3, 4), seeds=(0, 1), train=TrainConfig(max_epochs=40)
        )
        rev = SweepConfig(
            hidden_sizes=(4, 3, 2), seeds=(1, 0), train=TrainConfig(max_epochs=40)
        )
        assert sweep(ds, fwd) == sweep(ds, rev)

    def test_too_few_rows_for_a_test_split_fails_before_training(self, monkeypatch):
        # the smallest survey whose 15 % test split holds the two rows
        # regression_metrics needs
        assert nn._MIN_SWEEP_ROWS == 14
        assert math.floor(nn._TEST_FRACTION * nn._MIN_SWEEP_ROWS) == 2
        assert math.floor(nn._TEST_FRACTION * (nn._MIN_SWEEP_ROWS - 1)) == 1
        full = self.survey_dataset()
        calls = []
        train_stack = nn._train_stack
        monkeypatch.setattr(
            nn, "_train_stack", lambda *a: calls.append(a) or train_stack(*a)
        )
        config = SweepConfig(
            hidden_sizes=(2,), seeds=(0,), train=TrainConfig(max_epochs=5)
        )
        for n in (7, 13):
            ds = NnDataset(full.inputs[:n], full.targets[:n], full.feature_names)
            with pytest.raises(TooFewSamples, match="2-row test split needs >= 14"):
                sweep(ds, config)
        assert calls == []
        ds = NnDataset(full.inputs[:14], full.targets[:14], full.feature_names)
        assert len(sweep(ds, config)) == 1
        assert len(calls) == 1

    def test_no_seeds_gives_empty_table(self):
        config = SweepConfig(hidden_sizes=(2, 3), seeds=())
        assert sweep(self.survey_dataset(), config) == ()

    def test_default_grid_is_180_jobs(self):
        config = SweepConfig()
        assert len(config.hidden_sizes) * len(config.seeds) == 180


class TestDatasetFromSurvey:
    def test_shape_and_targets(self):
        layout = SurveyLayout(rsus=standard_rsu_row([0.0, 100.0, 200.0], [1, 7, 13]))
        survey = generate_survey(layout, ChannelModel(), seed=1)
        ds = dataset_from_survey(survey)
        assert ds.inputs.shape == (41, 3)
        assert ds.feature_names == ("ap0", "ap100", "ap200")
        assert ds.targets[0] == 0.0 and ds.targets[-1] == 200.0


class TestStackedTrainer:
    """`sweep` trains the whole grid as one stack; `train` is a stack of
    one. Both must match `reference_train` bit for bit."""

    def test_sweep_rows_match_per_network_reference(self):
        ds = TestSweep.survey_dataset()
        config = SweepConfig(
            hidden_sizes=(2, 3), seeds=(0, 1, 2, 3), train=TrainConfig(max_epochs=60)
        )
        rows = {(r.hidden, r.seed): r for r in sweep(ds, config)}
        epochs = []
        for hidden in config.hidden_sizes:
            for seed in config.seeds:
                splits = split_dataset(ds.n, seed)
                model, history = reference_train(
                    init_mlp(3, hidden, seed), ds, splits, config.train
                )
                epochs.append(len(history))
                pred = reference_forward_batch(model, ds.inputs)
                assert np.array_equal(forward_batch(model, ds.inputs), pred)
                test = list(splits.test)
                row = rows[(hidden, seed)]
                assert row.test == regression_metrics(ds.targets[test], pred[test])
                assert row.all == regression_metrics(ds.targets, pred)
        # the grid holds networks stopped on patience and networks that
        # ran to max_epochs, so the stack compacts while others train on
        assert min(epochs) < 60 and max(epochs) == 60

    @pytest.mark.parametrize(
        "dataset, splits, config",
        [
            (
                linear_task(),
                split_dataset(41, seed=3),
                TrainConfig(max_epochs=300, learning_rate=0.1, momentum=0.95),
            ),
            (TestSweep.survey_dataset(), split_dataset(41, seed=2), TrainConfig()),
        ],
        ids=["one-input", "survey"],
    )
    def test_train_matches_reference(self, dataset, splits, config):
        model = init_mlp(dataset.inputs.shape[1], 5, seed=7)
        trained, history = train(model, dataset, splits, config)
        ref_model, ref_history = reference_train(model, dataset, splits, config)
        assert trained == ref_model
        assert history == ref_history

    def test_mixed_hidden_sizes_in_one_stack_match_reference(self):
        # three blocks of hidden sizes; at patience 3 the h=4 block empties
        # at epoch 38 and the h=3 block at 62, while the h=2 networks train on
        ds = TestSweep.survey_dataset()
        hidden, seeds = (2, 2, 3, 3, 4, 4), (1, 4, 3, 5, 0, 2)
        models = [init_mlp(3, h, seed) for h, seed in zip(hidden, seeds)]
        splits = [split_dataset(ds.n, seed) for seed in seeds]
        config = TrainConfig(max_epochs=200, patience=3)
        trained, records = nn._train_stack(models, ds, splits, config)
        histories = stack_histories(records, len(models))
        last_epoch = {}
        for h, model, split, got, history in zip(
            hidden, models, splits, trained, histories
        ):
            ref_model, ref_history = reference_train(model, ds, split, config)
            assert got == ref_model
            to_m2 = ((got.out_max - got.out_min) / 2.0) ** 2
            assert [
                EpochRecord(e, t * to_m2, v * to_m2)
                for e, (t, v) in enumerate(history, start=1)
            ] == ref_history
            last_epoch[h] = max(last_epoch.get(h, 0), len(history))
        assert last_epoch == {4: 38, 3: 62, 2: 75}

    def test_descending_hidden_sizes_fail_before_training(self, monkeypatch):
        ds = TestSweep.survey_dataset()
        models = [init_mlp(3, h, seed=0) for h in (2, 4, 3)]
        splits = [split_dataset(ds.n, 0)] * 3
        calls = []
        monkeypatch.setattr(nn, "_stack_params", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=r"must ascend, got \[2, 4, 3\]"):
            nn._train_stack(models, ds, splits, TrainConfig(max_epochs=5))
        assert calls == []

    def test_train_needs_training_and_validation_rows(self):
        rows = tuple(range(0, 41, 2))
        for name, splits in [
            ("training", SplitIndices(train=(), validation=rows, test=(1, 3))),
            ("validation", SplitIndices(train=rows, validation=(), test=(1, 3))),
        ]:
            with pytest.raises(TooFewSamples, match=f"^{name} split is empty$"):
                train(init_mlp(1, 5, seed=7), linear_task(), splits, TrainConfig())


MODEL_ARRAYS = ("w1", "b1", "w2", "in_min", "in_max")


class TestBufferOwnership:
    """The stack updates its buffers in place and compacts them when a
    network stops; none of that may reach a model handed in or handed back."""

    @pytest.fixture()
    def stack_buffers(self, monkeypatch):
        """Every (S, K) buffer the trainer makes views of, in order."""
        seen = []
        param_views = nn._param_views

        def recording(buf, n_hidden):
            seen.append(buf)
            return param_views(buf, n_hidden)

        monkeypatch.setattr(nn, "_param_views", recording)
        return seen

    @staticmethod
    def check(inputs, snapshots, trained, buffers):
        for model, snapshot in zip(inputs, snapshots):
            assert model == snapshot
        arrays = [
            (i, getattr(m, a)) for i, m in enumerate(trained) for a in MODEL_ARRAYS
        ]
        for (i, a), (j, b) in itertools.combinations(arrays, 2):
            assert i == j or not np.shares_memory(a, b)
        handed_in = [getattr(m, a) for m in inputs for a in MODEL_ARRAYS]
        for _, a in arrays:
            assert not any(np.shares_memory(a, b) for b in buffers + handed_in)

    def test_train(self, stack_buffers):
        ds = TestSweep.survey_dataset()
        model = init_mlp(3, 5, seed=1)
        snapshot = copy.deepcopy(model)
        splits = split_dataset(ds.n, 1)
        trained, _ = train(model, ds, splits, TrainConfig(max_epochs=40))
        assert stack_buffers
        self.check([model], [snapshot], [trained], stack_buffers)

    def test_train_stack_that_compacts_mid_run(self, stack_buffers):
        ds = TestSweep.survey_dataset()
        seeds = range(6)
        models = [init_mlp(3, 4, seed) for seed in seeds]
        snapshots = [copy.deepcopy(m) for m in models]
        splits = [split_dataset(ds.n, seed) for seed in seeds]
        config = TrainConfig(max_epochs=200, patience=3)
        trained, records = nn._train_stack(models, ds, splits, config)
        # some networks stopped while others trained on in a smaller stack
        epochs = sorted(len(h) for h in stack_histories(records, len(models)))
        assert epochs[0] < epochs[-1]
        assert sorted({len(b) for b in stack_buffers})[0] < len(models)
        self.check(models, snapshots, trained, stack_buffers)

    def test_sweep(self, stack_buffers, monkeypatch):
        calls = []
        train_stack = nn._train_stack

        def recording(models, *args):
            snapshots = [copy.deepcopy(m) for m in models]
            trained, history = train_stack(models, *args)
            calls.append((models, snapshots, trained))
            return trained, history

        monkeypatch.setattr(nn, "_train_stack", recording)
        config = SweepConfig(
            hidden_sizes=(2, 3), seeds=(0, 1, 2), train=TrainConfig(max_epochs=60)
        )
        sweep(TestSweep.survey_dataset(), config)
        # one lockstep stack holds the whole grid
        [(models, snapshots, trained)] = calls
        assert [(m.n_hidden, len(m.b1)) for m in trained] == [(2, 2)] * 3 + [(3, 3)] * 3
        self.check(models, snapshots, trained, stack_buffers)
