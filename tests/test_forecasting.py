import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtft import grad
from qtft.forecasting import (
    ConfigError,
    MODEL_KINDS,
    TrainConfig,
    TrainingDivergedError,
    WindowedSample,
    batch_loss_node,
    build_model,
    build_stock_windows,
    evaluate,
    make_windows,
    quantile_loss,
    stack_windows,
    train,
    window_predictions,
)
from qtft.qtft_core import QTFTModel
from qtft.tft_core import TFTModel


class ConstantModel:
    """Predicts one trainable value per forecast step for every window; linear test double."""

    def __init__(self, tau, value=0.0):
        self.bias = grad.param(np.full(tau, float(value)))

    def predict_nodes(self, static, past, future):
        return [grad.add(self.bias, np.zeros(np.shape(future)[:-1]))]

    def predict(self, static, past, future):
        return self.predict_nodes(static, past, future)[0].value

    def leaves(self):
        return [self.bias]


class NaNModel(ConstantModel):
    def predict_nodes(self, static, past, future):
        return [grad.const(np.full(np.shape(future)[:-1], np.nan))]


def sample_of(targets, k=2):
    tau = len(targets)
    return WindowedSample(past=np.zeros((k, 3)), future_known=np.zeros((tau, 1)),
                          static=np.array([1.0]), targets=np.asarray(targets, float))


# -------------------------------------------------------------- quantile loss

def test_quantile_loss_worked_examples():
    assert quantile_loss([1.0, 2.0], [1.0, 2.0], 0.5) == 0.0
    assert quantile_loss([2.0], [0.0], 0.5) == pytest.approx(1.0, abs=1e-12)
    assert quantile_loss([0.0], [1.0], 0.9) == pytest.approx(0.1, abs=1e-12)


def test_quantile_loss_is_half_mae(rng):
    y = rng.uniform(-5, 5, 40)
    yhat = rng.uniform(-5, 5, 40)
    assert quantile_loss(y, yhat, 0.5) == 0.5 * np.abs(y - yhat).mean()


def test_quantile_loss_nonnegative_and_validated(rng):
    y, yhat = rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)
    assert quantile_loss(y, yhat, 0.123) >= 0.0
    with pytest.raises(ValueError):
        quantile_loss(y, yhat[:3], 0.5)
    with pytest.raises(ValueError):
        quantile_loss(y, yhat, 1.5)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=8),
       st.floats(0.05, 0.95),
       st.randoms())
def test_quantile_loss_permutation_invariant(values, q, pyrandom):
    y = np.array(values)
    yhat = y[::-1].copy()
    order = list(range(len(values)))
    pyrandom.shuffle(order)
    assert quantile_loss(y, yhat, q) == pytest.approx(
        quantile_loss(y[order], yhat[order], q), abs=1e-12)


# -------------------------------------------------------------------- windows

def test_make_windows_enumeration():
    series = np.arange(10, dtype=float).reshape(5, 2)
    samples = make_windows(series, target_col=0, k=2, tau_max=2, rows_range=(0, 4))
    assert len(samples) == 2
    assert [s.anchor for s in samples] == [1, 2]
    np.testing.assert_array_equal(samples[0].past, series[0:2])
    np.testing.assert_array_equal(samples[0].targets, series[2:4, 0])


def test_make_windows_minimal():
    series = np.arange(4, dtype=float).reshape(2, 2)
    samples = make_windows(series, 0, k=1, tau_max=1, rows_range=(0, 1))
    assert len(samples) == 1


def test_make_windows_overlap():
    series = np.arange(14, dtype=float).reshape(7, 2)
    samples = make_windows(series, 0, k=3, tau_max=1, rows_range=(0, 6))
    for a, b in zip(samples, samples[1:]):
        np.testing.assert_array_equal(a.past[1:], b.past[:-1])


def test_make_windows_insufficient_rows():
    series = np.zeros((4, 2))
    with pytest.raises(ValueError):
        make_windows(series, 0, k=3, tau_max=2, rows_range=(0, 3))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(2, 20))
def test_window_count_formula(k, tau, length):
    series = np.zeros((length, 2))
    expected = length - k - tau + 1
    if expected <= 0:
        with pytest.raises(ValueError):
            make_windows(series, 0, k, tau, (0, length - 1))
    else:
        got = make_windows(series, 0, k, tau, (0, length - 1))
        assert len(got) == expected


def test_known_columns_split():
    series = np.arange(24, dtype=float).reshape(6, 4)
    samples = make_windows(series, 1, k=2, tau_max=1, rows_range=(0, 5),
                           known_cols=(3,), static=(1.0,))
    s = samples[0]
    assert s.past.shape == (2, 3)           # known column removed from past
    assert s.future_known.shape == (1, 1)
    np.testing.assert_array_equal(s.future_known, series[2:3, 3:4])
    np.testing.assert_array_equal(s.static, [1.0])


def test_build_stock_windows_defaults(axis_csv):
    from qtft import data_io
    table = data_io.load_csv(axis_csv, ["Open", "High", "Low", "Last"], "Close")
    cfg = TrainConfig()
    train_w, test_w = build_stock_windows(table.rows, table.column_index("Close"), cfg)
    assert len(train_w) == 17 and len(test_w) == 4
    assert train_w[0].past.shape == (2, 5)
    assert train_w[0].future_known.shape == (2, 1)
    assert np.all((train_w[0].future_known >= 0) & (train_w[0].future_known <= 1))


def test_build_stock_windows_scaling(axis_csv):
    from qtft import data_io
    table = data_io.load_csv(axis_csv, ["Open", "High", "Low", "Last"], "Close")
    cfg = TrainConfig(scale=True)
    train_w, _ = build_stock_windows(table.rows, table.column_index("Close"), cfg)
    assert np.all(train_w[0].past >= 0) and np.all(train_w[0].past <= 1)


def test_build_stock_windows_scaling_fits_on_training_rows(axis_csv):
    from qtft import data_io
    table = data_io.load_csv(axis_csv, ["Open", "High", "Low", "Last"], "Close")
    close = table.column_index("Close")
    cfg = TrainConfig(scale=True)
    moved = table.rows.copy()
    moved[cfg.test_range[0] + 2, close] += 1000.0
    before, _ = build_stock_windows(table.rows, close, cfg)
    after, _ = build_stock_windows(moved, close, cfg)
    assert len(before) == len(after) == 17
    for a, b in zip(before, after):
        np.testing.assert_array_equal(a.past, b.past)
        np.testing.assert_array_equal(a.future_known, b.future_known)
        np.testing.assert_array_equal(a.targets, b.targets)


# --------------------------------------------------------------------- config

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(quantile=1.5)
    with pytest.raises(ValueError):
        TrainConfig(train_range=(0, 10), test_range=(5, 15))
    with pytest.raises(ValueError):
        TrainConfig(past_steps=0)
    with pytest.raises(ValueError):
        TrainConfig(model_kind="mystery")


@pytest.mark.parametrize("lr", [-1.0, float("nan"), float("inf"), float("-inf")])
def test_train_config_rejects_learning_rate_that_is_negative_or_not_finite(lr):
    with pytest.raises(ValueError, match="learning rate"):
        TrainConfig(learning_rate=lr)


@pytest.mark.parametrize("field,value", [("d_model", 0), ("heads", 0), ("ansatz_layers", 0),
                                         ("encoding", "bogus"), ("ansatz", "bogus")])
def test_train_config_rejects_a_model_setting_no_model_can_be_built_from(field, value):
    # every model is built from a checked TrainConfig, so heads=0 or d_model=0 never
    # reaches a ZeroDivisionError in the model code
    with pytest.raises(ConfigError, match=field) as info:
        build_model(TrainConfig(**{field: value}), 5, 1, 1)
    assert info.value.field == field
    with pytest.raises(ConfigError, match=field):
        dataclasses.replace(TrainConfig(), **{field: value})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(TrainConfig(), field, value)   # nor can a checked config be edited past its checks


@pytest.mark.parametrize("field,changes", [
    ("seed", {"seed": -1}),
    ("train_range", {"train_range": (-3, 19)}),
    ("test_range", {"train_range": (10, 19), "test_range": (-3, 5)}),
])
def test_train_config_rejects_a_negative_seed_or_row_index(field, changes):
    with pytest.raises(ConfigError, match="0 <= |>= 0") as info:
        TrainConfig(**changes)
    assert info.value.field == field


# --------------------------------------------------------- model construction

@pytest.mark.parametrize("model_class,kind", [(TFTModel, "qtft"), (TFTModel, "qtft-qlstm"),
                                              (QTFTModel, "tft")])
def test_model_class_rejects_another_model_kind(model_class, kind):
    with pytest.raises(ConfigError, match="model_kind") as info:
        model_class(TrainConfig(model_kind=kind), 5, 1, 1)
    assert info.value.field == "model_kind"


@pytest.mark.parametrize("kind", ["tft", "qtft"])
@pytest.mark.parametrize("counts,name", [((0, 1, 1), "num_past_vars"),
                                         ((5, 0, 1), "num_future_vars"),
                                         ((5, 1, 0), "num_static_vars")])
def test_model_rejects_a_zero_variable_count_before_drawing_weights(kind, counts, name,
                                                                    monkeypatch):
    model_class = TFTModel if kind == "tft" else QTFTModel
    monkeypatch.setattr(model_class, "init_params", lambda *args: pytest.fail("drew weights"))
    with pytest.raises(ValueError, match=name):
        model_class(TrainConfig(model_kind=kind), *counts)


@pytest.mark.parametrize("kind,count,leaves,digest", [
    ("tft", 688, 185, "fd7185296af02797"),
    ("qtft", 506, 118, "ba7f3f31c2d53be8"),
    ("qtft-qlstm", 538, 126, "2acddf4614f38797"),
])
def test_build_model_keeps_param_counts_and_leaf_names(kind, count, leaves, digest):
    # The leaf names are the keys of params.txt: a change orphans every saved snapshot.
    model = build_model(TrainConfig(model_kind=kind), 5, 1, 1)
    assert type(model) is (TFTModel if kind == "tft" else QTFTModel)
    assert model.kind == kind
    names = [name for name, _ in model.named_leaves()]
    assert (model.param_count(), len(names)) == (count, leaves)
    assert hashlib.sha256("\n".join(names).encode()).hexdigest()[:16] == digest
    assert [n for n in names if n.startswith("heads.")] == ["heads.0.W", "heads.0.b"]


# ------------------------------------------------------------------- training

def test_train_zero_epochs_single_entry():
    cfg = TrainConfig(epochs=0, train_range=(0, 9), test_range=(10, 12))
    history = train(ConstantModel(2), [sample_of([1.0, 2.0])], cfg)
    assert len(history) == 1


def test_train_zero_learning_rate_constant_history():
    cfg = TrainConfig(epochs=5, learning_rate=0.0)
    history = train(ConstantModel(2), [sample_of([1.0, 2.0])], cfg)
    assert len(set(history)) == 1


def test_train_descends_on_constant_model():
    cfg = TrainConfig(epochs=50, learning_rate=0.1)
    model = ConstantModel(2)
    history = train(model, [sample_of([3.0, 3.0])], cfg)
    assert history[-1] < history[0]
    assert len(history) == 51


def test_train_bit_identical_given_seed():
    def run():
        cfg = TrainConfig(epochs=8)
        model = ConstantModel(2, value=0.5)
        return train(model, [sample_of([3.0, 1.0]), sample_of([2.0, 4.0])], cfg)

    assert run() == run()


def test_train_diverged_error_carries_epoch():
    cfg = TrainConfig(epochs=3)
    with pytest.raises(TrainingDivergedError) as exc:
        train(NaNModel(2), [sample_of([1.0, 1.0])], cfg)
    assert exc.value.epoch == 0
    assert "epoch 0" in str(exc.value)


@pytest.mark.parametrize("kind,count,selection_leaves", [("tft", 688, 21), ("qtft", 506, 15)])
def test_one_variable_selection_leaves_stay_and_get_no_gradient(axis_csv, kind, count,
                                                                 selection_leaves):
    from qtft import data_io
    table = data_io.load_csv(axis_csv, ["Open", "High", "Low", "Last"], "Close")
    cfg = TrainConfig(epochs=2, model_kind=kind)
    train_w, _ = build_stock_windows(table.rows, table.column_index("Close"), cfg)
    model = build_model(cfg, 5, 1, 1)
    names = [name for name, _ in model.named_leaves()]
    # The static and future networks select among one variable each.
    selection = {name: leaf for name, leaf in model.named_leaves()
                 if name.startswith(("static_vsn.", "future_vsn.")) and ".var_grns." not in name}
    before = {name: leaf.value.copy() for name, leaf in selection.items()}
    train(model, train_w, cfg)
    grad.backward(batch_loss_node(model, train_w, cfg.quantile))
    for name, leaf in selection.items():
        assert leaf.grad is None, name
        np.testing.assert_array_equal(leaf.value, before[name])
    assert dict(model.named_leaves())["past_vsn.flatten_proj.W"].grad is not None
    assert [name for name, _ in model.named_leaves()] == names
    assert len(selection) == selection_leaves and model.param_count() == count


def test_train_requires_samples():
    with pytest.raises(ValueError):
        train(ConstantModel(2), [], TrainConfig())


# ----------------------------------------------------------------- evaluation

def test_evaluate_perfect_predictor_is_zero():
    model = ConstantModel(2, value=5.0)
    assert evaluate(model, [sample_of([5.0, 5.0])], 0.5) == 0.0


def test_evaluate_pure():
    model = ConstantModel(2, value=1.0)
    samples = [sample_of([2.0, 0.0]), sample_of([4.0, 4.0])]
    assert evaluate(model, samples, 0.3) == evaluate(model, samples, 0.3)


def test_evaluate_matches_history_head():
    samples = [sample_of([2.0, 0.0]), sample_of([4.0, 4.0])]
    model = ConstantModel(2, value=1.0)
    history = train(model, samples, TrainConfig(epochs=0))
    fresh = ConstantModel(2, value=1.0)
    assert evaluate(fresh, samples, 0.5) == history[0]


def test_window_predictions_layout():
    model = ConstantModel(2, value=1.5)
    s = sample_of([2.0, 3.0])
    s.anchor = 10
    rows = window_predictions(model, [s])
    assert rows == [(11, 2.0, 1.5), (12, 3.0, 1.5)]


# ------------------------------------------------------------- pinned results

NON_DEFAULT = dict(encoding="zz", ansatz="nlocal", heads=2, use_causal_mask=True)

# (1-epoch loss history, test loss, param_count) on the AXIS sample, default
# train/test ranges, for each model kind at the defaults and at NON_DEFAULT.
PINNED_RUNS = {
    ("tft", False): ([12.598462243380105, 12.523462760516798],
                     16.07971276051679, 688),
    ("tft", True): ([12.14262625135596, 12.067626912282272],
                    15.623876912282284, 684),
    ("qtft", False): ([12.311929929315419, 12.236930335719853],
                      15.79318033571985, 506),
    ("qtft", True): ([12.530483319776774, 12.455483658274309],
                     16.01173365827431, 676),
    ("qtft-qlstm", False): ([12.316901692587749, 12.241902221627528],
                            15.798152221627529, 538),
    ("qtft-qlstm", True): ([12.604041647757281, 12.529042704361231],
                           16.085292704361233, 724),
}


@pytest.mark.parametrize("kind,non_default", sorted(PINNED_RUNS))
def test_short_run_results_are_pinned(axis_csv, kind, non_default):
    from qtft import data_io
    table = data_io.load_csv(axis_csv, ["Open", "High", "Low", "Last"], "Close")
    cfg = TrainConfig(epochs=1, model_kind=kind, **(NON_DEFAULT if non_default else {}))
    train_w, test_w = build_stock_windows(table.rows, table.column_index("Close"), cfg)
    model = build_model(cfg, 5, 1, 1)
    want_history, want_test, want_count = PINNED_RUNS[kind, non_default]
    assert train(model, train_w, cfg) == pytest.approx(want_history, rel=1e-12, abs=0)
    assert evaluate(model, test_w, cfg.quantile) == pytest.approx(want_test, rel=1e-12, abs=0)
    assert model.param_count() == want_count


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_evaluate_is_the_training_loss_and_predictions_are_predict(axis_csv, kind):
    from qtft import data_io
    table = data_io.load_csv(axis_csv, ["Open", "High", "Low", "Last"], "Close")
    cfg = TrainConfig(epochs=1, model_kind=kind)
    train_w, test_w = build_stock_windows(table.rows, table.column_index("Close"), cfg)
    model = build_model(cfg, 5, 1, 1)
    history = train(model, train_w, cfg)
    assert evaluate(model, train_w, cfg.quantile) == history[-1]
    windows = train_w + test_w
    static, past, future, targets = stack_windows(windows)
    rows = window_predictions(model, windows)
    assert [p for _, _, p in rows] == model.predict(static, past, future).ravel().tolist()
    assert [y for _, y, _ in rows] == targets.ravel().tolist()
