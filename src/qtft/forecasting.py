"""Sliding windows, quantile loss and the training / evaluation loops."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grad
from .qtft_core import ANSATZE, ENCODINGS, QTFTModel
from .tft_core import TFTModel

MODEL_KINDS = ("tft", "qtft", "qtft-qlstm")


class TrainingDivergedError(RuntimeError):
    """Raised when an epoch produces a non-finite loss."""

    def __init__(self, epoch: int, value: float):
        super().__init__(f"training diverged at epoch {epoch}: loss = {value!r}")
        self.epoch = epoch


@dataclass
class WindowedSample:
    """One sliding-window example.

    ``past`` holds the k observed rows up to the anchor, ``future_known``
    the known inputs over the forecast horizon, ``targets`` the true
    target values the model must predict.  ``anchor`` is the global row
    index of the last past step (kept for reporting).
    """

    past: np.ndarray           # (k, m_past)
    future_known: np.ndarray   # (tau, m_future)
    static: np.ndarray         # (m_static,), may be empty
    targets: np.ndarray        # (tau,)
    anchor: int = -1

    def __post_init__(self):
        self.past = np.asarray(self.past, dtype=float)
        self.future_known = np.asarray(self.future_known, dtype=float)
        self.static = np.asarray(self.static, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.targets.shape[0] != self.future_known.shape[0]:
            raise ValueError("targets and future_known must cover the same horizon")


class ConfigError(ValueError):
    """A run setting that ``TrainConfig`` rejects; ``field`` names its field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class TrainConfig:
    """Every setting of a run, checked once and frozen.

    Both models, the CLI's flags, report echo and snapshot reader derive from it.
    """

    quantile: float = 0.5
    learning_rate: float = 0.1
    epochs: int = 100
    past_steps: int = 2
    forecast_steps: int = 2
    train_range: tuple[int, int] = (0, 19)   # inclusive row interval
    test_range: tuple[int, int] = (20, 26)
    seed: int = 1
    model_kind: str = "tft"
    d_model: int = 2
    ansatz_layers: int = 2
    heads: int = 1
    encoding: str = "angle"
    ansatz: str = "basic"
    scale: bool = False
    use_causal_mask: bool = False

    def __post_init__(self):
        (a, b), (c, d) = self.train_range, self.test_range
        for field, ok, rule in (
            ("quantile", 0.0 < self.quantile < 1.0, "quantile must lie in (0, 1)"),
            ("learning_rate", 0.0 <= self.learning_rate < math.inf,
             "learning rate must be finite and >= 0"),
            ("epochs", self.epochs >= 0, "epochs must be >= 0"),
            ("past_steps", self.past_steps >= 1, "past_steps must be >= 1"),
            ("forecast_steps", self.forecast_steps >= 1, "forecast_steps must be >= 1"),
            ("d_model", self.d_model >= 1, "d_model must be >= 1"),
            ("ansatz_layers", self.ansatz_layers >= 1, "ansatz_layers must be >= 1"),
            ("heads", self.heads >= 1, "heads must be >= 1"),
            ("seed", self.seed >= 0, "seed must be >= 0"),
            ("train_range", 0 <= a <= b, "ranges must be (first, last) with 0 <= first <= last"),
            ("test_range", 0 <= c <= d, "ranges must be (first, last) with 0 <= first <= last"),
            ("test_range", max(a, c) > min(b, d), f"test range overlaps train range {(a, b)}"),
            ("model_kind", self.model_kind in MODEL_KINDS,
             f"model_kind must be one of {MODEL_KINDS}"),
            ("encoding", self.encoding in ENCODINGS, f"encoding must be one of {ENCODINGS}"),
            ("ansatz", self.ansatz in ANSATZE, f"ansatz must be one of {ANSATZE}"),
        ):
            if not ok:
                raise ConfigError(field, f"{rule}, got {getattr(self, field)!r}")


def quantile_loss(y, yhat, q: float) -> float:
    """Mean pinball loss (1/m) sum max((q-1)(y - yhat), q(y - yhat)): ``grad.pinball``'s value."""
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or y.size == 0:
        raise ValueError(f"need equal nonempty shapes, got {y.shape} and {yhat.shape}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    return float(grad.pinball(y, yhat, q).value[0])


def make_windows(series: np.ndarray, target_col: int, k: int, tau_max: int,
                 rows_range: tuple[int, int], known_cols: tuple[int, ...] = (),
                 static: tuple[float, ...] = ()) -> list[WindowedSample]:
    """Stride-1 overlapping windows over an inclusive row interval.

    For each anchor t the past is rows [t-k+1, t] of the observed columns
    (everything not in ``known_cols``), the targets are the target column
    at rows [t+1, t+tau_max] and the known future inputs are
    ``known_cols`` at those same rows.
    """
    series = np.asarray(series, dtype=float)
    first, last = rows_range
    if first < 0 or last >= series.shape[0] or first > last:
        raise ValueError(f"row range {rows_range} outside series of length {series.shape[0]}")
    length = last - first + 1
    if length < k + tau_max:
        raise ValueError(f"range of {length} rows cannot hold {k} past + {tau_max} future steps")
    observed_cols = [c for c in range(series.shape[1]) if c not in known_cols]
    static_arr = np.asarray(static, dtype=float)
    samples = []
    for t in range(first + k - 1, last - tau_max + 1):
        samples.append(WindowedSample(
            past=series[t - k + 1:t + 1][:, observed_cols],
            future_known=(series[t + 1:t + tau_max + 1][:, list(known_cols)]
                          if known_cols else np.zeros((tau_max, 0))),
            static=static_arr,
            targets=series[t + 1:t + tau_max + 1, target_col],
            anchor=t,
        ))
    return samples


def build_stock_windows(values: np.ndarray, target_col: int, cfg: TrainConfig):
    """The desk-scale stock setup: train and test windows from one table.

    The observed columns are the requested features plus the target; the
    known-future stream is a single time index normalized to [0, 1]; the
    static stream is a single constant 1.0 (one entity).  Optional
    per-feature min-max scaling is fitted on the training rows only, so no
    statistic of the test rows reaches the model, and applied to all rows.
    """
    values = np.asarray(values, dtype=float)
    if cfg.scale:
        first, last = cfg.train_range
        fit = values[first:last + 1]
        if fit.shape[0] == 0:
            raise ValueError(f"train range {cfg.train_range} outside series of "
                             f"length {values.shape[0]}")
        lo, hi = fit.min(axis=0), fit.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        values = (values - lo) / span
    t_max = max(values.shape[0] - 1, 1)
    time_index = (np.arange(values.shape[0], dtype=float) / t_max)[:, None]
    series = np.hstack([values, time_index])
    known = (series.shape[1] - 1,)
    train = make_windows(series, target_col, cfg.past_steps, cfg.forecast_steps,
                         cfg.train_range, known, static=(1.0,))
    test = make_windows(series, target_col, cfg.past_steps, cfg.forecast_steps,
                        cfg.test_range, known, static=(1.0,))
    return train, test


def build_model(cfg: TrainConfig, num_past_vars: int, num_future_vars: int,
                num_static_vars: int):
    """Seeded model construction for any of the three model kinds."""
    model_class = TFTModel if cfg.model_kind == "tft" else QTFTModel
    return model_class(cfg, num_past_vars, num_future_vars, num_static_vars)


def stack_windows(samples):
    """(static, past, future_known, targets) of all windows, each stacked on a leading axis."""
    return tuple(np.stack([getattr(s, name) for s in samples])
                 for name in ("static", "past", "future_known", "targets"))


def batch_loss_node(model, samples, q: float) -> grad.Node:
    """Mean quantile loss over all windows and forecast steps, as one graph node.

    All windows go through one batched forward pass.
    """
    static, past, future, targets = stack_windows(samples)
    return grad.pinball(targets, model.predict_nodes(static, past, future)[0], q)


def train(model, samples, cfg: TrainConfig) -> list[float]:
    """Full-batch gradient descent; returns epochs + 1 loss history entries.

    Entry 0 is the loss before any update; entry e is the loss after e
    updates.  The loss graph built for entry e drives the backward pass
    of the following epoch, so each epoch costs one forward pass.
    """
    if not samples:
        raise ValueError("train needs at least one window")
    leaves = model.leaves()
    loss = batch_loss_node(model, samples, cfg.quantile)
    history = [float(loss.value[0])]
    if not np.isfinite(history[0]):
        raise TrainingDivergedError(0, history[0])
    for epoch in range(1, cfg.epochs + 1):
        grad.backward(loss)
        grad.sgd_step(leaves, cfg.learning_rate)
        loss = batch_loss_node(model, samples, cfg.quantile)
        value = float(loss.value[0])
        if not np.isfinite(value):
            raise TrainingDivergedError(epoch, value)
        history.append(value)
    return history


def evaluate(model, samples, q: float) -> float:
    """The training loss (``batch_loss_node``) over the given windows, built without a tape."""
    if not samples:
        raise ValueError("evaluate needs at least one window")
    with grad.no_tape():
        return float(batch_loss_node(model, samples, q).value[0])


def window_predictions(model, samples) -> list[tuple[int, float, float]]:
    """(global time index, true value, predicted value) per window and step."""
    static, past, future, targets = stack_windows(samples)
    return [(s.anchor + 1 + i, float(y), float(p))
            for s, ys, ps in zip(samples, targets, model.predict(static, past, future))
            for i, (y, p) in enumerate(zip(ys, ps))]
