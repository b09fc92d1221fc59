"""The benchmark's workloads and the paths they share.

Each workload is one model configuration trained, evaluated and queried
through qtft's public API on a generated CSV (see ``gendata``).  Why each
workload exists, and the metric names and units, are written once, in
``BENCHMARK.json``.  This module imports nothing from qtft, so ``run.py``
can validate arguments and generate inputs before the package is loaded.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

FEATURES = ["Open", "High", "Low", "Last"]
TARGET = "Close"

# BLAS / OpenMP pools are pinned to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

BLOCKS = ("embed", "vsn_static", "static_encoders", "vsn_past", "vsn_future",
          "recurrence", "post_lstm_gate", "enrichment", "attention",
          "post_attn_gate", "positionwise", "final_gate", "heads")


@dataclass(frozen=True)
class Workload:
    name: str
    model_kind: str
    d_model: int
    past_steps: int
    forecast_steps: int
    encoding: str
    ansatz: str
    csv_rows: int                  # rows in the generated CSV
    train_range: tuple[int, int]   # inclusive row intervals
    test_range: tuple[int, int]
    epochs: int                    # epochs per timed train call
    evaluates_per_round: int       # evaluate calls over the test windows per round
    predicts_per_round: int        # single-window predicts per round
    grad_entries: int              # leaf entries probed by the gradient check

    def train_config(self):
        """The ``TrainConfig`` for this workload (imports qtft)."""
        from qtft.forecasting import TrainConfig

        return TrainConfig(
            quantile=0.5, learning_rate=0.1, epochs=self.epochs,
            past_steps=self.past_steps, forecast_steps=self.forecast_steps,
            train_range=self.train_range, test_range=self.test_range, seed=1,
            model_kind=self.model_kind, d_model=self.d_model, ansatz_layers=2,
            encoding=self.encoding, ansatz=self.ansatz,
        )

    def describe(self) -> dict[str, object]:
        k, tau = self.past_steps, self.forecast_steps
        return {
            "model": self.model_kind, "d_model": self.d_model,
            "past_steps": k, "forecast_steps": tau,
            "encoding": self.encoding, "ansatz": self.ansatz,
            "csv_rows": self.csv_rows,
            "train_windows": self.train_range[1] - self.train_range[0] + 2 - k - tau,
            "test_windows": self.test_range[1] - self.test_range[0] + 2 - k - tau,
            "epochs_per_train_call": self.epochs,
            "evaluates_per_round": self.evaluates_per_round,
            "predicts_per_round": self.predicts_per_round,
        }


_DESK = dict(d_model=2, past_steps=2, forecast_steps=2, encoding="angle", ansatz="basic",
             csv_rows=30, train_range=(0, 19), test_range=(20, 26))

WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk-tft",
        model_kind="tft", epochs=2, evaluates_per_round=20, predicts_per_round=200,
        grad_entries=12, **_DESK),
    Workload(
        name="desk-qtft",
        model_kind="qtft", epochs=1, evaluates_per_round=3, predicts_per_round=60,
        grad_entries=12, **_DESK),
    # Not in BENCHMARK.json (see README.md): 4-5 qubit circuits, shift
    # Jacobians of ~65 rows dominate training; run by hand to trace them.
    Workload(
        name="wide-qlstm",
        model_kind="qtft-qlstm", d_model=4, past_steps=10, forecast_steps=5,
        encoding="zz", ansatz="nlocal", csv_rows=32, train_range=(0, 14),
        test_range=(15, 31), epochs=1, evaluates_per_round=1, predicts_per_round=30,
        grad_entries=4),
)}


def tiny(w: Workload) -> Workload:
    """The same configuration with the least work per phase, for tests."""
    return replace(w, epochs=1, evaluates_per_round=1, predicts_per_round=11)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def pin_threads(env) -> None:
    for var in THREAD_VARS:
        env[var] = "1"


def use_source_tree() -> None:
    """Import qtft from this checkout's ``src``, ahead of anything installed."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
