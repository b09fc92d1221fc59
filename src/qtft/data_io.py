"""CSV ingestion for daily stock tables and machine-readable run reports.

Report files are line-oriented UTF-8 with LF endings; every float is
written with ``repr`` so re-reading reproduces the values bit for bit.
Wall-clock timing is deliberately kept out of the canonical report file
(it goes to a sidecar) so reports from identical runs are byte-identical.
"""

from __future__ import annotations

import csv
import datetime
import math
import os
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Base class for ingestion problems."""


class MissingColumnError(DataError):
    def __init__(self, column: str):
        super().__init__(f"column {column!r} not found in CSV header")
        self.column = column


class DuplicateColumnError(DataError):
    """Two requested columns (features or target) name the same CSV header."""

    def __init__(self, column: str, first: str):
        super().__init__(f"column {column!r} is requested twice (also as {first!r})")
        self.column = column


class UnorderedDatesError(DataError):
    """A date that does not come strictly after the date on the row before it."""

    def __init__(self, line: int, date: str, previous_line: int, previous: str):
        super().__init__(f"line {line}: date {date!r} does not come after {previous!r} "
                         f"on line {previous_line}")
        self.line = line
        self.previous_line = previous_line


class SnapshotError(DataError):
    """A parameter snapshot cannot rebuild the model it names."""


class ParseError(DataError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Header spellings seen across public NIFTY-50 dumps, mapped to one key.
_SYNONYMS = {
    "prev close": "previous close",
    "previous close": "previous close",
    "%deliverble": "deliverable percent",
    "%deliverable": "deliverable percent",
    "deliverable percent": "deliverable percent",
}


def _canon(name: str) -> str:
    key = name.strip().lower()
    return _SYNONYMS.get(key, key)


@dataclass
class TimeSeriesTable:
    """Numeric columns of a chronologically ordered series, dates alongside."""

    columns: list[str]
    rows: np.ndarray          # (T, m) floats
    dates: list[str]

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise DataError("rows and columns disagree on arity")

    def column_index(self, name: str) -> int:
        target = _canon(name)
        for i, col in enumerate(self.columns):
            if _canon(col) == target:
                return i
        raise MissingColumnError(name)


def load_csv(path: str, feature_columns: list[str], target_column: str) -> TimeSeriesTable:
    """Load a comma-separated table restricted to date + requested columns.

    Header matching is case-insensitive and accepts the usual NIFTY-50
    spelling variants.  Two requested names for one header (a target listed
    among the features included) are an error, and so are two header cells
    for one requested name.  Any non-numeric cell in a requested column is
    a row-level parse error carrying the 1-based line number.  With a date column, every date must be an ISO date
    (YYYY-MM-DD) later than the one on the row before.  A UTF-8 byte-order
    mark before the header, as spreadsheets write, is skipped.
    """
    requested = list(feature_columns) + [target_column]
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "empty file") from None
        keys = [_canon(h) for h in header]
        lookup = {key: i for i, key in enumerate(keys)}
        date_idx = lookup.get("date")
        indices = []
        for name in requested:
            idx = lookup.get(_canon(name))
            if idx is None:
                raise MissingColumnError(name)
            if keys.count(keys[idx]) > 1:
                raise ParseError(1, f"column {name!r} matches header columns "
                                    f"{keys.index(keys[idx]) + 1} and {idx + 1}")
            if idx in indices:
                raise DuplicateColumnError(name, requested[indices.index(idx)])
            indices.append(idx)
        rows, dates = [], []
        previous = None   # (line, date) of the last row
        for line_no, record in enumerate(reader, start=2):
            if not record:
                continue
            values = []
            for name, idx in zip(requested, indices):
                if idx >= len(record):
                    raise ParseError(line_no, f"missing value for column {name!r}")
                cell = record[idx].strip()
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(line_no, f"column {name!r} value {cell!r} is not numeric") from None
                if not np.isfinite(v):
                    raise ParseError(line_no, f"column {name!r} value {cell!r} is not finite")
                values.append(v)
            rows.append(values)
            if date_idx is None:
                dates.append("")
                continue
            cell = record[date_idx].strip() if date_idx < len(record) else ""
            try:
                day = datetime.date.fromisoformat(cell)
            except ValueError:
                raise ParseError(line_no, f"date {cell!r} is not an ISO date (YYYY-MM-DD)") from None
            if previous is not None and day <= previous[1]:
                raise UnorderedDatesError(line_no, cell, previous[0], dates[-1])
            previous = (line_no, day)
            dates.append(cell)
    return TimeSeriesTable(columns=requested, rows=np.array(rows, dtype=float).reshape(len(rows), len(requested)),
                           dates=dates)


# --------------------------------------------------------------------------
# Run reports
# --------------------------------------------------------------------------

@dataclass
class RunReport:
    config: dict[str, object]
    loss_history: list[float]            # mean quantile loss per recorded epoch
    loss_history_sum: list[float]        # same curve summed over windows
    final_train_loss: float
    final_test_loss: float
    predictions: list[tuple[int, float, float]]   # (time_index, true, predicted)
    param_count: int
    seed: int
    wall_clock_seconds: float = 0.0


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_report(report: RunReport, out_dir: str) -> str:
    """Write report.txt plus flat loss.csv / predictions.csv tables.

    Returns the report path.  Timing goes to timing.txt only, so the
    three canonical files are reproducible byte for byte.
    """
    os.makedirs(out_dir, exist_ok=True)
    # Each table is its header line and rows, in report.txt and in its own CSV file.
    loss = ["epoch,loss_mean,loss_sum"] + [
        f"{e},{_fmt(lm)},{_fmt(ls)}"
        for e, (lm, ls) in enumerate(zip(report.loss_history, report.loss_history_sum))]
    predictions = ["time_index,true,predicted"] + [
        f"{t},{_fmt(y)},{_fmt(yhat)}" for t, y, yhat in report.predictions]
    lines = ["# qtft run report"]
    lines += [f"config.{key} = {_fmt(report.config[key])}" for key in sorted(report.config)]
    lines += [f"seed = {report.seed}",
              f"param_count = {report.param_count}",
              f"final_train_loss = {_fmt(report.final_train_loss)}",
              f"final_test_loss = {_fmt(report.final_test_loss)}",
              "", "[loss_history]", *loss, "", "[predictions]", *predictions, ""]
    files = {"report.txt": "\n".join(lines),
             "loss.csv": "\n".join(loss) + "\n",
             "predictions.csv": "\n".join(predictions) + "\n",
             "timing.txt": f"wall_clock_seconds = {report.wall_clock_seconds!r}\n"}
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return os.path.join(out_dir, "report.txt")


def read_report(path: str) -> dict:
    """Parse report.txt back into config, loss arrays and prediction rows."""
    config: dict[str, str] = {}
    scalars: dict[str, str] = {}
    loss_history: list[float] = []
    loss_history_sum: list[float] = []
    predictions: list[tuple[int, float, float]] = []
    section = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                section = line.strip("[]")
                continue
            if section is None:
                key, _, value = line.partition(" = ")
                if key.startswith("config."):
                    config[key[len("config."):]] = value
                else:
                    scalars[key] = value
            elif section == "loss_history":
                if line.startswith("epoch,"):
                    continue
                _, lm, ls = line.split(",")
                loss_history.append(float(lm))
                loss_history_sum.append(float(ls))
            elif section == "predictions":
                if line.startswith("time_index,"):
                    continue
                t, y, yhat = line.split(",")
                predictions.append((int(t), float(y), float(yhat)))
    return {
        "config": config,
        "scalars": scalars,
        "loss_history": loss_history,
        "loss_history_sum": loss_history_sum,
        "predictions": predictions,
    }


# --------------------------------------------------------------------------
# Parameter snapshots (flat text, reviewable in diffs)
# --------------------------------------------------------------------------

def save_params(named_leaves: list[tuple[str, object]], config: dict[str, object],
                path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# qtft parameter snapshot\n")
        for key in sorted(config):
            fh.write(f"config.{key} = {_fmt(config[key])}\n")
        for name, node in named_leaves:
            value = np.asarray(node.value, dtype=float)
            shape = "x".join(str(s) for s in value.shape) or "scalar"
            flat = " ".join(repr(float(v)) for v in value.reshape(-1))
            fh.write(f"{name} | {shape} | {flat}\n")


def load_params(path: str, required_config: tuple[str, ...] = ()
                ) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Read a snapshot back; the first of ``required_config`` it lacks is an error,
    and so is a leaf line that is not ``name | shape | values`` (naming the line)
    and a leaf or ``config.`` key set on two lines (naming both)."""
    config: dict[str, str] = {}
    arrays: dict[str, np.ndarray] = {}
    line_of: dict[str, int] = {}   # each key read so far -> its line
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if line.startswith("config."):
                key, _, value = line.partition(" = ")
                config[key[len("config."):]] = value
            else:
                try:
                    key, shape_s, flat = (part.strip() for part in line.split("|"))
                    shape = () if shape_s == "scalar" else tuple(int(s) for s in shape_s.split("x"))
                    values = np.array([float(tok) for tok in flat.split()], dtype=float)
                    if values.size != math.prod(shape):
                        raise ValueError(f"{values.size} values for shape {shape_s}")
                    arrays[key] = values.reshape(shape)
                except ValueError as exc:
                    raise SnapshotError(f"snapshot {path} line {line_no}: expected "
                                        f"'name | shape | values' ({exc})") from None
            if key in line_of:
                raise SnapshotError(f"snapshot {path} sets {key} on line {line_of[key]} "
                                    f"and again on line {line_no}")
            line_of[key] = line_no
    missing = [key for key in required_config if key not in config]
    if missing:
        raise SnapshotError(f"snapshot {path} has no config.{missing[0]} line")
    return config, arrays
