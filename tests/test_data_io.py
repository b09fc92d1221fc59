import re

import numpy as np
import pytest

from qtft.data_io import (
    DuplicateColumnError,
    MissingColumnError,
    ParseError,
    RunReport,
    SnapshotError,
    TimeSeriesTable,
    UnorderedDatesError,
    load_csv,
    load_params,
    read_report,
    save_params,
    write_report,
)
from qtft.grad import param


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


SMALL = """Date,Open,High,Low,Last,Close
2000-01-03,27.15,27.60,26.50,26.90,26.85
2000-01-04,26.75,27.20,26.05,26.40,26.45
2000-01-05,26.35,26.80,25.95,26.35,26.30
"""


def test_load_small_table(tmp_path):
    table = load_csv(write(tmp_path, SMALL), ["Open", "High", "Low", "Last"], "Close")
    assert table.rows.shape == (3, 5)
    assert table.dates == ["2000-01-03", "2000-01-04", "2000-01-05"]
    assert table.columns == ["Open", "High", "Low", "Last", "Close"]
    np.testing.assert_allclose(table.rows[0], [27.15, 27.60, 26.50, 26.90, 26.85])


def test_load_missing_column(tmp_path):
    with pytest.raises(MissingColumnError) as exc:
        load_csv(write(tmp_path, SMALL), ["Foo"], "Close")
    assert "Foo" in str(exc.value)


def test_load_duplicate_columns(tmp_path):
    path = write(tmp_path, SMALL)
    with pytest.raises(DuplicateColumnError) as exc:
        load_csv(path, ["Open", "High", "open"], "Close")
    assert exc.value.column == "open" and "open" in str(exc.value)
    with pytest.raises(DuplicateColumnError) as exc:   # the target among the features
        load_csv(path, ["Open", "Close"], "Close")
    assert exc.value.column == "Close"
    synonyms = write(tmp_path, "Date,Prev Close,Close\n2000-01-03,27.0,26.85\n", "s.csv")
    with pytest.raises(DuplicateColumnError) as exc:
        load_csv(synonyms, ["Prev Close", "Previous Close"], "Close")
    assert exc.value.column == "Previous Close"


@pytest.mark.parametrize("header, feature, ambiguous", [
    ("Date,Close,Open,Close", "Open", "Close"),
    ("Date,Prev Close,Open,Previous Close,Close", "Prev Close", "Prev Close"),
])
def test_load_rejects_two_header_cells_for_one_requested_column(tmp_path, header, feature,
                                                                 ambiguous):
    path = write(tmp_path, header + "\n2000-01-03,1.0,2.0,3.0,4.0\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path, [feature], "Close")
    assert exc.value.line == 1
    assert f"column {ambiguous!r} matches header columns 2 and 4" in str(exc.value)


def test_load_allows_a_duplicate_header_that_is_not_requested(tmp_path):
    path = write(tmp_path, "Date,Volume,Open,Volume,Close\n2000-01-03,1.0,2.0,3.0,4.0\n")
    np.testing.assert_array_equal(load_csv(path, ["Open"], "Close").rows, [[2.0, 4.0]])


def test_load_parse_error_line_number(tmp_path):
    bad = SMALL.replace("26.35,26.80", "not-a-number,26.80")
    with pytest.raises(ParseError) as exc:
        load_csv(write(tmp_path, bad), ["Open"], "Close")
    assert exc.value.line == 4


@pytest.mark.parametrize("dates, lines", [
    (("2000-01-05", "2000-01-03", "2000-01-03"), (2, 3)),   # backwards
    (("2000-01-03", "2000-01-04", "2000-01-04"), (3, 4)),   # repeated
    (("2000-01-03", "2000-02-01", "2000-01-10"), (3, 4)),   # backwards across a month
])
def test_load_rejects_dates_out_of_order(tmp_path, dates, lines):
    body = "".join(f"{d},27.15,26.85\n" for d in dates)
    with pytest.raises(UnorderedDatesError) as exc:
        load_csv(write(tmp_path, "Date,Open,Close\n" + body), ["Open"], "Close")
    assert (exc.value.previous_line, exc.value.line) == lines
    assert f"line {lines[0]}" in str(exc.value) and f"line {lines[1]}" in str(exc.value)


@pytest.mark.parametrize("cell", ["03-01-2000", "", "2000-13-01"])
def test_load_rejects_dates_that_are_not_iso(tmp_path, cell):
    text = f"Date,Open,Close\n2000-01-03,27.15,26.85\n{cell},26.75,26.45\n"
    with pytest.raises(ParseError) as exc:
        load_csv(write(tmp_path, text), ["Open"], "Close")
    assert exc.value.line == 3 and "date" in str(exc.value)


def test_load_without_a_date_column_keeps_row_order(tmp_path):
    table = load_csv(write(tmp_path, "Open,Close\n27.15,26.85\n26.75,26.45\n"), ["Open"], "Close")
    assert table.dates == ["", ""] and table.rows.shape == (2, 2)


def test_load_missing_file():
    with pytest.raises(FileNotFoundError):
        load_csv("/nonexistent/file.csv", ["Open"], "Close")


def test_header_synonyms(tmp_path):
    text = ("Date,Prev Close,Close,%Deliverble\n"
            "2000-01-03,27.0,26.85,0.35\n")
    table = load_csv(write(tmp_path, text), ["Previous Close", "Deliverable Percent"],
                     "Close")
    np.testing.assert_allclose(table.rows[0], [27.0, 0.35, 26.85])


def test_quoted_fields(tmp_path):
    text = ('Date,Open,Close\n"2000-01-03","27.15","26.85"\n')
    table = load_csv(write(tmp_path, text), ["Open"], "Close")
    np.testing.assert_allclose(table.rows[0], [27.15, 26.85])


def test_axis_sample_close_range(axis_csv):
    table = load_csv(axis_csv, ["Open", "High", "Low", "Last"], "Close")
    closes = table.rows[:20, table.column_index("Close")]
    assert 23.0 <= closes.min() <= 24.0
    assert 31.0 <= closes.max() <= 32.0


def test_row_order_preserved(axis_csv):
    table = load_csv(axis_csv, ["Open"], "Close")
    assert table.dates == sorted(table.dates)
    assert table.dates[0] == "2000-01-03"


def test_a_byte_order_mark_does_not_hide_the_date_column(axis_csv, tmp_path):
    """Spreadsheets save "CSV UTF-8" with a byte-order mark before the first
    header; the date column must still be found, and its order checked."""
    with open(axis_csv, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    table = load_csv(write(tmp_path, "\ufeff" + "".join(lines), "bom.csv"), ["Open"], "Close")
    assert table.dates[0] == "2000-01-03" and table.dates == sorted(table.dates)
    lines[5], lines[6] = lines[6], lines[5]
    with pytest.raises(UnorderedDatesError) as exc:
        load_csv(write(tmp_path, "\ufeff" + "".join(lines), "swapped.csv"), ["Open"], "Close")
    assert (exc.value.previous_line, exc.value.line) == (6, 7)


def test_case_insensitive_headers(tmp_path):
    text = "DATE,open,CLOSE\n2000-01-03,27.15,26.85\n"
    table = load_csv(write(tmp_path, text), ["Open"], "Close")
    assert table.rows.shape == (1, 2)


# -------------------------------------------------------------------- reports

def sample_report():
    return RunReport(
        config={"model": "tft", "epochs": 3, "lr": 0.1},
        loss_history=[12.3456789012345678, 8.1, 5.0000000001],
        loss_history_sum=[209.87654321, 137.7, 85.0],
        final_train_loss=5.0000000001,
        final_test_loss=7.25,
        predictions=[(2, 26.3, 25.1), (3, 25.95, 25.2)],
        param_count=688,
        seed=1,
        wall_clock_seconds=12.5,
    )


def test_report_round_trip_exact(tmp_path):
    report = sample_report()
    path = write_report(report, str(tmp_path / "run"))
    parsed = read_report(path)
    assert parsed["loss_history"] == report.loss_history
    assert parsed["loss_history_sum"] == report.loss_history_sum
    assert parsed["predictions"] == report.predictions
    assert parsed["config"]["model"] == "tft"
    assert parsed["scalars"]["param_count"] == "688"


def test_report_history_row_count(tmp_path):
    report = sample_report()
    path = write_report(report, str(tmp_path / "run"))
    lines = [l for l in open(str(tmp_path / "run" / "loss.csv"))]
    assert len(lines) == 1 + len(report.loss_history)


def test_report_empty_predictions(tmp_path):
    report = sample_report()
    report.predictions = []
    path = write_report(report, str(tmp_path / "run"))
    parsed = read_report(path)
    assert parsed["predictions"] == []


def test_predictions_csv_round_trip(tmp_path):
    report = sample_report()
    write_report(report, str(tmp_path / "run"))
    rows = []
    with open(str(tmp_path / "run" / "predictions.csv")) as fh:
        next(fh)
        for line in fh:
            t, y, yhat = line.strip().split(",")
            rows.append((int(t), float(y), float(yhat)))
    assert rows == report.predictions


def test_timing_kept_out_of_report(tmp_path):
    report = sample_report()
    path = write_report(report, str(tmp_path / "run"))
    assert "wall_clock" not in open(path).read()
    timing = open(str(tmp_path / "run" / "timing.txt")).read()
    assert "12.5" in timing


def test_table_arity_validation():
    with pytest.raises(Exception):
        TimeSeriesTable(columns=["a", "b"], rows=np.zeros((3, 3)), dates=["x"] * 3)


# ------------------------------------------------------------------ snapshots

def test_params_snapshot_round_trip(tmp_path):
    leaves = [("block.W", param(np.array([[1.5, -2.25], [0.125, 3.0]]))),
              ("block.b", param(np.array([0.1234567890123456789])))]
    path = str(tmp_path / "params.txt")
    save_params(leaves, {"model": "tft", "seed": 1}, path)
    config, arrays = load_params(path)
    assert config["model"] == "tft"
    np.testing.assert_array_equal(arrays["block.W"], leaves[0][1].value)
    np.testing.assert_array_equal(arrays["block.b"], leaves[1][1].value)


def test_params_snapshot_names_first_missing_config_key(tmp_path):
    leaves = [("block.b", param(np.array([0.5])))]
    path = str(tmp_path / "params.txt")
    save_params(leaves, {"model": "tft", "lr": 0.1, "seed": 1}, path)
    with pytest.raises(SnapshotError, match=r"config\.epochs"):
        load_params(path, ("model", "epochs", "lr", "quantile"))
    config, _ = load_params(path, ("model", "lr"))
    assert config["lr"] == "0.1"


@pytest.mark.parametrize("line", [
    "block.b 0.5",
    "block.b | 2 | 0.5",
    "block.b | 1 | half",
    "block.b | 1xb | 0.5",
], ids=["no-separators", "too-few-values", "not-a-float", "bad-shape"])
def test_params_snapshot_names_malformed_leaf_line(tmp_path, line):
    path = tmp_path / "params.txt"
    path.write_text("# qtft parameter snapshot\nconfig.model = tft\n"
                    f"block.W | 1x2 | 1.0 2.0\n{line}\n", encoding="utf-8")
    with pytest.raises(SnapshotError, match=rf"{re.escape(str(path))} line 4:"):
        load_params(str(path))


@pytest.mark.parametrize("lines,key,first,second", [
    ("config.seed = 1\nconfig.seed = 2\nblock.b | 1 | 0.5\n", "config.seed", 2, 3),
    ("config.seed = 1\nblock.b | 1 | 0.5\nblock.W | 1 | 1.0\nblock.b | 1 | 0.25\n",
     "block.b", 3, 5),
], ids=["config-key", "leaf"])
def test_params_snapshot_rejects_a_key_set_twice(tmp_path, lines, key, first, second):
    """The last of two lines would otherwise win silently, so both line numbers are named."""
    path = tmp_path / "params.txt"
    path.write_text("# qtft parameter snapshot\n" + lines, encoding="utf-8")
    with pytest.raises(SnapshotError, match=rf"{re.escape(key)} on line {first} "
                                            rf"and again on line {second}"):
        load_params(str(path))
