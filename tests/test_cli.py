import dataclasses
import os

import numpy as np
import pytest

from qtft.cli import format_compare, gradcheck_suite, main
from qtft.data_io import read_report
from qtft.forecasting import MODEL_KINDS, TrainConfig

FAST = ["--train-range", "0:9", "--test-range", "10:14", "--epochs", "2"]


def train_args(axis_csv, out, extra=(), model="tft"):
    return ["train", "--data", axis_csv, "--model", model, "--out", out,
            *FAST, *extra]


def test_train_writes_report_and_exits_zero(axis_csv, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out)) == 0
    assert os.path.exists(os.path.join(out, "report.txt"))
    assert os.path.exists(os.path.join(out, "loss.csv"))
    assert os.path.exists(os.path.join(out, "predictions.csv"))
    assert os.path.exists(os.path.join(out, "params.txt"))
    captured = capsys.readouterr().out
    assert "final train loss" in captured and "final test loss" in captured
    # one prediction row per window and forecast step: (7 + 2) windows x 2
    report = read_report(os.path.join(out, "report.txt"))
    assert len(report["predictions"]) == 9 * 2


def test_invalid_quantile_is_flag_error(axis_csv, tmp_path):
    out = str(tmp_path / "run")
    code = main(train_args(axis_csv, out, ["--quantile", "1.5"]))
    assert code == 2
    assert not os.path.exists(out)  # no computation happened


@pytest.mark.parametrize("lr", ["nan", "inf", "-1"])
def test_negative_or_non_finite_lr_is_flag_error(axis_csv, tmp_path, capsys, lr):
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out, ["--lr", lr])) == 2
    assert "--lr" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--train-range", "-3:19"),
                                        ("--test-range", "-5:-1")])
def test_negative_seed_or_row_index_is_flag_error(axis_csv, tmp_path, capsys, flag, value):
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out, [f"{flag}={value}"])) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command,flag,field", [
    (["train"], "--test-range", "test_range (20, 26)"),
    (["train", "--train-range", "0:10"], "--train-range", "train_range (0, 10)"),
], ids=["test_range", "train_range"])
def test_a_range_too_short_for_one_window_names_the_range_and_its_flag(
        axis_csv, tmp_path, capsys, command, flag, field):
    out = str(tmp_path / "run")
    assert main([*command, "--data", axis_csv, "--past-steps", "10", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and field in err
    assert "10 past + 2 future" in err


def test_eval_range_too_short_for_one_window_names_its_flag(axis_csv, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out)) == 0
    capsys.readouterr()
    assert main(["eval", "--snapshot", os.path.join(out, "params.txt"), "--data", axis_csv,
                 "--range", "20:22"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --range: ") and "test_range (20, 22)" in err


@pytest.mark.parametrize("ranges,flag,field", [
    (["--train-range", "0:40", "--test-range", "41:50"], "--train-range", "train_range (0, 40)"),
    (["--test-range", "20:40"], "--test-range", "test_range (20, 40)"),
    (["--scale", "--train-range", "40:50", "--test-range", "51:60"], "--train-range",
     "train_range (40, 50)"),
], ids=["train_range", "test_range", "scaled_train_range"])
def test_a_range_past_the_csv_names_the_range_and_its_flag(axis_csv, tmp_path, capsys, ranges,
                                                           flag, field):
    out = str(tmp_path / "run")
    assert main(["train", "--data", axis_csv, *ranges, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and field in err and "30 rows" in err
    assert not os.path.exists(out)


def test_eval_range_past_the_csv_names_its_flag(axis_csv, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out)) == 0
    capsys.readouterr()
    assert main(["eval", "--snapshot", os.path.join(out, "params.txt"), "--data", axis_csv,
                 "--range", "20:60"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --range: ") and "test_range (20, 60)" in err


def test_eval_names_a_snapshot_test_range_past_the_csv(axis_csv, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out)) == 0
    snap = os.path.join(out, "params.txt")
    with open(snap, encoding="utf-8") as fh:
        lines = ["config.test_range = 10:40\n" if line.startswith("config.test_range ") else line
                 for line in fh]
    with open(snap, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    capsys.readouterr()
    assert main(["eval", "--snapshot", snap, "--data", axis_csv]) == 1
    err = capsys.readouterr().err
    assert "config.test_range" in err and "test_range (10, 40)" in err and "30 rows" in err


def test_the_long_window_command_of_the_readme_runs(axis_csv, tmp_path):
    out = str(tmp_path / "run")
    assert main(["train", "--data", axis_csv, "--out", out, "--past-steps", "10",
                 "--forecast-steps", "5", "--train-range", "0:14", "--test-range", "15:29",
                 "--epochs", "1"]) == 0
    # one test window: rows 15-24 are its past and 25-29 its targets
    report = read_report(os.path.join(out, "report.txt"))
    assert len(report["predictions"]) == (1 + 1) * 5


def test_unknown_flag_is_exit_two(axis_csv, tmp_path):
    assert main(["train", "--data", axis_csv, "--nope"]) == 2


def test_missing_data_file_is_runtime_error(tmp_path):
    code = main(["train", "--data", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "o"), *FAST])
    assert code == 1


def test_duplicate_feature_is_runtime_error(axis_csv, tmp_path, capsys):
    for features, column in (("Open,High,open", "open"), ("Open,Close", "Close")):
        out = str(tmp_path / column)
        assert main(train_args(axis_csv, out, ["--features", features])) == 1
        assert repr(column) in capsys.readouterr().err
        assert not os.path.exists(out)


def test_dates_out_of_order_are_runtime_error(axis_csv, tmp_path, capsys):
    with open(axis_csv, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    lines[5], lines[6] = lines[6], lines[5]
    data = tmp_path / "swapped.csv"
    data.write_text("".join(lines), encoding="utf-8")
    out = str(tmp_path / "run")
    assert main(train_args(str(data), out)) == 1
    err = capsys.readouterr().err
    assert "line 6" in err and "line 7" in err
    assert not os.path.exists(out)


def test_zero_epochs_single_history_entry(axis_csv, tmp_path):
    out = str(tmp_path / "run")
    args = train_args(axis_csv, out)
    args[args.index("--epochs") + 1] = "0"
    assert main(args) == 0
    report = read_report(os.path.join(out, "report.txt"))
    assert len(report["loss_history"]) == 1


def test_config_echoed_into_report(axis_csv, tmp_path):
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out, ["--seed", "9"])) == 0
    cfg = read_report(os.path.join(out, "report.txt"))["config"]
    assert cfg["model"] == "tft"
    assert cfg["epochs"] == "2"
    assert cfg["seed"] == "9"
    assert cfg["train_range"] == "0:9"


def test_train_without_optional_flags_echoes_the_train_config_defaults(axis_csv, tmp_path):
    out = str(tmp_path / "run")
    assert main(["train", "--data", axis_csv, "--out", out]) == 0
    echo = read_report(os.path.join(out, "report.txt"))["config"]
    key_of = {"model_kind": "model", "learning_rate": "lr", "use_causal_mask": "causal_mask"}
    for field in dataclasses.fields(TrainConfig):
        value = field.default
        text = f"{value[0]}:{value[1]}" if isinstance(value, tuple) else str(value)
        assert echo.pop(key_of.get(field.name, field.name)) == text, field.name
    assert echo == {"data": axis_csv, "features": "Open,High,Low,Last", "target": "Close"}


def test_out_dir_env_var(axis_csv, tmp_path, monkeypatch):
    target = str(tmp_path / "from-env")
    monkeypatch.setenv("QTFT_OUT_DIR", target)
    args = train_args(axis_csv, "ignored")
    args.remove("--out")
    args.remove("ignored")
    assert main(args) == 0
    assert os.path.exists(os.path.join(target, "report.txt"))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_eval_matches_train_test_loss(axis_csv, tmp_path, capsys, kind):
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out, model=kind)) == 0
    trained = capsys.readouterr().out
    reported = float(trained.split("final test loss:")[1].splitlines()[0].strip())
    code = main(["eval", "--snapshot", os.path.join(out, "params.txt"),
                 "--data", axis_csv])
    assert code == 0
    evaluated = float(capsys.readouterr().out.split("eval loss:")[1].strip())
    assert evaluated == reported


@pytest.mark.parametrize("kind,line,leaf", [
    ("tft", "encoder_lstm.wf.b", lambda p: p.encoder_lstm.b.value[1]),
    ("qtft-qlstm", "decoder_lstm.wg.vqc.weights", lambda p: p.decoder_lstm.vqc.weights.value[2]),
])
def test_eval_writes_a_labelled_gate_line_into_its_slice(axis_csv, tmp_path, monkeypatch, kind,
                                                         line, leaf):
    """The LSTM gates wi, wf, wg and wo are sets 0-3 of one stacked leaf: a
    gate's snapshot line sets that gate's slice of it and nothing else."""
    from qtft import forecasting
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out, model=kind)) == 0
    snap = os.path.join(out, "params.txt")
    with open(snap, encoding="utf-8") as fh:
        lines = fh.readlines()
    at = next(i for i, text in enumerate(lines) if text.startswith(line + " |"))
    name, shape, values = lines[at].split(" | ")
    edited = [0.125 * (j + 1) for j in range(len(values.split()))]
    lines[at] = f"{name} | {shape} | {' '.join(map(repr, edited))}\n"
    with open(snap, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    models, evaluate = [], forecasting.evaluate
    monkeypatch.setattr(forecasting, "evaluate",
                        lambda model, *args: models.append(model) or evaluate(model, *args))
    assert main(["eval", "--snapshot", snap, "--data", axis_csv]) == 0
    (model,) = models
    np.testing.assert_array_equal(leaf(model.params), np.reshape(edited, leaf(model.params).shape))
    named = dict(model.named_leaves())
    for text in (text for text in lines if " | " in text):
        name, _, values = text.rstrip("\n").split(" | ")
        assert named[name].value.ravel().tolist() == [float(v) for v in values.split()], name


def test_eval_missing_snapshot(axis_csv, tmp_path):
    code = main(["eval", "--snapshot", str(tmp_path / "none.txt"), "--data", axis_csv])
    assert code == 1


def test_eval_names_mismatched_snapshot_leaves(axis_csv, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out)) == 0
    snap = os.path.join(out, "params.txt")
    with open(snap, encoding="utf-8") as fh:
        text = fh.read()
    with open(snap, "w", encoding="utf-8") as fh:
        fh.write(text.replace("final_glu.gate.W |", "final_qglu.gate.W |"))
    capsys.readouterr()
    assert main(["eval", "--snapshot", snap, "--data", axis_csv]) == 1
    err = capsys.readouterr().err
    assert "no leaf final_glu.gate.W" in err
    assert "unexpected leaf final_qglu.gate.W" in err


@pytest.mark.parametrize("old,missing,unexpected", [
    ("selection", None, "static_vsn.flatten_proj.W"),
    ("head", "heads.W", "heads.0.W"),
    ("both", "heads.W", "static_vsn.flatten_proj.W"),
])
def test_eval_refuses_a_snapshot_of_the_never_run_blocks(axis_csv, tmp_path, capsys, old,
                                                         missing, unexpected):
    """Snapshots once held the selection blocks of the one-variable networks
    and named the one head ``heads.0``; such a snapshot does not load."""
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out)) == 0
    snap = os.path.join(out, "params.txt")
    with open(snap, encoding="utf-8") as fh:
        lines = fh.readlines()
    if old != "head":
        at = next(i for i, line in enumerate(lines) if line.startswith("past_vsn."))
        lines.insert(at, "static_vsn.flatten_proj.W | 1x2 | 0.5 -0.5\n")
    if old != "selection":
        lines = [line.replace("heads.", "heads.0.", 1) if line.startswith("heads.") else line
                 for line in lines]
    with open(snap, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    capsys.readouterr()
    assert main(["eval", "--snapshot", snap, "--data", axis_csv]) == 1
    problems = [f"no leaf {missing}"] if missing else []
    problems.append(f"unexpected leaf {unexpected}")
    assert capsys.readouterr().err.rstrip().endswith(" model: " + "; ".join(problems))


def test_eval_names_missing_snapshot_config_key(axis_csv, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out)) == 0
    snap = os.path.join(out, "params.txt")
    with open(snap, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("config.epochs ")]
    with open(snap, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    capsys.readouterr()
    assert main(["eval", "--snapshot", snap, "--data", axis_csv]) == 1
    assert "config.epochs" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("d_model", "two"), ("scale", "yes"),
                                       ("d_model", "0"), ("encoding", "bogus")])
def test_eval_names_mistyped_snapshot_config_value(axis_csv, tmp_path, capsys, key, value):
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out)) == 0
    snap = os.path.join(out, "params.txt")
    with open(snap, encoding="utf-8") as fh:
        lines = [f"config.{key} = {value}\n" if line.startswith(f"config.{key} ") else line
                 for line in fh]
    with open(snap, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    capsys.readouterr()
    assert main(["eval", "--snapshot", snap, "--data", axis_csv]) == 1
    err = capsys.readouterr().err
    assert f"config.{key}" in err and value in err


@pytest.mark.parametrize("value", ["a:b", "20", "26:20", "1:2:3"])
def test_eval_range_flag_is_validated(axis_csv, tmp_path, capsys, value):
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out)) == 0
    capsys.readouterr()
    code = main(["eval", "--snapshot", os.path.join(out, "params.txt"), "--data", axis_csv,
                 "--range", value])
    assert code == 2
    err = capsys.readouterr().err
    assert "--range" in err and "FIRST" in err and "invalid literal" not in err


@pytest.mark.parametrize("value", ["0:9", "5:12", "9:9"])
def test_eval_range_overlapping_train_range_is_flag_error(axis_csv, tmp_path, capsys, value):
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out)) == 0
    capsys.readouterr()
    code = main(["eval", "--snapshot", os.path.join(out, "params.txt"), "--data", axis_csv,
                 "--range", value])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --range: ") and "overlaps train range (0, 9)" in err
    assert "config." not in err


@pytest.mark.parametrize("key", ["train_range", "test_range"])
@pytest.mark.parametrize("value", ["a:b", "20", "14:10"])
def test_eval_names_malformed_snapshot_range(axis_csv, tmp_path, capsys, key, value):
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out)) == 0
    snap = os.path.join(out, "params.txt")
    with open(snap, encoding="utf-8") as fh:
        lines = [f"config.{key} = {value}\n" if line.startswith(f"config.{key} ") else line
                 for line in fh]
    with open(snap, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    capsys.readouterr()
    assert main(["eval", "--snapshot", snap, "--data", axis_csv]) == 1
    err = capsys.readouterr().err
    assert f"config.{key} = {value}" in err and "FIRST:LAST" in err


def test_eval_deterministic_repeat(axis_csv, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(train_args(axis_csv, out)) == 0
    capsys.readouterr()
    snap = os.path.join(out, "params.txt")

    def once():
        assert main(["eval", "--snapshot", snap, "--data", axis_csv]) == 0
        return capsys.readouterr().out

    assert once() == once()


def test_train_runs_deterministic(axis_csv, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(train_args(axis_csv, out1, ["--seed", "3"])) == 0
    assert main(train_args(axis_csv, out2, ["--seed", "3"])) == 0
    for name in ("report.txt", "loss.csv", "predictions.csv", "params.txt"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name


def test_compare_emits_three_rows_with_published_values(axis_csv, tmp_path, capsys):
    out = str(tmp_path / "cmp")
    code = main(["compare", "--data", axis_csv, "--out", out,
                 "--train-range", "0:7", "--test-range", "8:12", "--epochs", "1"])
    assert code == 0
    text = open(os.path.join(out, "compare.txt")).read()
    lines = text.strip().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("TFT,")
    assert lines[2].startswith("QTFT (Without QLSTM),")
    assert lines[3].startswith("QTFT (With QLSTM),")
    assert "0.2630" in lines[1] and "0.9856" in lines[1]
    assert "0.2028" in lines[2] and "0.8381" in lines[2]
    assert "0.1711" in lines[3] and "0.8007" in lines[3]
    assert capsys.readouterr().out.strip().splitlines()[:1] == lines[:1]


def test_compare_identical_reruns(axis_csv, tmp_path):
    args = ["compare", "--data", axis_csv, "--train-range", "0:7",
            "--test-range", "8:12", "--epochs", "1", "--seed", "4"]
    out1, out2 = str(tmp_path / "c1"), str(tmp_path / "c2")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert open(os.path.join(out1, "compare.txt")).read() == \
        open(os.path.join(out2, "compare.txt")).read()


def test_format_compare_layout():
    text = format_compare([("tft", 0.5, 0.6), ("qtft", 0.4, 0.5),
                           ("qtft-qlstm", 0.3, 0.4)])
    lines = text.strip().splitlines()
    assert lines[0].split(",")[0] == "model"
    assert [l.split(",")[0] for l in lines[1:]] == \
        ["TFT", "QTFT (Without QLSTM)", "QTFT (With QLSTM)"]


def test_gradcheck_suite_passes_and_detects_faults(capsys):
    results = gradcheck_suite(seed=3)
    for name, (dev, tol) in results.items():
        assert dev <= tol, name
    # a deliberately corrupted oracle must show up as a nonzero deviation
    corrupted = gradcheck_suite(seed=3, perturb=0.05)
    dev, tol = corrupted["parameter_shift_vs_fd"]
    assert dev > tol


def test_gradcheck_command_reports_and_exits(capsys):
    assert main(["gradcheck", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "runtime" in out
    assert out.count("PASS") >= 5
    assert main(["gradcheck", "--seed", "3", "--perturb", "0.05"]) == 1


def test_gradcheck_has_no_out_flag(capsys):
    # gradcheck writes no files, so an output directory is a usage error
    assert main(["gradcheck", "--out", "x"]) == 2
    assert "--out" in capsys.readouterr().err
