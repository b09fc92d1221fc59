"""Command-line entry point: train / eval / compare / gradcheck.

Exit codes: 0 success, 1 runtime failure, 2 flag validation failure.
The effective configuration is echoed into every report so no flag can
silently change a default.  ``QTFT_OUT_DIR`` supplies the default output
directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import data_io, forecasting, grad, qtft_core, reference, tft_core
from .forecasting import ConfigError, TrainConfig

# Loss table published for the AXIS BANK experiment: (train, test) per model.
PUBLISHED_LOSSES = {
    "tft": (0.2630, 0.9856),
    "qtft": (0.2028, 0.8381),
    "qtft-qlstm": (0.1711, 0.8007),
}
COMPARE_LABELS = {
    "tft": "TFT",
    "qtft": "QTFT (Without QLSTM)",
    "qtft-qlstm": "QTFT (With QLSTM)",
}

# The run keys, as (TrainConfig field, default).  Each key is a flag (--past-steps)
# and a config.past_steps line of report.txt and params.txt.  There is one key per
# TrainConfig field, named after it but for the three in _KEY_OF_FIELD; the field's
# default and its type are the flag's and the snapshot reader's.  features and
# target name the CSV columns, which TrainConfig does not hold.
_KEY_OF_FIELD = {"model_kind": "model", "learning_rate": "lr", "use_causal_mask": "causal_mask"}
RUN_KEYS = {**{_KEY_OF_FIELD.get(f.name, f.name): (f.name, f.default)
               for f in dataclasses.fields(TrainConfig)},
            "features": (None, "Open,High,Low,Last"), "target": (None, "Close")}
_RANGE_HELP = "inclusive rows, FIRST:LAST"
FLAG_OPTIONS = {"model": {"choices": forecasting.MODEL_KINDS},
                "train_range": {"help": _RANGE_HELP}, "test_range": {"help": _RANGE_HELP},
                "encoding": {"choices": qtft_core.ENCODINGS},
                "ansatz": {"choices": qtft_core.ANSATZE},
                "scale": {"help": "min-max scale features first"},
                "features": {"help": "comma-separated columns"}}
# What a run key's text must look like, by the type of its default.
_EXPECTED = {bool: "True or False", tuple: "FIRST:LAST with FIRST <= LAST"}


def _columns(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def _parse(key: str, text: str):
    """A run key's value, of its default's type, from its text; a ValueError says what it expects."""
    kind = type(RUN_KEYS[key][1])
    try:
        if kind is bool:
            return {"True": True, "False": False}[text]
        if kind is tuple:
            first, _, last = text.partition(":")
            value = int(first), int(last)
            if value[0] > value[1]:
                raise ValueError(text)
        else:
            value = kind(text)
    except (KeyError, ValueError):
        raise ValueError(_EXPECTED.get(kind) or f"a value of type {kind.__name__}") from None
    if key == "features" and not _columns(value):
        raise ValueError("at least one column name")
    return value


def _flag_type(key: str):
    """The argparse type of a run key's flag: :func:`_parse`, naming what it expects."""
    def parse(text: str):
        try:
            return _parse(key, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected {exc}, got {text!r}") from None
    return parse


def _add_train_flags(p: argparse.ArgumentParser, with_model: bool = True):
    p.add_argument("--data", required=True, help="input CSV path")
    for key, (_, default) in RUN_KEYS.items():
        if key == "model" and not with_model:
            continue
        kind = {"action": "store_true"} if isinstance(default, bool) else {"type": _flag_type(key)}
        p.add_argument("--" + key.replace("_", "-"), default=default, **kind,
                       **FLAG_OPTIONS.get(key, {}))
    p.add_argument("--out", default=None, help="output directory (default $QTFT_OUT_DIR or ./runs)")
    p.add_argument("--verbose", "-v", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qtft",
                                     description="hybrid quantum-classical multi-horizon forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model and write a run report")
    _add_train_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved parameter snapshot")
    p_eval.add_argument("--snapshot", required=True, help="params.txt from a train run")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--range", default=None, type=_flag_type("test_range"),
                        help="inclusive rows, FIRST:LAST (default: snapshot test range)")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="train tft, qtft and qtft-qlstm under one config")
    _add_train_flags(p_cmp, with_model=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_gc = sub.add_parser("gradcheck", help="run the gradient/property suite")
    p_gc.add_argument("--seed", type=int, default=1)
    p_gc.add_argument("--perturb", type=float, default=0.0,
                      help="inject this offset into the finite-difference oracle")
    p_gc.set_defaults(func=cmd_gradcheck)
    return parser


def _out_dir(args) -> str:
    if getattr(args, "out", None):
        return args.out
    return os.environ.get("QTFT_OUT_DIR", "runs")


def _config(values: dict[str, object]) -> TrainConfig:
    """The TrainConfig of run key values; a rejected value raises ConfigError."""
    return TrainConfig(**{field: values[key] for key, (field, _) in RUN_KEYS.items() if field})


def _config_echo(cfg: TrainConfig, args) -> dict[str, object]:
    """The config.* lines of a run: every run key, a range as FIRST:LAST, and the data path."""
    echo = {"data": args.data}
    for key, (field, _) in RUN_KEYS.items():
        value = getattr(cfg, field) if field else getattr(args, key)
        echo[key] = f"{value[0]}:{value[1]}" if isinstance(value, tuple) else value
    return echo


def _windows_and_model(cfg: TrainConfig, data: str, features: str, target: str):
    """Train and test windows of the CSV table under ``cfg``, and the seeded model for them."""
    table = data_io.load_csv(data, _columns(features), target)
    train_w, test_w = forecasting.build_stock_windows(table.rows, table.column_index(target), cfg)
    w = train_w[0]
    model = forecasting.build_model(cfg, w.past.shape[1], w.future_known.shape[1],
                                    w.static.shape[0])
    return train_w, test_w, model


def _run_one(cfg: TrainConfig, args, verbose: bool = False):
    """Load data, train one model and evaluate it; shared by train/compare."""
    train_w, test_w, model = _windows_and_model(cfg, args.data, args.features, args.target)
    t0 = time.perf_counter()
    history = forecasting.train(model, train_w, cfg)
    elapsed = time.perf_counter() - t0
    if verbose:
        for e, v in enumerate(history):
            print(f"epoch {e}: loss {v:.6f}")
    test_loss = forecasting.evaluate(model, test_w, cfg.quantile)
    return model, train_w, test_w, history, test_loss, elapsed


def cmd_train(args) -> int:
    cfg = _config(vars(args))
    model, train_w, test_w, history, test_loss, elapsed = _run_one(cfg, args, args.verbose)
    out_dir = _out_dir(args)
    echo = _config_echo(cfg, args)
    report = data_io.RunReport(
        config=echo,
        loss_history=history,
        loss_history_sum=[h * len(train_w) for h in history],
        final_train_loss=history[-1],
        final_test_loss=test_loss,
        predictions=forecasting.window_predictions(model, train_w + test_w),
        param_count=model.param_count(),
        seed=cfg.seed,
        wall_clock_seconds=elapsed,
    )
    report_path = data_io.write_report(report, out_dir)
    data_io.save_params(model.named_leaves(), echo, os.path.join(out_dir, "params.txt"))
    print(f"final train loss: {history[-1]!r}")
    print(f"final test loss:  {test_loss!r}")
    print(f"report: {report_path}")
    return 0


def cmd_eval(args) -> int:
    # Every run key but the seed must be in the snapshot; an absent seed is the default.
    path = args.snapshot
    config, arrays = data_io.load_params(path, tuple(key for key in RUN_KEYS if key != "seed"))
    values = {}
    for key, (_, default) in RUN_KEYS.items():
        try:
            values[key] = _parse(key, config[key]) if key in config else default
        except ValueError as exc:
            raise data_io.SnapshotError(f"snapshot {path} has config.{key} = {config[key]}, "
                                        f"expected {exc}") from None
    # an explicit --range evaluates that interval in place of the snapshot's test range
    if args.range is not None:
        values["test_range"] = args.range
    try:
        cfg = _config(values)
        _, eval_w, model = _windows_and_model(cfg, args.data, values["features"],
                                              values["target"])
    except ConfigError as exc:
        if exc.field == "test_range" and args.range is not None:
            raise ConfigError("range", str(exc)) from None  # main names the flag --range
        key = _KEY_OF_FIELD.get(exc.field, exc.field)
        raise data_io.SnapshotError(f"snapshot {path} config.{key}: {exc}") from None
    named = dict(model.named_leaves())
    missing = [name for name in named if name not in arrays]
    unexpected = [name for name in arrays if name not in named]
    if missing or unexpected:
        problems = [f"no leaf {missing[0]}"] if missing else []
        problems += [f"unexpected leaf {unexpected[0]}"] if unexpected else []
        raise data_io.SnapshotError(f"snapshot {path} does not fit the rebuilt "
                                    f"{model.kind} model: " + "; ".join(problems))
    for name, node in named.items():
        if node.value.shape != arrays[name].shape:
            raise data_io.SnapshotError(f"snapshot leaf {name} has shape "
                                        f"{arrays[name].shape}, expected {node.value.shape}")
        node.value[...] = arrays[name]   # a block's slice writes through to its stacked leaf
    loss = forecasting.evaluate(model, eval_w, cfg.quantile)
    print(f"eval loss: {loss!r}")
    return 0


def format_compare(rows) -> str:
    """Three-line comparison table with the published losses alongside.

    ``rows`` holds (model kind, measured train loss, measured test loss) in
    the fixed TFT / QTFT / QTFT-QLSTM order.
    """
    lines = ["model,train_loss,test_loss,published_train_loss,published_test_loss"]
    for kind, train_loss, test_loss in rows:
        pub_train, pub_test = PUBLISHED_LOSSES[kind]
        lines.append(f"{COMPARE_LABELS[kind]},{train_loss!r},{test_loss!r},"
                     f"{pub_train:.4f},{pub_test:.4f}")
    return "\n".join(lines) + "\n"


def cmd_compare(args) -> int:
    configs = [_config({**vars(args), "model": kind}) for kind in forecasting.MODEL_KINDS]
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for cfg in configs:
        _, _, _, history, test_loss, _ = _run_one(cfg, args, args.verbose)
        rows.append((cfg.model_kind, history[-1], test_loss))
    text = format_compare(rows)
    with open(os.path.join(out_dir, "compare.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(text, end="")
    return 0


# --------------------------------------------------------------------------
# gradcheck
# --------------------------------------------------------------------------

def gradcheck_suite(seed: int = 7, perturb: float = 0.0) -> dict[str, tuple[float, float]]:
    """Every entry is (max deviation, tolerance); deviation <= tolerance passes.

    ``perturb`` offsets the finite-difference oracle of the parameter-shift
    block, to demonstrate the suite actually detects disagreement.
    """
    from .quantum_sim import run_circuit
    from .grad import shift_rule_jacobians

    rng = np.random.default_rng(seed)
    results: dict[str, tuple[float, float]] = {}

    # circuits against the dense-matrix reference
    worst = 0.0
    for _ in range(30):
        circ, feats, wts = _random_vqc(rng)
        got = run_circuit(circ, feats, wts).amplitudes
        want = reference.dense_run(circ, feats, wts)
        worst = max(worst, float(np.max(np.abs(got - want))))
    results["circuit_vs_dense"] = (worst, 1e-10)

    # parameter-shift gradients against finite differences
    worst = 0.0
    for _ in range(15):
        circ, feats, wts = _random_vqc(rng)
        jf, jw = shift_rule_jacobians(circ, feats, wts)
        for q in range(circ.num_qubits):
            def f_w(w, q=q):
                from .quantum_sim import measure_all_z
                return measure_all_z(run_circuit(circ, feats, w))[q]

            fd = reference.central_difference(f_w, wts) + perturb
            worst = max(worst, reference.grad_deviation(jw[:, q], fd))
    results["parameter_shift_vs_fd"] = (worst, 1.0)

    # classical blocks end to end through a GRN + attention + pinball graph
    results["classical_blocks_fd"] = (_classical_block_deviation(rng), 1.0)

    # both full models on one desk-scale window
    results["tft_end_to_end"] = (_model_deviation("tft", seed), 1.0)
    results["qtft_end_to_end"] = (_model_deviation("qtft", seed), 1.0)
    return results


def _random_vqc(rng):
    from .qtft_core import build_ansatz, build_encoding
    from .quantum_sim import compose
    n = int(rng.integers(1, 4))
    layers = int(rng.integers(1, 3))
    enc = build_encoding(n, "angle" if rng.random() < 0.5 else "zz")
    anz = build_ansatz(n, layers, "basic" if rng.random() < 0.5 or n < 2 else "nlocal")
    circ = compose(enc, anz)
    return circ, rng.uniform(-1, 1, circ.num_feature_slots), \
        rng.uniform(-np.pi, np.pi, circ.num_weight_slots)


def _classical_block_deviation(rng) -> float:
    d = 3
    grn_p = tft_core.init_grn(rng, d, context_dim=d)
    attn_p = tft_core.init_attention(rng, d, num_heads=2)
    a0 = rng.uniform(-1, 1, d)
    c0 = rng.uniform(-1, 1, d)
    targets = rng.uniform(-1, 1, 4)

    leaves = tft_core.leaves(grn_p) + tft_core.leaves(attn_p)

    def loss_node():
        g1 = tft_core.grn(a0, c0, grn_p)
        g2 = tft_core.grn(c0, None, grn_p)
        g3 = tft_core.grn(a0 * 0.5, c0, grn_p)
        g4 = tft_core.grn(c0 * 0.5, None, grn_p)
        s = grad.reshape(grad.concat([g1, g2, g3, g4]), (4, d))
        out = tft_core.interpretable_multi_head(s, attn_p)
        head = grad.concat([grad.mean_all(grad.part(out, i)) for i in range(4)])
        return grad.pinball(targets, head, 0.5)

    return _deviation_over_leaves(loss_node, leaves)


def _model_deviation(kind: str, seed: int, max_leaves: int = 40) -> float:
    """End-to-end check on a seeded subset of leaves; the acceptance suite
    covers every leaf, this keeps the CLI diagnostic responsive."""
    cfg = TrainConfig(model_kind=kind, seed=seed, epochs=0)
    rng = np.random.default_rng(seed + 1)
    past = rng.uniform(20.0, 30.0, (cfg.past_steps, 5))
    future = rng.uniform(0.0, 1.0, (cfg.forecast_steps, 1))
    static = np.array([1.0])
    targets = rng.uniform(20.0, 30.0, cfg.forecast_steps)
    model = forecasting.build_model(cfg, 5, 1, 1)
    leaves = model.leaves()
    if len(leaves) > max_leaves:
        picked = rng.choice(len(leaves), size=max_leaves, replace=False)
        leaves = [leaves[i] for i in sorted(picked)]

    def loss_node():
        preds = model.predict_nodes(static, past, future)
        return grad.pinball(targets, preds[0], cfg.quantile)

    return _deviation_over_leaves(loss_node, leaves)


def _deviation_over_leaves(loss_node_fn, leaves) -> float:
    loss = loss_node_fn()
    grad.backward(loss)
    analytic = [np.array(p.grad) if p.grad is not None else np.zeros_like(p.value)
                for p in leaves]
    for p in leaves:
        p.grad = None
    worst = 0.0
    for p, got in zip(leaves, analytic):
        base = p.value

        def loss_at(value):   # values only: a tape would keep every graph until the next one
            p.value = value
            with grad.no_tape():
                return float(loss_node_fn().value[0])

        fd = reference.central_difference(loss_at, base)
        p.value = base
        worst = max(worst, reference.grad_deviation(got, fd))
    return worst


def cmd_gradcheck(args) -> int:
    t0 = time.perf_counter()
    results = gradcheck_suite(args.seed, args.perturb)
    failed = False
    for name, (dev, tol) in results.items():
        ok = dev <= tol
        failed = failed or not ok
        print(f"{name}: max deviation {dev:.3e} (tolerance {tol:.3e}) "
              f"{'PASS' if ok else 'FAIL'}")
    print(f"runtime: {time.perf_counter() - t0:.2f} s")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ConfigError as exc:  # a flag value that TrainConfig rejects
        flag = _KEY_OF_FIELD.get(exc.field, exc.field).replace("_", "-")
        print(f"error: --{flag}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
