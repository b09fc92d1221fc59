"""Command-line entry point: train / eval / compare / gradcheck.

Exit codes: 0 success, 1 runtime failure, 2 flag validation failure.
The effective configuration is echoed into every report so no flag can
silently change a default.  ``QTFT_OUT_DIR`` supplies the default output
directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import data_io, forecasting, grad, qtft_core, reference, tft_core
from .forecasting import TrainConfig

DEFAULT_FEATURES = "Open,High,Low,Last"
DEFAULT_TARGET = "Close"

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


def _parse_range(text: str) -> tuple[int, int]:
    """``FIRST:LAST`` as two ints with FIRST <= LAST; a ValueError saying which rule failed."""
    first, _, last = text.partition(":")
    try:
        a, b = int(first), int(last)
    except ValueError:
        raise ValueError("ranges must look like FIRST:LAST") from None
    if a > b:
        raise ValueError("ranges must satisfy FIRST <= LAST")
    return a, b


def _add_train_flags(p: argparse.ArgumentParser, with_model: bool = True):
    p.add_argument("--data", required=True, help="input CSV path")
    if with_model:
        p.add_argument("--model", default="tft", choices=forecasting.MODEL_KINDS)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--quantile", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="output directory (default $QTFT_OUT_DIR or ./runs)")
    p.add_argument("--past-steps", type=int, default=2)
    p.add_argument("--forecast-steps", type=int, default=2)
    p.add_argument("--train-range", default="0:19", help="inclusive rows, FIRST:LAST")
    p.add_argument("--test-range", default="20:26", help="inclusive rows, FIRST:LAST")
    p.add_argument("--d-model", type=int, default=2)
    p.add_argument("--ansatz-layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--encoding", default="angle", choices=qtft_core.ENCODINGS)
    p.add_argument("--ansatz", default="basic", choices=qtft_core.ANSATZE)
    p.add_argument("--scale", action="store_true", help="min-max scale features first")
    p.add_argument("--causal-mask", action="store_true")
    p.add_argument("--features", default=DEFAULT_FEATURES, help="comma-separated columns")
    p.add_argument("--target", default=DEFAULT_TARGET)
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
    p_eval.add_argument("--range", default=None, help="inclusive rows, FIRST:LAST (default: snapshot test range)")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="train tft, qtft and qtft-qlstm under one config")
    _add_train_flags(p_cmp, with_model=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_gc = sub.add_parser("gradcheck", help="run the gradient/property suite")
    p_gc.add_argument("--seed", type=int, default=1)
    p_gc.add_argument("--perturb", type=float, default=0.0,
                      help="inject this offset into the finite-difference oracle")
    p_gc.add_argument("--out", default=None)
    p_gc.set_defaults(func=cmd_gradcheck)
    return parser


def _out_dir(args) -> str:
    if getattr(args, "out", None):
        return args.out
    return os.environ.get("QTFT_OUT_DIR", "runs")


def _validate_train_flags(args) -> str | None:
    if not 0.0 < args.quantile < 1.0:
        return f"--quantile must lie in (0, 1), got {args.quantile}"
    if args.epochs < 0:
        return "--epochs must be >= 0"
    if not 0.0 <= args.lr < math.inf:
        return f"--lr must be finite and >= 0, got {args.lr}"
    if args.past_steps < 1 or args.forecast_steps < 1:
        return "--past-steps and --forecast-steps must be >= 1"
    if args.d_model < 1 or args.ansatz_layers < 1 or args.heads < 1:
        return "--d-model, --ansatz-layers and --heads must be >= 1"
    try:
        a, b = _parse_range(args.train_range)
        c, d = _parse_range(args.test_range)
    except ValueError as exc:
        return str(exc)
    if max(a, c) <= min(b, d):
        return "train and test ranges must be disjoint"
    if not [s for s in args.features.split(",") if s.strip()]:
        return "--features must name at least one column"
    return None


def _config_from_args(args, model_kind: str) -> TrainConfig:
    return TrainConfig(
        quantile=args.quantile,
        learning_rate=args.lr,
        epochs=args.epochs,
        past_steps=args.past_steps,
        forecast_steps=args.forecast_steps,
        train_range=_parse_range(args.train_range),
        test_range=_parse_range(args.test_range),
        seed=args.seed,
        model_kind=model_kind,
        d_model=args.d_model,
        ansatz_layers=args.ansatz_layers,
        heads=args.heads,
        encoding=args.encoding,
        ansatz=args.ansatz,
        scale=args.scale,
        use_causal_mask=args.causal_mask,
    )


def _config_echo(cfg: TrainConfig, args) -> dict[str, object]:
    echo = {
        "model": cfg.model_kind,
        "seed": cfg.seed,
        "data": args.data,
        "epochs": cfg.epochs,
        "lr": cfg.learning_rate,
        "quantile": cfg.quantile,
        "past_steps": cfg.past_steps,
        "forecast_steps": cfg.forecast_steps,
        "train_range": f"{cfg.train_range[0]}:{cfg.train_range[1]}",
        "test_range": f"{cfg.test_range[0]}:{cfg.test_range[1]}",
        "d_model": cfg.d_model,
        "ansatz_layers": cfg.ansatz_layers,
        "heads": cfg.heads,
        "encoding": cfg.encoding,
        "ansatz": cfg.ansatz,
        "scale": cfg.scale,
        "causal_mask": cfg.use_causal_mask,
        "features": args.features,
        "target": args.target,
    }
    return echo


def _run_one(cfg: TrainConfig, args, verbose: bool = False):
    """Load data, train one model and evaluate it; shared by train/compare."""
    features = [s.strip() for s in args.features.split(",") if s.strip()]
    table = data_io.load_csv(args.data, features, args.target)
    target_idx = table.column_index(args.target)
    train_w, test_w = forecasting.build_stock_windows(table.rows, target_idx, cfg)
    model = forecasting.build_model(
        cfg,
        num_past_vars=train_w[0].past.shape[1],
        num_future_vars=train_w[0].future_known.shape[1],
        num_static_vars=train_w[0].static.shape[0],
    )
    t0 = time.perf_counter()
    history = forecasting.train(model, train_w, cfg)
    elapsed = time.perf_counter() - t0
    if verbose:
        for e, v in enumerate(history):
            print(f"epoch {e}: loss {v:.6f}")
    test_loss = forecasting.evaluate(model, test_w, cfg.quantile)
    return model, train_w, test_w, history, test_loss, elapsed


def cmd_train(args) -> int:
    err = _validate_train_flags(args)
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    cfg = _config_from_args(args, args.model)
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


# Snapshot config keys that eval reads to rebuild the run's windows and model, and
# their types (a range stays text, once ``_parse_range`` accepts it).  Every key but
# the seed (default 1) must be present.
EVAL_CONFIG_TYPES = {"model": str, "seed": int, "epochs": int, "lr": float, "quantile": float,
                     "past_steps": int, "forecast_steps": int, "train_range": _parse_range,
                     "test_range": _parse_range, "d_model": int, "ansatz_layers": int,
                     "heads": int, "encoding": str, "ansatz": str, "scale": bool,
                     "causal_mask": bool, "features": str, "target": str}
EVAL_CONFIG_KEYS = tuple(key for key in EVAL_CONFIG_TYPES if key != "seed")
_BOOLS = {"True": True, "False": False}
_EXPECTED = {bool: "True or False", _parse_range: "FIRST:LAST with FIRST <= LAST"}


def _typed_config(config: dict[str, str], path: str) -> dict[str, object]:
    """The values of ``EVAL_CONFIG_TYPES``; one that does not parse is a SnapshotError."""
    typed = {}
    for key, kind in EVAL_CONFIG_TYPES.items():
        text = config.get(key, "1")   # only the seed may be absent
        try:
            value = _BOOLS[text] if kind is bool else kind(text)
        except (KeyError, ValueError):
            expected = _EXPECTED.get(kind) or f"a value of type {kind.__name__}"
            raise data_io.SnapshotError(f"snapshot {path} has config.{key} = {text}, "
                                        f"expected {expected}") from None
        typed[key] = text if kind is _parse_range else value
    return typed


def cmd_eval(args) -> int:
    # an explicit --range evaluates that interval in place of the snapshot's test range
    if args.range is not None:
        try:
            _parse_range(args.range)
        except ValueError as exc:
            print(f"error: --range: {exc}", file=sys.stderr)
            return 2
    config, arrays = data_io.load_params(args.snapshot, EVAL_CONFIG_KEYS)
    ns = argparse.Namespace(**_typed_config(config, args.snapshot))
    if args.range is not None:
        ns.test_range = args.range
    cfg = _config_from_args(ns, ns.model)
    features = [s.strip() for s in ns.features.split(",") if s.strip()]
    table = data_io.load_csv(args.data, features, ns.target)
    target_idx = table.column_index(ns.target)
    _, eval_w = forecasting.build_stock_windows(table.rows, target_idx, cfg)
    model = forecasting.build_model(
        cfg,
        num_past_vars=eval_w[0].past.shape[1],
        num_future_vars=eval_w[0].future_known.shape[1],
        num_static_vars=eval_w[0].static.shape[0],
    )
    named = dict(model.named_leaves())
    missing = [name for name in named if name not in arrays]
    unexpected = [name for name in arrays if name not in named]
    if missing or unexpected:
        problems = [f"no leaf {missing[0]}"] if missing else []
        problems += [f"unexpected leaf {unexpected[0]}"] if unexpected else []
        raise data_io.SnapshotError(f"snapshot {args.snapshot} does not fit the rebuilt "
                                    f"{model.kind} model: " + "; ".join(problems))
    for name, node in named.items():
        if node.value.shape != arrays[name].shape:
            raise data_io.SnapshotError(f"snapshot leaf {name} has shape "
                                        f"{arrays[name].shape}, expected {node.value.shape}")
        node.value = arrays[name]
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
    err = _validate_train_flags(args)
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for kind in forecasting.MODEL_KINDS:
        cfg = _config_from_args(args, kind)
        _, _, _, history, test_loss, _ = _run_one(cfg, args, args.verbose)
        rows.append((kind, history[-1], test_loss))
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

    leaves = [node for _, node in tft_core.named_leaves(grn_p, "grn")]
    leaves += [node for _, node in tft_core.named_leaves(attn_p, "attn")]

    def loss_node():
        g1 = tft_core.grn(a0, c0, grn_p)
        g2 = tft_core.grn(c0, None, grn_p)
        g3 = tft_core.grn(a0 * 0.5, c0, grn_p)
        g4 = tft_core.grn(c0 * 0.5, None, grn_p)
        s = grad.stack_rows([g1, g2, g3, g4])
        out = tft_core.interpretable_multi_head(s, attn_p)
        head = grad.concat([grad.mean_all(grad.row(out, i)) for i in range(4)])
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

        def loss_at(value):
            p.value = value
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
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
