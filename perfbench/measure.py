"""One run of one workload: timed phases, the correctness gate, the trace.

The workload is a closed loop with one caller: train, forecast the
held-out windows with ``forecasting.evaluate``, then issue single-window
``model.predict`` calls one after another.  Untraced runs give the
end-to-end metrics; traced runs give the per-module split.  The
correctness gate runs on every run, outside the timed regions.

Import this module only after ``workloads.use_source_tree()`` and after
the thread variables are pinned, because it imports numpy and qtft.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback

import numpy as np

from qtft import data_io, forecasting

from checks import Ledger, circuit_check, gradient_check, graph_nodes, window_loss
from hostcal import REFERENCE_S, HostClock, control
from tracing import PHASES, Tracer
from workloads import BLOCKS, FEATURES, TARGET, Workload

TRAIN_SHARE = 0.5      # of --seconds spent on traced and untraced train calls
MIN_ROUNDS = 3         # rounds per untraced run, however short --seconds is
TAIL_BEYOND = 10       # samples required beyond the reported tail percentile
Z_TOLERANCE = 1e-9    # largest |<Z> - dense <Z>| the circuit check accepts

QUANTUM_KINDS = ("qtft", "qtft-qlstm")

# Values computed from circuit shapes rather than timed or counted at a hook.
COMPUTED = ("quantum_sim.gate_applications", "quantum_sim.amplitude_updates",
            "quantum_sim.bytes_computed", "quantum_sim.us_per_gate_application",
            "quantum_sim.max_qubits")

# Bytes read and written per amplitude update (complex128 in and out).
BYTES_PER_AMPLITUDE_UPDATE = 32


def tail_percentile(n: int) -> float:
    """Highest percentile with at least TAIL_BEYOND of ``n`` samples beyond it."""
    return max(0.0, 100.0 * (1.0 - TAIL_BEYOND / n))


class Inputs:
    """The loaded table, its windows and the workload's train config."""

    def __init__(self, workload: Workload, csv_path: str):
        self.workload = workload
        self.cfg = workload.train_config()
        table = data_io.load_csv(csv_path, FEATURES, TARGET)
        self.train_w, self.test_w = forecasting.build_stock_windows(
            table.rows, table.column_index(TARGET), self.cfg)

    def new_model(self):
        w0 = self.train_w[0]
        return forecasting.build_model(self.cfg, w0.past.shape[1],
                                       w0.future_known.shape[1], w0.static.shape[0])


def _train_rep(inputs: Inputs, ledger: Ledger, tracer: Tracer | None = None):
    """Build a fresh model and time one ``forecasting.train`` call on it."""
    model = inputs.new_model()
    if tracer is not None:
        tracer.install(model)
    try:
        t0 = time.perf_counter()
        history = ledger.call("train", forecasting.train, model, inputs.train_w, inputs.cfg)
        dt = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return model, history, dt


def _predict(model, sample):
    return model.predict(sample.static, sample.past, sample.future_known)


def _run_checks(inputs: Inputs, ledger: Ledger, model, histories, test_losses,
                predictions, seed: int) -> None:
    """The correctness gate; every check counts as one attempted operation."""
    q = inputs.cfg.quantile
    ledger.check("train histories identical across reps",
                 all(h == histories[0] for h in histories),
                 f"{len(histories)} reps")
    ledger.check("evaluate results identical across reps",
                 all(v == test_losses[0] for v in test_losses),
                 f"{len(test_losses)} calls")
    values = [v for h in histories for v in h] + list(test_losses)
    values += [float(x) for p in predictions for x in np.ravel(p)]
    ledger.check("no non-finite loss or prediction",
                 all(math.isfinite(v) for v in values), f"{len(values)} values")
    train_eval = ledger.call("evaluate", forecasting.evaluate, model, inputs.train_w, q)
    if train_eval is not None:
        last = histories[-1][-1]
        rel = abs(last - train_eval) / max(abs(train_eval), 1e-300)
        ledger.check("last train loss equals evaluate on training windows",
                     rel <= 1e-12, f"train {last!r} evaluate {train_eval!r} rel {rel:.3g}")
    rng = np.random.default_rng(seed)
    sample = inputs.test_w[int(rng.integers(len(inputs.test_w)))]
    first = ledger.call("predict", _predict, model, sample)
    second = ledger.call("predict", _predict, model, sample)
    if first is not None and second is not None:
        ledger.check("repeated predict is bit-identical",
                     first.shape == second.shape and first.tobytes() == second.tobytes())
    window = inputs.train_w[int(rng.integers(len(inputs.train_w)))]
    try:
        deviation = gradient_check(model, window, q, rng, inputs.workload.grad_entries)
    except Exception:
        ledger.check("gradient check ran", False, traceback.format_exc())
    else:
        ledger.check("backward agrees with central differences", deviation <= 1.0,
                     f"grad_deviation {deviation:.3g}")
    if inputs.cfg.model_kind not in QUANTUM_KINDS:
        return
    try:
        circuits, z_error, jac_deviation = circuit_check(window_loss(model, window, q), rng)
    except Exception:
        ledger.check("circuit check ran", False, traceback.format_exc())
        return
    ledger.check("the loss graph runs circuits", circuits > 0, "no circuit nodes found")
    ledger.check("circuit <Z> values agree with reference.dense_run", z_error <= Z_TOLERANCE,
                 f"worst |error| {z_error:.3g} over {circuits} circuits")
    ledger.check("circuit Jacobians agree with the dense reference",
                 jac_deviation <= 1.0,
                 f"grad_deviation {jac_deviation:.3g} over {circuits} circuits")


def run_untraced(inputs: Inputs, seconds: float, seed: int, ledger: Ledger):
    """Rounds of train, forecast and predict with tracing off; returns (metrics, info).

    Every timed call is normalised by the host factor measured around it
    (see ``hostcal``).  Throughputs come from the median normalised call,
    the median latency and the tail from all predicts of the run pooled.
    ``info`` keeps the raw (unnormalised) figure next to each timing.
    """
    w, cfg = inputs.workload, inputs.cfg
    n_train, n_test = len(inputs.train_w), len(inputs.test_w)
    clock = HostClock()
    deadline = time.perf_counter() + seconds
    histories, test_losses, predictions = [], [], []
    times = {k: ([], []) for k in ("train", "evaluate", "predict")}   # (normalised, raw)
    rounds = 0
    model = None
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        # One user session: train a fresh model, forecast, then predict one by one.
        model = inputs.new_model()
        history, raw, norm = clock.time(ledger.call, "train", forecasting.train, model,
                                        inputs.train_w, cfg)
        if history is None:
            break
        histories.append(history)
        times["train"][0].append(norm)
        times["train"][1].append(raw)
        for _ in range(w.evaluates_per_round):
            loss, raw, norm = clock.time(ledger.call, "evaluate", forecasting.evaluate, model,
                                         inputs.test_w, cfg.quantile)
            times["evaluate"][0].append(norm)
            times["evaluate"][1].append(raw)
            if loss is not None:
                test_losses.append(loss)
        for i in range(w.predicts_per_round):
            pred, raw, norm = clock.time(ledger.call, "predict", _predict, model,
                                         inputs.test_w[i % n_test])
            times["predict"][0].append(norm * 1e3)
            times["predict"][1].append(raw * 1e3)
            if pred is not None and len(predictions) < n_test:
                predictions.append(pred)
        rounds += 1
    if not histories:
        return {}, {}

    _run_checks(inputs, ledger, model, histories, test_losses, predictions, seed)

    def summarise(normalised: bool) -> dict[str, float | None]:
        k = 0 if normalised else 1
        train, evaluate, predict = (times[name][k] for name in ("train", "evaluate", "predict"))
        return {
            "train_windows_per_s": n_train * cfg.epochs / statistics.median(train),
            "forecast_windows_per_s": n_test / statistics.median(evaluate) if evaluate else None,
            "predict_ms_p50": float(np.percentile(predict, 50)),
            "predict_ms_tail": float(np.percentile(predict, pct)),
        }

    pct = tail_percentile(len(times["predict"][0]))
    metrics = summarise(normalised=True)
    metrics.update({
        "final_train_loss": histories[-1][-1],
        "test_loss": test_losses[0] if test_losses else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    info = {
        "rounds": rounds, "predict_samples": len(times["predict"][0]),
        "predict_tail_percentile": pct, "predicts_per_round": w.predicts_per_round,
        "train_windows": n_train, "test_windows": n_test, "epochs": cfg.epochs,
        "initial_train_loss": histories[-1][0],
        "host_factor_median": statistics.median(clock.factors),
        "raw": summarise(normalised=False),
    }
    return metrics, info


def graph_counts(loss) -> tuple[int, int]:
    """(nodes, circuit nodes) reachable from a loss node."""
    nodes = graph_nodes(loss)
    return len(nodes), sum(hasattr(node, "circuit") for node in nodes)


def _span_stats(tracer: Tracer, phase: str):
    """Per span name in one phase: [count, inclusive seconds, rows, gate work]."""
    pid = PHASES.index(phase)
    stats: dict[str, list] = {}
    by_tag: dict[tuple[str, str], float] = {}
    max_qubits = 0
    for nid, t0, t1, _, ph, _, _, rows, tag in tracer.spans:
        if ph != pid:
            continue
        name = tracer.names[nid]
        s = stats.setdefault(name, [0, 0.0, 0, 0, 0])
        s[0] += 1
        s[1] += t1 - t0
        s[2] += rows
        if isinstance(tag, tuple):
            gates, qubits = tag
            s[3] += rows * gates
            s[4] += rows * gates * (1 << qubits)
            max_qubits = max(max_qubits, qubits)
        elif tag:
            by_tag[(name, tag)] = by_tag.get((name, tag), 0.0) + (t1 - t0)
    return stats, by_tag, max_qubits


def run_traced(inputs: Inputs, seconds: float, seed: int, ledger: Ledger):
    """Per-module split from wrapped calls; returns (metrics, missing, info, tracer)."""
    w, cfg = inputs.workload, inputs.cfg
    tracer = Tracer()
    deadline = time.perf_counter() + TRAIN_SHARE * seconds
    plain, traced, model, histories = [], [], None, []
    while True:
        _, history, dt = _train_rep(inputs, ledger)
        if history is None:
            break
        plain.append(dt)
        tracer.set_phase("train")
        model, history, dt = _train_rep(inputs, ledger, tracer)
        if history is None:
            break
        traced.append(dt)
        histories.append(history)
        if time.perf_counter() >= deadline:
            break
    if not traced:
        return {}, [], {}, tracer
    reps = len(traced)

    tracer.install(model)
    try:
        tracer.set_phase("evaluate")
        test_losses = [ledger.call("evaluate", forecasting.evaluate, model, inputs.test_w,
                                   cfg.quantile)]
        tracer.set_phase("predict")
        predictions = [ledger.call("predict", _predict, model, inputs.test_w[i % len(inputs.test_w)])
                       for i in range(w.predicts_per_round)]
    finally:
        tracer.uninstall()
    tracer.set_phase("check")
    predictions = [p for p in predictions if p is not None][:len(inputs.test_w)]
    test_losses = [v for v in test_losses if v is not None]
    _run_checks(inputs, ledger, model, histories, test_losses, predictions, seed)
    nodes, qnodes = graph_counts(forecasting.batch_loss_node(model, inputs.train_w, cfg.quantile))

    train, shift_by_block, max_qubits = _span_stats(tracer, "train")
    evaluate, _, _ = _span_stats(tracer, "evaluate")
    n_fwd = train.get("forecasting.batch_loss_node", [0])[0]
    n_bwd = train.get("grad.backward", [0])[0]
    epochs = reps * cfg.epochs

    def per(name, field, n):
        s = train.get(name)
        return (s[field] / n) if (s and n) else 0.0

    # Circuit runs: run_circuit happens in the forward, run_bound_batch in the backward.
    rc, rb = "quantum_sim.run_circuit", "quantum_sim.run_bound_batch"
    gate_apps = per(rc, 3, n_fwd) + per(rb, 3, n_bwd)
    amp_updates = per(rc, 4, n_fwd) + per(rb, 4, n_bwd)
    sim_s = per(rc, 1, n_fwd) + per(rb, 1, n_bwd)
    gc_train = [e for e in tracer.gc_events if e[2] == 1]
    metrics = {
        "forecasting.forward_s": per("forecasting.batch_loss_node", 1, n_fwd),
        "forecasting.evaluate_s": (evaluate["forecasting.evaluate"][1]
                                   / evaluate["forecasting.evaluate"][0])
        if "forecasting.evaluate" in evaluate else 0.0,
        "forecasting.train_windows": len(inputs.train_w),
        "forecasting.test_windows": len(inputs.test_w),
        "grad.backward_s": per("grad.backward", 1, n_bwd),
        "grad.shift_jacobian_s": per("grad.shift_rule_jacobians", 1, n_bwd),
        "grad.quantum_forward_s": per("grad.quantum_forward", 1, n_fwd),
        "grad.sgd_s": per("grad.sgd_step", 1, n_bwd),
        "grad.graph_nodes": nodes,
        "grad.quantum_nodes": qnodes,
        "grad.shift_calls": per("grad.shift_rule_jacobians", 0, n_bwd),
        "grad.shift_rows": per(rb, 2, n_bwd),
        "grad.gc_pause_s": sum(b - a for a, b, _ in gc_train) / epochs,
        "grad.gc_collections": len(gc_train) / epochs,
        "quantum_sim.run_circuit_calls": per(rc, 0, n_fwd),
        "quantum_sim.run_circuit_s": per(rc, 1, n_fwd),
        "quantum_sim.run_bound_batch_calls": per(rb, 0, n_bwd),
        "quantum_sim.run_bound_batch_rows": per(rb, 2, n_bwd),
        "quantum_sim.run_bound_batch_s": per(rb, 1, n_bwd),
        "quantum_sim.rows_per_batch": (train[rb][2] / train[rb][0]) if rb in train else 0.0,
        "quantum_sim.gate_applications": gate_apps,
        "quantum_sim.amplitude_updates": amp_updates,
        "quantum_sim.bytes_computed": amp_updates * BYTES_PER_AMPLITUDE_UPDATE,
        "quantum_sim.us_per_gate_application": (1e6 * sim_s / gate_apps) if gate_apps else 0.0,
        "quantum_sim.max_qubits": max_qubits,
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(plain),
    }
    metrics["grad.tape_s"] = metrics["grad.backward_s"] - metrics["grad.shift_jacobian_s"]
    for core in ("qtft_core", "tft_core"):
        for b in BLOCKS:
            metrics[f"{core}.{b}.forward_s"] = per(f"{core}.{b}", 1, n_fwd)
    for b in BLOCKS:
        shift = shift_by_block.get(("grad.shift_rule_jacobians", b), 0.0)
        metrics[f"qtft_core.{b}.shift_s"] = shift / n_bwd if n_bwd else 0.0

    missing = _missing(tracer, train, shift_by_block, evaluate, cfg.model_kind)
    info = {"host_factor": statistics.median(control() for _ in range(5)) / REFERENCE_S,
            "train_reps": reps, "forward_passes": n_fwd, "backward_passes": n_bwd,
            "epochs": epochs, "unattributed_param_fields": tracer.unattributed}
    return metrics, missing, info, tracer


def _missing(tracer, train, shift_by_block, evaluate, kind) -> list[str]:
    """Metrics whose hook should have fired on this model kind but never did."""
    quantum = kind in QUANTUM_KINDS
    core = "qtft_core" if quantum else "tft_core"
    needs = {
        "forecasting.forward_s": "forecasting.batch_loss_node",
        "grad.backward_s": "grad.backward",
        "grad.tape_s": "grad.backward",
        "grad.sgd_s": "grad.sgd_step",
    }
    if quantum:
        for m in ("grad.shift_jacobian_s", "grad.shift_calls"):
            needs[m] = "grad.shift_rule_jacobians"
        needs["grad.quantum_forward_s"] = "grad.quantum_forward"
        for m in ("calls", "s"):
            needs[f"quantum_sim.run_circuit_{m}"] = "quantum_sim.run_circuit"
        for m in ("run_bound_batch_calls", "run_bound_batch_rows", "run_bound_batch_s",
                  "rows_per_batch", "gate_applications", "amplitude_updates",
                  "bytes_computed", "us_per_gate_application", "max_qubits"):
            needs[f"quantum_sim.{m}"] = "quantum_sim.run_bound_batch"
        needs["grad.shift_rows"] = "quantum_sim.run_bound_batch"
    for b in BLOCKS:
        needs[f"{core}.{b}.forward_s"] = f"{core}.{b}"
    missing = [m for m, hook in needs.items() if hook not in train]
    if "forecasting.evaluate" not in evaluate:
        missing.append("forecasting.evaluate_s")
    if quantum:
        # A block with circuits must show shift time; the circuit map says which do.
        with_circuits = set(tracer.circuit_block.values())
        missing += [f"qtft_core.{b}.shift_s" for b in BLOCKS
                    if b in with_circuits and ("grad.shift_rule_jacobians", b) not in shift_by_block]
    return missing
