"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The desk-scale experiment (criterion 6) trains all three
models for the full 100 epochs, so this module takes a few minutes.
"""

import math
import os
import time

import numpy as np
import pytest

import oracles
from qtft import data_io, forecasting, grad, tft_core, qtft_core
from qtft.cli import format_compare, main as cli_main
from qtft.forecasting import TrainConfig
from qtft.grad import backward, shift_rule_jacobians
from qtft.quantum_sim import (
    angle_embedding,
    basic_entangler_layers,
    compose,
    measure_all_z,
    n_local,
    pauli_z_expectation,
    run_circuit,
    zz_feature_map,
)

DATA = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                    "data", "axis_bank_2000.csv"))


def report(criterion: str, ok: bool, detail: str):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_simulator_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        circ, feats, wts = oracles.random_circuit(rng, max_qubits=3, max_depth=20)
        got = run_circuit(circ, feats, wts).amplitudes
        want = oracles.dense_run(circ, feats, wts)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    report("1 simulator oracle equivalence",
           worst < 1e-10 and elapsed < 10.0,
           f"200 circuits, max amplitude deviation {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_analytic_ry_expectation():
    circ = angle_embedding(1, "RY")
    worst = 0.0
    for theta in np.linspace(0.0, 2 * math.pi, 100, endpoint=False):
        z = pauli_z_expectation(run_circuit(circ, [theta], []), 0)
        worst = max(worst, abs(z - math.cos(theta)))
    report("2 analytic <Z> = cos(theta)", worst < 1e-12,
           f"100-point grid, max deviation {worst:.2e}")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_parameter_shift_correctness():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst_excess = 0.0
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        layers = int(rng.integers(1, 4))
        enc = angle_embedding(n, "RX") if rng.random() < 0.5 else zz_feature_map(n)
        anz = (basic_entangler_layers(n, layers, "RY") if rng.random() < 0.5 or n < 2
               else n_local(n, layers))
        circ = compose(enc, anz)
        feats = rng.uniform(-1.5, 1.5, circ.num_feature_slots)
        wts = rng.uniform(-math.pi, math.pi, circ.num_weight_slots)
        jf, jw = shift_rule_jacobians(circ, feats, wts)
        h = 1e-4
        for kind, jac, vec in (("feature", jf, feats), ("weight", jw, wts)):
            for s in range(len(vec)):
                plus, minus = vec.copy(), vec.copy()
                plus[s] += h
                minus[s] -= h
                if kind == "feature":
                    zp = measure_all_z(run_circuit(circ, plus, wts))
                    zm = measure_all_z(run_circuit(circ, minus, wts))
                else:
                    zp = measure_all_z(run_circuit(circ, feats, plus))
                    zm = measure_all_z(run_circuit(circ, feats, minus))
                fd = (zp - zm) / (2 * h)
                excess = np.abs(jac[s] - fd) / np.maximum(1e-5, 1e-4 * np.abs(fd))
                worst_excess = max(worst_excess, float(excess.max()))
                checked += len(fd)
    elapsed = time.perf_counter() - t0
    report("3 parameter-shift vs finite differences",
           worst_excess <= 1.0 and elapsed < 120.0,
           f"100 blocks, {checked} partials, worst excess {worst_excess:.3f}x tol, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 4

def _every_leaf_matches(model, window, q):
    def loss_node():
        preds = model.predict_nodes(window.static, window.past, window.future_known)
        return grad.pinball(window.targets, preds[0], q)

    loss = loss_node()
    backward(loss)
    leaves = model.leaves()
    analytic = [(p, p.grad.copy() if p.grad is not None else np.zeros_like(p.value))
                for p in leaves]
    for p in leaves:
        p.grad = None
    failures = 0
    total = 0
    for p, got in analytic:
        base = p.value.copy()

        def f(flat, p=p, base=base):
            p.value = flat.reshape(base.shape)
            out = float(loss_node().value[0])
            p.value = base
            return out

        total += p.value.size
        if not oracles.verify_gradient(f, base.reshape(-1), got):
            failures += 1
    return failures, total


def test_criterion_4_hybrid_end_to_end_gradients():
    table = data_io.load_csv(DATA, ["Open", "High", "Low", "Last"], "Close")
    cfg = TrainConfig()
    windows, _ = forecasting.build_stock_windows(table.rows,
                                                 table.column_index("Close"), cfg)
    window = windows[0]
    t0 = time.perf_counter()
    results = {}
    for kind in ("tft", "qtft"):
        model = forecasting.build_model(TrainConfig(model_kind=kind), 5, 1, 1)
        results[kind] = _every_leaf_matches(model, window, 0.5)
    elapsed = time.perf_counter() - t0
    ok = all(f == 0 for f, _ in results.values()) and elapsed < 300.0
    detail = ", ".join(f"{k}: {t} coords, {f} failing leaves"
                       for k, (f, t) in results.items())
    report("4 hybrid end-to-end gradients", ok, f"{detail}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_quantile_loss_properties():
    rng = np.random.default_rng(5)
    y = rng.uniform(-5, 5, 50)
    yhat = rng.uniform(-5, 5, 50)
    checks = [
        forecasting.quantile_loss(y, y, 0.37) == 0.0,
        forecasting.quantile_loss(y, yhat, 0.5) == 0.5 * np.abs(y - yhat).mean(),
        abs(forecasting.quantile_loss([2.0], [0.0], 0.5) - 1.0) < 1e-12,
        abs(forecasting.quantile_loss([0.0], [1.0], 0.9) - 0.1) < 1e-12,
        forecasting.quantile_loss([1.0, 2.0], [1.0, 2.0], 0.5) == 0.0,
    ]
    report("5 quantile loss properties", all(checks),
           f"{sum(checks)}/5 identities hold, L_0.5 = MAE/2 exactly")


# ---------------------------------------------------------------- criterion 6

@pytest.fixture(scope="module")
def experiment():
    table = data_io.load_csv(DATA, ["Open", "High", "Low", "Last"], "Close")
    target = table.column_index("Close")
    t0 = time.perf_counter()
    results = {}
    for kind in forecasting.MODEL_KINDS:
        cfg = TrainConfig(model_kind=kind)  # documented defaults, seed 1
        train_w, test_w = forecasting.build_stock_windows(table.rows, target, cfg)
        model = forecasting.build_model(cfg, train_w[0].past.shape[1],
                                        train_w[0].future_known.shape[1],
                                        train_w[0].static.shape[0])
        history = forecasting.train(model, train_w, cfg)
        test_loss = forecasting.evaluate(model, test_w, cfg.quantile)
        results[kind] = {"history": history, "test": test_loss}
    results["elapsed"] = time.perf_counter() - t0
    return results


def test_criterion_6a_classical_loss_drop(experiment):
    h = experiment["tft"]["history"]
    drop = 1.0 - h[-1] / h[0]
    report("6a classical training loss drop >= 40%", drop >= 0.40,
           f"epoch 0: {h[0]:.3f}, epoch 100: {h[-1]:.3f}, drop {drop:.1%}")


def test_criterion_6b_quantum_variants_track_classical(experiment):
    tft_final = experiment["tft"]["history"][-1]
    details = []
    ok = True
    for kind in ("qtft", "qtft-qlstm"):
        h = experiment[kind]["history"]
        finite = all(np.isfinite(v) for v in h)
        ratio = h[-1] / tft_final
        ok = ok and finite and ratio <= 1.5
        details.append(f"{kind}: final {h[-1]:.3f} ({ratio:.2f}x classical, "
                       f"{'finite' if finite else 'NaN'})")
    report("6b quantum variants within 1.5x classical", ok, "; ".join(details))


def test_criterion_6c_compare_report_shows_published_values(experiment, tmp_path):
    rows = [(kind, experiment[kind]["history"][-1], experiment[kind]["test"])
            for kind in forecasting.MODEL_KINDS]
    text = format_compare(rows)
    path = tmp_path / "compare.txt"
    path.write_text(text, encoding="utf-8")
    published = ["0.2630", "0.9856", "0.2028", "0.8381", "0.1711", "0.8007"]
    ok = all(v in text for v in published)
    lines = text.strip().splitlines()
    ok = ok and len(lines) == 4 and lines[1].startswith("TFT,") \
        and lines[2].startswith("QTFT (Without QLSTM),") \
        and lines[3].startswith("QTFT (With QLSTM),")
    print(text, end="")
    report("6c compare report carries published values", ok,
           "published train/test losses printed beside measured")


def test_criterion_6_runtime(experiment):
    elapsed = experiment["elapsed"]
    report("6 desk-scale experiment runtime", elapsed < 900.0,
           f"three 100-epoch trainings in {elapsed / 60:.1f} min")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_byte_identical_reports(tmp_path):
    out = str(tmp_path / "run")
    flags = ["train", "--data", DATA, "--model", "qtft", "--out", out,
             "--epochs", "1", "--seed", "5"]
    assert cli_main(flags) == 0
    canonical = ("report.txt", "loss.csv", "predictions.csv", "params.txt")
    first = {name: open(os.path.join(out, name), "rb").read() for name in canonical}
    assert cli_main(flags) == 0
    same = all(first[name] == open(os.path.join(out, name), "rb").read()
               for name in canonical)
    report("7 determinism of reports", same,
           "repeat run with identical flags reproduced all four files byte for byte")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_structural_reductions(rng):
    # classical: one head equals plain attention (up to the combine matrix)
    p = tft_core.init_attention(rng, 3, num_heads=1)
    s = rng.uniform(-1, 1, (5, 3))
    got = tft_core.interpretable_multi_head(s, p).value
    want = tft_core.attention(s @ p.wq.value[0], s @ p.wk.value[0],
                              s @ p.wv.value, p.wh.value.shape[0]).value @ p.wh.value
    classical_dev = float(np.max(np.abs(got - want)))

    # quantum: one head equals attention over the circuit projections
    qp = qtft_core.init_qattention(rng, 2, 1, 2, "angle", "basic")
    qs = rng.uniform(-1, 1, (4, 2))
    qgot = qtft_core.q_interpretable_multi_head(qs, qp).value
    q = np.stack([qtft_core.vqc_apply(r, oracles.block(qp.query_blocks, 0)).value for r in qs])
    k = np.stack([qtft_core.vqc_apply(r, oracles.block(qp.key_blocks, 0)).value for r in qs])
    v = np.stack([qtft_core.vqc_apply(r, qp.value_block).value for r in qs])
    qwant = tft_core.attention(q, k, v, 2.0).value
    quantum_dev = float(np.max(np.abs(qgot - qwant)))

    # gate-list identity between the two ansatz builders
    lists_equal = True
    for n, layers in [(2, 1), (3, 2), (4, 3), (5, 1)]:
        nl = n_local(n, layers)
        be = basic_entangler_layers(n, layers, "RY")
        lists_equal = lists_equal and nl.ops[:len(be.ops)] == be.ops
        tail = nl.ops[len(be.ops):]
        lists_equal = lists_equal and len(tail) == n and all(g.kind == "RY" for g in tail)

    ok = classical_dev < 1e-12 and quantum_dev < 1e-12 and lists_equal
    report("8 structural reductions", ok,
           f"single-head deviations {classical_dev:.1e} / {quantum_dev:.1e}, "
           f"ansatz gate lists {'match' if lists_equal else 'differ'}")
