"""A batch of windows or bindings computes what one at a time computes.

Training, evaluation and prediction run every window through one graph
whose values carry a leading window axis, and every circuit block runs
all its rows in one simulator call.  These properties pin the batched
paths to the per-window and per-row paths they replace.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qtft import data_io, forecasting, grad, quantum_sim
from qtft.forecasting import TrainConfig, WindowedSample
from qtft.quantum_sim import (
    CircuitError,
    LiteralAngle,
    StateVector,
    measure_all_z,
    run_circuit,
)


def random_windows(rng, count, k=2, tau=2):
    return [WindowedSample(past=rng.uniform(20, 30, (k, 5)),
                           future_known=rng.uniform(0, 1, (tau, 1)),
                           static=np.array([1.0]), targets=rng.uniform(20, 30, tau))
            for _ in range(count)]


def leaf_grads(model, loss):
    grad.backward(loss)
    out = [np.zeros_like(leaf.value) if leaf.grad is None else leaf.grad
           for leaf in model.leaves()]
    for leaf in model.leaves():
        leaf.grad = None
    return out


@pytest.mark.parametrize("kind", ["tft", "qtft"])
@settings(max_examples=15, deadline=None)
@given(count=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_forward_and_gradient_match_per_window(kind, count, seed):
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(model_kind=kind, seed=int(rng.integers(100)))
    model = forecasting.build_model(cfg, 5, 1, 1)
    windows = random_windows(rng, count)
    static, past, future, _ = forecasting.stack_windows(windows)

    batched = model.predict_nodes(static, past, future)[0].value
    for row, w in zip(batched, windows):
        np.testing.assert_allclose(row, model.predict(w.static, w.past, w.future_known),
                                   rtol=1e-12, atol=0)

    got = leaf_grads(model, forecasting.batch_loss_node(model, windows, cfg.quantile))
    per_window = [leaf_grads(model, forecasting.batch_loss_node(model, [w], cfg.quantile))
                  for w in windows]
    scale = max(float(np.max(np.abs(g))) for g in got)
    for leaf, g, *singles in zip(model.leaves(), got, *per_window):
        assert g.shape == leaf.value.shape
        np.testing.assert_allclose(g, sum(singles) / count, rtol=1e-12, atol=1e-12 * scale)


def _shiftable(circuit):
    return not any(g.kind == "CRZ" and not isinstance(g.angle, LiteralAngle)
                   for g in circuit.ops if g.angle is not None)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 6))
def test_batched_circuit_rows_match_single_rows(seed, rows):
    rng = np.random.default_rng(seed)
    circ, feats, wts = oracles.random_circuit(rng, max_qubits=5, max_depth=12)
    features = rng.uniform(-1.5, 1.5, (rows, circ.num_feature_slots))
    features[0] = feats
    # 1-2 qubits agree bit for bit; wider <Z> products may round differently per batch size.
    tol = 0.0 if circ.num_qubits <= 2 else 1e-15

    state = run_circuit(circ, features, wts)
    assert state.amplitudes.shape == (rows, 2 ** circ.num_qubits)
    z = measure_all_z(state)
    for f, amps, zr in zip(features, state.amplitudes, z):
        single = run_circuit(circ, f, wts)
        np.testing.assert_array_equal(amps, single.amplitudes)
        np.testing.assert_allclose(zr, measure_all_z(single), rtol=0, atol=tol)

    if not _shiftable(circ):
        return
    jf, jw = grad.shift_rule_jacobians(circ, features, wts)
    assert jf.shape == (rows, circ.num_feature_slots, circ.num_qubits)
    assert jw.shape == (rows, circ.num_weight_slots, circ.num_qubits)
    for f, jf_row, jw_row in zip(features, jf, jw):
        jf_one, jw_one = grad.shift_rule_jacobians(circ, f, wts)
        np.testing.assert_allclose(jf_row, jf_one, rtol=0, atol=tol)
        np.testing.assert_allclose(jw_row, jw_one, rtol=0, atol=tol)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), positions=st.integers(1, 4),
       windows=st.sampled_from([None, 1, 3]))
def test_quantum_forward_over_positions_matches_per_row_runs(seed, positions, windows):
    """Features shaped (..., T, d) run in one simulator call and give one
    circuit node per position, fed by that position's row."""
    rng = np.random.default_rng(seed)
    circ, _, wts = oracles.random_circuit(rng, max_qubits=5, max_depth=12)
    n = circ.num_qubits
    lead = (positions,) if windows is None else (windows, positions)
    features = rng.uniform(-1.5, 1.5, lead + (circ.num_feature_slots,))
    tol = 0.0 if n <= 2 else 1e-15

    out = grad.quantum_forward(circ, features, wts)
    assert out.value.shape == lead + (n,)
    assert len(out.parents) == positions
    for t, node in enumerate(out.parents):
        assert isinstance(node, grad.QuantumNode) and node.circuit is circ
        row = features[..., t, :]
        np.testing.assert_array_equal(node.feature_parent.value, row)
        np.testing.assert_array_equal(out.value[..., t, :], node.value)
        for idx in np.ndindex(lead[:-1]):
            single = measure_all_z(run_circuit(circ, row[idx], wts))
            np.testing.assert_allclose(node.value[idx], single, rtol=0, atol=tol)
        if not _shiftable(circ):
            continue
        jf, jw = grad.shift_rule_jacobians(circ, row, wts)
        for q in range(n):
            u = np.zeros(node.value.shape)
            u[..., q] = 1.0
            rule_f, rule_w = node.backward_rule(u)
            np.testing.assert_array_equal(rule_f, jf[..., q])
            np.testing.assert_array_equal(rule_w, jw[..., q].sum(axis=0) if windows else jw[:, q])


def test_single_window_forward_runs_each_block_circuit_once(monkeypatch):
    runs = []
    original = grad.run_circuit

    def counting(circuit, features, weights):
        runs.append(id(circuit))
        return original(circuit, features, weights)

    monkeypatch.setattr(grad, "run_circuit", counting)
    model = forecasting.build_model(TrainConfig(model_kind="qtft"), 5, 1, 1)
    w = random_windows(np.random.default_rng(3), 1)[0]
    model.predict_nodes(w.static, w.past, w.future_known)
    # One call per block circuit over all its positions (109 at one call per position).
    assert len(runs) == len(set(runs)) == 53


def test_state_vector_rejects_one_unnormalized_row():
    good = np.array([1.0, 0.0], dtype=complex)
    StateVector(1, np.stack([good, good / 1j]))
    with pytest.raises(CircuitError, match="not normalized"):
        StateVector(1, np.stack([good, good, np.array([math.sqrt(0.5), 0.5])]))


def quantum_nodes(root):
    """Every circuit node reachable from ``root``, each once."""
    seen, stack, out = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
            if isinstance(node, grad.QuantumNode):
                out.append(node)
    return out


def test_single_window_graph_feeds_circuits_one_row():
    rng = np.random.default_rng(5)
    cfg = TrainConfig(model_kind="qtft")
    model = forecasting.build_model(cfg, 5, 1, 1)
    loss = forecasting.batch_loss_node(model, random_windows(rng, 3), cfg.quantile)
    w = random_windows(rng, 1)[0]
    single = grad.pinball(w.targets, model.predict_nodes(w.static, w.past, w.future_known)[0],
                          cfg.quantile)
    for root, lead in ((single, ()), (loss, (3,))):
        circuit_nodes = quantum_nodes(root)
        # 109 before block values carried a position axis: the context circuit
        # (vqc_c) of the past-VSN weight QGRN ran once per past step (2) and
        # that of enrichment once per position (4); both now run once on the
        # one-position context, so 4 nodes are gone.
        # 120 before one-variable selection networks skipped their weight QGRN.
        # The 11 nodes gone are the 1-qubit weight QGRN's circuits (vqc_a, gate,
        # lin, and vqc_c where a context enters) of the static VSN (3) and of
        # the future VSN at each of the 2 forecast steps (2 x 4).
        assert len(circuit_nodes) == 105
        for node in circuit_nodes:
            n = node.circuit.num_qubits
            assert node.feature_parent.value.shape == lead + (node.circuit.num_feature_slots,)
            assert node.weight_parent.value.ndim == 1
            assert node.value.shape == lead + (n,)


def test_training_graph_differentiates_past_selection_through_the_prefix_sweep(
        axis_csv, monkeypatch):
    """Every node of the 5-qubit past-VSN weight QGRN in the 17-window training
    graph runs its shift batch through the prefix sweep; its backward rule must
    give the Jacobian of the same shifted rows run one full row at a time."""
    table = data_io.load_csv(axis_csv, ["Open", "High", "Low", "Last"], "Close")
    cfg = TrainConfig(model_kind="qtft")
    train_w, _ = forecasting.build_stock_windows(table.rows, table.column_index("Close"), cfg)
    model = forecasting.build_model(cfg, 5, 1, 1)
    loss = forecasting.batch_loss_node(model, train_w, cfg.quantile)
    wg = model.params.past_vsn.weight_grn
    circuits = [wg.vqc_a.circuit, wg.vqc_c.circuit,
                wg.qglu.branch_gate.circuit, wg.qglu.branch_lin.circuit]
    nodes = [node for node in quantum_nodes(loss) if any(node.circuit is c for c in circuits)]
    # vqc_a, gate and lin run per past step; vqc_c runs once on the one-position context.
    assert len(nodes) == cfg.past_steps * 3 + 1
    for node in nodes:
        circ, n = node.circuit, node.circuit.num_qubits
        features, weights = node.feature_parent.value, node.weight_parent.value
        rows = len(train_w) * 2 * circ.plan.shift_gates.size
        assert n == 5 and features.shape[0] == 17
        assert rows * 2 ** n >= quantum_sim.PREFIX_SWEEP_AMPLITUDES
        with monkeypatch.context() as mp:
            mp.setattr(grad, "run_bound_batch",
                       lambda c, angle_rows, shifted: quantum_sim.run_bound_batch(c, angle_rows))
            jf, jw = grad.shift_rule_jacobians(circ, features, weights)
        for q in range(n):
            u = np.zeros(node.value.shape)
            u[:, q] = 1.0
            rule_f, rule_w = node.backward_rule(u)
            np.testing.assert_array_equal(rule_f, jf[..., q])
            np.testing.assert_array_equal(rule_w, jw[..., q].sum(axis=0))
