import copy
import math

import numpy as np
import pytest

import oracles
from qtft import grad, qtft_core, tft_core
from qtft.forecasting import TrainConfig, build_model
from qtft.grad import backward, param
from qtft.quantum_sim import (
    BindingError,
    ParameterizedCircuit,
    compose,
    measure_all_z,
    run_circuit,
)
from qtft.qtft_core import (
    build_ansatz,
    init_qattention,
    init_qglu,
    init_qgrn,
    init_qlstm,
    init_qvsn,
    init_vqc_block,
    q_interpretable_multi_head,
    q_variable_selection,
    qglu,
    qgrn,
    qlstm_gate,
    qlstm_seq,
    vqc_apply,
)
from qtft.tft_core import attention, lstm_step


def fd_check(loss_fn, leaves):
    loss = loss_fn()
    backward(loss)
    analytic = [(p, p.grad.copy() if p.grad is not None else np.zeros_like(p.value))
                for p in leaves]
    for p in leaves:
        p.grad = None
    for p, got in analytic:
        base = p.value.copy()

        def f(flat, p=p, base=base):
            p.value = flat.reshape(base.shape)
            out = float(loss_fn().value[0])
            p.value = base
            return out

        assert oracles.verify_gradient(f, base.reshape(-1), got)


def collect(params):
    return tft_core.leaves(params)


# ------------------------------------------------------------------ vqc_apply

def test_vqc_identity_configuration(rng):
    p = init_vqc_block(rng, 3, 1, encoding="angle", ansatz="basic")
    p.weights.value = np.zeros_like(p.weights.value)
    out = vqc_apply(np.zeros(3), p)
    np.testing.assert_allclose(out.value, np.ones(3), atol=1e-12)


def test_vqc_outputs_bounded(rng):
    for enc in ("angle", "zz"):
        for anz in ("basic", "nlocal"):
            p = init_vqc_block(rng, 2, 2, encoding=enc, ansatz=anz)
            out = vqc_apply(rng.uniform(-2, 2, 2), p)
            assert np.all(np.abs(out.value) <= 1 + 1e-12)


def test_vqc_matches_dense_oracle(rng):
    p = init_vqc_block(rng, 2, 2, encoding="zz", ansatz="nlocal")
    x = rng.uniform(-1, 1, 2)
    amps = oracles.dense_run(p.circuit, x, p.weights.value)
    want = np.array([oracles.z_expectation(amps, q) for q in range(2)])
    np.testing.assert_allclose(vqc_apply(x, p).value, want, atol=1e-10)


def test_vqc_width_mismatch(rng):
    p = init_vqc_block(rng, 2, 1)
    with pytest.raises(ValueError):
        vqc_apply(np.zeros(3), p)


@pytest.mark.parametrize("encoding", ["angle", "zz"])
def test_qgrn_rejects_inputs_of_another_width(rng, encoding):
    """The circuit binding checks the input width, as one feature slot per qubit."""
    p = init_qgrn(rng, 2, 1, True, encoding)
    with pytest.raises(BindingError, match="expected 2 features"):
        qgrn(np.zeros((3, 3)), None, p)
    with pytest.raises(BindingError, match="expected 2 features"):
        qgrn(np.zeros((3, 2)), np.zeros((1, 3)), p)
    assert qgrn(np.zeros((3, 2)), np.zeros((1, 2)), p).value.shape == (3, 2)


# ----------------------------------------------------------------------- QGLU

def test_qglu_identity_branches(rng):
    p = init_qglu(rng, 2, 1)
    p.branch_gate.weights.value = np.zeros(2)
    p.branch_lin.weights.value = np.zeros(2)
    out = qglu(np.zeros(2), p)
    sigma1 = 1 / (1 + math.exp(-1.0))
    np.testing.assert_allclose(out.value, [sigma1, sigma1], atol=1e-12)


def test_qglu_output_bounded(rng):
    p = init_qglu(rng, 3, 2, encoding="zz")
    out = qglu(rng.uniform(-2, 2, 3), p)
    assert np.all(np.abs(out.value) <= 1.0 + 1e-12)


def test_qglu_gradients(rng):
    p = init_qglu(rng, 2, 1)
    x = param(rng.uniform(-1, 1, 2))
    y = rng.uniform(-1, 1, 2)
    leaves = collect(p) + [x]
    fd_check(lambda: grad.pinball(y, qglu(x, p), 0.5), leaves)


def test_qgrn_cached_circuits_skip_reencoding(rng):
    # the cached branch circuits must match composing the eta2 prefix by hand;
    # three qubits, because a 2-wide layer norm hides all but the signs
    g = init_qgrn(rng, 3, 1, with_context=False)
    a = rng.uniform(-1, 1, 3)
    out = qgrn(a, None, g)
    a2 = measure_all_z(run_circuit(g.vqc_a.circuit, a, g.vqc_a.weights.value))
    eta1 = np.where(a2 >= 0.0, a2, np.exp(np.minimum(a2, 0.0)) - 1.0)
    branch = compose(g.vqc_eta2.circuit, build_ansatz(3, 1, "basic"))
    gate_z = measure_all_z(run_circuit(
        branch, eta1,
        np.concatenate([g.vqc_eta2.weights.value, g.qglu.branch_gate.weights.value])))
    lin_z = measure_all_z(run_circuit(
        branch, eta1,
        np.concatenate([g.vqc_eta2.weights.value, g.qglu.branch_lin.weights.value])))
    residual = a + (1 / (1 + np.exp(-gate_z))) * lin_z
    want = (residual - residual.mean()) / np.sqrt(residual.var() + 1e-5)
    np.testing.assert_allclose(out.value, want, atol=1e-12)


# ----------------------------------------------------------------------- QGRN

def test_qgrn_preserves_width(rng):
    p = init_qgrn(rng, 3, 1, with_context=True)
    out = qgrn(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), p)
    assert out.value.shape == (3,)


def test_qgrn_residual_bound(rng):
    # the gated term is a product of a sigmoid and an expectation, so the
    # pre-normalization residual stays within |a|_inf + 1
    p = init_qgrn(rng, 2, 2, with_context=False)
    a = rng.uniform(-3, 3, 2)
    a2 = vqc_apply(grad.const(a), p.vqc_a)
    eta1 = grad.elu(a2)
    residual = a + qglu(eta1, p.qglu, p.vqc_eta2).value
    assert np.all(np.abs(residual) <= np.abs(a).max() + 1 + 1e-12)


def test_qgrn_context_skipped_when_absent(rng):
    p = init_qgrn(rng, 2, 1, with_context=True)
    with pytest.raises(ValueError):
        qgrn(np.zeros(2), np.zeros(2), init_qgrn(rng, 2, 1, with_context=False))
    out_with = qgrn(rng.uniform(-1, 1, 2), None, p)  # context omitted entirely
    assert out_with.value.shape == (2,)


def test_qgrn_gradients(rng):
    p = init_qgrn(rng, 2, 1, with_context=True)
    a = rng.uniform(-1, 1, 2)
    c = rng.uniform(-1, 1, 2)
    y = rng.uniform(-1, 1, 2)
    fd_check(lambda: grad.pinball(y, qgrn(a, c, p), 0.5), collect(p))


# ---------------------------------------------------- quantum variable selection

def test_q_variable_selection_single_variable(rng):
    p = init_qvsn(rng, 2, 1, False, 1, "angle", "basic")
    _, weights = q_variable_selection(oracles.on_sets([rng.uniform(-1, 1, 2)]), None, p)
    np.testing.assert_allclose(weights.value, [[1.0]], atol=0)


@pytest.mark.parametrize("lead", [(1,), (3,), (2, 3)])
def test_q_variable_selection_of_one_variable_runs_only_its_qgrn(rng, lead):
    p = init_qvsn(rng, 2, 1, True, 1, "angle", "basic")
    e = rng.uniform(-1, 1, lead + (2,))
    selected, weights = q_variable_selection(oracles.on_sets([e]),
                                             rng.uniform(-1, 1, lead + (2,)), p)
    np.testing.assert_array_equal(selected.value,
                                  qgrn(e, None, oracles.block(p.var_grns, 0)).value)
    assert weights.parents == () and weights.value.shape == lead + (1,)
    assert np.all(weights.value == 1.0)
    assert p.flatten_proj is p.context_proj is p.weight_grn is None
    backward(grad.mean_all(selected))
    assert all(leaf.grad is not None for leaf in tft_core.leaves(p))


def test_q_variable_selection_simplex_and_hull(rng):
    p = init_qvsn(rng, 2, 3, True, 1, "angle", "basic")
    embeds = [rng.uniform(-1, 1, 2) for _ in range(3)]
    c_s = rng.uniform(-1, 1, 2)
    selected, weights = q_variable_selection(oracles.on_sets(embeds), c_s, p)
    assert np.all(weights.value >= 0)
    assert weights.value.sum() == pytest.approx(1.0, abs=1e-12)
    processed = np.stack([qgrn(e, None, oracles.block(p.var_grns, i)).value
                          for i, e in enumerate(embeds)])
    assert np.all(selected.value[0] >= processed.min(axis=0) - 1e-12)
    assert np.all(selected.value[0] <= processed.max(axis=0) + 1e-12)


def test_q_static_covariate_encoder(rng):
    base = init_qgrn(rng, 2, 1, with_context=False)
    encoders = tft_core.stack_sets([base] + [copy.deepcopy(base) for _ in range(3)])
    xi = rng.uniform(-1, 1, (1, 2))
    outs = qgrn(tft_core.shared_input(xi), None, encoders).value
    assert outs.shape == (4, 1, 2)
    np.testing.assert_array_equal(outs[0], qgrn(xi, None, base).value)
    for other in outs[1:]:
        np.testing.assert_allclose(outs[0], other, atol=0)


def test_q_static_covariate_encoder_gradients(rng):
    encoders = tft_core.stack_sets([init_qgrn(rng, 2, 1, with_context=False) for _ in range(4)])
    xi = rng.uniform(-1, 1, (1, 2))
    y = rng.uniform(-1, 1, (1, 2))

    def loss():
        out = qgrn(tft_core.shared_input(xi), None, encoders)
        c_s, c_e, c_c, c_h = (grad.part(out, np.s_[..., i, :, :]) for i in range(4))
        return grad.pinball(y, grad.add(grad.add(c_s, c_e), grad.add(c_c, c_h)), 0.5)

    fd_check(loss, collect(encoders))


# ------------------------------------------------------------ quantum attention

def test_q_attention_single_head_reduction(rng):
    p = init_qattention(rng, 2, 1, 1, "angle", "basic")
    s = rng.uniform(-1, 1, (3, 2))
    got = q_interpretable_multi_head(s, p).value
    q = np.stack([vqc_apply(r, oracles.block(p.query_blocks, 0)).value for r in s])
    k = np.stack([vqc_apply(r, oracles.block(p.key_blocks, 0)).value for r in s])
    v = np.stack([vqc_apply(r, p.value_block).value for r in s])
    want = attention(q, k, v, 2.0).value
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_q_attention_averages_the_heads(rng):
    p = init_qattention(rng, 2, 3, 1, "angle", "basic")
    s = rng.uniform(-1, 1, (4, 2))
    v = vqc_apply(s, p.value_block).value
    heads = [attention(vqc_apply(s, oracles.block(p.query_blocks, h)).value,
                       vqc_apply(s, oracles.block(p.key_blocks, h)).value, v, 2.0).value
             for h in range(3)]
    np.testing.assert_allclose(q_interpretable_multi_head(s, p).value,
                               np.mean(heads, axis=0), atol=1e-12)


def test_q_attention_outputs_in_value_hull(rng):
    p = init_qattention(rng, 2, 2, 1, "zz", "nlocal")
    out = q_interpretable_multi_head(rng.uniform(-1, 1, (4, 2)), p).value
    assert np.all(np.abs(out) <= 1.0 + 1e-12)


def test_q_attention_gradients(rng):
    p = init_qattention(rng, 2, 1, 1, "angle", "basic")
    s = param(rng.uniform(-1, 1, (2, 2)))
    y = rng.uniform(-1, 1, 2)

    def loss():
        out = q_interpretable_multi_head(s, p)
        return grad.pinball(y, grad.part(out, 0), 0.5)

    fd_check(loss, collect(p) + [s])


# ---------------------------------------------------------------------- QLSTM

def test_qlstm_zero_projection_closed_form(rng):
    p = init_qlstm(rng, 2, 2, 1, "angle", "basic")
    assert (p.proj.W.value.shape, p.vqc.weights.value.shape) == ((4, 2, 4), (4, 2))
    p.proj.W.value = np.zeros_like(p.proj.W.value)
    p.proj.b.value = np.zeros_like(p.proj.b.value)
    # all gates see the zero vector, so they are constants of the circuits
    def const_gate(j, squash):
        z = measure_all_z(run_circuit(p.vqc.circuit, np.zeros(2), p.vqc.weights.value[j]))
        return squash(z)

    sig = lambda v: 1 / (1 + np.exp(-v))
    i = const_gate(0, sig)
    f = const_gate(1, sig)
    g = const_gate(2, np.tanh)
    o = const_gate(3, sig)
    c0, h0 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    h1, c1 = lstm_step(rng.uniform(-1, 1, 2), param(h0), param(c0), p, qlstm_gate)
    c_want = f * c0 + i * g
    np.testing.assert_allclose(c1.value, c_want, atol=1e-12)
    np.testing.assert_allclose(h1.value, o * np.tanh(c_want), atol=1e-12)


def test_a_qlstm_step_runs_one_projection_and_one_single_set_circuit_call(rng, monkeypatch):
    """The four gate maps are one block with a set axis: one affine projects
    concat(x, h) for every gate, and their circuits run as one set of one call."""
    p = init_qlstm(rng, 2, 2, 1, "angle", "basic")
    calls, affines, original = [], [], qtft_core.quantum_forward
    monkeypatch.setattr(qtft_core, "quantum_forward",
                        lambda c, f, w: calls.append(len(c)) or original(c, f, w))
    monkeypatch.setattr(grad, "affine", lambda *a, f=grad.affine: affines.append(1) or f(*a))
    h0, c0 = param(rng.uniform(-1, 1, (1, 1, 2))), param(rng.uniform(-1, 1, (1, 1, 2)))
    h, _ = lstm_step(rng.uniform(-1, 1, (3, 1, 2)), h0, c0, p, qlstm_gate)
    assert (calls, len(affines), h.value.shape) == ([1], 1, (3, 1, 2))


def test_qlstm_hidden_state_bounded(rng):
    p = init_qlstm(rng, 2, 2, 1, "angle", "basic")
    h, c = param(np.zeros(2)), param(np.zeros(2))
    for _ in range(4):
        h, c = lstm_step(rng.uniform(-2, 2, 2), h, c, p, qlstm_gate)
        assert np.all(np.abs(h.value) < 1.0)


def test_qlstm_gradients_two_steps(rng):
    p = init_qlstm(rng, 2, 2, 1, "angle", "basic")
    inputs = [rng.uniform(-1, 1, 2) for _ in range(2)]
    y = rng.uniform(-1, 1, 2)

    def loss():
        outs, _ = qlstm_seq(inputs, np.zeros(2), np.zeros(2), p)
        return grad.pinball(y, outs[-1], 0.5)

    fd_check(loss, collect(p))


# ------------------------------------------------------------------ full model

def desk_model(kind="qtft", seed=0):
    return build_model(TrainConfig(model_kind=kind, seed=seed), 5, 1, 1)


def test_leaf_names_follow_the_dense_model():
    """The LSTM gates are one block with a set axis labelled i, f, g and o:
    snapshots name each gate as the four gate fields once did."""
    names = [name for name, _ in desk_model("qtft-qlstm").named_leaves()]
    for expected in ("past_vsn.var_grns.0.vqc_a.weights", "past_vsn.context_proj.W",
                     "past_vsn.weight_grn.vqc_c.weights", "encoder_lstm.wi.proj.W",
                     "encoder_lstm.wf.vqc.weights", "decoder_lstm.wg.proj.b",
                     "decoder_lstm.wo.vqc.weights"):
        assert expected in names
    assert not [n for n in names if "qgrn" in n or "input_gate" in n or "output_gate" in n]
    tft_names = [name for name, _ in desk_model("tft").named_leaves()]
    assert [n for n in tft_names if n.startswith("encoder_lstm.")] == [
        f"encoder_lstm.{gate}.{leaf}" for gate in ("wi", "wf", "wg", "wo") for leaf in "Wb"]
    assert "decoder_lstm.wo.b" in tft_names
    tft_vsn = [n for n in tft_names if n.startswith("past_vsn.")]
    assert tft_vsn and not [n for n in tft_vsn if "context_proj" in n]


def test_qtft_forward_shape(rng):
    model = desk_model(seed=3)
    assert model.params.heads.W.value.shape == (1, 2)   # one head, for the trained quantile
    out = model.predict(np.array([1.0]), rng.uniform(20, 30, (2, 5)),
                        rng.uniform(0, 1, (2, 1)))
    assert out.shape == (2,)
    batch = model.predict(np.ones((3, 1)), rng.uniform(20, 30, (3, 2, 5)),
                          rng.uniform(0, 1, (3, 2, 1)))
    assert batch.shape == (3, 2)


def test_qtft_frozen_zero_smoke(axis_csv):
    from qtft import data_io, forecasting
    table = data_io.load_csv(axis_csv, ["Open", "High", "Low", "Last"], "Close")
    cfg = forecasting.TrainConfig(model_kind="qtft")
    windows, _ = forecasting.build_stock_windows(table.rows, table.column_index("Close"), cfg)
    model = desk_model()
    for name, node in model.named_leaves():
        if node.value.ndim == 1 and "weights" in name:
            node.value[...] = 0.0   # a block's slice of a stacked leaf writes through
    w = windows[0]
    out = model.predict(w.static, w.past, w.future_known)
    assert np.all(np.isfinite(out))


def test_qtft_param_count_self_consistent():
    model = desk_model(seed=1)
    names = [n for n, _ in model.named_leaves()]
    assert len(names) == len(set(names))
    # independent enumeration by brute object walk
    seen = set()
    total = 0
    stack = [model.params]
    while stack:
        obj = stack.pop()
        if isinstance(obj, grad.Node):
            if id(obj) not in seen:
                seen.add(id(obj))
                total += obj.value.size
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dataclass_fields__") and not hasattr(obj, "ops"):
            from dataclasses import fields
            stack.extend(getattr(obj, f.name) for f in fields(obj))
    assert model.param_count() == total == 479


@pytest.mark.parametrize("kind, blocks, shared", [("qtft", 67, 28), ("qtft-qlstm", 75, 34)])
def test_blocks_keep_only_the_circuits_they_run(kind, blocks, shared):
    # one circuit per block, and one for all k blocks of a block with a set
    # axis (k rows of weights); a QGRN gates through its QGLU's branch
    # circuits, which run after the eta2 block's circuit
    from dataclasses import fields, is_dataclass

    circuits, counts, stack = {}, [], [desk_model(kind).params]
    while stack:
        obj = stack.pop()
        if isinstance(obj, qtft_core.VQCBlockParams):
            circuits[id(obj.circuit)] = obj.circuit
            counts.append(obj.weights.value.shape[0] if obj.weights.value.ndim == 2 else 1)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif is_dataclass(obj):
            stack.extend(getattr(obj, f.name) for f in fields(obj))
    assert sum(counts) == blocks
    # the 5 past variable QGRNs' 20 circuits and the 4 static encoders' 16 are 4 each,
    # and each QLSTM's 4 gate circuits are 1
    assert len(circuits) == len(counts) == blocks - shared
    # encoding + ansatz and eta2 prefix + ansatz, at 2 and 5 qubits: the 1-qubit blocks of
    # the one-variable selection networks are built but not kept, as they never run
    assert len({c.ops for c in circuits.values()}) == 4


@pytest.mark.parametrize("kind", ["qtft", "qtft-qlstm"])
def test_each_distinct_encoding_and_ansatz_is_built_once(kind, monkeypatch):
    built = []
    for name in ("angle_embedding", "basic_entangler_layers"):
        original = getattr(qtft_core, name)
        monkeypatch.setattr(qtft_core, name,
                            lambda *args, f=original, name=name: built.append((name, args))
                            or f(*args))
    qtft_core.build_encoding.cache_clear()
    qtft_core.build_ansatz.cache_clear()
    first = desk_model(kind)
    # at 2, 5 and 1 qubits
    assert sorted(built) == sorted(set(built)) and len(built) == 6
    second = desk_model(kind)
    assert len(built) == 6
    # the blocks share the built gates, but each keeps its own circuit object
    ours, theirs = (m.params.final_glu.branch_gate.circuit for m in (first, second))
    assert ours is not theirs and all(a is b for a, b in zip(ours.ops, theirs.ops))


def test_qtft_qlstm_variant_builds_and_runs(rng):
    model = desk_model("qtft-qlstm", seed=2)
    out = model.predict(np.array([1.0]), rng.uniform(20, 30, (2, 5)),
                        rng.uniform(0, 1, (2, 1)))
    assert out.shape == (2,) and np.all(np.isfinite(out))
    assert model.kind == "qtft-qlstm"


@pytest.mark.parametrize("use_qlstm", [False, True])
def test_every_circuit_run_reaches_the_outputs(rng, monkeypatch, use_qlstm):
    from qtft import qtft_core

    built = []

    def recording(circuits, features, weights):
        nodes = grad.quantum_forward(circuits, features, weights)
        built.extend(nodes)
        return nodes

    monkeypatch.setattr(qtft_core, "quantum_forward", recording)
    model = desk_model("qtft-qlstm" if use_qlstm else "qtft", seed=4)
    outputs = model.predict_nodes(np.array([1.0]), rng.uniform(20, 30, (3, 5)),
                                  rng.uniform(0, 1, (2, 1)))
    reachable, stack = set(), list(outputs)
    while stack:
        node = stack.pop()
        if id(node) not in reachable:
            reachable.add(id(node))
            stack.extend(node.parents)
    assert built
    assert sum(id(node) not in reachable for node in built) == 0
