import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qtft import data_io, forecasting, grad
from qtft.quantum_sim import (
    WEIGHT,
    CircuitError,
    Gate,
    LiteralAngle,
    PairInteractionAngle,
    ParameterizedCircuit,
    SlotAngle,
    angle_embedding,
    basic_entangler_layers,
    compose,
    measure_all_z,
    run_circuit,
    zz_feature_map,
)
from qtft.grad import (
    Node,
    backward,
    param,
    quantum_forward,
    sgd_step,
    shift_rule_jacobians,
)


def scalar(node):
    return float(node.value.reshape(-1)[0])


# ---------------------------------------------------------------- tape basics

def test_square_gradient():
    x = param([3.0])
    loss = grad.mul(x, x)
    backward(loss)
    np.testing.assert_allclose(x.grad, [6.0], atol=0)


def test_sigmoid_gradient_at_zero():
    x = param([0.0])
    backward(grad.sigmoid(x))
    np.testing.assert_allclose(x.grad, [0.25], atol=1e-15)


def test_two_sgd_steps_on_square():
    x = param([1.0])
    for _ in range(2):
        backward(grad.mul(x, x))
        sgd_step([x], 0.1)
    assert scalar(x) == pytest.approx(0.64, abs=1e-15)


def test_sgd_step_definition():
    x = param([1.0])
    x.grad = np.array([0.5])
    sgd_step([x], 0.1)
    assert scalar(x) == pytest.approx(0.95, abs=0)
    assert x.grad is None
    sgd_step([x], 0.1)  # zero grad leaves the value alone
    assert scalar(x) == pytest.approx(0.95, abs=0)


def test_backward_rejects_non_scalar():
    x = param([1.0, 2.0])
    with pytest.raises(ValueError):
        backward(grad.mul(x, x))


def test_fanout_accumulates():
    x = param([2.0])
    loss = grad.add(grad.mul(x, x), grad.scale(x, 3.0))  # x^2 + 3x -> 2x + 3
    backward(loss)
    np.testing.assert_allclose(x.grad, [7.0], atol=1e-15)


def test_gradient_linearity():
    x = param(np.array([0.3, -0.7, 1.1]))
    la = grad.mean_all(grad.mul(x, x))
    backward(la)
    ga = x.grad.copy()
    x.grad = None
    lb = grad.mean_all(grad.elu(x))
    backward(lb)
    gb = x.grad.copy()
    x.grad = None
    backward(grad.add(grad.mean_all(grad.mul(x, x)), grad.mean_all(grad.elu(x))))
    np.testing.assert_allclose(x.grad, ga + gb, atol=1e-12)


def test_bit_identical_determinism():
    def run():
        x = param(np.array([0.25, -1.5]))
        w = param(np.array([[0.3, -0.2], [0.7, 0.1]]))
        loss = grad.pinball(np.array([0.1, 0.2]),
                            grad.layer_norm(grad.elu(grad.matvec(w, x))), 0.3)
        backward(loss)
        return x.grad.copy(), w.grad.copy()

    (xa, wa), (xb, wb) = run(), run()
    assert np.array_equal(xa, xb) and np.array_equal(wa, wb)


# ------------------------------------------------------- classical op checks

@pytest.mark.parametrize("op", [grad.elu, grad.sigmoid, grad.tanh, grad.softmax,
                                grad.layer_norm])
def test_elementwise_ops_match_finite_differences(op, rng):
    x0 = rng.uniform(-2, 2, 5)
    x = param(x0)
    backward(grad.mean_all(op(x)))

    def f(v):
        return float(grad.mean_all(op(Node(v))).value[0])

    fd = oracles.central_difference(f, x0)
    assert oracles.grads_close(x.grad, fd)


def test_matrix_ops_match_finite_differences(rng):
    a0 = rng.uniform(-1, 1, (3, 2))
    b0 = rng.uniform(-1, 1, (2, 4))
    a, b = param(a0), param(b0)
    out = grad.softmax(grad.matmul(a, b))
    backward(grad.mean_all(grad.row(out, 1)))

    def f_a(flat):
        m = grad.matmul(Node(flat.reshape(3, 2)), Node(b0))
        return float(grad.mean_all(grad.row(grad.softmax(m), 1)).value[0])

    fd = oracles.central_difference(f_a, a0.reshape(-1))
    assert oracles.grads_close(a.grad.reshape(-1), fd)


def test_no_tape_records_no_graph_and_restores_taping():
    x = param([1.0, 2.0])
    with grad.no_tape():
        y = grad.mul(x, x)
    assert y.parents == () and y.backward_rule is None
    np.testing.assert_array_equal(y.value, [1.0, 4.0])
    with pytest.raises(RuntimeError):
        with grad.no_tape():
            raise RuntimeError
    backward(grad.mean_all(grad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [1.0, 2.0], atol=0)


def test_pinball_gradient(rng):
    y = rng.uniform(-1, 1, 6)
    p0 = rng.uniform(-1, 1, 6)
    p = param(p0)
    backward(grad.pinball(y, p, 0.7))

    def f(v):
        e = y - v
        return float(np.maximum(-0.3 * e, 0.7 * e).mean())

    fd = oracles.central_difference(f, p0)
    assert oracles.grads_close(p.grad, fd)


# ------------------------------------------------------ gradient accumulation

def _reached(*outputs):
    """Every node reachable from the outputs, each once."""
    seen, stack = {}, list(outputs)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


def _graphs_of_every_op(rng, lead):
    """One output node per op, with operands batched over ``lead`` or unbatched."""
    def leaf(*shape):
        return param(rng.uniform(-1, 1, shape))

    x, y, v = leaf(*lead, 3), leaf(*lead, 3), leaf(3)
    m, mt = leaf(*lead, 2, 3), leaf(3, 4)
    circ = compose(angle_embedding(2), basic_entangler_layers(2, 1))
    return [
        grad.add(x, v), grad.add(v, x), grad.mul(x, v), grad.mul(v, y), grad.scale(x, -2.0),
        grad.matvec(leaf(2, 3), x), grad.affine(leaf(2, 3), x, leaf(2)),
        grad.matmul(m, mt), grad.matmul(leaf(4, 2), m), grad.matmul(m, leaf(*lead, 3, 2)),
        grad.transpose(m), grad.concat([x, y]),
        grad.concat([m, leaf(*lead, 1, 3)], axis=-2), grad.stack_rows([x, y]),
        grad.concat([x, leaf(2)]), grad.concat([leaf(1, 2, 3), m], axis=-2),
        grad.gather(m, rng.integers(0, m.value.size // 3, (4, 2))),
        grad.gather(leaf(3, 1, 2), [[0], [2], [0]]),
        grad.row(m, 1), grad.rows(m, 0, 1), grad.reshape(m, lead + (6,)),
        grad.weighted_sum(grad.softmax(leaf(*lead, 2)), [x, v]),
        grad.elu(x), grad.sigmoid(x), grad.tanh(x), grad.softmax(x), grad.layer_norm(x),
        grad.mean_all(m), grad.pinball(rng.uniform(-1, 1, lead + (3,)), v, 0.3),
        grad.pinball(rng.uniform(-1, 1, 3), x, 0.7),
        quantum_forward(circ, leaf(*lead, 2), leaf(2)),
        quantum_forward(circ, leaf(*lead, 3, 2), leaf(3, 2)),
    ]


@settings(max_examples=25, deadline=None)
@given(lead=st.sampled_from([(), (1,), (3,), (2, 3)]), seed=st.integers(0, 2 ** 32 - 1))
def test_every_rule_returns_contributions_in_its_parents_shapes(lead, seed):
    """``backward`` stores a first contribution as the parent's ``grad``, so
    every rule must return a float64 array of exactly its parent's shape."""
    rng = np.random.default_rng(seed)
    outputs = _graphs_of_every_op(rng, lead)
    nodes = [n for n in _reached(*outputs) if n.backward_rule is not None]
    feature_ranks = {f.value.ndim for n in nodes if isinstance(n, grad.QuantumNode)
                     for f, _ in n.sets}
    # The two circuit sets have features of rank len(lead) + 1 and + 2.  An
    # unbatched (T, d) sequence splits into T nodes of 1-D rows; a set of any
    # other rank, windowed sequences included, is one node over all its rows.
    assert feature_ranks == {1 if r == 2 else r for r in (len(lead) + 1, len(lead) + 2)}
    for node in nodes:
        contribs = node.backward_rule(rng.uniform(-1, 1, node.value.shape))
        assert len(contribs) == len(node.parents)
        for parent, contrib in zip(node.parents, contribs):
            if contrib is not None:
                assert isinstance(contrib, np.ndarray) and contrib.dtype == np.float64
                assert contrib.shape == parent.value.shape, (node, parent)


@settings(max_examples=60, deadline=None)
@given(count=st.integers(1, 6), picks=st.lists(st.integers(0, 5), min_size=1, max_size=8),
       unit=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_gather_is_a_one_hot_product_and_adds_repeated_rows_going_back(count, picks, unit, seed):
    """``gather(x, index)`` is ``E @ x`` for the one-hot rows E of ``index``,
    and its rule ``E.T @ u`` sums the upstream rows of a repeated vector."""
    rng = np.random.default_rng(seed)
    index = np.array([i % count for i in picks])
    x = param(rng.uniform(-1, 1, (count, 1, 3) if unit else (count, 3)))
    one_hot = np.eye(count)[index]
    out = grad.gather(x, index)
    np.testing.assert_array_equal(out.value, one_hot @ x.value.reshape(count, 3))
    u = rng.uniform(-1, 1, out.value.shape)
    (got,) = out.backward_rule(u)
    assert got.shape == x.value.shape
    np.testing.assert_allclose(got.reshape(count, 3), one_hot.T @ u, rtol=1e-15, atol=1e-15)
    if len(set(index.tolist())) == len(index):   # no repeats: each row is one upstream row
        np.testing.assert_array_equal(got.reshape(count, 3)[index], u)


def test_concat_broadcasts_leading_axes_and_sums_them_going_back():
    x, c = param(np.arange(12.0).reshape(3, 2, 2)), param(np.array([[[7.0, 8.0]]]))
    out = grad.concat([x, c])
    np.testing.assert_array_equal(out.value, np.concatenate(
        [x.value, np.broadcast_to(c.value, (3, 2, 2))], axis=-1))
    u = np.arange(24.0).reshape(3, 2, 4)
    gx, gc = out.backward_rule(u)
    np.testing.assert_array_equal(gx, u[..., :2])
    np.testing.assert_array_equal(gc, u[..., 2:].sum(axis=(0, 1), keepdims=True))
    with pytest.raises(ValueError):
        grad.concat([x, param(np.ones((3, 2, 3)))], axis=-2)   # the axis after -2 differs
    with pytest.raises(ValueError):
        grad.concat([x, param(np.ones((2, 2, 2)))])              # 3 and 2 windows


def _assert_backward_matches_zero_filling(loss):
    want = oracles.zero_filling_backward(loss)
    backward(loss)
    assert len(want) == sum(n.grad is not None for n in _reached(loss))
    for node, ref in want:
        got = node.grad
        assert got.shape == ref.shape == node.value.shape and got.dtype == ref.dtype
        # Bit for bit, except that a zero may lose its sign: 0 + (-0) is +0.
        assert (got + 0.0).tobytes() == (ref + 0.0).tobytes()


def _random_fan_out_graph(rng, batch):
    """A loss over random ops whose operands are drawn from every earlier node.

    Nodes are unbatched or batched vectors of length 3; rule outputs include
    views of the upstream gradient (``concat``, ``stack_rows``, ``reshape``).
    """
    nodes = [param(rng.uniform(-1, 1, 3)), param(rng.uniform(-1, 1, 3)),
             grad.const(rng.uniform(-1, 1, batch + (3,)))]
    w, w2, w6 = (param(rng.uniform(-1, 1, shape)) for shape in [(3, 3), (2, 3), (3, 6)])
    ops = [
        grad.add, grad.mul, lambda a, b: grad.scale(a, -0.5), lambda a, b: grad.tanh(a),
        lambda a, b: grad.elu(a), lambda a, b: grad.layer_norm(a),
        lambda a, b: grad.matvec(w, a),
        lambda a, b: grad.weighted_sum(grad.softmax(grad.matvec(w2, a)), [a, b]),
        lambda a, b: grad.matvec(w6, grad.concat([a, grad.sigmoid(a)])),
        lambda a, b: grad.row(grad.stack_rows([a, grad.tanh(a)]), 1),
        lambda a, b: grad.reshape(grad.rows(grad.stack_rows([grad.elu(a), a]), 1, 2),
                                  a.value.shape),
    ]
    for _ in range(int(rng.integers(3, 25))):
        a, b = (nodes[i] for i in rng.integers(len(nodes), size=2))
        nodes.append(ops[int(rng.integers(len(ops)))](a, b))
    return grad.pinball(rng.uniform(-1, 1, 3), grad.add(nodes[-1], nodes[-2]), 0.4)


@settings(max_examples=60, deadline=None)
@given(batch=st.sampled_from([(), (2,), (2, 3)]), seed=st.integers(0, 2 ** 32 - 1))
def test_backward_matches_a_zero_filling_reference_on_fan_out_graphs(batch, seed):
    _assert_backward_matches_zero_filling(_random_fan_out_graph(np.random.default_rng(seed),
                                                                batch))


@pytest.mark.parametrize("kind", ["tft", "qtft", "qtft-qlstm"])
def test_backward_matches_a_zero_filling_reference_on_the_desk_graphs(kind, axis_csv):
    table = data_io.load_csv(axis_csv, ["Open", "High", "Low", "Last"], "Close")
    for d_model in (2, 4):
        cfg = forecasting.TrainConfig(model_kind=kind, d_model=d_model)
        train_w, _ = forecasting.build_stock_windows(table.rows, table.column_index("Close"), cfg)
        model = forecasting.build_model(cfg, train_w[0].past.shape[1],
                                        train_w[0].future_known.shape[1],
                                        train_w[0].static.shape[0])
        _assert_backward_matches_zero_filling(forecasting.batch_loss_node(model, train_w,
                                                                          cfg.quantile))


# ------------------------------------------------------------ parameter shift

def test_param_shift_ry_trivial_points():
    circ = ParameterizedCircuit(1, (Gate("RY", (0,), SlotAngle(WEIGHT, 0)),),
                                num_weight_slots=1)
    assert shift_rule_jacobians(circ, [], [0.0])[1][0, 0] == pytest.approx(0.0, abs=1e-15)
    assert shift_rule_jacobians(circ, [], [math.pi / 2])[1][0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_param_shift_unused_slot_is_zero():
    circ = ParameterizedCircuit(1, (Gate("RY", (0,), SlotAngle(WEIGHT, 0)),),
                                num_weight_slots=3)
    assert shift_rule_jacobians(circ, [], [0.3, 0.4, 0.5])[1][2, 0] == 0.0


def test_param_shift_matches_finite_difference(rng):
    for _ in range(8):
        circ, feats, wts = oracles.random_circuit(rng, max_qubits=3, max_depth=10)
        if any(g.kind == "CRZ" and not isinstance(g.angle, LiteralAngle)
               for g in circ.ops if g.angle is not None):
            continue
        q = int(rng.integers(0, circ.num_qubits))
        jw = shift_rule_jacobians(circ, feats, wts)[1]
        for slot in range(circ.num_weight_slots):
            got = jw[slot, q]

            def f(w):
                return measure_all_z(run_circuit(circ, feats, w))[q]

            fd = oracles.central_difference(f, wts)[slot]
            assert abs(got - fd) < 1e-5


def test_shift_rule_jacobians_run_every_shifted_row_in_one_call(monkeypatch):
    # One simulator call of B * 2G rows per call: tracing counts shifted rows there.
    calls = []
    original = grad.run_bound_batch

    def spy(circuit, rows, **kwargs):
        calls.append(len(rows))
        return original(circuit, rows, **kwargs)

    monkeypatch.setattr(grad, "run_bound_batch", spy)
    for n, lead in [(1, ()), (2, (3,)), (5, (17,)), (5, (2, 3))]:
        circ = compose(angle_embedding(n), basic_entangler_layers(n, 2))
        calls.clear()
        shift_rule_jacobians(circ, np.full(lead + (n,), 0.3), np.full(2 * n, 0.2))
        assert calls == [math.prod(lead) * 2 * 3 * n]


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_plain_scatter_of_unshared_slots_equals_add_at_bit_for_bit(lead, rng, monkeypatch):
    # A negative slot coefficient times an exactly zero shift difference (RZ on |0>)
    # is -0.0, which adding into the zero-filled Jacobian turns into +0.0.
    signed = ParameterizedCircuit(2, (Gate("RZ", (0,), SlotAngle(WEIGHT, 0, coeff=-1.0)),
                                      Gate("RY", (1,), SlotAngle(WEIGHT, 1, coeff=-2.0))),
                                  num_weight_slots=2)
    circuits = [compose(angle_embedding(n), basic_entangler_layers(n, 2)) for n in (1, 2, 5)]
    for circ in circuits + [compose(angle_embedding(2), signed)]:
        plan = circ.plan
        assert not plan.shared_slots
        feats = rng.uniform(-1, 1, lead + (circ.num_feature_slots,))
        wts = rng.uniform(-math.pi, math.pi, circ.num_weight_slots)
        got = shift_rule_jacobians(circ, feats, wts)
        with monkeypatch.context() as mp:
            mp.setattr(plan, "shared_slots", True)
            want = shift_rule_jacobians(circ, feats, wts)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
    zero = shift_rule_jacobians(compose(angle_embedding(2), signed), np.zeros(2), np.zeros(2))[1]
    assert zero[0].tolist() == [0.0, 0.0] and not np.signbit(zero).any()


def test_param_shift_rejects_crz_slots():
    circ = ParameterizedCircuit(2, (Gate("CRZ", (0, 1), SlotAngle(WEIGHT, 0)),),
                                num_weight_slots=1)
    with pytest.raises(CircuitError):
        shift_rule_jacobians(circ, [], [0.5])


def test_param_shift_exact_via_richardson(rng):
    # two-term rule vs Richardson-extrapolated differences on 1-2 qubit circuits
    for n in (1, 2):
        enc = zz_feature_map(n)
        circ = compose(enc, basic_entangler_layers(n, 1, "RY"))
        feats = rng.uniform(-1, 1, n)
        wts = rng.uniform(-math.pi, math.pi, n)
        jf, jw = shift_rule_jacobians(circ, feats, wts)
        for q in range(n):
            def fw(w):
                return measure_all_z(run_circuit(circ, feats, w))[q]

            def ff(f):
                return measure_all_z(run_circuit(circ, f, wts))[q]

            for s in range(n):
                assert abs(jw[s, q] - oracles.richardson_difference(fw, wts, s)) < 1e-8
                assert abs(jf[s, q] - oracles.richardson_difference(ff, feats, s)) < 1e-8


def test_shift_jacobians_with_repeated_pair_slots_via_richardson(rng):
    # every feature sits in several pair angles, twice over with reps=2, and
    # one gate's pair angle reads the same weight slot on both sides
    for n in (2, 3):
        tail = ParameterizedCircuit(n, (
            Gate("RZ", (0,), PairInteractionAngle(WEIGHT, 0, 0)),
            Gate("RX", (n - 1,), PairInteractionAngle(WEIGHT, 1, 0)),
            Gate("H", (0,)),
        ), num_weight_slots=2)
        circ = compose(compose(zz_feature_map(n, reps=2), basic_entangler_layers(n, 1, "RY")),
                       tail)
        feats = rng.uniform(-0.5, 0.5, n)
        wts = np.concatenate([rng.uniform(-math.pi, math.pi, n), rng.uniform(2.5, 3.5, 2)])
        jf, jw = shift_rule_jacobians(circ, feats, wts)
        for q in range(n):
            def fw(w):
                return measure_all_z(run_circuit(circ, feats, w))[q]

            def ff(f):
                return measure_all_z(run_circuit(circ, f, wts))[q]

            for s in range(circ.num_weight_slots):
                assert abs(jw[s, q] - oracles.richardson_difference(fw, wts, s, h=1e-4)) < 1e-8
            for s in range(n):
                assert abs(jf[s, q] - oracles.richardson_difference(ff, feats, s, h=1e-4)) < 1e-8


# ------------------------------------------------------------- quantum nodes

def test_quantum_forward_identity_point():
    circ = angle_embedding(3, "RX")
    f = param(np.zeros(3))
    w = param(np.zeros(0))
    qn = quantum_forward(circ, f, w)
    np.testing.assert_allclose(qn.value, [1.0, 1.0, 1.0], atol=0)
    backward(grad.mean_all(qn))
    np.testing.assert_allclose(f.grad, np.zeros(3), atol=1e-15)


def test_quantum_forward_full_jacobian(rng):
    circ = compose(angle_embedding(2, "RX"), basic_entangler_layers(2, 2, "RY"))
    feats = rng.uniform(-1, 1, 2)
    wts = rng.uniform(-math.pi, math.pi, 4)
    jf, jw = shift_rule_jacobians(circ, feats, wts)
    for q in range(2):
        def fw(w):
            return measure_all_z(run_circuit(circ, feats, w))[q]

        def ff(f):
            return measure_all_z(run_circuit(circ, f, wts))[q]

        assert oracles.grads_close(jw[:, q], oracles.central_difference(fw, wts))
        assert oracles.grads_close(jf[:, q], oracles.central_difference(ff, feats))


def test_light_cone_excluded_weight_has_zero_gradient():
    # RY(w0) on qubit 1, no entanglement: <Z_0> cannot depend on w0
    circ = ParameterizedCircuit(2, (Gate("RY", (1,), SlotAngle(WEIGHT, 0)),),
                                num_weight_slots=1)
    assert shift_rule_jacobians(circ, [], [1.234])[1][0, 0] == pytest.approx(0.0, abs=1e-15)


def test_quantum_node_invariants(rng):
    circ = compose(zz_feature_map(3), basic_entangler_layers(3, 2, "RY"))
    qn = quantum_forward(circ, param(rng.uniform(-1, 1, 3)),
                         param(rng.uniform(-math.pi, math.pi, 6)))
    assert qn.value.shape == (3,)
    assert np.all(np.abs(qn.value) <= 1 + 1e-12)
    assert qn.circuit is circ


# -------------------------------------------------- hybrid graph gradient check

def _random_hybrid_graph(rng):
    """Dense -> ELU -> quantum block -> sigmoid/softmax/layer-norm -> pinball."""
    n = int(rng.integers(2, 5))
    layers = int(rng.integers(1, 4))
    d_in = int(rng.integers(2, 5))
    enc = angle_embedding(n, "RX") if rng.random() < 0.5 else zz_feature_map(n)
    circ = compose(enc, basic_entangler_layers(n, layers, "RY"))
    leaves = {
        "W": param(rng.uniform(-1, 1, (n, d_in))),
        "b": param(rng.uniform(-1, 1, n)),
        "theta": param(rng.uniform(-math.pi, math.pi, circ.num_weight_slots)),
        "V": param(rng.uniform(-1, 1, (n, n))),
    }
    x0 = rng.uniform(-1, 1, d_in)
    y0 = rng.uniform(-1, 1, n)
    q = float(rng.uniform(0.2, 0.8))

    def loss_fn():
        h = grad.elu(grad.add(grad.matvec(leaves["W"], Node(x0)), leaves["b"]))
        z = quantum_forward(circ, h, leaves["theta"])
        mixed = grad.matvec(leaves["V"], z)
        out = grad.layer_norm(grad.add(grad.sigmoid(mixed), grad.softmax(mixed)))
        return grad.pinball(y0, out, q)

    return leaves, loss_fn


def test_hybrid_graphs_match_finite_differences():
    rng = np.random.default_rng(777)
    checked = 0
    for _ in range(100):
        leaves, loss_fn = _random_hybrid_graph(rng)
        loss = loss_fn()
        backward(loss)
        analytic = {k: v.grad.copy() if v.grad is not None else np.zeros_like(v.value)
                    for k, v in leaves.items()}
        for v in leaves.values():
            v.grad = None
        for name, leaf in leaves.items():
            base = leaf.value.copy()

            def f(flat, leaf=leaf, base=base):
                leaf.value = flat.reshape(base.shape)
                out = float(loss_fn().value[0])
                leaf.value = base
                return out

            assert oracles.verify_gradient(f, base.reshape(-1), analytic[name]), \
                f"leaf {name} disagrees with finite differences"
            checked += 1
    assert checked == 400
