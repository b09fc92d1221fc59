import copy
import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qtft import grad, tft_core
from qtft.forecasting import MODEL_KINDS, TrainConfig, build_model
from qtft.grad import Node, backward, param
from qtft.tft_core import (
    DenseParams,
    GLUParams,
    GRNParams,
    attention,
    glu,
    grn,
    init_attention,
    init_grn,
    init_lstm,
    interpretable_multi_head,
    lstm_seq,
    softmax,
    variable_selection,
)


def dense_of(w, b):
    return DenseParams(W=param(np.asarray(w, float)), b=param(np.asarray(b, float)))


def zero_glu(dim):
    return GLUParams(gate=dense_of(np.zeros((dim, dim)), np.zeros(dim)),
                     lin=dense_of(np.zeros((dim, dim)), np.zeros(dim)))


def collect_leaves(params):
    return tft_core.leaves(params)


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


# ------------------------------------------------------------------------ GLU

def test_glu_zero_parameters_gives_zero(rng):
    p = zero_glu(3)
    out = glu(rng.uniform(-1, 1, 3), p)
    np.testing.assert_allclose(out.value, np.zeros(3), atol=0)


def test_glu_saturated_gate_passes_linear_branch(rng):
    dim = 3
    lin = dense_of(rng.uniform(-1, 1, (dim, dim)), rng.uniform(-1, 1, dim))
    p = GLUParams(gate=dense_of(np.zeros((dim, dim)), np.full(dim, 20.0)), lin=lin)
    x = rng.uniform(-1, 1, dim)
    out = glu(x, p).value
    want = lin.W.value @ x + lin.b.value
    assert np.linalg.norm(out - want) < 1e-8 * np.linalg.norm(want)


def test_glu_half_gate():
    p = GLUParams(gate=dense_of(np.zeros((2, 2)), np.zeros(2)),
                  lin=dense_of(np.eye(2), np.zeros(2)))
    np.testing.assert_allclose(glu(np.array([2.0, -2.0]), p).value, [1.0, -1.0], atol=1e-15)


# ------------------------------------------------------------------------ GRN

def zero_grn(dim, context_dim=None):
    return GRNParams(
        primary=dense_of(np.zeros((dim, dim)), np.zeros(dim)),
        context=param(np.zeros((dim, context_dim))) if context_dim else None,
        out=dense_of(np.zeros((dim, dim)), np.zeros(dim)),
        glu=zero_glu(dim),
    )


def test_grn_zero_weights_is_normalization():
    out = grn(np.array([1.0, -1.0]), None, zero_grn(2))
    np.testing.assert_allclose(out.value, [1.0, -1.0], atol=1e-5)


def test_grn_context_zero_matches_omitted(rng):
    p = init_grn(rng, 3, context_dim=3)
    p.context.value = np.zeros((3, 3))
    a, c = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    np.testing.assert_array_equal(grn(a, c, p).value, grn(a, None, p).value)


def test_grn_context_requires_w2(rng):
    p = init_grn(rng, 2)
    with pytest.raises(ValueError):
        grn(np.zeros(2), np.zeros(2), p)


def test_grn_gradients(rng):
    p = init_grn(rng, 3, context_dim=3)
    a, c = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    y = rng.uniform(-1, 1, 3)
    fd_check(lambda: grad.pinball(y, grn(a, c, p), 0.5), collect_leaves(p))


def test_grn_preserves_dimension(rng):
    for dim in (2, 3, 5):
        p = init_grn(rng, dim)
        assert grn(rng.uniform(-1, 1, dim), None, p).value.shape == (dim,)


# -------------------------------------------------------------------- softmax

def test_softmax_symmetry():
    np.testing.assert_allclose(softmax(np.zeros(3)).value, np.full(3, 1 / 3), atol=1e-15)


def test_softmax_large_values_stable():
    out = softmax(np.array([1000.0, 0.0])).value
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)
    assert np.all(np.isfinite(out))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6), st.floats(-50, 50))
def test_softmax_shift_invariance(values, c):
    w = np.array(values)
    np.testing.assert_allclose(softmax(w).value, softmax(w + c).value, atol=1e-12)


# --------------------------------------------------------- variable selection

def test_variable_selection_single_variable_weight_is_one(rng):
    p = tft_core.init_vsn(rng, 2, 1, None)
    _, weights = variable_selection(oracles.on_sets([rng.uniform(-1, 1, 2)]), None, p)
    np.testing.assert_allclose(weights.value, [[1.0]], atol=0)


@pytest.mark.parametrize("lead", [(1,), (3,), (2, 3)])
def test_variable_selection_of_one_variable_runs_only_its_grn(rng, lead):
    p = tft_core.init_vsn(rng, 2, 1, 2)
    e = rng.uniform(-1, 1, lead + (2,))
    selected, weights = variable_selection(oracles.on_sets([e]), rng.uniform(-1, 1, lead + (2,)),
                                           p)
    np.testing.assert_array_equal(selected.value, grn(e, None, oracles.block(p.var_grns, 0)).value)
    assert weights.parents == () and weights.value.shape == lead + (1,)
    assert np.all(weights.value == 1.0)
    assert p.flatten_proj is p.context_proj is p.weight_grn is None
    backward(grad.mean_all(selected))
    assert all(leaf.grad is not None for leaf in tft_core.leaves(p))


def test_variable_selection_identical_inputs_shared_grn(rng):
    p = tft_core.init_vsn(rng, 2, 3, None)
    shared = oracles.block(p.var_grns, 0)
    p.var_grns = tft_core.stack_sets([shared, shared, shared])
    e = rng.uniform(-1, 1, 2)
    selected, _ = variable_selection(oracles.on_sets([e, e, e]), None, p)
    np.testing.assert_allclose(selected.value[0], grn(e, None, shared).value, atol=1e-12)


def test_variable_selection_convexity(rng):
    p = tft_core.init_vsn(rng, 3, 4, 3)
    embeds = [rng.uniform(-1, 1, 3) for _ in range(4)]
    c_s = rng.uniform(-1, 1, 3)
    selected, weights = variable_selection(oracles.on_sets(embeds), c_s, p)
    assert np.all(weights.value >= 0)
    assert weights.value.sum() == pytest.approx(1.0, abs=1e-12)
    processed = np.stack([grn(e, None, oracles.block(p.var_grns, i)).value
                          for i, e in enumerate(embeds)])
    assert np.all(selected.value[0] >= processed.min(axis=0) - 1e-12)
    assert np.all(selected.value[0] <= processed.max(axis=0) + 1e-12)


# ------------------------------------------------------ static covariate path

def test_static_encoder_identical_parameters(rng):
    base = init_grn(rng, 2)
    encoders = tft_core.stack_sets([base] + [copy.deepcopy(base) for _ in range(3)])
    xi = rng.uniform(-1, 1, (1, 2))
    c_s, c_e, c_c, c_h = grn(tft_core.shared_input(xi), None, encoders).value
    np.testing.assert_array_equal(c_s, grn(xi, None, base).value)
    for other in (c_e, c_c, c_h):
        np.testing.assert_allclose(c_s, other, atol=0)


def test_static_encoder_zero_weights_reduces_to_normalization(rng):
    encoders = [zero_grn(2) for _ in range(4)]
    out = [grn(np.array([1.0, -1.0]), None, enc) for enc in encoders]
    for c in out:
        np.testing.assert_allclose(c.value, [1.0, -1.0], atol=1e-5)


def test_static_encoder_gradients(rng):
    encoders = tft_core.stack_sets([init_grn(rng, 2) for _ in range(4)])
    xi = rng.uniform(-1, 1, (1, 2))
    y = rng.uniform(-1, 1, (1, 2))

    def loss():
        out = grn(tft_core.shared_input(xi), None, encoders)
        c_s, c_e, c_c, c_h = (grad.part(out, np.s_[..., i, :, :]) for i in range(4))
        total = grad.add(grad.add(c_s, c_e), grad.add(c_c, c_h))
        return grad.pinball(y, total, 0.4)

    fd_check(loss, collect_leaves(encoders))


# ----------------------------------------------------------------------- LSTM

def test_lstm_zero_weights_outputs_zero(rng):
    p = dense_of(np.zeros((4, 2, 4)), np.zeros((4, 2)))   # the four gates on a set axis
    inputs = [rng.uniform(-1, 1, 2) for _ in range(3)]
    outputs, _ = lstm_seq(inputs, np.zeros(2), np.zeros(2), p)
    for h in outputs:
        np.testing.assert_allclose(h.value, np.zeros(2), atol=0)


def test_lstm_single_step_closed_form(rng):
    p = init_lstm(rng, 2, 2)
    h0, c0 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    outputs, (h1, c1) = lstm_seq([np.zeros(2)], h0, c0, p)
    xh = np.concatenate([np.zeros(2), h0])

    def sig(v):
        return 1 / (1 + np.exp(-v))

    i, f, g, o = (p.W.value[j] @ xh + p.b.value[j] for j in range(4))
    i, f, g, o = sig(i), sig(f), np.tanh(g), sig(o)
    c_want = f * c0 + i * g
    np.testing.assert_allclose(c1.value, c_want, atol=1e-12)
    np.testing.assert_allclose(h1.value, o * np.tanh(c_want), atol=1e-12)


def test_lstm_gradients_three_steps(rng):
    p = init_lstm(rng, 2, 2)
    inputs = [rng.uniform(-1, 1, 2) for _ in range(3)]
    y = rng.uniform(-1, 1, 2)

    def loss():
        outputs, _ = lstm_seq(inputs, np.zeros(2), np.zeros(2), p)
        return grad.pinball(y, outputs[-1], 0.5)

    fd_check(loss, collect_leaves(p))


def test_lstm_rejects_empty_sequence(rng):
    with pytest.raises(ValueError):
        lstm_seq([], np.zeros(2), np.zeros(2), init_lstm(rng, 2, 2))


def test_an_lstm_step_runs_its_four_gates_as_one_affine(rng):
    """The gates i, f, g and o are one dense block with a set axis of four:
    one affine on concat(x, h), which every set reads, one sigmoid and one
    tanh over the whole block, and i, f, g and o four parts of those."""
    p = init_lstm(rng, 2, 2)
    assert (p.W.value.shape, p.b.value.shape) == ((4, 2, 4), (4, 2))
    h0, c0 = param(rng.uniform(-1, 1, (1, 1, 2))), param(rng.uniform(-1, 1, (1, 1, 2)))
    h, c = tft_core.lstm_step(rng.uniform(-1, 1, (3, 1, 2)), h0, c0, p)
    assert h.value.shape == c.value.shape == (3, 1, 2)
    leaves = [p.W, p.b, h0, c0]
    assert oracles.graph_ops(h, leaves) == {"leaf": 4, "const": 1, "concat": 1, "reshape": 1,
                                            "affine": 1, "part": 4, "sigmoid": 1, "tanh": 2,
                                            "mul": 3, "add": 1}


# ------------------------------------------------------------------ attention

def test_attention_zero_scores_average_values(rng):
    v = rng.uniform(-1, 1, (4, 3))
    out = attention(np.zeros((4, 2)), np.zeros((4, 2)), v, 2.0)
    for i in range(4):
        np.testing.assert_allclose(out.value[i], v.mean(axis=0), atol=1e-12)


def test_attention_single_position_returns_value(rng):
    q, k = rng.uniform(-1, 1, (1, 2)), rng.uniform(-1, 1, (1, 2))
    v = rng.uniform(-1, 1, (1, 3))
    np.testing.assert_allclose(attention(q, k, v, 2.0).value, v, atol=1e-12)


def test_attention_rows_are_convex_combinations(rng):
    q, k = rng.uniform(-2, 2, (5, 3)), rng.uniform(-2, 2, (5, 3))
    v = rng.uniform(-2, 2, (5, 4))
    out = attention(q, k, v, 3.0).value
    assert np.all(out >= v.min(axis=0) - 1e-12) and np.all(out <= v.max(axis=0) + 1e-12)


def test_attention_row_softmax_normalized(rng):
    q, k = rng.uniform(-2, 2, (4, 3)), rng.uniform(-2, 2, (4, 3))
    scores = grad.softmax(grad.mul(grad.matmul(Node(q), grad.transpose(Node(k))),
                                   1 / math.sqrt(3)))
    sums = scores.value.sum(axis=1)
    np.testing.assert_allclose(sums, np.ones(4), atol=1e-12)
    assert np.all(scores.value >= 0)


def test_interpretable_single_head_equals_plain_attention(rng):
    p = init_attention(rng, 3, num_heads=1)
    s = rng.uniform(-1, 1, (4, 3))
    got = interpretable_multi_head(s, p).value
    q = s @ p.wq.value[0]
    k = s @ p.wk.value[0]
    v = s @ p.wv.value
    want = attention(q, k, v, p.wh.value.shape[0]).value @ p.wh.value
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_interpretable_identical_heads_equal_single_head(rng):
    p = init_attention(rng, 3, num_heads=3)
    p.wq = param(np.stack([p.wq.value[0]] * 3))
    p.wk = param(np.stack([p.wk.value[0]] * 3))
    s = rng.uniform(-1, 1, (4, 3))
    single = init_attention(rng, 3, num_heads=1)
    single.wq, single.wk = param(p.wq.value[:1]), param(p.wk.value[:1])
    single.wv, single.wh = p.wv, p.wh
    np.testing.assert_allclose(interpretable_multi_head(s, p).value,
                               interpretable_multi_head(s, single).value, atol=1e-12)


def test_interpretable_multi_head_gradients(rng):
    p = init_attention(rng, 2, num_heads=2)
    s = rng.uniform(-1, 1, (3, 2))
    y = rng.uniform(-1, 1, 2)

    def loss():
        out = interpretable_multi_head(s, p)
        return grad.pinball(y, grad.part(out, 1), 0.5)

    fd_check(loss, collect_leaves(p))


# ---------------------------------------------------------------- full model

def desk_model(num_past_vars=5):
    return build_model(TrainConfig(seed=5), num_past_vars, 1, 1)


def test_forward_output_shape(rng):
    model = desk_model()
    assert model.params.heads.W.value.shape == (1, 2)   # one head, for the trained quantile
    out = model.predict(np.array([1.0]), rng.uniform(20, 30, (2, 5)),
                        rng.uniform(0, 1, (2, 1)))
    assert out.shape == (2,)
    batch = model.predict(np.ones((3, 1)), rng.uniform(20, 30, (3, 2, 5)),
                          rng.uniform(0, 1, (3, 2, 1)))
    assert batch.shape == (3, 2)


@pytest.mark.parametrize("kind", ["tft", "qtft"])
@pytest.mark.parametrize("name,width,takes", [
    ("static_vars", 0, 1), ("static_vars", 3, 1),
    ("past_vars", 3, 5), ("past_vars", 7, 5),
    ("future_vars", 0, 1), ("future_vars", 2, 1),
])
def test_input_of_the_wrong_width_is_rejected(rng, kind, name, width, takes):
    model = build_model(TrainConfig(model_kind=kind), 5, 1, 1)
    inputs = {"static_vars": np.ones((2, 1)), "past_vars": rng.uniform(20, 30, (2, 2, 5)),
              "future_vars": rng.uniform(0, 1, (2, 2, 1))}
    inputs[name] = rng.uniform(0, 1, inputs[name].shape[:-1] + (width,))
    with pytest.raises(ValueError, match=f"^{name} has {width} variables, "
                                         f"the model takes {takes}$"):
        model.predict_nodes(**inputs)


@pytest.mark.parametrize("kind", ["tft", "qtft"])
@pytest.mark.parametrize("past_shape,future_shape,shapes", [
    ((2, 5), (2, 1), "(3,), () and ()"),
    ((3, 2, 5), (1, 2, 1), "(3,), (3,) and (1,)"),
    ((3, 2, 5), (2, 1), "(3,), (3,) and ()"),
    ((1, 3, 2, 5), (1, 3, 2, 1), "(3,), (1, 3) and (1, 3)"),
], ids=["one-window-series", "one-window-future", "unbatched-future", "extra-axis"])
def test_inputs_of_disagreeing_window_shapes_are_rejected(rng, kind, past_shape, future_shape,
                                                          shapes):
    """Leading axes that differ would broadcast into as many predictions as
    the largest of them, pairing a window's series with other windows' rows."""
    model = build_model(TrainConfig(model_kind=kind), 5, 1, 1)
    with pytest.raises(ValueError, match=re.escape(
            f"static_vars, past_vars and future_vars have window shapes {shapes}")):
        model.predict_nodes(np.ones((3, 1)), rng.uniform(20, 30, past_shape),
                            rng.uniform(0, 1, future_shape))


def one_and_three_windows(rng):
    """One window's inputs and a batch of three windows of one entity."""
    return ((np.ones(1), rng.uniform(20, 30, (2, 5)), rng.uniform(0, 1, (2, 1))),
            (np.ones((3, 1)), rng.uniform(20, 30, (3, 2, 5)), rng.uniform(0, 1, (3, 2, 1))))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_graph_never_differentiated_dies_with_the_next_taped_forward(rng, kind):
    """The tape holds an undifferentiated graph only until the next taped
    forward, and frees it without the cycle collector: a loop of
    forward-only taped passes (central differences) keeps one graph alive."""
    model = build_model(TrainConfig(model_kind=kind), 5, 1, 1)
    one, batch = one_and_three_windows(rng)
    gc.disable()
    try:
        for inputs in (one, batch):
            node = weakref.ref(model.predict_nodes(*inputs)[0])
            model.predict(*inputs)
            assert node() is not None       # an untaped forward keeps the tape
            model.predict_nodes(*inputs)
            assert node() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_taped_untaped_and_laid_out_forwards_agree(rng, kind):
    """Taped, untaped and ``Inputs``-fed forwards give the same bits; an
    untaped forward records nothing and leaves a taped loss differentiable."""
    model = build_model(TrainConfig(model_kind=kind), 5, 1, 1)
    for inputs in one_and_three_windows(rng):
        want = model.predict_nodes(*inputs)[0]
        loss = grad.pinball(np.zeros(want.value.shape), want, 0.5)
        recorded = list(grad._tape)
        got = model.predict(*inputs)
        assert grad._tape == recorded
        assert got.tobytes() == want.value.tobytes()
        backward(loss)
        assert all(leaf.grad is not None for leaf in model.leaves())
        for leaf in model.leaves():
            leaf.grad = None
        laid_out = model.predict_nodes(tft_core.Inputs.of(*inputs))[0]
        assert laid_out.value.tobytes() == got.tobytes()
        with pytest.raises(TypeError, match="three input arrays, or one Inputs"):
            model.predict_nodes(inputs[0], inputs[1])


def test_permuting_identical_variables_is_invariant(rng):
    model = desk_model()
    p = model.params
    # make variables 1 and 2 identical in both parameters and data
    for leaf in tft_core.leaves(p.past_embed) + tft_core.leaves(p.past_vsn.var_grns):
        stacked = leaf.value.copy()
        stacked[2] = stacked[1]
        leaf.value = stacked
    w = p.past_vsn.flatten_proj.W.value.copy()
    w[:, 2 * 2:3 * 2] = w[:, 1 * 2:2 * 2]
    w[2, :] = w[1, :]
    p.past_vsn.flatten_proj.W.value = w
    b = p.past_vsn.flatten_proj.b.value.copy()
    b[2] = b[1]
    p.past_vsn.flatten_proj.b.value = b
    # weight-GRN width-m parameters must treat slots 1 and 2 symmetrically
    wg = p.past_vsn.weight_grn

    def symmetrize(mat):
        mat[2, :] = mat[1, :]
        mat[:, 2] = mat[:, 1]
        return mat

    for dp in (wg.primary, wg.out, wg.glu.gate, wg.glu.lin):
        dp.W.value = symmetrize(dp.W.value.copy())
        bv = dp.b.value.copy()
        bv[2] = bv[1]
        dp.b.value = bv
    wg.context.value[2, :] = wg.context.value[1, :]

    past = rng.uniform(20, 30, (2, 5))
    past[:, 2] = past[:, 1]
    future = rng.uniform(0, 1, (2, 1))
    static = np.array([1.0])
    base = model.predict(static, past, future)
    permuted = past[:, [0, 2, 1, 3, 4]]
    np.testing.assert_allclose(model.predict(static, permuted, future), base, atol=1e-12)


def test_full_model_gradients_small(rng):
    model = desk_model(num_past_vars=2)
    past = rng.uniform(20, 30, (2, 2))
    future = rng.uniform(0, 1, (2, 1))
    static = np.array([1.0])
    targets = rng.uniform(20, 30, 2)

    def loss():
        preds = model.predict_nodes(static, past, future)
        return grad.pinball(targets, preds[0], 0.5)

    fd_check(loss, model.leaves())


def test_layer_norm_zero_mean_unit_variance(rng):
    for dim in (2, 3, 7):
        # eps=1e-5 depresses the output variance by eps/var, so probe where
        # the variance dwarfs it ...
        x = rng.uniform(-4, 4, dim) * 1e4
        y = grad.layer_norm(Node(x)).value
        assert abs(y.mean()) < 1e-10
        assert abs((y ** 2).mean() - 1.0) < 1e-10
        # ... and check the bounded deviation at ordinary scales
        x = rng.uniform(-4, 4, dim)
        y = grad.layer_norm(Node(x)).value
        var = ((x - x.mean()) ** 2).mean()
        assert abs((y ** 2).mean() - 1.0) <= 1e-5 / var + 1e-12


def test_param_count_and_leaf_enumeration():
    model = desk_model()
    names = [n for n, _ in model.named_leaves()]
    assert len(names) == len(set(names))
    assert model.param_count() == sum(node.value.size for _, node in model.named_leaves())
    assert model.param_count() == 664

