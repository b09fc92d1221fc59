"""A block with a set axis computes what its blocks compute one by one.

The embeddings, the variable GRNs of a selection network, the four static
encoders, the attention heads and the four gates of an LSTM cell are each
one block whose leaves carry a leading set axis of k blocks, and whose values carry the set axis at -3,
(..., k, T, width).  Each test runs such a block on inputs with a set axis
(or on one input that every set reads) and compares it with its k blocks
run one at a time on the same weights: forward values, and the gradient of
every leaf and input for the same upstream gradient.

Values and gradients agree bit for bit, except a gradient that sums the
parts of k sets reading one input, which the set axis adds in another
order.  Those agree within 16 rounding units of the largest magnitude
compared, 3.6e-15 of it; the worst seen over 2,400 draws was 4.3 units,
for a sum over five sets.

A circuit of 3 or more qubits rounds a row's <Z> by the batch it runs in:
the marginals of all rows come from one matrix product, whose order of
summation depends on the number of rows.  The layer norm amplifies these
sub-ulp differences, so no fixed count of rounding units of a GRN's values
bounds them (about 1 in 1,000 random 4-qubit draws exceeded 16).  Here each
row's marginals come from a product of their own, so a row's <Z> and
Jacobian do not depend on the batch, and the set axis's own arithmetic is
compared bit for bit.  ``test_batching.py`` checks the circuit rows' batch
dependence itself, within a bound derived from each product's terms.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qtft import grad, qtft_core, quantum_sim, tft_core
from qtft.grad import param

SEEDS = st.integers(0, 2 ** 32 - 1)
# (T,) is the graph of a single window; (W, T) a batch of windows.
LEADS = st.sampled_from([(1,), (3,), (1, 2), (3, 2)])


@pytest.fixture(autouse=True, scope="module")
def marginals_row_by_row():
    """Take every <Z> row's marginals in a matrix product of its own."""
    batched = quantum_sim.all_z_from_amplitudes

    def row_by_row(amps, num_qubits):
        rows = [batched(row[None], num_qubits) for row in amps]
        return np.array(rows).reshape(len(amps), num_qubits)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantum_sim, "all_z_from_amplitudes", row_by_row)
        mp.setattr(grad, "all_z_from_amplitudes", row_by_row)
        yield


def seeded_backward(out, u):
    """``grad.backward`` with upstream gradient ``u`` at ``out``, or ``u[i]`` at each ``out[i]``."""
    outs, us = ((out,), (u,)) if isinstance(out, grad.Node) else (out, u)
    grad.backward(grad.Node(np.zeros(1), outs, lambda _: us))


def assert_matches(got, want, exact):
    assert got.shape == want.shape
    if exact:   # a zero may lose its sign: 0 + (-0) is +0
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=16 * np.finfo(float).eps
                                   * max(1.0, float(np.abs(want).max())))


def assert_blocks_match(stacked, blocks):
    """Each stacked leaf's gradient, slice by slice, against its blocks' leaves'."""
    for j, block in enumerate(blocks):
        for leaf, own in zip(tft_core.leaves(stacked), tft_core.leaves(block)):
            assert_matches(leaf.grad[j], own.grad, True)


def inputs(rng, lead, width, k, shared):
    """k inputs of shape ``lead + (width,)`` (one when ``shared``), and them on a set axis."""
    xs = [param(rng.uniform(-1, 1, lead + (width,))) for _ in range(1 if shared else k)]
    return xs, param(oracles.on_sets([x.value for x in xs]))


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 4]), k=st.integers(1, 5), lead=LEADS, shared=st.booleans(),
       quantum=st.booleans(), seed=SEEDS)
@example(d=4, k=3, lead=(1,), shared=True, quantum=True, seed=1729)
@example(d=4, k=2, lead=(1,), shared=False, quantum=True, seed=3310066007)
def test_a_grn_with_a_set_axis_runs_its_grns_side_by_side(d, k, lead, shared, quantum, seed):
    rng = np.random.default_rng(seed)
    if quantum:
        block, blocks = qtft_core.qgrn, [qtft_core.init_qgrn(rng, d, 1, False) for _ in range(k)]
    else:
        block, blocks = tft_core.grn, [tft_core.init_grn(rng, d) for _ in range(k)]
    stacked = tft_core.stack_sets(blocks)
    xs, x = inputs(rng, lead, d, k, shared)
    out = block(x, None, stacked)
    u = rng.normal(size=out.value.shape)
    seeded_backward(out, u)
    for j, b in enumerate(blocks):
        alone = block(xs[0 if shared else j], None, b)
        seeded_backward(alone, u[..., j, :, :])
        assert_matches(out.value[..., j, :, :], alone.value, True)
    assert_blocks_match(stacked, blocks)
    if shared:   # the k parts are added on the set axis, not one by one
        assert_matches(x.grad[..., 0, :, :], xs[0].grad, False)
    else:
        for j, xj in enumerate(xs):
            assert_matches(x.grad[..., j, :, :], xj.grad, True)


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([2, 4]), k=st.integers(1, 5), lead=LEADS, seed=SEEDS)
def test_an_embedding_with_a_set_axis_embeds_each_variable_on_its_own(d, k, lead, seed):
    rng = np.random.default_rng(seed)
    blocks = [tft_core.init_dense(rng, d, 1) for _ in range(k)]
    again = np.random.default_rng(seed)
    stacked = tft_core.stack_sets([tft_core.init_dense(again, d, 1) for _ in range(k)])
    series = rng.uniform(20, 30, lead + (k,))
    for b, j in zip(blocks, range(k)):   # the same draws, stacked
        assert_matches(stacked.W.value[j], b.W.value, True)
    out = tft_core.dense(stacked, np.swapaxes(series, -1, -2)[..., None])
    u = rng.normal(size=out.value.shape)
    seeded_backward(out, u)
    for j, b in enumerate(blocks):
        alone = tft_core.dense(b, series[..., j:j + 1])
        seeded_backward(alone, u[..., j, :, :])
        assert_matches(out.value[..., j, :, :], alone.value, True)
    assert_blocks_match(stacked, blocks)


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 4]), heads=st.integers(1, 5), lead=LEADS, quantum=st.booleans(),
       seed=SEEDS)
def test_attention_heads_on_a_set_axis_average_as_heads_run_one_by_one(d, heads, lead, quantum,
                                                                        seed):
    """The stacked heads against the loop they replace: every head's
    attention over the shared value, added in head order and scaled by
    1/heads, then (in the dense model) the combine matrix."""
    rng = np.random.default_rng(seed)
    if quantum:
        p = qtft_core.init_qattention(rng, d, heads, 1, "angle", "basic")
        query, key = p.query_blocks, p.key_blocks
        own = [(oracles.block(query, h), oracles.block(key, h)) for h in range(heads)]
        run = qtft_core.vqc_apply

        def project(x, qb, kb):
            return run(x, qb), run(x, kb), run(x, p.value_block)

        width, attend = float(d), qtft_core.q_interpretable_multi_head
    else:
        p = tft_core.init_attention(rng, d, heads)
        query, key = p.wq, p.wk
        own = [(param(query.value[h]), param(key.value[h])) for h in range(heads)]

        def project(x, qb, kb):
            return grad.matmul(x, qb), grad.matmul(x, kb), grad.matmul(x, p.wv)

        width, attend = p.wh.value.shape[0], tft_core.interpretable_multi_head
    s, s_alone = (param(v) for v in [rng.uniform(-1, 1, lead + (d,))] * 2)
    out = attend(s, p)
    u = rng.normal(size=out.value.shape)
    seeded_backward(out, u)

    total = None
    for qb, kb in own:
        head = tft_core.attention(*project(s_alone, qb, kb), width)
        total = head if total is None else grad.add(total, head)
    alone = grad.scale(total, 1.0 / heads)
    if not quantum:
        alone = grad.matmul(alone, p.wh)
    seeded_backward(alone, u)

    assert_matches(out.value, alone.value, True)
    for stacked, parts in ((query, [q for q, _ in own]), (key, [k for _, k in own])):
        assert_blocks_match(stacked, parts)
    # s reaches every head's query and key: those parts are added per set
    assert_matches(s.grad, s_alone.grad, False)


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 4]), lead=LEADS, quantum=st.booleans(), seed=SEEDS)
def test_lstm_gates_on_a_set_axis_step_as_the_gates_run_one_by_one(d, lead, quantum, seed):
    """The LSTM step against the cell it replaces: each gate's own block, dense
    or QLSTM, on concat(x, h), then the cell's arithmetic on i, f, g and o."""
    rng = np.random.default_rng(seed)
    if quantum:
        p, gate = qtft_core.init_qlstm(rng, d, d, 1, "angle", "basic"), qtft_core.qlstm_gate
    else:
        p, gate = tft_core.init_lstm(rng, d, d), tft_core.dense
    gates = [oracles.block(p, j) for j in range(4)]
    values = [rng.uniform(-1, 1, lead + (d,)) for _ in range(3)]
    x, h, c = (param(v) for v in values)
    out = tft_core.lstm_step(x, h, c, p, gate)
    u = [rng.normal(size=o.value.shape) for o in out]
    seeded_backward(out, u)

    x_alone, h_alone, c_alone = (param(v) for v in values)
    xh = grad.concat([x_alone, h_alone])
    i, f, g, o = (gate(b, xh) for b in gates)
    i, f, g, o = grad.sigmoid(i), grad.sigmoid(f), grad.tanh(g), grad.sigmoid(o)
    c_new = grad.add(grad.mul(f, c_alone), grad.mul(i, g))
    alone = (grad.mul(o, grad.tanh(c_new)), c_new)
    seeded_backward(alone, u)

    for got, want in zip(out, alone):
        assert_matches(got.value, want.value, True)
    assert_blocks_match(p, gates)
    # concat(x, h) feeds the four gates: its parts are added on the set axis, not one by one
    for got, want, exact in ((x, x_alone, False), (h, h_alone, False), (c, c_alone, True)):
        assert_matches(got.grad, want.grad, exact)


def test_blocks_of_different_circuits_are_no_set():
    rng = np.random.default_rng(5)
    same = [qtft_core.init_qgrn(rng, 2, 1, False) for _ in range(2)]
    assert tft_core.stack_sets(same).vqc_a.circuit == same[0].vqc_a.circuit
    other = qtft_core.init_qgrn(rng, 2, 1, False, encoding="zz")
    with pytest.raises(ValueError, match="one circuit"):
        tft_core.stack_sets(same + [other])
