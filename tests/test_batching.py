"""A batch of windows or bindings computes what one at a time computes.

Training, evaluation and prediction run every window through one graph
whose values carry a leading window axis, and every circuit block runs
all its rows in one simulator call.  These properties pin the batched
paths to the per-window and per-row paths they replace.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from qtft import data_io, forecasting, grad, qtft_core, quantum_sim, tft_core
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


def stride_one_windows(rng, count, static_rows=((1.0,),), k=3, tau=2):
    """``count`` stride-1 windows of ``make_windows`` over one random series per static row.

    The groups are interleaved window by window, and windows of different
    static rows share their past and future rows.
    """
    length = count + k + tau - 1
    series = np.hstack([rng.uniform(20, 30, (length, 5)), np.linspace(0, 1, length)[:, None]])
    groups = [forecasting.make_windows(series, 3, k, tau, (0, length - 1), (5,), static)
              for static in static_rows]
    return [w for same_anchor in zip(*groups) for w in same_anchor]


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
    """Features shaped (..., T, d) run in one simulator call.  An unbatched
    (T, d) sequence gives one circuit node per position, fed by that
    position's row; a windowed (W, T, d) sequence gives one node over all
    its rows, fed by the whole feature node.  That node is a one-set call
    node, so its parents are read off its ``sets`` (it had a
    ``feature_parent`` when every circuit node had exactly one set)."""
    rng = np.random.default_rng(seed)
    circ, _, wts = oracles.random_circuit(rng, max_qubits=5, max_depth=12)
    n = circ.num_qubits
    lead = (positions,) if windows is None else (windows, positions)
    features = rng.uniform(-1.5, 1.5, lead + (circ.num_feature_slots,))
    tol = 0.0 if n <= 2 else 1e-15

    out = grad.quantum_forward(circ, features, wts)
    assert out.value.shape == lead + (n,)
    if windows:
        assert isinstance(out, grad.QuantumNode) and out.circuit is circ
        [(feature_node, weight_node)] = out.sets
        np.testing.assert_array_equal(feature_node.value, features)
        np.testing.assert_array_equal(weight_node.value, wts)
        for idx in np.ndindex(lead):
            single = measure_all_z(run_circuit(circ, features[idx], wts))
            np.testing.assert_allclose(out.value[idx], single, rtol=0, atol=tol)
        if _shiftable(circ):
            jf, jw = grad.shift_rule_jacobians(circ, features, wts)
            for q in range(n):
                u = np.zeros(out.value.shape)
                u[..., q] = 1.0
                rule_f, rule_w = out.backward_rule(u)
                np.testing.assert_array_equal(rule_f, jf[..., q])
                np.testing.assert_array_equal(rule_w, jw[..., q].sum(axis=(0, 1)))
        return
    (joined,) = out.parents   # a reshape of the nodes' concat
    assert len(joined.parents) == positions
    for t, node in enumerate(joined.parents):
        assert isinstance(node, grad.QuantumNode) and node.circuit is circ
        row = features[t]
        [(feature_node, _)] = node.sets
        np.testing.assert_array_equal(feature_node.value, row)
        np.testing.assert_array_equal(out.value[t], node.value)
        single = measure_all_z(run_circuit(circ, row, wts))
        np.testing.assert_allclose(node.value, single, rtol=0, atol=tol)
        if not _shiftable(circ):
            continue
        jf, jw = grad.shift_rule_jacobians(circ, row, wts)
        for q in range(n):
            u = np.zeros(n)
            u[q] = 1.0
            rule_f, rule_w = node.backward_rule(u)
            np.testing.assert_array_equal(rule_f, jf[:, q])
            np.testing.assert_array_equal(rule_w, jw[:, q])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), windows=st.integers(1, 3), positions=st.integers(1, 4),
       positional_weights=st.booleans())
def test_windowed_set_node_differentiates_as_its_per_position_split(seed, windows, positions,
                                                                     positional_weights):
    """One circuit node over a set's (W, T, d) features gives what the T
    per-position nodes it replaces give: the feature contribution is theirs
    stacked on the position axis, and the weight contribution is their sum,
    or theirs stacked for weights with a position axis.

    Each slow-path node runs ``features[:, t, :]`` (kept as one position) as
    its own set, in its own call: the T sets of one call would now be one
    call node too.  A sum over unbatched weights adds the same W x T row
    contributions in another order (all rows at once, not per position and
    then across positions), so it agrees to within that order's rounding.
    """
    rng = np.random.default_rng(seed)
    circ, _, _ = oracles.random_circuit(rng, max_qubits=5, max_depth=12)
    assume(_shiftable(circ))
    n, nf, nw = circ.num_qubits, circ.num_feature_slots, circ.num_weight_slots
    tol = 0.0 if n <= 2 else 1e-15
    features = grad.param(rng.uniform(-1.5, 1.5, (windows, positions, nf)))
    weights = grad.param(rng.uniform(-math.pi, math.pi,
                                     (positions, nw) if positional_weights else nw))
    merged = grad.quantum_forward(circ, features, weights)
    split = [grad.quantum_forward(circ, features.value[:, t:t + 1],
                                  weights.value[t:t + 1] if positional_weights else weights.value)
             for t in range(positions)]
    assert isinstance(merged, grad.QuantumNode) and merged.sets == [(features, weights)]
    np.testing.assert_allclose(merged.value, np.concatenate([s.value for s in split], axis=-2),
                               rtol=0, atol=tol)

    u = rng.normal(size=merged.value.shape)
    rule_f, rule_w = merged.backward_rule(u)
    parts_f, parts_w = zip(*(s.backward_rule(u[:, t:t + 1]) for t, s in enumerate(split)))
    assert rule_f.shape == features.value.shape and rule_w.shape == weights.value.shape
    np.testing.assert_allclose(rule_f, np.concatenate(parts_f, axis=-2), rtol=0, atol=tol)
    if positional_weights:
        np.testing.assert_allclose(rule_w, np.concatenate(parts_w, axis=-2), rtol=0, atol=tol)
    else:
        _, jw = grad.shift_rule_jacobians(circ, features.value, weights.value)
        magnitude = np.abs(jw @ u[..., None]).sum(axis=(0, 1))[..., 0]
        np.testing.assert_array_less(np.abs(rule_w - sum(parts_w)),
                                     tol + windows * positions * np.finfo(float).eps * magnitude
                                     + np.finfo(float).tiny)


def _copy(circuit):
    """An equal circuit that is a distinct object."""
    return quantum_sim.ParameterizedCircuit(circuit.num_qubits, circuit.ops,
                                            circuit.num_feature_slots, circuit.num_weight_slots)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), sets=st.integers(1, 4),
       windows=st.lists(st.sampled_from([None, 1, 3]), min_size=4, max_size=4),
       positions=st.lists(st.integers(1, 4), min_size=4, max_size=4), shared=st.booleans())
def test_quantum_forward_of_many_sets_matches_each_set_run_alone(seed, sets, windows, positions,
                                                                  shared):
    """Sets of one gate list run in one simulator call, and each set gets
    what it gets alone: its values, its parents and its rows' parameter-shift
    Jacobians.

    When every set carries a window axis, the call is one circuit node whose
    parents are each set's feature and weight node in set order, and each
    set's output is a slice of its joined rows (a lone set's output is the
    node).  Its backward rule is checked against the Jacobians of the same
    joined rows; ``test_call_node_differentiates_as_each_set_run_alone``
    compares it with each set's own call.  Otherwise each set keeps its own
    nodes: one over all rows of a windowed set, one per position of an
    unbatched sequence, each with its own circuit and rows.  (Every set had
    its own nodes, with ``feature_parent``/``weight_parent``, before a
    windowed call became one node.)"""
    rng = np.random.default_rng(seed)
    circ, _, _ = oracles.random_circuit(rng, max_qubits=5, max_depth=12)
    n, nf, nw = circ.num_qubits, circ.num_feature_slots, circ.num_weight_slots
    tol = 0.0 if n <= 2 else 1e-15
    circuits = [circ] + [_copy(circ) for _ in range(sets - 1)]
    if sets > 1:   # the last one compiled apart from the others, as after a cache eviction
        plan = circ.plan
        quantum_sim._compiled.cache_clear()
        assert circuits[-1].plan is not plan
    leads = [(positions[i],) if windows[i] is None else (windows[i], positions[i])
             for i in range(sets)]
    if shared:
        leads = leads[:1] * sets
        features = [grad.param(rng.uniform(-1.5, 1.5, leads[0] + (nf,)))] * sets
    else:
        features = [grad.param(rng.uniform(-1.5, 1.5, lead + (nf,))) for lead in leads]
    weights = [grad.param(rng.uniform(-math.pi, math.pi, nw)) for _ in range(sets)]

    calls = []
    original = grad.run_circuit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grad, "run_circuit", lambda *args: calls.append(1) or original(*args))
        outs = grad.quantum_forward(circuits, features, weights)
        with grad.no_tape():
            plain = grad.quantum_forward(circuits, features, weights)
    assert len(calls) == 2 and len(outs) == len(plain) == sets

    for c, f, w, lead, out, value in zip(circuits, features, weights, leads, outs, plain):
        alone = measure_all_z(original(c, f.value, w.value))
        assert out.value.shape == lead + (n,)
        np.testing.assert_allclose(out.value, alone, rtol=0, atol=tol)
        assert type(value) is grad.Node and value.parents == ()
        np.testing.assert_array_equal(value.value, out.value)

    if all(len(lead) > 1 for lead in leads):   # one call node over every set's rows
        node = outs[0] if sets == 1 else outs[0].parents[0]
        assert isinstance(node, grad.QuantumNode) and node.circuit is circ
        assert node.sets == list(zip(features, weights))
        if sets > 1:
            assert all(type(out) is grad.Node and out.parents == (node,) for out in outs)
        values, _ = circ.plan.bind_sets([f.value for f in features], [w.value for w in weights])
        bounds = np.cumsum([0] + [math.prod(lead) for lead in leads])
        np.testing.assert_array_equal(node.value.reshape(-1, n),
                                      np.concatenate([o.value.reshape(-1, n) for o in outs]))
        if not _shiftable(circ):
            return
        jf, jw = grad.shift_rule_jacobians(circ, values[:, :nf], values[:, nf:])
        for q in range(n):
            u = np.zeros(node.value.shape)
            u[..., q] = 1.0
            contribs = node.backward_rule(u)
            assert len(contribs) == 2 * sets
            for i, lead in enumerate(leads):
                a, b = bounds[i], bounds[i + 1]
                np.testing.assert_array_equal(contribs[2 * i], jf[a:b, :, q].reshape(lead + (nf,)))
                np.testing.assert_array_equal(contribs[2 * i + 1],
                                              jw[a:b, :, q].reshape(lead + (nw,)).sum(axis=(0, 1)))
    else:
        for c, f, w, lead, out in zip(circuits, features, weights, leads, outs):
            windowed = len(lead) > 1
            if windowed:   # one node over all the set's rows
                nodes, rows, values = [out], [f.value], [out.value]
            else:          # one node per position
                nodes, rows, values = out.parents[0].parents, f.value, out.value
            assert len(nodes) == len(rows)
            for node, row, row_value in zip(nodes, rows, values):
                assert isinstance(node, grad.QuantumNode) and node.circuit is c
                [(feature_node, weight_node)] = node.sets
                assert weight_node is w
                np.testing.assert_array_equal(feature_node.value, row)
                np.testing.assert_array_equal(node.value, row_value)
                if not _shiftable(c):
                    continue
                jf, jw = grad.shift_rule_jacobians(c, row, w.value)
                for q in range(n):
                    u = np.zeros(node.value.shape)
                    u[..., q] = 1.0
                    rule_f, rule_w = node.backward_rule(u)
                    np.testing.assert_array_equal(rule_f, jf[..., q])
                    np.testing.assert_array_equal(rule_w, jw[..., q].sum(axis=(0, 1))
                                                  if windowed else jw[:, q])

    other = quantum_sim.ParameterizedCircuit(n, circ.ops + (quantum_sim.Gate("H", (0,)),),
                                             nf, nw)
    with pytest.raises(CircuitError, match="equal gate lists"):
        grad.quantum_forward([circ, other], features[:1] * 2, weights[:1] * 2)


def _contributions_by_parent(nodes, upstreams):
    """Each parent's contributions from ``nodes``' rules, added in parent order.

    Returns ``{id(parent): (parent, total, count)}``.
    """
    out = {}
    for node, u in zip(nodes, upstreams):
        for parent, contrib in zip(node.parents, node.backward_rule(u)):
            _, total, count = out.get(id(parent), (parent, None, 0))
            out[id(parent)] = (parent, contrib if total is None else total + contrib, count + 1)
    return out


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), sets=st.integers(1, 4),
       windows=st.lists(st.integers(1, 3), min_size=4, max_size=4),
       positions=st.lists(st.integers(1, 4), min_size=4, max_size=4),
       feature_of=st.lists(st.integers(0, 3), min_size=4, max_size=4),
       positional=st.lists(st.booleans(), min_size=4, max_size=4))
def test_call_node_differentiates_as_each_set_run_alone(seed, sets, windows, positions,
                                                        feature_of, positional):
    """A call whose sets all carry a window axis is one circuit node, and it
    must give each set what that set's own one-set call gives: its values,
    and every parent's gradient contribution for any upstream gradient.

    Sets may share a feature node, as ``qglu``'s two branches (``x + x``) and
    attention's value, query and key blocks (``[s] * (1 + 2 h)``) do; set i
    reads the feature node of set ``feature_of[i]`` when that is an earlier
    set.  Weights are unbatched or carry the set's position axis.  A
    parent's contributions are added in set order on both sides.  At 1-2
    qubits every row's <Z> and Jacobian does not depend on which rows share
    its batch, so values and contributions agree bit for bit.  Wider <Z>
    rows may round differently per batch, so values agree within 1e-15 and
    a contribution within rows * eps times the summed absolute terms of its
    ``u . J`` products.
    """
    rng = np.random.default_rng(seed)
    circ, _, _ = oracles.random_circuit(rng, max_qubits=5, max_depth=12)
    assume(_shiftable(circ))
    n, nf, nw = circ.num_qubits, circ.num_feature_slots, circ.num_weight_slots
    features = []
    for i in range(sets):
        j = feature_of[i]
        features.append(features[j] if j < i else
                        grad.param(rng.uniform(-1.5, 1.5, (windows[i], positions[i], nf))))
    weights = [grad.param(rng.uniform(-math.pi, math.pi,
                                      (f.value.shape[1], nw) if positional[i] else nw))
               for i, f in enumerate(features)]
    circuits = [circ] * sets
    outs = grad.quantum_forward(circuits, features, weights)
    alone = [grad.quantum_forward(circ, f, w) for f, w in zip(features, weights)]
    node = outs[0] if sets == 1 else outs[0].parents[0]
    assert isinstance(node, grad.QuantumNode)
    assert node.sets == list(zip(features, weights))
    assert all(isinstance(a, grad.QuantumNode) for a in alone)

    exact = n <= 2
    for out, a in zip(outs, alone):
        if exact:
            assert out.value.tobytes() == a.value.tobytes()
        else:
            np.testing.assert_allclose(out.value, a.value, rtol=0, atol=1e-15)

    upstreams = [rng.normal(size=a.value.shape) for a in alone]
    joined = upstreams[0] if sets == 1 else np.concatenate([u.reshape(-1, n) for u in upstreams])
    got = _contributions_by_parent([node], [joined])
    want = _contributions_by_parent(alone, upstreams)
    assert got.keys() == want.keys()
    rows = node.value.size // n
    for key, (parent, total, count) in got.items():
        _, reference, ref_count = want[key]
        assert count == ref_count and total.shape == parent.value.shape
        if exact:
            assert total.tobytes() == reference.tobytes()
            continue
        terms = 0.0
        for (f, w), u in zip(node.sets, upstreams):
            jf, jw = grad.shift_rule_jacobians(circ, f.value, w.value)
            for p, j in ((f, jf), (w, jw)):
                if p is parent:
                    terms = terms + grad._unbroadcast((np.abs(j) @ np.abs(u)[..., None])[..., 0],
                                                      parent.value.shape)
        np.testing.assert_array_less(np.abs(total - reference),
                                     rows * np.finfo(float).eps * terms + np.finfo(float).tiny)


def test_single_window_forward_runs_each_block_circuit_once(monkeypatch):
    """Every circuit block of a stage whose circuits share a gate list runs in one call.

    Calls per stage of desk qtft, with one call per block circuit (53 in all) first:
    static VSN 3 -> 2, static encoders 12 -> 2, past VSN (the 5-qubit weight QGRN and
    5 variable QGRNs) 19 -> 4, future VSN 3 -> 2, the post-LSTM, post-attention and
    final QGLUs 2 -> 1 each, enrichment 4 -> 2, attention 3 -> 1, positionwise 3 -> 2.
    The QLSTM adds one call per LSTM step for its four gates (69 -> 22 in all).
    Every block circuit runs in exactly one call, a QLSTM gate circuit in one per step.
    """
    runs, sets = [], []
    original_run, original_forward = grad.run_circuit, qtft_core.quantum_forward

    def counting(circuit, features, weights):
        runs.append(id(circuit))
        return original_run(circuit, features, weights)

    def recording(circuits, features, weights):
        sets.append([id(c) for c in circuits])
        return original_forward(circuits, features, weights)

    monkeypatch.setattr(grad, "run_circuit", counting)
    monkeypatch.setattr(qtft_core, "quantum_forward", recording)
    w = random_windows(np.random.default_rng(3), 1)[0]
    for kind, calls in (("qtft", 18), ("qtft-qlstm", 22)):
        runs.clear()
        sets.clear()
        model = forecasting.build_model(TrainConfig(model_kind=kind), 5, 1, 1)
        model.predict_nodes(w.static, w.past, w.future_known)
        assert len(runs) == len(sets) == calls, kind
        assert runs == [ids[0] for ids in sets]
        p = model.params
        steps = {id(g.vqc.circuit): len(x) for lstm, x in ((p.encoder_lstm, w.past),
                                                            (p.decoder_lstm, w.future_known))
                 for g in (lstm.wi, lstm.wf, lstm.wg, lstm.wo) if kind == "qtft-qlstm"}
        seen = [i for ids in sets for i in ids]
        assert {i: seen.count(i) for i in seen} == {i: steps.get(i, 1) for i in seen}, kind
        if kind == "qtft":
            assert len(runs) == len(set(runs))


@pytest.mark.parametrize("kind,calls,sets", [("qtft", 18, 53), ("qtft-qlstm", 22, 69)])
@pytest.mark.parametrize("taped", [True, False])
def test_each_simulator_call_binds_all_its_sets_at_once(monkeypatch, kind, calls, sets, taped):
    """``quantum_forward`` binds every set of a call in one ``bind_sets`` call.

    A desk qtft forward runs 53 circuit blocks in 18 simulator calls, so
    binding block by block would bind 53 times where this binds 18.  The
    blocks with a set axis (the variable QGRNs of a selection network, the
    four static encoders, the query and key heads) are one set each, whose
    (k, 1, nw) weights hold k blocks: 32 sets (qtft-qlstm 48).
    ``run_circuit``'s own one-set binding of the joined rows, inside the
    call, is not counted.
    """
    binds, blocks, inside = [], [], []
    original_bind, original_run = quantum_sim.CircuitPlan.bind_sets, grad.run_circuit

    def spy(plan, features, weights):
        if not inside:
            binds.append(len(features))
            blocks.append(sum(np.shape(w)[0] if np.ndim(w) == 3 else 1 for w in weights))
        return original_bind(plan, features, weights)

    def running(circuit, features, weights):
        inside.append(circuit)
        try:
            return original_run(circuit, features, weights)
        finally:
            inside.pop()

    monkeypatch.setattr(quantum_sim.CircuitPlan, "bind_sets", spy)
    monkeypatch.setattr(grad, "run_circuit", running)
    w = random_windows(np.random.default_rng(3), 1)[0]
    model = forecasting.build_model(TrainConfig(model_kind=kind), 5, 1, 1)
    if taped:
        model.predict_nodes(w.static, w.past, w.future_known)
    else:
        model.predict(w.static, w.past, w.future_known)
    assert (len(binds), sum(binds), sum(blocks)) == (calls, {"qtft": 32, "qtft-qlstm": 48}[kind],
                                                     sets)


@pytest.mark.parametrize("kind", ["tft", "qtft", "qtft-qlstm"])
@pytest.mark.parametrize("d_model", [2, 4])
def test_untaped_predict_equals_the_taped_forward_bit_for_bit(kind, d_model):
    """Rules take their backward-only intermediates when they run, so an untaped
    forward must compute exactly the values the taped one does."""
    model = forecasting.build_model(TrainConfig(model_kind=kind, d_model=d_model), 5, 1, 1)
    windows = random_windows(np.random.default_rng(11), 3)
    fields = ("static", "past", "future_known")
    one = tuple(getattr(windows[0], f) for f in fields)
    batch = tuple(np.stack([getattr(w, f) for w in windows]) for f in fields)
    for inputs in (one, batch):
        taped = model.predict_nodes(*inputs)[0]
        assert taped.parents
        untaped = model.predict(*inputs)
        assert untaped.shape == taped.value.shape
        assert untaped.tobytes() == taped.value.tobytes()


def test_state_vector_rejects_one_unnormalized_row():
    good = np.array([1.0, 0.0], dtype=complex)
    StateVector(1, np.stack([good, good / 1j]))
    with pytest.raises(CircuitError, match="not normalized"):
        StateVector(1, np.stack([good, good, np.array([math.sqrt(0.5), 0.5])]))


def test_simulator_results_skip_the_norm_check(monkeypatch):
    """A unitary run on |0...0> is normalized by construction, so only states
    that callers build go through ``StateVector``'s per-row check."""
    block = qtft_core.init_vqc_block(np.random.default_rng(0), 2, 2)
    monkeypatch.setattr(StateVector, "__post_init__", lambda self: pytest.fail("checked"))
    state = run_circuit(block.circuit, np.linspace(-1, 1, 6).reshape(3, 2), block.weights.value)
    assert state.num_qubits == 2 and state.amplitudes.shape == (3, 4)
    assert not state.amplitudes.flags.writeable
    np.testing.assert_allclose((np.abs(state.amplitudes) ** 2).sum(axis=-1), 1.0, atol=1e-12)


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


def block_circuits(*params):
    """The ids of the circuits of every circuit block in ``params``."""
    out, stack = set(), list(params)
    while stack:
        obj = stack.pop()
        if isinstance(obj, qtft_core.VQCBlockParams):
            out.add(id(obj.circuit))
        elif isinstance(obj, list):
            stack.extend(obj)
        elif dataclasses.is_dataclass(obj):
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
    return out


def test_single_window_graph_feeds_circuits_one_row():
    rng = np.random.default_rng(5)
    cfg = TrainConfig(model_kind="qtft")
    model = forecasting.build_model(cfg, 5, 1, 1)
    loss = forecasting.batch_loss_node(model, random_windows(rng, 3), cfg.quantile)
    w = random_windows(rng, 1)[0]
    single = grad.pinball(w.targets, model.predict_nodes(w.static, w.past, w.future_known)[0],
                          cfg.quantile)
    # The single window's (T, d) sequences split into one node per position.
    # 109 before block values carried a position axis: the context circuit
    # (vqc_c) of the past-VSN weight QGRN ran once per past step (2) and
    # that of enrichment once per position (4); both now run once on the
    # one-position context, so 4 nodes are gone.
    # 120 before one-variable selection networks skipped their weight QGRN.
    # The 11 nodes gone are the 1-qubit weight QGRN's circuits (vqc_a, gate,
    # lin, and vqc_c where a context enters) of the static VSN (3) and of
    # the future VSN at each of the 2 forecast steps (2 x 4).
    circuit_nodes = quantum_nodes(single)
    assert len(circuit_nodes) == 105
    for node in circuit_nodes:
        [(feature_node, weight_node)] = node.sets
        assert feature_node.value.shape == (node.circuit.num_feature_slots,)
        assert weight_node.value.ndim == 1
        assert node.value.shape == (node.circuit.num_qubits,)

    # Each simulator call of the three windows is one node over the (window,
    # position) rows of all its sets: 18 nodes holding 32 sets, which hold
    # the 53 circuit blocks.  (53 nodes before, one per block, and 105 before
    # that, one per position.)  A block with a set axis is one set of k
    # blocks, whose rows are (windows, k, T): the variable QGRNs of a
    # selection network, the four static encoders, the query and the key
    # heads.  The windows share their one static row, so the static VSN (its
    # QGRN, in 2 calls), the static encoders (2 calls) and the circuits that
    # read a static context alone (vqc_c of the past-VSN weight QGRN and of
    # enrichment, each in its QGRN's vqc_a call) run it once, as one
    # position.  The other sets run on the 3 windows' rows: over the 2 past
    # or 2 future steps, or over all 4 positions.
    p = model.params
    static_path = block_circuits(p.static_vsn, p.static_encoders)
    with_context = block_circuits(p.past_vsn.weight_grn.vqc_a, p.enrichment.vqc_a)
    circuit_nodes = quantum_nodes(loss)
    assert len(circuit_nodes) == 18
    leads = [[np.broadcast_shapes(f.value.shape[:-1], w.value.shape[:-1]) for f, w in node.sets]
             for node in circuit_nodes]
    one, past, every = (1, 1), (3, 2), (3, 4)

    def blocks(lead, k):
        return lead[:-1] + (k,) + lead[-1:]

    assert sorted(leads) == sorted(
        [[blocks(one, 1)], [blocks(one, 1)] * 2, [blocks(one, 4)], [blocks(one, 4)] * 2,
         [blocks(past, 1)], [blocks(past, 1)] * 2, [past], [past, one], [past] * 2, [past] * 2,
         [past] * 2, [past] * 2, [blocks(past, 5)], [blocks(past, 5)] * 2, [every, one],
         [every, blocks(every, 1), blocks(every, 1)], [every] * 2, [every] * 2])
    assert sum(math.prod(lead[1:-1]) for node_leads in leads for lead in node_leads) == 53
    for node, node_leads in zip(circuit_nodes, leads):
        if id(node.circuit) in static_path:
            assert {lead[0] for lead in node_leads} == {1}
        elif id(node.circuit) in with_context:
            assert node_leads[0] != one and node_leads[1:] == [one]
        else:
            assert {lead[0] for lead in node_leads} == {3}
        n, nf, nw = (node.circuit.num_qubits, node.circuit.num_feature_slots,
                     node.circuit.num_weight_slots)
        for (feature_node, weight_node), lead in zip(node.sets, node_leads):
            assert feature_node.value.shape[-1] == nf
            assert weight_node.value.shape == ((nw,) if len(lead) == 2 else (lead[1], 1, nw))
        rows = sum(math.prod(lead) for lead in node_leads)
        assert node.value.shape == (node_leads[0] + (n,) if len(node_leads) == 1 else (rows, n))


def axis_training_loss(axis_csv, kind="qtft", d_model=2):
    table = data_io.load_csv(axis_csv, ["Open", "High", "Low", "Last"], "Close")
    cfg = TrainConfig(model_kind=kind, d_model=d_model)
    train_w, _ = forecasting.build_stock_windows(table.rows, table.column_index("Close"), cfg)
    model = forecasting.build_model(cfg, 5, 1, 1)
    return model, train_w, forecasting.batch_loss_node(model, train_w, cfg.quantile)


@pytest.mark.parametrize("kind", forecasting.MODEL_KINDS)
@pytest.mark.parametrize("d_model", [2, 4])
def test_every_leaf_reaches_the_training_loss(axis_csv, kind, d_model):
    """A model holds only the blocks its forward runs: one backward of the
    17-window training loss gives every leaf a gradient.  The static and
    future selection networks select among one variable, so they hold only
    that variable's GRN."""
    model, train_w, loss = axis_training_loss(axis_csv, kind, d_model)
    assert len(train_w) == 17
    grad.backward(loss)
    names = {id(node): name for name, node in model.named_leaves()}   # a set's leaf is unnamed
    assert [names.get(id(leaf), leaf.value.shape) for leaf in model.leaves()
            if leaf.grad is None] == []


def test_single_window_graphs_differentiate_every_circuit_through_the_prefix_sweep(
        axis_csv, monkeypatch):
    """One window's loss graph, the kind perfbench's circuit check
    differentiates, runs every circuit node's shift batch through the
    prefix sweep that training's batched graphs run."""
    model, train_w, _ = axis_training_loss(axis_csv)
    w = train_w[0]
    loss = grad.pinball(w.targets, model.predict_nodes(w.static, w.past, w.future_known)[0], 0.5)
    swept = []
    sweep = quantum_sim.CircuitPlan._prefix_sweep
    monkeypatch.setattr(quantum_sim.CircuitPlan, "_prefix_sweep",
                        lambda self, base, out: swept.append(1) or sweep(self, base, out))
    nodes = quantum_nodes(loss)
    unswept = []
    for node in nodes:
        swept.clear()
        node.backward_rule(np.ones(node.value.shape))
        if not swept:
            unswept.append((node.circuit.num_qubits, node.circuit.num_gates))
    assert len(nodes) > 100 and unswept == []


def test_training_graph_differentiates_past_selection_through_the_prefix_sweep(
        axis_csv, monkeypatch):
    """The calls of the 5-qubit past-VSN weight QGRN that run on the 17
    training windows' 18 distinct past rows run their shift batches through
    the prefix sweep; each backward rule must give the Jacobian of the same
    shifted rows run one full row at a time."""
    model, train_w, loss = axis_training_loss(axis_csv)
    wg = model.params.past_vsn.weight_grn
    circuits = [wg.vqc_a.circuit, wg.qglu.branch_gate.circuit]
    nodes = [node for node in quantum_nodes(loss) if any(node.circuit is c for c in circuits)]
    # 7 nodes of 17 rows before each distinct row ran once: vqc_a, gate and lin
    # per past step, vqc_c once.  Then vqc_a, gate and lin ran once on the 18
    # distinct past rows (one position), and vqc_c on the one static context
    # row, as 4 nodes.  Now each simulator call is one node: vqc_a with vqc_c
    # (18 + 1 rows) and the gate with the lin branch (18 + 18 rows).
    assert len(train_w) == 17
    assert len(nodes) == 2
    assert sorted([f.value.shape for f, _ in node.sets] for node in nodes) == [
        [(18, 1, 5), (1, 1, 5)], [(18, 1, 5), (18, 1, 5)]]
    for node in nodes:
        circ, n = node.circuit, node.circuit.num_qubits
        nf, nw = circ.num_feature_slots, circ.num_weight_slots
        values, leads = circ.plan.bind_sets([f.value for f, _ in node.sets],
                                            [w.value for _, w in node.sets])
        assert n == 5
        with monkeypatch.context() as mp:
            mp.setattr(grad, "run_bound_batch",
                       lambda c, angle_rows, shifted: quantum_sim.run_bound_batch(c, angle_rows))
            jf, jw = grad.shift_rule_jacobians(circ, values[:, :nf], values[:, nf:])
        bounds = np.cumsum([0] + [math.prod(lead) for lead in leads])
        for q in range(n):
            u = np.zeros(node.value.shape)
            u[..., q] = 1.0
            contribs = node.backward_rule(u)
            for i, lead in enumerate(leads):
                a, b = bounds[i], bounds[i + 1]
                np.testing.assert_array_equal(contribs[2 * i], jf[a:b, :, q].reshape(lead + (nf,)))
                np.testing.assert_array_equal(contribs[2 * i + 1],
                                              jw[a:b, :, q].reshape(lead + (nw,)).sum(axis=(0, 1)))


def test_training_backward_never_builds_the_shifted_rows(axis_csv, monkeypatch):
    """The backward of the 17-window training loss in desk-qtft's
    configuration (qtft, d_model 2, angle encoding, basic entangler, 2 + 2
    steps) runs every shift batch from its unshifted rows: with the full
    rows refusing to be built, it gives every leaf the gradient that
    running those rows one full row at a time gives."""
    def refuse(self, dtype=None, copy=None):
        raise AssertionError("the full parameter-shift rows were built")

    model, _, loss = axis_training_loss(axis_csv)
    with monkeypatch.context() as mp:
        mp.setattr(quantum_sim.ShiftRows, "__array__", refuse)
        grad.backward(loss)
    want_model, _, want_loss = axis_training_loss(axis_csv)
    monkeypatch.setattr(grad, "run_bound_batch",
                        lambda c, angle_rows, shifted: quantum_sim.run_bound_batch(c, angle_rows))
    grad.backward(want_loss)
    leaves, want_leaves = model.leaves(), want_model.leaves()
    assert len(leaves) == len(want_leaves) > 60
    for i, (got, want) in enumerate(zip(leaves, want_leaves)):
        assert got.grad.tobytes() == want.grad.tobytes(), i


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the mean loss of no entries
@pytest.mark.parametrize("kind", forecasting.MODEL_KINDS)
def test_an_empty_batch_differentiates_to_zero_gradients(kind):
    """A taped batch of no windows runs forward, as ``predict_nodes`` allows,
    and backward: each shift batch has no bindings, and every leaf the
    loss reaches gets a zero gradient of its own shape."""
    cfg = TrainConfig(model_kind=kind)
    model = forecasting.build_model(cfg, 5, 1, 1)
    k, tau = cfg.past_steps, cfg.forecast_steps
    pred = model.predict_nodes(np.zeros((0, 1)), np.zeros((0, k, 5)), np.zeros((0, tau, 1)))[0]
    assert pred.value.shape == (0, tau)
    grad.backward(grad.pinball(np.zeros((0, tau)), pred, 0.5))
    reached = [leaf for leaf in model.leaves() if leaf.grad is not None]
    assert reached
    for leaf in reached:
        assert leaf.grad.shape == leaf.value.shape and not leaf.grad.any()


@pytest.mark.parametrize("kind,nodes,rows", [("qtft", 18, 19_274), ("qtft-qlstm", 22, 22_538)])
def test_training_graph_runs_each_distinct_step_row_once(axis_csv, monkeypatch, kind, nodes,
                                                         rows):
    """The 17 stride-1 AXIS training windows hold 34 past and 34 future
    (window, step) rows, 18 of each distinct, and one static row.

    Running the selection networks once per distinct row, as one position,
    took 21 circuit nodes out of the training graph (105 -> 84; qtft-qlstm
    121 -> 100): 18 of the past VSN's second step and 3 of the future VSN's.
    A backward shifts 31,178 -> 19,274 rows (qtft-qlstm 34,442 -> 22,538).
    Each set over (window, position) rows then became one node, where it
    was one node per position (84 -> 53; qtft-qlstm 100 -> 69).  Now each
    simulator call is one node over the rows of all its sets (53 -> 18;
    qtft-qlstm 69 -> 22), as many as a forward makes calls.  The shifted
    rows stay, and each node still makes one shift batch.
    """
    _, _, loss = axis_training_loss(axis_csv, kind)
    assert len(quantum_nodes(loss)) == nodes
    batches = []
    original = grad.run_bound_batch
    monkeypatch.setattr(grad, "run_bound_batch",
                        lambda c, angle_rows, shifted=False: batches.append(len(angle_rows))
                        or original(c, angle_rows, shifted))
    grad.backward(loss)
    assert (len(batches), sum(batches)) == (nodes, rows)


@pytest.mark.parametrize("kind,calls,sets", [("qtft", 18, 53), ("qtft-qlstm", 22, 69)])
@pytest.mark.parametrize("d_model", [2, 4])
def test_training_gradients_match_one_node_per_set(axis_csv, monkeypatch, kind, calls, sets,
                                                   d_model):
    """Every leaf gradient of the 17-window AXIS training loss is what the
    same graph gives with one circuit node, and one shift batch, per block.

    The per-block path builds each block's node in a call of its own and
    gives it the value its block gets in the joint call, as the graph did
    before calls became one node and blocks of one kind one set: a block of
    a set with a set axis reads its slice of the features and of the
    (k, 1, nw) weights, and the blocks' outputs are joined back on the set
    axis.  One input that every block reads is first broadcast to the set
    axis, so its gradient sums the blocks' parts there, as the call node
    sums them, before it adds the parts of other branches.  Run alone, the
    one context row of the 5-qubit past-VSN weight QGRN's ``vqc_c`` rounds
    its <Z> differently from the 19-row call it shares with ``vqc_a`` (a <Z>
    row of 3 or more qubits depends on its batch).  The call node adds a
    shared parent's contributions in set order, and wider circuits'
    Jacobian rows may round differently in a larger shift batch, so only
    qtft at d_model 2 is bit for bit; elsewhere gradients agree within
    1e-15 of the largest leaf gradient.
    """
    model, _, loss = axis_training_loss(axis_csv, kind, d_model)
    assert len(quantum_nodes(loss)) == calls
    merged = leaf_grads(model, loss)

    original = qtft_core.quantum_forward

    def alone(c, f, w, value):
        node = original(c, f, w)
        node.value = value
        return node

    def one_node_per_block(c, f, w, value):
        if w.value.ndim < 3:
            return alone(c, f, w, value)
        if f.value.shape[-3] == 1:   # one input for every block, its parts summed on the set axis
            f = grad.add(f, np.zeros(value.shape[:-1] + f.value.shape[-1:]))
        return grad.concat([
            grad.reshape(alone(c, grad.part(f, np.s_[..., j, :, :]), grad.part(w, np.s_[j, 0]),
                               value[..., j, :, :]),
                         value[..., j:j + 1, :, :].shape)
            for j in range(w.value.shape[0])], axis=-3)

    def one_node_per_set(circuits, features, weights):
        with grad.no_tape():
            joint = original(circuits, features, weights)
        return [one_node_per_block(c, f, w, value.value)
                for c, f, w, value in zip(circuits, features, weights, joint)]

    monkeypatch.setattr(qtft_core, "quantum_forward", one_node_per_set)
    model, _, split_loss = axis_training_loss(axis_csv, kind, d_model)
    assert len(quantum_nodes(split_loss)) == sets
    assert split_loss.value.tobytes() == loss.value.tobytes()
    split = leaf_grads(model, split_loss)

    scale = max(float(np.max(np.abs(g))) for g in split)
    for leaf, g, reference in zip(model.leaves(), merged, split):
        assert g.shape == reference.shape == leaf.value.shape
        if kind == "qtft" and d_model == 2:
            np.testing.assert_array_equal(g, reference)
        else:
            np.testing.assert_allclose(g, reference, rtol=0, atol=1e-15 * scale)


@pytest.mark.parametrize("kind,calls", [("qtft", 18), ("qtft-qlstm", 22)])
def test_each_call_node_runs_the_circuits_of_one_params_field(axis_csv, monkeypatch, kind,
                                                              calls):
    """A call node differentiates all its sets in one shift batch, handed the
    first set's circuit.  The benchmark's tracer attributes that batch's time
    to the ``TFTParams`` field holding the circuit it is handed, so every
    call of the training graph must run circuits of one field only."""
    runs = []
    original = qtft_core.quantum_forward
    monkeypatch.setattr(qtft_core, "quantum_forward",
                        lambda cs, fs, ws: runs.append(list(cs)) or original(cs, fs, ws))
    model, _, loss = axis_training_loss(axis_csv, kind)
    field_of = {i: f.name for f in dataclasses.fields(model.params)
                for i in block_circuits(getattr(model.params, f.name))}
    circuits_of = {id(cs[0]): cs for cs in runs}
    nodes = quantum_nodes(loss)
    assert len(nodes) == len(runs) == calls
    for node in nodes:
        fields = {field_of[id(c)] for c in circuits_of[id(node.circuit)]}
        assert len(fields) == 1 and field_of[id(node.circuit)] in fields


@pytest.mark.parametrize("kind", ["tft", "qtft", "qtft-qlstm"])
@pytest.mark.parametrize("d_model", [2, 4])
@pytest.mark.parametrize("static_rows,gathers", [(((1.0,),), 2), (((1.0,), (0.5,)), 0)],
                         ids=["one_static_row", "two_static_rows"])
def test_stride_one_batch_predicts_what_each_window_predicts(monkeypatch, kind, d_model,
                                                            static_rows, gathers):
    """A batch of one entity's stride-1 windows runs each distinct row once and
    gathers the results back per window; every window must get what it gets alone.

    One static row takes two gathers (past and future selection).  Two static
    rows, two entities whose series rows are equal, take none: such a batch
    runs every window's rows as they are, so rows of different static rows are
    never merged.
    """
    model = forecasting.build_model(TrainConfig(model_kind=kind, d_model=d_model), 5, 1, 1)
    windows = stride_one_windows(np.random.default_rng(23), 5, static_rows)
    static, past, future, _ = forecasting.stack_windows(windows)
    calls = []
    original = grad.gather
    monkeypatch.setattr(grad, "gather", lambda x, index: calls.append(1) or original(x, index))
    batched = model.predict(static, past, future)
    assert len(calls) == gathers
    alone = np.stack([model.predict(w.static, w.past, w.future_known) for w in windows])
    if kind == "qtft" and d_model == 2:
        assert batched.tobytes() == alone.tobytes()
    else:
        np.testing.assert_allclose(batched, alone, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["tft", "qtft", "qtft-qlstm"])
@pytest.mark.parametrize("static_rows", [((1.0,),), ((1.0,), (0.5,))],
                         ids=["one_static_row", "two_static_rows"])
def test_every_leaf_gradient_of_a_stride_one_batch_matches_central_differences(kind,
                                                                               static_rows):
    """Each leaf's gradient on a batch of stride-1 windows, along a random unit
    direction, agrees with central differences of the loss.  Over one static
    row the selection outputs are gathered, so repeated rows must add their
    gradients; over two the batch runs as it is, windows side by side."""
    rng = np.random.default_rng(31)
    cfg = TrainConfig(model_kind=kind, d_model=4)
    model = forecasting.build_model(cfg, 5, 1, 1)
    windows = stride_one_windows(rng, 3, static_rows)
    grads = leaf_grads(model, forecasting.batch_loss_node(model, windows, cfg.quantile))
    for leaf, g in zip(model.leaves(), grads):
        base = leaf.value
        direction = rng.standard_normal(base.shape)
        direction /= np.linalg.norm(direction)

        def f(t, leaf=leaf, base=base, direction=direction):
            leaf.value = base + t[0] * direction
            try:
                return forecasting.evaluate(model, windows, cfg.quantile)
            finally:
                leaf.value = base

        assert oracles.verify_gradient(f, np.zeros(1), [float(np.sum(g * direction))])


GRAPH_OPS = {   # the 17-window desk training graph, nodes by op
    "tft": {"add": 16, "affine": 55, "concat": 6, "const": 3, "elu": 7, "gather": 2,
            "layer_norm": 10, "leaf": 100, "matmul": 6, "matvec": 2, "mul": 22, "part": 11,
            "pinball": 1, "reshape": 8, "scale": 1, "set_mean": 1, "sigmoid": 22,
            "softmax": 2, "tanh": 8, "transpose": 2, "weighted_sum": 1},
    "qtft": {"_circuit_node": 18, "add": 16, "affine": 22, "concat": 20, "const": 3, "elu": 7,
             "gather": 2, "layer_norm": 10, "leaf": 67, "matmul": 2, "mul": 22, "part": 38,
             "pinball": 1, "reshape": 22, "scale": 1, "set_mean": 1, "sigmoid": 22,
             "softmax": 2, "tanh": 8, "transpose": 2, "weighted_sum": 1},
}


@pytest.mark.parametrize("kind,nodes,ops", [("tft", 286, 183), ("qtft", 287, 217)])
def test_training_graph_holds_one_node_per_block_with_a_set_axis(axis_csv, kind, nodes, ops):
    """Node counts by op of the desk training graph, pinned so that a list
    of blocks coming back, or a stage losing its set axis, fails a count.

    Before the embeddings, variable GRNs, static encoders and attention heads
    had a set axis, ``tft`` held 410 nodes (239 ops, 164 leaves, 87 of the
    ops ``affine``) and ``qtft`` 378 (268 ops, 103 leaves, 50 ``part``s that
    split a call node into its sets and 35 weight ``concat``s).  A leaf with
    a set axis holds k blocks' weights, so the leaves fall too, and the 7
    ``const`` inputs of the 7 variables' embeddings are 3, one per embedding
    block.  Every ``part`` replaced one node of a slicing op of its own
    (``row``, ``rows`` or the call node's set slice), so the counts held.
    """
    model, _, loss = axis_training_loss(axis_csv, kind)
    leaves = {id(leaf) for leaf in model.leaves()}
    seen, stack, counts = set(), [loss], {}
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
        op = ("leaf" if id(node) in leaves else "const" if node.backward_rule is None
              else node.backward_rule.__qualname__.split(".")[0])
        counts[op] = counts.get(op, 0) + 1
    assert counts == GRAPH_OPS[kind]
    assert (len(seen), len(seen) - counts["leaf"] - counts["const"]) == (nodes, ops)
