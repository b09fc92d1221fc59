import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from qtft import grad, quantum_sim, reference
from qtft.quantum_sim import (
    FEATURE,
    WEIGHT,
    BindingError,
    CircuitError,
    Gate,
    LiteralAngle,
    PairInteractionAngle,
    ParameterizedCircuit,
    ShiftRows,
    SlotAngle,
    StateVector,
    angle_embedding,
    apply_gate,
    basic_entangler_layers,
    bind_angles,
    compose,
    measure_all_z,
    n_local,
    pauli_z_expectation,
    run_bound_batch,
    run_circuit,
    sampler_probabilities,
    zz_feature_map,
    zero_state,
)

INV_SQRT2 = 1 / math.sqrt(2)


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return StateVector(n, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------- apply_gate

def test_hadamard_on_zero():
    out = apply_gate(zero_state(1), Gate("H", (0,)))
    np.testing.assert_allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)


def test_rx_zero_is_identity(rng):
    state = random_state(rng, 2)
    out = apply_gate(state, Gate("RX", (0,), LiteralAngle(0.0)), bound_angle=0.0)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)


def test_cnot_builds_bell_state():
    plus = apply_gate(zero_state(2), Gate("H", (0,)))
    np.testing.assert_allclose(plus.amplitudes, [INV_SQRT2, 0, INV_SQRT2, 0], atol=1e-15)
    bell = apply_gate(plus, Gate("CNOT", (0, 1)))
    np.testing.assert_allclose(bell.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)


def test_apply_gate_compiles_one_plan_per_gate_kind_and_target():
    """Each call binds its angle to one weight slot, so new angles reuse the
    plan and keep the model's plans in the bounded cache; the amplitudes are
    those of the gate with the angle fixed in the circuit."""
    state = apply_gate(zero_state(2), Gate("H", (0,)))
    before = quantum_sim._compiled.cache_info()
    for angle in np.linspace(-3.0, 3.0, 300):
        got = apply_gate(state, Gate("RY", (1,), LiteralAngle(0.0)), angle)
    assert quantum_sim._compiled.cache_info().misses - before.misses <= 1
    fixed = ParameterizedCircuit(2, (Gate("RY", (1,), LiteralAngle(float(angle))),))
    want = fixed.plan.run(bind_angles(fixed, (), ())[None], state.amplitudes[None])
    assert got.amplitudes.tobytes() == want[0].tobytes()


def test_apply_gate_errors():
    with pytest.raises(CircuitError):
        apply_gate(zero_state(1), Gate("H", (3,)))
    with pytest.raises(BindingError):
        apply_gate(zero_state(1), Gate("RY", (0,), LiteralAngle(1.0)))  # no bound angle
    with pytest.raises(BindingError):
        apply_gate(zero_state(1), Gate("H", (0,)), bound_angle=1.0)
    with pytest.raises(CircuitError):
        Gate("CNOT", (1, 1))


# ---------------------------------------------------------------- run_circuit

def test_empty_circuit_is_initial_state():
    out = run_circuit(ParameterizedCircuit(2, ()))
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=0)


def test_ry_pi_flips_qubit():
    circ = ParameterizedCircuit(1, (Gate("RY", (0,), SlotAngle(WEIGHT, 0)),),
                                num_weight_slots=1)
    out = run_circuit(circ, [], [math.pi])
    np.testing.assert_allclose(out.amplitudes, [0, 1], atol=1e-15)


def test_run_circuit_matches_dense_oracle(rng):
    for _ in range(50):
        circ, feats, wts = oracles.random_circuit(rng)
        got = run_circuit(circ, feats, wts).amplitudes
        want = oracles.dense_run(circ, feats, wts)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_run_circuit_binding_errors():
    circ = angle_embedding(2)
    with pytest.raises(BindingError):
        run_circuit(circ, [0.1], [])        # one feature short
    with pytest.raises(BindingError):
        run_circuit(circ, [0.1, 0.2], [0.3])  # unexpected weight


def test_slot_index_validation():
    bad = Gate("RY", (0,), SlotAngle(WEIGHT, 5))
    with pytest.raises(CircuitError):
        ParameterizedCircuit(1, (bad,), num_weight_slots=2)


# ---------------------------------------------------------------- builders

def test_angle_embedding_zero_features_is_identity():
    out = run_circuit(angle_embedding(2, "RX"), [0.0, 0.0], [])
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=0)


def test_angle_embedding_ry_expectation_is_cosine():
    out = run_circuit(angle_embedding(1, "RY"), [math.pi / 2], [])
    assert abs(pauli_z_expectation(out, 0)) < 1e-12


def test_angle_embedding_structure():
    circ = angle_embedding(3)
    assert circ.num_gates == 3
    assert circ.num_feature_slots == 3
    assert all(g.kind == "RX" for g in circ.ops)


def test_zz_feature_map_single_qubit_zero_feature():
    out = run_circuit(zz_feature_map(1), [0.0], [])
    np.testing.assert_allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)
    assert abs(pauli_z_expectation(out, 0)) < 1e-12


def test_zz_feature_map_single_qubit_phase():
    # H then P(2x) gives (|0> + e^{2ix} |1>) / sqrt(2)
    x = 0.8321
    out = run_circuit(zz_feature_map(1), [x], [])
    want = np.array([1.0, np.exp(2j * x)]) * INV_SQRT2
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-12)
    np.testing.assert_allclose(out.amplitudes, oracles.dense_run(zz_feature_map(1), [x], []),
                               atol=1e-12)


def test_zz_feature_map_two_qubit_gate_sequence():
    circ = zz_feature_map(2)
    kinds = [(g.kind, g.targets) for g in circ.ops]
    assert kinds == [
        ("H", (0,)), ("H", (1,)),
        ("PHASE", (0,)), ("PHASE", (1,)),
        ("CNOT", (0, 1)), ("PHASE", (1,)), ("CNOT", (0, 1)),
    ]
    assert circ.ops[2].angle == SlotAngle(FEATURE, 0, 2.0)
    assert circ.ops[3].angle == SlotAngle(FEATURE, 1, 2.0)
    pair = circ.ops[5].angle
    assert isinstance(pair, PairInteractionAngle) and (pair.i, pair.j) == (0, 1)
    v = np.array([0.3, -0.7])
    assert bind_angles(circ, v, [])[5] == pytest.approx(2 * (math.pi - 0.3) * (math.pi + 0.7))


def test_zz_feature_map_pair_order_three_qubits():
    circ = zz_feature_map(3)
    pairs = [(g.angle.i, g.angle.j) for g in circ.ops
             if isinstance(g.angle, PairInteractionAngle)]
    assert pairs == [(0, 1), (0, 2), (1, 2)]


def test_zz_feature_map_repetitions():
    one, two = zz_feature_map(3, reps=1), zz_feature_map(3, reps=2)
    assert two.num_gates == 2 * one.num_gates
    assert two.ops == one.ops + one.ops
    assert two.num_feature_slots == 3


def test_basic_entangler_slot_count():
    assert basic_entangler_layers(4, 2).num_weight_slots == 8


def test_basic_entangler_zero_weights_fixes_ground_state():
    out = run_circuit(basic_entangler_layers(2, 1), [], [0.0, 0.0])
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=0)
    np.testing.assert_allclose(measure_all_z(out), [1.0, 1.0], atol=0)


def test_basic_entangler_matches_dense_oracle(rng):
    circ = basic_entangler_layers(3, 1)
    wts = rng.uniform(-math.pi, math.pi, 3)
    np.testing.assert_allclose(run_circuit(circ, [], wts).amplitudes,
                               oracles.dense_run(circ, [], wts), atol=1e-10)


def test_n_local_slot_count():
    assert n_local(3, 2).num_weight_slots == 9


def test_n_local_zero_weights():
    out = run_circuit(n_local(2, 1), [], np.zeros(4))
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=0)


def test_n_local_minus_final_layer_is_basic_entangler():
    for n, layers in [(2, 1), (3, 2), (4, 3)]:
        nl = n_local(n, layers)
        be = basic_entangler_layers(n, layers, "RY")
        assert nl.ops[:len(be.ops)] == be.ops
        tail = nl.ops[len(be.ops):]
        assert len(tail) == n and all(g.kind == "RY" for g in tail)


# ---------------------------------------------------------------- measurement

def test_pauli_z_eigenstates():
    assert pauli_z_expectation(zero_state(1), 0) == pytest.approx(1.0, abs=0)
    plus = apply_gate(zero_state(1), Gate("H", (0,)))
    assert pauli_z_expectation(plus, 0) == pytest.approx(0.0, abs=1e-15)


def test_pauli_z_matches_dense_observable(rng):
    state = random_state(rng, 3)
    for q in range(3):
        want = oracles.z_expectation(state.amplitudes, q)
        assert pauli_z_expectation(state, q) == pytest.approx(want, abs=1e-12)


def test_pauli_z_index_error(rng):
    with pytest.raises(CircuitError):
        pauli_z_expectation(zero_state(2), 2)


def test_measure_all_z_examples():
    ket01 = StateVector(2, np.array([0, 1, 0, 0], dtype=complex))
    np.testing.assert_allclose(measure_all_z(ket01), [1.0, -1.0], atol=0)
    bell = StateVector(2, np.array([INV_SQRT2, 0, 0, INV_SQRT2]))
    np.testing.assert_allclose(measure_all_z(bell), [0.0, 0.0], atol=1e-15)
    plus0 = StateVector(2, np.array([INV_SQRT2, 0, INV_SQRT2, 0]))
    np.testing.assert_allclose(measure_all_z(plus0), [0.0, 1.0], atol=1e-15)


def test_sampler_probabilities(rng):
    np.testing.assert_allclose(sampler_probabilities(zero_state(1)), [1, 0], atol=0)
    plus = apply_gate(zero_state(1), Gate("H", (0,)))
    np.testing.assert_allclose(sampler_probabilities(plus), [0.5, 0.5], atol=1e-15)
    state = random_state(rng, 3)
    np.testing.assert_allclose(sampler_probabilities(state),
                               np.abs(state.amplitudes) ** 2, atol=0)


# ---------------------------------------------------------------- invariants

def test_norm_preserved_along_random_circuits(rng):
    from qtft.quantum_sim import bind_angles

    for _ in range(25):
        circ, feats, wts = oracles.random_circuit(rng)
        state = run_circuit(circ, feats, wts)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-10
    # gate-by-gate application re-validates the norm at every step
    circ, feats, wts = oracles.random_circuit(rng)
    angles = bind_angles(circ, feats, wts)
    state = zero_state(circ.num_qubits)
    for g, a in zip(circ.ops, angles):
        state = apply_gate(state, g, None if np.isnan(a) else a)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-10


def test_every_gate_kind_is_unitary(rng):
    for n in (1, 2, 3):
        gates = [Gate("H", (0,)),
                 Gate("RX", (0,), LiteralAngle(rng.uniform(-6, 6))),
                 Gate("RY", (0,), LiteralAngle(rng.uniform(-6, 6))),
                 Gate("RZ", (0,), LiteralAngle(rng.uniform(-6, 6))),
                 Gate("PHASE", (0,), LiteralAngle(rng.uniform(-6, 6)))]
        if n >= 2:
            gates += [Gate("CNOT", (0, n - 1)),
                      Gate("CRZ", (0, n - 1), LiteralAngle(rng.uniform(-6, 6)))]
        for g in gates:
            u = oracles.gate_matrix(g, n)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2 ** n), atol=1e-12)
            # the simulator kernel agrees with the oracle matrix column by column
            for k in range(2 ** n):
                basis = np.zeros(2 ** n, dtype=complex)
                basis[k] = 1.0
                got = apply_gate(StateVector(n, basis), g,
                                 g.angle.value if g.angle is not None else None)
                np.testing.assert_allclose(got.amplitudes, u[:, k], atol=1e-12)


def test_expectations_bounded(rng):
    for _ in range(20):
        circ, feats, wts = oracles.random_circuit(rng)
        z = measure_all_z(run_circuit(circ, feats, wts))
        assert np.all(z >= -1 - 1e-12) and np.all(z <= 1 + 1e-12)


def test_ry_expectation_is_cosine_on_grid():
    circ = angle_embedding(1, "RY")
    for theta in np.linspace(0, 2 * math.pi, 100, endpoint=False):
        z = pauli_z_expectation(run_circuit(circ, [theta], []), 0)
        assert abs(z - math.cos(theta)) < 1e-12


def test_sampler_estimator_consistency(rng):
    for _ in range(10):
        circ, feats, wts = oracles.random_circuit(rng)
        state = run_circuit(circ, feats, wts)
        probs = sampler_probabilities(state)
        n = circ.num_qubits
        for q in range(n):
            signs = np.array([1.0 if not (k >> (n - 1 - q)) & 1 else -1.0
                              for k in range(2 ** n)])
            assert pauli_z_expectation(state, q) == pytest.approx(float(signs @ probs),
                                                                  abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10))
def test_phase_equals_rz_up_to_global_phase(a, b):
    # PHASE(l) and RZ(l) act identically on probabilities
    circ_p = ParameterizedCircuit(1, (Gate("H", (0,)), Gate("PHASE", (0,), LiteralAngle(a)),
                                      Gate("RX", (0,), LiteralAngle(b))))
    circ_z = ParameterizedCircuit(1, (Gate("H", (0,)), Gate("RZ", (0,), LiteralAngle(a)),
                                      Gate("RX", (0,), LiteralAngle(b))))
    pp = sampler_probabilities(run_circuit(circ_p))
    pz = sampler_probabilities(run_circuit(circ_z))
    np.testing.assert_allclose(pp, pz, atol=1e-12)


def test_compose_offsets_slots():
    circ = compose(angle_embedding(2), basic_entangler_layers(2, 1))
    assert circ.num_feature_slots == 2 and circ.num_weight_slots == 2
    combined = compose(circ, angle_embedding(2))
    assert combined.num_feature_slots == 4
    last = combined.ops[-1].angle
    assert last == SlotAngle(FEATURE, 3)


def test_state_vector_invariants():
    with pytest.raises(CircuitError):
        StateVector(2, np.array([1.0, 0.0]))          # wrong length
    with pytest.raises(CircuitError):
        StateVector(1, np.array([1.0, 1.0]))          # not normalized


# ---------------------------------------------------------------- compiled plans

@st.composite
def bound_circuits(draw, count=3):
    """A circuit over all seven gate kinds on 1-5 qubits, with literal, slot
    and pair angles, plus ``count`` random (features, weights) bindings."""
    n = draw(st.integers(1, 5))
    nf, nw = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    kinds = ["H", "RX", "RY", "RZ", "PHASE"] + (["CNOT", "CRZ"] if n >= 2 else [])
    angle = st.floats(-2 * math.pi, 2 * math.pi)
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("CNOT", "CRZ"):
            targets = tuple(draw(st.permutations(range(n)))[:2])
        else:
            targets = (draw(st.integers(0, n - 1)),)
        src = None
        if kind in ("RX", "RY", "RZ", "PHASE", "CRZ"):
            pools = [(FEATURE, nf), (WEIGHT, nw)]
            pools = [p for p in pools if p[1] > 0]
            source = draw(st.sampled_from(["literal", "slot", "pair"])) if pools else "literal"
            if source == "literal":
                src = LiteralAngle(draw(angle))
            else:
                kind_, slots = draw(st.sampled_from(pools))
                i, j = draw(st.integers(0, slots - 1)), draw(st.integers(0, slots - 1))
                src = (SlotAngle(kind_, i, draw(st.floats(-3, 3))) if source == "slot"
                       else PairInteractionAngle(kind_, i, j))
        ops.append(Gate(kind, targets, src))
    circ = ParameterizedCircuit(n, tuple(ops), num_feature_slots=nf, num_weight_slots=nw)
    values = st.floats(-1.5, 1.5)
    bindings = [(np.array(draw(st.lists(values, min_size=nf, max_size=nf))),
                 np.array(draw(st.lists(values, min_size=nw, max_size=nw))))
                for _ in range(count)]
    return circ, bindings


@settings(max_examples=150, deadline=None)
@given(bound_circuits())
def test_plan_matches_dense_reference(case):
    circ, bindings = case
    for feats, wts in bindings:
        want_angles = [np.nan if g.angle is None else oracles.resolve_angle(g.angle, feats, wts)
                       for g in circ.ops]
        np.testing.assert_array_equal(bind_angles(circ, feats, wts), want_angles)
    want = np.stack([reference.dense_run(circ, f, w) for f, w in bindings])
    got = run_circuit(circ, *bindings[0]).amplitudes
    np.testing.assert_allclose(got, want[0], rtol=0, atol=1e-12)
    rows = np.stack([bind_angles(circ, f, w) for f, w in bindings])
    for b in (1, 3):
        np.testing.assert_allclose(run_bound_batch(circ, rows[:b]), want[:b], rtol=0, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_gate_matches_dense_reference(data):
    n = data.draw(st.integers(1, 5))
    kind = data.draw(st.sampled_from(["H", "RX", "RY", "RZ", "PHASE"]
                                     + (["CNOT", "CRZ"] if n >= 2 else [])))
    if kind in ("CNOT", "CRZ"):
        targets = tuple(data.draw(st.permutations(range(n)))[:2])
    else:
        targets = (data.draw(st.integers(0, n - 1)),)
    parametric = kind not in ("H", "CNOT")
    angle = data.draw(st.floats(-2 * math.pi, 2 * math.pi)) if parametric else None
    state = random_state(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))), n)
    gate = Gate(kind, targets, LiteralAngle(angle) if parametric else None)
    got = apply_gate(state, gate, angle).amplitudes
    want = reference.dense_gate_matrix(kind, targets, angle or 0.0, n) @ state.amplitudes
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_plan_is_built_once_per_circuit():
    circ = compose(angle_embedding(2), basic_entangler_layers(2, 2))
    assert "plan" not in vars(circ)
    run_circuit(circ, [0.1, 0.2], [0.3, 0.4, 0.5, 0.6])
    plan = circ.plan
    run_bound_batch(circ, np.zeros((2, circ.num_gates)))
    assert circ.plan is plan
    twin = compose(angle_embedding(2), basic_entangler_layers(2, 2))
    assert twin == circ and twin is not circ
    assert twin.plan is plan          # equal circuits share one compiled plan
    other = compose(angle_embedding(2), basic_entangler_layers(2, 2, "RY"))
    assert other != circ and other.plan is not plan


def test_circuits_are_equal_exactly_when_every_field_of_every_gate_is():
    def circuit(*ops, qubits=2, features=1, weights=1):
        return ParameterizedCircuit(qubits, ops, num_feature_slots=features,
                                    num_weight_slots=weights)

    base = (Gate("H", (0,)), Gate("RX", (1,), SlotAngle(FEATURE, 0, 2.0)),
            Gate("CNOT", (0, 1)), Gate("RZ", (0,), LiteralAngle(0.5)))
    circ = circuit(*base)
    assert circ == circuit(*list(base)) and hash(circ) == hash(circuit(*base))
    assert circ != base
    others = [
        circuit(*base, qubits=3), circuit(*base, features=2), circuit(*base, weights=2),
        circuit(*base[:3]), circuit(*base[::-1]),
        circuit(Gate("H", (1,)), *base[1:]),
        circuit(base[0], Gate("RY", (1,), SlotAngle(FEATURE, 0, 2.0)), *base[2:]),
        circuit(base[0], Gate("RX", (1,), SlotAngle(FEATURE, 0, 1.0)), *base[2:]),
        circuit(base[0], Gate("RX", (1,), SlotAngle(WEIGHT, 0, 2.0)), *base[2:]),
        circuit(*base[:3], Gate("RZ", (0,), LiteralAngle(0.25))),
        circuit(*base[:3], Gate("RZ", (0,), SlotAngle(WEIGHT, 0, 0.5))),
        circuit(*base[:3], Gate("RZ", (0,), PairInteractionAngle(FEATURE, 0, 0)),
                features=1),
    ]
    for other in others:
        assert other != circ and circ != other
    assert len({circ, *others}) == len(others) + 1


# ------------------------------------------------------- parameter-shift sweeps

def shifted_rows(angles, gates):
    """The full parameter-shift rows a ShiftRows stands for: per binding, per gate, + then -."""
    (b, width), g = angles.shape, len(gates)
    rows = np.repeat(angles, 2 * g, axis=0)
    rows.reshape(b, g, 2, width)[:, np.arange(g), :, gates] += [math.pi / 2, -math.pi / 2]
    return rows


def shift_batch(circ, bindings):
    """The features and weights of ``bindings``, stacked, and their ShiftRows."""
    feats = np.stack([f for f, _ in bindings])
    wts = np.stack([w for _, w in bindings])
    return feats, wts, ShiftRows(circ.plan, bind_angles(circ, feats, wts))


@settings(max_examples=200, deadline=None)
@given(bound_circuits(count=4), st.data())
def test_shift_rows_stand_for_the_full_rows_bit_for_bit(case, data):
    """ShiftRows count and build the full parameter-shift rows, and the sweep
    from their unshifted rows gives a plain run of those rows."""
    circ, bindings = case
    plan = circ.plan
    if not plan.shift_gates.size:
        return
    b = data.draw(st.integers(0, 4))
    rows = ShiftRows(plan, bind_angles(circ, np.stack([f for f, _ in bindings])[:b],
                                       np.stack([w for _, w in bindings])[:b]))
    full = shifted_rows(rows.base, plan.shift_gates)
    assert len(rows) == 2 * b * plan.shift_gates.size == len(full)
    built = np.asarray(rows)
    assert built.shape == full.shape and built.dtype == full.dtype
    assert built.tobytes() == full.tobytes()
    swept = run_bound_batch(circ, rows, shifted=True)
    plain = run_bound_batch(circ, full)
    assert swept.shape == plain.shape == (len(full), 2 ** circ.num_qubits)
    assert swept.tobytes() == plain.tobytes()


@settings(max_examples=200, deadline=None)
@given(bound_circuits(count=4), st.data())
def test_prefix_sweep_matches_full_rows_bit_for_bit(case, data):
    circ, bindings = case
    plan = circ.plan
    if not plan.shift_gates.size:
        return
    b = data.draw(st.integers(1, 4))
    feats, wts, rows = shift_batch(circ, bindings[:b])
    swept = run_bound_batch(circ, rows, shifted=True)
    np.testing.assert_array_equal(swept, run_bound_batch(circ, rows))
    if not plan.crz_slots:
        swept_jac = grad.shift_rule_jacobians(circ, feats, wts)
        with pytest.MonkeyPatch.context() as mp:   # every shifted row run from |0...0>
            mp.setattr(grad, "run_bound_batch",
                       lambda c, angle_rows, shifted: run_bound_batch(c, angle_rows))
            for got, want in zip(swept_jac, grad.shift_rule_jacobians(circ, feats, wts)):
                np.testing.assert_array_equal(got, want)


def test_prefix_sweep_chunks_bindings_within_the_coefficient_budget(monkeypatch):
    circ = compose(zz_feature_map(3), basic_entangler_layers(3, 2))
    rng = np.random.default_rng(4)
    rows = ShiftRows(circ.plan, bind_angles(circ, rng.uniform(-1, 1, (5, 3)),
                                            rng.uniform(-3, 3, 6)))
    full = run_bound_batch(circ, rows)
    chunks = []
    sweep = quantum_sim.CircuitPlan._prefix_sweep
    monkeypatch.setattr(quantum_sim.CircuitPlan, "_prefix_sweep",
                        lambda self, base, out: chunks.append(len(base)) or sweep(self, base, out))
    monkeypatch.setattr(quantum_sim, "COEFF_BYTES", 1)      # one binding per chunk
    np.testing.assert_array_equal(run_bound_batch(circ, rows, shifted=True), full)
    assert chunks == [1] * 5


@pytest.mark.parametrize("bindings", [1, 17])
def test_prefix_sweeps_return_arrays_of_their_own(bindings):
    """The sweep's work rows live in one workspace kept between calls, so two
    equal-shape sweeps must return equal arrays that share no memory with
    each other or with the workspace, as a sweep of one binding once did."""
    circ = compose(angle_embedding(5), basic_entangler_layers(5, 2))
    rng = np.random.default_rng(6)
    angles = bind_angles(circ, rng.uniform(-1, 1, (bindings, 5)), rng.uniform(-3, 3, 10))
    rows = ShiftRows(circ.plan, angles)
    first = circ.plan.run_shifts(rows)
    second = circ.plan.run_shifts(ShiftRows(circ.plan, angles.copy()))
    np.testing.assert_array_equal(first, run_bound_batch(circ, rows))
    np.testing.assert_array_equal(first, second)
    for out in (first, second):
        assert not np.shares_memory(out, quantum_sim._sweep_workspace)
    assert not np.shares_memory(first, second)


def test_shift_gates_are_validated():
    circ = ParameterizedCircuit(2, (Gate("H", (0,)), Gate("RX", (0,), SlotAngle(WEIGHT, 0)),
                                    Gate("CNOT", (0, 1)), Gate("RY", (1,), LiteralAngle(0.3))),
                                num_weight_slots=1)
    np.testing.assert_array_equal(circ.plan.shift_gates, [1])
    angles = bind_angles(circ, [], [[0.2], [0.4]])
    rows = ShiftRows(circ.plan, angles)
    run_bound_batch(circ, rows, shifted=True)
    literal = ParameterizedCircuit(1, (Gate("RY", (0,), LiteralAngle(0.3)),))
    with pytest.raises(BindingError, match="shift gates"):   # the full rows as an array
        run_bound_batch(circ, shifted_rows(angles, [1]), shifted=True)
    with pytest.raises(BindingError, match="shift gates"):   # another plan's rows
        run_bound_batch(compose(circ, circ), rows, shifted=True)
    for plan, base in [(literal.plan, np.zeros((2, 1))),    # no shift gates
                       (circ.plan, angles[:, :3]), (circ.plan, angles[0])]:   # wrong shape
        with pytest.raises(BindingError, match="shift gates"):
            ShiftRows(plan, base)


@pytest.mark.parametrize("n,lead", [(1, (0,)), (3, (0,)), (2, (0, 4)), (2, (3, 0))])
def test_zero_binding_shift_batches_give_empty_jacobians(n, lead):
    circ = compose(angle_embedding(n), basic_entangler_layers(n, 2))
    jf, jw = grad.shift_rule_jacobians(circ, np.zeros(lead + (n,)), np.full(2 * n, 0.2))
    assert jf.shape == lead + (n, n) and jw.shape == lead + (2 * n, n)
    rows = ShiftRows(circ.plan, np.zeros((0, circ.num_gates)))
    assert len(rows) == 0 and np.asarray(rows).shape == (0, circ.num_gates)
    amps = run_bound_batch(circ, rows, shifted=True)
    assert amps.shape == (0, 2 ** n) and amps.dtype == complex
    assert run_bound_batch(circ, np.zeros((0, circ.num_gates))).shape == (0, 2 ** n)


@settings(max_examples=100, deadline=None)
@given(bound_circuits(count=3))
def test_plan_shift_rows_run_as_plain_rows_on_both_paths(case):
    circ, bindings = case
    plan = circ.plan
    np.testing.assert_array_equal(plan.shift_pos,
                                  np.searchsorted(plan.par_gates, plan.shift_gates))
    if not plan.shift_gates.size:
        return
    _, _, rows = shift_batch(circ, bindings)
    np.testing.assert_array_equal(run_bound_batch(circ, rows, shifted=True),
                                  run_bound_batch(circ, rows))
    with pytest.raises(BindingError, match="shift gates"):
        run_bound_batch(circ, np.asarray(rows), shifted=True)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 3), st.integers(0, 3),
       st.sampled_from(["features", "weights", "both", "differing"]))
def test_slot_values_equal_the_broadcast_concatenation_bit_for_bit(data, nf, nw, batched):
    if batched == "differing":
        shapes = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3)).input_shapes
    else:
        lead = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))
        shapes = (lead if batched != "weights" else (), lead if batched != "features" else ())
    values = st.floats(allow_nan=True, allow_infinity=True)
    features = data.draw(hnp.arrays(float, shapes[0] + (nf,), elements=values))
    weights = data.draw(hnp.arrays(float, shapes[1] + (nw,), elements=values))
    plan = ParameterizedCircuit(1, (), num_feature_slots=nf, num_weight_slots=nw).plan
    got = plan.slot_values(features, weights)
    out = np.broadcast_shapes(shapes[0], shapes[1])
    want = np.concatenate((np.broadcast_to(features, out + (nf,)),
                           np.broadcast_to(weights, out + (nw,))), axis=-1)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 5), st.integers(1, 4), st.sampled_from(["angle", "zz"]),
       st.sampled_from(["basic", "nlocal"]))
def test_bind_sets_joins_each_sets_slot_values_bit_for_bit(data, n, sets, encoding, ansatz):
    first = angle_embedding(n) if encoding == "angle" else zz_feature_map(n)
    circ = compose(first, basic_entangler_layers(n, 2) if ansatz == "basic" else n_local(n, 1))
    plan, nf, nw = circ.plan, circ.num_feature_slots, circ.num_weight_slots
    values = st.floats(allow_nan=True, allow_infinity=True)
    features, weights = [], []
    for _ in range(sets):
        shapes = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3,
                                                             max_side=3)).input_shapes
        w_lead = shapes[1] if data.draw(st.booleans()) else ()   # batched or unbatched weights
        features.append(data.draw(hnp.arrays(float, shapes[0] + (nf,), elements=values)))
        weights.append(data.draw(hnp.arrays(float, w_lead + (nw,), elements=values)))
    got, leads = plan.bind_sets(features, weights)
    each = [plan.slot_values(f, w) for f, w in zip(features, weights)]
    want = np.concatenate([v.reshape(-1, nf + nw) for v in each])
    assert leads == [v.shape[:-1] for v in each]
    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    # A wrong width in any one set raises the message that set raises alone.
    bad = data.draw(st.integers(0, sets - 1))
    if data.draw(st.booleans()):
        features[bad] = features[bad][..., 1:]
        message = f"expected {nf} features, got shape {features[bad].shape}"
    else:
        weights[bad] = np.append(weights[bad][..., :1], weights[bad], axis=-1)
        message = f"expected {nw} weights, got shape {weights[bad].shape}"
    for call in (lambda: plan.bind_sets(features, weights),
                 lambda: plan.slot_values(features[bad], weights[bad])):
        with pytest.raises(BindingError) as err:
            call()
        assert str(err.value) == message


def test_slots_shared_between_gates_are_marked_on_the_plan():
    assert zz_feature_map(2).plan.shared_slots
    assert not zz_feature_map(1).plan.shared_slots
    assert not compose(angle_embedding(3), n_local(3, 2)).plan.shared_slots
    reuse = ParameterizedCircuit(1, (Gate("RX", (0,), SlotAngle(WEIGHT, 0)),
                                     Gate("RY", (0,), SlotAngle(WEIGHT, 0))), num_weight_slots=1)
    assert reuse.plan.shared_slots
