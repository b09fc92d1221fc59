"""Independent oracles the tests check the library against.

The dense-matrix oracle builds every gate's full 2^n x 2^n matrix with
Kronecker products from first-principles definitions (qubit 0 = most
significant bit) and multiplies matrices onto the basis vector.  It
resolves angle sources on its own, so it shares no code path with the
simulator's tensor kernels or binding logic.
"""

from __future__ import annotations

import cmath
import collections
import dataclasses
import math

import numpy as np

from qtft.quantum_sim import (
    Gate,
    LiteralAngle,
    PairInteractionAngle,
    ParameterizedCircuit,
    SlotAngle,
)

I2 = np.eye(2, dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def rx(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(t):
    return np.array([[cmath.exp(-0.5j * t), 0], [0, cmath.exp(0.5j * t)]])


def phase(t):
    return np.array([[1, 0], [0, cmath.exp(1j * t)]])


def embed(placed: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Kron product over qubits, identity on unplaced wires, qubit 0 leftmost."""
    out = np.array([[1.0 + 0j]])
    for q in range(n):
        out = np.kron(out, placed.get(q, I2))
    return out


def resolve_angle(source, features, weights) -> float:
    """Re-derivation of angle binding, independent of the library's."""
    if isinstance(source, LiteralAngle):
        return source.value
    if isinstance(source, SlotAngle):
        pool = features if source.kind == "feature" else weights
        return source.coeff * pool[source.index]
    if isinstance(source, PairInteractionAngle):
        pool = features if source.kind == "feature" else weights
        return 2.0 * (math.pi - pool[source.i]) * (math.pi - pool[source.j])
    raise TypeError(f"unknown angle source {source!r}")


def gate_matrix(gate: Gate, n: int, features=(), weights=()) -> np.ndarray:
    angle = None
    if gate.angle is not None:
        angle = resolve_angle(gate.angle, np.asarray(features, float), np.asarray(weights, float))
    if gate.kind == "H":
        return embed({gate.targets[0]: H}, n)
    if gate.kind == "RX":
        return embed({gate.targets[0]: rx(angle)}, n)
    if gate.kind == "RY":
        return embed({gate.targets[0]: ry(angle)}, n)
    if gate.kind == "RZ":
        return embed({gate.targets[0]: rz(angle)}, n)
    if gate.kind == "PHASE":
        return embed({gate.targets[0]: phase(angle)}, n)
    if gate.kind == "CNOT":
        c, t = gate.targets
        return embed({c: P0}, n) + embed({c: P1, t: X}, n)
    if gate.kind == "CRZ":
        c, t = gate.targets
        return embed({c: P0}, n) + embed({c: P1, t: rz(angle)}, n)
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def circuit_unitary(circuit: ParameterizedCircuit, features=(), weights=()) -> np.ndarray:
    u = np.eye(2 ** circuit.num_qubits, dtype=complex)
    for g in circuit.ops:
        u = gate_matrix(g, circuit.num_qubits, features, weights) @ u
    return u


def dense_run(circuit: ParameterizedCircuit, features=(), weights=()) -> np.ndarray:
    """Amplitudes of circuit|0...0> via explicit matrix products."""
    state = np.zeros(2 ** circuit.num_qubits, dtype=complex)
    state[0] = 1.0
    for g in circuit.ops:
        state = gate_matrix(g, circuit.num_qubits, features, weights) @ state
    return state


def z_expectation(amplitudes: np.ndarray, qubit: int) -> float:
    """<psi| Z_q |psi> through the dense observable matrix."""
    n = int(math.log2(len(amplitudes)))
    obs = embed({qubit: Z}, n)
    return float(np.real(np.conj(amplitudes) @ obs @ amplitudes))


def random_circuit(rng: np.random.Generator, max_qubits: int = 3,
                   max_depth: int = 20) -> tuple[ParameterizedCircuit, np.ndarray, np.ndarray]:
    """A random circuit over every gate kind plus matching random bindings."""
    n = int(rng.integers(1, max_qubits + 1))
    depth = int(rng.integers(1, max_depth + 1))
    n_feat = int(rng.integers(0, 4))
    n_wt = int(rng.integers(0, 5))
    kinds = ["H", "RX", "RY", "RZ", "PHASE"] + (["CNOT", "CRZ"] if n >= 2 else [])
    ops = []
    for _ in range(depth):
        kind = kinds[rng.integers(0, len(kinds))]
        if kind in ("CNOT", "CRZ"):
            c, t = rng.choice(n, size=2, replace=False)
            targets = (int(c), int(t))
        else:
            targets = (int(rng.integers(0, n)),)
        angle = None
        if kind in ("RX", "RY", "RZ", "PHASE", "CRZ"):
            choice = rng.integers(0, 3)
            if choice == 0 or (n_feat == 0 and n_wt == 0):
                angle = LiteralAngle(float(rng.uniform(-2 * math.pi, 2 * math.pi)))
            elif choice == 1 and n_feat > 0:
                angle = SlotAngle("feature", int(rng.integers(0, n_feat)),
                                  float(rng.uniform(0.5, 2.0)))
            elif n_wt > 0:
                angle = SlotAngle("weight", int(rng.integers(0, n_wt)))
            else:
                angle = LiteralAngle(float(rng.uniform(-2 * math.pi, 2 * math.pi)))
            if kind == "PHASE" and n_feat >= 2 and rng.random() < 0.3:
                i, j = rng.choice(n_feat, size=2, replace=False)
                angle = PairInteractionAngle("feature", int(i), int(j))
        ops.append(Gate(kind, targets, angle))
    circ = ParameterizedCircuit(n, tuple(ops), num_feature_slots=n_feat, num_weight_slots=n_wt)
    return circ, rng.uniform(-1.5, 1.5, n_feat), rng.uniform(-math.pi, math.pi, n_wt)


def central_difference(f, x, h: float = 1e-4) -> np.ndarray:
    """Central finite-difference gradient of scalar f over a flat vector."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        out.flat[i] = (f(xp) - f(xm)) / (2 * h)
    return out


def richardson_difference(f, x, i: int, h: float = 1e-3) -> float:
    """Richardson-extrapolated central difference for one coordinate (O(h^4))."""
    def d(step):
        xp, xm = x.copy(), x.copy()
        xp.flat[i] += step
        xm.flat[i] -= step
        return (f(xp) - f(xm)) / (2 * step)

    return (4.0 * d(h / 2) - d(h)) / 3.0


def grads_close(analytic, numeric, abs_tol: float = 1e-5, rel_tol: float = 1e-4) -> bool:
    analytic = np.asarray(analytic, float).reshape(-1)
    numeric = np.asarray(numeric, float).reshape(-1)
    return bool(np.all(np.abs(analytic - numeric)
                       <= np.maximum(abs_tol, rel_tol * np.abs(numeric))))


def verify_gradient(f, x, analytic, abs_tol: float = 1e-5, rel_tol: float = 1e-4) -> bool:
    """Central differences at h=1e-4; coordinates outside tolerance are
    re-probed with a Richardson-extrapolated step to separate genuine
    disagreement from truncation error at high-curvature points."""
    x = np.asarray(x, float).reshape(-1)
    analytic = np.asarray(analytic, float).reshape(-1)
    fd = central_difference(f, x)
    for i in range(x.size):
        if abs(analytic[i] - fd[i]) <= max(abs_tol, rel_tol * abs(fd[i])):
            continue
        refined = richardson_difference(f, x.copy(), i, h=1e-5)
        if abs(analytic[i] - refined) > max(abs_tol, rel_tol * abs(refined)):
            return False
    return True


def zero_filling_backward(loss) -> list[tuple[object, np.ndarray]]:
    """Reference reverse pass: ``(node, gradient)`` for every node reached from ``loss``.

    Visits the nodes of the current tape in the order :func:`qtft.grad.backward`
    does, newest first, and calls the same backward rules, but accumulates
    each node's gradient in a zero-filled buffer of its value's shape,
    ``buffer = buffer + contribution``, so a contribution of another shape
    would broadcast (or fail) instead of being stored as it is.  No node's
    ``grad`` is read or written, and the tape is left as it is.
    """
    from qtft import grad

    reached, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            reached.append(node)
            stack.extend(node.parents)

    grads = {id(loss): np.ones_like(loss.value)}
    for node in reversed(grad._tape):
        if id(node) not in grads:
            continue
        for parent, contrib in zip(node.parents, node.backward_rule(grads[id(node)])):
            if contrib is not None:
                grads[id(parent)] = grads.get(id(parent), np.zeros_like(parent.value)) + contrib
    return [(node, grads[id(node)]) for node in reached if id(node) in grads]


def graph_ops(root, leaves=()) -> collections.Counter:
    """The nodes reached from ``root``, each once, counted by the op that made them.

    A node with a backward rule counts under its rule's op name (``affine``,
    ``part``, ...); one without counts as ``leaf`` if it is one of ``leaves``,
    else as ``const``.
    """
    leaf_ids = {id(leaf) for leaf in leaves}
    seen, stack, counts = set(), [root], collections.Counter()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
        counts["leaf" if id(node) in leaf_ids else "const" if node.backward_rule is None
               else node.backward_rule.__qualname__.split(".")[0]] += 1
    return counts


# --------------------------------------------------------------------------
# Blocks with a set axis
# --------------------------------------------------------------------------

def block(p, i: int):
    """Block ``i`` of a params object with a set axis, as a params object of its own.

    Every leaf is a fresh leaf holding slice ``i`` of the stacked leaf;
    circuits (shared by the blocks) and absent fields are kept.
    """
    from qtft import grad

    if isinstance(p, grad.Node):
        return grad.param(p.value[i].copy())
    if p is None or isinstance(p, ParameterizedCircuit):
        return p
    return type(p)(*(block(getattr(p, f.name), i) for f in dataclasses.fields(p)))


def on_sets(vectors) -> np.ndarray:
    """Arrays of shape (..., T, d) or (d,) put on a set axis at -3: (..., k, T, d)."""
    return np.stack([np.atleast_2d(v) for v in vectors], axis=-3)
