"""Reverse-mode differentiation over vectors with quantum circuits as nodes.

Classical operations record closed-form backward rules on a dynamically
built graph.  Quantum circuit evaluations enter the graph as
:class:`QuantumNode`; their gradients with respect to both weight slots
and feature slots come from the parameter-shift rule

    d<Z>/d(theta) = ( <Z> at theta + pi/2  -  <Z> at theta - pi/2 ) / 2

applied once per gate and chained through the gate's angle map.
The phase gate shares RZ's shift rule because both differ only by a
global phase.  CRZ slots are rejected (its generator has three distinct
eigenvalues, so the two-term rule does not apply).

Everything here is deterministic: identical graphs and values produce
bit-identical gradients.
"""

from __future__ import annotations

import math

import numpy as np

from .quantum_sim import (
    FEATURE,
    WEIGHT,
    CircuitError,
    ParameterizedCircuit,
    all_z_from_amplitudes,
    run_bound_batch,
    run_circuit,
    measure_all_z,
)

_HALF_PI = math.pi / 2.0
_SHIFTS = np.array([_HALF_PI, -_HALF_PI])   # the plus and the minus row of a gate


# --------------------------------------------------------------------------
# Graph nodes
# --------------------------------------------------------------------------

class Node:
    """A value in the computation graph plus its gradient accumulator.

    ``backward_rule(upstream)`` returns one gradient contribution per
    parent (or None for a parent that receives nothing).
    """

    __slots__ = ("value", "grad", "parents", "backward_rule", "name")

    def __init__(self, value, parents=(), backward_rule=None, name=""):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        self.parents = tuple(parents)
        self.backward_rule = backward_rule
        self.name = name

    def __repr__(self):
        return f"Node(name={self.name!r}, shape={self.value.shape})"


class QuantumNode(Node):
    """Per-qubit <Z> of a bound circuit, differentiable by parameter shift."""

    __slots__ = ("circuit",)

    def __init__(self, circuit, feature_parent, weight_parent, value, backward_rule):
        super().__init__(value, (feature_parent, weight_parent), backward_rule)
        self.circuit = circuit

    @property
    def feature_parent(self):
        return self.parents[0]

    @property
    def weight_parent(self):
        return self.parents[1]


def param(value, name="") -> Node:
    """Trainable leaf."""
    return Node(value, name=name)


def const(value) -> Node:
    """Non-trainable leaf (input data, fixed tensors)."""
    return Node(value)


def as_node(x) -> Node:
    return x if isinstance(x, Node) else const(x)


def backward(loss: Node) -> None:
    """Populate ``grad`` on every node reachable from a scalar loss.

    Gradients accumulate additively across fan-out.  Raises if the loss
    is not a single scalar.
    """
    if loss.value.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.value.shape}")

    # Iterative post-order topological sort (graphs can be deep).
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node.backward_rule is None or node.grad is None:
            continue
        contribs = node.backward_rule(node.grad)
        for parent, contrib in zip(node.parents, contribs):
            if contrib is None:
                continue
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.value)
            parent.grad = parent.grad + contrib


def sgd_step(params, lr: float) -> None:
    """Plain gradient descent on leaves; gradients are reset afterwards."""
    for p in params:
        if p.grad is not None:
            p.value = p.value - lr * p.grad
            p.grad = None


# --------------------------------------------------------------------------
# Classical operations
# --------------------------------------------------------------------------

def add(a: Node, b: Node) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(a.value + b.value, (a, b), lambda u: (u, u))


def sub(a: Node, b: Node) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(a.value - b.value, (a, b), lambda u: (u, -u))


def mul(a: Node, b: Node) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(a.value * b.value, (a, b),
                lambda u: (u * b.value, u * a.value))


def scale(a: Node, c: float) -> Node:
    a = as_node(a)
    return Node(c * a.value, (a,), lambda u: (c * u,))


def matvec(w: Node, x: Node) -> Node:
    w, x = as_node(w), as_node(x)
    return Node(w.value @ x.value, (w, x),
                lambda u: (np.outer(u, x.value), w.value.T @ u))


def matmul(a: Node, b: Node) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(a.value @ b.value, (a, b),
                lambda u: (u @ b.value.T, a.value.T @ u))


def transpose(a: Node) -> Node:
    a = as_node(a)
    return Node(a.value.T, (a,), lambda u: (u.T,))


def concat(nodes) -> Node:
    nodes = [as_node(x) for x in nodes]
    sizes = [n.value.size for n in nodes]
    offsets = np.cumsum([0] + sizes)

    def rule(u):
        return tuple(u[offsets[i]:offsets[i + 1]] for i in range(len(nodes)))

    return Node(np.concatenate([n.value for n in nodes]), tuple(nodes), rule)


def stack_rows(nodes) -> Node:
    nodes = [as_node(x) for x in nodes]
    return Node(np.stack([n.value for n in nodes]), tuple(nodes),
                lambda u: tuple(u[i] for i in range(len(nodes))))


def row(m: Node, i: int) -> Node:
    m = as_node(m)

    def rule(u):
        g = np.zeros_like(m.value)
        g[i] = u
        return (g,)

    return Node(m.value[i], (m,), rule)


def weighted_sum(weights: Node, vectors) -> Node:
    """Sum_j weights[j] * vectors[j] for vector nodes of equal length."""
    weights = as_node(weights)
    vectors = [as_node(v) for v in vectors]
    value = sum(w * v.value for w, v in zip(weights.value, vectors))

    def rule(u):
        dw = np.array([float(v.value @ u) for v in vectors])
        return (dw,) + tuple(weights.value[j] * u for j in range(len(vectors)))

    return Node(value, (weights, *vectors), rule)


def elu(x: Node) -> Node:
    """ELU with alpha = 1."""
    x = as_node(x)
    ex = np.exp(np.minimum(x.value, 0.0))
    value = np.where(x.value >= 0.0, x.value, ex - 1.0)
    deriv = np.where(x.value >= 0.0, 1.0, ex)
    return Node(value, (x,), lambda u: (u * deriv,))


def sigmoid(x: Node) -> Node:
    x = as_node(x)
    s = 1.0 / (1.0 + np.exp(-x.value))
    return Node(s, (x,), lambda u: (u * s * (1.0 - s),))


def tanh(x: Node) -> Node:
    x = as_node(x)
    t = np.tanh(x.value)
    return Node(t, (x,), lambda u: (u * (1.0 - t * t),))


def softmax(x: Node) -> Node:
    """Stable softmax of a vector (max subtraction before exponentiation)."""
    x = as_node(x)
    z = np.exp(x.value - np.max(x.value))
    s = z / z.sum()
    return Node(s, (x,), lambda u: (s * (u - float(u @ s)),))


def softmax_rows(x: Node) -> Node:
    """Row-wise stable softmax of a matrix."""
    x = as_node(x)
    z = np.exp(x.value - x.value.max(axis=1, keepdims=True))
    s = z / z.sum(axis=1, keepdims=True)
    return Node(s, (x,), lambda u: (s * (u - (u * s).sum(axis=1, keepdims=True)),))


def layer_norm(x: Node, eps: float = 1e-5) -> Node:
    """Population-variance layer normalization (no gain or bias)."""
    x = as_node(x)
    mu = x.value.mean()
    centered = x.value - mu
    var = float((centered ** 2).mean())
    inv = 1.0 / math.sqrt(var + eps)
    y = centered * inv
    d = x.value.size
    return Node(y, (x,), lambda u: ((inv / d) * (d * u - u.sum() - y * float(u @ y)),))


def mean_all(x: Node) -> Node:
    x = as_node(x)
    m = x.value.size
    return Node(np.array([x.value.mean()]), (x,),
                lambda u: (np.full_like(x.value, u[0] / m),))


def sum_scalars(nodes) -> Node:
    nodes = [as_node(x) for x in nodes]
    total = np.array([sum(float(n.value.reshape(-1)[0]) for n in nodes)])
    return Node(total, tuple(nodes), lambda u: tuple(u for _ in nodes))


def mean_scalars(nodes) -> Node:
    return scale(sum_scalars(nodes), 1.0 / len(nodes))


def pinball(targets, predictions: Node, q: float) -> Node:
    """Mean quantile (pinball) loss max((q-1)e, qe) with e = y - yhat."""
    predictions = as_node(predictions)
    y = np.asarray(targets, dtype=float)
    e = y - predictions.value
    value = np.maximum((q - 1.0) * e, q * e)
    m = e.size
    # subgradient: d max / d e, the e >= 0 branch at the kink
    coeff = np.where(e > 0.0, q, q - 1.0)

    def rule(u):
        return ((-coeff) * (u[0] / m),)

    return Node(np.array([value.mean()]), (predictions,), rule)


# --------------------------------------------------------------------------
# Quantum nodes and the parameter-shift rule
# --------------------------------------------------------------------------

def param_shift_partial(circuit: ParameterizedCircuit, features, weights,
                        out_qubit: int, slot_kind: str, slot_index: int) -> float:
    """d <Z_out_qubit> / d slot: one entry of :func:`shift_rule_jacobians`.

    A slot no gate uses yields 0.0.
    """
    if slot_kind not in (FEATURE, WEIGHT):
        raise ValueError(f"slot kind must be 'feature' or 'weight', got {slot_kind!r}")
    jf, jw = shift_rule_jacobians(circuit, features, weights)
    return float((jf if slot_kind == FEATURE else jw)[slot_index, out_qubit])


def shift_rule_jacobians(circuit: ParameterizedCircuit, features, weights):
    """Full parameter-shift Jacobians of the per-qubit <Z> vector.

    Returns ``(J_features, J_weights)`` with shapes (num_feature_slots, n)
    and (num_weight_slots, n).  Every gate whose angle depends on a slot
    is shifted once each way, all shifted circuits run as one batch, and
    each gate's difference reaches its slots through d angle / d slot.
    """
    plan = circuit.plan
    values = plan.slot_values(features, weights)
    base = plan.angles(values)
    if plan.crz_slots:
        raise CircuitError("parameter-shift rule is not defined for CRZ slots")
    n, gates = circuit.num_qubits, plan.shift_gates
    jac = np.zeros((values.size, n))
    if gates.size:
        rows = np.tile(base, (2 * gates.size, 1))
        rows.reshape(gates.size, 2, -1)[np.arange(gates.size), :, gates] += _SHIFTS
        z = all_z_from_amplitudes(run_bound_batch(circuit, rows), n)
        diff = z[0::2] - z[1::2]
        np.add.at(jac, plan.part_slot,
                  (plan.angle_partials(values) * 0.5)[:, None] * diff[plan.part_row])
    nf = circuit.num_feature_slots
    return jac[:nf], jac[nf:]


def quantum_forward(circuit: ParameterizedCircuit, feature_node: Node,
                    weight_node: Node) -> QuantumNode:
    """Run a circuit inside the graph; value is the per-qubit <Z> vector.

    Jacobians are computed lazily at backward time, so forward-only
    evaluation (e.g. finite-difference probing) never pays for shifts.
    """
    feature_node = as_node(feature_node)
    weight_node = as_node(weight_node)
    state = run_circuit(circuit, feature_node.value, weight_node.value)
    value = measure_all_z(state)
    features = feature_node.value.copy()
    weights = weight_node.value.copy()

    def rule(u):
        jf, jw = shift_rule_jacobians(circuit, features, weights)
        return (jf @ u, jw @ u)

    return QuantumNode(circuit, feature_node, weight_node, value, rule)
