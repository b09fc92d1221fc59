"""Reverse-mode differentiation over (batches of) vectors, with quantum circuits as nodes.

Classical operations record closed-form backward rules on a tape, which
holds each node with a rule in creation order, after its parents (a
Wengert list); :func:`backward` walks it newest first.  A taped forward
starts a fresh tape (:func:`new_tape`).  Quantum circuit evaluations
enter the graph as :class:`QuantumNode`; their gradients with respect to
both weight slots and feature slots come from the parameter-shift rule

    d<Z>/d(theta) = ( <Z> at theta + pi/2  -  <Z> at theta - pi/2 ) / 2

applied once per gate and chained through the gate's angle map.
The phase gate shares RZ's shift rule because both differ only by a
global phase.  CRZ slots are rejected (its generator has three distinct
eigenvalues, so the two-term rule does not apply).

Everything here is deterministic: identical graphs and values produce
bit-identical gradients.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math

import numpy as np

from .quantum_sim import (
    CircuitError,
    ParameterizedCircuit,
    ShiftRows,
    all_z_from_amplitudes,
    run_bound_batch,
    run_circuit,
    measure_all_z,
)

# --------------------------------------------------------------------------
# Graph nodes
# --------------------------------------------------------------------------

_taping = contextvars.ContextVar("taping", default=True)
_tape: list = []   # the process's one current tape: taped nodes with a rule, oldest first


class TapeError(RuntimeError):
    """A backward reached a node recorded on a superseded or already walked tape."""


def new_tape() -> None:
    """Start a fresh tape (not under :func:`no_tape`); the one it supersedes drops its nodes."""
    global _tape
    if _taping.get():
        _tape.clear()
        _tape = []


@contextlib.contextmanager
def no_tape():
    """Compute values only: nodes built inside keep no parents, no rule and no tape,
    so each is freed as soon as nothing downstream holds it."""
    token = _taping.set(False)
    try:
        yield
    finally:
        _taping.reset(token)


class Node:
    """A value in the computation graph plus its gradient accumulator.

    ``backward_rule(upstream)`` returns one gradient contribution per
    parent (or None for a parent that receives nothing), each a float
    array of exactly that parent's shape.  A contribution may be the
    upstream array itself or a view of it, so a ``grad`` may be the same
    array as another node's ``grad``: treat every ``grad`` as read-only.
    ``tape`` is the tape a taped node with a rule is recorded on, else None.
    """

    __slots__ = ("value", "grad", "parents", "backward_rule", "tape", "__weakref__")

    def __init__(self, value, parents=(), backward_rule=None):
        self.value = np.asarray(value, dtype=float)
        self.grad, self.parents, self.backward_rule, self.tape = None, (), None, None
        if backward_rule is not None and _taping.get():
            self.parents, self.backward_rule, self.tape = tuple(parents), backward_rule, _tape
            _tape.append(self)

    def __repr__(self):
        return f"Node(shape={self.value.shape})"


class QuantumNode(Node):
    """Per-qubit <Z> of the bound rows of one simulator call, differentiable by parameter shift.

    Its parents are each set's feature node and weight node, in set order.
    """

    __slots__ = ("circuit",)

    def __init__(self, circuit, parents, value, backward_rule):
        super().__init__(value, parents, backward_rule)
        self.circuit = circuit

    @property
    def sets(self) -> list[tuple[Node, Node]]:
        """The (feature node, weight node) of each set, in set order."""
        return list(zip(self.parents[0::2], self.parents[1::2]))


def param(value) -> Node:
    """A leaf: trainable (``param``), or input data and fixed tensors (``const``)."""
    return Node(value)


const = param


def as_node(x) -> Node:
    return x if isinstance(x, Node) else const(x)


def backward(loss: Node) -> None:
    """Populate ``grad`` on every node reachable from a scalar loss.

    Walks the loss's tape newest first and retires it; later nodes go on a
    fresh tape.  A parent's first gradient contribution becomes its ``grad``
    as it is (rules return their parents' shapes) and each later one, in tape
    order, is added into a new array, so treat every ``grad`` as read-only.
    Raises ``ValueError`` for a non-scalar loss, and :class:`TapeError`
    (gradients then incomplete) when the loss or a node it reaches lies on a
    tape that a newer taped forward superseded or a backward walked.
    """
    global _tape
    if loss.value.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    tape = loss.tape
    if tape is not _tape and loss.backward_rule is not None:
        raise TapeError("the loss was recorded on a superseded or already walked tape")
    loss.grad = np.ones_like(loss.value)
    if tape is _tape:
        _tape = []
    while tape:   # emptied as it is walked, so it keeps no node alive
        node = tape.pop()
        if node.grad is None:
            continue
        for parent, contrib in zip(node.parents, node.backward_rule(node.grad)):
            if contrib is None:
                continue
            if parent.tape is not tape and parent.tape is not None:
                raise TapeError("backward reached a node of a superseded or walked tape")
            parent.grad = contrib if parent.grad is None else parent.grad + contrib


def sgd_step(params, lr: float) -> None:
    """Plain gradient descent on leaves; gradients are reset afterwards."""
    for p in params:
        if p.grad is not None:
            p.value = p.value - lr * p.grad
            p.grad = None


# --------------------------------------------------------------------------
# Classical operations
# --------------------------------------------------------------------------
#
# Every operation acts on the last axis of its operands (the last two for
# ``matmul`` and ``transpose``, whose operands are matrices) and treats any
# leading axes as a batch, so one graph can carry many windows.  Leaves are
# unbatched, and a context computed once for many windows has one leading
# entry; both broadcast against batched operands, and a backward rule sums
# the axes that broadcasting added, so each gradient has its node's shape.

def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``g`` summed over the axes broadcasting added to an operand of ``shape``."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    kept = tuple(i for i, size in enumerate(shape) if size == 1 and g.shape[i] != 1)
    # a sum over every axis, a 0-d operand's, is a numpy scalar, not an array
    return g.sum(axis=kept, keepdims=True) if kept else np.asarray(g)


def add(a: Node, b: Node) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(a.value + b.value, (a, b),
                lambda u: (_unbroadcast(u, a.value.shape), _unbroadcast(u, b.value.shape)))


def mul(a: Node, b: Node) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(a.value * b.value, (a, b),
                lambda u: (_unbroadcast(u * b.value, a.value.shape),
                           _unbroadcast(u * a.value, b.value.shape)))


def _swap(m: np.ndarray) -> np.ndarray:
    return m.swapaxes(-1, -2)


def _per_set(a: np.ndarray, k: int) -> np.ndarray:
    """The rows of each of k sets, (k, rows, width), from values whose set axis is -3."""
    n = a.ndim
    return a.transpose(n - 3, *range(n - 3), n - 2, n - 1).reshape(k, -1, a.shape[-1])


def _matvec_grads(w: Node, x: Node, u: np.ndarray):
    """Gradients of ``W x`` with respect to ``W`` (summed over the batch) and ``x``.

    A (k, out, in) ``W`` is k matrices, one per set: the values' axis -3 is
    the set axis, an ``x`` with one entry there feeds every set, and each
    matrix's gradient sums the rows of its own set.
    """
    if w.value.ndim == 2:
        rows = u.reshape(math.prod(u.shape[:-1]), u.shape[-1])
        return rows.T @ x.value.reshape(rows.shape[0], x.value.shape[-1]), u @ w.value
    k, xs = w.value.shape[0], x.value
    if xs.shape[:-1] != u.shape[:-1]:   # one input read by every set
        xs = np.broadcast_to(xs, u.shape[:-1] + xs.shape[-1:])
    return _swap(_per_set(u, k)) @ _per_set(xs, k), _unbroadcast(u @ w.value, x.value.shape)


def matvec(w: Node, x: Node) -> Node:
    """``W x`` for an unbatched matrix ``W``, or k on a set axis, and (batches of) vectors ``x``."""
    w, x = as_node(w), as_node(x)
    return Node(x.value @ _swap(w.value), (w, x), lambda u: _matvec_grads(w, x, u))


def affine(w: Node, x: Node, b: Node) -> Node:
    """``W x + b``: :func:`matvec` and :func:`add` fused into one node.

    With k matrices on a set axis, ``b`` is (k, out), one bias per set.
    """
    w, x, b = as_node(w), as_node(x), as_node(b)
    stacked = w.value.ndim == 3

    def rule(u):
        db = _per_set(u, len(w.value)).sum(axis=1) if stacked else _unbroadcast(u, b.value.shape)
        return _matvec_grads(w, x, u) + (db,)

    return Node(x.value @ _swap(w.value) + (b.value[:, None] if stacked else b.value), (w, x, b),
                rule)


def matmul(a: Node, b: Node) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(a.value @ b.value, (a, b),
                lambda u: (_unbroadcast(u @ _swap(b.value), a.value.shape),
                           _unbroadcast(_swap(a.value) @ u, b.value.shape)))


def transpose(a: Node, axes: tuple[int, int] = (-2, -1)) -> Node:
    """Two axes swapped, the last two (a matrix's rows and columns) by default."""
    a = as_node(a)
    return Node(np.swapaxes(a.value, *axes), (a,), lambda u: (np.swapaxes(u, *axes),))


def concat(nodes, axis: int = -1) -> Node:
    """Concatenation along the last axis, or along ``axis`` counted from the end.

    ``axis=-2`` joins sequences of positions.  The axes after ``axis`` must
    agree; the leading axes broadcast, so a context computed once for many
    windows joins each window's vectors.
    """
    nodes = [as_node(x) for x in nodes]
    values = [n.value for n in nodes]
    try:
        value = np.concatenate(values, axis=axis)
    except ValueError:
        lead = np.broadcast_shapes(*(v.shape[:axis] for v in values))
        value = np.concatenate([np.broadcast_to(v, lead + v.shape[axis:]) for v in values],
                               axis=axis)

    def rule(u):
        after = (slice(None),) * (-1 - axis)
        bounds = list(itertools.accumulate((n.value.shape[axis] for n in nodes), initial=0))
        return tuple(_unbroadcast(u[(..., slice(a, b)) + after], n.value.shape)
                     for n, a, b in zip(nodes, bounds, bounds[1:]))

    return Node(value, tuple(nodes), rule)


def part(x: Node, key, shape: tuple[int, ...] | None = None) -> Node:
    """``x.value[key]`` for a basic index ``key`` (integers, slices, ``...``),
    reshaped to ``shape`` when given.

    The backward rule writes the upstream gradient into zeros at ``key``.
    """
    x = as_node(x)
    value = x.value[key]

    def rule(u):
        g = np.zeros_like(x.value)
        g[key] = u if shape is None else u.reshape(value.shape)
        return (g,)

    return Node(value if shape is None else value.reshape(shape), (x,), rule)


def gather(x: Node, index) -> Node:
    """The vectors of ``x`` (its last axis) picked by an integer array ``index``.

    Vectors are numbered in order over every leading axis of ``x``, so an
    (N, d) or (N, 1, d) node holds vectors 0 to N-1; the value has shape
    ``index.shape + (d,)`` and may repeat a vector.  The backward rule adds
    up the upstream rows of repeated entries.  A pick by a basic index is a
    :func:`part`.
    """
    x = as_node(x)
    index = np.asarray(index)
    vectors = (math.prod(x.value.shape[:-1]), x.value.shape[-1])

    def rule(u):
        g = np.zeros(vectors)
        np.add.at(g, index, u)
        return (g.reshape(x.value.shape),)

    return Node(x.value.reshape(vectors)[index], (x,), rule)


def reshape(x: Node, shape: tuple[int, ...]) -> Node:
    x = as_node(x)
    return Node(x.value.reshape(shape), (x,), lambda u: (u.reshape(x.value.shape),))


def weighted_sum(weights: Node, vectors: Node) -> Node:
    """Sum_j weights[..., j] * vectors[..., j, :, :], over the set axis (-3) of ``vectors``.

    ``weights`` is (..., T, k), one weight per position and set, and
    ``vectors`` (..., k, T, d); the terms are added in set order.
    """
    weights, vectors = as_node(weights), as_node(vectors)
    w = np.swapaxes(weights.value, -1, -2)[..., None]

    def rule(u):
        u = u[..., None, :, :]
        dw = np.swapaxes((vectors.value * u).sum(axis=-1), -1, -2)
        return (_unbroadcast(dw, weights.value.shape), _unbroadcast(w * u, vectors.value.shape))

    return Node((w * vectors.value).sum(axis=-3), (weights, vectors), rule)


def set_mean(x: Node) -> Node:
    """The mean over the set axis (-3): the sets added in order, then scaled by 1/k."""
    x = as_node(x)
    c = 1.0 / x.value.shape[-3]
    return Node(c * x.value.sum(axis=-3), (x,),
                lambda u: (np.broadcast_to((c * u)[..., None, :, :], x.value.shape),))


def elu(x: Node) -> Node:
    """ELU with alpha = 1."""
    x = as_node(x)
    linear = x.value >= 0.0
    ex = np.exp(np.minimum(x.value, 0.0))
    return Node(np.where(linear, x.value, ex - 1.0), (x,),
                lambda u: (u * np.where(linear, 1.0, ex),))


def sigmoid(x: Node) -> Node:
    x = as_node(x)
    s = 1.0 / (1.0 + np.exp(-x.value))
    return Node(s, (x,), lambda u: (u * s * (1.0 - s),))


def tanh(x: Node) -> Node:
    x = as_node(x)
    t = np.tanh(x.value)
    return Node(t, (x,), lambda u: (u * (1.0 - t * t),))


def softmax(x: Node) -> Node:
    """Stable softmax over the last axis (max subtraction before exponentiation)."""
    x = as_node(x)
    z = np.exp(x.value - x.value.max(axis=-1, keepdims=True))
    s = z / z.sum(axis=-1, keepdims=True)
    return Node(s, (x,), lambda u: (s * (u - (u * s).sum(axis=-1, keepdims=True)),))


def layer_norm(x: Node, eps: float = 1e-5) -> Node:
    """Population-variance layer normalization over the last axis (no gain or bias)."""
    x = as_node(x)
    d = x.value.shape[-1]
    centered = x.value - x.value.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((centered * centered).sum(axis=-1, keepdims=True) / d + eps)
    y = centered * inv
    return Node(y, (x,), lambda u: ((inv / d) * (d * u - u.sum(axis=-1, keepdims=True)
                                                 - y * (u * y).sum(axis=-1, keepdims=True)),))


def mean_all(x: Node) -> Node:
    x = as_node(x)
    m = x.value.size
    if not m:
        raise ValueError("mean_all needs at least one entry")
    return Node(np.array([x.value.mean()]), (x,),
                lambda u: (np.full_like(x.value, u[0] / m),))


def pinball(targets, predictions: Node, q: float) -> Node:
    """Mean quantile (pinball) loss max((q-1)e, qe) with e = y - yhat.

    The mean runs over every entry of ``e``, so a batch of windows gives
    the mean over all windows and forecast steps.
    """
    predictions = as_node(predictions)
    y = np.asarray(targets, dtype=float)
    e = y - predictions.value
    value = np.maximum((q - 1.0) * e, q * e)
    m = e.size
    if not m:
        raise ValueError(f"the pinball loss needs at least one entry, got shape {e.shape}")

    def rule(u):
        # subgradient: d max / d e, the (q - 1) e branch at the kink e = 0
        coeff = np.where(e > 0.0, q, q - 1.0)
        return (_unbroadcast((-coeff) * (u[0] / m), predictions.value.shape),)

    return Node(np.array([value.mean()]), (predictions,), rule)


# --------------------------------------------------------------------------
# Quantum nodes and the parameter-shift rule
# --------------------------------------------------------------------------

def shift_rule_jacobians(circuit: ParameterizedCircuit, features, weights):
    """Full parameter-shift Jacobians of the per-qubit <Z> vector.

    Returns ``(J_features, J_weights)`` with shapes (num_feature_slots, n)
    and (num_weight_slots, n), behind any leading batch axes of the
    features or weights.  Every gate whose angle depends on a slot is
    shifted once each way for every row, all shifted circuits run as one
    batch (the :class:`~qtft.quantum_sim.ShiftRows` of the rows' angles),
    and each gate's difference reaches its slots through d angle / d slot.
    """
    plan = circuit.plan
    values = plan.slot_values(features, weights)
    lead = values.shape[:-1]
    values = values.reshape(math.prod(lead), values.shape[-1])
    if plan.crz_slots:
        raise CircuitError("parameter-shift rule is not defined for CRZ slots")
    n, batch, g = circuit.num_qubits, values.shape[0], plan.shift_gates.size
    jac = np.zeros((batch, values.shape[1], n))
    if g:
        rows = ShiftRows(plan, plan.angles(values))
        z = all_z_from_amplitudes(run_bound_batch(circuit, rows), n)
        diff = (z[0::2] - z[1::2]).reshape(batch, g, n)
        parts = (plan.angle_partials(values) * 0.5)[:, :, None] * diff[:, plan.part_row]
        if plan.shared_slots:
            np.add.at(jac, (slice(None), plan.part_slot), parts)
        else:   # + 0.0 turns -0.0 into +0.0, as adding into the zeros does
            jac[:, plan.part_slot] = parts + 0.0
    jac = jac.reshape(lead + jac.shape[1:])
    nf = circuit.num_feature_slots
    return jac[..., :nf, :], jac[..., nf:, :]


def quantum_forward(circuits: ParameterizedCircuit | list[ParameterizedCircuit], feature_nodes,
                    weight_nodes) -> Node | list[Node]:
    """Run circuits inside the graph; each value is the per-qubit <Z> vector.

    Takes lists of sets, one circuit, feature node and weight node each,
    and returns one node per set; a lone circuit is the one-set case.
    Every row of every set runs in one simulator call, bound by one
    :meth:`~qtft.quantum_sim.CircuitPlan.bind_sets`, so the circuits need
    one gate list (else :class:`CircuitError`).  A block with a set axis is
    one set: (k, 1, nw) weights, and features with the set axis at -3.

    A set is windowed when its features have at least three axes and more
    than its weights.  A call whose sets are all windowed, as every call of
    a batched graph is, makes one :class:`QuantumNode`: its parents are
    every set's feature and weight node, and each set's output is its rows
    of the node (a lone set's is the node).  Any other call makes one node
    per binding, fed a 1-D feature row and weight row, as ``perfbench``'s
    circuit check reads them.  Jacobians are taken at backward time, one
    shift batch per node; under :func:`no_tape` a set's node is its plain
    value.
    """
    if isinstance(circuits, ParameterizedCircuit):
        return quantum_forward([circuits], [feature_nodes], [weight_nodes])[0]
    circuit = circuits[0]
    plan = circuit.plan
    # Equal gate lists share a plan unless the plan cache evicted one between compiles.
    if any(c.plan is not plan and c != circuit for c in circuits):
        raise CircuitError("circuits run in one call need equal gate lists")
    feature_nodes, weight_nodes = ([as_node(x) for x in xs] for xs in (feature_nodes, weight_nodes))
    values, leads = plan.bind_sets([f.value for f in feature_nodes],
                                   [w.value for w in weight_nodes])
    bounds = list(itertools.accumulate(map(math.prod, leads), initial=0))
    nf = circuit.num_feature_slots
    z = measure_all_z(run_circuit(circuit, values[:, :nf], values[:, nf:]))

    if not _taping.get():
        return [Node(z[a:b].reshape(lead + z.shape[-1:]))
                for lead, a, b in zip(leads, bounds, bounds[1:])]
    if all(f.value.ndim >= 3 and f.value.ndim > w.value.ndim
           for f, w in zip(feature_nodes, weight_nodes)):
        node = _circuit_node(circuit, feature_nodes, weight_nodes, leads, values, z)
        if len(leads) == 1:
            return [node]
        return [part(node, slice(a, b), lead + z.shape[-1:])
                for lead, a, b in zip(leads, bounds, bounds[1:])]
    outputs = []
    for c, f, w, lead, a, b in zip(circuits, feature_nodes, weight_nodes, leads, bounds,
                                   bounds[1:]):
        if not lead:
            outputs.append(_circuit_node(c, [f], [w], [lead], values[a:b], z[a:b]))
            continue
        pick = functools.cache(part)   # one node per distinct row
        out = concat([_circuit_node(c, [fi], [wi], [()], values[i:i + 1], z[i:i + 1])
                      for i, fi, wi in zip(range(a, b), _binding_rows(f, lead, pick),
                                           _binding_rows(w, lead, pick))])
        outputs.append(reshape(out, lead + z.shape[-1:]))
    return outputs


def _binding_rows(x: Node, lead: tuple[int, ...], pick) -> list[Node]:
    """Each binding's 1-D row of ``x``, ``pick(x, index)``, x's axes broadcast to ``lead``."""
    shape = x.value.shape[:-1]
    if not shape:
        return [x] * math.prod(lead)
    at = np.broadcast_to(np.arange(math.prod(shape)).reshape(shape), lead)
    return [pick(x, np.unravel_index(r, shape)) for r in at.ravel().tolist()]


def _circuit_node(circuit: ParameterizedCircuit, feature_nodes, weight_nodes, leads,
                  values: np.ndarray, z: np.ndarray) -> QuantumNode:
    """One circuit node over the bound slot ``values`` of its sets and their <Z> rows ``z``.

    Set i is ``feature_nodes[i]`` and ``weight_nodes[i]``, broadcast to
    ``leads[i]``, on its block of rows.  A lone set's value keeps the set's
    shape; otherwise the value is the joined rows.  The backward rule
    shifts every row in one batch and hands each parent its rows' part of
    ``u . J``, summed over the axes its set broadcast (per block, in row
    order, for (k, 1, nw) weights).
    """

    def rule(u):
        nf = circuit.num_feature_slots
        jf, jw = shift_rule_jacobians(circuit, values[:, :nf], values[:, nf:])
        u = u.reshape(z.shape)[..., None]
        gf, gw = (jf @ u)[..., 0], (jw @ u)[..., 0]
        bounds, contribs = list(itertools.accumulate(map(math.prod, leads), initial=0)), []
        for f, w, lead, a, b in zip(feature_nodes, weight_nodes, leads, bounds, bounds[1:]):
            g = gw[a:b].reshape(lead + gw.shape[-1:])
            contribs += (_unbroadcast(gf[a:b].reshape(lead + gf.shape[-1:]), f.value.shape),
                         _unbroadcast(g, w.value.shape) if w.value.ndim < 3
                         else _per_set(g, len(w.value)).sum(axis=1).reshape(w.value.shape))
        return contribs

    value = z.reshape(leads[0] + z.shape[-1:]) if len(leads) == 1 else z
    return QuantumNode(circuit, itertools.chain(*zip(feature_nodes, weight_nodes)), value, rule)

