"""Operation accounting and the gradient and circuit parts of the correctness gate."""

from __future__ import annotations

import sys
import traceback

import numpy as np

from qtft import grad, reference
from qtft.quantum_sim import bind_angles


class Ledger:
    """Operations attempted and failed in one run.

    ``call`` runs one program operation (train, evaluate, predict) and
    counts a raised exception as a failure; ``check`` counts one
    correctness check.  Failures are kept as text and echoed to stderr.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, text: str) -> None:
        self.failed += 1
        self.failures.append(text)
        print(f"FAILED {text}", file=sys.stderr)

    def call(self, name: str, fn, *args):
        """``fn(*args)``, or None when it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self._fail(f"{name}: {traceback.format_exc()}")
            return None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self._fail(f"check {name}: {detail}")


# Central-difference steps, largest first.  Each entry's reference is the
# estimate at the first step that agrees with the estimate at the previous
# step.  One fixed step is not enough: on wide-qlstm some loss directions
# pass through ZZ pair angles built from prices near 27 and are so curved
# that the truncation error stays above tolerance down to a step of 1e-9,
# although the estimates converge to the analytic gradient below that.
FD_STEPS = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11)


def converged_central_difference(f, x0: np.ndarray) -> np.ndarray:
    """Per entry, ``reference.central_difference`` at the first converged step.

    Entries that never converge keep the estimate at the smallest step.
    """
    estimate = reference.central_difference(f, x0, h=FD_STEPS[0])
    todo = np.arange(x0.size)
    for h in FD_STEPS[1:]:
        def f_todo(sub, todo=todo):
            x = x0.copy()
            x[todo] = sub
            return f(x)

        finer = reference.central_difference(f_todo, x0[todo], h=h)
        agree = np.array([reference.grad_deviation(a, b) <= 1.0
                          for a, b in zip(finer, estimate[todo])])
        estimate[todo] = finer
        todo = todo[~agree]
        if not todo.size:
            break
    return estimate


def gradient_check(model, window, q: float, rng: np.random.Generator, entries: int) -> float:
    """``reference.grad_deviation`` of backward against central differences.

    The loss is the pinball loss of one window.  ``entries`` leaf entries
    are drawn without replacement, half from the leaves that feed circuit
    weights (when the model has any) and the rest from all leaves, so a
    wrong circuit Jacobian cannot hide behind a sample of dense weights.
    """
    leaves = model.leaves()

    def loss_node():
        return window_loss(model, window, q)

    flat = [(li, i) for li, leaf in enumerate(leaves) for i in range(leaf.value.size)]
    circuit_leaves = {id(w) for w in _circuit_weights(model)}
    circuit_flat = [(li, i) for li, i in flat if id(leaves[li]) in circuit_leaves]
    picked = []
    if circuit_flat:
        k = min(entries // 2, len(circuit_flat))
        picked += [circuit_flat[j] for j in rng.choice(len(circuit_flat), k, replace=False)]
    rest = [e for e in flat if e not in picked]
    picked += [rest[j] for j in rng.choice(len(rest), min(entries - len(picked), len(rest)),
                                             replace=False)]

    loss = loss_node()
    grad.backward(loss)
    analytic = np.array([0.0 if leaves[li].grad is None else leaves[li].grad.flat[i]
                         for li, i in picked])
    for leaf in leaves:
        leaf.grad = None

    originals = [leaf.value for leaf in leaves]

    def f(x):
        for (li, i), v in zip(picked, x):
            leaves[li].value = leaves[li].value.copy()
            leaves[li].value.flat[i] = v
        try:
            return float(loss_node().value[0])
        finally:
            for leaf, orig in zip(leaves, originals):
                leaf.value = orig

    x0 = np.array([originals[li].flat[i] for li, i in picked])
    numeric = converged_central_difference(f, x0)
    return reference.grad_deviation(analytic, numeric)


def graph_nodes(loss) -> list:
    """Every node reachable from ``loss``, each once, in a fixed order."""
    seen, stack, out = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node.parents)
    return out


def window_loss(model, window, q: float):
    """Pinball loss node of one window."""
    preds = model.predict_nodes(window.static, window.past, window.future_known)
    return grad.pinball(window.targets, preds[0], q)


# Central-difference steps of the circuit check: over one gate angle, and
# over one slot for the angles bound from it.  A slot step is taken as
# the difference of the two perturbed values actually represented.
ANGLE_STEP = 1e-5
SLOT_STEP = 1e-3
# Accuracy demanded of d<Z>/d(angle) per radian: ANGLE_ABS_TOL, plus
# ANGLE_ULPS rounding units of the angle itself.  After training,
# wide-qlstm's ZZ pair angles reach 1e12 rad, which float64 holds only to
# 2e-4; no Jacobian, the program's or the reference's, is more accurate
# than that.  A slot's absolute tolerance sums this over its gates,
# weighted by |d angle / d slot|.
ANGLE_ABS_TOL = 1e-5
ANGLE_ULPS = 16
# Every gate is periodic in its angle with period 4 pi, so d<Z>/d(angle)
# is taken at the angle reduced to [0, 4 pi), where the step is exact.
ANGLE_PERIOD = 4.0 * np.pi


def _z_of(amplitudes: np.ndarray, n: int) -> np.ndarray:
    """Per-qubit <Z> of one amplitude vector, qubit 0 most significant."""
    probs = np.abs(amplitudes) ** 2
    index = np.arange(probs.size)
    return np.array([probs @ (1.0 - 2.0 * ((index >> (n - 1 - q)) & 1)) for q in range(n)])


def dense_z(circuit, features, weights) -> np.ndarray:
    """Per-qubit <Z> from ``reference.dense_run``."""
    return _z_of(reference.dense_run(circuit, features, weights), circuit.num_qubits)


def _central(f, x: float, h: float):
    """Central difference of ``f`` at ``x`` over the represented step."""
    xp, xm = x + h, x - h
    return (f(xp) - f(xm)) / (xp - xm)


def reference_jacobians(circuit, features, weights):
    """(J_features, J_weights, tol_features, tol_weights) by the chain rule.

    d<Z>/d(angle) comes from central differences of dense products of
    ``reference.dense_gate_matrix``; d(angle)/d(slot) from central
    differences of ``bind_angles``, which ``reference.dense_run`` also
    uses.  The tolerances are absolute, one per slot.
    """
    n = circuit.num_qubits
    angles = np.nan_to_num(bind_angles(circuit, features, weights))
    mats = [reference.dense_gate_matrix(g.kind, g.targets, a, n)
            for g, a in zip(circuit.ops, angles)]

    def z_with(gi, angle):
        state = np.zeros(2 ** n, dtype=complex)
        state[0] = 1.0
        for k, m in enumerate(mats):
            if k == gi:
                m = reference.dense_gate_matrix(circuit.ops[gi].kind, circuit.ops[gi].targets,
                                                angle, n)
            state = m @ state
        return _z_of(state, n)

    def angle_jacobian(values, bind):
        """(slots, gates) of d angle / d slot; NaN angles are fixed gates."""
        out = np.zeros((values.size, len(circuit.ops)))
        for i in range(values.size):
            def bound(v, i=i):
                x = values.copy()
                x[i] = v
                return np.nan_to_num(bind(x))
            out[i] = _central(bound, values[i], SLOT_STEP)
        return out

    a_f = angle_jacobian(features, lambda x: bind_angles(circuit, x, weights))
    a_w = angle_jacobian(weights, lambda x: bind_angles(circuit, features, x))
    dz = np.zeros((len(circuit.ops), n))
    for gi in np.flatnonzero(np.any(a_f != 0, axis=0) | np.any(a_w != 0, axis=0)):
        dz[gi] = _central(lambda v, gi=gi: z_with(gi, v),
                          float(np.remainder(angles[gi], ANGLE_PERIOD)), ANGLE_STEP)
    per_radian = ANGLE_ABS_TOL + ANGLE_ULPS * np.spacing(np.abs(angles))
    tol = [np.maximum(ANGLE_ABS_TOL, np.abs(a) @ per_radian) for a in (a_f, a_w)]
    return a_f @ dz, a_w @ dz, tol[0], tol[1]


def _finite(x: float) -> float:
    """``x``, or infinity when it is NaN, so that a worst-case ``max`` keeps it."""
    return x if np.isfinite(x) else np.inf


def _deviation(analytic, numeric, abs_tol) -> float:
    """``reference.grad_deviation`` with one absolute tolerance per row."""
    if not analytic.size:
        return 0.0
    return max(_finite(reference.grad_deviation(a, b, abs_tol=t))
               for a, b, t in zip(analytic, numeric, abs_tol))


def circuit_check(loss, rng: np.random.Generator) -> tuple[int, float, float]:
    """Every distinct circuit in a loss graph against the dense reference.

    For each circuit object, one of the graph nodes that ran it is drawn
    and checked at the features and weights it ran with: its <Z> value
    (from the program's simulator) against ``reference.dense_run``, and
    the Jacobian its backward rule applies (one unit upstream vector per
    qubit) against ``reference_jacobians``.  The rule is the one
    ``grad.backward`` calls, whatever computes it.  Returns (circuits
    checked, worst absolute <Z> error, worst deviation, where <= 1 passes).
    """
    by_circuit: dict[int, list] = {}
    for node in graph_nodes(loss):
        if hasattr(node, "circuit"):
            by_circuit.setdefault(id(node.circuit), []).append(node)
    worst_z, worst_dev = 0.0, 0.0
    for nodes in by_circuit.values():
        node = nodes[int(rng.integers(len(nodes)))]
        circuit, n = node.circuit, node.circuit.num_qubits
        features = np.array(node.parents[0].value, dtype=float).reshape(-1)
        weights = np.array(node.parents[1].value, dtype=float).reshape(-1)
        worst_z = max(worst_z, _finite(float(np.max(np.abs(
            np.ravel(node.value) - dense_z(circuit, features, weights))))))
        cols = [node.backward_rule(np.eye(n)[q]) for q in range(n)]
        rule_f = np.stack([np.ravel(c[0]) for c in cols], axis=1)
        rule_w = np.stack([np.ravel(c[1]) for c in cols], axis=1)
        ref_f, ref_w, tol_f, tol_w = reference_jacobians(circuit, features, weights)
        worst_dev = max(worst_dev, _deviation(rule_f, ref_f, tol_f),
                        _deviation(rule_w, ref_w, tol_w))
    return len(by_circuit), worst_z, worst_dev


def _circuit_weights(model):
    """Weight leaves of every circuit block (objects with a ``circuit`` and ``weights``)."""
    out, stack, seen = [], [model.params], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if hasattr(obj, "circuit") and hasattr(obj, "weights"):
            out.append(obj.weights)
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dataclass_fields__"):
            stack.extend(getattr(obj, name) for name in obj.__dataclass_fields__)
    return out
