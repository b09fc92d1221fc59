"""Statevector simulation of parameterized quantum circuits.

Conventions (pinned so numerical tests are exact):

* ``RX(t) = exp(-i t X / 2)``, ``RY(t) = exp(-i t Y / 2)``,
  ``RZ(t) = exp(-i t Z / 2)``; the phase gate is
  ``PHASE(l) = diag(1, exp(i l))``.
* Qubit 0 is the most significant bit of the basis index, i.e. for a
  2-qubit state the amplitudes are ordered ``|00>, |01>, |10>, |11>``
  with qubit 0 leftmost.
* Everything is exact double-precision statevector arithmetic; there is
  no shot sampling and no noise.

Circuits are immutable gate lists.  Parametric gates take their angle
from a literal value, from a feature slot (classical data encoded at run
time) or from a weight slot (trainable), optionally through a fixed
angle map such as the pairwise interaction used by the ZZ feature map.

Every run goes through a :class:`CircuitPlan`, compiled from the gate list
on first use and shared by every equal circuit.  The plan binds angles
with vectorised gathers, folds CNOTs into a relabelling of the amplitude
columns, and applies every other gate as one elementwise update over all
columns of a (batch, 2**n) array.

Bindings, states and expectations may carry leading batch axes: features
of shape (..., num_feature_slots) give states of shape (..., 2**n) and
<Z> vectors of shape (..., n), one row per binding, from one plan run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np


class CircuitError(ValueError):
    """Structurally invalid circuit or gate (bad indices, bad kinds)."""


class BindingError(ValueError):
    """Angle binding failed (missing angle, wrong feature/weight length)."""


GATE_KINDS = ("H", "RX", "RY", "RZ", "PHASE", "CNOT", "CRZ")
PARAMETRIC_KINDS = frozenset({"RX", "RY", "RZ", "PHASE", "CRZ"})

FEATURE = "feature"
WEIGHT = "weight"


# --------------------------------------------------------------------------
# Angle sources
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class LiteralAngle:
    """A fixed angle, independent of any slot."""

    value: float


@dataclass(frozen=True, slots=True)
class SlotAngle:
    """Angle proportional to one slot value: ``angle = coeff * s``."""

    kind: str
    index: int
    coeff: float = 1.0


@dataclass(frozen=True, slots=True)
class PairInteractionAngle:
    """Pairwise interaction angle ``2 * (pi - s_i) * (pi - s_j)``."""

    kind: str
    i: int
    j: int


AngleSource = LiteralAngle | SlotAngle | PairInteractionAngle


def _slots_of(source) -> tuple[tuple[str, int], ...]:
    if isinstance(source, SlotAngle):
        return ((source.kind, source.index),)
    if isinstance(source, PairInteractionAngle):
        return ((source.kind, source.i), (source.kind, source.j))
    return ()


# --------------------------------------------------------------------------
# Gates and circuits
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Gate:
    """One gate: a kind, its target qubits and (if parametric) an angle source.

    ``targets`` is ``(qubit,)`` for single-qubit gates and
    ``(control, target)`` for CNOT / CRZ.  ``_key`` holds the same fields
    as plain tuples, the angle source as its class and field values, for
    :class:`ParameterizedCircuit`'s equality and hash.
    """

    kind: str
    targets: tuple[int, ...]
    angle: AngleSource | None = None
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        n_targets = 2 if self.kind in ("CNOT", "CRZ") else 1
        if len(self.targets) != n_targets:
            raise CircuitError(f"{self.kind} takes {n_targets} qubit(s), got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise CircuitError(f"{self.kind} control and target must differ: {self.targets}")
        if (self.kind in PARAMETRIC_KINDS) != (self.angle is not None):
            raise CircuitError(f"{self.kind} angle source mismatch")
        a = self.angle
        angle = None if a is None else (type(a), *map(a.__getattribute__, a.__slots__))
        object.__setattr__(self, "_key", (self.kind, self.targets, angle))


@dataclass(frozen=True, eq=False)
class ParameterizedCircuit:
    """Immutable ordered gate list with feature and weight slots.

    Equality and hashing compare a plain tuple of the fields and of every
    gate's fields, built when the circuit is made, so finding its plan in
    the shared cache costs one tuple hash and, against an equal circuit,
    one tuple comparison.
    """

    num_qubits: int
    ops: tuple[Gate, ...]
    num_feature_slots: int = 0
    num_weight_slots: int = 0

    def __post_init__(self):
        if self.num_qubits < 1:
            raise CircuitError("circuit needs at least one qubit")
        object.__setattr__(self, "ops", tuple(self.ops))
        for g in self.ops:
            for q in g.targets:
                if not 0 <= q < self.num_qubits:
                    raise CircuitError(f"gate {g.kind} targets qubit {q} outside 0..{self.num_qubits - 1}")
            if g.angle is not None:
                for kind, idx in _slots_of(g.angle):
                    count = self.num_feature_slots if kind == FEATURE else self.num_weight_slots
                    if not 0 <= idx < count:
                        raise CircuitError(f"gate {g.kind} references {kind} slot {idx} of {count}")
        object.__setattr__(self, "_key", (self.num_qubits, self.num_feature_slots,
                                          self.num_weight_slots, tuple(g._key for g in self.ops)))

    def __eq__(self, other):
        if not isinstance(other, ParameterizedCircuit):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    @property
    def num_gates(self) -> int:
        return len(self.ops)

    @cached_property
    def plan(self) -> CircuitPlan:
        """The compiled form every run uses, shared by all equal circuits."""
        return _compiled(self)


@lru_cache(maxsize=256)
def _compiled(circuit: ParameterizedCircuit) -> CircuitPlan:
    """One plan per distinct gate list; the bound keeps one-off circuits from piling up."""
    return CircuitPlan(circuit)


def compose(first: ParameterizedCircuit, second: ParameterizedCircuit) -> ParameterizedCircuit:
    """Circuit applying ``first`` then ``second``; slot indices of ``second`` are offset."""
    if first.num_qubits != second.num_qubits:
        raise CircuitError("composed circuits must share num_qubits")
    df, dw = first.num_feature_slots, first.num_weight_slots

    def shift(g):
        src, off = g.angle, 0
        if isinstance(src, (SlotAngle, PairInteractionAngle)):
            off = df if src.kind == FEATURE else dw
        if not off:
            return g   # gates are immutable, so one that needs no offset is shared
        if isinstance(src, SlotAngle):
            return Gate(g.kind, g.targets, SlotAngle(src.kind, src.index + off, src.coeff))
        return Gate(g.kind, g.targets, PairInteractionAngle(src.kind, src.i + off, src.j + off))

    shifted = tuple(shift(g) for g in second.ops)
    return ParameterizedCircuit(
        num_qubits=first.num_qubits,
        ops=first.ops + shifted,
        num_feature_slots=df + second.num_feature_slots,
        num_weight_slots=dw + second.num_weight_slots,
    )


def bind_angles(circuit: ParameterizedCircuit, features, weights) -> np.ndarray:
    """Per-gate bound angles (NaN for fixed gates), one row per binding."""
    plan = circuit.plan
    return plan.angles(plan.slot_values(features, weights))


# --------------------------------------------------------------------------
# States
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the 2^n computational basis states.

    ``amplitudes`` has shape (2**n,), or (..., 2**n) for a batch of states;
    every row must be normalized.  That is checked when a caller builds a
    state; ``run_circuit`` returns its plan's result unchecked, because a
    unitary run on |0...0> is normalized by construction.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if self.num_qubits < 1:
            raise CircuitError("state needs at least one qubit")
        if amps.shape[-1:] != (2 ** self.num_qubits,):
            raise CircuitError(
                f"state of {self.num_qubits} qubits needs {2 ** self.num_qubits} amplitudes"
            )
        norms = (np.abs(amps) ** 2).sum(axis=-1)
        if np.abs(norms - 1.0).max() > 1e-10:
            norm = float(norms[np.abs(norms - 1.0) > 1e-10].flat[0])   # the first bad row's
            raise CircuitError(f"state not normalized: sum |a_i|^2 = {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _of_plan_run(cls, num_qubits: int, amplitudes: np.ndarray) -> StateVector:
        """The state a plan run computed, without the checks: unitary steps keep it normalized."""
        state = object.__new__(cls)
        amplitudes.setflags(write=False)
        object.__setattr__(state, "num_qubits", num_qubits)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state


def zero_state(num_qubits: int) -> StateVector:
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


# --------------------------------------------------------------------------
# Compiled plans
# --------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Largest (steps, rows, 4 * 2**n) float64 coefficient tensor one plan run builds.
COEFF_BYTES = 2 << 20

# The prefix sweep's work rows: one array for every plan, grown to the largest sweep so
# far.  Freed after each sweep, it went back to the system and faulted in again each time.
_sweep_workspace = np.empty(0, dtype=complex)


class CircuitPlan:
    """One circuit compiled into flat arrays for binding and execution.

    Binding: the angle vector starts from the literal angles; slot angles
    ``coeff * s`` and pair angles ``2 (pi - s_i) (pi - s_j)`` are gathered
    from the feature values followed by the weight values.

    Execution: amplitudes sit in storage columns of a (batch, 2**n) array
    and ``loc[i]`` is the column holding basis state ``i``.  A CNOT only
    permutes ``loc``.  Every other gate updates all columns at once:
    ``st = a * st + b * st[:, flip]`` for H / RX / RY, ``st = a * st`` for
    RZ / PHASE / CRZ, where ``flip`` maps a column to the one holding its
    partner state (target bit flipped) and ``a``, ``b`` hold one
    coefficient per column.  A gate's coefficients are linear in
    ``(cos t, sin t, 1)``, ``t`` being half its angle (the whole angle for
    PHASE), so one stacked product of those triples with the fixed
    ``recipe`` builds every gate's coefficients for a batch of angle rows.
    Each real component of a coefficient is a single term of that product,
    so it equals the gate's matrix entry bit for bit.
    """

    def __init__(self, circuit: ParameterizedCircuit):
        n, ops = circuit.num_qubits, circuit.ops
        offset = {FEATURE: 0, WEIGHT: circuit.num_feature_slots}
        self.num_feature_slots = circuit.num_feature_slots
        self.num_weight_slots = circuit.num_weight_slots

        self.literals = np.full(len(ops), np.nan)
        slots, pairs, partials = [], [], []   # partials: (gate, slot, coeff, partner slot)
        for gi, g in enumerate(ops):
            src = g.angle
            if isinstance(src, LiteralAngle):
                self.literals[gi] = src.value
            elif isinstance(src, SlotAngle):
                slot = offset[src.kind] + src.index
                slots.append((gi, slot, src.coeff))
                partials.append((gi, slot, src.coeff, -1))
            elif isinstance(src, PairInteractionAngle):
                i, j = offset[src.kind] + src.i, offset[src.kind] + src.j
                pairs.append((gi, i, j))
                partials += [(gi, i, 0.0, j), (gi, j, 0.0, i)]
        self.slot_gate, self.slot_index, self.slot_coeff = _columns(slots, np.intp, np.intp, float)
        self.pair_gate, self.pair_i, self.pair_j = _columns(pairs, np.intp, np.intp, np.intp)
        part_gate, self.part_slot, self.part_coeff, partner = _columns(
            partials, np.intp, np.intp, float, np.intp)
        # Gates whose angle depends on a slot, and the row of each partial among them.
        self.shift_gates, self.part_row = np.unique(part_gate, return_inverse=True)
        self.part_pair = np.flatnonzero(partner >= 0)
        self.part_partner = partner[self.part_pair]
        # Whether some slot feeds more than one gate (a ZZ pair angle's slots do).  A
        # first plain np.unique call raises the peak RSS of a process by over 1 MB (numpy 2.4).
        self.shared_slots = len(set(self.part_slot.tolist())) < self.part_slot.size
        self.crz_slots = any(g.kind == "CRZ" for g in ops if g.angle is not None
                             and not isinstance(g.angle, LiteralAngle))

        dim = 1 << n
        basis = np.arange(dim)
        steps = [g for g in ops if g.kind != "CNOT"]
        self.par_gates = np.array([gi for gi, g in enumerate(ops) if g.angle is not None],
                                  dtype=np.intp)
        self.par_steps = np.array([k for k, g in enumerate(steps) if g.angle is not None],
                                  dtype=np.intp)
        self.shift_pos = np.searchsorted(self.par_gates, self.shift_gates)   # among par_gates
        self.shift_steps = self.par_steps[self.shift_pos]
        at = dict(zip(self.shift_steps.tolist(), range(self.shift_steps.size)))
        self.spawn_at = tuple(map(at.get, range(len(steps))))   # each step's shift gate, or None
        self.trig_scale = np.array([1.0 if ops[gi].kind == "PHASE" else 0.5
                                    for gi in self.par_gates])
        # recipe[k, 0 | 1, t, column]: the a | b coefficient of step k per unit of
        # cos t (t = 0), sin t (t = 1) and 1 (t = 2).
        recipe = np.zeros((len(steps), 2, 3, dim), dtype=complex)
        loc = basis
        self.flips = []
        for g in ops:
            masks = [1 << (n - 1 - q) for q in g.targets]
            if g.kind == "CNOT":
                loc = loc[np.where(basis & masks[0], basis ^ masks[1], basis)]
                continue
            state = np.argsort(loc)               # basis state held by each column
            low = (state & masks[-1]) == 0         # its target bit is clear
            a, b = recipe[len(self.flips)]
            self.flips.append(loc[state ^ masks[-1]] if g.kind in ("H", "RX", "RY") else None)
            # Coefficients where the target bit is clear | set, c = cos t, s = sin t.
            if g.kind == "H":        # a = 1/sqrt2 | -1/sqrt2, b = 1/sqrt2
                a[2], b[2] = np.where(low, _INV_SQRT2, -_INV_SQRT2), _INV_SQRT2
            elif g.kind == "RX":     # a = c, b = -i s
                a[0], b[1] = 1.0, -1j
            elif g.kind == "RY":     # a = c, b = -s | s
                a[0], b[1] = 1.0, np.where(low, -1.0, 1.0)
            elif g.kind == "RZ":     # a = c - i s | c + i s
                a[0], a[1] = 1.0, np.where(low, -1j, 1j)
            elif g.kind == "PHASE":  # a = 1 | c + i s
                a[0], a[1], a[2] = ~low, np.where(low, 0.0, 1j), low
            else:                    # CRZ: a = 1 where the control is clear, else as RZ
                on = (state & masks[0]) != 0
                a[0], a[1], a[2] = on, np.where(on, np.where(low, -1j, 1j), 0.0), ~on
        self.recipe = recipe.view(float)   # (steps, 2, 3, 2 * dim)
        self.loc = loc
        self.chunk_rows = max(1, COEFF_BYTES // max(1, self.recipe[:, :, 0].nbytes))
        for table in [*vars(self).values(), *self.flips]:   # shared by all equal circuits
            if isinstance(table, np.ndarray):
                table.setflags(write=False)

    def bind_sets(self, features, weights) -> tuple[np.ndarray, list[tuple[int, ...]]]:
        """Slot values of several binding sets, every row of every set in one array.

        ``features`` and ``weights`` hold one array per set, whose lengths
        are checked.  A set's two arrays may carry leading batch axes and
        broadcast against each other, giving one row of feature values
        followed by weight values per binding.  Returns the (rows, slots)
        array, each set's rows flattened in turn, and each set's leading
        shape.
        """
        nf, nw = self.num_feature_slots, self.num_weight_slots
        sets, leads, rows = [], [], 0
        for f, w in zip(features, weights):
            f = np.asarray(f, dtype=float)
            w = np.asarray(w, dtype=float)
            if f.shape[-1:] != (nf,):
                raise BindingError(f"expected {nf} features, got shape {f.shape}")
            if w.shape[-1:] != (nw,):
                raise BindingError(f"expected {nw} weights, got shape {w.shape}")
            # Unbatched weights against batched features is every node of a batched
            # graph; it needs no broadcast_shapes, whose pure-Python body costs more
            # than the copy.
            lead = f.shape[:-1]
            if w.ndim > 1 and w.shape[:-1] != lead:
                lead = np.broadcast_shapes(lead, w.shape[:-1])
            stop = rows + math.prod(lead)
            sets.append((f, w, rows, stop))
            leads.append(lead)
            rows = stop
        values = np.empty((rows, nf + nw))
        for (f, w, start, stop), lead in zip(sets, leads):
            block = values[start:stop].reshape(lead + (nf + nw,))
            block[..., :nf] = f
            block[..., nf:] = w
        return values, leads

    def slot_values(self, features, weights) -> np.ndarray:
        """Feature values followed by weight values: :meth:`bind_sets` of one set.

        Either may carry leading batch axes; the two broadcast against each
        other, giving one row of slot values per binding.
        """
        values, (lead,) = self.bind_sets((features,), (weights,))
        return values.reshape(lead + values.shape[-1:])

    # Both maps below work on transposed arrays (slots or gates first), so that
    # every gather and scatter indexes the first axis, the fastest case for numpy.

    def angles(self, values: np.ndarray) -> np.ndarray:
        """Per-gate angles (NaN for fixed gates) from :meth:`slot_values`, per row."""
        vt = values.T
        angles = np.empty(self.literals.shape + vt.shape[1:])
        angles.T[...] = self.literals
        angles[self.slot_gate] = (self.slot_coeff * vt[self.slot_index].T).T
        if self.pair_gate.size:
            angles[self.pair_gate] = 2.0 * (math.pi - vt[self.pair_i]) * (math.pi - vt[self.pair_j])
        return angles.T

    def angle_partials(self, values: np.ndarray) -> np.ndarray:
        """d angle / d slot for every (gate, slot) dependence, in gate order, per row.

        Entry ``k`` belongs to gate ``shift_gates[part_row[k]]`` and slot
        ``part_slot[k]`` of :meth:`slot_values`.
        """
        vt = values.T
        d = np.empty(self.part_coeff.shape + vt.shape[1:])
        d.T[...] = self.part_coeff
        if self.part_pair.size:
            d[self.part_pair] = -2.0 * (math.pi - vt[self.part_partner])
        return d.T

    def run(self, angle_rows: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
        """(B, 2**n) amplitudes for a (B, num_gates) array of angles.

        The circuit acts on |0...0>, or on ``start`` (a (B, 2**n) array).
        """
        phi = angle_rows.take(self.par_gates, axis=1).T * self.trig_scale[:, None]
        trig = np.ones((len(self.flips), 1, angle_rows.shape[0], 3))
        trig[self.par_steps, 0, :, 0] = np.cos(phi)
        trig[self.par_steps, 0, :, 1] = np.sin(phi)
        return self._steps(trig, start)

    def _steps(self, trig: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
        """(B, 2**n) amplitudes from (steps, 1, B, 3) ``(cos t, sin t, 1)`` triples.

        Rows run in chunks whose gate coefficients fit in ``COEFF_BYTES``.
        """
        batch, dim, chunk = trig.shape[2], self.loc.size, self.chunk_rows
        if batch > chunk:
            return np.concatenate([
                self._steps(trig[:, :, i:i + chunk], None if start is None else start[i:i + chunk])
                for i in range(0, batch, chunk)])
        # a[k] and b[k] are contiguous (batch, dim) arrays, which the updates run fastest on.
        a, b = (trig @ self.recipe).view(complex).swapaxes(0, 1)
        if start is None:
            st = np.zeros((batch, dim), dtype=complex)
            st[:, 0] = 1.0
        else:
            st = start
        for k, flip in enumerate(self.flips):
            if flip is None:
                st = a[k] * st
            else:
                st = a[k] * st + b[k] * st.take(flip, axis=1)
        return st.take(self.loc, axis=1)

    def run_shifts(self, rows: ShiftRows) -> np.ndarray:
        """:meth:`run` of ``np.asarray(rows)``, bit for bit, by prefix sweeps over ``rows.base``.

        ``rows`` stands for two rows per binding and gate of ``shift_gates``:
        the binding's unshifted angles, its row of ``rows.base``, with that
        gate's angle shifted up by pi/2, then down.  Only B P + 2 B G of
        their angles are distinct (P parametric gates, G shift gates): the
        B base rows and the shifted angles ``base[:, shift_gates] +- pi/2``,
        the same sums the full rows hold.  cos and sin are taken of those
        alone, and the full rows are never built.

        The rows also share their unshifted prefix (:meth:`_prefix_sweep`).
        The two rows of gate g equal their binding's unshifted row at every
        step before g.  So one carrier row per binding runs the unshifted
        circuit; at g's step, g's pair leaves the carrier's state before
        that step through the shifted coefficients, and from then on every
        live row advances with its binding's unshifted coefficients.  Every
        shifted row goes through the same elementwise operations on the
        same coefficient values as in :meth:`run`, but the steps before its
        gate are shared, and coefficients are built for B rows plus two per
        shifted gate, not for 2 B G rows.  Bindings run in chunks whose
        coefficients, summed over all steps, fit in ``COEFF_BYTES``; that
        sum also exceeds the bytes of state rows the sweep holds at once.
        """
        if not isinstance(rows, ShiftRows) or rows.plan is not self:
            raise BindingError("parameter-shift rows must be the ShiftRows of this plan's "
                               "shift gates")
        base, g = rows.base, self.shift_gates.size
        # The rows in the order given, (binding, gate, up | down), in an array of their own.
        amps = np.empty((len(base), 2 * g, self.loc.size), dtype=complex)
        chunk = max(1, COEFF_BYTES // ((len(self.flips) + 2 * g) * self.recipe[0, :, 0].nbytes))
        for i in range(0, len(base), chunk):
            self._prefix_sweep(base[i:i + chunk], amps[i:i + chunk])
        return amps.reshape(-1, self.loc.size)

    def _prefix_sweep(self, base: np.ndarray, out: np.ndarray) -> None:
        """The sweep of :meth:`run_shifts` from (B, num_gates) unshifted angle rows into
        their (B, 2 G, 2**n) amplitudes ``out``."""
        gates = self.shift_gates
        batch, g, dim = base.shape[0], gates.size, self.loc.size
        phi = base.take(self.par_gates, axis=1).T * self.trig_scale[:, None]
        shifted = base.take(gates, axis=1).T[:, None] + _SHIFTS[:, None]   # (G, up | down, B)
        shifted = (shifted * self.trig_scale[self.shift_pos][:, None, None]).reshape(g, 2 * batch)
        # Per step, the (cos, sin, 1) triples of the B unshifted rows, then of
        # the B up and the B down rows shifted at that step (if any).
        trig = np.ones((len(self.flips), 3 * batch, 3))
        trig[self.par_steps, :batch, 0] = np.cos(phi)
        trig[self.par_steps, :batch, 1] = np.sin(phi)
        trig[self.shift_steps, batch:, 0] = np.cos(shifted)
        trig[self.shift_steps, batch:, 1] = np.sin(shifted)

        # Row 0 is the carrier; gate j's pair is rows 2j + 1 and 2j + 2.  The
        # live rows st[lo:hi] stay contiguous, and the carrier drops out once
        # the last pair has left it.  moved_rows takes each step's partner
        # amplitudes, and a spawned pair's b terms in the two rows after them.
        # Only the carrier is read before it is written, so only it starts at
        # |0...0>.
        global _sweep_workspace
        size = 2 * (2 * g + 1) * batch * dim
        if _sweep_workspace.size < size:
            _sweep_workspace = np.empty(size, dtype=complex)
        st, moved_rows = _sweep_workspace[:size].reshape(2, 2 * g + 1, batch, dim)
        st[0] = 0.0
        st[0, :, 0] = 1.0
        lo, hi = 0, 1
        for k, flip in enumerate(self.flips):
            j = self.spawn_at[k]
            used = batch if j is None else 3 * batch
            # (a | b, unshifted | up | down, B, dim), the shifted rows' only at a spawn;
            # indexing, not unpacking, takes the parts (an unpack iterates the array)
            coeffs = (trig[k, :used] @ self.recipe[k]).view(complex).reshape(2, -1, batch, dim)
            live = st[lo:hi]
            # (mode "clip" lets take write straight into out; every index is in range)
            moved = None if flip is None else live.take(flip, axis=2, out=moved_rows[lo:hi],
                                                         mode="clip")
            if j is not None:
                sa, sb = coeffs[0, 1:], coeffs[1, 1:]
                pair = st[hi:hi + 2]
                np.multiply(sa, st[0], out=pair)
                if moved is not None:
                    pair += np.multiply(sb, moved[0], out=moved_rows[hi:hi + 2])
                hi += 2
                if j == g - 1:
                    lo, live = 1, live[1:]
                    moved = None if moved is None else moved[1:]
            a, b = coeffs[0, 0], coeffs[1, 0]
            np.multiply(a, live, out=live)
            if moved is not None:
                np.multiply(b, moved, out=moved)
                live += moved
        # Columns back in basis order, then rows in binding order: each step copies
        # between arrays laid out alike or writes a strided view, and neither buffers.
        st[1:].take(self.loc, axis=2, out=moved_rows[1:], mode="clip")
        out[...] = moved_rows[1:].swapaxes(0, 1)


def _columns(records, *dtypes):
    """Columns of a list of equal-length tuples, as arrays of the given dtypes."""
    return [np.array([r[c] for r in records], dtype=t) for c, t in enumerate(dtypes)]


_SHIFTS = np.array([math.pi / 2.0, -math.pi / 2.0])   # the up and the down row of a gate


@dataclass(frozen=True, eq=False, slots=True)
class ShiftRows:
    """The parameter-shift rows of a batch, held as its B unshifted angle rows.

    They are 2 B G rows, G the plan's shift gates: per row of ``base`` and
    per gate of ``plan.shift_gates``, that row with the gate's angle shifted
    by +pi/2, then by -pi/2.  ``len`` counts them and ``np.asarray`` builds
    them; :meth:`CircuitPlan.run_shifts` runs them from ``base`` without
    building them.  ``base`` is (B, num_gates), as :meth:`CircuitPlan.angles`
    gives it.
    """

    plan: CircuitPlan
    base: np.ndarray

    def __post_init__(self):
        base, width = np.asarray(self.base, dtype=float), self.plan.literals.size
        if not self.plan.shift_gates.size or base.ndim != 2 or base.shape[1] != width:
            raise BindingError(f"parameter-shift rows need shift gates and (bindings, {width}) "
                               f"base rows, got shape {base.shape}")
        object.__setattr__(self, "base", base)

    def __len__(self) -> int:
        return 2 * self.plan.shift_gates.size * len(self.base)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        (b, width), gates = self.base.shape, self.plan.shift_gates
        rows = np.repeat(self.base, 2 * gates.size, axis=0)
        rows.reshape(b, gates.size, 2, width)[:, np.arange(gates.size), :, gates] += _SHIFTS
        return rows if dtype is None else rows.astype(dtype, copy=False)


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------

def apply_gate(state: StateVector, gate: Gate, bound_angle: float | None = None) -> StateVector:
    """Apply a single gate; ``bound_angle`` is required iff the gate is parametric."""
    parametric = gate.kind in PARAMETRIC_KINDS
    if parametric and bound_angle is None:
        raise BindingError(f"{gate.kind} needs a bound angle")
    if not parametric and bound_angle is not None:
        raise BindingError(f"{gate.kind} takes no angle")
    # The angle binds to one weight slot, so each gate kind and target compiles one plan.
    angle = SlotAngle(WEIGHT, 0) if parametric else None
    one_gate = ParameterizedCircuit(state.num_qubits, (Gate(gate.kind, gate.targets, angle),),
                                    0, int(parametric))
    start = state.amplitudes.reshape(-1, state.amplitudes.shape[-1])
    weights = [float(bound_angle)] if parametric else ()
    rows = np.broadcast_to(bind_angles(one_gate, (), weights), (start.shape[0], 1))
    amps = one_gate.plan.run(rows, start)
    return StateVector(state.num_qubits, amps.reshape(state.amplitudes.shape))


def run_circuit(circuit: ParameterizedCircuit, features=(), weights=()) -> StateVector:
    """Exact statevector after the circuit acts on |0...0> with the given bindings.

    Batched bindings give a batched state, one row per binding.
    """
    plan = circuit.plan
    values, (lead,) = plan.bind_sets((features,), (weights,))
    amps = plan.run(plan.angles(values))
    return StateVector._of_plan_run(circuit.num_qubits, amps.reshape(lead + amps.shape[-1:]))


def run_bound_batch(circuit: ParameterizedCircuit, angle_rows,
                    shifted: bool = False) -> np.ndarray:
    """Run one circuit under many per-gate angle bindings at once.

    ``angle_rows`` has shape (B, num_gates); columns for fixed gates are
    ignored.  Returns the (B, 2**n) amplitudes.  This is the kernel behind
    batched parameter-shift evaluation.

    With ``shifted``, ``angle_rows`` is the :class:`ShiftRows` of the
    circuit's plan, which :meth:`CircuitPlan.run_shifts` runs from their
    unshifted rows, with the result of running ``np.asarray(angle_rows)``.
    """
    if shifted:
        return circuit.plan.run_shifts(angle_rows)
    angle_rows = np.asarray(angle_rows, dtype=float)
    if angle_rows.ndim != 2 or angle_rows.shape[1] != len(circuit.ops):
        raise BindingError("angle_rows must be (batch, num_gates)")
    return circuit.plan.run(angle_rows)


# --------------------------------------------------------------------------
# Circuit builders
# --------------------------------------------------------------------------

def _check_rotation(rotation: str):
    if rotation not in ("RX", "RY", "RZ"):
        raise CircuitError(f"rotation must be RX, RY or RZ, got {rotation!r}")


def angle_embedding(num_qubits: int, rotation: str = "RX") -> ParameterizedCircuit:
    """One rotation per qubit whose angle is the raw feature value."""
    _check_rotation(rotation)
    ops = tuple(Gate(rotation, (q,), SlotAngle(FEATURE, q)) for q in range(num_qubits))
    return ParameterizedCircuit(num_qubits, ops, num_feature_slots=num_qubits)


def zz_feature_map(num_qubits: int, reps: int = 1) -> ParameterizedCircuit:
    """Hadamard layer, per-qubit phases P(2*v_j), then CNOT-phase-CNOT pair terms.

    The pairwise phase on qubit j is ``2 * (pi - v_i) * (pi - v_j)`` and the
    pairs are visited in the order (0,1), (0,2), ..., (0,n-1), (1,2), ...
    """
    if reps < 1:
        raise CircuitError("reps must be >= 1")
    ops: list[Gate] = []
    for _ in range(reps):
        for q in range(num_qubits):
            ops.append(Gate("H", (q,)))
        for q in range(num_qubits):
            ops.append(Gate("PHASE", (q,), SlotAngle(FEATURE, q, coeff=2.0)))
        for i in range(num_qubits):
            for j in range(i + 1, num_qubits):
                ops.append(Gate("CNOT", (i, j)))
                ops.append(Gate("PHASE", (j,), PairInteractionAngle(FEATURE, i, j)))
                ops.append(Gate("CNOT", (i, j)))
    return ParameterizedCircuit(num_qubits, tuple(ops), num_feature_slots=num_qubits)


def _cnot_ring(num_qubits: int) -> list[Gate]:
    ring = [Gate("CNOT", (q, q + 1)) for q in range(num_qubits - 1)]
    ring.append(Gate("CNOT", (num_qubits - 1, 0)))
    return ring


def basic_entangler_layers(num_qubits: int, num_layers: int, rotation: str = "RX") -> ParameterizedCircuit:
    """Per layer: one rotation per qubit, then a closed CNOT ring.

    Weight slot of the rotation on qubit q in layer l is ``l * n + q``.
    A single qubit gets rotations only (no ring).
    """
    _check_rotation(rotation)
    if num_layers < 1:
        raise CircuitError("num_layers must be >= 1")
    ops: list[Gate] = []
    for layer in range(num_layers):
        for q in range(num_qubits):
            ops.append(Gate(rotation, (q,), SlotAngle(WEIGHT, layer * num_qubits + q)))
        if num_qubits >= 2:
            ops.extend(_cnot_ring(num_qubits))
    return ParameterizedCircuit(num_qubits, tuple(ops),
                                num_weight_slots=num_layers * num_qubits)


def n_local(num_qubits: int, num_layers: int) -> ParameterizedCircuit:
    """``basic_entangler_layers(num_qubits, num_layers, "RY")`` plus a final RY layer."""
    base = basic_entangler_layers(num_qubits, num_layers, "RY")
    final = tuple(Gate("RY", (q,), SlotAngle(WEIGHT, base.num_weight_slots + q))
                  for q in range(num_qubits))
    return ParameterizedCircuit(num_qubits, base.ops + final,
                                num_weight_slots=base.num_weight_slots + num_qubits)


# --------------------------------------------------------------------------
# Measurement primitives
# --------------------------------------------------------------------------

def sampler_probabilities(state: StateVector) -> np.ndarray:
    """Computational-basis probabilities |<k|psi>|^2 (per row of a batched state)."""
    return np.abs(state.amplitudes) ** 2


def pauli_z_expectation(state: StateVector, qubit: int):
    """<Z_q>: probability mass with bit q = 0 minus mass with bit q = 1.

    A float, or an array of one value per row of a batched state.
    """
    if not 0 <= qubit < state.num_qubits:
        raise CircuitError(f"qubit {qubit} out of range for {state.num_qubits}-qubit state")
    z = measure_all_z(state)[..., qubit]
    return float(z) if z.ndim == 0 else z


def measure_all_z(state: StateVector) -> np.ndarray:
    """Vector of <Z_q> for every qubit, qubit 0 first (per row of a batched state)."""
    amps = state.amplitudes
    z = all_z_from_amplitudes(amps.reshape(-1, amps.shape[-1]), state.num_qubits)
    return z.reshape(amps.shape[:-1] + z.shape[-1:])


@cache
def _marginal_table(num_qubits: int) -> np.ndarray:
    """(2**n, 2n) 0/1 table: column q marks basis states with bit q clear, n + q set."""
    bits = (np.arange(2 ** num_qubits)[:, None] >> np.arange(num_qubits - 1, -1, -1)) & 1
    table = np.concatenate((1 - bits, bits), axis=1).astype(float)
    table.setflags(write=False)   # shared by every caller
    return table


def all_z_from_amplitudes(amps: np.ndarray, num_qubits: int) -> np.ndarray:
    """Per-qubit <Z> for a (B, 2**n) amplitude batch; returns (B, n) floats.

    <Z_q> is the probability mass with bit q clear minus the mass with it
    set; both marginals of every qubit come from one matrix product.
    """
    probs = np.abs(amps)
    marginals = np.square(probs, out=probs) @ _marginal_table(num_qubits)
    return marginals[:, :num_qubits] - marginals[:, num_qubits:]
