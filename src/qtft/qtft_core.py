"""Quantum counterparts of the learnable temporal-fusion blocks.

Every dense transformation of the classical model is replaced by a
variational quantum circuit block: a data-encoding fragment (angle
embedding or ZZ feature map) followed by a trainable ansatz (basic
entangler layers or the N-local circuit), measured qubit-by-qubit with
Pauli-Z.  Widths are unified: a block acting on a d-dimensional vector
uses d qubits, because measurement returns exactly one real per qubit.

The gated residual block keeps the intermediate state quantum: its gate
stage is ``qglu`` on the eta2 state.  Both branch circuits are built
after the eta2 block's circuit, so the re-encoded ELU output passes
through the eta2 ansatz into each branch ansatz with no measurement.

``QTFTModel`` keeps the forward wiring of :class:`qtft.tft_core.TFTModel`
and overrides only its block methods.  Variable selection and the LSTM
recursion are tft_core's own bodies, handed the QGRN or the circuit gate
map in place of the dense one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from . import grad
from .grad import Node, as_node, quantum_forward
from .quantum_sim import (
    ParameterizedCircuit,
    angle_embedding,
    basic_entangler_layers,
    compose,
    n_local,
    zz_feature_map,
)
from .tft_core import (
    SETS,
    DenseParams,
    TFTModel,
    TFTParams,
    VariableSelectionParams,
    dense,
    head_average,
    init_dense,
    init_lstm,
    lstm_seq,
    shared_input,
    stack_sets,
    variable_selection,
)

if TYPE_CHECKING:
    from .forecasting import TrainConfig

ENCODINGS = ("angle", "zz")
ANSATZE = ("basic", "nlocal")


# --------------------------------------------------------------------------
# Circuit blocks
# --------------------------------------------------------------------------

@dataclass
class VQCBlockParams:
    """One circuit block: its encoding (or prefix) then its ansatz, and the ansatz's angles.

    With a set axis, ``weights`` is (k, num_weight_slots): k blocks of one circuit.
    """

    circuit: ParameterizedCircuit
    weights: Node


# Circuits are immutable, so each distinct encoding and ansatz is built once and
# shared by every block composed from it; each block still gets its own composed circuit.
@lru_cache(maxsize=32)
def build_encoding(num_qubits: int, kind: str) -> ParameterizedCircuit:
    if kind == "angle":
        return angle_embedding(num_qubits, "RX")
    if kind == "zz":
        return zz_feature_map(num_qubits, reps=1)
    raise ValueError(f"unknown encoding {kind!r}")


@lru_cache(maxsize=32)
def build_ansatz(num_qubits: int, num_layers: int, kind: str) -> ParameterizedCircuit:
    if kind == "basic":
        return basic_entangler_layers(num_qubits, num_layers, "RY")
    if kind == "nlocal":
        return n_local(num_qubits, num_layers)
    raise ValueError(f"unknown ansatz {kind!r}")


def init_vqc_block(rng: np.random.Generator, num_qubits: int, num_layers: int,
                   encoding: str = "angle", ansatz: str = "basic",
                   prefix: VQCBlockParams | None = None) -> VQCBlockParams:
    """The ansatz after ``prefix.circuit``, or after the encoding; only its own angles are drawn."""
    anz = build_ansatz(num_qubits, num_layers, ansatz)
    first = build_encoding(num_qubits, encoding) if prefix is None else prefix.circuit
    weights = grad.param(rng.uniform(-math.pi, math.pi, size=anz.num_weight_slots))
    return VQCBlockParams(compose(first, anz), weights)


def vqc_apply(x, p: VQCBlockParams | list[VQCBlockParams],
              prefix: VQCBlockParams | None = None) -> Node | list[Node]:
    """Encode x, run the ansatz, measure every qubit with Pauli-Z (per row of a batch).

    Blocks built after ``prefix`` run with the prefix's angles ahead of their own.
    A list of blocks of one gate list takes a list of inputs, one per block,
    runs them all in one simulator call and gives a list.  A block with a
    set axis runs its k blocks on (..., k, T, d) inputs, or on one
    (..., 1, T, d) input that all of them read.
    """
    if isinstance(p, VQCBlockParams):
        return vqc_apply([x], [p], prefix)[0]
    xs = [as_node(v) for v in x]
    weights = []
    for b in p:
        w = b.weights if prefix is None else grad.concat([prefix.weights, b.weights])
        if w.value.ndim == 2:   # k blocks: each one's weights meet its inputs' (k, T) rows
            w = grad.reshape(w, (w.value.shape[0], 1, w.value.shape[1]))
        weights.append(w)
    return quantum_forward([b.circuit for b in p], xs, weights)


# --------------------------------------------------------------------------
# Gated blocks
# --------------------------------------------------------------------------

@dataclass
class QGLUParams:
    branch_gate: VQCBlockParams
    branch_lin: VQCBlockParams


def init_qglu(rng, num_qubits: int, num_layers: int, encoding: str = "angle",
              ansatz: str = "basic", prefix: VQCBlockParams | None = None) -> QGLUParams:
    return QGLUParams(
        branch_gate=init_vqc_block(rng, num_qubits, num_layers, encoding, ansatz, prefix),
        branch_lin=init_vqc_block(rng, num_qubits, num_layers, encoding, ansatz, prefix),
    )


def qglu(x, p: QGLUParams, prefix: VQCBlockParams | None = None) -> Node:
    """sigmoid of the gate branch's expectations times the linear branch's.

    The input is encoded (or run through ``prefix``) once per branch
    execution, and both branches run in one simulator call.
    """
    gate, lin = vqc_apply([x, x], [p.branch_gate, p.branch_lin], prefix)
    return grad.mul(grad.sigmoid(gate), lin)


@dataclass
class QGRNParams:
    vqc_a: VQCBlockParams
    vqc_c: VQCBlockParams | None
    vqc_eta2: VQCBlockParams          # runs only as the prefix of the qglu branches
    qglu: QGLUParams                  # branches built after vqc_eta2


def init_qgrn(rng, num_qubits: int, num_layers: int, with_context: bool,
              encoding: str = "angle", ansatz: str = "basic") -> QGRNParams:
    block = lambda: init_vqc_block(rng, num_qubits, num_layers, encoding, ansatz)
    vqc_a = block()
    vqc_c = block() if with_context else None
    vqc_eta2 = block()
    return QGRNParams(vqc_a, vqc_c, vqc_eta2,
                      init_qglu(rng, num_qubits, num_layers, encoding, ansatz, vqc_eta2))


def qgrn(a, c, p: QGRNParams) -> Node:
    """Quantum gated residual network.

    a'' and c'' are circuit expectations of the two inputs, eta1 is
    ELU(a'' + c''), and the gated output of the re-encoded eta1 state is
    added back to ``a`` under layer normalization; without ``c`` its branch
    is skipped.  a'' and c'' run in one simulator call, and so do the gate
    branches.  A QGRN with a set axis runs its k QGRNs side by side.
    """
    a = as_node(a)
    blocks, inputs = [p.vqc_a], [a]
    if c is not None:
        if p.vqc_c is None:
            raise ValueError("QGRN got a context vector but was built without one")
        blocks.append(p.vqc_c)
        inputs.append(as_node(c))
    z = vqc_apply(inputs, blocks)
    eta1 = grad.elu(z[0] if c is None else grad.add(z[0], z[1]))
    return grad.layer_norm(grad.add(a, qglu(eta1, p.qglu, p.vqc_eta2)))


# --------------------------------------------------------------------------
# Selection, attention, recurrence
# --------------------------------------------------------------------------

def init_qvsn(rng, d_model: int, num_vars: int, with_context: bool,
              num_layers: int, encoding: str, ansatz: str) -> VariableSelectionParams:
    """As ``init_vsn``, with QGRNs; the context is mapped to width m classically."""
    p = VariableSelectionParams(
        var_grns=stack_sets([init_qgrn(rng, d_model, num_layers, False, encoding, ansatz)
                             for _ in range(num_vars)]),
        flatten_proj=init_dense(rng, num_vars, num_vars * d_model),
        context_proj=init_dense(rng, num_vars, d_model) if with_context else None,
        weight_grn=init_qgrn(rng, num_vars, num_layers, with_context, encoding, ansatz),
    )
    return p if num_vars > 1 else VariableSelectionParams(p.var_grns, None, None, None)


def q_variable_selection(embeddings, c_s, p: VariableSelectionParams):
    """Variable selection with every GRN replaced by its quantum analogue."""
    return variable_selection(embeddings, c_s, p, qgrn)


@dataclass
class QAttentionParams:
    """Query and key blocks on a head axis, weights (heads, num_weight_slots); one value block."""

    query_blocks: VQCBlockParams = field(metadata=SETS)
    key_blocks: VQCBlockParams = field(metadata=SETS)
    value_block: VQCBlockParams          # shared by all heads


def init_qattention(rng, num_qubits: int, num_heads: int, num_layers: int,
                    encoding: str, ansatz: str) -> QAttentionParams:
    block = lambda: init_vqc_block(rng, num_qubits, num_layers, encoding, ansatz)
    return QAttentionParams(
        query_blocks=stack_sets([block() for _ in range(num_heads)]),
        key_blocks=stack_sets([block() for _ in range(num_heads)]),
        value_block=block(),
    )


def q_interpretable_multi_head(s, p: QAttentionParams,
                               mask: np.ndarray | None = None) -> Node:
    """Head-averaged attention over circuit-projected queries, keys and values.

    ``s`` is the (..., T, d) matrix of input rows.  The value, query and
    key circuits run all T rows in one simulator call; queries and keys
    get per-head ansaetze while the value ansatz is shared.  There is no
    final combine matrix.  ``d_attn`` equals the qubit count.
    """
    s = as_node(s)
    v, q, k = vqc_apply([s, shared_input(s), shared_input(s)],
                        [p.value_block, p.query_blocks, p.key_blocks])
    return head_average(q, k, v, float(p.value_block.circuit.num_qubits), mask)


@dataclass
class QLSTMGateParams:
    """A QLSTM gate map; a QLSTM's four gates are one with a set axis of 4,
    projection W (4, hidden, input + hidden) and circuit weights (4, num_weight_slots)."""

    proj: DenseParams          # concat(x, h) -> qubit width
    vqc: VQCBlockParams


def init_qlstm(rng, input_dim: int, hidden: int, num_layers: int,
               encoding: str, ansatz: str) -> QLSTMGateParams:
    def gate():
        return QLSTMGateParams(
            proj=init_dense(rng, hidden, input_dim + hidden),
            vqc=init_vqc_block(rng, hidden, num_layers, encoding, ansatz),
        )

    return stack_sets([gate() for _ in range(4)])


def qlstm_gate(p: QLSTMGateParams, xh) -> Node:
    """The QLSTM's gate map: each gate's circuit block on its projection of ``xh``,
    all four in one simulator call."""
    return vqc_apply(dense(p.proj, xh), p.vqc)


def qlstm_seq(inputs, h0, c0, p: QLSTMGateParams):
    """The LSTM recursion with each affine gate map replaced by a circuit block."""
    return lstm_seq(inputs, h0, c0, p, qlstm_gate)


# --------------------------------------------------------------------------
# Full quantum model
# --------------------------------------------------------------------------

def init_qtft(cfg: TrainConfig, num_past_vars: int, num_future_vars: int,
              num_static_vars: int, rng: np.random.Generator) -> TFTParams:
    d, L, enc, anz = cfg.d_model, cfg.ansatz_layers, cfg.encoding, cfg.ansatz
    # The recurrence is drawn first, unlike init_tft; the draw order fixes every weight.
    if cfg.model_kind == "qtft-qlstm":
        enc_lstm = init_qlstm(rng, d, d, L, enc, anz)
        dec_lstm = init_qlstm(rng, d, d, L, enc, anz)
    else:
        enc_lstm = init_lstm(rng, d, d)
        dec_lstm = init_lstm(rng, d, d)
    return TFTParams(
        static_embed=stack_sets([init_dense(rng, d, 1) for _ in range(num_static_vars)]),
        past_embed=stack_sets([init_dense(rng, d, 1) for _ in range(num_past_vars)]),
        future_embed=stack_sets([init_dense(rng, d, 1) for _ in range(num_future_vars)]),
        static_vsn=init_qvsn(rng, d, num_static_vars, False, L, enc, anz),
        past_vsn=init_qvsn(rng, d, num_past_vars, True, L, enc, anz),
        future_vsn=init_qvsn(rng, d, num_future_vars, True, L, enc, anz),
        static_encoders=stack_sets([init_qgrn(rng, d, L, False, enc, anz) for _ in range(4)]),
        encoder_lstm=enc_lstm,
        decoder_lstm=dec_lstm,
        post_lstm_glu=init_qglu(rng, d, L, enc, anz),
        enrichment=init_qgrn(rng, d, L, True, enc, anz),
        attention=init_qattention(rng, d, cfg.heads, L, enc, anz),
        post_attn_glu=init_qglu(rng, d, L, enc, anz),
        positionwise=init_qgrn(rng, d, L, False, enc, anz),
        final_glu=init_qglu(rng, d, L, enc, anz),
        heads=init_dense(rng, 1, d),
    )


class QTFTModel(TFTModel):
    """The TFT wiring with every learnable block swapped for its circuit block.

    Each method calls this module's function of that name when it runs;
    ``dense`` goes through this module's own binding as well.
    """

    kinds = ("qtft", "qtft-qlstm")

    def init_params(self, *args) -> TFTParams:
        return init_qtft(*args)

    def dense(self, p, x) -> Node:
        return dense(p, x)

    def glu(self, x, p) -> Node:
        return qglu(x, p)

    def grn(self, a, c, p) -> Node:
        return qgrn(a, c, p)

    def select(self, embeddings, c_s, p) -> Node:
        return q_variable_selection(embeddings, c_s, p)[0]

    def recur(self, inputs, h0, c0, p):
        return (qlstm_seq if self.kind == "qtft-qlstm" else lstm_seq)(inputs, h0, c0, p)

    def attend(self, s: Node, p, mask: np.ndarray | None) -> Node:
        return q_interpretable_multi_head(s, p, mask)
