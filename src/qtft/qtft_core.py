"""Quantum counterparts of the learnable temporal-fusion blocks.

Every dense transformation of the classical model is replaced by a
variational quantum circuit block: a data-encoding fragment (angle
embedding or ZZ feature map) followed by a trainable ansatz (basic
entangler layers or the N-local circuit), measured qubit-by-qubit with
Pauli-Z.  Widths are unified: a block acting on a d-dimensional vector
uses d qubits, because measurement returns exactly one real per qubit.

The gated residual block keeps the intermediate state quantum: the
re-encoded ELU output passes through its ansatz and straight into the
two gated-linear-unit branch circuits with no measurement in between
(two executions share the same circuit prefix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grad
from .grad import Node, as_node, quantum_forward, softmax
from .quantum_sim import (
    ParameterizedCircuit,
    angle_embedding,
    basic_entangler_layers,
    compose,
    n_local,
    zz_feature_map,
)
from .tft_core import (
    DenseParams,
    LayerNormParams,
    LSTMParams,
    attention,
    causal_mask,
    dense,
    init_dense,
    init_lstm,
    layer_norm,
    lstm_seq,
    named_leaves,
)

ENCODINGS = ("angle", "zz")
ANSATZE = ("basic", "nlocal")


# --------------------------------------------------------------------------
# Circuit blocks
# --------------------------------------------------------------------------

@dataclass
class VQCBlockParams:
    """Encoding + ansatz + trainable angles for one circuit block."""

    encoding: ParameterizedCircuit
    ansatz: ParameterizedCircuit
    circuit: ParameterizedCircuit     # compose(encoding, ansatz), cached
    weights: Node
    num_qubits: int


def build_encoding(num_qubits: int, kind: str, rotation: str = "RX") -> ParameterizedCircuit:
    if kind == "angle":
        return angle_embedding(num_qubits, rotation)
    if kind == "zz":
        return zz_feature_map(num_qubits, reps=1)
    raise ValueError(f"unknown encoding {kind!r}")


def build_ansatz(num_qubits: int, num_layers: int, kind: str,
                 rotation: str = "RY") -> ParameterizedCircuit:
    if kind == "basic":
        return basic_entangler_layers(num_qubits, num_layers, rotation)
    if kind == "nlocal":
        return n_local(num_qubits, num_layers)
    raise ValueError(f"unknown ansatz {kind!r}")


def init_vqc_block(rng: np.random.Generator, num_qubits: int, num_layers: int,
                   encoding: str = "angle", ansatz: str = "basic",
                   enc_rotation: str = "RX", ansatz_rotation: str = "RY") -> VQCBlockParams:
    enc = build_encoding(num_qubits, encoding, enc_rotation)
    anz = build_ansatz(num_qubits, num_layers, ansatz, ansatz_rotation)
    weights = grad.param(rng.uniform(-math.pi, math.pi, size=anz.num_weight_slots))
    return VQCBlockParams(enc, anz, compose(enc, anz), weights, num_qubits)


def vqc_apply(x, p: VQCBlockParams) -> Node:
    """Encode x, run the ansatz, measure every qubit with Pauli-Z."""
    x = as_node(x)
    if x.value.shape != (p.num_qubits,):
        raise ValueError(f"block of {p.num_qubits} qubits got input shape {x.value.shape}")
    return quantum_forward(p.circuit, x, p.weights)


@dataclass
class PreparedState:
    """A quantum state described by the circuit prefix that prepares it."""

    circuit: ParameterizedCircuit
    features: Node
    weights: Node


# --------------------------------------------------------------------------
# Gated blocks
# --------------------------------------------------------------------------

@dataclass
class QGLUParams:
    branch_gate: VQCBlockParams
    branch_lin: VQCBlockParams


def init_qglu(rng, num_qubits: int, num_layers: int, encoding: str = "angle",
              ansatz: str = "basic") -> QGLUParams:
    return QGLUParams(
        branch_gate=init_vqc_block(rng, num_qubits, num_layers, encoding, ansatz),
        branch_lin=init_vqc_block(rng, num_qubits, num_layers, encoding, ansatz),
    )


def qglu(x, p: QGLUParams) -> Node:
    """sigmoid of the gate branch's expectations times the linear branch's.

    A classical input is encoded once per branch execution; a
    :class:`PreparedState` skips encoding and the branch ansaetze are
    appended to the shared prefix instead.
    """
    if isinstance(x, PreparedState):
        gate_out = quantum_forward(compose(x.circuit, p.branch_gate.ansatz), x.features,
                                   grad.concat([x.weights, p.branch_gate.weights]))
        lin_out = quantum_forward(compose(x.circuit, p.branch_lin.ansatz), x.features,
                                  grad.concat([x.weights, p.branch_lin.weights]))
    else:
        gate_out = vqc_apply(x, p.branch_gate)
        lin_out = vqc_apply(x, p.branch_lin)
    return grad.mul(grad.sigmoid(gate_out), lin_out)


@dataclass
class QGRNParams:
    vqc_a: VQCBlockParams
    vqc_c: VQCBlockParams | None
    vqc_eta2: VQCBlockParams
    qglu: QGLUParams
    norm: LayerNormParams
    gate_circuit: ParameterizedCircuit   # eta2 prefix + gate ansatz, cached
    lin_circuit: ParameterizedCircuit    # eta2 prefix + lin ansatz, cached


def init_qgrn(rng, num_qubits: int, num_layers: int, with_context: bool,
              encoding: str = "angle", ansatz: str = "basic") -> QGRNParams:
    block = lambda: init_vqc_block(rng, num_qubits, num_layers, encoding, ansatz)
    vqc_a = block()
    vqc_c = block() if with_context else None
    vqc_eta2 = block()
    glu_p = QGLUParams(branch_gate=block(), branch_lin=block())
    return QGRNParams(
        vqc_a=vqc_a,
        vqc_c=vqc_c,
        vqc_eta2=vqc_eta2,
        qglu=glu_p,
        norm=LayerNormParams(),
        gate_circuit=compose(vqc_eta2.circuit, glu_p.branch_gate.ansatz),
        lin_circuit=compose(vqc_eta2.circuit, glu_p.branch_lin.ansatz),
    )


def qgrn(a, c, p: QGRNParams) -> Node:
    """Quantum gated residual network.

    a'' and c'' are circuit expectations of the two inputs, eta1 is
    ELU(a'' + c''), and the gated output of the re-encoded eta1 state is
    added back to ``a`` under layer normalization.  When ``c`` is absent
    its branch circuit is skipped entirely.
    """
    a = as_node(a)
    a2 = vqc_apply(a, p.vqc_a)
    if c is not None:
        if p.vqc_c is None:
            raise ValueError("QGRN got a context vector but was built without one")
        eta1 = grad.elu(grad.add(a2, vqc_apply(c, p.vqc_c)))
    else:
        eta1 = grad.elu(a2)
    gate_out = quantum_forward(p.gate_circuit, eta1,
                               grad.concat([p.vqc_eta2.weights, p.qglu.branch_gate.weights]))
    lin_out = quantum_forward(p.lin_circuit, eta1,
                              grad.concat([p.vqc_eta2.weights, p.qglu.branch_lin.weights]))
    gated = grad.mul(grad.sigmoid(gate_out), lin_out)
    return layer_norm(grad.add(a, gated), p.norm)


# --------------------------------------------------------------------------
# Selection, encoders, attention, recurrence
# --------------------------------------------------------------------------

@dataclass
class QVariableSelectionParams:
    var_qgrns: list[QGRNParams]
    flatten_proj: DenseParams            # (m * d -> m), classical glue
    context_proj: DenseParams | None     # (d -> m), classical glue for the context
    weight_qgrn: QGRNParams              # width m


def init_qvsn(rng, d_model: int, num_vars: int, with_context: bool,
              num_layers: int, encoding: str, ansatz: str) -> QVariableSelectionParams:
    return QVariableSelectionParams(
        var_qgrns=[init_qgrn(rng, d_model, num_layers, False, encoding, ansatz)
                   for _ in range(num_vars)],
        flatten_proj=init_dense(rng, num_vars, num_vars * d_model),
        context_proj=init_dense(rng, num_vars, d_model) if with_context else None,
        weight_qgrn=init_qgrn(rng, num_vars, num_layers, with_context, encoding, ansatz),
    )


def q_variable_selection(embeddings, c_s, p: QVariableSelectionParams):
    """Variable selection with every GRN replaced by its quantum analogue.

    The flattened concatenation and the context are first mapped to width
    m by classical dense layers so the weight block can run on m qubits.
    """
    embeddings = [as_node(e) for e in embeddings]
    if len(embeddings) != len(p.var_qgrns):
        raise ValueError(f"expected {len(p.var_qgrns)} embeddings, got {len(embeddings)}")
    flat = grad.concat(embeddings) if len(embeddings) > 1 else embeddings[0]
    ctx = None
    if c_s is not None:
        if p.context_proj is None:
            raise ValueError("selection block got a context vector but was built without one")
        ctx = dense(p.context_proj, c_s)
    weights = softmax(qgrn(dense(p.flatten_proj, flat), ctx, p.weight_qgrn))
    processed = [qgrn(e, None, g) for e, g in zip(embeddings, p.var_qgrns)]
    return grad.weighted_sum(weights, processed), weights


def q_static_covariate_encoder(xi, encoders: list[QGRNParams]):
    """Four independent quantum GRNs on the selected static vector."""
    xi = as_node(xi)
    if len(encoders) != 4:
        raise ValueError("static covariate encoder needs exactly four QGRNs")
    return tuple(qgrn(xi, None, enc) for enc in encoders)


@dataclass
class QAttentionParams:
    query_blocks: list[VQCBlockParams]   # one per head
    key_blocks: list[VQCBlockParams]
    value_block: VQCBlockParams          # shared by all heads
    num_heads: int
    num_qubits: int


def init_qattention(rng, num_qubits: int, num_heads: int, num_layers: int,
                    encoding: str, ansatz: str) -> QAttentionParams:
    block = lambda: init_vqc_block(rng, num_qubits, num_layers, encoding, ansatz)
    return QAttentionParams(
        query_blocks=[block() for _ in range(num_heads)],
        key_blocks=[block() for _ in range(num_heads)],
        value_block=block(),
        num_heads=num_heads,
        num_qubits=num_qubits,
    )


def q_interpretable_multi_head(s, p: QAttentionParams,
                               mask: np.ndarray | None = None) -> Node:
    """Head-averaged attention over circuit-projected queries, keys and values.

    Each input row is encoded once per circuit; queries and keys get
    per-head ansaetze while the value ansatz is shared.  There is no
    final combine matrix.  ``d_attn`` equals the qubit count.
    """
    if isinstance(s, Node) and s.value.ndim == 2:
        rows = [grad.row(s, i) for i in range(s.value.shape[0])]
    elif isinstance(s, (list, tuple)):
        rows = [as_node(r) for r in s]
    else:
        s = as_node(s)
        rows = [grad.row(s, i) for i in range(s.value.shape[0])]
    v = grad.stack_rows([vqc_apply(r, p.value_block) for r in rows])
    out = None
    for qb, kb in zip(p.query_blocks, p.key_blocks):
        q = grad.stack_rows([vqc_apply(r, qb) for r in rows])
        k = grad.stack_rows([vqc_apply(r, kb) for r in rows])
        head = attention(q, k, v, float(p.num_qubits), mask)
        out = head if out is None else grad.add(out, head)
    return grad.scale(out, 1.0 / p.num_heads)


@dataclass
class QLSTMGateParams:
    proj: DenseParams          # concat(x, h) -> qubit width
    vqc: VQCBlockParams


@dataclass
class QLSTMParams:
    input_gate: QLSTMGateParams
    forget_gate: QLSTMGateParams
    cell_gate: QLSTMGateParams
    output_gate: QLSTMGateParams
    hidden: int


def init_qlstm(rng, input_dim: int, hidden: int, num_layers: int,
               encoding: str, ansatz: str) -> QLSTMParams:
    def gate():
        return QLSTMGateParams(
            proj=init_dense(rng, hidden, input_dim + hidden),
            vqc=init_vqc_block(rng, hidden, num_layers, encoding, ansatz),
        )

    return QLSTMParams(gate(), gate(), gate(), gate(), hidden)


def qlstm_step(x, h, c, p: QLSTMParams):
    """LSTM gate equations with each affine map replaced by a circuit block."""
    xh = grad.concat([as_node(x), h])

    def gate_expect(gp: QLSTMGateParams) -> Node:
        return vqc_apply(dense(gp.proj, xh), gp.vqc)

    i = grad.sigmoid(gate_expect(p.input_gate))
    f = grad.sigmoid(gate_expect(p.forget_gate))
    g = grad.tanh(gate_expect(p.cell_gate))
    o = grad.sigmoid(gate_expect(p.output_gate))
    c_new = grad.add(grad.mul(f, c), grad.mul(i, g))
    h_new = grad.mul(o, grad.tanh(c_new))
    return h_new, c_new


def qlstm_seq(inputs, h0, c0, p: QLSTMParams):
    if not inputs:
        raise ValueError("qlstm_seq needs a nonempty input sequence")
    h, c = as_node(h0), as_node(c0)
    outputs = []
    for x in inputs:
        h, c = qlstm_step(x, h, c, p)
        outputs.append(h)
    return outputs, (h, c)


# --------------------------------------------------------------------------
# Full quantum model
# --------------------------------------------------------------------------

@dataclass
class QTFTConfig:
    d_model: int = 2
    num_past_vars: int = 5
    num_future_vars: int = 1
    num_static_vars: int = 1
    num_heads: int = 1
    quantiles: tuple[float, ...] = (0.5,)
    ansatz_layers: int = 2
    encoding: str = "angle"
    ansatz: str = "basic"
    use_qlstm: bool = False
    use_causal_mask: bool = False


@dataclass
class QTFTParams:
    static_embed: list[DenseParams]
    past_embed: list[DenseParams]
    future_embed: list[DenseParams]
    static_vsn: QVariableSelectionParams
    past_vsn: QVariableSelectionParams
    future_vsn: QVariableSelectionParams
    static_encoders: list[QGRNParams]
    encoder_lstm: LSTMParams | QLSTMParams
    decoder_lstm: LSTMParams | QLSTMParams
    post_lstm_qglu: QGLUParams
    post_lstm_norm: LayerNormParams
    enrichment: QGRNParams
    attention: QAttentionParams
    post_attn_qglu: QGLUParams
    post_attn_norm: LayerNormParams
    positionwise: QGRNParams
    final_qglu: QGLUParams
    final_norm: LayerNormParams
    heads: list[DenseParams]


def init_qtft(cfg: QTFTConfig, rng: np.random.Generator) -> QTFTParams:
    d, L, enc, anz = cfg.d_model, cfg.ansatz_layers, cfg.encoding, cfg.ansatz
    if cfg.use_qlstm:
        enc_lstm = init_qlstm(rng, d, d, L, enc, anz)
        dec_lstm = init_qlstm(rng, d, d, L, enc, anz)
    else:
        enc_lstm = init_lstm(rng, d, d)
        dec_lstm = init_lstm(rng, d, d)
    return QTFTParams(
        static_embed=[init_dense(rng, d, 1) for _ in range(cfg.num_static_vars)],
        past_embed=[init_dense(rng, d, 1) for _ in range(cfg.num_past_vars)],
        future_embed=[init_dense(rng, d, 1) for _ in range(cfg.num_future_vars)],
        static_vsn=init_qvsn(rng, d, cfg.num_static_vars, False, L, enc, anz),
        past_vsn=init_qvsn(rng, d, cfg.num_past_vars, True, L, enc, anz),
        future_vsn=init_qvsn(rng, d, cfg.num_future_vars, True, L, enc, anz),
        static_encoders=[init_qgrn(rng, d, L, False, enc, anz) for _ in range(4)],
        encoder_lstm=enc_lstm,
        decoder_lstm=dec_lstm,
        post_lstm_qglu=init_qglu(rng, d, L, enc, anz),
        post_lstm_norm=LayerNormParams(),
        enrichment=init_qgrn(rng, d, L, True, enc, anz),
        attention=init_qattention(rng, d, cfg.num_heads, L, enc, anz),
        post_attn_qglu=init_qglu(rng, d, L, enc, anz),
        post_attn_norm=LayerNormParams(),
        positionwise=init_qgrn(rng, d, L, False, enc, anz),
        final_qglu=init_qglu(rng, d, L, enc, anz),
        final_norm=LayerNormParams(),
        heads=[init_dense(rng, 1, d) for _ in cfg.quantiles],
    )


def qtft_forward_nodes(static_vars, past_vars, future_vars, p: QTFTParams,
                       quantiles, mask: np.ndarray | None = None,
                       use_qlstm: bool = False):
    """Quantum forward pass returning one (tau,) prediction node per quantile."""
    static_vars = np.asarray(static_vars, dtype=float)
    past_vars = np.asarray(past_vars, dtype=float)
    future_vars = np.asarray(future_vars, dtype=float)
    k, tau = past_vars.shape[0], future_vars.shape[0]

    static_emb = [dense(emb, np.array([static_vars[j]]))
                  for j, emb in enumerate(p.static_embed)]
    xi_static, _ = q_variable_selection(static_emb, None, p.static_vsn)
    c_s, c_e, c_c, c_h = q_static_covariate_encoder(xi_static, p.static_encoders)

    def embed_steps(rows, embeds):
        return [[dense(emb, np.array([rows[t, j]])) for j, emb in enumerate(embeds)]
                for t in range(rows.shape[0])]

    past_sel = [q_variable_selection(emb, c_s, p.past_vsn)[0]
                for emb in embed_steps(past_vars, p.past_embed)]
    future_sel = [q_variable_selection(emb, c_s, p.future_vsn)[0]
                  for emb in embed_steps(future_vars, p.future_embed)]

    recurrence = qlstm_seq if use_qlstm else lstm_seq
    enc_out, (h_T, c_T) = recurrence(past_sel, c_h, c_c, p.encoder_lstm)
    dec_out, _ = recurrence(future_sel, h_T, c_T, p.decoder_lstm)
    phi = enc_out + dec_out
    selected = past_sel + future_sel

    phi_tilde = [layer_norm(grad.add(sel, qglu(ph, p.post_lstm_qglu)), p.post_lstm_norm)
                 for sel, ph in zip(selected, phi)]
    theta = [qgrn(pt, c_e, p.enrichment) for pt in phi_tilde]

    beta_mat = q_interpretable_multi_head(theta, p.attention, mask)
    # The heads read the future positions only, so the stages after attention skip the past.
    delta = [layer_norm(grad.add(theta[i], qglu(grad.row(beta_mat, i), p.post_attn_qglu)),
                        p.post_attn_norm)
             for i in range(k, k + tau)]
    psi = [qgrn(d_, None, p.positionwise) for d_ in delta]
    future_repr = [layer_norm(grad.add(pt, qglu(ps, p.final_qglu)), p.final_norm)
                   for pt, ps in zip(phi_tilde[k:], psi)]
    return [grad.concat([dense(head, r) for r in future_repr]) for head in p.heads]


def qtft_forward(static_vars, past_vars, future_vars, p: QTFTParams,
                 quantiles, mask: np.ndarray | None = None,
                 use_qlstm: bool = False) -> np.ndarray:
    nodes = qtft_forward_nodes(static_vars, past_vars, future_vars, p, quantiles,
                               mask, use_qlstm)
    return np.stack([n.value for n in nodes])


class QTFTModel:
    """Quantum model: parameters plus the windowed forward pass."""

    def __init__(self, cfg: QTFTConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.params = init_qtft(cfg, rng)

    @property
    def kind(self) -> str:
        return "qtft-qlstm" if self.cfg.use_qlstm else "qtft"

    def predict_nodes(self, static_vars, past_vars, future_vars) -> list[Node]:
        mask = causal_mask(np.asarray(past_vars).shape[0] + np.asarray(future_vars).shape[0]) \
            if self.cfg.use_causal_mask else None
        return qtft_forward_nodes(static_vars, past_vars, future_vars, self.params,
                                  self.cfg.quantiles, mask, self.cfg.use_qlstm)

    def predict(self, static_vars, past_vars, future_vars) -> np.ndarray:
        return np.stack([n.value for n in self.predict_nodes(static_vars, past_vars, future_vars)])

    def named_leaves(self) -> list[tuple[str, Node]]:
        return named_leaves(self.params)

    def leaves(self) -> list[Node]:
        return [node for _, node in self.named_leaves()]

    def param_count(self) -> int:
        return sum(node.value.size for node in self.leaves())
