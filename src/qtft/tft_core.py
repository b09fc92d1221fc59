"""Classical temporal fusion transformer built on the tape in :mod:`qtft.grad`.

The building blocks are gated linear units, gated residual networks,
softmax variable selection, static covariate encoders, an LSTM
sequence-to-sequence pair and interpretable multi-head attention (shared
value projection, head-averaged aggregation).  ``TFTModel.predict_nodes``
wires them into the five-stage pass that ends in a dense quantile head
on the future positions; the circuit model of :mod:`qtft.qtft_core`
subclasses ``TFTModel`` and swaps the blocks.

All operations accept and return graph nodes; plain arrays are wrapped
automatically, so the blocks can be probed numerically without touching
the tape API.  Like the tape, every block treats leading axes as a batch,
so one forward pass can cover many windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from . import grad
from .grad import Node, as_node, softmax  # noqa: F401  (softmax is part of the public surface)

if TYPE_CHECKING:
    from .forecasting import TrainConfig


# --------------------------------------------------------------------------
# Parameter containers
# --------------------------------------------------------------------------

@dataclass
class DenseParams:
    W: Node
    b: Node


@dataclass
class GLUParams:
    gate: DenseParams
    lin: DenseParams


@dataclass
class GRNParams:
    primary: DenseParams            # W1, b12
    context: Node | None            # W2, no bias; None when the block takes no context
    out: DenseParams                # W3, b3
    glu: GLUParams                  # W4, b4, W5, b5


@dataclass
class AttentionParams:
    wq: list[Node]                  # one (d, d_attn) per head
    wk: list[Node]
    wv: Node                        # shared value projection
    wh: Node                        # (d_attn, d) head-combine matrix


@dataclass
class LSTMParams:
    wi: DenseParams                 # gate maps; each holds a QLSTMGateParams in the QLSTM
    wf: DenseParams
    wg: DenseParams
    wo: DenseParams


@dataclass
class VariableSelectionParams:
    var_grns: list[GRNParams]       # one per input variable (QGRNs in the circuit model)
    flatten_proj: DenseParams       # (m*d -> m) map feeding the weight GRN
    context_proj: DenseParams | None  # (d -> m) map of the context; None in the dense model
    weight_grn: GRNParams           # width m; context enters through its W2


@dataclass
class TFTParams:
    """Parameters of both models, one field per stage of the forward pass.

    The circuit model fills the block fields with the circuit-block
    parameters of :mod:`qtft.qtft_core`; embeddings, heads and (without
    the quantum LSTM) the recurrence stay dense.
    """

    static_embed: list[DenseParams]
    past_embed: list[DenseParams]
    future_embed: list[DenseParams]
    static_vsn: VariableSelectionParams
    past_vsn: VariableSelectionParams
    future_vsn: VariableSelectionParams
    static_encoders: list[GRNParams]          # -> c_s, c_e, c_c, c_h in this order
    encoder_lstm: LSTMParams
    decoder_lstm: LSTMParams
    post_lstm_glu: GLUParams
    enrichment: GRNParams
    attention: AttentionParams
    post_attn_glu: GLUParams
    positionwise: GRNParams
    final_glu: GLUParams
    heads: list[DenseParams]                  # one (1, d) dense, for the trained quantile


# --------------------------------------------------------------------------
# Blocks
# --------------------------------------------------------------------------

def dense(p: DenseParams, x) -> Node:
    return grad.affine(p.W, x, p.b)


def glu(x, p: GLUParams) -> Node:
    """sigmoid(W4 x + b4) * (W5 x + b5) elementwise."""
    x = as_node(x)
    return grad.mul(grad.sigmoid(dense(p.gate, x)), dense(p.lin, x))


def grn(a, c, p: GRNParams) -> Node:
    """Gated residual network: LayerNorm(a + GLU(W3 ELU(W1 a + W2 c + b12) + b3)).

    The context term is dropped when ``c`` is None.
    """
    a = as_node(a)
    eta1_pre = dense(p.primary, a)
    if c is not None:
        if p.context is None:
            raise ValueError("GRN got a context vector but has no W2")
        eta1_pre = grad.add(eta1_pre, grad.matvec(p.context, as_node(c)))
    eta1 = grad.elu(eta1_pre)
    eta2 = dense(p.out, eta1)
    eta3 = glu(eta2, p.glu)
    return grad.layer_norm(grad.add(a, eta3))


def variable_selection(embeddings, c_s, p: VariableSelectionParams, block=grn):
    """Softmax-weighted combination of per-variable GRN outputs.

    Selection weights come from a GRN (width m) over a dense projection of
    the flattened concatenation; the static context, when given, enters
    that GRN, through ``context_proj`` when that is set.  ``block``
    is the GRN function (the circuit model passes its QGRN).  Returns
    ``(selected, weights)``.

    A softmax over one variable is exactly 1.0 and ``1.0 * v`` is ``v``,
    so with one variable neither the projections nor the selection GRN
    run: the output is that variable's GRN output and the weights are a
    constant 1.0.  Their leaves stay in the parameters (and snapshots) but
    get no gradient, so training leaves them unchanged.
    """
    embeddings = [as_node(e) for e in embeddings]
    if len(embeddings) != len(p.var_grns):
        raise ValueError(f"expected {len(p.var_grns)} embeddings, got {len(embeddings)}")
    if len(embeddings) == 1:
        selected = block(embeddings[0], None, p.var_grns[0])
        return selected, grad.const(np.ones(selected.value.shape[:-1] + (1,)))
    flat = grad.concat(embeddings)
    if c_s is not None and p.context_proj is not None:
        c_s = dense(p.context_proj, c_s)
    weights = softmax(block(dense(p.flatten_proj, flat), c_s, p.weight_grn))
    processed = [block(e, None, g) for e, g in zip(embeddings, p.var_grns)]
    return grad.weighted_sum(weights, processed), weights


def lstm_step(x, h, c, p: LSTMParams, gate=dense):
    """One LSTM cell; ``gate(params, concat(x, h))`` is each gate's pre-activation map."""
    xh = grad.concat([as_node(x), h])
    i = grad.sigmoid(gate(p.wi, xh))
    f = grad.sigmoid(gate(p.wf, xh))
    g = grad.tanh(gate(p.wg, xh))
    o = grad.sigmoid(gate(p.wo, xh))
    c_new = grad.add(grad.mul(f, c), grad.mul(i, g))
    h_new = grad.mul(o, grad.tanh(c_new))
    return h_new, c_new


def lstm_seq(inputs, h0, c0, p: LSTMParams, gate=dense):
    """LSTM recursion with gate map ``gate``; returns (hidden outputs, (h_T, c_T))."""
    if not inputs:
        raise ValueError("lstm_seq needs a nonempty input sequence")
    h, c = as_node(h0), as_node(c0)
    outputs = []
    for x in inputs:
        h, c = lstm_step(x, h, c, p, gate)
        outputs.append(h)
    return outputs, (h, c)


def causal_mask(n: int) -> np.ndarray:
    """Additive attention mask hiding positions after each query position."""
    m = np.zeros((n, n))
    m[np.triu_indices(n, k=1)] = -1e9
    return m


def attention(q, k, v, d_attn: float, mask: np.ndarray | None = None) -> Node:
    """Scaled dot-product attention: row-wise softmax(Q K^T / sqrt(d_attn)) V."""
    q, k, v = as_node(q), as_node(k), as_node(v)
    scores = grad.scale(grad.matmul(q, grad.transpose(k)), 1.0 / math.sqrt(d_attn))
    if mask is not None:
        scores = grad.add(scores, grad.const(mask))
    return grad.matmul(softmax(scores), v)


def head_average(queries, keys, v, d_attn: float, mask: np.ndarray | None = None) -> Node:
    """``mean_h attention(queries[h], keys[h], v)``: every head attends over one shared value."""
    out = None
    for q, k in zip(queries, keys):
        head = attention(q, k, v, d_attn, mask)
        out = head if out is None else grad.add(out, head)
    return grad.scale(out, 1.0 / len(queries))


def interpretable_multi_head(s, p: AttentionParams, mask: np.ndarray | None = None) -> Node:
    """Head-averaged attention with a single shared value projection.

    Output is ``mean_h Attention(S Wq_h, S Wk_h, S Wv) @ Wh``.
    """
    s = as_node(s)
    h_tilde = head_average([grad.matmul(s, wq) for wq in p.wq],
                           [grad.matmul(s, wk) for wk in p.wk],
                           grad.matmul(s, p.wv), p.wh.value.shape[0], mask)
    return grad.matmul(h_tilde, p.wh)


# --------------------------------------------------------------------------
# Construction
# --------------------------------------------------------------------------

def init_dense(rng: np.random.Generator, out_dim: int, in_dim: int) -> DenseParams:
    bound = 1.0 / math.sqrt(in_dim)
    return DenseParams(
        W=grad.param(rng.uniform(-bound, bound, size=(out_dim, in_dim))),
        b=grad.param(rng.uniform(-bound, bound, size=out_dim)),
    )


def init_glu(rng, dim: int) -> GLUParams:
    return GLUParams(gate=init_dense(rng, dim, dim), lin=init_dense(rng, dim, dim))


def init_grn(rng, dim: int, context_dim: int | None = None) -> GRNParams:
    context = None
    if context_dim is not None:
        bound = 1.0 / math.sqrt(context_dim)
        context = grad.param(rng.uniform(-bound, bound, size=(dim, context_dim)))
    return GRNParams(
        primary=init_dense(rng, dim, dim),
        context=context,
        out=init_dense(rng, dim, dim),
        glu=init_glu(rng, dim),
    )


def init_vsn(rng, d_model: int, num_vars: int,
             context_dim: int | None) -> VariableSelectionParams:
    return VariableSelectionParams(
        var_grns=[init_grn(rng, d_model, None) for _ in range(num_vars)],
        flatten_proj=init_dense(rng, num_vars, num_vars * d_model),
        context_proj=None,
        weight_grn=init_grn(rng, num_vars, context_dim),
    )


def init_lstm(rng, input_dim: int, hidden: int) -> LSTMParams:
    return LSTMParams(
        wi=init_dense(rng, hidden, input_dim + hidden),
        wf=init_dense(rng, hidden, input_dim + hidden),
        wg=init_dense(rng, hidden, input_dim + hidden),
        wo=init_dense(rng, hidden, input_dim + hidden),
    )


def init_attention(rng, d_model: int, num_heads: int) -> AttentionParams:
    d_attn = max(1, math.ceil(d_model / num_heads))
    bound = 1.0 / math.sqrt(d_model)

    def mat(rows, cols):
        return grad.param(rng.uniform(-bound, bound, size=(rows, cols)))

    return AttentionParams(
        wq=[mat(d_model, d_attn) for _ in range(num_heads)],
        wk=[mat(d_model, d_attn) for _ in range(num_heads)],
        wv=mat(d_model, d_attn),
        wh=grad.param(rng.uniform(-1.0 / math.sqrt(d_attn), 1.0 / math.sqrt(d_attn),
                                  size=(d_attn, d_model))),
    )


def init_tft(cfg: TrainConfig, num_past_vars: int, num_future_vars: int,
             num_static_vars: int, rng: np.random.Generator) -> TFTParams:
    d = cfg.d_model
    return TFTParams(
        static_embed=[init_dense(rng, d, 1) for _ in range(num_static_vars)],
        past_embed=[init_dense(rng, d, 1) for _ in range(num_past_vars)],
        future_embed=[init_dense(rng, d, 1) for _ in range(num_future_vars)],
        static_vsn=init_vsn(rng, d, num_static_vars, None),
        past_vsn=init_vsn(rng, d, num_past_vars, d),
        future_vsn=init_vsn(rng, d, num_future_vars, d),
        static_encoders=[init_grn(rng, d, None) for _ in range(4)],
        encoder_lstm=init_lstm(rng, d, d),
        decoder_lstm=init_lstm(rng, d, d),
        post_lstm_glu=init_glu(rng, d),
        enrichment=init_grn(rng, d, d),
        attention=init_attention(rng, d, cfg.heads),
        post_attn_glu=init_glu(rng, d),
        positionwise=init_grn(rng, d, None),
        final_glu=init_glu(rng, d),
        heads=[init_dense(rng, 1, d)],
    )


def named_leaves(obj, prefix: str = "") -> list[tuple[str, Node]]:
    """Flatten a parameter tree into (dotted name, leaf node) pairs."""
    from .quantum_sim import ParameterizedCircuit

    out: list[tuple[str, Node]] = []
    if isinstance(obj, Node):
        out.append((prefix or "leaf", obj))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            out.extend(named_leaves(item, f"{prefix}.{i}" if prefix else str(i)))
    elif isinstance(obj, ParameterizedCircuit):
        pass  # cached circuit structure, not trainable
    elif hasattr(obj, "__dataclass_fields__"):
        for f in fields(obj):
            val = getattr(obj, f.name)
            if val is None or isinstance(val, (int, float, str, bool, np.ndarray)):
                continue
            out.extend(named_leaves(val, f"{prefix}.{f.name}" if prefix else f.name))
    return out


class TFTModel:
    """Classical model: parameters plus the windowed forward pass.

    ``predict_nodes`` is the one wiring of the five stages.  It reaches
    every block through the methods below; the circuit model subclasses
    this one and overrides only those methods.  Each method looks up its
    module's function by name when it runs, so timing wrappers installed
    on the module (``perfbench/tracing.py``) see every block call.

    Every setting comes from a validated ``TrainConfig``; the variable
    counts come from the data.  The weights are drawn from a generator
    seeded with ``cfg.seed``.
    """

    kinds = ("tft",)   # the model_kind values this class builds

    def __init__(self, cfg: TrainConfig, num_past_vars: int, num_future_vars: int,
                 num_static_vars: int):
        if cfg.model_kind not in self.kinds:
            from .forecasting import ConfigError
            raise ConfigError("model_kind", f"{type(self).__name__} builds model_kind "
                                            f"{' or '.join(self.kinds)}, got {cfg.model_kind!r}")
        for name, count in (("num_past_vars", num_past_vars), ("num_future_vars", num_future_vars),
                            ("num_static_vars", num_static_vars)):
            if count < 1:
                raise ValueError(f"{name} must be >= 1, got {count}")
        self.cfg = cfg
        self.kind = cfg.model_kind
        self.params = self.init_params(cfg, num_past_vars, num_future_vars, num_static_vars,
                                       np.random.default_rng(cfg.seed))

    def init_params(self, *args) -> TFTParams:
        return init_tft(*args)

    def dense(self, p, x) -> Node:
        return dense(p, x)

    def glu(self, x, p) -> Node:
        return glu(x, p)

    def grn(self, a, c, p) -> Node:
        return grn(a, c, p)

    def select(self, embeddings, c_s, p) -> Node:
        return variable_selection(embeddings, c_s, p)[0]

    def recur(self, inputs, h0, c0, p):
        return lstm_seq(inputs, h0, c0, p)

    def attend(self, s: Node, p, mask: np.ndarray | None) -> Node:
        return interpretable_multi_head(s, p, mask)

    def predict_nodes(self, static_vars, past_vars, future_vars) -> list[Node]:
        """Forward pass returning a one-entry list: the (tau,) prediction node of the quantile.

        The inputs are one window, shaped (m_static,), (k, m_past) and
        (tau, m_future), or a batch of windows with one leading axis more
        each; the predictions then have shape (batch, tau).  An input whose
        last axis does not hold the model's number of variables raises
        ``ValueError``.

        Every block value carries a position axis at -2, (..., T, width),
        and each stage makes one block call over all its positions.  The
        static input is a one-position sequence, so the contexts c_s, c_e,
        c_c and c_h broadcast over positions.  Only the LSTM steps, on
        unit-length slices.
        """
        p = self.params
        static_vars = np.asarray(static_vars, dtype=float)[..., None, :]
        past_vars = np.asarray(past_vars, dtype=float)
        future_vars = np.asarray(future_vars, dtype=float)
        for name, values, embeds in (("static_vars", static_vars, p.static_embed),
                                     ("past_vars", past_vars, p.past_embed),
                                     ("future_vars", future_vars, p.future_embed)):
            if values.shape[-1] != len(embeds):
                raise ValueError(f"{name} has {values.shape[-1]} variables, "
                                 f"the model takes {len(embeds)}")
        k, tau = past_vars.shape[-2], future_vars.shape[-2]
        mask = causal_mask(k + tau) if self.cfg.use_causal_mask else None

        def embed(series, embeds):
            """One linear d_model embedding per scalar variable."""
            return [self.dense(emb, series[..., j:j + 1]) for j, emb in enumerate(embeds)]

        def steps(seq):
            return [grad.rows(seq, t, t + 1) for t in range(seq.value.shape[-2])]

        def gated_skip(skip, x, glu_p):
            return grad.layer_norm(grad.add(skip, self.glu(x, glu_p)))

        def future(seq):
            return grad.rows(seq, k, k + tau)

        xi_static = self.select(embed(static_vars, p.static_embed), None, p.static_vsn)
        c_s, c_e, c_c, c_h = [self.grn(xi_static, None, enc) for enc in p.static_encoders]

        past_sel = self.select(embed(past_vars, p.past_embed), c_s, p.past_vsn)
        future_sel = self.select(embed(future_vars, p.future_embed), c_s, p.future_vsn)

        enc_out, (h_T, c_T) = self.recur(steps(past_sel), c_h, c_c, p.encoder_lstm)
        dec_out, _ = self.recur(steps(future_sel), h_T, c_T, p.decoder_lstm)
        phi_tilde = gated_skip(grad.concat([past_sel, future_sel], axis=-2),
                               grad.concat(enc_out + dec_out, axis=-2), p.post_lstm_glu)
        theta = self.grn(phi_tilde, c_e, p.enrichment)

        beta = self.attend(theta, p.attention, mask)
        # The heads read the future positions only, so the stages after attention skip the past.
        delta = gated_skip(future(theta), future(beta), p.post_attn_glu)
        psi = self.grn(delta, None, p.positionwise)
        future_repr = gated_skip(future(phi_tilde), psi, p.final_glu)
        outputs = [self.dense(head, future_repr) for head in p.heads]
        return [grad.reshape(out, out.value.shape[:-1]) for out in outputs]

    def predict(self, static_vars, past_vars, future_vars) -> np.ndarray:
        """The quantile forecast without a tape: (tau,) for one window, (batch, tau) for a batch."""
        with grad.no_tape():
            return self.predict_nodes(static_vars, past_vars, future_vars)[0].value

    def named_leaves(self) -> list[tuple[str, Node]]:
        return named_leaves(self.params)

    def leaves(self) -> list[Node]:
        return [node for _, node in self.named_leaves()]

    def param_count(self) -> int:
        return sum(node.value.size for node in self.leaves())
