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
from dataclasses import dataclass, field, fields
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

from . import grad
from .grad import Node, as_node, softmax  # noqa: F401  (softmax is part of the public surface)

if TYPE_CHECKING:
    from .forecasting import TrainConfig


# --------------------------------------------------------------------------
# Parameter containers
# --------------------------------------------------------------------------
#
# A field marked ``SETS`` holds k blocks of one kind with a set axis: each
# leaf holds the k blocks' leaves stacked, and its values carry the set
# axis at -3, (..., k, T, width).  Snapshots name each block apart, by its
# index, or by its label when the field's "sets" holds labels.

SETS = {"sets": True}
LSTM_GATES = {"sets": ("wi", "wf", "wg", "wo")}   # the input, forget, cell and output gates


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
    """Query and key projections on a head axis, (heads, d, d_attn); one shared value."""

    wq: Node = field(metadata=SETS)
    wk: Node = field(metadata=SETS)
    wv: Node                        # (d, d_attn), shared by the heads
    wh: Node                        # (d_attn, d) head-combine matrix


@dataclass
class VariableSelectionParams:
    """Selection over m variables: ``var_grns`` holds W1, W3 (m, d, d) and b12, b3 (m, d),
    or in the circuit model each QGRN block's weights (m, num_weight_slots)."""

    var_grns: GRNParams = field(metadata=SETS)   # QGRNParams in the circuit model
    flatten_proj: DenseParams | None  # (m*d -> m) map feeding the weight GRN; None if m = 1
    context_proj: DenseParams | None  # (d -> m) map of the context; None in the dense model too
    weight_grn: GRNParams | None    # width m, context entering through its W2; None if m = 1


@dataclass
class TFTParams:
    """Parameters of both models, one field per stage of the forward pass.

    The circuit model fills the block fields with the circuit-block
    parameters of :mod:`qtft.qtft_core`; embeddings, heads and (without
    the quantum LSTM) the recurrence stay dense.  The embeddings hold one
    (d, 1) map per variable on a set axis, W (m, d, 1) and b (m, d), the
    four static encoders are one GRN with a set axis of 4, and each LSTM's
    gates i, f, g and o are one block with a set axis of 4, named wi, wf, wg
    and wo in snapshots.
    """

    static_embed: DenseParams = field(metadata=SETS)
    past_embed: DenseParams = field(metadata=SETS)
    future_embed: DenseParams = field(metadata=SETS)
    static_vsn: VariableSelectionParams
    past_vsn: VariableSelectionParams
    future_vsn: VariableSelectionParams
    static_encoders: GRNParams = field(metadata=SETS)   # -> c_s, c_e, c_c, c_h in this order
    encoder_lstm: DenseParams = field(metadata=LSTM_GATES)   # QLSTMGateParams in the QLSTM
    decoder_lstm: DenseParams = field(metadata=LSTM_GATES)
    post_lstm_glu: GLUParams
    enrichment: GRNParams
    attention: AttentionParams
    post_attn_glu: GLUParams
    positionwise: GRNParams
    final_glu: GLUParams
    heads: DenseParams                        # one (1, d) dense, for the trained quantile


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

    The context term is dropped when ``c`` is None.  A GRN with a set axis
    runs its k GRNs side by side on (..., k, T, d) inputs, or on one
    (..., 1, T, d) input that every one of them reads.
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

    ``embeddings`` (..., m, T, d) hold the m variables on the set axis of
    the variable GRNs.  Selection weights come from a GRN (width m) over a
    dense projection of the embeddings side by side; the static context,
    when given, enters that GRN, through ``context_proj`` when that is set.
    ``block`` is the GRN function (the circuit model passes its QGRN).
    Returns ``(selected, weights)``.

    A softmax over one variable is exactly 1.0 and ``1.0 * v`` is ``v``,
    so parameters without selection blocks (one variable) give that
    variable's GRN output and a constant 1.0 as the weights.
    """
    embeddings = as_node(embeddings)
    shape, m = embeddings.value.shape, 1 if p.flatten_proj is None else len(p.flatten_proj.W.value)
    if shape[-3] != m:
        raise ValueError(f"expected {m} embeddings, got {shape[-3]}")
    processed = block(embeddings, None, p.var_grns)
    if p.flatten_proj is None:
        selected = grad.reshape(processed, shape[:-3] + shape[-2:])
        return selected, grad.const(np.ones(selected.value.shape[:-1] + (1,)))
    flat = grad.reshape(grad.transpose(embeddings, (-3, -2)),
                        shape[:-3] + (shape[-2], m * shape[-1]))
    if c_s is not None and p.context_proj is not None:
        c_s = dense(p.context_proj, c_s)
    weights = softmax(block(dense(p.flatten_proj, flat), c_s, p.weight_grn))
    return grad.weighted_sum(weights, processed), weights


def lstm_step(x, h, c, p, gate=dense):
    """One LSTM cell.

    ``gate(p, xh)`` maps ``concat(x, h)``, one input that every set reads,
    to the pre-activations of the gates on p's set axis: i, f, g and o.
    One ``sigmoid`` and one ``tanh`` activate the whole gate block; i, f
    and o are parts of the first, g a part of the second.
    """
    xh = grad.concat([as_node(x), h])
    gates = gate(p, shared_input(xh))
    shape = xh.value.shape[:-1] + gates.value.shape[-1:]
    s, t = grad.sigmoid(gates), grad.tanh(gates)
    i, f, g, o = (grad.part(a, np.s_[..., j, :, :], shape) for j, a in enumerate((s, s, t, s)))
    c_new = grad.add(grad.mul(f, c), grad.mul(i, g))
    h_new = grad.mul(o, grad.tanh(c_new))
    return h_new, c_new


def lstm_seq(inputs, h0, c0, p, gate=dense):
    """LSTM recursion with gate map ``gate``; returns (hidden outputs, (h_T, c_T))."""
    if not inputs:
        raise ValueError("lstm_seq needs a nonempty input sequence")
    h, c = as_node(h0), as_node(c0)
    outputs = []
    for x in inputs:
        h, c = lstm_step(x, h, c, p, gate)
        outputs.append(h)
    return outputs, (h, c)


def distinct_rows(rows: np.ndarray):
    """Each distinct row of a 2-D array once, in the order rows first appear.

    Returns ``(at, first)``, two integer arrays: ``rows[first]`` are the
    distinct rows, and row i equals ``rows[first[at[i]]]``.  Rows are
    compared by their bytes, so 0.0 and -0.0 differ.  :meth:`Inputs.of`
    tells one entity's batch by its one distinct static row, and lays out
    that batch's distinct step rows for the selection networks.
    """
    seen: dict = {}
    at, first = [], []
    for i, key in enumerate(row.tobytes() for row in rows):
        if key not in seen:
            seen[key] = len(first)
            first.append(i)
        at.append(seen[key])
    return np.array(at), np.array(first)


@dataclass(frozen=True)
class Inputs:
    """The inputs of a forward pass, laid out once for any number of passes.

    ``Inputs.of`` checks that the three inputs' window axes agree and tells
    one entity's batch, whose windows all hold one static row (by bytes).
    ``static`` is then that one row, and ``past_distinct`` and
    ``future_distinct`` are each ``(rows, at)`` when some step row repeats:
    the distinct step rows as one-position rows, and the row of each
    (window, step).  Otherwise they are None.
    """

    static: np.ndarray
    past: np.ndarray
    future: np.ndarray
    past_distinct: tuple[np.ndarray, np.ndarray] | None = None
    future_distinct: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def of(cls, static, past, future) -> Inputs:
        static, past, future = (np.asarray(x, dtype=float) for x in (static, past, future))
        leading = (static.shape[:-1], past.shape[:-2], future.shape[:-2])
        if not leading[0] == leading[1] == leading[2]:
            raise ValueError("static_vars, past_vars and future_vars have window shapes "
                             f"{leading[0]}, {leading[1]} and {leading[2]}; they must agree")
        if not (static.ndim == 2 and len(distinct_rows(static)[1]) == 1):
            return cls(static, past, future)

        def distinct(series):
            flat = series.reshape(math.prod(series.shape[:-1]), series.shape[-1])
            at, first = distinct_rows(flat)
            return (flat[first, None, :], at.reshape(series.shape[:-1])) \
                if len(first) < len(flat) else None

        return cls(static[:1], past, future, distinct(past), distinct(future))


def causal_mask(n: int) -> np.ndarray:
    """Additive attention mask hiding positions after each query position."""
    m = np.zeros((n, n))
    m[np.triu_indices(n, k=1)] = -1e9
    return m


def attention(q, k, v, d_attn: float, mask: np.ndarray | None = None) -> Node:
    """Scaled dot-product attention: row-wise softmax(Q K^T / sqrt(d_attn)) V."""
    q, k, v = as_node(q), as_node(k), as_node(v)
    scores = grad.mul(grad.matmul(q, grad.transpose(k)), 1.0 / math.sqrt(d_attn))
    if mask is not None:
        scores = grad.add(scores, grad.const(mask))
    return grad.matmul(softmax(scores), v)


def shared_input(x) -> Node:
    """``x`` (..., T, d) with a set axis of one entry, (..., 1, T, d), read by every set."""
    x = as_node(x)
    shape = x.value.shape
    return grad.reshape(x, shape[:-2] + (1,) + shape[-2:])


def head_average(queries, keys, v, d_attn: float, mask: np.ndarray | None = None) -> Node:
    """``mean_h attention(queries_h, keys_h, v)``: every head attends over one shared value.

    The heads are the set axis of ``queries`` and ``keys``, (..., h, T, d_attn).
    """
    return grad.set_mean(attention(queries, keys, shared_input(v), d_attn, mask))


def interpretable_multi_head(s, p: AttentionParams, mask: np.ndarray | None = None) -> Node:
    """Head-averaged attention with a single shared value projection.

    Output is ``mean_h Attention(S Wq_h, S Wk_h, S Wv) @ Wh``.
    """
    s = as_node(s)
    # One shared_input each, so s gets its query and key parts one at a time, as per head.
    h_tilde = head_average(grad.matmul(shared_input(s), p.wq), grad.matmul(shared_input(s), p.wk),
                           grad.matmul(s, p.wv), p.wh.value.shape[0], mask)
    return grad.matmul(h_tilde, p.wh)


# --------------------------------------------------------------------------
# Construction
# --------------------------------------------------------------------------

def stack_sets(blocks: list):
    """One params object with a set axis holding ``blocks``: each leaf their leaves stacked.

    Drawn one after another, each block keeps the weights it would have on
    its own.  The blocks share one circuit (or none), else ``ValueError``.
    """
    from .quantum_sim import ParameterizedCircuit

    first = blocks[0]
    if isinstance(first, Node):
        return grad.param(np.stack([b.value for b in blocks]))
    if first is None or isinstance(first, ParameterizedCircuit):
        if any(b != first for b in blocks):
            raise ValueError(f"blocks of one set need one circuit, got {blocks}")
        return first
    return type(first)(*(stack_sets([getattr(b, name) for b in blocks])
                         for name in _field_names(type(first))))


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
    p = VariableSelectionParams(
        var_grns=stack_sets([init_grn(rng, d_model, None) for _ in range(num_vars)]),
        flatten_proj=init_dense(rng, num_vars, num_vars * d_model),
        context_proj=None,
        weight_grn=init_grn(rng, num_vars, context_dim),
    )
    # One variable never runs its selection blocks; drawing them first keeps every later weight.
    return p if num_vars > 1 else VariableSelectionParams(p.var_grns, None, None, None)


def init_lstm(rng, input_dim: int, hidden: int) -> DenseParams:
    """The four gate maps i, f, g and o on a set axis: W (4, hidden, input_dim + hidden)."""
    return stack_sets([init_dense(rng, hidden, input_dim + hidden) for _ in range(4)])


def init_attention(rng, d_model: int, num_heads: int) -> AttentionParams:
    d_attn = max(1, math.ceil(d_model / num_heads))
    bound = 1.0 / math.sqrt(d_model)

    def mat(rows, cols):
        return grad.param(rng.uniform(-bound, bound, size=(rows, cols)))

    return AttentionParams(
        wq=stack_sets([mat(d_model, d_attn) for _ in range(num_heads)]),
        wk=stack_sets([mat(d_model, d_attn) for _ in range(num_heads)]),
        wv=mat(d_model, d_attn),
        wh=grad.param(rng.uniform(-1.0 / math.sqrt(d_attn), 1.0 / math.sqrt(d_attn),
                                  size=(d_attn, d_model))),
    )


def init_tft(cfg: TrainConfig, num_past_vars: int, num_future_vars: int,
             num_static_vars: int, rng: np.random.Generator) -> TFTParams:
    d = cfg.d_model
    return TFTParams(
        static_embed=stack_sets([init_dense(rng, d, 1) for _ in range(num_static_vars)]),
        past_embed=stack_sets([init_dense(rng, d, 1) for _ in range(num_past_vars)]),
        future_embed=stack_sets([init_dense(rng, d, 1) for _ in range(num_future_vars)]),
        static_vsn=init_vsn(rng, d, num_static_vars, None),
        past_vsn=init_vsn(rng, d, num_past_vars, d),
        future_vsn=init_vsn(rng, d, num_future_vars, d),
        static_encoders=stack_sets([init_grn(rng, d, None) for _ in range(4)]),
        encoder_lstm=init_lstm(rng, d, d),
        decoder_lstm=init_lstm(rng, d, d),
        post_lstm_glu=init_glu(rng, d),
        enrichment=init_grn(rng, d, d),
        attention=init_attention(rng, d, cfg.heads),
        post_attn_glu=init_glu(rng, d),
        positionwise=init_grn(rng, d, None),
        final_glu=init_glu(rng, d),
        heads=init_dense(rng, 1, d),
    )


def named_leaves(obj, prefix: str = "", index: int | None = None) -> list[tuple[str, Node]]:
    """Flatten a parameter tree into (dotted name, leaf node) pairs.

    A ``SETS`` field names each of its blocks apart, ``field.i.rest`` or
    ``field.label.rest`` for labelled sets, block by block; a block's leaf
    is a node whose value is a view of its slice of the stacked leaf, so
    writing into that value sets the block's weights.
    """
    from .quantum_sim import ParameterizedCircuit

    out: list[tuple[str, Node]] = []
    if isinstance(obj, Node):
        out.append((prefix or "leaf", obj if index is None else Node(obj.value[index])))
    elif hasattr(obj, "__dataclass_fields__") and not isinstance(obj, ParameterizedCircuit):
        for f in fields(obj):   # a circuit is cached structure, not trainable; None holds nothing
            val = getattr(obj, f.name)
            name = f"{prefix}.{f.name}" if prefix else f.name
            sets = f.metadata.get("sets")
            if sets:
                labels = sets if isinstance(sets, tuple) else range(len(leaves(val)[0].value))
                for i, label in enumerate(labels):
                    out.extend(named_leaves(val, f"{name}.{label}", i))
            else:
                out.extend(named_leaves(val, name, index))
    return out


def leaves(obj) -> list[Node]:
    """The leaf nodes of a parameter tree, each stacked leaf once: what gradients reach."""
    from .quantum_sim import ParameterizedCircuit

    out: list[Node] = []

    def walk(o):
        if isinstance(o, Node):
            out.append(o)
        elif hasattr(o, "__dataclass_fields__") and not isinstance(o, ParameterizedCircuit):
            for name in _field_names(type(o)):
                walk(getattr(o, name))

    walk(obj)
    return out


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


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

    def predict_nodes(self, static_vars, past_vars=None, future_vars=None) -> list[Node]:
        """Forward pass returning a one-entry list: the (tau,) prediction node of the quantile.

        The inputs are one window, shaped (m_static,), (k, m_past) and
        (tau, m_future), or a batch of windows with one leading axis more
        each, giving (batch, tau); or ``static_vars`` is :class:`Inputs`
        holding them, laid out once for many passes.  An input whose last
        axis does not hold the model's number of variables, or whose window
        axes differ from the others', raises ``ValueError``.  A taped pass
        starts a fresh tape (``grad.new_tape``).

        Block values are (..., T, width), and (..., k, T, width) for a block
        with a set axis; each stage makes one block call over all positions,
        and only the LSTM steps.  The static input is one position, so the
        contexts broadcast over positions.  One entity's batch runs the
        static path once and the selection networks once per distinct step
        row, as one-position rows that ``grad.gather`` lays out per window
        and step.
        """
        p = self.params
        if isinstance(static_vars, Inputs):
            inputs = static_vars
        elif past_vars is None or future_vars is None:
            raise TypeError("predict_nodes takes the three input arrays, or one Inputs")
        else:
            inputs = Inputs.of(static_vars, past_vars, future_vars)
        for name, values, embeds in (("static_vars", inputs.static, p.static_embed),
                                     ("past_vars", inputs.past, p.past_embed),
                                     ("future_vars", inputs.future, p.future_embed)):
            if values.shape[-1] != len(embeds.W.value):
                raise ValueError(f"{name} has {values.shape[-1]} variables, "
                                 f"the model takes {len(embeds.W.value)}")
        grad.new_tape()
        k, tau = inputs.past.shape[-2], inputs.future.shape[-2]
        mask = causal_mask(k + tau) if self.cfg.use_causal_mask else None

        def embed(series, embeds):
            """One linear d_model embedding per scalar variable, the variables on the set axis."""
            return self.dense(embeds, np.swapaxes(series, -1, -2)[..., None])

        def steps(seq):
            return [grad.part(seq, np.s_[..., t:t + 1, :]) for t in range(seq.value.shape[-2])]

        def gated_skip(skip, x, glu_p):
            return grad.layer_norm(grad.add(skip, self.glu(x, glu_p)))

        def future(seq):
            return grad.part(seq, np.s_[..., k:k + tau, :])

        def selected(series, distinct, embeds, vsn):
            """The selection network's output at every (window, step), gathered from its
            distinct step rows when they are given."""
            if distinct is None:
                return self.select(embed(series, embeds), c_s, vsn)
            rows, at = distinct
            return grad.gather(self.select(embed(rows, embeds), c_s, vsn), at)

        xi_static = self.select(embed(inputs.static[..., None, :], p.static_embed), None,
                                p.static_vsn)
        contexts = self.grn(shared_input(xi_static), None, p.static_encoders)
        c_s, c_e, c_c, c_h = (grad.part(contexts, np.s_[..., i, :, :]) for i in range(4))

        past_sel = selected(inputs.past, inputs.past_distinct, p.past_embed, p.past_vsn)
        future_sel = selected(inputs.future, inputs.future_distinct, p.future_embed, p.future_vsn)

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
        out = self.dense(p.heads, future_repr)
        return [grad.reshape(out, out.value.shape[:-1])]

    def predict(self, static_vars, past_vars, future_vars) -> np.ndarray:
        """The quantile forecast without a tape: (tau,) for one window, (batch, tau) for a batch."""
        with grad.no_tape():
            return self.predict_nodes(static_vars, past_vars, future_vars)[0].value

    def named_leaves(self) -> list[tuple[str, Node]]:
        """Snapshot names and nodes, to read or write in place (``value[...] =``); a block of a
        set is a view of its slice and gets no gradient, so training uses :meth:`leaves`."""
        return named_leaves(self.params)

    def leaves(self) -> list[Node]:
        return leaves(self.params)

    def param_count(self) -> int:
        return sum(node.value.size for node in self.leaves())
