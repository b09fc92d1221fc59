"""Spans around calls into qtft's modules, recorded from outside the package.

A :class:`Tracer` replaces module attributes with timing wrappers and puts
the originals back on exit.  Each wrapper sits at the binding its caller
actually looks up: ``grad`` calls ``run_circuit`` and ``run_bound_batch``
through names it imported from ``quantum_sim``, and ``qtft_core`` calls
``dense``, ``layer_norm``, ``lstm_seq`` and ``quantum_forward`` through
names imported from ``tft_core`` and ``grad``, so those module-level
names are the ones patched.

Model blocks are told apart by the identity of their parameter objects:
a call into ``glu`` or ``qgrn`` opens a block span only when its
parameter argument is one of the model's top-level block parameters.
Parameter-shift time is attributed to a block by the identity of the
circuit handed to ``shift_rule_jacobians``.

Spans are kept in memory as tuples and written out once at the end.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import time

from workloads import BLOCKS

# Parameter fields of TFTParams / QTFTParams and the block each belongs to.
BLOCK_OF_FIELD = {
    "static_embed": "embed", "past_embed": "embed", "future_embed": "embed",
    "static_vsn": "vsn_static", "past_vsn": "vsn_past", "future_vsn": "vsn_future",
    "static_encoders": "static_encoders",
    "encoder_lstm": "recurrence", "decoder_lstm": "recurrence",
    "post_lstm_glu": "post_lstm_gate", "post_lstm_qglu": "post_lstm_gate",
    "post_lstm_norm": "post_lstm_gate",
    "enrichment": "enrichment", "attention": "attention",
    "post_attn_glu": "post_attn_gate", "post_attn_qglu": "post_attn_gate",
    "post_attn_norm": "post_attn_gate",
    "positionwise": "positionwise",
    "final_glu": "final_gate", "final_qglu": "final_gate", "final_norm": "final_gate",
    "heads": "heads",
}

# Block functions per core: attribute name -> position of the parameter argument.
CORE_BLOCK_FUNCTIONS = {
    "tft_core": {"dense": 0, "glu": 1, "grn": 2, "layer_norm": 1,
                 "variable_selection": 2, "static_covariate_encoder": 1,
                 "lstm_seq": 3, "interpretable_multi_head": 1},
    "qtft_core": {"dense": 0, "qglu": 1, "qgrn": 2, "layer_norm": 1,
                  "q_variable_selection": 2, "q_static_covariate_encoder": 1,
                  "lstm_seq": 3, "qlstm_seq": 3, "q_interpretable_multi_head": 1},
}
FORWARD_OF_CORE = {"tft_core": "tft_forward_nodes", "qtft_core": "qtft_forward_nodes"}

PHASES = ("setup", "train", "evaluate", "predict", "check")


def _children(obj):
    if isinstance(obj, (list, tuple)):
        return list(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    return []


def block_maps(params, circuit_type):
    """(id of block parameter object -> block, id of circuit -> block).

    Unknown parameter fields are returned too, so a renamed field shows
    up as unattributed rather than silently untimed.
    """
    param_block, circuit_block, unknown = {}, {}, []
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        block = BLOCK_OF_FIELD.get(f.name)
        if block is None:
            unknown.append(f.name)
            continue
        param_block[id(value)] = block
        if isinstance(value, list):
            for item in value:
                param_block[id(item)] = block
        stack = [value]
        while stack:
            obj = stack.pop()
            if isinstance(obj, circuit_type):
                circuit_block[id(obj)] = block
            else:
                stack.extend(_children(obj))
    return param_block, circuit_block, unknown


class Tracer:
    """Timing wrappers plus the spans and GC pauses they record.

    A span is ``(name_id, start, end, parent, phase, epoch, window, rows,
    tag)``; ``parent`` is the index of the enclosing span or -1, ``rows``
    the batch size of a circuit run, ``tag`` the block of a block or shift
    span and ``(gates, qubits)`` for a circuit run.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.phase = 0
        self.epoch = -1
        self.window = -1
        self.gc_events: list[tuple[float, float, int]] = []
        self._gc_start = None
        self._patches: list[tuple[object, str, object]] = []
        self.unattributed: list[str] = []
        self.circuit_block: dict[int, str] = {}
        self._open_blocks: set[str] = set()

    # -- span bookkeeping -------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def set_phase(self, phase: str) -> None:
        self.phase = PHASES.index(phase)
        self.epoch = -1
        self.window = -1

    def _timed(self, orig, nid, rows_tag=None, on_enter=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            rows, tag = rows_tag(args) if rows_tag is not None else (0, None)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.phase, self.epoch,
                              self.window, rows, tag)

        wrapper.__wrapped__ = orig
        return wrapper

    def _block(self, orig, core, pos, param_block):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        nids = {b: self.name_id(f"{core}.{b}") for b in BLOCKS}
        open_blocks = self._open_blocks

        def wrapper(*args, **kwargs):
            p = args[pos] if len(args) > pos else None
            block = param_block.get(id(p)) if p is not None else None
            if block is None:
                return orig(*args, **kwargs)
            if block in open_blocks:   # e.g. a static encoder inside its list's span
                return orig(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            open_blocks.add(block)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_blocks.discard(block)
                spans[idx] = (nids[block], t0, t1, parent, self.phase, self.epoch,
                              self.window, 0, block)

        wrapper.__wrapped__ = orig
        return wrapper

    def _patch(self, owner, attr: str, wrapper_factory) -> bool:
        orig = getattr(owner, attr, None)
        if orig is None:
            return False
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper_factory(orig))
        return True

    # -- installation -----------------------------------------------------

    def install(self, model) -> None:
        """Wrap every hook for ``model`` (a TFTModel or QTFTModel)."""
        from qtft import forecasting, grad, qtft_core, quantum_sim, tft_core

        modules = {"tft_core": tft_core, "qtft_core": qtft_core}
        core = "qtft_core" if type(model).__module__.endswith("qtft_core") else "tft_core"
        param_block, circuit_block, unknown = block_maps(
            model.params, quantum_sim.ParameterizedCircuit)
        self.unattributed = unknown
        self.circuit_block = circuit_block

        def next_epoch():
            self.epoch += 1
            self.window = -1

        def next_window():
            self.window += 1

        def circuit_shape(args):
            c = args[0]
            return 1, (len(c.ops), c.num_qubits)

        def batch_shape(args):
            c, rows = args[0], args[1]
            return len(rows), (len(c.ops), c.num_qubits)

        def shift_block(args):
            return 0, circuit_block.get(id(args[0]), "")

        simple = [
            (forecasting, "batch_loss_node", "forecasting.batch_loss_node", None, next_epoch),
            (forecasting, "evaluate", "forecasting.evaluate", None, None),
            (grad, "backward", "grad.backward", None, None),
            (grad, "sgd_step", "grad.sgd_step", None, None),
            (grad, "shift_rule_jacobians", "grad.shift_rule_jacobians", shift_block, None),
            (grad, "run_circuit", "quantum_sim.run_circuit", circuit_shape, None),
            (grad, "run_bound_batch", "quantum_sim.run_bound_batch", batch_shape, None),
            (qtft_core, "quantum_forward", "grad.quantum_forward", None, None),
        ]
        for mod_name, mod in modules.items():
            simple.append((mod, FORWARD_OF_CORE[mod_name], f"{mod_name}.forward_nodes",
                           None, next_window))
        for owner, attr, name, rows_tag, on_enter in simple:
            nid = self.name_id(name)
            self._patch(owner, attr,
                        lambda orig, nid=nid, rt=rows_tag, oe=on_enter:
                        self._timed(orig, nid, rt, oe))

        for mod_name, functions in CORE_BLOCK_FUNCTIONS.items():
            blocks_here = param_block if mod_name == core else {}
            for attr, pos in functions.items():
                self._patch(modules[mod_name], attr,
                            lambda orig, m=mod_name, p=pos, pb=blocks_here:
                            self._block(orig, m, p, pb))

        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_events.append((self._gc_start, time.perf_counter(), self.phase))
            self._gc_start = None

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Count, inclusive and self seconds per span name and phase."""
        selfs = self.self_times()
        agg: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, selfs):
            key = f"{PHASES[s[4]]}:{self.names[s[0]]}"
            a = agg.setdefault(key, {"count": 0, "inclusive_s": 0.0, "self_s": 0.0})
            a["count"] += 1
            a["inclusive_s"] += s[2] - s[1]
            a["self_s"] += own
        return agg

    def write(self, path: str) -> None:
        selfs = self.self_times()
        spans = [[s[0], s[1], s[2], s[3], PHASES[s[4]], s[5], s[6], s[7],
                  list(s[8]) if isinstance(s[8], tuple) else s[8], own]
                 for s, own in zip(self.spans, selfs)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "span_fields": ["name", "start", "end", "parent", "phase", "epoch",
                                "window", "rows", "tag", "self_s"],
                "names": self.names,
                "summary": self.summary(),
                "gc_events": self.gc_events,
                "spans": spans,
            }, fh)
