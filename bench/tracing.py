"""In-memory span tracer that instruments the utsf layers from outside.

``install(tracer)`` replaces public functions of ``utsf.tensor``, ``utsf.model``,
``utsf.data``, ``utsf.training`` and ``utsf.cli`` with wrappers that record a
span around each call. This works without touching the package because every
caller looks those functions up at call time: ``model.py`` calls ``T.<op>``,
``training.py`` and ``cli.py`` call ``D.<fn>`` / ``TR.<fn>``, and the ops in
``tensor.py`` reach each other and ``record_op`` through module globals.
Wrapping ``record_op`` also wraps each VJP closure, so backward time is split
per op.

A span is ``[name, start, end, parent, root]``: ``parent`` and ``root`` are
indices into ``Tracer.spans`` (-1 for none). The benchmark opens a root span
per set-up, step or request; ``Tracer.ids[root]`` holds that root's id.

Self time: a span's duration minus the spans *of the same layer* nested in it.
The layer is the first part of the name (``tensor``, ``model``, ``data``,
``training``, ``cli``), so ``model.head`` counts the tensor ops it calls, while
``tensor.backward`` excludes the VJP spans it runs.
"""

from __future__ import annotations

import time
from collections import defaultdict

# ops named by the per-layer metrics; every other tensor op is wrapped too so
# its time is not charged to the span that called it
REPORTED_OPS = ("matmul", "add", "mul", "gelu", "layer_norm", "softmax_lastdim",
                "conv1d_k2s2", "conv_transpose1d_k2s2", "transpose", "reshape",
                "narrow", "adaptive_avg_pool1d")
_OTHER_OPS = ("sub", "neg", "pointwise_conv", "concat", "sum_all", "mean_all")

_SAMPLING = ("jittered_windows", "weighted_sample", "normalize_sample",
             "zero_mask_patches", "mask_series", "make_window_sample")

_MODEL_METHODS = {"__init__": "model.build", "patch_embed": "model.embed",
                  "backbone_forward": "model.backbone", "patch_merge": "model.merge",
                  "patch_split": "model.split", "reconstruction_head": "model.head",
                  "forecast_head": "model.head"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.ids: dict[int, object] = {}
        self.counts: dict[tuple, float] = defaultdict(float)  # (root name, key) -> total
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, stack[0] if stack else idx]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def root(self, name: str, ident, fn, *args):
        """Run ``fn(*args)`` inside a new root span carrying ``ident``."""
        if self._stack:
            raise RuntimeError(f"root span '{name}' opened inside another span")
        self.ids[len(self.spans)] = ident
        return self.wrap(name, fn)(*args)

    def count(self, key: str, value: float) -> None:
        root = self.spans[self._stack[0]][0] if self._stack else ""
        self.counts[(root, key)] += value

    def self_times(self) -> list[float]:
        spans = self.spans
        out = [s[2] - s[1] for s in spans]
        layer = [s[0].split(".", 1)[0] for s in spans]
        for i, s in enumerate(spans):
            p = s[3]
            while p >= 0 and layer[p] != layer[i]:
                p = spans[p][3]
            if p >= 0:
                out[p] -= spans[i][2] - spans[i][1]
        return out

    def rollup(self, root_name: str) -> tuple[dict, dict, int]:
        """Returns ``(inside, calls, n_roots)``: per span name, the self seconds
        inside roots named ``root_name``; per span name, ``[calls, self
        seconds]`` anywhere; and the number of roots named ``root_name``."""
        inside: dict[str, float] = defaultdict(float)
        calls: dict[str, list] = defaultdict(lambda: [0, 0.0])
        n_roots = 0
        for s, t in zip(self.spans, self.self_times()):
            if s[3] == -1 and s[0] == root_name:
                n_roots += 1
            if self.spans[s[4]][0] == root_name:
                inside[s[0]] += t
            c = calls[s[0]]
            c[0] += 1
            c[1] += t
        return inside, calls, n_roots

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,root,root_id\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]:.9f},{s[2]:.9f},{s[3]},{s[4]},{self.ids.get(s[4], '')}\n")


def install(tracer: Tracer):
    """Wrap the utsf layers; returns a function that restores the originals."""
    from utsf import cli as C
    from utsf import data as D
    from utsf import model as M
    from utsf import tensor as T
    from utsf import training as TR

    saved: list[tuple] = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for op in REPORTED_OPS + _OTHER_OPS:
        patch(T, op, tracer.wrap(f"tensor.fwd.{op}", getattr(T, op)))

    record_op = T.record_op

    def counting_record_op(name, out_data, inputs, vjp):
        tracer.count("tensor.out_bytes", out_data.nbytes)
        return record_op(name, out_data, inputs, tracer.wrap(f"tensor.vjp.{name}", vjp))

    patch(T, "record_op", counting_record_op)

    backward = tracer.wrap("tensor.backward", T.GradTape.backward)

    def counting_backward(tape, loss):
        tracer.count("tensor.nodes", len(tape))
        return backward(tape, loss)

    patch(T.GradTape, "backward", counting_backward)

    for method, name in _MODEL_METHODS.items():
        patch(M.UShapedTransformer, method, tracer.wrap(name, getattr(M.UShapedTransformer, method)))

    load_csv = tracer.wrap("data.load_csv", D.load_csv_dataset)

    def counting_load_csv(*args, **kwargs):
        frame = load_csv(*args, **kwargs)
        tracer.count("data.csv_rows", frame.length)
        return frame

    patch(D, "load_csv_dataset", counting_load_csv)
    patch(D, "build_model_input", tracer.wrap("data.build_model_input", D.build_model_input))
    for fn in _SAMPLING:
        patch(D, fn, tracer.wrap("data.sample", getattr(D, fn)))

    adam_step = tracer.wrap("training.adam", TR.Adam.step)

    def counting_step(opt):
        produced = useful = updated = 0
        for name, p in opt.params.items():
            frozen = opt.params.frozen(name)
            if p.grad is not None:
                produced += p.grad.size
                useful += 0 if frozen else p.grad.size
            updated += 0 if frozen else p.size
        tracer.count("training.grad_produced", produced)
        tracer.count("training.grad_useful", useful)
        tracer.count("training.adam_scalars", updated)
        return adam_step(opt)

    patch(TR.Adam, "step", counting_step)
    patch(TR.ModelPredictor, "__call__", tracer.wrap("training.eval_window", TR.ModelPredictor.__call__))
    for fn in ("load_checkpoint", "apply_checkpoint"):
        patch(TR, fn, tracer.wrap("training.ckpt_load", getattr(TR, fn)))
    patch(TR, "save_checkpoint", tracer.wrap("training.ckpt_save", TR.save_checkpoint))

    patch(C.RunConfig, "load", classmethod(tracer.wrap("cli.config", C.RunConfig.load.__func__)))
    patch(C, "_write", tracer.wrap("cli.write", C._write))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall

