"""Spans around samaseg's public calls, recorded from the benchmark's own
files by wrapping module and class attributes while a `Tracer` is
installed. Each span has a name, a start, an end and a parent; spans are
kept in memory and written out when the run ends.

Also here: collector pauses as spans (via `gc.callbacks`), tape-node
counting (by wrapping `Tensor._op`), capture of the first input of the
probed layers, and the layer probes themselves.
"""

from __future__ import annotations

import functools
import gc
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import samaseg.attention
import samaseg.crmsm
import samaseg.data
import samaseg.io
import samaseg.layers
import samaseg.metrics
import samaseg.model
import samaseg.optim
import samaseg.sama
import samaseg.ssm
import samaseg.train
from samaseg.tensor import Tensor

GC_SPAN = "tensor.gc"

# (owner, attribute, span name or a function of the receiver giving it)
TARGETS = [
    (samaseg.model.SamaUNet, "__call__", "model.fwd"),
    (samaseg.train, "seg_loss", "model.seg_loss"),
    (Tensor, "backward", "tensor.backward"),
    (samaseg.optim.AdamW, "step", "optim.step"),
    (samaseg.sama.SamaBlock, "__call__", "sama.fwd"),
    (samaseg.attention.DiffAggAttention, "__call__", lambda m: f"attention.{m.kind}.fwd"),
    (samaseg.crmsm.CrMsm, "__call__", "crmsm.fwd"),
    (samaseg.crmsm.CrMsmScale, "__call__", "crmsm.scale.fwd"),
    (samaseg.ssm.SelectiveSsm, "__call__", "ssm.fwd"),
    (samaseg.layers, "conv2d", "layers.conv2d"),
    (samaseg.attention, "adaptive_avg_pool2d", "layers.adaptive_avg_pool2d"),
    (samaseg.train, "mean_foreground_dsc", "metrics.mean_foreground_dsc"),
    (samaseg.metrics, "evaluate_pair", "metrics.evaluate_pair"),
    (samaseg.io, "save_checkpoint", "io.save_checkpoint"),
    (samaseg.io, "load_checkpoint", "io.load_checkpoint"),
    (samaseg.data, "generate_dataset", "data.generate_dataset"),
    (samaseg.data, "load_dataset", "data.load_dataset"),
]

# Layers whose first call's receiver and input are kept for the probes.
PROBED = ("ssm.fwd", "crmsm.scale.fwd", "attention.local.fwd", "attention.global.fwd")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int        # index into Tracer.spans, -1 at top level
    nodes: int = 0     # tape nodes created while open, when counting


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counting = False
        self.nodes = 0
        self.capturing = False
        self.captured: dict[str, tuple] = {}
        self._gc_start = 0.0

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        self.spans.append(Span(name, time.perf_counter(), 0.0,
                               self.stack[-1] if self.stack else -1))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.spans.append(Span(GC_SPAN, self._gc_start, time.perf_counter(),
                                   self.stack[-1] if self.stack else -1))

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args[0]) if callable(name) else name
            if tracer.capturing and span_name in PROBED and span_name not in tracer.captured:
                tracer.captured[span_name] = (args[0], args[1].data.copy())
            idx = tracer._open(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target and record collector pauses until exit."""
        saved = []
        try:
            for owner, attr, name in TARGETS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def counting_nodes(self):
        """Count tape nodes (ops whose result requires grad), per open span,
        and keep the first input of each probed layer."""
        original = vars(Tensor)["_op"]
        op = original.__func__
        tracer = self

        def counted_op(data, parents, backward):
            out = op(data, parents, backward)
            if out.requires_grad:
                tracer.nodes += 1
                for idx in tracer.stack:
                    tracer.spans[idx].nodes += 1
            return out

        Tensor._op = staticmethod(counted_op)
        self.capturing = True
        try:
            yield self
        finally:
            self.capturing = False
            Tensor._op = original

    # -- summaries ----------------------------------------------------------

    def totals(self, t0: float = float("-inf"), t1: float = float("inf")) -> dict:
        """Per span name, over spans starting in [t0, t1): calls, inclusive
        seconds, self seconds (minus child spans) and inclusive nodes."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "nodes": 0})
        for i, s in enumerate(self.spans):
            if t0 <= s.start < t1:
                row = out[s.name]
                row["calls"] += 1
                row["incl_s"] += s.end - s.start
                row["self_s"] += s.end - s.start - child[i]
                row["nodes"] += s.nodes
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def write(self, path, t_origin: float):
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                    "start_s": s.start - t_origin, "end_s": s.end - t_origin,
                                    "nodes": s.nodes}) + "\n")


def format_table(totals: dict, steps: int) -> str:
    lines = [f"  {'span':<32} {'calls/step':>10} {'incl ms/step':>13} {'self ms/step':>13}"]
    for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:<32} {row['calls'] / steps:>10.2f} "
                     f"{row['incl_s'] * 1e3 / steps:>13.3f} {row['self_s'] * 1e3 / steps:>13.3f}")
    return "\n".join(lines)


# -- layer probes -------------------------------------------------------------

def scale_up(name: str, x: np.ndarray) -> np.ndarray:
    """The probe input at 4x the length (scan tokens [B,L,C]) or 4x the
    pixels (maps [B,C,H,W]), by repetition."""
    if name == "ssm.fwd":
        return np.concatenate([x] * 4, axis=1)
    return x.repeat(2, axis=2).repeat(2, axis=3)


def probe(module, x: np.ndarray, reps: int, backward: bool = True, seed: int = 0):
    """Median forward and seeded-backward seconds of one layer call alone."""
    fwd, bwd = [], []
    for _ in range(reps):
        inp = Tensor(x, requires_grad=True)
        t0 = time.perf_counter()
        out = module(inp)
        fwd.append(time.perf_counter() - t0)
        if backward:
            g = np.random.default_rng(seed).standard_normal(out.shape).astype(out.dtype)
            t0 = time.perf_counter()
            out.backward(g)
            bwd.append(time.perf_counter() - t0)
            module.zero_grad()
        del out, inp
    return statistics.median(fwd), (statistics.median(bwd) if backward else None)
