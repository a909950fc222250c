"""Benchmark-side tracer for the per-layer metrics.

``Tracer`` wraps public entry points of the sdtp layers at run time (it
rebinds module and class attributes while installed and restores them
afterwards; no file of the program changes).  Each wrapped call records a
span ``[name, start, end, parent, op, counts]`` in memory: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the id of the benchmark
op the call belongs to, and ``counts`` the work computed at the boundary
from the argument and result shapes (MACs, bytes, elements).

``layer_metrics`` folds the spans into the per-layer metrics.  A span's self
time is its duration minus the durations of its child spans.  Sums are per
op (divided by the number of traced ops); ratios carry their base as a
separate count.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager

import numpy as np

from sdtp import attention, cdi, gradcheck, isp, pyramid
from sdtp import tensor as T

OP = "op"


def _conv_counts(args, out, _ctx):
    x, w = args[0], args[1]
    out_c, c_in, kh, kw = w.shape
    macs = out_c * c_in * kh * kw * out.shape[1] * out.shape[2]
    nbytes = (x.size + w.size + out.size) * out.data.itemsize
    return [macs, nbytes, kh, kw]


def _matmul_counts(args, _out, _ctx):
    a, b = args[0], args[1]
    return [a.shape[0] * a.shape[1] * b.shape[1]]


def _elems(args, _out, _ctx):
    return [args[0].size]


def _nonzero(_args, out, _ctx):
    return [int(np.count_nonzero(out.data)), out.size]


def _tape_counts(_args, out, _ctx):
    """Op outputs that carry a backward closure, reachable from the pipeline
    outputs, and the bytes of their data.  Walks the graph through the
    tensors' private links: ``sdtp.tensor`` has no public graph walk."""
    outs, dep = out
    stack = list(outs.values()) + ([dep] if dep is not None else [])
    seen: set[int] = set()
    nodes = nbytes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen or not t.requires_grad:
            continue
        seen.add(id(t))
        if t._vjp is not None:
            nodes += 1
            nbytes += t.data.nbytes
        stack.extend(t._parents)
    return [nodes, nbytes]


def _count_fn_evals(args):
    evals = [0]
    fn = args[0]

    def counted(*a, **kw):
        evals[0] += 1
        return fn(*a, **kw)

    return (counted,) + tuple(args[1:]), evals


def _gradcheck_counts(_args, report, evals):
    return [evals[0], int(report.passed)]


# (owner, attribute, span name, counts(args, result, ctx), prepare(args) -> (args, ctx))
TARGETS = [
    (T, "conv2d", "tensor.conv2d", _conv_counts, None),
    (T, "matmul", "tensor.matmul", _matmul_counts, None),
    (T, "gelu", "tensor.gelu", _elems, None),
    (T, "layer_norm", "tensor.layer_norm", None, None),
    (T, "softmax_rows", "tensor.softmax_rows", None, None),
    (T.Tensor, "backward", "tensor.backward", None, None),
    (T.Mlp, "__call__", "tensor.mlp", None, None),
    (attention, "arf_op", "arf.arf_op", _nonzero, None),
    # attention.py, isp.py and cdi.py each bind their own name
    (attention, "multi_head_attention", "attention.mha", None, None),
    (isp, "multi_head_attention", "attention.mha", None, None),
    (cdi, "multi_head_attention", "attention.mha", None, None),
    (isp.IspBlock, "__call__", "isp.block", None, None),
    (cdi.CdiBlock, "__call__", "cdi.block", None, None),
    (cdi, "decouple", "cdi.decouple", None, None),
    (cdi, "mga", "cdi.mga", None, None),
    (cdi, "decouple_loss", "cdi.decouple_loss", None, None),
    (pyramid.Pipeline, "forward_tensors", "pyramid.forward", _tape_counts, None),
    (gradcheck, "vjp_check", "gradcheck.vjp_check", _gradcheck_counts, _count_fn_evals),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op = -1

    def _wrap(self, owner, attr, name, counts, prepare):
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            ctx = None
            if prepare is not None:
                args, ctx = prepare(args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, out, ctx)
            return out

        self._saved.append((owner, attr, orig))
        setattr(owner, attr, traced)

    @contextmanager
    def op(self, op_id: int):
        """Trace one benchmark op: wrap the entry points, record a root
        span around the op, and restore the entry points afterwards."""
        for target in TARGETS:
            self._wrap(*target)
        self._op = op_id
        span = [OP, 0.0, 0.0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            while self._saved:
                owner, attr, orig = self._saved.pop()
                setattr(owner, attr, orig)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as f:
            for name, start, end, parent, op, counts in self.spans:
                f.write(json.dumps([name, start - t0, end - t0, parent, op, counts]) + "\n")


_NO_COUNTS = [0, 0, 0, 0]

# ancestor flags carried down the span tree
_FWD, _ISP, _CDI, _CDI_MLP, _MHA = 1, 2, 4, 8, 16
_OWN_FLAG = {"pyramid.forward": _FWD, "isp.block": _ISP, "cdi.block": _CDI,
             "attention.mha": _MHA}


def attention_macs_by_op(spans) -> dict[int, int]:
    """Matmul MACs inside attention spans, per op id (to compare with
    ``complexity.MacCounter``)."""
    flags = _flags(spans)
    out: dict[int, int] = {}
    for i, (name, _s, _e, _p, op, counts) in enumerate(spans):
        if name == "tensor.matmul" and flags[i] & _MHA and counts:
            out[op] = out.get(op, 0) + counts[0]
    return out


def _flags(spans) -> list[int]:
    """Flags of each span's strict ancestors (parents precede children)."""
    flags = [0] * len(spans)
    for i, (name, _s, _e, parent, _op, _c) in enumerate(spans):
        if parent < 0:
            continue
        pname = spans[parent][0]
        own = _OWN_FLAG.get(pname, 0)
        if pname == "tensor.mlp" and flags[parent] & _CDI:
            own = _CDI_MLP
        flags[i] = flags[parent] | own
    return flags


def layer_metrics(spans, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics by name: times and counts per op, and ratios."""
    flags = _flags(spans)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _c in spans:
        if parent >= 0:
            child_time[parent] += end - start

    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    acc: dict[str, float] = {}

    def add(key, v):
        acc[key] = acc.get(key, 0) + v

    cdi_end: dict[int, float] = {}
    for i, (name, start, end, parent, _op, counts) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        counts = counts or _NO_COUNTS  # a call that raised has none
        f = flags[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name in ("tensor.conv2d", "tensor.matmul"):
            macs = counts[0]
            add(name + ".macs", macs)
            for flag, key in ((_FWD, "pyramid.macs"), (_ISP, "isp.macs"), (_CDI, "cdi.macs"),
                              (_CDI_MLP, "cdi.mlp.macs"), (_MHA, "attention.macs")):
                if f & flag:
                    add(key, macs)
            if name == "tensor.conv2d":
                add("tensor.conv2d.bytes", counts[1])
                if parent_name == "pyramid.forward":
                    stage = "lateral" if counts[2:] == [1, 1] else "topdown"
                    add(f"pyramid.{stage}.macs", macs)
                    if stage == "lateral":
                        add("pyramid.lateral.s", dur)
        elif name == "tensor.gelu":
            add("tensor.gelu.elems", counts[0])
        elif name == "arf.arf_op":
            add("arf.nonzero", counts[0])
            add("arf.scores", counts[1])
        elif name == "tensor.mlp" and f & _CDI:
            add("cdi.mlp.s", dur)
        elif name == "cdi.block" and parent_name == "pyramid.forward":
            cdi_end[parent] = end
        elif name == "pyramid.forward":
            add("tensor.tape_nodes", counts[0])
            add("tensor.tape_bytes", counts[1])
        elif name == "gradcheck.vjp_check":
            add("gradcheck.fn_evals", counts[0])
            add("gradcheck.passed", counts[1])
    # top-down decoding is everything a forward does after its CDI stage
    for fwd, end_of_cdi in cdi_end.items():
        add("pyramid.topdown.s", spans[fwd][2] - end_of_cdi)

    n_ops = max(calls.get(OP, 0), 1)
    vjp_calls = calls.get("gradcheck.vjp_check", 0)
    values = {
        "tensor.conv2d.self_s": self_time.get("tensor.conv2d", 0.0) / n_ops,
        "tensor.conv2d.calls": calls.get("tensor.conv2d", 0) / n_ops,
        "tensor.matmul.self_s": self_time.get("tensor.matmul", 0.0) / n_ops,
        "tensor.gelu.self_s": self_time.get("tensor.gelu", 0.0) / n_ops,
        "tensor.layer_norm.self_s": self_time.get("tensor.layer_norm", 0.0) / n_ops,
        "tensor.softmax_rows.self_s": self_time.get("tensor.softmax_rows", 0.0) / n_ops,
        "tensor.backward.s": total.get("tensor.backward", 0.0) / n_ops,
        "tensor.backward.calls": calls.get("tensor.backward", 0) / n_ops,
        "arf.arf_op.self_s": self_time.get("arf.arf_op", 0.0) / n_ops,
        "arf.nonzero_ratio": acc.get("arf.nonzero", 0) / max(acc.get("arf.scores", 0), 1),
        "attention.mha.s": total.get("attention.mha", 0.0) / n_ops,
        "attention.mha.calls": calls.get("attention.mha", 0) / n_ops,
        "isp.block.s": total.get("isp.block", 0.0) / n_ops,
        "cdi.block.s": total.get("cdi.block", 0.0) / n_ops,
        "cdi.decouple.s": total.get("cdi.decouple", 0.0) / n_ops,
        "cdi.mga.s": total.get("cdi.mga", 0.0) / n_ops,
        "cdi.decouple_loss.s": total.get("cdi.decouple_loss", 0.0) / n_ops,
        "pyramid.forward.s": total.get("pyramid.forward", 0.0) / n_ops,
        "gradcheck.vjp_check.s": total.get("gradcheck.vjp_check", 0.0) / n_ops,
        "gradcheck.vjp_check.calls": vjp_calls / n_ops,
        "gradcheck.pass_ratio": acc.get("gradcheck.passed", 0) / max(vjp_calls, 1),
        "trace.overhead_ratio": overhead_ratio,
    }
    for key in ("tensor.conv2d.macs", "tensor.conv2d.bytes", "tensor.matmul.macs",
                "tensor.gelu.elems", "tensor.tape_nodes", "tensor.tape_bytes",
                "attention.macs", "isp.macs", "cdi.macs", "cdi.mlp.s", "cdi.mlp.macs",
                "pyramid.lateral.s", "pyramid.lateral.macs", "pyramid.topdown.s",
                "pyramid.topdown.macs", "pyramid.macs", "gradcheck.fn_evals"):
        values[key] = acc.get(key, 0) / n_ops
    return values
