"""Finite-difference verification of analytic gradients.

``vjp_check`` compares the recorded backward pass of any differentiable
function against central-difference directional derivatives, one random
direction at a time, so the cost stays proportional to the number of
tensors rather than the number of elements.  A registry of named cases
covers every differentiable operation in the package plus the end-to-end
pipeline; the CLI and the test suite both drive it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import attention as AT
from . import cdi as D
from . import isp as I
from . import pyramid as P
from . import tensor as T
from .arf import arf_op
from .config import CdiConfig, GradCheckConfig, IspConfig, PipelineConfig
from .tensor import Tensor

DEFAULT_TOLERANCE = GradCheckConfig.tolerance
DEFAULT_STEP = GradCheckConfig.step
REL_ERR_FLOOR = 1e-8
# random directions per input tensor
DIRECTIONS = 2
# step divisions by 4 tried on a direction that fails or passes narrowly
MAX_REFINEMENTS = 8
# base-step errors at or above this fraction of the tolerance are refined
REFINE_FRACTION = 0.1


@dataclass
class TensorCheck:
    name: str
    rel_err: float
    step: float


@dataclass
class GradCheckReport:
    op: str
    tolerance: float
    entries: list[TensorCheck] = field(default_factory=list)
    passed: bool = False
    diagnostic: str | None = None

    @property
    def max_rel_err(self) -> float:
        return max((e.rel_err for e in self.entries), default=0.0)

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "max_rel_err": self.max_rel_err,
            "diagnostic": self.diagnostic,
            "entries": [{"name": e.name, "rel_err": e.rel_err, "step": e.step} for e in self.entries],
        }


def _rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), REL_ERR_FLOOR)


def _central_difference(fn: Callable[..., Tensor], tensors: list[Tensor], t: Tensor,
                        base: np.ndarray, d: np.ndarray, h: float,
                        upstream: np.ndarray) -> float:
    """Derivative of <upstream, fn(...)> along d at t = base, by a central
    difference of step h; t is left at base."""
    with T.no_grad():
        t.data = base + h * d
        hi = float((fn(*tensors).data * upstream).sum())
        t.data = base - h * d
        lo = float((fn(*tensors).data * upstream).sum())
    t.data = base
    return (hi - lo) / (2.0 * h)


def vjp_check(fn: Callable[..., Tensor], inputs: list[tuple[str, Tensor]],
              tolerance: float = DEFAULT_TOLERANCE, step: float = DEFAULT_STEP,
              seed: int = 0, op_name: str = "op") -> GradCheckReport:
    """Check fn's backward pass at the given point.

    For each input tensor x and random direction d, the directional
    derivative of <u, fn(...)> (u a fixed random upstream) is estimated
    with a central difference of size step * max(1, max|x|) and compared
    against <grad_x, d> from the recorded backward pass.  Relative error
    uses |a - n| / max(|a|, |n|, 1e-8).

    A kink of fn (the refinement gate's, at 0) closer to the point than the
    step skews the difference by up to O(1), however right the VJP is, and
    by just under the tolerance it would hide a VJP error of that size.  So
    a direction that fails, or passes with an error of at least
    REFINE_FRACTION of the tolerance, is estimated again with the step
    divided by 4, up to MAX_REFINEMENTS times, until two successive
    estimates agree within the tolerance, and the VJP is judged against the
    finer one; a wrong VJP disagrees with it too.  If no two estimates
    agree, the report carries a "non-differentiable point" diagnostic.

    Refinement stops before a step at which the difference's own rounding,
    eps * sum|u * fn(...)| / step, would exceed the tolerance times the
    current estimate, and the direction keeps its base-step verdict: a
    smaller step would only magnify rounding, and a tiny directional
    derivative's finer estimates would drift apart until both are exact
    zeros, which agree.  A direction whose base-step error is below
    REFINE_FRACTION of the tolerance costs no extra evaluation.
    """
    report = GradCheckReport(op=op_name, tolerance=tolerance)
    rng = np.random.default_rng(seed)
    tensors = [t for _, t in inputs]
    # each input's flag is restored on every return, the early ones too
    flags = [t.requires_grad for t in tensors]
    try:
        for t in tensors:
            t.requires_grad = True
            t.grad = None

        out = fn(*tensors)
        if not np.all(np.isfinite(out.data)):
            report.diagnostic = "non-finite forward output"
            return report
        upstream = rng.standard_normal(out.data.shape)
        # rounding every term of <upstream, fn(...)> once moves it by about this
        rounding = np.finfo(np.float64).eps * float(np.abs(out.data * upstream).sum())
        if out.requires_grad:  # else no input reaches the output: diagnosed below
            out.backward(upstream)
        grads = [t.grad for t in tensors]
        for t in tensors:
            t.grad = None

        for (name, _), g in zip(inputs, grads):
            if g is None:
                report.diagnostic = f"no gradient reached input {name!r}"
                return report
            if not np.all(np.isfinite(g)):
                report.diagnostic = f"non-finite gradient for input {name!r}"
                return report

        for (name, t), g in zip(inputs, grads):
            base = t.data.copy()
            h = step * max(1.0, float(np.abs(base).max()) if base.size else 1.0)
            worst, worst_step = 0.0, h
            for _ in range(DIRECTIONS):
                d = rng.standard_normal(base.shape)
                nd = float(np.sqrt((d * d).sum()))
                if nd > 0:
                    d = d / nd
                analytic = float((g * d).sum())
                hd = h
                numeric = _central_difference(fn, tensors, t, base, d, hd, upstream)
                err = _rel_err(analytic, numeric)
                if err >= REFINE_FRACTION * tolerance:
                    for _ in range(MAX_REFINEMENTS):
                        if 4.0 * rounding / hd > tolerance * abs(numeric):
                            hd = h
                            break
                        coarse, hd = numeric, hd / 4.0
                        numeric = _central_difference(fn, tensors, t, base, d, hd, upstream)
                        if _rel_err(numeric, coarse) < tolerance:
                            err = _rel_err(analytic, numeric)
                            break
                    else:
                        report.diagnostic = (
                            f"non-differentiable point: central differences for input {name!r} "
                            f"still disagree after {MAX_REFINEMENTS} step refinements "
                            f"(step {h:.1e} down to {hd:.1e})")
                        return report
                if err > worst:
                    worst, worst_step = err, hd
            report.entries.append(TensorCheck(name=name, rel_err=worst, step=worst_step))

        report.passed = report.max_rel_err < tolerance
        return report
    finally:
        for t, flag in zip(tensors, flags):
            t.requires_grad = flag


# ---------------------------------------------------------------------------
# case registry

CaseFactory = Callable[[np.random.Generator], tuple[Callable[..., Tensor], list[tuple[str, Tensor]]]]

_REGISTRY: dict[str, CaseFactory] = {}


def _register(name: str) -> Callable[[CaseFactory], CaseFactory]:
    def deco(factory: CaseFactory) -> CaseFactory:
        _REGISTRY[name] = factory
        return factory
    return deco


def registered_cases() -> list[str]:
    return list(_REGISTRY)


def run_case(name: str, points: int = GradCheckConfig.points,
             tolerance: float = DEFAULT_TOLERANCE, step: float = DEFAULT_STEP, seed: int = 0,
             factory: CaseFactory | None = None) -> GradCheckReport:
    """Run one case at `points` seeded random points and fold the per-point
    reports into a single worst-case report.  The case is the registered
    one named `name`, or `factory` when given (which never registers it,
    as for the negative control)."""
    if factory is None:
        if name not in _REGISTRY:
            raise KeyError(f"unknown gradcheck case {name!r}")
        factory = _REGISTRY[name]
    folded = GradCheckReport(op=name, tolerance=tolerance)
    worst: dict[str, TensorCheck] = {}
    for k in range(points):
        rng = np.random.default_rng((seed, k))
        fn, inputs = factory(rng)
        rep = vjp_check(fn, inputs, tolerance=tolerance, step=step,
                        seed=1000 + k, op_name=name)
        if rep.diagnostic is not None:
            folded.diagnostic = f"point {k}: {rep.diagnostic}"
            folded.passed = False
            return folded
        for e in rep.entries:
            if e.name not in worst or e.rel_err > worst[e.name].rel_err:
                worst[e.name] = e
    folded.entries = list(worst.values())
    folded.passed = folded.max_rel_err < tolerance
    return folded


def run_all(names: list[str], points: int = GradCheckConfig.points,
            tolerance: float = DEFAULT_TOLERANCE, step: float = DEFAULT_STEP,
            seed: int = 0) -> list[GradCheckReport]:
    return [run_case(n, points=points, tolerance=tolerance, step=step, seed=seed) for n in names]


def corrupted_linear(rng: np.random.Generator):
    """A deliberately wrong backward pass (the negative control, never
    registered): the forward is y = 2x but the recorded VJP claims the
    factor is 2.5, so any sound checker must flag it."""
    x = Tensor(rng.standard_normal((3, 3)))

    def fn(x):
        return Tensor._from_op(2.0 * x.data, (x,), lambda g: (2.5 * g,))

    return fn, [("x", x)]


def _op_case(name: str, op: Callable[..., Tensor], **shapes: tuple[int, ...]) -> None:
    """Register a case that draws one standard-normal input per keyword, in
    keyword order, and applies op to them.  op must look its T.<op> up when
    called, so that a wrapper installed later (the bench tracer) sees it."""
    def factory(rng):
        return op, [(n, Tensor(rng.standard_normal(s))) for n, s in shapes.items()]
    _register(name)(factory)


def _attention_params(w: AT.AttentionWeights) -> list[tuple[str, Tensor]]:
    return list(zip(["wq", "wk", "wv", "wo"], w.params()))


def _attention_core(mode: str) -> CaseFactory:
    def factory(rng):
        w = AT.attention_weights(rng, c=8, n_heads=2, mode=mode, tau=2.0)
        q = Tensor(rng.standard_normal((5, 8)))
        kv = Tensor(rng.standard_normal((7, 8)))
        fn = lambda q, kv, *ps: AT.multi_head_attention(q, kv, w)
        return fn, [("q", q), ("kv", kv)] + _attention_params(w)
    return factory


# the standard cases, one per differentiable operation plus the whole
# pipeline, registered at import in report order; vjp_check marks every
# input as requiring a gradient

_op_case("matmul", lambda a, b: T.matmul(a, b), a=(3, 4), b=(4, 5))
_op_case("conv2d_1x1", lambda x, w: T.conv2d(x, w), x=(3, 4, 5), w=(2, 3, 1, 1))
_op_case("conv2d_3x3", lambda x, w: T.conv2d(x, w), x=(3, 5, 4), w=(2, 3, 3, 3))
_op_case("conv2d_3x3_dilated", lambda x, w: T.conv2d(x, w, dilation=2), x=(2, 6, 6), w=(2, 2, 3, 3))
_op_case("conv2d_3x1", lambda x, w: T.conv2d(x, w), x=(3, 6, 1), w=(3, 3, 3, 1))
_op_case("conv2d_1x3", lambda x, w: T.conv2d(x, w), x=(3, 1, 6), w=(3, 3, 1, 3))
_op_case("layer_norm", lambda x, g, b: T.layer_norm(x, g, b), x=(4, 6), gain=(6,), bias=(6,))
_op_case("gelu", lambda x: T.gelu(x), x=(4, 5))
_op_case("softmax_rows", lambda x: T.softmax_rows(x), x=(3, 5))


@_register("mlp")
def _(rng):
    mlp = T.Mlp(rng, 5, hidden_ratio=2.0)
    x = Tensor(rng.standard_normal((3, 5)))
    names = ["w1", "b1", "w2", "b2"]
    params = list(zip(names, mlp.params()))
    return (lambda x, *ps: mlp(x)), [("x", x)] + params


# h = 9 factor rows: one slab at the default block size;
# tests/test_gradcheck.py also runs it with the blocks patched small, as a
# 4-row slab and a 5-row one that takes in the lone last row
_op_case("outer_sum_mlp", lambda *ts: T.outer_sum_mlp(*ts), m=(3, 9, 2),
         y=(9, 3), x=(2, 3), gain=(3,), bias=(3,), w1=(3, 6), b1=(6,), w2=(6, 3), b2=(3,))
_op_case("softmax_pool_axis1", lambda x, w: T.softmax_pool(x, w, axis=1),
         x=(3, 4, 5), w=(3, 3, 1, 1))
_op_case("softmax_pool_axis2", lambda x, w: T.softmax_pool(x, w, axis=2),
         x=(3, 4, 5), w=(3, 3, 1, 1))
_op_case("outer_sum_distance", lambda m, y, x: T.outer_sum_distance(m, y, x),
         m=(3, 4, 5), y=(3, 4, 1), x=(3, 1, 5))
_op_case("resample_nearest", lambda x: T.resample_nearest(x, (5, 7)), x=(2, 3, 4))


@_register("arf")
def _(rng):
    # keep points away from the x=0 kink where the subgradient is one-sided
    data = rng.standard_normal((4, 5))
    data = np.where(np.abs(data) < 0.1, data + 0.25, data)
    return (lambda x: arf_op(x, tau=2.0)), [("x", Tensor(data))]


_register("attention_core_softmax")(_attention_core("softmax"))
_register("attention_core_arf")(_attention_core("arf"))


@_register("generate_states")
def _(rng):
    blk = I.IspBlock(rng, c=6, rates=(1, 2), n_heads=2, pos_embed="sinusoidal")
    x = Tensor(rng.standard_normal((6, 4, 4)))
    params = [(f"conv_r{r}", w) for r, w in zip(blk.rates, blk.state_convs)]

    def fn(x, *ps):
        return T.concat([T.map_to_tokens(m) for m in blk.generate_states(x)], axis=0)

    return fn, [("x", x)] + params


@_register("mma")
def _(rng):
    blk = I.IspBlock(rng, c=6, rates=(1, 3), n_heads=2, pos_embed="sinusoidal")
    x = Tensor(rng.standard_normal((6, 3, 3)))
    params = [(f"conv_r{r}", w) for r, w in zip(blk.rates, blk.state_convs)]
    params += _attention_params(blk.attn)

    def fn(x, *ps):
        return I.mma(blk.generate_states(x), blk.attn)

    return fn, [("x", x)] + params


@_register("isp_block")
def _(rng):
    blk = I.IspBlock(rng, c=6, rates=(1, 2), n_heads=2, pos_embed="sinusoidal")
    x = Tensor(rng.standard_normal((6, 3, 3)))
    return (lambda x, *ps: blk(x)), [("x", x)] + blk.named_params()


@_register("decouple")
def _(rng):
    w = D.DecoupleWeights(rng, c=5)
    x = Tensor(rng.standard_normal((5, 4, 6)))

    def fn(x, *ps):
        pair = D.decouple(x, w)
        return T.add(T.sum_all(T.mul(pair.y, pair.y)), T.sum_all(T.mul(pair.x, pair.x)))

    return fn, [("x", x)] + w.named_params()


_op_case("recouple", lambda y, x: D.recouple(D.DecoupledPair(y=y, x=x, level=2)),
         y=(4, 5, 1), x=(4, 1, 6))


@_register("mga")
def _(rng):
    w = AT.attention_weights(rng, c=6, n_heads=2, mode="softmax", tau=2.0)
    t1 = Tensor(rng.standard_normal((4, 6)))
    t2 = Tensor(rng.standard_normal((3, 6)))

    def fn(t1, t2, *ps):
        return D.mga(T.concat([t1, t2]), w)

    return fn, [("t1", t1), ("t2", t2)] + _attention_params(w)


@_register("decouple_loss")
def _(rng):
    w = D.DecoupleWeights(rng, c=4)
    x1 = Tensor(rng.standard_normal((4, 3, 5)))
    x2 = Tensor(rng.standard_normal((4, 2, 3)))

    def fn(x1, x2, *ps):
        pairs = [D.decouple(x1, w), D.decouple(x2, w)]
        return D.decouple_loss([x1, x2], pairs)

    return fn, [("x1", x1), ("x2", x2)] + w.named_params()


@_register("cdi_block")
def _(rng):
    blk = D.CdiBlock(rng, c=6, n_heads=2, mode="softmax")
    x4 = Tensor(rng.standard_normal((6, 4, 4)))
    x5 = Tensor(rng.standard_normal((6, 2, 2)))

    def fn(x4, x5, *ps):
        outs, dep = blk({4: x4, 5: x5})
        stacked = T.concat([T.map_to_tokens(outs[4]), T.map_to_tokens(outs[5])], axis=0)
        return T.add(T.sum_all(T.mul(stacked, stacked)), dep)

    return fn, [("x4", x4), ("x5", x5)] + blk.named_params()


def pipeline_objective(pipe: P.Pipeline, maps: dict[int, Tensor]
                       ) -> tuple[Callable[..., Tensor], list[tuple[str, Tensor]]]:
    """The sdtp_pipeline case at a given pipeline and input maps: the summed
    mean output energies plus the decoupling penalty, as a function of every
    input map (named c<level>) and every parameter."""
    levels = list(maps)

    def fn(*ts):
        outs, total = pipe.forward_tensors(dict(zip(levels, ts)))
        for lvl in sorted(outs):
            total = T.add(total, T.mean_all(T.mul(outs[lvl], outs[lvl])))
        return total

    return fn, [(f"c{lvl}", maps[lvl]) for lvl in levels] + pipe.named_params()


@_register("sdtp_pipeline")
def _(rng):
    cfg = PipelineConfig(channels=8, in_channels=8, base_hw=(8, 8),
                         isp=IspConfig(heads=2), cdi=CdiConfig(heads=2, levels=(4, 5)))
    maps = {
        lvl: Tensor(rng.standard_normal((cfg.in_channels, h, w)))
        for lvl, (h, w) in cfg.level_dims().items()
    }
    return pipeline_objective(P.Pipeline(cfg), maps)
