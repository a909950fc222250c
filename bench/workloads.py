"""The workloads of the sdtp benchmark.

Each workload builds its program state from the public API of
``sdtp.pyramid``, ``sdtp.tensor`` and ``sdtp.gradcheck``, generates its
inputs from the workload seed, and exposes one operation (``op``) plus the
checks that decide whether an operation's output is correct.  Weights always
come from config seed 0; the workload seed drives the inputs only.

| workload          | one op                                          | stresses                                   |
| ----------------- | ----------------------------------------------- | ------------------------------------------ |
| infer_default     | ``Pipeline.forward`` at the default config dims | conv2d, CDI token MLP (matmul, gelu, LN), tape building |
| train_default     | one SGD step (forward, loss, backward, update)  | the same kernels plus their VJPs and the tape |
| train_toy         | the same step at the ``train:`` dims            | per-op Python overhead: graph bookkeeping, the attention head loop |
| verify_gradcheck  | ``run_case`` over the registered cases but the two whole-stage ones | ``sdtp.gradcheck``: many tiny forward re-evaluations and backward passes |

``BENCHMARK.json`` declares infer_default, train_default and
verify_gradcheck.  train_toy, whose time is per-op Python overhead, runs as
well (``run.py --workload train_toy``), but on a shared 2-vCPU host its
run-to-run spread (interquartile range over median of ten runs: op_p50_s
0.23 at 30 s per run) is close to the largest bound a declared workload may
have (0.25), so it is for paired comparisons by hand, not for the gate.

Train steps start from the initial weights every time (the weights are reset
before each op), so the same input gives the same step.  It also keeps the
step finite: at the default dims the config's ``train.lr`` overshoots, and a
second step from the updated weights already sees a loss near 1e14 (see
``reference.json``).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from sdtp import gradcheck as GC
from sdtp import pyramid as P
from sdtp import tensor as T
from sdtp.config import PipelineConfig

WORKLOADS = ("infer_default", "train_default", "train_toy", "verify_gradcheck")

# Distinct inputs per run.  Ops cycle through them, so every input after the
# first pass is a repeat whose output must be bit-identical to the first.
N_INPUTS = 3

# Float reassociation (another BLAS blocking, a fused kernel) moves these
# values by ~1e-13 relative; a wrong result moves them by far more than 1e-8.
REFERENCE_RTOL = 1e-8

# Steps in the loss trace compared against the reference values.
REFERENCE_STEPS = {"train_default": 2, "train_toy": 5}

# Gradcheck cases that run a whole CDI block or the whole pipeline.
WHOLE_STAGE_CASES = ("cdi_block", "sdtp_pipeline")


class OpFailed(Exception):
    """An operation's output failed a correctness check."""


def _config(name: str, tiny: bool) -> PipelineConfig:
    cfg = PipelineConfig()
    if name == "train_toy" or (tiny and name != "verify_gradcheck"):
        return PipelineConfig.for_train(cfg)
    return cfg


def config_digest(cfg: PipelineConfig) -> str:
    return hashlib.sha256(json.dumps(cfg.to_dict(), sort_keys=True).encode()).hexdigest()


def _pyramids(cfg: PipelineConfig, seed: int) -> list[P.FeaturePyramid]:
    out = []
    for k in range(N_INPUTS):
        rng = np.random.default_rng([seed, k])
        out.append(P.FeaturePyramid(levels={
            lvl: rng.standard_normal((cfg.in_channels, h, w))
            for lvl, (h, w) in cfg.level_dims().items()
        }))
    return out


def _digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).data)
    return h.hexdigest()


def _check_close(what: str, got: dict, want: dict) -> None:
    if sorted(got) != sorted(want):
        raise OpFailed(f"{what}: keys {sorted(got)} differ from reference {sorted(want)}")
    for key, ref in want.items():
        val = got[key]
        if isinstance(ref, list):
            if len(val) != len(ref) or not np.allclose(val, ref, rtol=REFERENCE_RTOL, atol=0.0):
                raise OpFailed(f"{what}.{key}: {val} differs from reference {ref}")
        elif not np.isclose(val, ref, rtol=REFERENCE_RTOL, atol=0.0):
            raise OpFailed(f"{what}.{key}: {val!r} differs from reference {ref!r}")


class Workload:
    """One workload: program state, inputs, the op and its checks.

    ``op(k)`` runs the op on input ``k`` and returns its raw result;
    ``check(k, result)`` raises OpFailed unless the result has the expected
    shapes, is finite, and (for a repeated input) is bit-identical to the
    first result for that input.  ``warm_up()`` runs the op once on the
    reference input (config seed 0); ``reference_values()`` then returns the
    values at that input that must match the stored reference, or None
    where the workload has none.
    """

    def __init__(self, name: str, seed: int, tiny: bool):
        self.name = name
        self.cfg = _config(name, tiny)
        self._digests: dict[int, str] = {}

    def check(self, k: int, result) -> None:
        digest = self._validate(result)
        key = k % self.n_inputs
        first = self._digests.setdefault(key, digest)
        if digest != first:
            raise OpFailed(f"input {key}: result differs from the first run on the same input")

    def reference_values(self) -> dict | None:
        return None


def verify_reference(name: str, values: dict | None, reference: dict | None) -> None:
    """Compare a workload's reference values with the stored ones."""
    if values is None:
        return
    if reference is None:
        raise OpFailed(f"{name}: no stored reference values")
    _check_close(name, values, reference)


class PyramidWorkload(Workload):
    """A pipeline built at config seed 0, N_INPUTS synthetic pyramids from
    the workload seed, and the config-seed pyramid as reference input."""

    def __init__(self, name, seed, tiny):
        super().__init__(name, seed, tiny)
        self.pipe = P.Pipeline(self.cfg)
        self.inputs = _pyramids(self.cfg, seed)
        self.n_inputs = len(self.inputs)
        self.reference_input = P.synthetic_pyramid(self.cfg)


class Infer(PyramidWorkload):
    def op(self, k):
        return self.pipe.forward(self.inputs[k % self.n_inputs])

    def _validate(self, result) -> str:
        outs, dep = result
        dims = self.cfg.level_dims()
        if sorted(outs) != sorted(dims):
            raise OpFailed(f"output levels {sorted(outs)} != {sorted(dims)}")
        for lvl, (h, w) in dims.items():
            if outs[lvl].shape != (self.cfg.channels, h, w):
                raise OpFailed(f"level {lvl}: output shape {outs[lvl].shape}")
            if not np.all(np.isfinite(outs[lvl])):
                raise OpFailed(f"level {lvl}: non-finite output")
        if not np.isfinite(dep):
            raise OpFailed(f"non-finite dep_loss {dep}")
        return _digest([outs[lvl] for lvl in sorted(outs)] + [np.float64(dep)])

    def warm_up(self) -> None:
        self._reference_result = self.pipe.forward(self.reference_input)
        self._validate(self._reference_result)

    def reference_values(self) -> dict:
        outs, dep = self._reference_result
        norms = [float(np.linalg.norm(outs[lvl])) for lvl in sorted(outs)]
        return {"output_norms": norms, "dep_loss": float(dep)}


def sgd_step(pipe: P.Pipeline, params: list[T.Tensor], pyramid: P.FeaturePyramid,
             lr: float, lam: float) -> tuple[float, float, float]:
    """One step of ``toy_train``'s identity regression: forward, task loss
    plus lambda times the decoupling penalty, backward, parameter update.
    Returns (total, task, penalty) before the update."""
    maps = {lvl: T.Tensor(arr) for lvl, arr in pyramid.levels.items()}
    outs, dep = pipe.forward_tensors(maps)
    task = None
    for lvl in sorted(outs):
        diff = T.sub(outs[lvl], maps[lvl])
        term = T.mean_all(T.mul(diff, diff))
        task = term if task is None else T.add(task, term)
    task = T.scale(task, 1.0 / len(outs))
    total = T.add(task, T.scale(dep, lam))
    total.backward()
    for p in params:
        if p.grad is not None:
            p.data = p.data - lr * p.grad
        p.grad = None
    return float(total.data), float(task.data), float(dep.data)


class Train(PyramidWorkload):
    def __init__(self, name, seed, tiny):
        super().__init__(name, seed, tiny)
        self.params = self.pipe.params()
        self.initial = [p.data for p in self.params]
        self.lr = self.cfg.train.lr
        self.lam = self.cfg.cdi.lam

    def reset(self) -> None:
        # the update rebinds p.data, so the initial arrays are never written
        for p, data in zip(self.params, self.initial):
            p.data = data

    def op(self, k):
        self.reset()
        return sgd_step(self.pipe, self.params, self.inputs[k % self.n_inputs],
                        self.lr, self.lam)

    def _validate(self, result) -> str:
        if not np.all(np.isfinite(result)):
            raise OpFailed(f"non-finite loss {result}")
        for p, init in zip(self.params, self.initial):
            if p.data.shape != init.shape or not np.all(np.isfinite(p.data)):
                raise OpFailed(f"parameter {p.name}: bad update")
        return _digest([np.asarray(result)] + [p.data for p in self.params])

    def warm_up(self) -> None:
        self.reset()
        self._first_step = sgd_step(self.pipe, self.params, self.reference_input,
                                    self.lr, self.lam)
        self._validate(self._first_step)

    def reference_values(self) -> dict:
        """Continue the warm-up step's trajectory (no reset between steps)
        and return its loss trace."""
        trace = [self._first_step]
        for _ in range(REFERENCE_STEPS[self.name] - 1):
            trace.append(sgd_step(self.pipe, self.params, self.reference_input,
                                  self.lr, self.lam))
        self.reset()
        total, task, dep = (list(col) for col in zip(*trace))
        return {"total": total, "task": task, "dep": dep}


class Gradcheck(Workload):
    """One op is one pass of ``run_case`` over the registered cases except
    the two whole-stage ones (``WHOLE_STAGE_CASES``), at the config's
    gradcheck settings.

    The op is the pass, not the case: the cases' costs span three orders of
    magnitude, so a median over single cases would hinge on which two tiny
    cases sit in the middle.  The whole-stage cases are left out because
    they take 8.5 s of a 9.5 s full pass, which would leave a run with a
    handful of samples, and they re-run the forward kernels infer_default
    already times.  The case factories draw weights and points from one
    seed, so the cases run at config seed 0 (the setting criterion 3
    verifies); the workload seed picks the case each pass starts from.  The
    warm-up op is the first case alone.
    """

    def __init__(self, name, seed, tiny):
        super().__init__(name, seed, tiny)
        gc = self.cfg.gradcheck
        self.points = 1 if tiny else gc.points
        self.tolerance, self.step = gc.tolerance, gc.step
        registered = GC.registered_cases()
        if "corrupted_linear" in registered:
            raise OpFailed("the negative control is registered")
        missing = set(WHOLE_STAGE_CASES) - set(registered)
        if missing:
            raise OpFailed(f"whole-stage cases {sorted(missing)} are not registered")
        self.names = [n for n in registered if n not in WHOLE_STAGE_CASES]
        start = seed % len(self.names)
        self.order = self.names[start:] + self.names[:start]
        self.n_inputs = 1

    def _run(self, name):
        return GC.run_case(name, points=self.points, tolerance=self.tolerance,
                           step=self.step, seed=self.cfg.seed)

    def op(self, k):
        return [self._run(name) for name in self.order]

    def _validate(self, reports) -> str:
        for report in reports:
            if report.diagnostic is not None or not report.passed:
                raise OpFailed(f"gradcheck {report.op}: max_rel_err={report.max_rel_err:.3e} "
                               f"tolerance={report.tolerance} {report.diagnostic or ''}")
        body = json.dumps([r.to_dict() for r in reports], sort_keys=True)
        return hashlib.sha256(body.encode()).hexdigest()

    def warm_up(self) -> None:
        self._validate([self._run(self.names[0])])


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    kinds = {"infer_default": Infer, "train_default": Train,
             "train_toy": Train, "verify_gradcheck": Gradcheck}
    if name not in kinds:
        raise ValueError(f"unknown workload {name!r}; known: {list(kinds)}")
    return kinds[name](name, seed, tiny)
