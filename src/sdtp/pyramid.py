"""Feature-pyramid pipeline: variants, forward pass, probes, toy training.

The full pipeline projects each backbone level to a common width with 1x1
convolutions, promotes the deepest level with the intra-level transformer
stage, runs the cross-level decoupled stage over all levels, and decodes
top-down: the deepest output is smoothed with a 3x3 convolution and every
shallower output is smoothed after adding the nearest-upsampled deeper
result.  Ablation variants swap out pieces of that structure while keeping
the same decoder vocabulary.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .cdi import CdiBlock, total_loss
from .complexity import level_hw
from .config import VARIANT_BASE_TAGS, PipelineConfig
from .isp import IspBlock
from .tensor import ContractViolation, Tensor

# the nudge cross_level_sensitivity adds to one input cell
SENSITIVITY_DELTA = 0.5


@dataclass
class FeaturePyramid:
    """Backbone levels keyed by index; level i has stride 2^i and spatial
    dims that ceil-halve from one level to the next.  Each level is stored
    as float64, the dtype every op computes in, in a dict of the pyramid's
    own: the caller's dict keeps its arrays."""

    levels: dict[int, np.ndarray]

    def __post_init__(self):
        if not self.levels:
            raise ContractViolation("a feature pyramid needs at least one level")
        keys = sorted(self.levels)
        if any(b - a != 1 for a, b in zip(keys, keys[1:])):
            raise ContractViolation(f"pyramid levels must be consecutive, got {keys}")
        c = None
        prev = None
        levels = {}
        for lvl in keys:
            arr = np.asarray(self.levels[lvl], dtype=np.float64)
            if arr.ndim != 3:
                raise ContractViolation(f"level {lvl} must be (c, h, w), got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ContractViolation(f"level {lvl} contains non-finite entries")
            if c is None:
                c = arr.shape[0]
            elif arr.shape[0] != c:
                raise ContractViolation(
                    f"level {lvl} has {arr.shape[0]} channels, expected {c}")
            if prev is not None:
                want = level_hw(*prev, 1)
                if arr.shape[1:] != want:
                    raise ContractViolation(
                        f"level {lvl} dims {arr.shape[1:]} should ceil-halve the previous "
                        f"level's {prev} to {want}")
            prev = arr.shape[1:]
            levels[lvl] = arr
        self.levels = levels


def synthetic_pyramid(cfg: PipelineConfig, seed: int | None = None) -> FeaturePyramid:
    """Standard-normal pyramid at the config's level dims, seeded
    independently of weight initialisation."""
    seed = cfg.seed if seed is None else seed
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    levels = {
        lvl: rng.standard_normal((cfg.in_channels, h, w))
        for lvl, (h, w) in cfg.level_dims().items()
    }
    return FeaturePyramid(levels=levels)


class Pipeline(T.Module):
    """A built variant: parameters plus a forward pass over level maps.

    The variant is read once, where the pipeline is built, and decides
    which stages it builds: ISP blocks and a CDI block (sdtp), a dilated
    conv of the deepest level (dilated_c5), neither (the rest), and
    whether the decoder runs top-down (not for no_interaction or a
    single-input variant).  The forward runs the stages it finds built."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.levels = list(cfg.cdi.levels)
        self.single_level = cfg.single_input_level()
        c, in_c = cfg.channels, cfg.in_channels
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))
        dims = cfg.level_dims()

        self.lateral: dict[int, Tensor] = {}
        for lvl in self.levels:
            self.lateral[lvl] = T.conv_param(rng, c, in_c, 1, 1, name=f"lateral_{lvl}")

        self.isp_blocks: list[IspBlock] = []
        self.cdi: CdiBlock | None = None
        self.dilated: Tensor | None = None
        self.top_down = cfg.variant != "no_interaction" and self.single_level is None
        if cfg.variant == "sdtp":
            deepest_hw = dims[max(self.levels)]
            for k in range(cfg.isp.blocks):
                self.isp_blocks.append(IspBlock(
                    rng, c, rates=cfg.isp.rates, n_heads=cfg.isp.heads,
                    pos_embed=cfg.isp.pos_embed, mode=cfg.arf.mode, tau=cfg.arf.tau,
                    name=f"isp{k}", hw=deepest_hw))
            self.cdi = CdiBlock(rng, c, n_heads=cfg.cdi.heads,
                                mode=cfg.arf.mode, tau=cfg.arf.tau)
        elif cfg.variant == "dilated_c5":
            self.dilated = T.conv_param(rng, c, c, 3, 3, name="dilated_deepest")

        self.smooth: dict[int, Tensor] = {}
        for lvl in self.levels:
            self.smooth[lvl] = T.conv_param(rng, c, c, 3, 3, name=f"smooth_{lvl}")

    # -- forward ------------------------------------------------------------

    def forward_tensors(self, maps: dict[int, Tensor]) -> tuple[dict[int, Tensor], Tensor]:
        """Outputs per level and the decoupling penalty, Tensor(0.0) for
        variants without a CDI stage."""
        if sorted(maps) != sorted(self.levels):
            raise ContractViolation(
                f"pipeline built for levels {sorted(self.levels)}, got {sorted(maps)}")
        in_c = self.cfg.in_channels
        for lvl, m in maps.items():
            if m.ndim != 3 or m.shape[0] != in_c:
                raise ContractViolation(
                    f"level {lvl}: expected ({in_c}, h, w) map, got {m.shape}")

        if self.single_level is not None:
            src = T.conv2d(maps[self.single_level], self.lateral[self.single_level])
            lat = {lvl: T.resample_nearest(src, maps[lvl].shape[1:]) for lvl in self.levels}
        else:
            lat = {lvl: T.conv2d(maps[lvl], self.lateral[lvl]) for lvl in self.levels}
        deepest = max(self.levels)
        for blk in self.isp_blocks:
            lat[deepest] = blk(lat[deepest])
        if self.dilated is not None:
            lat[deepest] = T.conv2d(lat[deepest], self.dilated, dilation=3)
        dep = Tensor(0.0)
        if self.cdi is not None:
            lat, dep = self.cdi(lat)

        if not self.top_down:
            return {lvl: T.conv2d(lat[lvl], self.smooth[lvl]) for lvl in self.levels}, dep

        # each lateral or CDI map is dropped once read, so that where it is
        # added to the upsampled deeper output it is freed before the sum's
        # smooth conv runs
        outs: dict[int, Tensor] = {}
        prev: Tensor | None = None
        for lvl in sorted(self.levels, reverse=True):
            x = lat.pop(lvl)
            if prev is not None:
                x = T.add(x, T.resample_nearest(prev, (x.shape[1], x.shape[2])))
            outs[lvl] = T.conv2d(x, self.smooth[lvl])
            prev = outs[lvl]
        return {lvl: outs[lvl] for lvl in sorted(outs)}, dep

    def forward(self, pyramid: FeaturePyramid) -> tuple[dict[int, np.ndarray], float]:
        """Inference: forward_tensors without recording the backward graph."""
        maps = {lvl: Tensor(arr) for lvl, arr in pyramid.levels.items()}
        with T.no_grad():
            outs, dep = self.forward_tensors(maps)
        return {lvl: t.data for lvl, t in outs.items()}, float(dep.data)


def zero_enhancement_branches(pipe: Pipeline) -> None:
    """Zero every weight that feeds the transformer stages' outputs, which
    collapses the full pipeline onto the plain baseline structure exactly:
    both stages become identities thanks to their residual connections."""
    for blk in pipe.isp_blocks:
        T.zero_(blk.attn.wo)
        T.zero_(blk.mlp.lin2.w)
        T.zero_(blk.mlp.lin2.b)
    if pipe.cdi is not None:
        T.zero_(pipe.cdi.dec.refine_v)
        T.zero_(pipe.cdi.dec.refine_h)
        T.zero_(pipe.cdi.attn_v.wo)
        T.zero_(pipe.cdi.attn_h.wo)
        T.zero_(pipe.cdi.mlp.lin2.w)
        T.zero_(pipe.cdi.mlp.lin2.b)


def cross_level_sensitivity(pipe: Pipeline, pyramid: FeaturePyramid,
                            base: dict[int, np.ndarray]) -> tuple[list[int], np.ndarray]:
    """Max absolute output change per (source level, output level) when one
    centre cell of the source level is nudged by SENSITIVITY_DELTA; `base`
    holds the pipeline's outputs on the unchanged pyramid.  Exact zeros mean
    the output provably never saw that level."""
    levels = sorted(pyramid.levels)
    matrix = np.zeros((len(levels), len(levels)))
    for i, src in enumerate(levels):
        # only the bumped level is copied; no op writes into its input
        bumped = {**pyramid.levels, src: pyramid.levels[src].copy()}
        _, h, w = bumped[src].shape
        bumped[src][0, h // 2, w // 2] += SENSITIVITY_DELTA
        outs, _ = pipe.forward(FeaturePyramid(levels=bumped))
        for j, dst in enumerate(levels):
            matrix[i, j] = float(np.abs(outs[dst] - base[dst]).max())
    return levels, matrix


def any_cross_level(matrix: np.ndarray) -> bool:
    """Whether a sensitivity matrix of cross_level_sensitivity shows some
    output seeing another level: an off-diagonal entry above 0."""
    off = matrix.copy()
    np.fill_diagonal(off, 0.0)
    return bool(off.max() > 0.0)


def variant_rows(probe: PipelineConfig, train_steps: int = 0) -> list[dict]:
    """Build and probe every variant of `probe` on its synthetic pyramid:
    the base tags, then single_input_<level> per level.  One row each, with
    its penalty, sensitivity matrix, cross-level verdict and parameter count.
    With train_steps > 0 each row also gets a `train` block: the variant's
    toy_train run of that many steps at probe's train.lr and cdi.lambda,
    with its initial and final total losses and their ratio."""
    tags = list(VARIANT_BASE_TAGS) + [f"single_input_{lvl}" for lvl in probe.cdi.levels]
    rows = []
    for tag in tags:
        cfg = dataclasses.replace(probe, variant=tag)
        pipe = Pipeline(cfg)
        pyr = synthetic_pyramid(cfg)
        outs, dep = pipe.forward(pyr)
        levels, sens = cross_level_sensitivity(pipe, pyr, outs)
        row = {
            "variant": tag,
            "dep_loss": dep,
            "levels": levels,
            "sensitivity": sens.tolist(),
            "any_cross_level": any_cross_level(sens),
            "n_params": int(sum(p.size for p in pipe.params())),
        }
        if train_steps:
            trace = toy_train(pipe, pyr, steps=train_steps)
            row["train"] = {"steps": train_steps, "lr": probe.train.lr,
                            "initial": trace.initial, "final": trace.final,
                            "ratio": trace.ratio}
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# toy training: multi-level identity regression

class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, value: float):
        super().__init__(f"loss became non-finite at step {step}: {value}")
        self.step = step


@dataclass
class TrainTrace:
    total: list[float] = field(default_factory=list)
    task: list[float] = field(default_factory=list)
    dep: list[float] = field(default_factory=list)

    @property
    def initial(self) -> float:
        return self.total[0]

    @property
    def final(self) -> float:
        return self.total[-1]

    @property
    def ratio(self) -> float:
        """final / initial total loss; nan when the initial loss is 0."""
        return self.final / self.initial if self.initial else float("nan")


def identity_loss(outs: dict[int, Tensor], maps: dict[int, Tensor], dep: Tensor,
                  lam: float) -> tuple[Tensor, Tensor]:
    """toy_train's objective on a forward's outputs and penalty: the task
    loss, the mean over levels of each output's mean squared error against
    its input map, and the total, task plus lam times the penalty.
    Returns (total, task)."""
    task = None
    for lvl in sorted(outs):
        diff = T.sub(outs[lvl], maps[lvl])
        term = T.mean_all(T.mul(diff, diff))
        task = term if task is None else T.add(task, term)
    task = T.scale(task, 1.0 / len(outs))
    return total_loss(task, dep, lam), task


def toy_train(pipe: Pipeline, pyramid: FeaturePyramid, steps: int | None = None) -> TrainTrace:
    """Plain gradient descent fitting the pipeline outputs to the inputs.

    The objective is identity_loss against the raw input maps, so
    in_channels must equal channels.
    The learning rate and lambda are the pipeline config's train.lr and
    cdi.lambda; steps defaults to its train.steps.
    Records total/task/penalty at each step plus a final evaluation
    (trace length steps + 1); raises TrainingDiverged on non-finite loss.
    """
    if pipe.cfg.in_channels != pipe.cfg.channels:
        raise ContractViolation(
            "identity regression needs in_channels == channels "
            f"(got {pipe.cfg.in_channels} vs {pipe.cfg.channels})")
    steps = pipe.cfg.train.steps if steps is None else steps
    lr, lam = pipe.cfg.train.lr, pipe.cfg.cdi.lam
    params = pipe.params()
    trace = TrainTrace()

    def evaluate() -> Tensor:
        maps = {lvl: Tensor(arr) for lvl, arr in pyramid.levels.items()}
        outs, dep = pipe.forward_tensors(maps)
        total, task = identity_loss(outs, maps, dep, lam)
        trace.task.append(float(task.data))
        trace.dep.append(float(dep.data))
        trace.total.append(float(total.data))
        if not np.isfinite(trace.total[-1]):
            raise TrainingDiverged(len(trace.total) - 1, trace.total[-1])
        return total

    # overflow during a diverging run is detected and raised, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            total = evaluate()
            total.backward()
            for p in params:
                if p.grad is not None:
                    p.data = p.data - lr * p.grad
                p.grad = None

        with T.no_grad():
            evaluate()
    return trace
