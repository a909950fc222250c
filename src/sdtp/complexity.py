"""Attention-cost model: closed-form MAC counts plus an instrumented counter.

TOKEN_SETS defines each attention layout once, by the token sets it attends
within at one level of dims (h, w, c, s): full, one set of h w tokens;
strided, one of h w // s^2; decoupled, one of h (vertical) and one of w
(horizontal).  Self-attention within n tokens costs 4 n c^2 multiply-
accumulates for the q/k/v/output projections plus 2 n^2 c for the score and
value matmuls; flops_table sums that over each layout's sets and the levels,
in exact integer arithmetic, and is the one place a layout's cost is read.
MacCounter measures exactly those matmuls: it counts what T.matmul reports
inside the attention core's observer scope, in its own thread
(convolutions and MLPs run outside that scope and are not counted), and
measured_macs runs every layout's sets through it, so measured and analytic
numbers compare term by term.  A new layout is one more TOKEN_SETS entry.

level_hw is the one rule for level dims: k halvings of h x w, each
rounding up, give ceil(h / 2^k) by ceil(w / 2^k).  The config's level dims,
the pyramid's shape check and input_level_dims all apply it.  An H x W
input yields one level per key-sampling stride: level k (k = 0, 1, ...)
sits at backbone stride 2^(k+2), so its dims are level_hw(H, W, k + 2).
COCO_LEVEL_DIMS is that at 800x1344, and resolution_sweep tabulates the
costs at each of SWEEP_INPUTS.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import attention as AT
from .tensor import ContractViolation, Tensor, observe


@dataclass(frozen=True)
class LevelDims:
    """Spatial extent, channel width, and key-sampling stride of one level."""

    h: int
    w: int
    c: int
    s: int = 1

    def __post_init__(self):
        for nm in ("h", "w", "c", "s"):
            v = getattr(self, nm)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 1:
                raise ContractViolation(f"LevelDims.{nm} must be a positive integer, got {v!r}")


def level_hw(h: int, w: int, k: int) -> tuple[int, int]:
    """The dims of an h x w map halved k times, each rounding up:
    (ceil(h / 2^k), ceil(w / 2^k))."""
    return -(-h // 2 ** k), -(-w // 2 ** k)


def input_level_dims(h: int, w: int, c: int, strides) -> tuple[LevelDims, ...]:
    """The levels of an h x w input, one per key-sampling stride: level k
    is level_hw(h, w, k + 2) at width c."""
    return tuple(LevelDims(*level_hw(h, w, k + 2), c, s) for k, s in enumerate(strides))


# detection-scale defaults: the 800x1344 input, backbone strides 4/8/16/32
COCO_LEVEL_DIMS = input_level_dims(800, 1344, 256, (8, 4, 2, 1))

# the standard input resolutions (h, w) of the sweep, smallest first
SWEEP_INPUTS = ((200, 336), (400, 672), (800, 1344), (1600, 2688))


# layout -> the token counts of the sets one level attends within
TOKEN_SETS = {
    "full": lambda d: (d.h * d.w,),
    "strided": lambda d: ((d.h * d.w) // (d.s * d.s),),
    "decoupled": lambda d: (d.h, d.w),
}


def level_flops(layout: str, d: LevelDims) -> int:
    """MACs of one level under a layout: self-attention within each token set."""
    return sum(4 * n * d.c * d.c + 2 * n * n * d.c for n in TOKEN_SETS[layout](d))


def flops_table(dims) -> dict:
    """Per-level and total MAC counts for every layout, plus the expected
    cost ordering verdict (decoupled < strided < full)."""
    rows = [{"h": d.h, "w": d.w, "c": d.c, "s": d.s,
             **{k: level_flops(k, d) for k in TOKEN_SETS}} for d in dims]
    totals = {k: sum(row[k] for row in rows) for k in TOKEN_SETS}
    return {
        "levels": rows,
        "totals": totals,
        "ordering_ok": totals["decoupled"] < totals["strided"] < totals["full"],
    }


def resolution_sweep(c: int, strides) -> list[dict]:
    """One row per input of SWEEP_INPUTS: its levels at width c and the
    given strides, each layout's total MACs, the ratios of full and strided
    to decoupled, and the ordering verdict of flops_table."""
    rows = []
    for h, w in SWEEP_INPUTS:
        dims = input_level_dims(h, w, c, strides)
        table = flops_table(dims)
        f, s, d = (table["totals"][k] for k in ("full", "strided", "decoupled"))
        rows.append({
            "input": [h, w],
            "levels": [asdict(dd) for dd in dims],
            "full": f, "strided": s, "decoupled": d,
            "full_over_decoupled": f / d,
            "strided_over_decoupled": s / d,
            "ordering_ok": table["ordering_ok"],
        })
    return rows


# ---------------------------------------------------------------------------
# instrumented MAC counting

class MacCounter(observe):
    """Context manager summing, in .total, the multiply-accumulates that
    T.matmul reports in the attention core's scope, in this thread, while
    it is active.  Every active counter counts, so nested counters all
    count the inner work."""

    def __init__(self):
        super().__init__(self)
        self.total = 0

    def __call__(self, scope: str | None, macs: int) -> None:
        if scope == AT.SCOPE:
            self.total += macs


def measured_macs(section: str, dims) -> int:
    """Run an attention layout on random tokens (seed 0) and count its
    actual MACs: one single-head self-attention per non-empty token set of
    TOKEN_SETS[section] at each level, so the count matches the layout's
    closed form term by term (an empty set, as a strided level with
    h*w < s^2 has, costs 0 and runs nothing).
    An empty dims list measures an empty section: 0.
    """
    if section not in TOKEN_SETS:
        raise ContractViolation(f"unknown section {section!r}; known sections: {tuple(TOKEN_SETS)}")

    rng = np.random.default_rng(0)
    with MacCounter() as counter:
        for d in dims:
            for n in filter(None, TOKEN_SETS[section](d)):
                w = AT.attention_weights(rng, c=d.c, n_heads=1, mode="softmax", tau=2.0)
                tokens = Tensor(rng.standard_normal((n, d.c)))
                AT.multi_head_attention(tokens, [tokens], w)
    return counter.total
