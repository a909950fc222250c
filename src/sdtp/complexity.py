"""Attention-cost model: closed-form MAC counts plus an instrumented counter.

The three closed forms cost a feature pyramid under different attention
layouts, in exact integer arithmetic (one unit = one multiply-accumulate):

  full:      sum_i 4 h_i w_i c_i^2 + 2 (h_i w_i)^2 c_i
  strided:   the same with h_i w_i / s_i^2 tokens per level
  decoupled: sum_i 4 (h_i + w_i) c_i^2 + 2 (h_i^2 + w_i^2) c_i

The per-level terms decompose as: 4 token-count c^2 for the q/k/v/output
projections and 2 token-count^2 c for the score and value matmuls.  The
instrumented counter measures exactly those matmuls inside the attention
core (convolutions and MLPs are deliberately not counted), so measured
and analytic numbers can be compared term by term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ContractViolation


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


# detection-scale defaults: 800x1344 input, backbone strides 4/8/16/32
COCO_LEVEL_DIMS = (
    LevelDims(200, 336, 256, 8),
    LevelDims(100, 168, 256, 4),
    LevelDims(50, 84, 256, 2),
    LevelDims(25, 42, 256, 1),
)


def flops_full_per_level(d: LevelDims) -> int:
    n = d.h * d.w
    return 4 * n * d.c * d.c + 2 * n * n * d.c


def flops_strided_per_level(d: LevelDims) -> int:
    # token count is floored when the stride square does not divide h*w
    n = (d.h * d.w) // (d.s * d.s)
    return 4 * n * d.c * d.c + 2 * n * n * d.c


def flops_decoupled_per_level(d: LevelDims) -> int:
    return 4 * (d.h + d.w) * d.c * d.c + 2 * (d.h * d.h + d.w * d.w) * d.c


def flops_full(dims) -> int:
    """Self-attention over all h*w tokens at every level."""
    return sum(flops_full_per_level(d) for d in dims)


def flops_strided(dims) -> int:
    """Self-attention with per-level key subsampling by stride s."""
    return sum(flops_strided_per_level(d) for d in dims)


def flops_decoupled(dims) -> int:
    """Axis-decoupled attention: h vertical plus w horizontal tokens per level."""
    return sum(flops_decoupled_per_level(d) for d in dims)


def flops_table(dims) -> dict:
    """Per-level and total MAC counts for all three layouts, plus the
    expected cost ordering verdict (decoupled < strided < full)."""
    rows = []
    for d in dims:
        rows.append({
            "h": d.h, "w": d.w, "c": d.c, "s": d.s,
            "full": flops_full_per_level(d),
            "strided": flops_strided_per_level(d),
            "decoupled": flops_decoupled_per_level(d),
        })
    totals = {
        "full": flops_full(dims),
        "strided": flops_strided(dims),
        "decoupled": flops_decoupled(dims),
    }
    return {
        "levels": rows,
        "totals": totals,
        "ordering_ok": totals["decoupled"] < totals["strided"] < totals["full"],
    }


# ---------------------------------------------------------------------------
# instrumented MAC counting

_ACTIVE_COUNTERS: list["MacCounter"] = []


def record_macs(n: int) -> None:
    """Called by the attention core around each dense matmul; no-op unless
    a counter is active."""
    for counter in _ACTIVE_COUNTERS:
        counter.total += int(n)


class MacCounter:
    """Context manager accumulating multiply-accumulates reported by the
    attention core while it is active."""

    def __init__(self):
        self.total = 0

    def __enter__(self) -> "MacCounter":
        _ACTIVE_COUNTERS.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_COUNTERS.remove(self)


MEASURABLE_SECTIONS = ("full", "decoupled")


def measured_macs(section: str, dims, seed: int = 0) -> int:
    """Run an attention section on random tokens and count its actual MACs.

    section "full": one self-attention over h*w tokens per level, matching
    flops_full term by term (4 n c^2 projections + 2 n^2 c score/value).
    section "decoupled": one self-attention over h vertical tokens plus one
    over w horizontal tokens per level, matching flops_decoupled.
    An empty dims list measures an empty section: 0.
    """
    if section not in MEASURABLE_SECTIONS:
        raise ContractViolation(
            f"unknown section {section!r}; measurable sections: {MEASURABLE_SECTIONS}")

    from . import attention as AT
    from .tensor import Tensor

    rng = np.random.default_rng(seed)
    with MacCounter() as counter:
        for d in dims:
            if section == "full":
                token_counts = (d.h * d.w,)
            else:
                token_counts = (d.h, d.w)
            for n in token_counts:
                w = AT.attention_weights(rng, c=d.c, n_heads=1)
                tokens = Tensor(rng.standard_normal((n, d.c)))
                AT.multi_head_attention(tokens, [tokens], w, mode="softmax")
    return counter.total
