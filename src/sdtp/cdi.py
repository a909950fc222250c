"""Cross-level stage: decouple each level into axis factors, let the factors
attend across levels, and recouple.

Attention across pyramid levels is quadratic in token count if every pixel
is a token, so each (c, h, w) level is first collapsed into a vertical
factor (c, h, 1) and a horizontal factor (c, 1, w): a 1x1 convolution
produces logits, a softmax along the axis being reduced turns them into
pooling weights, and a 3x1 (resp. 1x3) convolution refines the pooled
vector.  Grouped attention then runs once per axis: the vertical factor
tokens of all levels are concatenated, and one self-attention over them,
with pre-norm and a residual, lets every level's tokens query every
level's, keys and values projected once; likewise the horizontal factors.
Each axis's attention weights carry the block's score activation (mode and
tau), and each level takes its own rows back.  Recoupling broadcasts the
refined factors back to (c, h, w) by addition, an outer-sum expansion.  A
token MLP (pre-norm) refines the recoupled map, and the map, the recoupled
factors and the MLP output are summed into the level's output.

Each level's map passes through three fused ops, whose recorded graphs keep
only what their VJPs read, so a taped block's graph holds two arrays of a
map's size per level beside its input, the two pooling softmaxes, and the
output only while the caller or a VJP downstream holds it.
- softmax_pool, once per axis: the logit conv, softmax and weighted sum.
  Its VJP keeps the softmax output and rebuilds the rest.
- outer_sum_distance: the decoupling penalty's term.  Its VJP rebuilds
  the difference from the map and the factors.
- outer_sum_mlp: the residual update.  Its layer norm and first projection
  come from the factors; GELU, the second projection and the two sums run
  one slab of factor rows at a time, about tensor._BLOCK_ELEMS hidden
  elements each, straight into the output, so neither the
  recoupled map, its (h*w, c) tokens, the partial sum, the MLP output nor
  the (h*w, 4c) hidden array is built.
  Its VJP keeps only factor-sized arrays; when the backward pass reaches
  it, it walks the slabs once, rebuilding each slab of the hidden array
  and adding its shares into lin2's weight gradient and the factor-side
  sums, and never holds a hidden-sized array.
Values and gradients equal those of the unfused op chains bit for bit,
apart from outer_sum_mlp's gradients over more than one slab (as at the
default dims' level 2), whose slab-wise sums agree to rounding.

The decoupling penalty measures, per level, the Frobenius distance between
the original map and the outer-sum of its raw (pre-attention) factors; the
training objective is task loss + lambda * penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionWeights, attention_weights, multi_head_attention
from .tensor import ContractViolation, Tensor


@dataclass
class DecoupledPair:
    """Axis factors of one level: y is (c, h, 1), x is (c, 1, w)."""

    y: Tensor
    x: Tensor
    level: int

    def __post_init__(self):
        if self.y.ndim != 3 or self.y.shape[2] != 1:
            raise ContractViolation(f"vertical factor must be (c, h, 1), got {self.y.shape}")
        if self.x.ndim != 3 or self.x.shape[1] != 1:
            raise ContractViolation(f"horizontal factor must be (c, 1, w), got {self.x.shape}")


class DecoupleWeights(T.Module):
    """Shared-across-levels weights for the decoupling step: one 1x1 logit
    conv and one refinement conv per axis."""

    def __init__(self, rng: np.random.Generator, c: int, name: str = "decouple"):
        self.c = c
        self.logit_v = T.conv_param(rng, c, c, 1, 1, name=f"{name}.logit_v")
        self.logit_h = T.conv_param(rng, c, c, 1, 1, name=f"{name}.logit_h")
        self.refine_v = T.conv_param(rng, c, c, 3, 1, name=f"{name}.refine_v")
        self.refine_h = T.conv_param(rng, c, c, 1, 3, name=f"{name}.refine_h")


def decouple(x: Tensor, weights: DecoupleWeights, level: int = 0) -> DecoupledPair:
    """Collapse (c, h, w) into axis factors by learned softmax pooling.

    Per axis: weights = softmax(1x1 conv logits) along the reduced axis;
    the weighted sum collapses that axis (one op, softmax_pool); a small
    conv along the kept axis refines the result.  With constant logits the
    pooling is an exact mean.
    """
    if x.ndim != 3:
        raise ContractViolation(f"decouple expects (c, h, w), got {x.shape}")
    if x.shape[0] != weights.c:
        raise ContractViolation(
            f"decouple channel mismatch: map has {x.shape[0]}, weights expect {weights.c}")
    pooled_v = T.softmax_pool(x, weights.logit_v, axis=2)  # (c, h, 1)
    y = T.conv2d(pooled_v, weights.refine_v)
    pooled_h = T.softmax_pool(x, weights.logit_h, axis=1)  # (c, 1, w)
    xf = T.conv2d(pooled_h, weights.refine_h)
    return DecoupledPair(y=y, x=xf, level=level)


def recouple(pair: DecoupledPair) -> Tensor:
    """Outer-sum expansion of the factors back to a (c, h, w) map:
    out[ch, i, j] = y[ch, i, 0] + x[ch, 0, j]."""
    if pair.y.shape[0] != pair.x.shape[0]:
        raise ContractViolation(
            f"recouple channel mismatch: {pair.y.shape[0]} vs {pair.x.shape[0]}")
    return T.add(pair.y, pair.x)


def decouple_loss(maps: list[Tensor], pairs: list[DecoupledPair]) -> Tensor:
    """Sum over levels of the Frobenius distance between each map and the
    outer-sum of its factors."""
    if len(maps) != len(pairs):
        raise ContractViolation(f"{len(maps)} maps but {len(pairs)} factor pairs")
    total = None
    for m, p in zip(maps, pairs):
        if m.shape[0] != p.y.shape[0]:
            raise ContractViolation(
                f"level {p.level}: map channels {m.shape[0]} != factor channels {p.y.shape[0]}")
        term = T.outer_sum_distance(m, p.y, p.x)
        total = term if total is None else T.add(total, term)
    return total if total is not None else Tensor(0.0)


def total_loss(task_loss: Tensor, dep_loss: Tensor, lam: float = 0.01) -> Tensor:
    """Training objective: task loss plus lambda-weighted decoupling penalty."""
    if lam < 0 or not np.isfinite(lam):
        raise ContractViolation(f"lambda must be finite and >= 0, got {lam}")
    return T.add(task_loss, T.scale(dep_loss, lam))


def mga(tokens: Tensor, weights: AttentionWeights) -> Tensor:
    """Grouped attention across levels: the rows of tokens are every
    level's factor tokens, concatenated, and each queries the keys and
    values of all of them, projected once with the shared weights.  So it
    is one self-attention over the concatenation; row k of the output is
    row k's update."""
    return multi_head_attention(tokens, [tokens], weights)


class CdiBlock(T.Module):
    """One round of cross-level interaction over a dict of (c, h, w) maps.

    Per level: decouple -> its rows of one grouped attention over the
    vertical factors of all levels (pre-norm, residual) and likewise
    horizontal -> token MLP on the recoupled factors (pre-norm) -> add the
    recoupled map and the MLP output back onto the input map; the last two
    steps are one op, self.mlp applied to a T.OuterSum carrying the map.
    The final residual means zeroing the refinement convs together with the
    attention and MLP output projections turns the whole block into an
    exact identity.  Returns (updated maps, decoupling penalty), the penalty
    computed from the raw pre-attention factors.  Its parameters are named
    cdi.*.
    """

    def __init__(self, rng: np.random.Generator, c: int, n_heads: int = 8,
                 mode: str = "arf", tau: float = 2.0):
        self.c = c
        self.dec = DecoupleWeights(rng, c, name="cdi.decouple")
        self.ln_v = T.LayerNorm(c, name="cdi.ln_v")
        self.ln_h = T.LayerNorm(c, name="cdi.ln_h")
        self.attn_v = attention_weights(rng, c, n_heads, mode, tau, name="cdi.attn_v")
        self.attn_h = attention_weights(rng, c, n_heads, mode, tau, name="cdi.attn_h")
        self.ln_m = T.LayerNorm(c, name="cdi.ln_m")
        self.mlp = T.Mlp(rng, c, name="cdi.mlp")

    def __call__(self, maps: dict[int, Tensor]) -> tuple[dict[int, Tensor], Tensor]:
        levels = sorted(maps)
        for lvl in levels:
            if maps[lvl].ndim != 3 or maps[lvl].shape[0] != self.c:
                raise ContractViolation(
                    f"level {lvl}: expected ({self.c}, h, w) map, got {maps[lvl].shape}")
        pairs = [decouple(maps[lvl], self.dec, level=lvl) for lvl in levels]
        dep = decouple_loss([maps[lvl] for lvl in levels], pairs)

        # a (c, h, 1) factor is a map of h tokens, a (c, 1, w) one of w; one
        # grouped attention per axis runs over every level's tokens at once
        tv = T.concat([T.map_to_tokens(p.y) for p in pairs], axis=0)
        th = T.concat([T.map_to_tokens(p.x) for p in pairs], axis=0)
        v_hat = T.add(tv, mga(self.ln_v(tv), self.attn_v))
        h_hat = T.add(th, mga(self.ln_h(th), self.attn_h))

        # the MLP reads the level's rows of the refined factors and adds the
        # map, their outer sum and its own output into the level's output
        outs, top, left = {}, 0, 0
        for lvl in levels:
            _, h, w = maps[lvl].shape
            v, hh = T.narrow(v_hat, 0, top, h), T.narrow(h_hat, 0, left, w)
            outs[lvl] = self.mlp(T.OuterSum(maps[lvl], v, hh, self.ln_m))
            top, left = top + h, left + w
        return outs, dep
