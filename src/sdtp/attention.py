"""Multi-head attention core shared by the intra-level and cross-level stages.

Queries come from one token matrix; keys and values are projected from a
list of token matrices and concatenated along the token axis, which is how
both the multi-receptive-state attention and the cross-level grouped
attention consume several sources at once.  Scores are scaled by
1/sqrt(d_head) and passed through the activation the weights carry: row
softmax, elementwise tanh, or the refinement gate at their tau.
Projections are bias-free.

The core runs inside the SCOPE observer scope of the tensor module, so
each T.matmul in it reports its multiply-accumulates as attention work,
which complexity.MacCounter counts; convolutions and MLPs elsewhere run
outside it, so measured counts can be compared against the analytic
attention-cost formulas term by term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .arf import _check_tau, arf_op
from .config import ARF_MODES, ConfigurationError
from .tensor import ContractViolation, Tensor

# the observer scope its matmuls run in, which MacCounter counts
SCOPE = "attention"


@dataclass
class AttentionWeights(T.Module):
    """Bias-free projection matrices, heads being column blocks of each,
    and the score activation: its mode and the refinement gate's tau,
    both checked here, so a bad one fails where the weights are built
    rather than at the first attention call."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    n_heads: int
    mode: str
    tau: float

    def __post_init__(self):
        c = self.wq.shape[0]
        for nm, w in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)):
            if w.shape != (c, c):
                raise ContractViolation(f"attention weight {nm} must be ({c}, {c}), got {w.shape}")
        if self.n_heads < 1 or c % self.n_heads:
            raise ConfigurationError(
                f"n_heads={self.n_heads} does not divide embed width {c}")
        if self.mode not in ARF_MODES:
            raise ConfigurationError(f"attention mode {self.mode!r} not in {ARF_MODES}")
        _check_tau(self.tau)

    @property
    def c(self) -> int:
        return self.wq.shape[0]


def attention_weights(rng: np.random.Generator, c: int, n_heads: int, mode: str,
                      tau: float, name: str = "attn") -> AttentionWeights:
    def mk(nm):
        return T.uniform_param(rng, (c, c), c, name=f"{name}.{nm}")
    return AttentionWeights(wq=mk("wq"), wk=mk("wk"), wv=mk("wv"), wo=mk("wo"),
                            n_heads=n_heads, mode=mode, tau=tau)


def apply_activation(scores: Tensor, weights: AttentionWeights) -> Tensor:
    if weights.mode == "softmax":
        return T.softmax_rows(scores)
    if weights.mode == "tanh":
        return T.tanh_t(scores)
    if weights.mode == "arf":
        return arf_op(scores, tau=weights.tau)
    raise ConfigurationError(f"unknown attention activation mode {weights.mode!r}")


def multi_head_attention(queries: Tensor, keys_values: list[Tensor],
                         weights: AttentionWeights) -> Tensor:
    """Attend from `queries` over the concatenation of `keys_values`.

    queries: (n_q, c); each entry of keys_values: (n_k, c).  Returns
    (n_q, c) after concatenating per-head outputs and projecting.
    """
    c = weights.c
    if queries.ndim != 2 or queries.shape[1] != c:
        raise ContractViolation(f"queries must be (n, {c}), got {queries.shape}")
    if not keys_values:
        raise ContractViolation("attention needs at least one key/value source")
    for t in keys_values:
        if t.ndim != 2 or t.shape[1] != c:
            raise ContractViolation(
                f"key/value tokens must share embed width {c}, got {t.shape}")

    with T.observe(scope=SCOPE):
        source = keys_values[0] if len(keys_values) == 1 else T.concat(keys_values, axis=0)
        q_full = T.matmul(queries, weights.wq)
        k_full = T.matmul(source, weights.wk)
        v_full = T.matmul(source, weights.wv)

        d_head = c // weights.n_heads
        inv_sqrt = 1.0 / np.sqrt(float(d_head))
        head_outs = []
        for h in range(weights.n_heads):
            lo = h * d_head
            q = T.narrow(q_full, 1, lo, d_head)
            k = T.narrow(k_full, 1, lo, d_head)
            v = T.narrow(v_full, 1, lo, d_head)
            scores = T.scale(T.matmul(q, T.permute(k, (1, 0))), inv_sqrt)
            w = apply_activation(scores, weights)
            head_outs.append(T.matmul(w, v))
        merged = head_outs[0] if len(head_outs) == 1 else T.concat(head_outs, axis=1)
        return T.matmul(merged, weights.wo)
