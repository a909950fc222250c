"""Attention refinement activation.

A shifted-tanh gate for attention scores: positive scores are boosted
relative to plain tanh by a temperature tau that shifts the decaying
exponential in the denominator, and non-positive scores are clipped to
zero.  At tau = 0 the positive branch reduces exactly to tanh, so the
function is a strict generalisation of max(tanh(x), 0).  Rows of refined
scores are NOT renormalised; low-relevance entries stay at zero instead
of being redistributed.
"""

from __future__ import annotations

import numpy as np

from .tensor import ContractViolation, Tensor


def _check_tau(tau: float) -> None:
    if not np.isfinite(tau) or tau < 0:
        raise ContractViolation(f"arf tau must be finite and >= 0, got {tau}")


def arf(x: np.ndarray, tau: float = 2.0) -> np.ndarray:
    """Elementwise refinement gate.

    Written as (1 - exp(-2x)) / (1 + exp(-2(x + tau))) on the positive
    branch so all exponents are non-positive there; the raw form
    (e^x - e^-x) / (e^x + e^-(x+2tau)) overflows beyond |x| ~ 709.
    Values are clipped to zero for x <= 0 and lie in [0, 1); note that
    for x beyond ~19 the result rounds to exactly 1.0 in float64.  A NaN
    input gives NaN, as tanh and softmax do, so it reaches the loss.
    """
    _check_tau(tau)
    x = np.asarray(x, dtype=np.float64)
    clip = x <= 0
    xs = np.where(clip, 1.0, x)  # dummy on the clipped branch to avoid overflow
    num = -np.expm1(-2.0 * xs)
    den = 1.0 + np.exp(-2.0 * (xs + tau))
    return np.where(clip, 0.0, num / den)


def arf_grad(x: np.ndarray, tau: float = 2.0) -> np.ndarray:
    """Elementwise derivative; the subgradient at the x = 0 kink is 0, and
    a NaN input gives NaN.

    On the positive branch, with u = exp(-2x) and v = exp(-2(x + tau)),
    the derivative simplifies to 2(u + v) / (1 + v)^2, which recovers
    sech^2 at tau = 0.
    """
    _check_tau(tau)
    x = np.asarray(x, dtype=np.float64)
    clip = x <= 0
    xs = np.where(clip, 1.0, x)
    u = np.exp(-2.0 * xs)
    v = np.exp(-2.0 * (xs + tau))
    g = 2.0 * (u + v) / (1.0 + v) ** 2
    return np.where(clip, 0.0, g)


def arf_op(t: Tensor, tau: float = 2.0) -> Tensor:
    """The gate as a graph op; its VJP is upstream * arf_grad."""
    td = t.data
    return Tensor._from_op(arf(td, tau), (t,), lambda g: (g * arf_grad(td, tau),))
