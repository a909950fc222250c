"""Intra-level stage: promote the deepest pyramid level with self-attention
over multi-receptive-field views of itself.

IspBlock expands the level into S state maps, one per dilation rate (rate
1 first; every rate an integer >= 1, checked where the block is built):
each is its own c-to-c 3x3 dilated convolution of the level plus a
position code that every state shares.  Attention queries come from the
rate-1 state only; keys and values come from every state, whose tokens
are concatenated into one key/value matrix.  The block is a standard
pre-norm transformer block: attention with a residual, then an MLP with a
residual.  It hands its score activation (mode and tau) to its attention
weights, which carry it.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import AttentionWeights, attention_weights, multi_head_attention
from .config import POS_EMBED_MODES, ConfigurationError, _check_int_tuple
from .tensor import ContractViolation, Tensor


def sinusoidal_embedding_2d(c: int, h: int, w: int) -> np.ndarray:
    """Fixed 2-D sine/cosine position code of shape (c, h, w).

    The first half of the channels encodes the row index, the rest the
    column index, each with the standard geometric frequency ladder.
    """
    c_h = c // 2
    c_w = c - c_h
    out = np.zeros((c, h, w))
    if c_h:
        out[:c_h] = _axis_embedding(h, c_h).T[:, :, None]
    out[c_h:] = _axis_embedding(w, c_w).T[:, None, :]
    return out


def _axis_embedding(n: int, d: int) -> np.ndarray:
    pe = np.zeros((n, d))
    pos = np.arange(n, dtype=np.float64)[:, None]
    idx = np.arange(0, d, 2, dtype=np.float64)[None, :]
    rate = np.exp(-np.log(10000.0) * idx / max(d, 1))
    pe[:, 0::2] = np.sin(pos * rate)
    n_cos = pe[:, 1::2].shape[1]
    pe[:, 1::2] = np.cos(pos * rate[:, :n_cos])
    return pe


def mma(states: list[Tensor], weights: AttentionWeights) -> Tensor:
    """Multi-receptive attention: queries from the rate-1 state map, keys and
    values from every state map's tokens, concatenated.  Returns (h*w, c)."""
    tokens = [T.map_to_tokens(m) for m in states]
    return multi_head_attention(tokens[0], T.concat(tokens, axis=0), weights)


class IspBlock(T.Module):
    """Pre-norm transformer block whose attention is the multi-receptive
    attention above; input and output are (c, h, w) maps."""

    def __init__(self, rng: np.random.Generator, c: int, rates: tuple[int, ...] = (1, 3, 6),
                 n_heads: int = 8, pos_embed: str = "sinusoidal", mode: str = "arf",
                 tau: float = 2.0, name: str = "isp", hw: tuple[int, int] | None = None):
        rates = _check_int_tuple("dilation rates", rates, low=1)
        if not rates or rates[0] != 1:
            raise ConfigurationError(f"dilation rates must start with 1, got {list(rates)}")
        if pos_embed not in POS_EMBED_MODES:
            raise ConfigurationError(f"pos_embed {pos_embed!r} not in {POS_EMBED_MODES}")
        self.c = c
        self.rates = rates
        self.pos_mode = pos_embed
        # the sinusoidal code per map size (h, w), built on first use
        self._pos_codes: dict[tuple[int, int], np.ndarray] = {}
        self.state_convs = [
            T.conv_param(rng, c, c, 3, 3, name=f"{name}.state_conv_r{r}") for r in self.rates
        ]
        # drawn in every mode, so the weights below do not depend on it
        pos_rng = np.random.default_rng(rng.integers(2**63))
        self.learned_pos: Tensor | None = None
        if pos_embed == "learned":
            if hw is None:
                raise ContractViolation("a learned position code needs the map dims hw")
            self.learned_pos = T.uniform_param(pos_rng, (c, *hw), c,
                                               name=f"{name}.pos_{hw[0]}x{hw[1]}")
        self.ln1 = T.LayerNorm(c, name=f"{name}.ln1")
        self.ln2 = T.LayerNorm(c, name=f"{name}.ln2")
        self.attn = attention_weights(rng, c, n_heads, mode, tau, name=f"{name}.attn")
        self.mlp = T.Mlp(rng, c, name=f"{name}.mlp")

    def pos_embedding(self, hw: tuple[int, int]) -> Tensor | np.ndarray | None:
        """The position code for (h, w) maps; generate_states rejects a
        learned one built for other dims.  A sinusoidal code is built once
        per map size and kept, read-only, for the block's later calls."""
        if self.pos_mode != "sinusoidal":
            return self.learned_pos
        code = self._pos_codes.get(hw)
        if code is None:
            code = self._pos_codes[hw] = sinusoidal_embedding_2d(self.c, *hw)
            code.flags.writeable = False
        return code

    def generate_states(self, x: Tensor) -> list[Tensor]:
        """Expand the (c, h, w) map x into one (c, h, w) state map per rate:
        the state convolution at that rate, plus the position code, which
        every state shares."""
        pos = self.pos_embedding((x.shape[1], x.shape[2]))
        if isinstance(pos, np.ndarray):
            pos = Tensor(pos)
        if pos is not None and pos.shape != x.shape:
            raise ContractViolation(
                f"positional embedding shape {pos.shape} does not match input {x.shape}")
        states = []
        for w, rate in zip(self.state_convs, self.rates):
            m = T.conv2d(x, w, dilation=rate)
            states.append(m if pos is None else T.add(m, pos))
        return states

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[0] != self.c:
            raise ContractViolation(f"expected ({self.c}, h, w) map, got {x.shape}")
        hw = (x.shape[1], x.shape[2])
        tokens = T.map_to_tokens(x)
        normed_map = T.tokens_to_map(self.ln1(tokens), hw)
        states = self.generate_states(normed_map)
        attended = T.add(mma(states, self.attn), tokens)
        out = T.add(self.mlp(self.ln2(attended)), attended)
        return T.tokens_to_map(out, hw)
