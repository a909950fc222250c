"""Intra-level promotion stage: state generation against the direct-conv
oracle, positional codes, query/key wiring, block shape and residuals."""

import numpy as np
import pytest

from sdtp import isp
from sdtp import tensor as T
from sdtp.config import ConfigurationError
from sdtp.isp import IspBlock, mma, sinusoidal_embedding_2d
from sdtp.tensor import ContractViolation, Tensor

from oracles import naive_conv2d

RNG = np.random.default_rng(321)


class TestPositionalEmbedding:
    def test_shape_and_split(self):
        """First half of channels varies with rows only, rest with columns."""
        pe = sinusoidal_embedding_2d(8, 5, 7)
        assert pe.shape == (8, 5, 7)
        # row-coded channels constant along columns
        assert np.allclose(pe[:4], pe[:4, :, :1])
        # column-coded channels constant along rows
        assert np.allclose(pe[4:], pe[4:, :1, :])

    def test_values_bounded(self):
        """Pure sin/cos entries stay in [-1, 1]."""
        pe = sinusoidal_embedding_2d(16, 9, 9)
        assert np.abs(pe).max() <= 1.0

    def test_zero_position_pattern(self):
        """At position 0 the sin lanes are 0 and the cos lanes are 1."""
        pe = sinusoidal_embedding_2d(8, 4, 4)
        assert pe[0, 0, 0] == 0.0  # first row-sin lane at row 0
        assert pe[1, 0, 0] == 1.0  # first row-cos lane at row 0

    def test_distinct_positions_distinct_codes(self):
        """No two grid cells share a positional code."""
        pe = sinusoidal_embedding_2d(8, 6, 6)
        flat = pe.reshape(8, -1).T
        assert len({tuple(row) for row in np.round(flat, 12)}) == 36


def state_block(c, rates, **kw):
    """An IspBlock whose state generation the tests below call directly."""
    return IspBlock(np.random.default_rng(5), c, rates=rates, n_heads=1, **kw)


class TestStateGeneration:
    def test_states_match_direct_dilated_conv(self):
        """Each state is the dilated convolution at its rate (no embedding)."""
        c, h, w = 3, 6, 5
        x = RNG.standard_normal((c, h, w))
        blk = state_block(c, (1, 2, 3), pos_embed="none")
        states = blk.generate_states(Tensor(x))
        for m, wt, r in zip(states, blk.state_convs, blk.rates):
            np.testing.assert_allclose(m.data, naive_conv2d(x, wt.data, r),
                                       rtol=1e-12, atol=1e-12)

    def test_embedding_added_to_every_state(self):
        """A positional embedding shifts all states by the same offset."""
        c, h, w = 2, 4, 4
        x = Tensor(RNG.standard_normal((c, h, w)))
        pe = RNG.standard_normal((c, h, w))
        # one seed gives both blocks the same state kernels in every mode
        coded_blk = state_block(c, (1, 2), pos_embed="learned", hw=(h, w))
        coded_blk.learned_pos.data[...] = pe
        plain = state_block(c, (1, 2), pos_embed="none").generate_states(x)
        coded = coded_blk.generate_states(x)
        for a, b in zip(plain, coded):
            np.testing.assert_allclose(b.data - a.data, pe, rtol=1e-12, atol=1e-12)

    def test_rates_must_start_with_one(self):
        """The query state must keep the native receptive field."""
        with pytest.raises(ConfigurationError):
            state_block(2, (2, 3))

    def test_mismatched_embedding_rejected(self):
        """Embedding must match the input map shape."""
        c = 2
        blk = state_block(c, (1,), pos_embed="learned", hw=(4, 4))
        with pytest.raises(ContractViolation):
            blk.generate_states(Tensor(RNG.standard_normal((c, 3, 3))))

    def test_state_count_and_shapes(self):
        """One state per rate, all input-shaped."""
        c, h, w = 4, 5, 3
        states = state_block(c, (1, 3, 6)).generate_states(Tensor(RNG.standard_normal((c, h, w))))
        assert len(states) == 3
        assert all(m.shape == (c, h, w) for m in states)


@pytest.mark.parametrize("rates,match", [
    ((1, 0), r"dilation rates\[1\]: must be >= 1, got 0"),
    ((1, 2.0), r"dilation rates\[1\]: expected an integer, got 2.0"),
    ((2, 3), r"rates must start with 1, got \[2, 3\]"),
], ids=["rate_below_one", "rate_not_integer", "block_first_rate"])
def test_state_contracts_name_the_argument(rates, match):
    """Every rate is an integer >= 1 and the first is 1, checked where the
    block is built, and the error names the offending value."""
    with pytest.raises(ConfigurationError, match=match):
        IspBlock(np.random.default_rng(0), 2, rates=rates, n_heads=1)


class TestMultiReceptiveAttention:
    def test_queries_come_from_rate_one_only(self):
        """Output token count equals the rate-1 state's token count even
        though keys/values span all states."""
        c, h, w = 4, 3, 3
        blk = IspBlock(np.random.default_rng(0), c, rates=(1, 2, 3), n_heads=2)
        states = blk.generate_states(Tensor(RNG.standard_normal((c, h, w))))
        out = mma(states, blk.attn)
        assert out.shape == (h * w, c)

    def test_single_state_reduces_to_self_attention(self):
        """With one state the stage is ordinary self-attention over tokens."""
        from sdtp.attention import multi_head_attention
        c, h, w = 4, 3, 2
        blk = IspBlock(np.random.default_rng(0), c, rates=(1,), n_heads=2, mode="softmax")
        x = Tensor(RNG.standard_normal((c, h, w)))
        states = blk.generate_states(x)
        got = mma(states, blk.attn).data
        toks = T.map_to_tokens(states[0])
        want = multi_head_attention(toks, toks, blk.attn).data
        np.testing.assert_array_equal(got, want)


class TestBlock:
    def make_block(self, c=4, **kw):
        return IspBlock(np.random.default_rng(11), c, rates=(1, 2), n_heads=2, **kw)

    def test_shape_preserved(self):
        """The block maps (c, h, w) to (c, h, w)."""
        blk = self.make_block()
        x = Tensor(RNG.standard_normal((4, 5, 6)))
        assert blk(x).shape == (4, 5, 6)

    def test_residual_paths_live(self):
        """Zeroing the attention output and MLP output projections makes
        the block the identity (pre-norm residual wiring)."""
        blk = self.make_block()
        T.zero_(blk.attn.wo)
        T.zero_(blk.mlp.lin2.w)
        T.zero_(blk.mlp.lin2.b)
        x = RNG.standard_normal((4, 4, 4))
        np.testing.assert_array_equal(blk(Tensor(x)).data, x)

    def test_deterministic_given_seed(self):
        """Same construction seed, same output bits."""
        x = RNG.standard_normal((4, 4, 4))
        a = self.make_block()(Tensor(x)).data
        b = self.make_block()(Tensor(x)).data
        np.testing.assert_array_equal(a, b)

    def test_wrong_channel_count_rejected(self):
        """Input channel count must match the block width."""
        blk = self.make_block()
        with pytest.raises(ContractViolation):
            blk(Tensor(RNG.standard_normal((5, 4, 4))))

    def test_sinusoidal_code_built_once_per_size(self, monkeypatch):
        """A block builds its sinusoidal code once per map size, however
        often it runs, and the code it keeps has the builder's bits."""
        built = []

        def counting(c, h, w):
            built.append((c, h, w))
            return sinusoidal_embedding_2d(c, h, w)

        monkeypatch.setattr(isp, "sinusoidal_embedding_2d", counting)
        blk = self.make_block()
        before = blk.params()
        x = Tensor(RNG.standard_normal((4, 5, 6)))
        first = blk(x).data
        np.testing.assert_array_equal(blk(x).data, first)
        blk(Tensor(RNG.standard_normal((4, 3, 3))))
        assert built == [(4, 5, 6), (4, 3, 3)]
        assert blk.pos_embedding((5, 6)).tobytes() == sinusoidal_embedding_2d(4, 5, 6).tobytes()
        after = blk.params()
        assert len(after) == len(before)
        assert all(a is b for a, b in zip(after, before))

    def test_learned_code_is_the_parameter(self):
        """A learned code is the block's parameter itself on every call."""
        blk = IspBlock(np.random.default_rng(0), 4, rates=(1, 2), n_heads=2,
                       pos_embed="learned", hw=(3, 3))
        assert blk.pos_embedding((3, 3)) is blk.learned_pos
        blk(Tensor(RNG.standard_normal((4, 3, 3))))
        assert blk.pos_embedding((3, 3)) is blk.learned_pos

    def test_learned_embedding_registered_eagerly(self):
        """With hw given, the learned position code is a parameter up front."""
        blk = IspBlock(np.random.default_rng(0), 4, rates=(1, 2), n_heads=2,
                       pos_embed="learned", hw=(3, 3))
        names = [p.name for p in blk.params()]
        assert any("pos_3x3" in (n or "") for n in names)

    def test_learned_embedding_needs_hw(self):
        """The learned position code has no default dims to be built at."""
        with pytest.raises(ContractViolation):
            IspBlock(np.random.default_rng(0), 4, rates=(1, 2), n_heads=2,
                     pos_embed="learned")

    def test_learned_embedding_fixed_dims(self):
        """A forward at other dims raises, naming both shapes, and adds no
        parameter."""
        blk = IspBlock(np.random.default_rng(0), 4, rates=(1, 2), n_heads=2,
                       pos_embed="learned", hw=(3, 3))
        before = blk.params()
        assert blk(Tensor(RNG.standard_normal((4, 3, 3)))).shape == (4, 3, 3)
        with pytest.raises(ContractViolation, match=r"\(4, 3, 3\).*\(4, 5, 4\)"):
            blk(Tensor(RNG.standard_normal((4, 5, 4))))
        after = blk.params()
        assert len(after) == len(before)
        assert all(a is b for a, b in zip(after, before))

    def test_unknown_embedding_mode_rejected(self):
        """A misspelt mode is refused, not run without a position code."""
        with pytest.raises(ConfigurationError):
            IspBlock(np.random.default_rng(0), 4, rates=(1, 2), n_heads=2,
                     pos_embed="sinusoid")

    def test_none_embedding_mode(self):
        """pos_embed='none' runs without any positional code."""
        blk = IspBlock(np.random.default_rng(0), 4, rates=(1, 2), n_heads=2,
                       pos_embed="none")
        out = blk(Tensor(RNG.standard_normal((4, 3, 3))))
        assert out.shape == (4, 3, 3)

    def test_gradients_reach_all_params(self):
        """Backward reaches every parameter of the block."""
        blk = self.make_block()
        x = Tensor(RNG.standard_normal((4, 3, 3)), requires_grad=True)
        T.sum_all(T.mul(blk(x), blk(x))).backward()
        for p in blk.params():
            assert p.grad is not None

