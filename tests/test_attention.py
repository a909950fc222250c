"""Multi-head attention core against a brute-force scalar oracle, plus
structural contracts and instrumentation behaviour."""

import re

import numpy as np
import pytest

from sdtp import tensor as T
from sdtp.arf import arf
from sdtp.attention import AttentionWeights, attention_weights, multi_head_attention
from sdtp.cdi import CdiBlock
from sdtp.complexity import MacCounter
from sdtp.config import ConfigurationError
from sdtp.isp import IspBlock
from sdtp.tensor import ContractViolation, Tensor

from oracles import naive_multi_head_attention

RNG = np.random.default_rng(99)


def make_weights(c, heads, seed=0, mode="softmax", tau=2.0):
    return attention_weights(np.random.default_rng(seed), c, heads, mode, tau)


class TestAgainstOracle:
    @pytest.mark.parametrize("heads", [1, 2])
    def test_softmax_matches_brute_force(self, heads):
        """Multi-head softmax attention agrees with the loop oracle."""
        c, n = 4, 5
        w = make_weights(c, heads)
        q = RNG.standard_normal((n, c))
        got = multi_head_attention(Tensor(q), [Tensor(q)], w).data
        want = naive_multi_head_attention(
            q, q, w.wq.data, w.wk.data, w.wv.data, w.wo.data, heads)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_arf_mode_matches_brute_force(self):
        """Gated attention: the oracle applies the activation per score."""
        c, n, tau = 4, 6, 2.0
        w = make_weights(c, 2, seed=1, mode="arf", tau=tau)
        q = RNG.standard_normal((n, c))
        got = multi_head_attention(Tensor(q), [Tensor(q)], w).data
        want = naive_multi_head_attention(
            q, q, w.wq.data, w.wk.data, w.wv.data, w.wo.data, 2,
            activation=lambda s: float(arf(np.array(s), tau=tau)))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_tanh_mode_matches_brute_force(self):
        """tanh-scored attention agrees with the loop oracle."""
        import math
        c, n = 4, 3
        w = make_weights(c, 1, seed=2, mode="tanh")
        q = RNG.standard_normal((n, c))
        got = multi_head_attention(Tensor(q), [Tensor(q)], w).data
        want = naive_multi_head_attention(
            q, q, w.wq.data, w.wk.data, w.wv.data, w.wo.data, 1,
            activation=math.tanh)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_multi_source_equals_concatenated_source(self):
        """Passing several K/V matrices equals passing their concatenation."""
        c = 6
        w = make_weights(c, 3, seed=3)
        q = Tensor(RNG.standard_normal((4, c)))
        a, b = RNG.standard_normal((3, c)), RNG.standard_normal((5, c))
        split = multi_head_attention(q, [Tensor(a), Tensor(b)], w).data
        joined = multi_head_attention(q, [Tensor(np.concatenate([a, b]))], w).data
        np.testing.assert_array_equal(split, joined)


class TestContracts:
    def test_output_shape(self):
        """Output token count follows the queries, width follows the embed."""
        w = make_weights(8, 2)
        out = multi_head_attention(Tensor(RNG.standard_normal((3, 8))),
                                   [Tensor(RNG.standard_normal((7, 8)))], w)
        assert out.shape == (3, 8)

    def test_rejects_width_mismatch(self):
        """K/V tokens must share the projection width."""
        w = make_weights(4, 2)
        with pytest.raises(ContractViolation):
            multi_head_attention(Tensor(RNG.standard_normal((3, 4))),
                                 [Tensor(RNG.standard_normal((3, 5)))], w)

    @pytest.mark.parametrize("shape", [(3, 5), (12,)], ids=["width", "rank"])
    def test_rejects_query_width_mismatch(self, shape):
        """Queries must be (n, c) for the projection width c; the message
        gives the width and the shape received."""
        w = make_weights(4, 2)
        want = r"queries must be \(n, 4\), got " + re.escape(str(shape))
        with pytest.raises(ContractViolation, match=want):
            multi_head_attention(Tensor(np.zeros(shape)), [Tensor(np.zeros((3, 4)))], w)

    def test_rejects_empty_sources(self):
        """At least one key/value source is required."""
        w = make_weights(4, 2)
        with pytest.raises(ContractViolation):
            multi_head_attention(Tensor(RNG.standard_normal((3, 4))), [], w)

    def test_heads_must_divide_width(self):
        """Head count not dividing the width is a configuration error."""
        with pytest.raises(ConfigurationError):
            make_weights(6, 4)

    def test_unknown_mode_rejected(self):
        """Unknown activation tags fail loudly, where the weights are built."""
        with pytest.raises(ConfigurationError, match="attention mode 'sigmoid' not in"):
            make_weights(4, 2, mode="sigmoid")

    @pytest.mark.parametrize("tau", [-1.0, float("nan"), float("inf")])
    def test_bad_tau_rejected(self, tau):
        """A negative or non-finite tau fails where the weights are built,
        as the refinement gate would reject it at the first call."""
        with pytest.raises(ContractViolation, match="tau must be finite and >= 0"):
            make_weights(4, 2, mode="arf", tau=tau)

    @pytest.mark.parametrize("build", [
        lambda rng: CdiBlock(rng, 4, n_heads=2, mode="sofmax"),
        lambda rng: IspBlock(rng, 4, rates=(1, 2), n_heads=2, mode="sofmax"),
    ], ids=["cdi", "isp"])
    def test_block_with_bad_mode_fails_when_built(self, build):
        """A misspelt mode stops the block's construction, not its forward."""
        with pytest.raises(ConfigurationError, match="'sofmax'"):
            build(np.random.default_rng(0))

    def test_non_square_weight_rejected(self):
        """Projection matrices must be square and equal-sized."""
        ts = [Tensor(RNG.standard_normal((4, 4))) for _ in range(3)]
        with pytest.raises(ContractViolation):
            AttentionWeights(wq=ts[0], wk=ts[1], wv=ts[2],
                             wo=Tensor(RNG.standard_normal((4, 5))), n_heads=2,
                             mode="softmax", tau=2.0)


class TestInstrumentation:
    def test_macs_counted_per_component(self):
        """One attention call reports projection + score + value MACs."""
        c, heads, n = 4, 2, 3
        w = make_weights(c, heads)
        q = Tensor(RNG.standard_normal((n, c)))
        with MacCounter() as mc:
            multi_head_attention(q, [q], w)
        want = 4 * n * c * c + 2 * n * n * c
        assert mc.total == want

    def test_grad_flows_through_all_projections(self):
        """Backward reaches every projection matrix."""
        w = make_weights(4, 2, mode="arf")
        q = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        out = multi_head_attention(q, [q], w)
        T.sum_all(out).backward()
        for p in w.params():
            assert p.grad is not None and np.any(p.grad != 0)
        assert q.grad is not None
