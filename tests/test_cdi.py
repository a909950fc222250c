"""Cross-level stage: axis decoupling, outer-sum recoupling against a loop
oracle, the decoupling penalty, grouped attention, and the block identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdtp import pyramid as P
from sdtp import tensor as T
from sdtp.attention import attention_weights, multi_head_attention
from sdtp.cdi import (
    CdiBlock,
    DecoupledPair,
    DecoupleWeights,
    decouple,
    decouple_loss,
    mga,
    recouple,
    total_loss,
)
from sdtp.complexity import MacCounter
from sdtp.config import PipelineConfig
from sdtp.tensor import ContractViolation, Tensor

from oracles import naive_recouple
from unfused import unfused_outer_sum_distance, unfused_outer_sum_mlp, unfused_softmax_pool

RNG = np.random.default_rng(777)


def make_pair(c=3, h=4, w=5, rng=RNG):
    y = Tensor(rng.standard_normal((c, h, 1)))
    x = Tensor(rng.standard_normal((c, 1, w)))
    return DecoupledPair(y=y, x=x, level=0)


def _zeros(*shape):
    return Tensor(np.zeros(shape))


@pytest.mark.parametrize("call,match", [
    (lambda: DecoupledPair(y=_zeros(2, 3, 2), x=_zeros(2, 1, 2), level=0),
     r"vertical factor must be \(c, h, 1\), got \(2, 3, 2\)"),
    (lambda: DecoupledPair(y=_zeros(2, 3, 1), x=_zeros(2, 2, 2), level=0),
     r"horizontal factor must be \(c, 1, w\), got \(2, 2, 2\)"),
    (lambda: decouple(_zeros(2, 3), DecoupleWeights(np.random.default_rng(0), 2)),
     r"decouple expects \(c, h, w\), got \(2, 3\)"),
    (lambda: decouple_loss([_zeros(3, 2, 2)],
                           [DecoupledPair(y=_zeros(2, 2, 1), x=_zeros(2, 1, 2), level=4)]),
     r"level 4: map channels 3 != factor channels 2"),
    (lambda: CdiBlock(np.random.default_rng(0), 4, n_heads=2)({}),
     r"concat of an empty list"),
], ids=["pair_vertical", "pair_horizontal", "decouple_rank", "loss_channels",
        "block_without_levels"])
def test_contract_violations_name_the_argument(call, match):
    """Each CDI contract raises ContractViolation naming what is wrong."""
    with pytest.raises(ContractViolation, match=match):
        call()


class TestRecouple:
    def test_matches_loop_oracle_twenty_pairs(self):
        """Outer-sum expansion equals the scalar loop oracle bit for bit."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            c, h, w = (int(rng.integers(1, 7)) for _ in range(3))
            pair = make_pair(c, h, w, rng)
            got = recouple(pair).data
            want = naive_recouple(pair.y.data, pair.x.data)
            np.testing.assert_array_equal(got, want)

    def test_shape(self):
        """(c, h, 1) + (c, 1, w) -> (c, h, w)."""
        assert recouple(make_pair(2, 3, 6)).shape == (2, 3, 6)

    def test_channel_mismatch_rejected(self):
        """Factors with different channel counts cannot recouple."""
        pair = DecoupledPair.__new__(DecoupledPair)
        pair.y = Tensor(np.zeros((2, 3, 1)))
        pair.x = Tensor(np.zeros((3, 1, 4)))
        pair.level = 0
        with pytest.raises(ContractViolation):
            recouple(pair)

    def test_gradients_split_between_factors(self):
        """Backward sums the broadcast gradient per factor correctly."""
        pair = make_pair(2, 3, 4)
        pair.y.requires_grad = True
        pair.x.requires_grad = True
        T.sum_all(recouple(pair)).backward()
        np.testing.assert_allclose(pair.y.grad, np.full((2, 3, 1), 4.0), rtol=0, atol=0)
        np.testing.assert_allclose(pair.x.grad, np.full((2, 1, 4), 3.0), rtol=0, atol=0)


class TestDecouple:
    def test_factor_shapes(self):
        """decouple yields (c, h, 1) and (c, 1, w) factors."""
        c, h, w = 4, 5, 6
        dec = DecoupleWeights(np.random.default_rng(0), c)
        pair = decouple(Tensor(RNG.standard_normal((c, h, w))), dec)
        assert pair.y.shape == (c, h, 1)
        assert pair.x.shape == (c, 1, w)

    def test_constant_logits_give_exact_mean_pooling(self):
        """Zeroed logit convs make the softmax uniform, so pooling is the
        mean along the reduced axis (checked before refinement)."""
        c, h, w = 3, 4, 5
        dec = DecoupleWeights(np.random.default_rng(0), c)
        T.zero_(dec.logit_v)
        T.zero_(dec.logit_h)
        # identity refinement: centre tap of each kernel = identity matrix
        for wt, centre in ((dec.refine_v, (1, 0)), (dec.refine_h, (0, 1))):
            wt.data[...] = 0.0
            for ch in range(c):
                wt.data[ch, ch, centre[0], centre[1]] = 1.0
        x = RNG.standard_normal((c, h, w))
        pair = decouple(Tensor(x), dec)
        np.testing.assert_allclose(pair.y.data[:, :, 0], x.mean(axis=2),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(pair.x.data[:, 0, :], x.mean(axis=1),
                                   rtol=1e-12, atol=1e-12)

    def test_pooling_weights_are_convex(self):
        """Softmax pooling is a convex combination: pooled values stay inside
        the per-slice min/max of the input (identity refinement)."""
        c, h, w = 2, 6, 7
        dec = DecoupleWeights(np.random.default_rng(3), c)
        for wt, centre in ((dec.refine_v, (1, 0)), (dec.refine_h, (0, 1))):
            wt.data[...] = 0.0
            for ch in range(c):
                wt.data[ch, ch, centre[0], centre[1]] = 1.0
        x = RNG.standard_normal((c, h, w))
        pair = decouple(Tensor(x), dec)
        assert np.all(pair.y.data[:, :, 0] <= x.max(axis=2) + 1e-12)
        assert np.all(pair.y.data[:, :, 0] >= x.min(axis=2) - 1e-12)
        assert np.all(pair.x.data[:, 0, :] <= x.max(axis=1) + 1e-12)
        assert np.all(pair.x.data[:, 0, :] >= x.min(axis=1) - 1e-12)

    def test_channel_mismatch_rejected(self):
        """Map channels must match the decouple weights."""
        dec = DecoupleWeights(np.random.default_rng(0), 4)
        with pytest.raises(ContractViolation):
            decouple(Tensor(RNG.standard_normal((3, 4, 4))), dec)


class TestPenalty:
    def test_zero_on_exact_outer_sums(self):
        """Maps built as y + x have zero decoupling penalty for their pair."""
        rng = np.random.default_rng(9)
        maps, pairs = [], []
        for lvl, (c, h, w) in enumerate([(3, 4, 5), (3, 2, 2), (3, 6, 1)]):
            pair = make_pair(c, h, w, rng)
            pair.level = lvl
            maps.append(Tensor(pair.y.data + pair.x.data))
            pairs.append(pair)
        loss = decouple_loss(maps, pairs)
        assert abs(float(loss.data)) < 1e-12

    def test_positive_on_non_separable_map(self):
        """A generic random map is not an outer sum: penalty > 0."""
        pair = make_pair(2, 3, 3)
        m = Tensor(RNG.standard_normal((2, 3, 3)))
        assert float(decouple_loss([m], [pair]).data) > 0.1

    def test_additive_over_levels(self):
        """The penalty sums per-level Frobenius distances."""
        rng = np.random.default_rng(4)
        pairs = [make_pair(2, 3, 3, rng), make_pair(2, 2, 4, rng)]
        maps = [Tensor(rng.standard_normal((2, 3, 3))),
                Tensor(rng.standard_normal((2, 2, 4)))]
        joint = float(decouple_loss(maps, pairs).data)
        solo = sum(float(decouple_loss([m], [p]).data) for m, p in zip(maps, pairs))
        assert joint == pytest.approx(solo, abs=1e-12)

    def test_matches_direct_norm(self):
        """Penalty equals the explicitly computed Frobenius distance."""
        pair = make_pair(2, 3, 4)
        m = RNG.standard_normal((2, 3, 4))
        got = float(decouple_loss([Tensor(m)], [pair]).data)
        want = float(np.sqrt(((m - (pair.y.data + pair.x.data)) ** 2).sum()))
        assert got == pytest.approx(want, rel=1e-14)

    def test_count_mismatch_rejected(self):
        """Different numbers of maps and pairs are rejected."""
        with pytest.raises(ContractViolation):
            decouple_loss([Tensor(np.zeros((2, 2, 2)))], [])

    def test_total_loss_combination(self):
        """total = task + lambda * penalty, on Tensors."""
        assert float(total_loss(Tensor(2.0), Tensor(10.0), lam=0.01).data) == pytest.approx(2.1)
        t = total_loss(Tensor(2.0), Tensor(10.0), lam=0.5)
        assert float(t.data) == pytest.approx(7.0)
        with pytest.raises(ContractViolation):
            total_loss(Tensor(1.0), Tensor(1.0), lam=-0.5)


class TestGroupedAttention:
    """mga is one self-attention over every level's tokens, concatenated."""

    def sets(self, c, counts=(3, 5, 2)):
        return [Tensor(RNG.standard_normal((n, c))) for n in counts]

    def test_preserves_token_counts(self):
        """One output row per token, so each level's rows keep its token
        count, and a block over three levels keeps every level's shape."""
        c = 4
        w = attention_weights(np.random.default_rng(0), c, 2, "arf", 2.0)
        assert mga(T.concat(self.sets(c)), w).shape == (10, c)
        maps = {lvl: Tensor(RNG.standard_normal((c, h, wd)))
                for lvl, (h, wd) in zip((3, 4, 5), ((5, 7), (3, 4), (2, 2)))}
        outs, _ = CdiBlock(np.random.default_rng(0), c, n_heads=2)(maps)
        assert {k: v.shape for k, v in outs.items()} == {k: v.shape for k, v in maps.items()}

    def test_every_level_sees_every_level(self):
        """Perturbing one token of the last level changes every level's
        rows; in a block, perturbing the deepest map changes the shallowest
        level's output, which only the grouped attention carries."""
        c = 4
        w = attention_weights(np.random.default_rng(1), c, 2, "arf", 2.0)
        base = RNG.standard_normal((9, c))  # three levels of three tokens
        bumped = base.copy()
        bumped[6, 0] += 1.0
        diff = np.abs(mga(Tensor(bumped), w).data - mga(Tensor(base), w).data)
        for rows in (slice(0, 3), slice(3, 6), slice(6, 9)):
            assert diff[rows].max() > 0
        blk = CdiBlock(np.random.default_rng(1), c, n_heads=2)
        maps = {4: RNG.standard_normal((c, 4, 6)), 5: RNG.standard_normal((c, 2, 3))}
        before = blk({k: Tensor(v) for k, v in maps.items()})[0][4].data
        maps[5][0, 0, 0] += 1.0
        after = blk({k: Tensor(v) for k, v in maps.items()})[0][4].data
        assert np.abs(after - before).max() > 0

    @pytest.mark.parametrize("mode", ["softmax", "tanh", "arf"])
    def test_equals_each_level_querying_all_levels(self, mode):
        """Each level's rows equal its tokens querying the concatenation of
        every level's keys and values, grouped attention's per-level form,
        to rounding: the products now span the other levels' rows too."""
        c = 4
        w = attention_weights(np.random.default_rng(2), c, 2, mode, 2.0)
        sets = self.sets(c)
        every = T.concat(sets)
        joint, top = mga(every, w).data, 0
        for s in sets:
            want = multi_head_attention(s, every, w).data
            np.testing.assert_allclose(joint[top: top + s.shape[0]], want, rtol=1e-13, atol=1e-15)
            top += s.shape[0]

    def test_width_mismatch_rejected(self):
        """Tokens whose width is not the weights' embed width are rejected."""
        w = attention_weights(np.random.default_rng(0), 4, 2, "arf", 2.0)
        with pytest.raises(ContractViolation, match=r"queries must be \(n, 4\), got \(6, 5\)"):
            mga(Tensor(RNG.standard_normal((6, 5))), w)


class TestAttentionCost:
    @pytest.mark.parametrize("dims", [((4, 6), (2, 3)), ((5, 7), (3, 4), (2, 2))],
                             ids=["two_levels", "three_levels"])
    def test_block_counts_one_self_attention_per_axis(self, dims):
        """A block's attention MACs are, per axis, one self-attention over
        all levels' N tokens (N the sum of the levels' h, resp. w):
        4*N*c^2 for the four projections and 2*N^2*c for the scores and the
        weighted values.  Keys and values are projected once per axis, not
        once per level."""
        c = 4
        blk = CdiBlock(np.random.default_rng(0), c, n_heads=2)
        maps = {lvl: Tensor(RNG.standard_normal((c, h, wd)))
                for lvl, (h, wd) in enumerate(dims, start=3)}
        with MacCounter() as counter:
            blk(maps)
        axes = (sum(h for h, _ in dims), sum(wd for _, wd in dims))
        assert counter.total == sum(4 * n * c * c + 2 * n * n * c for n in axes)

    def test_default_forward_attention_macs(self):
        """A default-dims forward counts 117,506,048 attention MACs: ISP's
        and both of CDI's axes, whose keys and values are projected once."""
        cfg = PipelineConfig()
        pipe, pyr = P.Pipeline(cfg), P.synthetic_pyramid(cfg)
        with MacCounter() as counter:
            pipe.forward(pyr)
        assert counter.total == 117_506_048


class TestBlock:
    def make_maps(self, c=4):
        return {4: Tensor(RNG.standard_normal((c, 4, 6))),
                5: Tensor(RNG.standard_normal((c, 2, 3)))}

    def test_shapes_and_penalty(self):
        """Output maps keep input shapes; the penalty is a scalar."""
        blk = CdiBlock(np.random.default_rng(0), 4, n_heads=2)
        maps = self.make_maps()
        outs, dep = blk(maps)
        assert {k: v.shape for k, v in outs.items()} == {k: v.shape for k, v in maps.items()}
        assert dep.shape == ()
        assert float(dep.data) > 0

    def test_identity_when_branches_zeroed(self):
        """Zeroing refinement convs + attention/MLP output projections makes
        the block exactly the identity on every level."""
        blk = CdiBlock(np.random.default_rng(0), 4, n_heads=2)
        T.zero_(blk.dec.refine_v)
        T.zero_(blk.dec.refine_h)
        T.zero_(blk.attn_v.wo)
        T.zero_(blk.attn_h.wo)
        T.zero_(blk.mlp.lin2.w)
        T.zero_(blk.mlp.lin2.b)
        maps = self.make_maps()
        outs, _ = blk(maps)
        for lvl in maps:
            np.testing.assert_array_equal(outs[lvl].data, maps[lvl].data)

    def test_residual_adds_recoupled_factors(self):
        """With the attention and MLP output projections zeroed, each level
        gains exactly the recoupled raw factors of its own map."""
        blk = CdiBlock(np.random.default_rng(0), 4, n_heads=2)
        for p in (blk.attn_v.wo, blk.attn_h.wo, blk.mlp.lin2.w, blk.mlp.lin2.b):
            T.zero_(p)
        maps = self.make_maps()
        outs, _ = blk(maps)
        for lvl in maps:
            pair = decouple(maps[lvl], blk.dec, level=lvl)
            np.testing.assert_array_equal(outs[lvl].data, maps[lvl].data + recouple(pair).data)

    def test_penalty_uses_raw_factors(self):
        """The reported penalty equals decouple_loss on the raw decoupled
        factors of the inputs (pre-attention)."""
        blk = CdiBlock(np.random.default_rng(0), 4, n_heads=2)
        maps = self.make_maps()
        _, dep = blk(maps)
        levels = sorted(maps)
        pairs = [decouple(maps[lvl], blk.dec, level=lvl) for lvl in levels]
        want = float(decouple_loss([maps[lvl] for lvl in levels], pairs).data)
        assert float(dep.data) == pytest.approx(want, rel=1e-14)

    def test_gradients_reach_all_params(self):
        """Backward from outputs + penalty reaches every parameter."""
        blk = CdiBlock(np.random.default_rng(0), 4, n_heads=2)
        maps = self.make_maps()
        outs, dep = blk(maps)
        loss = dep
        for o in outs.values():
            loss = T.add(loss, T.mean_all(T.mul(o, o)))
        loss.backward()
        for p in blk.params():
            assert p.grad is not None

    def test_gradients_match_dense_first_layer(self, monkeypatch):
        """Outputs, input and parameter gradients equal those of the same
        block whose residual update runs densely on the recoupled map,
        m + r + tokens_to_map(mlp.lin2(gelu(mlp.lin1(ln_m(map_to_tokens(r)))))),
        r = recouple(...)."""
        def run(blk):
            rng = np.random.default_rng(5)
            maps = {4: Tensor(rng.standard_normal((4, 4, 6)), requires_grad=True),
                    5: Tensor(rng.standard_normal((4, 2, 3)), requires_grad=True)}
            outs, dep = blk(maps)
            loss = dep
            for o in outs.values():
                loss = T.add(loss, T.mean_all(T.mul(o, o)))
            loss.backward()
            return [o.data for o in outs.values()] + [t.grad for t in maps.values()] + \
                [p.grad for p in blk.params()]

        factored = run(CdiBlock(np.random.default_rng(0), 4, n_heads=2))
        blk = CdiBlock(np.random.default_rng(0), 4, n_heads=2)

        def dense(m, y, x, gain, bias, w1, b1, w2, b2):
            assert (gain, bias, w1, b1, w2, b2) == (blk.ln_m.gain, blk.ln_m.bias,
                                                    blk.mlp.lin1.w, blk.mlp.lin1.b,
                                                    blk.mlp.lin2.w, blk.mlp.lin2.b)
            (h, c), wd = y.shape, x.shape[0]
            pair = DecoupledPair(y=T.reshape(T.permute(y, (1, 0)), (c, h, 1)),
                                 x=T.reshape(T.permute(x, (1, 0)), (c, 1, wd)), level=0)
            recoupled = recouple(pair)
            tokens = blk.ln_m(T.map_to_tokens(recoupled))
            delta = blk.mlp.lin2(T.gelu(blk.mlp.lin1(tokens)))
            return T.add(T.add(m, recoupled), T.tokens_to_map(delta, (h, wd)))

        monkeypatch.setattr(T, "outer_sum_mlp", dense)
        for got, want in zip(factored, run(blk)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_graph_keeps_one_map_sized_array_per_level(self):
        """Per level, the taped block keeps 1 array of the map's size
        beside its input map, the output while the caller holds it. No
        pooling softmaxes, logits, transposed copy, pooling products,
        recoupled maps, differences, partial sums or MLP output tokens."""
        blk = CdiBlock(np.random.default_rng(0), 4, n_heads=2)
        # map sizes (140 and 36) that no parameter or factor-side array shares
        maps = {4: Tensor(RNG.standard_normal((4, 5, 7)), requires_grad=True),
                5: Tensor(RNG.standard_normal((4, 3, 3)), requires_grad=True)}
        outs, dep = blk(maps)
        held = T.tape_arrays(*outs.values(), dep)
        for lvl, m in maps.items():
            same_size = [a for a in held if a.size == m.size and a is not m.data]
            assert len(same_size) <= 1, (lvl, [a.shape for a in same_size])

    def test_gradients_bit_identical_to_unfused_chains(self, monkeypatch):
        """Outputs, the penalty and every input and parameter gradient equal
        those of the block built from the unfused chains the three fused ops
        replace, bit for bit: each fused op lists a reused input once per
        use, in the order the chains accumulated them."""
        def run(blk):
            rng = np.random.default_rng(6)
            maps = {4: Tensor(rng.standard_normal((4, 5, 7)), requires_grad=True),
                    5: Tensor(rng.standard_normal((4, 3, 4)), requires_grad=True)}
            pre = {lvl: T.scale(m, 1.0) for lvl, m in maps.items()}  # maps as inner nodes
            outs, dep = blk(pre)
            loss = dep
            for o in outs.values():
                loss = T.add(loss, T.mean_all(T.mul(o, o)))
            loss.backward()
            return ([o.data for o in outs.values()] + [dep.data]
                    + [t.grad for t in maps.values()] + [p.grad for p in blk.params()])

        fused = run(CdiBlock(np.random.default_rng(0), 4, n_heads=2))
        monkeypatch.setattr(T, "softmax_pool", unfused_softmax_pool)
        monkeypatch.setattr(T, "outer_sum_distance", unfused_outer_sum_distance)
        monkeypatch.setattr(T, "outer_sum_mlp", unfused_outer_sum_mlp)
        chain = run(CdiBlock(np.random.default_rng(0), 4, n_heads=2))
        assert len(fused) == len(chain)
        for got, want in zip(fused, chain):
            assert np.array_equal(got, want)

    def test_channel_mismatch_rejected(self):
        """Maps must match the block's channel width."""
        blk = CdiBlock(np.random.default_rng(0), 4, n_heads=2)
        with pytest.raises(ContractViolation):
            blk({4: Tensor(RNG.standard_normal((5, 4, 4)))})


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2 ** 31 - 1))
def test_recouple_additivity_property(c, h, w, seed):
    """Property: recouple(ay+by, ax+bx) = recouple(a) + recouple(b)."""
    rng = np.random.default_rng(seed)
    y1, y2 = rng.standard_normal((2, c, h, 1))
    x1, x2 = rng.standard_normal((2, c, 1, w))
    joint = recouple(DecoupledPair(Tensor(y1 + y2), Tensor(x1 + x2), 0)).data
    split = (recouple(DecoupledPair(Tensor(y1), Tensor(x1), 0)).data
             + recouple(DecoupledPair(Tensor(y2), Tensor(x2), 0)).data)
    np.testing.assert_allclose(joint, split, rtol=1e-12, atol=1e-12)
