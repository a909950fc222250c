"""Pipeline variants: the plain baseline against an independent loop
reference, structural degeneracies, cross-level probes, and toy training."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdtp import tensor as T
from sdtp.complexity import input_level_dims, level_hw
from sdtp.config import (
    ARF_MODES,
    VARIANT_BASE_TAGS,
    ArfConfig,
    CdiConfig,
    ConfigurationError,
    IspConfig,
    PipelineConfig,
)
from sdtp.gradcheck import pipeline_objective, vjp_check
from sdtp.pyramid import (
    FeaturePyramid,
    Pipeline,
    TrainingDiverged,
    cross_level_sensitivity,
    identity_loss,
    synthetic_pyramid,
    toy_train,
    zero_enhancement_branches,
)
from sdtp.tensor import ContractViolation, Tensor

from oracles import naive_fpn

RNG = np.random.default_rng(55)


def small_cfg(variant="sdtp", levels=(4, 5), channels=8, base_hw=(8, 8), seed=0):
    return PipelineConfig(
        variant=variant, seed=seed, channels=channels, in_channels=channels,
        base_hw=base_hw, isp=IspConfig(heads=2),
        cdi=CdiConfig(heads=2, levels=tuple(levels)))


class TestFeaturePyramid:
    def test_valid_pyramid(self):
        """Consecutive ceil-halving levels with shared channels pass."""
        p = FeaturePyramid(levels={2: np.zeros((4, 9, 9)), 3: np.zeros((4, 5, 5)),
                                   4: np.zeros((4, 3, 3))})
        assert sorted(p.levels) == [2, 3, 4]

    @pytest.mark.parametrize("call,match", [
        (lambda: FeaturePyramid({}), r"needs at least one level"),
        (lambda: FeaturePyramid({2: np.zeros((4, 4))}), r"level 2 must be \(c, h, w\), got shape \(4, 4\)"),
        (lambda: Pipeline(small_cfg()).forward_tensors(
            {4: T.Tensor(np.zeros((3, 8, 8))), 5: T.Tensor(np.zeros((8, 4, 4)))}),
         r"level 4: expected \(8, h, w\) map, got \(3, 8, 8\)"),
    ], ids=["no_levels", "flat_level", "input_channels"])
    def test_contract_violations_name_the_argument(self, call, match):
        """Malformed pyramids and pipeline inputs raise naming the level."""
        with pytest.raises(ContractViolation, match=match):
            call()

    def test_rejects_gap_in_levels(self):
        """Level keys must be consecutive."""
        with pytest.raises(ContractViolation):
            FeaturePyramid(levels={2: np.zeros((4, 8, 8)), 4: np.zeros((4, 2, 2))})

    def test_rejects_bad_halving(self):
        """Spatial dims must ceil-halve level to level."""
        with pytest.raises(ContractViolation):
            FeaturePyramid(levels={2: np.zeros((4, 8, 8)), 3: np.zeros((4, 3, 3))})

    def test_rejects_channel_mismatch(self):
        """All levels share one channel count."""
        with pytest.raises(ContractViolation):
            FeaturePyramid(levels={2: np.zeros((4, 8, 8)), 3: np.zeros((5, 4, 4))})

    def test_rejects_non_finite(self):
        """NaN/inf entries are refused at the boundary."""
        bad = np.zeros((2, 4, 4))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ContractViolation):
            FeaturePyramid(levels={2: bad})

    def test_caller_dict_keeps_its_arrays(self):
        """The pyramid stores its float64 levels in a dict of its own, so
        the dict it was built from keeps the caller's int64 array."""
        ints = np.ones((2, 3, 3), dtype=np.int64)
        given = {4: ints}
        p = FeaturePyramid(levels=given)
        assert given[4] is ints and ints.dtype == np.int64
        assert p.levels[4].dtype == np.float64

    def test_synthetic_pyramid_reproducible(self):
        """Same seed, same data; different seed, different data."""
        cfg = small_cfg()
        a = synthetic_pyramid(cfg, seed=3)
        b = synthetic_pyramid(cfg, seed=3)
        cdiff = synthetic_pyramid(cfg, seed=4)
        for lvl in a.levels:
            np.testing.assert_array_equal(a.levels[lvl], b.levels[lvl])
        assert any(np.any(a.levels[lvl] != cdiff.levels[lvl]) for lvl in a.levels)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 6),
           st.lists(st.integers(1, 8), max_size=5), st.integers(2, 4), st.data())
    def test_one_level_rule(self, h, w, k, strides, lo, data):
        """level_hw halves one step at a time, rounding up;
        input_level_dims puts level k at level_hw(H, W, k + 2); and a
        config's synthetic pyramid has level_hw(*base_hw, k) at its k-th
        level and passes FeaturePyramid's check, which rejects it with a
        deeper level one row taller."""
        assert level_hw(h, w, 1) == ((h + 1) // 2, (w + 1) // 2)
        assert level_hw(h, w, k + 1) == level_hw(*level_hw(h, w, k), 1)
        dims = input_level_dims(h, w, 4, strides)
        assert [(d.h, d.w) for d in dims] == [level_hw(h, w, i + 2) for i in range(len(strides))]

        base_hw = data.draw(st.tuples(st.integers(1, 24), st.integers(1, 24)), "base_hw")
        levels = tuple(range(lo, data.draw(st.integers(lo + 1, 5), "last level") + 1))
        cfg = PipelineConfig(channels=2, in_channels=2, base_hw=base_hw,
                             isp=IspConfig(heads=1), cdi=CdiConfig(heads=1, levels=levels))
        pyr = synthetic_pyramid(cfg)
        assert [pyr.levels[lvl].shape[1:] for lvl in levels] == [
            level_hw(*base_hw, i) for i in range(len(levels))]
        taller = data.draw(st.sampled_from(levels[1:]), "taller level")
        bad = dict(pyr.levels)
        bad[taller] = np.concatenate([bad[taller], bad[taller][:, :1]], axis=1)
        with pytest.raises(ContractViolation, match="should ceil-halve"):
            FeaturePyramid(levels=bad)


class TestBaselineAgainstReference:
    def test_fpn_matches_loop_reference(self):
        """The plain baseline equals an independently coded pyramid network
        (1x1 laterals, nearest top-down, 3x3 smoothing)."""
        cfg = small_cfg(variant="fpn_baseline", channels=4, base_hw=(6, 6))
        pipe = Pipeline(cfg)
        pyr = synthetic_pyramid(cfg, seed=7)
        got, dep = pipe.forward(pyr)
        lateral_w = {lvl: pipe.lateral[lvl].data for lvl in pipe.levels}
        smooth_w = {lvl: pipe.smooth[lvl].data for lvl in pipe.levels}
        want = naive_fpn(pyr.levels, lateral_w, smooth_w)
        assert dep == 0.0
        for lvl in want:
            np.testing.assert_allclose(got[lvl], want[lvl], rtol=1e-12, atol=1e-12)


class TestVariants:
    @pytest.mark.parametrize("variant", [
        "sdtp", "fpn_baseline", "dilated_c5", "no_interaction",
        "single_input_4", "single_input_5"])
    def test_output_shapes_match_inputs(self, variant):
        """Every variant emits one map per level at the input dims."""
        cfg = small_cfg(variant=variant)
        pipe = Pipeline(cfg)
        pyr = synthetic_pyramid(cfg)
        outs, dep = pipe.forward(pyr)
        for lvl, arr in pyr.levels.items():
            assert outs[lvl].shape == (cfg.channels, *arr.shape[1:])
        assert dep > 0 if variant == "sdtp" else dep == 0.0

    def test_forward_reproducible_bitwise(self):
        """Rebuilding the same config twice gives byte-equal outputs."""
        cfg = small_cfg()
        pyr = synthetic_pyramid(cfg)
        a, da = Pipeline(cfg).forward(pyr)
        b, db = Pipeline(cfg).forward(pyr)
        assert da == db
        for lvl in a:
            np.testing.assert_array_equal(a[lvl], b[lvl])

    def test_single_input_ignores_other_levels(self):
        """single_input_k output never changes when other levels change."""
        cfg = small_cfg(variant="single_input_5")
        pipe = Pipeline(cfg)
        pyr = synthetic_pyramid(cfg)
        base, _ = pipe.forward(pyr)
        bumped = {lvl: arr.copy() for lvl, arr in pyr.levels.items()}
        bumped[4] += 1.0
        outs, _ = pipe.forward(FeaturePyramid(levels=bumped))
        for lvl in base:
            np.testing.assert_array_equal(outs[lvl], base[lvl])

    @pytest.mark.parametrize("variant", ["fpn_baseline", "single_input_4"])
    def test_penalty_is_zero_tensor_without_cdi(self, variant):
        """Variants without a CDI stage still return their penalty as a
        Tensor, valued 0."""
        cfg = small_cfg(variant=variant)
        pyr = synthetic_pyramid(cfg)
        _, dep = Pipeline(cfg).forward_tensors(
            {lvl: Tensor(arr) for lvl, arr in pyr.levels.items()})
        assert isinstance(dep, Tensor)
        assert float(dep.data) == 0.0

    def test_forward_runs_the_stages_it_built(self):
        """The forward compares no variant name: an sdtp pipeline whose ISP
        and CDI stages are taken away runs as the baseline holding its
        lateral and smooth weights, with a 0 penalty."""
        pipe = Pipeline(small_cfg())
        pipe.isp_blocks, pipe.cdi = [], None
        base = Pipeline(small_cfg(variant="fpn_baseline"))
        for lvl in pipe.levels:
            base.lateral[lvl].data = pipe.lateral[lvl].data.copy()
            base.smooth[lvl].data = pipe.smooth[lvl].data.copy()
        pyr = synthetic_pyramid(small_cfg())
        (got, dep), (want, _) = pipe.forward(pyr), base.forward(pyr)
        assert dep == 0.0
        for lvl in want:
            np.testing.assert_array_equal(got[lvl], want[lvl])

    def test_wrong_levels_rejected(self):
        """Forward refuses pyramids whose levels differ from the build."""
        cfg = small_cfg()
        pipe = Pipeline(cfg)
        with pytest.raises(ContractViolation):
            pipe.forward_tensors({3: Tensor(np.zeros((8, 16, 16)))})


class TestInference:
    def test_forward_records_no_graph(self, monkeypatch):
        """Pipeline.forward runs forward_tensors inside no_grad: its
        tensors keep no parents although every parameter requires grad."""
        pipe = Pipeline(small_cfg())
        seen = []
        taped = pipe.forward_tensors

        def spy(maps):
            outs, dep = taped(maps)
            seen.extend(list(outs.values()) + [dep])
            return outs, dep

        monkeypatch.setattr(pipe, "forward_tensors", spy)
        pipe.forward(synthetic_pyramid(pipe.cfg))
        assert seen and all(p.requires_grad for p in pipe.params())
        assert all(not t.requires_grad and t._parents == () for t in seen)

    def test_forward_matches_taped_forward(self):
        """Outputs and penalty are bit-identical to a taped forward_tensors."""
        cfg = small_cfg()
        pipe = Pipeline(cfg)
        pyr = synthetic_pyramid(cfg)
        outs, dep = pipe.forward(pyr)
        touts, tdep = pipe.forward_tensors(
            {lvl: Tensor(arr) for lvl, arr in pyr.levels.items()})
        assert tdep.requires_grad
        assert dep == float(tdep.data)
        for lvl in outs:
            np.testing.assert_array_equal(outs[lvl], touts[lvl].data)

    def test_cdi_output_freed_before_its_smooth_conv(self, monkeypatch):
        """The top-down loop drops each CDI output once it is read, so below
        the deepest level, where the upsampled deeper output is added to it,
        no level's CDI output is alive while that level's smooth conv runs;
        at the deepest level it is that conv's input."""
        pipe = Pipeline(small_cfg(levels=(3, 4, 5)))
        cdi, conv = pipe.cdi, T.conv2d
        cdi_outs, alive = {}, {}

        def spy_cdi(maps):
            outs, dep = cdi(maps)
            cdi_outs.update({lvl: weakref.ref(t.data) for lvl, t in outs.items()})
            return outs, dep

        def spy_conv(x, w, dilation=1):
            for lvl, kernel in pipe.smooth.items():
                if w is kernel:
                    alive[lvl] = cdi_outs[lvl]() is not None
            return conv(x, w, dilation)

        monkeypatch.setattr(pipe, "cdi", spy_cdi)
        monkeypatch.setattr(T, "conv2d", spy_conv)
        pipe.forward(synthetic_pyramid(pipe.cfg))
        assert alive == {lvl: lvl == max(pipe.levels) for lvl in pipe.levels}

    def test_forward_leaves_no_state_for_training(self):
        """A taped pass right after Pipeline.forward gives the same parameter
        gradients as on a pipeline that never ran an inference pass."""
        cfg = small_cfg()
        pyr = synthetic_pyramid(cfg)

        def grads(pipe):
            outs, dep = pipe.forward_tensors(
                {lvl: Tensor(arr) for lvl, arr in pyr.levels.items()})
            total = dep
            for lvl in sorted(outs):
                total = T.add(total, T.sum_all(T.mul(outs[lvl], outs[lvl])))
            total.backward()
            return [p.grad for p in pipe.params()]

        fresh = grads(Pipeline(cfg))
        used = Pipeline(cfg)
        used.forward(pyr)
        assert all(p.grad is None for p in used.params())
        for a, b in zip(grads(used), fresh):
            np.testing.assert_array_equal(a, b)


class TestTape:
    def test_graph_keeps_no_output_that_no_vjp_reads(self, monkeypatch):
        """On a taped training step, the graph keeps none of the op outputs
        that no VJP reads once the caller has dropped them: the loss's
        squares, the upsampled maps and the CDI outputs that the top-down
        adds take.  The differences the squares' VJP reads stay held."""
        pipe = Pipeline(small_cfg(levels=(3, 4, 5)))
        maps = {lvl: Tensor(arr) for lvl, arr in synthetic_pyramid(pipe.cfg).levels.items()}
        upsampled, cdi_outs, squares, diffs = [], [], [], []
        resample, add, mul = T.resample_nearest, T.add, T.mul

        def spy_resample(x, hw):
            out = resample(x, hw)
            upsampled.append(weakref.ref(out.data))
            return out

        def spy_add(a, b):
            if any(r() is b.data for r in upsampled):
                cdi_outs.append(weakref.ref(a.data))
            return add(a, b)

        def spy_mul(a, b):
            diffs.append(weakref.ref(a.data))
            out = mul(a, b)
            squares.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(T, "resample_nearest", spy_resample)
        monkeypatch.setattr(T, "add", spy_add)
        outs, dep = pipe.forward_tensors(maps)
        monkeypatch.setattr(T, "mul", spy_mul)
        total, _ = identity_loss(outs, maps, dep, pipe.cfg.cdi.lam)
        held = {id(a) for a in T.tape_arrays(total)}
        assert len(upsampled) == len(cdi_outs) == 2 and len(squares) == 3
        # freed: neither the tape nor anything else holds them
        assert all(r() is None for r in upsampled + cdi_outs + squares)
        assert all(id(r()) in held for r in diffs)
        assert all(id(o.data) in held for o in outs.values())
        total.backward()
        assert all(p.grad is not None for p in pipe.params())

    def test_default_step_memory_budget(self):
        """One training step at the default config, on the built pipeline
        and synthetic_pyramid(cfg, seed=1), with tracemalloc started after
        both were built: forward_tensors, identity_loss and backward().
        The graph keeps 59,964,568 B (57.2 MiB) of arrays that are neither
        parameters nor inputs, and the step peaks within 92 MiB of numpy
        and Python allocations (89.8 MiB measured).  A graph that kept
        softmax_pool's softmaxes (78.4 MiB, 109.3 MiB peak), or a
        backward() that summed every gradient out of place (93.7 MiB
        peak), fails it."""
        cfg = PipelineConfig()
        pipe = Pipeline(cfg)
        pyramid = synthetic_pyramid(cfg, seed=1)
        params = {id(p.data) for p in pipe.params()}
        tracemalloc.start()
        try:
            maps = {lvl: Tensor(arr) for lvl, arr in pyramid.levels.items()}
            outs, dep = pipe.forward_tensors(maps)
            total, _ = identity_loss(outs, maps, dep, cfg.cdi.lam)
            inputs = {id(m.data) for m in maps.values()}
            tape = sum(a.nbytes for a in T.tape_arrays(total)
                       if id(a) not in params and id(a) not in inputs)
            del outs, dep, _
            total.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tape == 59_964_568
        assert peak <= 92 * 2 ** 20
        assert all(p.grad is not None for p in pipe.params())

    def test_private_link_walk_finds_each_recorded_op_once(self, monkeypatch):
        """The walk a benchmark tracer makes over the private graph links,
        from the outputs and the penalty through _parents, skipping what
        needs no gradient and counting what carries a _vjp, with the bytes
        of its data, meets every op the taped forward recorded exactly
        once."""
        recorded = []
        from_op = T.Tensor._from_op

        def spy(data, parents, vjp):
            out = from_op(data, parents, vjp)
            if out.requires_grad:
                recorded.append(out._node)
            return out

        monkeypatch.setattr(T.Tensor, "_from_op", staticmethod(spy))
        pipe = Pipeline(small_cfg())
        outs, dep = pipe.forward_tensors(
            {lvl: Tensor(arr) for lvl, arr in synthetic_pyramid(pipe.cfg).levels.items()})
        stack = list(outs.values()) + [dep]
        seen: set[int] = set()
        counted, nbytes = [], 0
        while stack:
            t = stack.pop()
            if id(t) in seen or not t.requires_grad:
                continue
            seen.add(id(t))
            if t._vjp is not None:
                counted.append(t)
                nbytes += t.data.nbytes
            stack.extend(t._parents)
        assert recorded and len(counted) == len(recorded)
        assert {id(n) for n in counted} == {id(n) for n in recorded}
        assert 0 < nbytes == sum(n.data.nbytes for n in recorded)


class TestDegeneracy:
    def test_zeroed_branches_equal_baseline(self):
        """With enhancement branches zeroed, the full pipeline's output is
        byte-equal to the plain baseline holding the same lateral/smooth
        weights."""
        cfg = small_cfg(variant="sdtp")
        pipe = Pipeline(cfg)
        zero_enhancement_branches(pipe)
        base_cfg = small_cfg(variant="fpn_baseline")
        base = Pipeline(base_cfg)
        for lvl in pipe.levels:
            base.lateral[lvl].data = pipe.lateral[lvl].data.copy()
            base.smooth[lvl].data = pipe.smooth[lvl].data.copy()
        pyr = synthetic_pyramid(cfg, seed=2)
        got, _ = pipe.forward(pyr)
        want, _ = base.forward(pyr)
        for lvl in want:
            np.testing.assert_array_equal(got[lvl], want[lvl])


def probe(pipe, cfg):
    pyr = synthetic_pyramid(cfg)
    return cross_level_sensitivity(pipe, pyr, pipe.forward(pyr)[0])


class TestSensitivityProbe:
    def test_no_interaction_offdiagonal_exactly_zero(self):
        """Per-level-only processing has provably zero cross-level effect."""
        cfg = small_cfg(variant="no_interaction")
        pipe = Pipeline(cfg)
        levels, mat = probe(pipe, cfg)
        off = mat[~np.eye(len(levels), dtype=bool)]
        assert np.all(off == 0.0)
        assert np.all(np.diag(mat) > 0)

    def test_full_pipeline_couples_all_pairs(self):
        """The full pipeline shows nonzero influence for every ordered pair,
        including shallowest -> deepest."""
        cfg = small_cfg(variant="sdtp")
        pipe = Pipeline(cfg)
        levels, mat = probe(pipe, cfg)
        assert np.all(mat > 0)

    def test_baseline_is_top_down_only(self):
        """The plain baseline pushes deep into shallow but never the
        reverse: the upper triangle (shallow source, deep output) is zero."""
        cfg = small_cfg(variant="fpn_baseline", levels=(3, 4, 5))
        pipe = Pipeline(cfg)
        levels, mat = probe(pipe, cfg)
        for i, src in enumerate(levels):
            for j, dst in enumerate(levels):
                if dst > src:
                    assert mat[i, j] == 0.0
                else:
                    assert mat[i, j] > 0


    def test_integer_pyramid_probes_as_its_float_copy(self):
        """A pyramid given in int64 is stored as float64, so the probe's
        nudge of SENSITIVITY_DELTA is not truncated: its matrix equals that
        of the pyramid's float64 copy, every output seeing its own level."""
        cfg = PipelineConfig.for_train(PipelineConfig())
        pipe = Pipeline(cfg)
        ints = {lvl: np.rint(3 * arr).astype(np.int64)
                for lvl, arr in synthetic_pyramid(cfg).levels.items()}
        pyramids = [FeaturePyramid(levels=dict(ints)),
                    FeaturePyramid(levels={lvl: a.astype(np.float64) for lvl, a in ints.items()})]
        (_, got), (_, want) = (cross_level_sensitivity(pipe, p, pipe.forward(p)[0])
                               for p in pyramids)
        np.testing.assert_array_equal(got, want)
        assert np.all(np.diag(got) > 0)
        assert all(a.dtype == np.float64 for p in pyramids for a in p.levels.values())

    def test_bump_copies_only_its_level(self, monkeypatch):
        """Each nudged pyramid copies the nudged level alone and shares every
        other level's array with the caller's pyramid, which the probe leaves
        as it was."""
        cfg = small_cfg(levels=(3, 4, 5))
        pipe = Pipeline(cfg)
        pyr = synthetic_pyramid(cfg)
        arrays = dict(pyr.levels)
        values = {lvl: arr.copy() for lvl, arr in arrays.items()}
        forward, seen = pipe.forward, []
        monkeypatch.setattr(pipe, "forward", lambda p: seen.append(dict(p.levels)) or forward(p))
        cross_level_sensitivity(pipe, pyr, forward(pyr)[0])
        assert len(seen) == len(arrays)
        for src, bumped in zip(sorted(arrays), seen):
            assert sorted(bumped) == sorted(arrays)
            for lvl, arr in bumped.items():
                assert (arr is arrays[lvl]) == (lvl != src)
        assert all(pyr.levels[lvl] is arrays[lvl] for lvl in arrays)
        for lvl, arr in arrays.items():
            np.testing.assert_array_equal(arr, values[lvl])


class TestToyTraining:
    def test_loss_drops_and_trace_lengths(self):
        """A short run reduces the loss and records steps + 1 entries."""
        cfg = small_cfg()
        cfg.train.lr = 0.1
        pipe = Pipeline(cfg)
        pyr = synthetic_pyramid(cfg)
        trace = toy_train(pipe, pyr, steps=20)
        assert len(trace.total) == 21
        assert trace.final < trace.initial
        assert trace.total[0] == trace.initial

    def test_bit_reproducible(self):
        """Two identical runs produce identical traces."""
        cfg = small_cfg()
        cfg.train.lr = 0.1
        t1 = toy_train(Pipeline(cfg), synthetic_pyramid(cfg), steps=10)
        t2 = toy_train(Pipeline(cfg), synthetic_pyramid(cfg), steps=10)
        assert t1.total == t2.total
        assert t1.task == t2.task
        assert t1.dep == t2.dep

    def test_results_do_not_depend_on_the_block_size(self, monkeypatch):
        """Three steps at the train: dims with _BLOCK_ELEMS at its default
        (every op one block) and at 64, 96 and 200, where conv2d and
        outer_sum_mlp walk several blocks of each map (softmax_pool's 8
        channels are one aligned block at any size).  The first losses,
        from the same weights, are the same bits.  outer_sum_mlp's VJP sums
        its weight gradients and factor-side sums slab by slab, in another
        order over several slabs, so the later losses and the trained
        weights agree to rounding: measured, within 1.8e-16 and 6.9e-16
        max-norm relative; the bound leaves over 100 times that."""
        rel = 1e-13

        def run():
            cfg = PipelineConfig.for_train(PipelineConfig())
            pipe = Pipeline(cfg)
            trace = toy_train(pipe, synthetic_pyramid(cfg), steps=3)
            return (trace.total, trace.task, trace.dep), [p.data for p in pipe.params()]

        want_trace, want_params = run()
        for elems in (64, 96, 200):
            monkeypatch.setattr(T, "_BLOCK_ELEMS", elems)
            assert len(T._blocks(8, 8 * 8, 8)) > 1  # the level-4 convs' rows
            trace, params = run()
            for got, want in zip(trace, want_trace):
                assert got[0] == want[0]
                assert np.allclose(got, want, rtol=rel, atol=0)
            assert len(params) == len(want_params)
            for got, want in zip(params, want_params):
                assert np.abs(got - want).max() <= rel * np.abs(want).max()

    def test_penalty_recorded_for_full_variant(self):
        """The decoupling penalty stream is positive for the full pipeline
        and zero for the baseline."""
        cfg = small_cfg()
        cfg.train.lr = 0.05
        trace = toy_train(Pipeline(cfg), synthetic_pyramid(cfg), steps=3)
        assert all(d > 0 for d in trace.dep)
        base_cfg = small_cfg(variant="fpn_baseline")
        base_cfg.train.lr = 0.05
        base_trace = toy_train(Pipeline(base_cfg), synthetic_pyramid(base_cfg), steps=3)
        assert all(d == 0.0 for d in base_trace.dep)

    def test_defaults_come_from_the_config(self):
        """toy_train runs the config's train.steps at its train.lr and
        weighs the penalty by its cdi.lambda: at lr 0 the weights stay put,
        so every evaluation gives the first loss, while other rates move it
        apart; and every total is the task loss plus lambda times the
        penalty, bit for bit."""
        def run(lr, lam):
            cfg = small_cfg()
            cfg.train.steps, cfg.train.lr, cfg.cdi.lam = 2, lr, lam
            return toy_train(Pipeline(cfg), synthetic_pyramid(cfg))

        still = run(0.0, 0.3)
        assert len(still.total) == 3 and len(set(still.total)) == 1
        slow, fast = run(0.02, 0.3), run(0.05, 0.3)
        assert slow.total[0] == fast.total[0] == still.total[0]
        assert len({still.total[1], slow.total[1], fast.total[1]}) == 3
        for lam in (0.0, 0.3, 2.0):
            trace = run(0.02, lam)
            assert all(d > 0 for d in trace.dep)
            assert trace.total == [t + lam * d for t, d in zip(trace.task, trace.dep)]

    def test_divergence_raises(self):
        """An absurd learning rate raises TrainingDiverged, not NaN output."""
        cfg = small_cfg()
        cfg.train.lr = 50.0
        with pytest.raises(TrainingDiverged):
            toy_train(Pipeline(cfg), synthetic_pyramid(cfg), steps=60)

    def test_divergence_in_the_final_evaluation_raises(self):
        """A loss that first goes non-finite in the evaluation after the
        last step raises too, naming that evaluation as step `steps`."""
        cfg = PipelineConfig.for_train(PipelineConfig())
        cfg.train.lr = 1e100
        with pytest.raises(TrainingDiverged, match="at step 1: nan") as exc:
            toy_train(Pipeline(cfg), synthetic_pyramid(cfg), steps=1)
        assert exc.value.step == 1

    def test_channel_mismatch_rejected(self):
        """Identity regression requires in_channels == channels."""
        cfg = small_cfg()
        cfg.in_channels = 6
        cfg.validate()
        pipe = Pipeline(cfg)
        pyr = synthetic_pyramid(cfg)
        with pytest.raises(ContractViolation):
            toy_train(pipe, pyr, steps=1)


class TestParams:
    def test_named_params_unique_and_complete(self):
        """Every parameter has a unique name, in every variant and with two
        ISP blocks that each learn a position code; the full variant
        includes the transformer stages' weights."""
        import dataclasses
        from sdtp.config import VARIANT_BASE_TAGS
        tags = list(VARIANT_BASE_TAGS) + ["single_input_4", "single_input_5"]
        cfgs = [small_cfg(variant=tag) for tag in tags]
        learned = small_cfg()
        learned.isp = dataclasses.replace(learned.isp, blocks=2, pos_embed="learned")
        learned.validate()
        for cfg in cfgs + [learned]:
            names = [n for n, _ in Pipeline(cfg).named_params()]
            assert len(names) == len(set(names)), (cfg.variant, cfg.isp)
            assert "lateral_4" in names and "smooth_5" in names
        joined = " ".join(n for n, _ in Pipeline(small_cfg()).named_params())
        assert "isp0" in joined and "cdi" in joined
        learned_names = [n for n, _ in Pipeline(learned).named_params()]
        assert "isp0.pos_4x4" in learned_names and "isp1.pos_4x4" in learned_names

    def test_named_params_order(self):
        """The exact parameter list at the sdtp_pipeline gradcheck case's
        config.  vjp_check draws each input's directions in this order and
        toy_train updates in it, so a reordered attribute would change the
        gradcheck and train reports."""
        cfg = PipelineConfig(channels=8, in_channels=8, base_hw=(8, 8),
                             isp=IspConfig(heads=2), cdi=CdiConfig(heads=2, levels=(4, 5)))
        names = [n for n, _ in Pipeline(cfg).named_params()]
        isp = (["isp0.state_conv_r1", "isp0.state_conv_r3", "isp0.state_conv_r6"]
               + [f"isp0.{ln}.{p}" for ln in ("ln1", "ln2") for p in ("gain", "bias")]
               + [f"isp0.attn.{w}" for w in ("wq", "wk", "wv", "wo")]
               + [f"isp0.mlp.{lin}.{p}" for lin in ("lin1", "lin2") for p in ("w", "b")])
        cdi = ([f"cdi.decouple.{w}" for w in ("logit_v", "logit_h", "refine_v", "refine_h")]
               + [f"cdi.{ln}.{p}" for ln in ("ln_v", "ln_h") for p in ("gain", "bias")]
               + [f"cdi.{a}.{w}" for a in ("attn_v", "attn_h") for w in ("wq", "wk", "wv", "wo")]
               + ["cdi.ln_m.gain", "cdi.ln_m.bias"]
               + [f"cdi.mlp.{lin}.{p}" for lin in ("lin1", "lin2") for p in ("w", "b")])
        assert names == ["lateral_4", "lateral_5"] + isp + cdi + ["smooth_4", "smooth_5"]

    def test_baseline_param_count_smaller(self):
        """The plain baseline holds strictly fewer parameters."""
        full = Pipeline(small_cfg())
        base = Pipeline(small_cfg(variant="fpn_baseline"))
        n = lambda p: sum(t.data.size for t in p.params())
        assert n(base) < n(full)


@st.composite
def small_configs(draw):
    """Small valid configs: any variant, 1-3 consecutive levels, odd base
    dims, head counts that divide the channels, any ARF mode."""
    n = draw(st.integers(1, 3))
    first = draw(st.integers(2, 6 - n))
    levels = tuple(range(first, first + n))
    channels = draw(st.sampled_from([4, 6, 8]))
    heads = st.sampled_from([k for k in (1, 2, 3, 4) if channels % k == 0])
    odd = st.sampled_from([3, 5, 7, 9])
    return PipelineConfig(
        variant=draw(st.sampled_from(
            list(VARIANT_BASE_TAGS) + [f"single_input_{lvl}" for lvl in levels])),
        seed=draw(st.integers(0, 2 ** 16)), channels=channels, in_channels=channels,
        base_hw=(draw(odd), draw(odd)), arf=ArfConfig(mode=draw(st.sampled_from(ARF_MODES))),
        isp=IspConfig(heads=draw(heads), rates=(1, 2)),
        cdi=CdiConfig(heads=draw(heads), levels=levels))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=small_configs())
def test_invariants_on_small_configs(cfg):
    """Pipeline.forward is bit-identical to a taped forward_tensors; for the
    full variant, zeroing the enhancement branches reproduces the plain
    baseline holding the same lateral and smooth weights byte for byte;
    and the no-interaction variant of the same config has exact-zero
    cross-level sensitivity off the diagonal."""
    pipe = Pipeline(cfg)
    pyr = synthetic_pyramid(cfg)
    outs, dep = pipe.forward(pyr)
    touts, tdep = pipe.forward_tensors({lvl: Tensor(a) for lvl, a in pyr.levels.items()})
    assert dep == float(tdep.data)
    for lvl in outs:
        assert touts[lvl].requires_grad
        np.testing.assert_array_equal(outs[lvl], touts[lvl].data)

    full = Pipeline(dataclasses.replace(cfg, variant="sdtp"))
    zero_enhancement_branches(full)
    base = Pipeline(dataclasses.replace(cfg, variant="fpn_baseline"))
    base.lateral, base.smooth = full.lateral, full.smooth
    got, want = full.forward(pyr)[0], base.forward(pyr)[0]
    for lvl in want:
        assert got[lvl].tobytes() == want[lvl].tobytes()

    iso_cfg = dataclasses.replace(cfg, variant="no_interaction")
    levels, mat = probe(Pipeline(iso_cfg), iso_cfg)
    assert np.all(mat[~np.eye(len(levels), dtype=bool)] == 0.0)


@settings(max_examples=3, deadline=None, derandomize=True)
@given(cfg=small_configs().map(lambda cfg: dataclasses.replace(cfg, variant="sdtp")))
def test_gradients_on_small_configs(cfg):
    """The full pipeline's backward pass agrees with central differences at
    small drawn configs, as the sdtp_pipeline gradcheck case checks it at
    one: every input map and parameter, the summed output energies plus the
    decoupling penalty as the loss."""
    pyr = synthetic_pyramid(cfg)
    maps = {lvl: Tensor(pyr.levels[lvl]) for lvl in sorted(pyr.levels)}
    fn, inputs = pipeline_objective(Pipeline(cfg), maps)
    rep = vjp_check(fn, inputs, seed=cfg.seed, op_name="sdtp_pipeline")
    assert rep.passed, (cfg, rep.to_dict())
