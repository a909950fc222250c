"""Attention-cost model: closed forms against hand-computed values,
measured multiply-accumulates against the formulas, orderings, identities."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdtp import tensor as T
from sdtp.attention import attention_weights, multi_head_attention
from sdtp.complexity import (
    COCO_LEVEL_DIMS,
    TOKEN_SETS,
    LevelDims,
    MacCounter,
    flops_table,
    input_level_dims,
    measured_macs,
)
from sdtp.tensor import ContractViolation, Tensor


def totals(dims) -> dict:
    """Each layout's total MACs over dims, as flops_table sums them."""
    return flops_table(dims)["totals"]


def attend(n: int, c: int) -> int:
    """Run one single-head self-attention over n random tokens of width c
    and return its closed-form cost, 4 n c^2 + 2 n^2 c."""
    rng = np.random.default_rng(n)
    tokens = Tensor(rng.standard_normal((n, c)))
    multi_head_attention(tokens, [tokens], attention_weights(rng, c, 1, "softmax", 2.0))
    return 4 * n * c * c + 2 * n * n * c


class TestHandComputedValues:
    def test_full_single_level(self):
        """4hwc^2 + 2(hw)^2 c at h=w=2, c=4: 256 + 128 = 384."""
        assert totals([LevelDims(2, 2, 4)])["full"] == 384

    def test_decoupled_single_level(self):
        """4(h+w)c^2 + 2(h^2+w^2)c at h=w=2, c=4: 256 + 64 = 320."""
        assert totals([LevelDims(2, 2, 4)])["decoupled"] == 320

    def test_strided_single_level(self):
        """Strided tokens: hw/s^2 = 4 at h=w=4, c=2, s=2: 128 + 64 = 192."""
        # 4 * 4 * 2^2 * (16//4) ... spelled out: n = 16//4 = 4 tokens
        # projections 4*n*c^2 = 4*4*4 = 64; scores+values 2*n^2*c = 2*16*2 = 64
        assert totals([LevelDims(4, 4, 2, s=2)])["strided"] == 128

    def test_multi_level_additivity_hand(self):
        """Two levels sum their per-level costs."""
        dims = [LevelDims(2, 2, 4), LevelDims(1, 1, 4)]
        # second level: 4*1*16 + 2*1*4 = 64 + 8 = 72
        assert totals(dims)["full"] == 384 + 72

    def test_minimal_cell(self):
        """h=w=c=1: full = 4+2 = 6; decoupled = 8+4 = 12."""
        assert totals([LevelDims(1, 1, 1)])["full"] == 6
        assert totals([LevelDims(1, 1, 1)])["decoupled"] == 12


class TestFrozenBenchmarkTotals:
    def test_benchmark_totals(self):
        """Frozen totals over the four standard detection levels at c=256."""
        assert totals(COCO_LEVEL_DIMS) == {
            "full": 2489609472000, "strided": 3358924800, "decoupled": 367424000}

    def test_benchmark_ordering(self):
        """decoupled < strided < full on the standard dims."""
        t = totals(COCO_LEVEL_DIMS)
        assert t["decoupled"] < t["strided"] < t["full"]

    def test_table_reports_ordering(self):
        """flops_table carries totals and the ordering flag."""
        tab = flops_table(COCO_LEVEL_DIMS)
        assert tab["ordering_ok"] is True
        assert tab["totals"]["full"] == 2489609472000
        assert len(tab["levels"]) == 4


class TestInputLevels:
    def test_coco_dims_are_the_rule_at_800x1344(self):
        """The detection-scale levels: 800x1344 at strides 4, 8, 16, 32."""
        assert COCO_LEVEL_DIMS == (
            LevelDims(200, 336, 256, 8), LevelDims(100, 168, 256, 4),
            LevelDims(50, 84, 256, 2), LevelDims(25, 42, 256, 1))

    def test_ceil_division_per_level(self):
        """Level k is ceil(h / 2^(k+2)) by ceil(w / 2^(k+2)), one per stride."""
        assert input_level_dims(9, 33, 4, (3, 2, 1)) == (
            LevelDims(3, 9, 4, 3), LevelDims(2, 5, 4, 2), LevelDims(1, 3, 4, 1))
        assert input_level_dims(9, 33, 4, ()) == ()


class TestIdentities:
    def test_stride_one_equals_full(self):
        """s=1 strided cost is exactly the full cost, any dims."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            h, w, c = (int(rng.integers(1, 40)) for _ in range(3))
            dims = [LevelDims(h, w, c, s=1)]
            assert totals(dims)["strided"] == totals(dims)["full"]

    def test_costs_are_integers(self):
        """All closed forms produce exact integers (MAC counts)."""
        assert all(isinstance(v, int) for v in totals(COCO_LEVEL_DIMS).values())

    def test_dims_validated(self):
        """Non-positive dimensions are rejected at construction."""
        with pytest.raises(ValueError):
            LevelDims(0, 2, 4)
        with pytest.raises(ValueError):
            LevelDims(2, 2, 4, s=0)


class TestMeasuredAgainstAnalytic:
    @pytest.mark.parametrize("section", list(TOKEN_SETS))
    def test_measured_equals_formula_small(self, section):
        """Instrumented attention MACs equal the closed form exactly, for
        every layout of the table."""
        dims = [LevelDims(2, 2, 4)]
        assert measured_macs(section, dims) == totals(dims)[section]

    def test_measured_multi_level(self):
        """Exact equality holds across several levels at once."""
        dims = [LevelDims(4, 3, 4), LevelDims(2, 2, 4)]
        assert measured_macs("full", dims) == totals(dims)["full"]
        assert measured_macs("decoupled", dims) == totals(dims)["decoupled"]

    def test_measured_strided_with_an_empty_set(self):
        """A strided level with h*w < s^2 subsamples to no token: its set
        costs 0 by the closed form and runs no attention, beside a level
        of 16 // 4 = 4 tokens that does."""
        empty = [LevelDims(2, 2, 4, s=4)]
        assert measured_macs("strided", empty) == totals(empty)["strided"] == 0
        dims = [LevelDims(4, 4, 4, s=2), *empty]
        assert measured_macs("strided", dims) == totals(dims)["strided"] == 384

    @pytest.mark.parametrize("section", ["dense"])
    def test_unmeasurable_section_rejected(self, section):
        """A section outside the layout table is refused, and the message
        names the section asked for and the known ones."""
        with pytest.raises(ContractViolation, match=rf"unknown section '{section}'; "
                                                    r"known sections: \('full', 'strided', "):
            measured_macs(section, [LevelDims(2, 2, 4)])

    def test_measured_empty(self):
        """No levels means zero cost."""
        assert measured_macs("full", []) == 0

    def test_counter_nesting_policy(self):
        """Every active counter accumulates: inner work counts in both."""
        with MacCounter() as a:
            first = attend(2, 4)
            with MacCounter() as b:
                second = attend(3, 2)
            third = attend(1, 4)
        assert (a.total, b.total) == (first + second + third, second)
        assert (first, second, third) == (160, 84, 72)

    def test_counter_ignores_matmuls_outside_attention(self):
        """An Mlp's matmuls run outside the attention scope: a counter open
        around an Mlp call counts none of them."""
        rng = np.random.default_rng(0)
        mlp = T.Mlp(rng, 4)
        with MacCounter() as counter:
            out = mlp(Tensor(rng.standard_normal((3, 4))))
        assert out.shape == (3, 4)
        assert counter.total == 0

    def test_counter_in_another_thread_sees_none_of_this_ones(self):
        """A counter held open in a second thread counts only that thread's
        attention: none of the MACs of attention run in this thread."""
        entered, release, held = threading.Event(), threading.Event(), []

        def hold():
            with MacCounter() as counter:
                held.append(counter)
                entered.set()
                release.wait(30)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert entered.wait(30)
            with MacCounter() as mine:
                cost = attend(4, 4)
        finally:
            release.set()
            thread.join(30)
        assert not thread.is_alive()
        assert mine.total == cost
        assert held[0].total == 0

    def test_counters_in_interleaved_threads_count_their_own(self):
        """Four threads, more than the cores, each count their own attention
        under a switch interval short enough to interleave them: every
        counter reads its own thread's closed-form cost, and no other's."""
        results = []

        def work(k):
            with MacCounter() as counter:
                cost = sum(attend(2 + k, 4) for _ in range(10))
            results.append((counter.total, cost))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 4
        assert all(total == cost for total, cost in results)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 64))
def test_full_dominates_decoupled_when_tokens_exceed_axes(h, w, c):
    """Property: once hw > h+w the full cost strictly exceeds decoupled."""
    if h * w > h + w and h * w * h * w > h * h + w * w:
        dims = [LevelDims(h, w, c)]
        assert totals(dims)["full"] > totals(dims)["decoupled"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10), st.integers(1, 8)),
                min_size=1, max_size=4))
def test_additivity_property(dim_list):
    """Property: multi-level cost is the sum of single-level costs."""
    dims = [LevelDims(h, w, c) for h, w, c in dim_list]
    for layout in ("full", "decoupled"):
        assert totals(dims)[layout] == sum(totals([d])[layout] for d in dims)
