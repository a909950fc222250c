"""Attention-cost model: closed forms against hand-computed values,
measured multiply-accumulates against the formulas, orderings, identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdtp.complexity import (
    COCO_LEVEL_DIMS,
    LevelDims,
    MacCounter,
    flops_decoupled,
    flops_full,
    flops_strided,
    flops_table,
    input_level_dims,
    measured_macs,
)
from sdtp.tensor import ContractViolation


class TestHandComputedValues:
    def test_full_single_level(self):
        """4hwc^2 + 2(hw)^2 c at h=w=2, c=4: 256 + 128 = 384."""
        assert flops_full([LevelDims(2, 2, 4)]) == 384

    def test_decoupled_single_level(self):
        """4(h+w)c^2 + 2(h^2+w^2)c at h=w=2, c=4: 256 + 64 = 320."""
        assert flops_decoupled([LevelDims(2, 2, 4)]) == 320

    def test_strided_single_level(self):
        """Strided tokens: hw/s^2 = 4 at h=w=4, c=2, s=2: 128 + 64 = 192."""
        # 4 * 4 * 2^2 * (16//4) ... spelled out: n = 16//4 = 4 tokens
        # projections 4*n*c^2 = 4*4*4 = 64; scores+values 2*n^2*c = 2*16*2 = 64
        assert flops_strided([LevelDims(4, 4, 2, s=2)]) == 128

    def test_multi_level_additivity_hand(self):
        """Two levels sum their per-level costs."""
        dims = [LevelDims(2, 2, 4), LevelDims(1, 1, 4)]
        # second level: 4*1*16 + 2*1*4 = 64 + 8 = 72
        assert flops_full(dims) == 384 + 72

    def test_minimal_cell(self):
        """h=w=c=1: full = 4+2 = 6; decoupled = 8+4 = 12."""
        assert flops_full([LevelDims(1, 1, 1)]) == 6
        assert flops_decoupled([LevelDims(1, 1, 1)]) == 12


class TestFrozenBenchmarkTotals:
    def test_benchmark_totals(self):
        """Frozen totals over the four standard detection levels at c=256."""
        assert flops_full(COCO_LEVEL_DIMS) == 2489609472000
        assert flops_strided(COCO_LEVEL_DIMS) == 3358924800
        assert flops_decoupled(COCO_LEVEL_DIMS) == 367424000

    def test_benchmark_ordering(self):
        """decoupled < strided < full on the standard dims."""
        d = flops_decoupled(COCO_LEVEL_DIMS)
        s = flops_strided(COCO_LEVEL_DIMS)
        f = flops_full(COCO_LEVEL_DIMS)
        assert d < s < f

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
            assert flops_strided(dims) == flops_full(dims)

    def test_costs_are_integers(self):
        """All closed forms produce exact integers (MAC counts)."""
        for fn in (flops_full, flops_strided, flops_decoupled):
            assert isinstance(fn(COCO_LEVEL_DIMS), int)

    def test_dims_validated(self):
        """Non-positive dimensions are rejected at construction."""
        with pytest.raises(ValueError):
            LevelDims(0, 2, 4)
        with pytest.raises(ValueError):
            LevelDims(2, 2, 4, s=0)


class TestMeasuredAgainstAnalytic:
    @pytest.mark.parametrize("section,formula", [
        ("full", flops_full), ("decoupled", flops_decoupled)])
    def test_measured_equals_formula_small(self, section, formula):
        """Instrumented attention MACs equal the closed form exactly."""
        dims = [LevelDims(2, 2, 4)]
        assert measured_macs(section, dims) == formula(dims)

    def test_measured_multi_level(self):
        """Exact equality holds across several levels at once."""
        dims = [LevelDims(4, 3, 4), LevelDims(2, 2, 4)]
        assert measured_macs("full", dims) == flops_full(dims)
        assert measured_macs("decoupled", dims) == flops_decoupled(dims)

    @pytest.mark.parametrize("section", ["strided", "dense"])
    def test_unmeasurable_section_rejected(self, section):
        """Only full and decoupled attention run here; strided is a closed
        form only, and the message names the section asked for."""
        with pytest.raises(ContractViolation, match=rf"unknown section '{section}'"):
            measured_macs(section, [LevelDims(2, 2, 4)])

    def test_measured_empty(self):
        """No levels means zero cost."""
        assert measured_macs("full", []) == 0

    def test_counter_nesting_policy(self):
        """Every active counter accumulates: inner work counts in both."""
        from sdtp.complexity import record_macs
        with MacCounter() as a:
            record_macs(1)
            with MacCounter() as b:
                record_macs(2)
            record_macs(3)
        assert (a.total, b.total) == (6, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 64))
def test_full_dominates_decoupled_when_tokens_exceed_axes(h, w, c):
    """Property: once hw > h+w the full cost strictly exceeds decoupled."""
    if h * w > h + w and h * w * h * w > h * h + w * w:
        dims = [LevelDims(h, w, c)]
        assert flops_full(dims) > flops_decoupled(dims)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10), st.integers(1, 8)),
                min_size=1, max_size=4))
def test_additivity_property(dim_list):
    """Property: multi-level cost is the sum of single-level costs."""
    dims = [LevelDims(h, w, c) for h, w, c in dim_list]
    for fn in (flops_full, flops_decoupled):
        assert fn(dims) == sum(fn([d]) for d in dims)
