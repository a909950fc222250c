"""Gradient checker: soundness on known-good ops, the deliberately corrupted
negative control, report structure, and full registry coverage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdtp import attention as AT
from sdtp import gradcheck as GC
from sdtp import tensor as T
from sdtp.arf import arf, arf_grad, arf_op
from sdtp.gradcheck import (
    GradCheckReport,
    corrupted_linear,
    registered_cases,
    run_all,
    run_case,
    vjp_check,
)
from sdtp.tensor import Tensor

# in registration order, which is the report order
EXPECTED_CASES = [
    "matmul", "conv2d_1x1", "conv2d_3x3", "conv2d_3x3_dilated", "conv2d_3x1",
    "conv2d_1x3", "layer_norm", "gelu", "softmax_rows", "mlp", "outer_sum_mlp",
    "softmax_pool_axis1", "softmax_pool_axis2", "outer_sum_distance", "resample_nearest",
    "arf", "attention_core_softmax", "attention_core_arf", "generate_states", "mma",
    "isp_block", "decouple", "recouple", "mga", "decouple_loss", "cdi_block",
    "sdtp_pipeline",
]


class TestChecker:
    def test_correct_vjp_passes(self):
        """A hand-built op with the right backward passes the check."""
        x = Tensor(np.random.default_rng(0).standard_normal((4, 4)))

        def fn(x):
            return T.mul(x, x)

        rep = vjp_check(fn, [("x", x)], op_name="square")
        assert rep.passed
        assert rep.max_rel_err < 1e-6

    def test_corrupted_vjp_fails(self):
        """A backward that claims factor 2.5 for a 2x forward is caught."""
        x = Tensor(np.random.default_rng(0).standard_normal((3, 3)))

        def fn(x):
            return Tensor._from_op(2.0 * x.data, (x,), lambda g: (2.5 * g,))

        rep = vjp_check(fn, [("x", x)], op_name="bad")
        assert not rep.passed
        assert rep.max_rel_err == pytest.approx(0.2, rel=1e-6)

    def test_missing_gradient_diagnosed(self):
        """An input the graph never touches is reported, not crashed on."""
        x = Tensor(np.zeros((2, 2)))
        y = Tensor(np.ones((2, 2)))
        rep = vjp_check(lambda x, y: T.scale(y, 3.0), [("x", x), ("y", y)])
        assert not rep.passed
        assert "x" in rep.diagnostic

    def test_output_independent_of_inputs_diagnosed(self):
        """An output that records no graph at all is diagnosed the same way."""
        x = Tensor(np.zeros((2, 2)))
        rep = vjp_check(lambda x: T.scale(Tensor(np.ones((2, 2))), 3.0), [("x", x)])
        assert not rep.passed
        assert rep.diagnostic == "no gradient reached input 'x'"

    def test_non_finite_forward_diagnosed(self):
        """NaN in the forward output becomes a diagnostic."""
        x = Tensor(np.ones((2, 2)))

        def fn(x):
            return Tensor._from_op(np.full((2, 2), np.nan), (x,), lambda g: (g,))

        rep = vjp_check(fn, [("x", x)])
        assert not rep.passed
        assert "non-finite" in rep.diagnostic

    def test_report_shape(self):
        """Reports carry one entry per input with name, error, step."""
        x = Tensor(np.random.default_rng(1).standard_normal((3,)))
        w = Tensor(np.random.default_rng(2).standard_normal((3,)))
        rep = vjp_check(lambda x, w: T.sum_all(T.mul(x, w)), [("x", x), ("w", w)])
        assert [e.name for e in rep.entries] == ["x", "w"]
        d = rep.to_dict()
        assert d["passed"] is True
        assert len(d["entries"]) == 2

    def test_inputs_restored_after_check(self):
        """The checker leaves input data unchanged and grads cleared."""
        data = np.random.default_rng(3).standard_normal((3, 3))
        x = Tensor(data.copy())
        vjp_check(lambda x: T.mul(x, x), [("x", x)])
        np.testing.assert_array_equal(x.data, data)
        assert x.grad is None

    def test_requires_grad_restored(self):
        """Each input leaves with the requires_grad it came with, also where
        the check returns early with a diagnostic."""
        x = Tensor(np.ones((2, 2)))
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        assert vjp_check(lambda x, w: T.scale(x, 2.0), [("x", x), ("w", w)]).diagnostic
        vjp_check(lambda x: T.scale(x, 2.0), [("x", x)])
        assert (x.requires_grad, w.requires_grad) == (False, True)

    @pytest.mark.parametrize("vjp,forward,diagnostic", [
        (lambda g: (g * np.inf,), lambda d: 2.0 * d, "non-finite gradient for input 'x'"),
        (lambda g: (2.0 * g,), lambda d: d / 0.0, "non-finite forward output"),
    ], ids=["gradient", "forward"])
    def test_non_finite_diagnostics(self, vjp, forward, diagnostic):
        """vjp_check reports a non-finite forward or gradient as its
        diagnostic, and run_case folds the first point's into `point 0: ...`
        with passed False."""
        def factory(rng):
            x = Tensor(rng.standard_normal((2, 3)))
            return (lambda x: Tensor._from_op(forward(x.data), (x,), vjp)), [("x", x)]

        with np.errstate(divide="ignore", invalid="ignore"):
            rep = vjp_check(*factory(np.random.default_rng(0)))
            folded = run_case("bad", points=2, factory=factory)
        assert (rep.passed, rep.diagnostic) == (False, diagnostic)
        assert (folded.passed, folded.diagnostic) == (False, f"point 0: {diagnostic}")


class TestRegistry:
    def test_expected_cases_registered(self):
        """Every differentiable op plus the end-to-end pipeline is covered,
        in the order that the report and the bench's case rotation follow."""
        assert registered_cases() == EXPECTED_CASES

    def test_run_case_unknown_name(self):
        with pytest.raises(KeyError):
            run_case("not_a_case")

    def test_run_case_folds_worst(self):
        """A folded report has one entry per distinct input name."""
        rep = run_case("matmul", points=3)
        assert rep.passed
        assert sorted(e.name for e in rep.entries) == ["a", "b"]

    def test_negative_control_fails_unregistered(self):
        """The corrupted case runs from its factory, fails, and never joins
        the registry."""
        rep = run_case("corrupted_linear", points=2, factory=corrupted_linear)
        assert rep.op == "corrupted_linear"
        assert not rep.passed
        assert rep.max_rel_err > 0.1
        assert "corrupted_linear" not in registered_cases()

    def test_run_all_subset(self):
        """run_all on a subset returns one report per requested case."""
        reps = run_all(["gelu", "arf"], points=2)
        assert [r.op for r in reps] == ["gelu", "arf"]
        assert all(r.passed for r in reps)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_every_case_passes_at_drawn_seeds(seed):
    """Every registered case passes at the default tolerance and step at a
    point drawn from other config seeds than the CLI's default."""
    for r in run_all(registered_cases(), points=1, seed=seed):
        assert r.passed, r.to_dict()


def test_multi_slab_outer_sum_mlp_passes(monkeypatch):
    """The registered outer_sum_mlp case (a (3, 9, 2) map, hidden width 6)
    runs as one slab at the default block size.  With _BLOCK_ELEMS patched
    to 4 factor rows' worth, it spans two aligned slabs, the second of 5
    rows taking in the lone last row, and its VJP passes the
    finite-difference check at 10 points with the default tolerance and
    step."""
    monkeypatch.setattr(T, "_BLOCK_ELEMS", 4 * 2 * 6)
    assert T._blocks(9, 2 * 6, 2) == [slice(0, 4), slice(4, 9)]
    rep = run_case("outer_sum_mlp", points=10)
    assert rep.passed, rep.to_dict()


# (config seed, case, point k) where an input of the refinement gate sits
# closer to its kink at 0 than the base step reaches, so the first central
# difference straddles the kink; `sdtp gradcheck --seed N` failed there
KINK_POINTS = [(4, "mma", 5), (12, "isp_block", 8), (14, "sdtp_pipeline", 9)]


def _check_point(seed, case, k, factory=None):
    """vjp_check at one point of run_case(case, seed=seed), alone."""
    fn, inputs = (factory or GC._REGISTRY[case])(np.random.default_rng((seed, k)))
    return vjp_check(fn, inputs, seed=1000 + k, op_name=case)


def _flipped_arf_op(t, tau=2.0):
    """arf_op with the sign of its VJP flipped."""
    return Tensor._from_op(arf(t.data, tau), (t,), lambda g: (-g * arf_grad(t.data, tau),))


class TestKink:
    @pytest.mark.parametrize("seed,case,k", KINK_POINTS)
    def test_kink_point_passes(self, seed, case, k):
        """A direction whose difference straddles the kink is estimated again
        at smaller steps, and the right VJP passes against that estimate."""
        rep = _check_point(seed, case, k)
        assert rep.diagnostic is None
        assert rep.passed, rep.to_dict()

    @pytest.mark.parametrize("seed,case,k", KINK_POINTS)
    def test_negative_control_fails_at_kink_point(self, seed, case, k):
        rep = _check_point(seed, case, k, factory=corrupted_linear)
        assert not rep.passed
        assert rep.max_rel_err == pytest.approx(0.2, rel=1e-6)

    @pytest.mark.parametrize("seed,case,k", KINK_POINTS)
    def test_flipped_arf_vjp_fails_at_kink_point(self, monkeypatch, seed, case, k):
        """The refined estimate still exposes a wrong VJP of the gate."""
        monkeypatch.setattr(AT, "arf_op", _flipped_arf_op)
        rep = _check_point(seed, case, k)
        assert rep.diagnostic is None
        assert not rep.passed
        assert rep.max_rel_err > 0.1

    def test_unsettled_differences_diagnosed(self):
        """Kinks at geometrically shrinking distances from the point make
        every step refinement cross one more of them, so no two estimates
        agree: a named diagnostic, not a pass and not a plain mismatch."""
        h = GC.DEFAULT_STEP
        kinks = 0.5 + 1.5 * h * 4.0 ** -np.arange(1, GC.MAX_REFINEMENTS + 2)
        x = Tensor(np.array([0.5]))
        rep = vjp_check(lambda x: T.sum_all(arf_op(T.sub(x, Tensor(kinks)))), [("x", x)])
        assert not rep.passed
        assert rep.diagnostic.startswith("non-differentiable point")
        assert "'x'" in rep.diagnostic

    def test_thin_margin_direction_is_refined(self):
        """A kink half a step from the point skews a right VJP's base-step
        difference to between a tenth of the tolerance and the tolerance.
        The direction is estimated again and judged against the finer
        estimate, and its entry carries the refined step."""
        h, eps = GC.DEFAULT_STEP, 1e-4  # |x| < 1 keeps the base step h
        kink = 0.5 - h / 2

        def f(v):
            return v + eps * arf(v - kink)

        base_err = GC._rel_err(1.0 + eps * arf_grad(np.array(h / 2)),
                               (f(0.5 + h) - f(0.5 - h)) / (2.0 * h))
        assert GC.DEFAULT_TOLERANCE / 10 <= base_err < GC.DEFAULT_TOLERANCE

        def fn(x):
            return T.add(x, T.scale(arf_op(T.sub(x, Tensor(np.array([kink])))), eps))

        rep = vjp_check(fn, [("x", Tensor(np.array([0.5])))])
        assert rep.passed, rep.to_dict()
        assert rep.entries[0].step == h / 4
        assert rep.max_rel_err < base_err / 100

    def test_rounding_level_direction_is_not_refined(self):
        """At point 7 of `sdtp gradcheck --seed 34` a cdi.mlp.lin2.w
        direction has a derivative of 9e-7 on an objective of 36, so its
        9.8e-5 base-step error is rounding, not a kink: finer steps only
        magnify it, down to two exact-zero estimates that would agree and
        fail the right VJP.  The direction keeps its base-step verdict."""
        rep = _check_point(34, "sdtp_pipeline", 7)
        assert rep.passed, rep.to_dict()
        (entry,) = [e for e in rep.entries if e.name == "cdi.mlp.lin2.w"]
        assert entry.step == GC.DEFAULT_STEP
        assert GC.DEFAULT_TOLERANCE / 10 <= entry.rel_err < GC.DEFAULT_TOLERANCE

    def test_passing_directions_cost_no_extra_evaluation(self):
        """A smooth function is evaluated once for the backward pass and
        twice per direction, with no refinement."""
        calls = [0]

        def fn(x):
            calls[0] += 1
            return T.mul(x, x)

        x = Tensor(np.random.default_rng(0).standard_normal((3, 3)))
        assert vjp_check(fn, [("x", x)]).passed
        assert calls[0] == 1 + 2 * GC.DIRECTIONS
