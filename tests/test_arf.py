"""Rectified-tanh-family activation: golden values, degeneracies, clipping,
boost over tanh, numerical stability, and analytic derivative."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdtp.arf import arf, arf_grad, arf_op
from sdtp.tensor import ContractViolation, Tensor

GRID = np.linspace(-10.0, 10.0, 10001)


class TestGoldenValues:
    def test_half_point_tau_two(self):
        """High-precision golden value at x=0.5, tau=2."""
        got = float(arf(np.array(0.5), tau=2.0))
        assert got == pytest.approx(0.6278898701621425, abs=1e-14)

    def test_against_arbitrary_precision_reference(self):
        """Recompute reference values with 50-digit arithmetic from the
        defining formula (e^x - e^-x) / (e^x + e^-(x+2 tau))."""
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for x in (0.25, 0.5, 1.0, 2.5, 7.0):
            for tau in (0.0, 0.5, 2.0):
                xm, tm = mp.mpf(x), mp.mpf(tau)
                want = (mp.e ** xm - mp.e ** -xm) / (mp.e ** xm + mp.e ** -(xm + 2 * tm))
                got = float(arf(np.array(x), tau=tau))
                assert got == pytest.approx(float(want), abs=5e-15), (x, tau)

    def test_tau_zero_equals_tanh_at_one(self):
        """At tau=0 the positive branch is exactly tanh."""
        got = float(arf(np.array(1.0), tau=0.0))
        assert got == pytest.approx(0.7615941559557649, abs=1e-15)

    def test_grad_tau_zero_matches_tanh_derivative(self):
        """Derivative at tau=0 equals 1 - tanh^2 on the positive side."""
        got = float(arf_grad(np.array(0.5), tau=0.0))
        assert got == pytest.approx(0.7864477329659274, abs=1e-15)


class TestShape:
    def test_tau_zero_degenerates_to_rectified_tanh(self):
        """Dense grid: tau=0 collapses onto max(tanh(x), 0) to 1e-12."""
        got = arf(GRID, tau=0.0)
        want = np.maximum(np.tanh(GRID), 0.0)
        assert np.abs(got - want).max() < 1e-12

    def test_negative_inputs_clip_to_zero(self):
        """Everything at or below zero maps to exactly 0 for any tau."""
        xs = GRID[GRID <= 0.0]
        for tau in (0.0, 0.5, 2.0, 10.0):
            assert np.all(arf(xs, tau=tau) == 0.0)

    def test_positive_side_boosted_above_tanh(self):
        """For tau>0 the response strictly exceeds tanh on (0, 10]."""
        xs = GRID[GRID > 0.0]
        got = arf(xs, tau=2.0)
        assert np.all(got > np.tanh(xs))

    def test_bounded_by_one(self):
        """Values never exceed 1 (they saturate toward it from below)."""
        for tau in (0.0, 2.0, 50.0):
            assert np.all(arf(GRID, tau=tau) <= 1.0)

    def test_monotone_in_tau_at_fixed_x(self):
        """Raising tau never lowers the response at a positive input."""
        x = np.array(1.5)
        vals = [float(arf(x, tau=t)) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert vals == sorted(vals)


class TestStability:
    def test_extreme_inputs_finite(self):
        """x = +-700 neither overflows nor produces NaN."""
        lo, hi = arf(np.array(-700.0), 2.0), arf(np.array(700.0), 2.0)
        assert lo == 0.0
        assert hi == 1.0
        assert arf_grad(np.array(-700.0), 2.0) == 0.0
        assert arf_grad(np.array(700.0), 2.0) == 0.0

    def test_no_warnings_on_wide_range(self):
        """No overflow/invalid/divide on [-700, 700] (underflow-to-zero is
        the intended graceful saturation and is allowed)."""
        xs = np.linspace(-700, 700, 2001)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = arf(xs, tau=2.0)
            g = arf_grad(xs, tau=2.0)
        assert np.all(np.isfinite(out)) and np.all(np.isfinite(g))

    def test_nan_propagates(self):
        """A NaN score stays NaN in the gate and its derivative, as in tanh
        and softmax, instead of being clipped to 0 and lost; the inputs
        around it keep their values."""
        xs = np.array([np.nan, -np.inf, -1.0, -0.0, 0.0, 1.0, np.inf])
        out, g = arf(xs, tau=2.0), arf_grad(xs, tau=2.0)
        assert np.isnan(out[0]) and np.isnan(g[0])
        np.testing.assert_array_equal(out[1:], arf(xs[1:], tau=2.0))
        np.testing.assert_array_equal(g[1:], arf_grad(xs[1:], tau=2.0))
        assert out[-1] == 1.0 and np.all(out[1:5] == 0.0) and np.all(g[1:5] == 0.0)


class TestDerivative:
    def test_matches_central_difference(self):
        """Analytic derivative agrees with central differences off the kink."""
        xs = np.array([0.1, 0.5, 1.0, 2.0, 5.0, -0.5, -2.0])
        h = 1e-6
        num = (arf(xs + h, 2.0) - arf(xs - h, 2.0)) / (2 * h)
        np.testing.assert_allclose(arf_grad(xs, 2.0), num, rtol=1e-7, atol=1e-9)

    def test_subgradient_zero_at_origin(self):
        """The kink at x=0 uses the zero subgradient."""
        assert float(arf_grad(np.array(0.0), 2.0)) == 0.0

    def test_vjp_scales_upstream(self):
        """arf_op's backward is elementwise upstream * derivative."""
        x = np.array([0.3, 1.2, -0.7])
        up = np.array([2.0, -1.0, 3.0])
        t = Tensor(x, requires_grad=True)
        arf_op(t, tau=2.0).backward(up)
        np.testing.assert_array_equal(t.grad, up * arf_grad(x, 2.0))


class TestParams:
    def test_negative_tau_rejected(self):
        """tau must be finite and nonnegative."""
        for fn in (arf, arf_grad):
            for tau in (-0.1, np.nan):
                with pytest.raises(ContractViolation):
                    fn(np.array([0.5]), tau=tau)

    def test_defaults(self):
        """Default offset is 2."""
        x = np.array([-1.0, 0.5, 3.0])
        np.testing.assert_array_equal(arf(x), arf(x, tau=2.0))


@settings(max_examples=60, deadline=None)
@given(st.floats(-50, 50, allow_nan=False), st.floats(0, 10, allow_nan=False))
def test_range_property(x, tau):
    """Property: output always lies in [0, 1] and is 0 for x <= 0."""
    v = float(arf(np.array(x), tau=tau))
    assert 0.0 <= v <= 1.0
    if x <= 0:
        assert v == 0.0
