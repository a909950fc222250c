"""Autodiff core: forward values against loop oracles, backward via the
gradient checker, and structural contracts (shapes, accumulation, views)."""

import itertools
import math
import re
import threading
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdtp import tensor as T
from sdtp.arf import arf_op
from sdtp.tensor import ContractViolation, Tensor

from oracles import (
    naive_conv2d,
    naive_layer_norm,
    naive_matmul,
    naive_softmax_row,
)
from unfused import (
    outer_sum_ln_linear,
    unblocked_conv2d,
    unfused_outer_sum_distance,
    unfused_outer_sum_mlp,
    unfused_softmax_pool,
)

RNG = np.random.default_rng(1234)


def rand(*shape):
    return RNG.standard_normal(shape)


class TestForwardValues:
    def test_matmul_matches_triple_loop(self):
        """matmul agrees with an explicit scalar triple loop."""
        a, b = rand(5, 7), rand(7, 3)
        got = T.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, naive_matmul(a, b), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kh,kw,dil", [(1, 1, 1), (3, 3, 1), (3, 3, 2), (3, 1, 1), (1, 3, 1)])
    def test_conv2d_matches_direct_convolution(self, kh, kw, dil):
        """conv2d agrees with a direct six-deep loop, all kernel footprints."""
        x, w = rand(3, 6, 5), rand(4, 3, kh, kw)
        got = T.conv2d(Tensor(x), Tensor(w), dilation=dil).data
        np.testing.assert_allclose(got, naive_conv2d(x, w, dil), rtol=1e-12, atol=1e-12)

    def test_conv2d_preserves_spatial_dims(self):
        """Same-padding keeps (h, w) for every supported kernel."""
        x = Tensor(rand(2, 7, 4))
        for kh, kw in [(1, 1), (3, 3), (3, 1), (1, 3)]:
            out = T.conv2d(x, Tensor(rand(5, 2, kh, kw)))
            assert out.shape == (5, 7, 4)

    def test_conv2d_rejects_unsupported_kernel(self):
        """Kernel footprints outside the supported set are contract errors."""
        with pytest.raises(ContractViolation):
            T.conv2d(Tensor(rand(2, 4, 4)), Tensor(rand(2, 2, 5, 5)))

    @pytest.mark.parametrize("dil", [0, 2.0, (2, 2)])
    def test_conv2d_rejects_bad_dilation(self, dil):
        """The dilation is one integer >= 1, applied along both axes."""
        with pytest.raises(ContractViolation, match="dilation"):
            T.conv2d(Tensor(rand(2, 4, 4)), Tensor(rand(2, 2, 3, 3)), dilation=dil)

    def test_layer_norm_matches_scalar_loop(self):
        """layer_norm agrees with a per-row scalar implementation."""
        x = rand(4, 9)
        gain, bias = rand(9), rand(9)
        got = T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
        np.testing.assert_allclose(got, naive_layer_norm(x, gain, bias),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 5), (7, 24), (4, 256)])
    def test_layer_norm_bit_identical_to_mean_form(self, n, d):
        """layer_norm takes each row mean as a sum over d and one division,
        ndarray.mean's own arithmetic: values and VJP outputs equal those
        formed with .mean bit for bit."""
        rng = np.random.default_rng(n * d)
        x = rng.standard_normal((n, d)) * 3.0 + 1.0
        gain, bias, g = rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal((n, d))
        out = T.layer_norm(*(Tensor(a, requires_grad=True) for a in (x, gain, bias)))
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + T.LAYER_NORM_EPS)
        xhat = xc * inv
        dxhat = g * gain
        gx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
              - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv
        assert np.array_equal(out.data, xhat * gain + bias)
        for got, want in zip(out._node._vjp(g), (gx, (g * xhat).sum(axis=0), g.sum(axis=0))):
            assert np.array_equal(got, want)

    def test_softmax_rows_matches_scalar_loop(self):
        """softmax_rows agrees with math.exp row-by-row."""
        x = rand(3, 6)
        got = T.softmax_rows(Tensor(x)).data
        want = np.stack([naive_softmax_row(r) for r in x])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_softmax_rows_frozen_triple(self):
        """Frozen value: softmax([1, 2, 3])."""
        got = T.softmax_rows(Tensor(np.array([[1.0, 2.0, 3.0]]))).data[0]
        want = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_softmax_handles_large_inputs(self):
        """Max subtraction keeps softmax finite at +-1e4 logits."""
        out = T.softmax_rows(Tensor(np.array([[1e4, -1e4, 0.0]]))).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(), 1.0, rtol=0, atol=1e-12)

    def test_gelu_reference_points(self):
        """Exact-erf gelu: fixed points from the defining formula."""
        from math import erf, sqrt
        xs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        want = np.array([x * 0.5 * (1 + erf(x / sqrt(2))) for x in xs])
        got = T.gelu(Tensor(xs)).data
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)

    def test_gelu_cdf_bits(self):
        """The in-place cdf is the same bits as 0.5 * (1 + erf(x / sqrt 2))."""
        from scipy.special import erf
        x = rand(7, 9) * 3
        assert T._gelu_cdf(x).tobytes() == (0.5 * (1.0 + erf(x / np.sqrt(2.0)))).tobytes()

    def test_resample_nearest_identity_and_double(self):
        """Resampling to the same dims is the identity; 2x repeats cells."""
        x = rand(2, 3, 3)
        same = T.resample_nearest(Tensor(x), (3, 3)).data
        np.testing.assert_array_equal(same, x)
        up = T.resample_nearest(Tensor(x), (6, 6)).data
        assert up[0, 0, 0] == up[0, 1, 1] == x[0, 0, 0]
        assert up.shape == (2, 6, 6)

    def test_frobenius_norm_value(self):
        """With zero factors outer_sum_distance is the map's Frobenius norm:
        50**0.5 for a 3-4-5 triple."""
        m = Tensor(np.array([3.0, 4.0, 5.0]).reshape(1, 1, 3))
        dist = T.outer_sum_distance(m, Tensor(np.zeros((1, 1, 1))), Tensor(np.zeros((1, 1, 3))))
        assert dist.data == pytest.approx(np.sqrt(50.0), rel=1e-15)

    def test_token_map_round_trip(self):
        """(c,h,w) -> tokens -> (c,h,w) is exactly the identity."""
        x = rand(4, 3, 5)
        t = T.map_to_tokens(Tensor(x))
        assert t.shape == (15, 4)
        back = T.tokens_to_map(t, (3, 5)).data
        np.testing.assert_array_equal(back, x)


class TestBackwardStructure:
    def test_grad_accumulates_across_two_uses(self):
        """A tensor used twice gets the sum of both branch gradients."""
        x = Tensor(rand(3, 3), requires_grad=True)
        y = T.add(T.scale(x, 2.0), T.scale(x, 3.0))
        T.sum_all(y).backward()
        np.testing.assert_allclose(x.grad, np.full((3, 3), 5.0), rtol=0, atol=0)

    def test_backward_does_not_mutate_shared_grad_arrays(self):
        """narrow views rebind rather than write into the parent gradient."""
        x = Tensor(rand(4, 6), requires_grad=True)
        a = T.narrow(x, 1, 0, 3)
        b = T.narrow(x, 1, 3, 3)
        T.sum_all(T.add(T.mul(a, a), b)).backward()
        want = np.concatenate([2 * x.data[:, :3], np.ones((4, 3))], axis=1)
        np.testing.assert_allclose(x.grad, want, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("axis,start,length", [(0, 2, 5), (1, -1, 2), (1, 0, 5), (0, 3, 1),
                                                   (1, 2, -1)])
    def test_narrow_rejects_a_range_outside_the_axis(self, axis, start, length):
        """A range that starts before the axis or ends past it raises,
        where numpy's slicing would clip it to a shorter or empty one."""
        a = Tensor(rand(3, 4))
        with pytest.raises(ContractViolation, match=rf"narrow range {start}:{start + length} "
                                                    rf"outside axis {axis} of length"):
            T.narrow(a, axis, start, length)

    @pytest.mark.parametrize("axis,start,length", [(0, 0, 3), (1, 3, 1), (1, 4, 0)])
    def test_narrow_accepts_every_range_inside_the_axis(self, axis, start, length):
        a = Tensor(rand(3, 4))
        out = T.narrow(a, axis, start, length)
        assert out.shape[axis] == length
        assert np.array_equal(out.data, np.take(a.data, range(start, start + length), axis))

    def test_backward_skips_a_node_that_receives_no_gradient(self):
        """A VJP may return None for a parent that needs a gradient.  A node
        that receives nothing else is consumed without its VJP running, so
        the leaves behind it get no .grad."""
        ran = []
        x = Tensor(rand(2, 3), requires_grad=True)
        mid = Tensor._from_op(x.data * 2.0, (x,), lambda g: ran.append(g) or (2.0 * g,))
        out = Tensor._from_op(mid.data.sum(), (mid,), lambda g: (None,))
        node = mid._node
        out.backward()
        assert ran == [] and x.grad is None
        assert node._vjp is T._consumed and node._parents == ()

    def test_repr_names_shape_grad_and_name(self):
        assert repr(Tensor(np.zeros((2, 3)))) == "Tensor(shape=(2, 3), grad=False)"
        assert (repr(Tensor(np.zeros(4), requires_grad=True, name="w"))
                == "Tensor(shape=(4,), grad=True, name='w')")

    def test_concat_narrow_round_trip_gradient(self):
        """concat backward routes slices back to each operand."""
        a = Tensor(rand(2, 3), requires_grad=True)
        b = Tensor(rand(2, 2), requires_grad=True)
        out = T.concat([a, b], axis=1)
        T.sum_all(T.mul(out, out)).backward()
        np.testing.assert_allclose(a.grad, 2 * a.data, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(b.grad, 2 * b.data, rtol=1e-15, atol=1e-15)

    def test_backward_adds_in_place_only_into_its_own_sums(self):
        """A VJP returns one array to two parents, each of which has two
        more consumers.  backward() adds the later shares in place only into
        the sums it formed itself: the returned array is left as it was,
        and each leaf gradient is the out-of-place sum of its shares in
        arrival order, bit for bit."""
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        y = Tensor(rng.standard_normal(4), requires_grad=True)
        p, q = T.scale(x, 2.0), T.scale(y, 2.0)
        shared = rng.standard_normal(4)
        kept = shared.copy()
        both = Tensor._from_op(p.data + q.data, (p, q), lambda g: (shared, shared))
        cs = [rng.standard_normal(4) for _ in range(4)]
        out = both
        for parent, c in zip((p, q, p, q), cs):
            # mul's VJP hands p (or q) the cotangent of ones times c: c itself
            out = T.add(out, T.mul(parent, Tensor(c)))
        out.backward(np.ones(4))
        assert np.array_equal(shared, kept)
        assert np.array_equal(x.grad, ((shared + cs[0]) + cs[2]) * 2.0)
        assert np.array_equal(y.grad, ((shared + cs[1]) + cs[3]) * 2.0)

    def test_second_backward_is_refused(self):
        """backward() consumes the graph, so a second pass over it raises,
        and every leaf keeps the gradient the first pass left."""
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        z = T.sum_all(T.mul(x, x))
        z.backward()
        first = x.grad
        with pytest.raises(ContractViolation, match="already consumed"):
            z.backward()
        assert x.grad is first
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    @pytest.mark.parametrize("shared_first", [True, False])
    def test_backward_through_a_consumed_subgraph_is_refused(self, shared_first):
        """A pass from another output that shares a subgraph an earlier pass
        consumed is refused before any VJP runs: it changes no leaf's
        gradient, also on a leaf that only its other term reaches, whichever
        term the pass would reach first."""
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        j = Tensor(np.array([3.0, -1.0]), requires_grad=True)
        shared = T.mul(x, x)
        T.sum_all(shared).backward()
        gx = x.grad
        terms = [T.sum_all(T.mul(shared, x)), T.sum_all(T.mul(j, j))]
        other = T.add(*(terms if shared_first else terms[::-1]))
        with pytest.raises(ContractViolation, match="already consumed"):
            other.backward()
        assert x.grad is gx and j.grad is None
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    @pytest.mark.parametrize("seed_shape", [(2, 3), (1,), (3, 1)])
    def test_backward_rejects_a_seed_of_another_shape(self, seed_shape):
        """The seed gradient must have the output's shape: a (2, 3) seed for
        a (3,) output would add up its rows into the leaf's gradient, and a
        (1,) seed would be broadcast.  It is refused, naming both shapes,
        before the graph is walked: no gradient changes, and the graph can
        still run a pass with a seed of the right shape."""
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        out = T.mul(x, x)
        with pytest.raises(ContractViolation,
                           match=re.escape(f"shape {seed_shape} for an output of shape (3,)")):
            out.backward(np.ones(seed_shape))
        assert x.grad is None
        out.backward(np.ones(3))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_backward_rejects_non_scalar_without_seed(self):
        """Calling backward() on a non-scalar without a seed grad fails."""
        x = Tensor(rand(2, 2), requires_grad=True)
        with pytest.raises(ContractViolation):
            T.scale(x, 2.0).backward()

    def test_backward_without_graph_raises(self):
        """backward() on an output that recorded no graph is a contract
        error, not a silent no-op that leaves every input without a grad."""
        out = T.sum_all(Tensor(np.ones(3)))
        with pytest.raises(ContractViolation, match="no graph"):
            out.backward()
        assert out.grad is None

    def test_no_grad_tensors_stay_clean(self):
        """Tensors with requires_grad=False never receive gradients."""
        x = Tensor(rand(2, 2), requires_grad=True)
        k = Tensor(rand(2, 2), requires_grad=False)
        T.sum_all(T.matmul(x, k)).backward()
        assert x.grad is not None
        assert k.grad is None

    def test_broadcast_add_routes_gradients(self):
        """add broadcasts (outer-sum style) and sums grads back per factor."""
        a = Tensor(rand(4, 1), requires_grad=True)
        b = Tensor(rand(1, 5), requires_grad=True)
        T.sum_all(T.add(a, b)).backward()
        np.testing.assert_allclose(a.grad, np.full((4, 1), 5.0), rtol=0, atol=0)
        np.testing.assert_allclose(b.grad, np.full((1, 5), 4.0), rtol=0, atol=0)

    @pytest.mark.parametrize("axes", list(itertools.permutations(range(3)))
                             + list(itertools.permutations(range(4))))
    def test_permute_vjp_round_trip(self, axes):
        """permute's VJP moves every cotangent entry back to the input
        position it came from: the gradient, permuted forward again, is the
        cotangent itself."""
        shape = (2, 3, 4, 5)[:len(axes)]
        x = Tensor(rand(*shape), requires_grad=True)
        out = T.permute(x, axes)
        g = rand(*out.shape)
        out.backward(g)
        assert x.grad.shape == shape
        assert np.array_equal(x.grad.transpose(axes), g)
        assert np.array_equal(x.grad, np.transpose(g, np.argsort(axes)))

    def test_incompatible_shapes_raise(self):
        """Non-broadcastable elementwise operands raise a ValueError."""
        with pytest.raises(ValueError):
            T.add(Tensor(rand(2, 3)), Tensor(rand(3, 2)))

    def test_matmul_inner_dim_mismatch_raises(self):
        """matmul checks the contraction dimension."""
        with pytest.raises(ContractViolation):
            T.matmul(Tensor(rand(2, 3)), Tensor(rand(4, 2)))


    @pytest.mark.parametrize("kh,kw,dil", [(3, 3, 1), (3, 3, 2), (1, 1, 1)])
    def test_conv2d_vjp_holds_only_its_inputs(self, kh, kw, dil):
        """conv2d's recorded VJP holds the arrays of x and w themselves: no
        padded copy of the input and no per-tap slices of the kernel."""
        x = Tensor(rand(3, 6, 5), requires_grad=True)
        w = Tensor(rand(4, 3, kh, kw), requires_grad=True)
        out = T.conv2d(x, w, dilation=dil)
        held = {id(a) for a in T.tape_arrays(out)}
        assert held == {id(out.data), id(x.data), id(w.data)}

    @pytest.mark.parametrize("kh,kw,dil", [(3, 3, 1), (1, 1, 1), (1, 3, 1)])
    def test_conv2d_vjp_skips_unneeded_input_gradient(self, kh, kw, dil):
        """An input that needed no gradient when the op was recorded (a raw
        input map) gets None from the VJP, and the weight gradient is the
        same bits as when the input gradient is formed."""
        x, g = rand(3, 6, 5), rand(4, 6, 5)
        w = Tensor(rand(4, 3, kh, kw), requires_grad=True)
        skipped = T.conv2d(Tensor(x), w, dilation=dil)._node._vjp(g)
        full = T.conv2d(Tensor(x, requires_grad=True), w, dilation=dil)._node._vjp(g)
        assert skipped[0] is None and full[0] is not None
        assert np.array_equal(skipped[1], full[1])


def closure_objects(fn):
    """Everything a function's closure reaches: its cells' contents,
    recursively through nested closures, tuples, lists and dict values."""
    found, stack = [], [fn]
    while stack:
        v = stack.pop()
        found.append(v)
        if isinstance(v, (tuple, list)):
            stack.extend(v)
        elif isinstance(v, dict):
            stack.extend(v.values())
        elif callable(v) and getattr(v, "__closure__", None):
            stack.extend(cell.cell_contents for cell in v.__closure__)
    return found


def leaves(*shapes):
    return [Tensor(rand(*s), requires_grad=True) for s in shapes]


# every differentiable op, applied to fresh grad-requiring leaves
RECORDED_OPS = {
    "add": lambda: T.add(*leaves((3, 4), (1, 4))),
    "sub": lambda: T.sub(*leaves((3, 4), (3, 1))),
    "mul": lambda: T.mul(*leaves((3, 4), (3, 4))),
    "scale": lambda: T.scale(*leaves((3, 4)), 2.0),
    "matmul": lambda: T.matmul(*leaves((3, 4), (4, 2))),
    "permute": lambda: T.permute(*leaves((2, 3, 4)), (2, 0, 1)),
    "reshape": lambda: T.reshape(*leaves((3, 4)), (4, 3)),
    "concat": lambda: T.concat(leaves((2, 3), (1, 3)), axis=0),
    "narrow": lambda: T.narrow(*leaves((3, 5)), 1, 1, 2),
    "sum_all": lambda: T.sum_all(*leaves((3, 4))),
    "mean_all": lambda: T.mean_all(*leaves((3, 4))),
    "gelu": lambda: T.gelu(*leaves((3, 4))),
    "tanh_t": lambda: T.tanh_t(*leaves((3, 4))),
    "softmax_rows": lambda: T.softmax_rows(*leaves((3, 4))),
    "conv2d": lambda: T.conv2d(*leaves((2, 4, 5), (3, 2, 3, 3))),
    "layer_norm": lambda: T.layer_norm(*leaves((3, 4), (4,), (4,))),
    "outer_sum_mlp": lambda: T.outer_sum_mlp(*leaves(
        (4, 3, 5), (3, 4), (5, 4), (4,), (4,), (4, 8), (8,), (8, 4), (4,))),
    "softmax_pool": lambda: T.softmax_pool(*leaves((2, 3, 4), (2, 2, 1, 1)), axis=1),
    "outer_sum_distance": lambda: T.outer_sum_distance(*leaves((2, 3, 4), (2, 3, 1), (2, 1, 4))),
    "resample_nearest": lambda: T.resample_nearest(*leaves((2, 3, 4)), (6, 8)),
    "arf_op": lambda: arf_op(*leaves((3, 4))),
}


class TestGraphNodes:
    def test_op_outputs_are_ndarrays(self):
        """numpy returns a scalar for a ufunc on 0-d arrays; an op's output
        is a 0-d array all the same, which its node can refer to weakly."""
        x = Tensor(rand(3), requires_grad=True)
        out = T.add(T.sum_all(x), T.sum_all(x))
        assert type(out.data) is np.ndarray and out.data.shape == ()
        out.backward()
        assert np.array_equal(x.grad, np.full(3, 2.0))

    @pytest.mark.parametrize("op", sorted(RECORDED_OPS))
    def test_vjp_closures_hold_no_tensor(self, op):
        """A recorded VJP holds shapes and the arrays it reads, never a
        Tensor, so it keeps no op output alive that it does not read."""
        out = RECORDED_OPS[op]()
        assert out.requires_grad
        held = closure_objects(out._node._vjp)
        assert not any(isinstance(v, Tensor) for v in held), op

    def test_dropped_intermediate_is_freed(self):
        """Once the caller drops an op's output Tensor, its array is freed
        while the graph lives on, if no VJP reads it (add and sum_all read
        shapes only), and backward() gives the same gradients as with the
        Tensor kept."""
        def run(keep):
            rng = np.random.default_rng(5)
            x = Tensor(rng.standard_normal((2, 2, 3)), requires_grad=True)
            y = Tensor(rng.standard_normal((2, 4, 6)), requires_grad=True)
            mid = T.resample_nearest(x, (4, 6))
            out = T.sum_all(T.mul(T.add(mid, y), y))
            ref = weakref.ref(mid.data)
            if not keep:
                del mid
                assert ref() is None
                assert out._node._vjp is not None
            out.backward()
            return x.grad, y.grad

        (gx, gy), (kx, ky) = run(keep=False), run(keep=True)
        assert np.array_equal(gx, kx) and np.array_equal(gy, ky)

    @pytest.mark.parametrize("op", sorted(RECORDED_OPS))
    def test_backward_frees_what_only_the_graph_held(self, op):
        """backward() consumes the graph: once a VJP has run, every array
        that only its closure held is freed, while the output Tensor is
        still alive, and the graph keeps nothing."""
        out = RECORDED_OPS[op]()
        read = [weakref.ref(v) for v in closure_objects(out._node._vjp)
                if isinstance(v, np.ndarray) and v is not out.data and v.base is not out.data]
        out.backward(np.ones(out.shape))
        assert [r() for r in read if r() is not None] == [], op
        assert T.tape_arrays(out) == []

    def test_backward_frees_each_vjp_as_it_goes(self):
        """An op output that the caller dropped and a VJP reads lives until
        that VJP has run, not until the pass ends: a VJP that runs later in
        the same pass finds it freed."""
        found = []

        def probe(g):  # an identity op's VJP, run after mul's and gelu's
            found.append(ref())
            return (g,)

        x = Tensor(rand(3, 4), requires_grad=True)
        mid = T.gelu(Tensor._from_op(x.data.copy(), (x,), probe))
        ref = weakref.ref(mid.data)
        out = T.sum_all(T.mul(mid, mid))
        del mid
        assert ref() is not None
        out.backward()
        assert found == [None] and x.grad is not None

    def test_node_data_after_free(self):
        """A node's data is its output's array while that lives and an empty
        array after it is freed; the tape counts only live outputs."""
        x = Tensor(rand(3, 4), requires_grad=True)
        mid = T.scale(x, 2.0)
        out = T.sum_all(mid)
        node = mid._node
        assert node.data is mid.data
        held = {id(a) for a in T.tape_arrays(out)}
        assert held == {id(out.data), id(mid.data), id(x.data)}
        del mid
        assert node.data.size == 0 and node.data.nbytes == 0
        assert {id(a) for a in T.tape_arrays(out)} == {id(out.data), id(x.data)}

    def test_tape_arrays_reads_dict_values_and_skips_unbound_cells(self):
        """tape_arrays finds the arrays a VJP closure holds as a dict's
        values, and passes over a closure cell not yet bound."""
        x = Tensor(rand(2, 3), requires_grad=True)
        kept = {"scale": rand(2, 3)}

        def vjp(g):
            return (g * kept["scale"] * late,)

        out = Tensor._from_op(x.data * 2.0, (x,), vjp)
        assert {id(a) for a in T.tape_arrays(out)} == {id(out.data), id(x.data), id(kept["scale"])}
        late = rand(2, 3)
        assert id(late) in {id(a) for a in T.tape_arrays(out)}

    def test_grad_free_parents_share_one_stand_in(self):
        """A parent that needs no gradient is linked as one constant
        stand-in without gradient, so the graph keeps no such Tensor."""
        x = Tensor(rand(2, 2), requires_grad=True)
        k = T.scale(Tensor(rand(2, 2)), 3.0)
        node_a = T.matmul(x, k)._node
        node_b = T.add(k, x)._node
        assert node_a._parents[0] is x and node_b._parents[1] is x
        stand_in = node_a._parents[1]
        assert node_b._parents[0] is stand_in
        assert not stand_in.requires_grad and stand_in.data.nbytes == 0


class TestNoGrad:
    def test_ops_inside_record_no_graph(self):
        """Inside the scope an op on grad-requiring parameters keeps no
        parents and no VJP, and its output cannot be backpropagated."""
        w = Tensor(rand(3, 3), requires_grad=True)
        with T.no_grad():
            out = T.sum_all(T.gelu(T.matmul(w, w)))
        assert not out.requires_grad
        assert out._parents == () and out._vjp is None
        with pytest.raises(ContractViolation):
            out.backward()
        assert w.grad is None

    def test_nested_scopes_restore_outer_state(self):
        """Leaving an inner scope keeps the outer one in force; leaving the
        outer one records graphs again."""
        w = Tensor(rand(2, 2), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert not T.scale(w, 2.0).requires_grad
        assert T.scale(w, 2.0).requires_grad

    def test_exception_restores_state(self):
        """An exception raised inside the scope leaves recording on."""
        w = Tensor(rand(2, 2), requires_grad=True)
        with pytest.raises(ContractViolation):
            with T.no_grad():
                T.matmul(w, Tensor(rand(3, 2)))
        out = T.sum_all(T.mul(w, w))
        assert out.requires_grad
        out.backward()
        np.testing.assert_array_equal(w.grad, 2 * w.data)

    def test_scope_held_in_another_thread_leaves_this_one_recording(self):
        """A scope held open in a second thread switches recording off in
        that thread only: an op in this thread still records its graph."""
        w = Tensor(rand(2, 2), requires_grad=True)
        entered, release, inside = threading.Event(), threading.Event(), []

        def hold():
            with T.no_grad():
                inside.append(T.scale(w, 2.0).requires_grad)
                entered.set()
                release.wait(30)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert entered.wait(30)
            out = T.matmul(w, w)
        finally:
            release.set()
            thread.join(30)
        assert not thread.is_alive()
        assert inside == [False]
        assert out.requires_grad


def dense_outer_sum_ln_linear(y, x, gain, bias, w, b):
    """Loop oracle: materialise r_ij = y_i + x_j, normalise, project."""
    r = (y[:, None, :] + x[None, :, :]).reshape(-1, y.shape[1])
    return naive_matmul(naive_layer_norm(r, gain, bias), w) + b


class TestOuterSumLnLinear:
    """outer_sum_mlp's factored Linear(LayerNorm(y_i + x_j)), taped on all
    rows at once from its private helpers, against dense references."""

    def factors(self, h, w, c=5, d=7, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((h, c)), rng.standard_normal((w, c)),
                rng.standard_normal(c), rng.standard_normal(c),
                rng.standard_normal((c, d)), rng.standard_normal(d))

    def check(self, y, x, gain, bias, w, b):
        got = outer_sum_ln_linear(*map(Tensor, (y, x, gain, bias, w, b))).data
        want = dense_outer_sum_ln_linear(y, x, gain, bias, w, b)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("h,w", [(3, 4), (1, 4), (3, 1), (1, 1), (6, 2)])
    def test_matches_dense_oracle(self, h, w):
        """Rows i*w + j equal Linear(LayerNorm(y_i + x_j)) of the loop oracle."""
        self.check(*self.factors(h, w, seed=h * 10 + w))

    def test_exact_cancellation_zero_variance(self):
        """y_i = -x_j makes that row's variance exactly 0: the row is the
        projected LN bias."""
        y, x, gain, bias, w, b = self.factors(3, 4)
        y[1] = -x[2]
        self.check(y, x, gain, bias, w, b)

    def test_zero_factors(self):
        """All-zero factors give the projected LN bias on every row."""
        y, x, gain, bias, w, b = self.factors(3, 4)
        self.check(np.zeros_like(y), np.zeros_like(x), gain, bias, w, b)

    @pytest.mark.parametrize("scale", [1e1, 1e3])
    def test_large_nearly_cancelling_factors(self, scale):
        """y_i = -x_j + 1e-3 * noise with factors of size `scale`: the
        factors exceed their sum by kappa ~ scale / 1e-3, and the op keeps
        the dense path's 1e-12 bound up to kappa = 1e4, beyond that within
        1e-16 * kappa (the variance is formed from centred squares, so only
        the projection A_i + B_j cancels)."""
        y, x, gain, bias, w, b = self.factors(3, 4, seed=7)
        x = scale * x
        noise = np.random.default_rng(8).standard_normal(y.shape)
        y = -x[[0, 2, 3]] + 1e-3 * noise
        got = outer_sum_ln_linear(*map(Tensor, (y, x, gain, bias, w, b))).data
        want = dense_outer_sum_ln_linear(y, x, gain, bias, w, b)
        kappa = scale / 1e-3
        bound = 1e-12 * max(1.0, kappa / 1e4)
        assert np.abs(got - want).max() <= bound * max(1.0, np.abs(want).max())

    def test_gradients_match_dense_ops(self):
        """The hand-written VJP equals backprop through the materialised
        outer sum, layer_norm and matmul."""
        h, wd = 3, 4
        arrays = self.factors(h, wd, seed=5)
        upstream = np.random.default_rng(6).standard_normal((h * wd, 7))

        def grads(fn):
            ts = [Tensor(a, requires_grad=True) for a in arrays]
            fn(*ts).backward(upstream)
            return [t.grad for t in ts]

        def dense(y, x, gain, bias, w, b):
            c = y.shape[1]
            r = T.add(T.reshape(y, (h, 1, c)), T.reshape(x, (1, wd, c)))
            ln = T.layer_norm(T.reshape(r, (h * wd, c)), gain, bias)
            return T.add(T.matmul(ln, w), b)

        for got, want in zip(grads(outer_sum_ln_linear), grads(dense)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_graph_keeps_no_token_sized_array(self):
        """Besides the output, the recorded VJP holds nothing as large as
        the (h*w, c) token matrix."""
        h, wd, c = 6, 5, 4
        ts = [Tensor(a, requires_grad=True) for a in self.factors(h, wd, c=c, d=8)]
        out = outer_sum_ln_linear(*ts)
        held = [a for a in T.tape_arrays(out) if a is not out.data]
        assert all(a.size < h * wd * c for a in held)

    def test_shape_contract(self):
        """Factors must share their width with the gain, bias and weight rows."""
        y, x, gain, bias, w, b = map(Tensor, self.factors(3, 4))
        with pytest.raises(ContractViolation):
            outer_sum_ln_linear(y, Tensor(rand(4, 6)), gain, bias, w, b)
        with pytest.raises(ContractViolation):
            outer_sum_ln_linear(y, x, gain, bias, Tensor(rand(6, 7)), b)


class TestOuterSumMlp:
    def inputs(self, h, w=6, c=4, d=16, seed=0):
        rng = np.random.default_rng(seed)
        shapes = [(c, h, w), (h, c), (w, c), (c,), (c,), (c, d), (d,), (d, c), (c,)]
        return [rng.standard_normal(s) for s in shapes]

    # factor rows per slab on a map 6 columns wide, a multiple of
    # 8 // gcd(6, 8) = 4, so that every slab starts at a multiple of 8 tokens
    SLAB = 4

    @staticmethod
    def patch_slabs(monkeypatch, rows, w=6, d=16):
        """Patch _BLOCK_ELEMS to `rows` factor rows of a map w columns wide
        with hidden width d: outer_sum_mlp's slabs are then that many rows,
        rounded down to a multiple of 8 // gcd(w, 8)."""
        monkeypatch.setattr(T, "_BLOCK_ELEMS", rows * w * d)

    # h = k * SLAB + extra: one row, a slab short of full, one full slab,
    # one row past it, two full slabs and a partial one
    @pytest.mark.parametrize("k,extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
    def test_forward_bit_identical_to_chain(self, monkeypatch, k, extra):
        self.patch_slabs(monkeypatch, self.SLAB)
        arrays = self.inputs(k * self.SLAB + extra, seed=k * 10 + extra)
        got = T.outer_sum_mlp(*map(Tensor, arrays)).data
        want = unfused_outer_sum_mlp(*map(Tensor, arrays)).data
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    # The VJP sums lin2's weight and bias gradients, and the factor side's
    # sums over token rows, slab by slab, so over several slabs they are
    # summed in another order than over all rows at once.  Measured against
    # the unfused chain over 50 seeds of each multi-slab case below (15 of
    # each odd-width one), the worst max-norm relative difference of any
    # input's gradient was 1.8e-15; the bound leaves 50 times that.
    SLAB_SUM_REL = 1e-13

    @pytest.mark.parametrize("extra", [1, 3])
    def test_gradients_bit_identical_to_chain(self, monkeypatch, extra):
        """Every input's gradient equals backprop through the unfused chain,
        over three slabs the last one partial, up to the reordered sums
        across slabs: within SLAB_SUM_REL, max-norm relative."""
        self.patch_slabs(monkeypatch, self.SLAB)
        arrays = self.inputs(2 * self.SLAB + extra, seed=extra)
        upstream = np.random.default_rng(9).standard_normal(arrays[0].shape)
        fused = grads_of(T.outer_sum_mlp, arrays, upstream)
        chain = grads_of(unfused_outer_sum_mlp, arrays, upstream)
        for got, want in zip(fused, chain):
            assert_rel_close(got, want, self.SLAB_SUM_REL)

    @pytest.mark.parametrize("h", [5, 9, 17])
    def test_one_column_map_bit_identical_to_chain(self, monkeypatch, h):
        """On a map one column wide, a slab of one factor row would be one
        token row, which numpy multiplies as a vector, with other bits; the
        slabs are 8 rows (a partial one at h = 5), the lone last row joins
        the slab before it, and values equal the unfused chain's bit for
        bit.  So do the gradients where that leaves one slab (h = 5 and 9);
        over two (h = 17) they are within SLAB_SUM_REL."""
        self.patch_slabs(monkeypatch, 8, w=1)
        assert T._blocks(h, 16, 1)[-1] == slice(max(h - 9, 0), h)
        arrays = self.inputs(h, w=1, seed=h)
        upstream = np.random.default_rng(h).standard_normal(arrays[0].shape)
        fused = grads_of(T.outer_sum_mlp, arrays, upstream)
        chain = grads_of(unfused_outer_sum_mlp, arrays, upstream)
        assert np.array_equal(T.outer_sum_mlp(*map(Tensor, arrays)).data,
                              unfused_outer_sum_mlp(*map(Tensor, arrays)).data)
        one_slab = len(T._blocks(h, 16, 1)) == 1
        for got, want in zip(fused, chain):
            if one_slab:
                assert np.array_equal(got, want)
            else:
                assert_rel_close(got, want, self.SLAB_SUM_REL)

    @pytest.mark.parametrize("rows", [2, 3, 5])
    @pytest.mark.parametrize("w", [3, 5, 7])
    def test_odd_width_slabs_start_at_multiples_of_8_tokens(self, monkeypatch, w, rows):
        """On odd widths a slab of 2, 3 or 5 factor rows would start off a
        multiple of 8 tokens, where OpenBLAS sums the second projection's
        product rows otherwise than over the whole token matrix.  The slabs
        are rounded down to a multiple of 8 rows (one step of 8 // gcd(w, 8)),
        and values equal the unfused chain's bit for bit (c = 35, hidden
        width 64); the gradients, over several slabs, are within
        SLAB_SUM_REL."""
        c, d, h = 35, 64, 19
        self.patch_slabs(monkeypatch, rows, w=w, d=d)
        slabs = T._blocks(h, w * d, w)
        assert len(slabs) > 1 and all(s.start * w % 8 == 0 for s in slabs)
        arrays = self.inputs(h, w=w, c=c, d=d, seed=10 * w + rows)
        upstream = np.random.default_rng(w).standard_normal(arrays[0].shape)
        assert np.array_equal(T.outer_sum_mlp(*map(Tensor, arrays)).data,
                              unfused_outer_sum_mlp(*map(Tensor, arrays)).data)
        fused = grads_of(T.outer_sum_mlp, arrays, upstream)
        chain = grads_of(unfused_outer_sum_mlp, arrays, upstream)
        for got, want in zip(fused, chain):
            assert_rel_close(got, want, self.SLAB_SUM_REL)

    def test_backward_walks_the_slabs_once(self, monkeypatch):
        """The VJP forms each slab's GELU cdf once, for both lin2's weight
        gradient and the hidden cotangent: one _gelu_cdf call per slab."""
        self.patch_slabs(monkeypatch, self.SLAB)
        arrays = self.inputs(2 * self.SLAB + 3, seed=2)
        n_slabs = len(T._blocks(arrays[1].shape[0], 6 * 16, 6))
        assert n_slabs >= 3
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        out = T.outer_sum_mlp(*ts)
        with mock.patch.object(T, "_gelu_cdf", wraps=T._gelu_cdf) as cdf:
            out.backward(np.ones(out.shape))
        assert cdf.call_count == n_slabs

    def test_graph_keeps_no_hidden_sized_array(self, monkeypatch):
        """Besides the output and the input map, the graph holds factor-sized
        arrays only, nothing as large as the (h*w, c) token matrix, let
        alone the (h*w, 4c) hidden one: no recoupled map, partial sum or MLP
        output either."""
        self.patch_slabs(monkeypatch, self.SLAB)
        h, wd, c = 2 * self.SLAB + 3, 6, 4
        ts = [Tensor(a, requires_grad=True) for a in self.inputs(h, wd, c)]
        out = T.outer_sum_mlp(*ts)
        held = [a for a in T.tape_arrays(out) if a is not out.data and a is not ts[0].data]
        assert held
        assert all(a.size < h * wd * c for a in held)

    def test_graph_keeps_no_copy_of_the_first_weight(self):
        """No array of w1's shape but w1 itself is held: the VJP rebuilds
        gain * w1, a (c, 4c) array per CDI level, when it runs."""
        ts = [Tensor(a, requires_grad=True) for a in self.inputs(5)]  # no (h, d) is (c, d)
        w1 = ts[5].data
        held = T.tape_arrays(T.outer_sum_mlp(*ts))
        assert any(a is w1 for a in held)
        assert [a.shape for a in held if a.shape == w1.shape and a is not w1] == []

    def test_shape_contract(self):
        """The map, factors, LayerNorm, both weights and both biases must
        agree."""
        m, y, x, gain, bias, w1, b1, w2, b2 = map(Tensor, self.inputs(3))
        bad = [
            (m, y, Tensor(rand(6, 5)), gain, bias, w1, b1, w2, b2),
            (m, y, x, Tensor(rand(5)), bias, w1, b1, w2, b2),
            (m, y, x, gain, bias, Tensor(rand(5, 16)), b1, w2, b2),
            (m, y, x, gain, bias, w1, Tensor(rand(8)), w2, b2),
            (m, y, x, gain, bias, w1, b1, Tensor(rand(8, 4)), b2),
            (m, y, x, gain, bias, w1, b1, w2, Tensor(rand(5))),
            (m, y, x, gain, bias, w1, b1, Tensor(rand(16)), b2),
            (m, y, x, gain, bias, w1, b1, Tensor(rand(16, 5)), Tensor(rand(5))),
            (Tensor(rand(4, 3, 5)), y, x, gain, bias, w1, b1, w2, b2),
            (Tensor(rand(5, 3, 6)), y, x, gain, bias, w1, b1, w2, b2),
        ]
        for args in bad:
            with pytest.raises(ContractViolation):
                T.outer_sum_mlp(*args)

    def test_level2_memory(self):
        """At level-2 dims (h = w = 64, c = 256) a no-grad Mlp(OuterSum)
        call peaks well under the 32 MiB hidden array plus GELU's
        temporaries, and a taped call keeps little beyond its 8 MiB output."""
        rng = np.random.default_rng(0)
        mlp = T.Mlp(rng, 256)
        ln = T.LayerNorm(256)
        y, x = Tensor(rng.standard_normal((64, 256))), Tensor(rng.standard_normal((64, 256)))
        m = Tensor(rng.standard_normal((256, 64, 64)))
        mib = 2 ** 20
        tracemalloc.start()
        try:
            with T.no_grad():
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = mlp(T.OuterSum(m, y, x, ln))
                peak = tracemalloc.get_traced_memory()[1] - base
            del out
            base = tracemalloc.get_traced_memory()[0]
            out = mlp(T.OuterSum(m, y, x, ln))
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert peak < 48 * mib
        assert kept < 16 * mib

    def level2_backward(self):
        """The tracemalloc peak of a taped level-2 Mlp(OuterSum) call's
        backward above what the call keeps, with the factor y and the Mlp."""
        rng = np.random.default_rng(0)
        mlp = T.Mlp(rng, 256)
        ln = T.LayerNorm(256)
        y = Tensor(rng.standard_normal((64, 256)), requires_grad=True)
        x = Tensor(rng.standard_normal((64, 256)), requires_grad=True)
        m = Tensor(rng.standard_normal((256, 64, 64)))
        upstream = rng.standard_normal((256, 64, 64))
        tracemalloc.start()
        try:
            out = mlp(T.OuterSum(m, y, x, ln))
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out.backward(upstream)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak, y, mlp

    def test_level2_backward_memory(self):
        """At level-2 dims (h = w = 64, c = 256) the backward of a taped
        Mlp(OuterSum) call holds at most two of the 32 MiB hidden-sized
        arrays at once: its peak above what the call keeps stays well under
        the four or five of a GELU VJP over the whole hidden array."""
        peak, y, mlp = self.level2_backward()
        assert y.grad.shape == (64, 256) and mlp.lin2.w.grad.shape == (1024, 256)
        assert peak < 100 * 2 ** 20

    def test_level2_backward_holds_one_hidden_sized_array(self):
        """The VJP walks the slabs once and holds no hidden-sized array (see
        TestLevel2Memory.test_outer_sum_mlp_backward for its bound), so the
        level-2 backward's peak above what the call keeps stays under two
        32 MiB hidden-sized arrays."""
        peak, _, _ = self.level2_backward()
        assert peak < 64 * 2 ** 20


def grads_of(fn, arrays, upstream):
    """Input gradients of fn at arrays for the cotangent upstream."""
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    fn(*ts).backward(upstream)
    return [t.grad for t in ts]


def assert_rel_close(got, want, rel):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), 1e-300)


# odd dims, and the level dims of a slab-crossing h
POOL_DIMS = [(3, 5, 7), (1, 1, 1), (2, 9, 1), (4, 1, 6), (5, 17, 11)]


class TestSoftmaxPool:
    @pytest.mark.parametrize("axis", [1, 2])
    @pytest.mark.parametrize("dims", POOL_DIMS)
    def test_forward_bit_identical_to_chain(self, dims, axis):
        rng = np.random.default_rng(sum(dims) + axis)
        x, w = rng.standard_normal(dims), rng.standard_normal((dims[0], dims[0], 1, 1))
        got = T.softmax_pool(Tensor(x), Tensor(w), axis).data
        want = unfused_softmax_pool(Tensor(x), Tensor(w), axis).data
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("axis", [1, 2])
    @pytest.mark.parametrize("dims", POOL_DIMS)
    def test_gradients_match_chain(self, dims, axis):
        """Gradients of x (both its uses) and of the logit kernel equal the
        chain's within 1e-12 relative."""
        rng = np.random.default_rng(sum(dims) + 10 * axis)
        arrays = [rng.standard_normal(dims), rng.standard_normal((dims[0], dims[0], 1, 1))]
        pooled = list(dims)
        pooled[axis] = 1
        upstream = rng.standard_normal(pooled)
        fused = grads_of(lambda x, w: T.softmax_pool(x, w, axis), arrays, upstream)
        chain = grads_of(lambda x, w: unfused_softmax_pool(x, w, axis), arrays, upstream)
        for got, want in zip(fused, chain):
            assert_rel_close(got, want, 1e-12)

    def test_graph_keeps_no_map_sized_array(self):
        """The graph holds the arrays of x, w and the output alone: no
        softmax, logits, transposed copy or product of the map's size."""
        for axis in (1, 2):
            x = Tensor(rand(3, 5, 7), requires_grad=True)
            w = Tensor(rand(3, 3, 1, 1), requires_grad=True)
            out = T.softmax_pool(x, w, axis)
            held = T.tape_arrays(out)
            assert {id(a) for a in held} == {id(out.data), id(x.data), id(w.data)}

    def test_contract(self):
        """The map must be (c, h, w), the kernel (c, c, 1, 1), the axis 1 or 2."""
        x = Tensor(rand(3, 4, 5))
        with pytest.raises(ContractViolation):
            T.softmax_pool(x, Tensor(rand(3, 3, 1, 1)), axis=0)
        with pytest.raises(ContractViolation):
            T.softmax_pool(x, Tensor(rand(2, 3, 1, 1)), axis=2)
        with pytest.raises(ContractViolation):
            T.softmax_pool(x, Tensor(rand(3, 3, 3, 1)), axis=2)
        with pytest.raises(ContractViolation):
            T.softmax_pool(Tensor(rand(3, 4)), Tensor(rand(3, 3, 1, 1)), axis=1)


# (c_in, c_out, h, w, kh, kw, dilation, rows per block): several blocks and
# a partial last one, also on maps smaller than the dilation; where the
# last block would be one row, it joins the one before it.  conv2d rounds
# the rows per block to a multiple of 8 // gcd(w, 8), so that each block
# starts at a multiple of 8 columns of the flattened map (OpenBLAS computes
# 8 columns per kernel step); a map of fewer than two such steps of rows is
# one block.  On one-column maps (w == 1) a tap's rows clipped to a block's
# reach can leave one row, and a product over one column is a vector
# product (gemv), which sums in another order than the whole map's matrix
# product; the orders' results differ once the product sums 16 output
# channels.  The rows with 16 input channels and widths 1, 3, 5 and 7 give
# other bits than the whole map wherever a block starts off a multiple of
# 8 columns.
BLOCKED_CONVS = [
    (3, 4, 11, 5, 3, 3, 1, 3),
    (3, 4, 11, 5, 3, 3, 3, 4),
    (3, 4, 11, 5, 3, 3, 6, 2),
    (3, 4, 8, 2, 3, 3, 3, 3),
    (2, 3, 5, 2, 3, 3, 6, 3),
    (3, 4, 7, 5, 3, 1, 1, 4),
    (3, 4, 8, 5, 3, 1, 3, 3),
    (3, 4, 7, 1, 3, 1, 1, 2),
    (4, 3, 8, 5, 1, 3, 1, 3),
    (8, 16, 7, 1, 3, 3, 1, 2),
    (8, 16, 7, 1, 3, 3, 6, 2),
    (8, 16, 9, 1, 3, 1, 2, 3),
    (3, 4, 9, 4, 3, 3, 2, 3),
    (4, 16, 6, 1, 1, 3, 1, 2),
    (16, 8, 19, 1, 3, 3, 6, 2),
    (16, 16, 17, 1, 3, 3, 1, 2),
    (16, 16, 18, 1, 3, 1, 2, 3),
    (16, 16, 16, 1, 1, 3, 1, 2),
    (16, 8, 21, 3, 1, 3, 1, 5),
    (16, 8, 19, 5, 3, 1, 3, 3),
    (16, 8, 18, 5, 3, 3, 2, 4),
    (16, 8, 12, 7, 3, 3, 1, 3),
]

# (c_in, c_out, h, w, kh, kw, dilation): convs whose stack of every tap's
# window fits one block unpatched, so they take the stacked path: the
# gradcheck cases' four, dilation 6 on 3x3 maps, 3x1 and 1x3 kernels on
# one-column and one-row maps, and the default dims' level-5 3x3 conv.
STACKED_CONVS = [
    (3, 2, 5, 4, 3, 3, 1),
    (2, 2, 6, 6, 3, 3, 2),
    (3, 3, 6, 1, 3, 1, 1),
    (3, 3, 1, 6, 1, 3, 1),
    (4, 5, 3, 3, 3, 3, 6),
    (4, 5, 3, 3, 3, 1, 6),
    (5, 4, 3, 3, 1, 3, 6),
    (8, 8, 7, 1, 3, 3, 3),
    (8, 8, 1, 7, 1, 3, 2),
    (16, 3, 2, 5, 3, 3, 2),
    (256, 256, 8, 8, 3, 3, 1),
]


def spy_stacked(monkeypatch) -> list:
    """Patch conv2d's batched product to log the shape of each block's
    stack of windows, (taps, c_in, rows * w)."""
    calls, stacked = [], T._conv_stacked

    def spy(stack, *args):
        calls.append(stack.shape)
        return stacked(stack, *args)

    monkeypatch.setattr(T, "_conv_stacked", spy)
    return calls


def assert_conv2d_bit_identical_to_unblocked(c_in, c_out, h, w, kh, kw, dil):
    """conv2d's values and both VJP outputs equal the unblocked
    reference's bit for bit, the gradients laid out as its own."""
    rng = np.random.default_rng(h * 100 + dil * 10 + kh)
    x, wt = rng.standard_normal((c_in, h, w)), rng.standard_normal((c_out, c_in, kh, kw))
    g = rng.standard_normal((c_out, h, w))
    got = T.conv2d(Tensor(x, requires_grad=True), Tensor(wt), dil)
    want = unblocked_conv2d(Tensor(x, requires_grad=True), Tensor(wt), dil)
    assert np.array_equal(got.data, want.data)
    for a, b in zip(got._node._vjp(g), want._node._vjp(g)):
        assert_same_arrays(a, b)


def assert_same_arrays(got, want):
    """Equal bits and equal memory layout: a reduction over a gradient sums
    in an order set by its strides, so a gradient laid out otherwise can
    move the low bits of what is formed from it downstream."""
    assert np.array_equal(got, want)
    assert got.strides == want.strides


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 200), st.integers(1, 4096), st.integers(1, 64), st.integers(1, 2 ** 14))
def test_blocks_is_one_aligned_rule(n, row_elems, row_len, block_elems):
    """Property: _blocks covers range(n) with consecutive blocks, in order;
    each starts at a multiple of step = 8 // gcd(row_len, 8) rows, so at a
    multiple of 8 along the axis the product cuts; no block is one row
    unless n is; and each holds at most one step's rows beyond
    max(step, 2, _BLOCK_ELEMS // row_elems), the rows a lone last row adds."""
    with mock.patch.object(T, "_BLOCK_ELEMS", block_elems):
        blocks = T._blocks(n, row_elems, row_len)
    step = 8 // math.gcd(row_len, 8)
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert all(b.step is None and b.stop > b.start for b in blocks)
    assert all(b.start % step == 0 and b.start * row_len % 8 == 0 for b in blocks)
    assert n == 1 or all(b.stop - b.start > 1 for b in blocks)
    most = max(step, 2, block_elems // row_elems) + step
    assert all(b.stop - b.start <= most for b in blocks)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 17), st.integers(1, 17), st.integers(1, 24), st.integers(1, 12),
       st.sampled_from(sorted(T.ALLOWED_KERNEL_SHAPES)), st.integers(1, 6),
       st.integers(1, 4000), st.integers(0, 2 ** 16))
@example(3, 4, 20, 8, (3, 3), 1, 9 * 4 * 8 * 2, 0)  # the last of two blocks takes the batched product
def test_conv2d_bit_identical_to_unblocked_property(c_in, c_out, h, w, kernel, dil, block_elems,
                                                    seed):
    """Property: with _BLOCK_ELEMS patched to any size, conv2d's values and
    both VJP outputs equal the unblocked reference's bit for bit, the
    gradients laid out as its own, whichever path each block takes.

    One exception, which no block size sets: with one output channel the
    weight gradient, one product over the whole map, is a vector-matrix
    product whose bits depend on the layout of the window it reads (a
    contiguous patch in conv2d's VJP, a strided view of the padded map in
    the reference), so there it agrees to rounding."""
    kh, kw = kernel
    rng = np.random.default_rng(seed)
    x, wt = rng.standard_normal((c_in, h, w)), rng.standard_normal((c_out, c_in, kh, kw))
    g = rng.standard_normal((c_out, h, w))
    with mock.patch.object(T, "_BLOCK_ELEMS", block_elems):
        got = T.conv2d(Tensor(x, requires_grad=True), Tensor(wt), dil)
        gx, gw = got._node._vjp(g)
    want = unblocked_conv2d(Tensor(x, requires_grad=True), Tensor(wt), dil)
    want_gx, want_gw = want._node._vjp(g)
    assert np.array_equal(got.data, want.data)
    assert_same_arrays(gx, want_gx)
    if c_out > 1:
        assert_same_arrays(gw, want_gw)
    else:
        np.testing.assert_allclose(gw, want_gw, rtol=1e-13, atol=1e-13)


class TestBlocks:
    """conv2d, softmax_pool and outer_sum_mlp form their temporaries one
    block of about _BLOCK_ELEMS elements at a time (see _blocks), in the
    forward and in the VJP.  With
    the block patched small, so that a map spans several blocks and a
    partial last one, values and both VJP outputs equal the unblocked
    references' bit for bit, and the gradients are laid out as theirs."""

    @pytest.mark.parametrize("c_in,c_out,h,w,kh,kw,dil,rows", BLOCKED_CONVS)
    def test_conv2d_bit_identical_to_unblocked(self, monkeypatch, c_in, c_out, h, w, kh, kw,
                                               dil, rows):
        monkeypatch.setattr(T, "_BLOCK_ELEMS", rows * max(c_in, c_out) * w)
        blocks = T._blocks(h, max(c_in, c_out) * w, w)
        step = 8 // np.gcd(w, 8)
        assert all(b.start * w % 8 == 0 for b in blocks)
        assert len(blocks) > 1 or h < 2 * step
        calls = spy_stacked(monkeypatch)
        assert_conv2d_bit_identical_to_unblocked(c_in, c_out, h, w, kh, kw, dil)
        assert calls == []

    @pytest.mark.parametrize("c_in,c_out,h,w,kh,kw,dil", STACKED_CONVS)
    def test_stacked_conv2d_bit_identical_to_unblocked(self, monkeypatch, c_in, c_out, h, w,
                                                       kh, kw, dil):
        """A map whose stack of every tap's window fits one block takes
        the stacked path: one batched product over all taps, summed in tap
        order by one reduction, with the per-tap products' bits."""
        calls = spy_stacked(monkeypatch)
        assert_conv2d_bit_identical_to_unblocked(c_in, c_out, h, w, kh, kw, dil)
        assert calls == [(kh * kw, c_in, h * w)]

    @pytest.mark.parametrize("c_in,c_out,h,w,kh,kw,dil,last", [
        (3, 4, 20, 8, 3, 3, 1, 2), (4, 3, 21, 8, 3, 1, 2, 3), (3, 5, 19, 3, 1, 3, 1, 3)])
    def test_partial_last_block_takes_the_batched_product(self, monkeypatch, c_in, c_out, h,
                                                           w, kh, kw, dil, last):
        """On a map of several blocks, each block takes the path its own
        stack sets: the full blocks the per-tap loop, a last block of
        `last` rows whose stack fits _BLOCK_ELEMS the batched product,
        with the bits of the unblocked reference."""
        monkeypatch.setattr(T, "_BLOCK_ELEMS", kh * kw * max(c_in, c_out) * w * last)
        assert len(T._blocks(h, max(c_in, c_out) * w, w)) > 1
        calls = spy_stacked(monkeypatch)
        assert_conv2d_bit_identical_to_unblocked(c_in, c_out, h, w, kh, kw, dil)
        assert calls == [(kh * kw, c_in, last * w)]

    @pytest.mark.parametrize("c_in,c_out,h,w,kh,kw,dil", [
        (3, 4, 5, 4, 3, 3, 1), (4, 3, 8, 1, 3, 1, 2), (3, 4, 1, 9, 1, 3, 3)])
    @pytest.mark.parametrize("spare", [0, -1])
    def test_stacked_path_chosen_by_stack_size(self, monkeypatch, c_in, c_out, h, w, kh, kw,
                                               dil, spare):
        """The stacked path runs while kh*kw*max(c_in, c_out)*h*w is at
        most _BLOCK_ELEMS, and the per-tap loop one element over; either
        way the bits are the unblocked reference's."""
        monkeypatch.setattr(T, "_BLOCK_ELEMS", kh * kw * max(c_in, c_out) * h * w + spare)
        calls = spy_stacked(monkeypatch)
        assert_conv2d_bit_identical_to_unblocked(c_in, c_out, h, w, kh, kw, dil)
        assert len(calls) == (spare == 0)

    @pytest.mark.parametrize("c_in,h,w,kh,kw,dil", [
        (2, 6, 1, 1, 3, 1), (2, 2, 1, 3, 3, 6), (3, 1, 1, 3, 3, 1), (3, 4, 5, 3, 3, 1)])
    def test_one_output_channel_keeps_the_tap_loop(self, monkeypatch, c_in, h, w, kh, kw, dil):
        """With one output channel numpy forms each tap's product as a
        vector-matrix product, whose bits depend on how the window is laid
        out, and sums the taps of a one-element output pairwise; such a
        conv keeps the per-tap loop, and the reference's bits."""
        calls = spy_stacked(monkeypatch)
        assert_conv2d_bit_identical_to_unblocked(c_in, 1, h, w, kh, kw, dil)
        assert calls == []

    @pytest.mark.parametrize("c_in,c_out,h,w,kh,kw,dil", [
        (16, 16, 8, 8, 3, 3, 1), (24, 16, 8, 8, 3, 3, 2), (16, 24, 1, 64, 1, 3, 1),
        (256, 256, 8, 8, 3, 3, 1)])
    def test_stacked_conv2d_memory(self, c_in, c_out, h, w, kh, kw, dil):
        """The stacked path allocates its output, the kernel copy and two
        stacks of at most kh*kw*max(c_in, c_out)*h*w elements: the windows
        and the products.  The padded map is freed before the products
        are formed; on these maps it is smaller than they are (a dilation
        beyond the map pads it past them).  4 KiB covers array headers."""
        rng = np.random.default_rng(c_in + h)
        x = Tensor(rng.standard_normal((c_in, h, w)))
        wt = Tensor(rng.standard_normal((c_out, c_in, kh, kw)))
        out, peak = no_grad_peak(lambda: T.conv2d(x, wt, dil))
        stack = 8 * kh * kw * max(c_in, c_out) * h * w
        assert peak <= out.data.nbytes + wt.data.nbytes + 2 * stack + 4096

    def test_1x1_conv2d_reads_a_permuted_view_as_laid_out(self, monkeypatch):
        """A 1x1 conv2d is not blocked, even with blocks smaller than the
        map, and multiplies the array of a permuted token view as it is,
        with no copy, as the unblocked reference does.  (With OpenBLAS on
        x86, the product over a contiguous copy of the same values differs
        in its low bits.)"""
        monkeypatch.setattr(T, "_BLOCK_ELEMS", 16)
        rng = np.random.default_rng(0)
        tokens = Tensor(rng.standard_normal((4, 16)), requires_grad=True)
        wt, g = Tensor(rng.standard_normal((16, 16, 1, 1))), rng.standard_normal((16, 2, 2))
        x = T.tokens_to_map(tokens, (2, 2))
        assert not x.data.flags.c_contiguous
        got, want = T.conv2d(x, wt), unblocked_conv2d(x, wt)
        assert np.array_equal(got.data, want.data)
        for a, b in zip(got._node._vjp(g), want._node._vjp(g)):
            assert_same_arrays(a, b)

    @pytest.mark.parametrize("axis", [1, 2])
    @pytest.mark.parametrize("c", [24, 23, 17])
    def test_softmax_pool_bit_identical_to_unblocked(self, monkeypatch, c, axis):
        """Blocks of 8 channels, the last one full, of 7 channels, or of 9
        where one would be left alone: values and gradients equal the op's
        with the whole map in one block, and values equal the unfused
        chain's."""
        rng = np.random.default_rng(10 * c + axis)
        x, wt = rng.standard_normal((c, 4, 5)), rng.standard_normal((c, c, 1, 1))
        pooled = [c, 4, 5]
        pooled[axis] = 1
        g = rng.standard_normal(pooled)

        def run():
            out = T.softmax_pool(Tensor(x, requires_grad=True), Tensor(wt, requires_grad=True),
                                 axis)
            return out.data, out._node._vjp(g)

        whole, whole_grads = run()
        monkeypatch.setattr(T, "_BLOCK_ELEMS", 8 * 4 * 5)
        assert len(T._blocks(c, 4 * 5, 1)) > 1
        blocked, blocked_grads = run()
        assert np.array_equal(blocked, whole)
        assert np.array_equal(blocked, unfused_softmax_pool(Tensor(x), Tensor(wt), axis).data)
        for a, b in zip(blocked_grads, whole_grads):
            assert_same_arrays(a, b)

    @pytest.mark.parametrize("op", ["conv2d_3x3", "conv2d_1x1", "softmax_pool_1",
                                    "softmax_pool_2", "outer_sum_mlp"])
    def test_vjp_leaves_what_it_reads_unchanged(self, monkeypatch, op):
        """The recorded VJP, called twice on one graph, returns the same
        bits and strides, and leaves the cotangent as it was: no blocked
        VJP changes what it reads.  Each map spans several blocks."""
        monkeypatch.setattr(T, "_BLOCK_ELEMS", 16)
        rng = np.random.default_rng(7)
        shapes, call = {
            "conv2d_3x3": ([(3, 9, 4), (4, 3, 3, 3)], lambda x, w: T.conv2d(x, w)),
            "conv2d_1x1": ([(3, 9, 4), (4, 3, 1, 1)], lambda x, w: T.conv2d(x, w)),
            "softmax_pool_1": ([(17, 9, 4), (17, 17, 1, 1)],
                               lambda x, w: T.softmax_pool(x, w, 1)),
            "softmax_pool_2": ([(17, 9, 4), (17, 17, 1, 1)],
                               lambda x, w: T.softmax_pool(x, w, 2)),
            "outer_sum_mlp": ([(4, 9, 4), (9, 4), (4, 4), (4,), (4,), (4, 8), (8,), (8, 4), (4,)],
                              T.outer_sum_mlp),
        }[op]
        ts = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
        out = call(*ts)
        upstream = rng.standard_normal(out.shape)
        kept = upstream.copy()
        first = out._node._vjp(upstream)
        values = [a.copy() for a in first]
        for a, b, v in zip(out._node._vjp(upstream), first, values):
            assert_same_arrays(a, b)
            assert np.array_equal(b, v)
        assert np.array_equal(upstream, kept)


def no_grad_peak(fn):
    """fn's result and the tracemalloc peak of what it allocates, run
    under no_grad."""
    tracemalloc.start()
    try:
        with T.no_grad():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn()
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def vjp_peak(out, upstream):
    """The recorded VJP's gradients for upstream, the tracemalloc peak of
    what the VJP allocates while it runs, and the bytes of the arrays that
    own its gradients' memory (a view counts as its base)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = out._node._vjp(upstream)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    owners = {id(a.base if a.base is not None else a): a.base if a.base is not None else a
              for a in grads if a is not None}
    return grads, peak, sum(a.nbytes for a in owners.values())


class TestLevel2Memory:
    """At level-2 dims, a (256, 64, 64) map, each no-grad op over the map
    allocates its output plus the temporaries of one block at a time: at
    most four arrays of one block, 2 MiB, where the whole-map versions
    formed two to four map-sized (8 MiB) ones.  Their recorded VJPs, too,
    allocate their gradients plus a stated number of blocks, where the
    whole-map versions formed two to four map-sized temporaries."""

    block = 2 * 2 ** 20

    @pytest.fixture(scope="class")
    def level2(self):
        rng = np.random.default_rng(0)
        return rng, Tensor(rng.standard_normal((256, 64, 64)))

    def test_conv2d_3x3(self, level2):
        """One block's zero-padded rows, tap, patch and product."""
        rng, x = level2
        w = Tensor(rng.standard_normal((256, 256, 3, 3)))
        out, peak = no_grad_peak(lambda: T.conv2d(x, w))
        assert peak <= out.data.nbytes + 4 * self.block

    @pytest.mark.parametrize("axis", [1, 2])
    def test_softmax_pool(self, level2, axis):
        """One block's logits, their transposed copy for axis 1, softmax
        and product."""
        rng, x = level2
        w = Tensor(rng.standard_normal((256, 256, 1, 1)))
        out, peak = no_grad_peak(lambda: T.softmax_pool(x, w, axis))
        assert peak <= out.data.nbytes + 4 * self.block

    def outer_sum_mlp_peak(self, rng, m):
        """A no-grad Mlp(OuterSum) call's output and its tracemalloc peak on
        the (256, hw, hw) map m, and the bytes of its factor side (gain * w1,
        A and B: (c + h + w, 4c))."""
        hw = m.shape[1]
        mlp, ln = T.Mlp(rng, 256), T.LayerNorm(256)
        y, x = (Tensor(rng.standard_normal((hw, 256))) for _ in range(2))
        out, peak = no_grad_peak(lambda: mlp(T.OuterSum(m, y, x, ln)))
        return out, peak, (256 + hw + hw) * 1024 * 8

    def test_outer_sum_mlp(self, level2):
        """Beside the factor side, one slab of 4 factor rows, whose
        (rows*w, 4c) hidden block is one _BLOCK_ELEMS block: the block, its
        GELU cdf and GELU output, and the second projection's output."""
        rng, m = level2
        out, peak, factor_side = self.outer_sum_mlp_peak(rng, m)
        assert peak <= out.data.nbytes + factor_side + 4 * self.block

    @pytest.mark.parametrize("hw", [32, 16])
    def test_outer_sum_mlp_deeper_levels(self, level2, hw):
        """The same bound at the level-3 and level-4 dims, whose slabs of 8
        and 16 factor rows are one _BLOCK_ELEMS block each too."""
        rng, _ = level2
        out, peak, factor_side = self.outer_sum_mlp_peak(
            rng, Tensor(rng.standard_normal((256, hw, hw))))
        assert peak <= out.data.nbytes + factor_side + 4 * self.block

    def test_outer_sum_distance(self, level2):
        """The difference, formed in place in one map-sized array (8 MiB,
        plus the sum's reduction buffers), where the difference and its
        square were two."""
        rng, m = level2
        y, x = Tensor(rng.standard_normal((256, 64, 1))), Tensor(rng.standard_normal((256, 1, 64)))
        _, peak = no_grad_peak(lambda: T.outer_sum_distance(m, y, x))
        assert peak <= m.data.nbytes + self.block

    @pytest.mark.parametrize("k", [3, 1])
    def test_conv2d_backward(self, level2, k):
        """Two blocks: one block's product of a tap and the cotangent, plus
        the tap's copy.  The weight gradient's map-sized patch of the padded
        input (3x3) is freed before the input gradient is allocated."""
        rng, x = level2
        w = Tensor(rng.standard_normal((256, 256, k, k)))
        out = T.conv2d(Tensor(x.data, requires_grad=True), w)
        grads, peak, owned = vjp_peak(out, rng.standard_normal(out.shape))
        assert grads[0].shape == x.shape and grads[1].shape == w.shape
        assert peak <= owned + 2 * self.block

    @pytest.mark.parametrize("axis", [1, 2])
    def test_softmax_pool_backward(self, level2, axis):
        """Two blocks beyond the gradients.  The first walk's blocks (the
        rebuilt softmax, the weighted cotangent, transposed for axis 1, and
        its softmax VJP's product) and the map-sized logit cotangent come
        before the gradients are allocated; the logit conv's VJP adds one
        block; the logit cotangent is freed before the pooled gradient is
        formed, and the second walk rebuilds each block's softmax in that
        gradient's own rows, beside one block of logits."""
        rng, x = level2
        w = Tensor(rng.standard_normal((256, 256, 1, 1)))
        out = T.softmax_pool(Tensor(x.data, requires_grad=True), w, axis)
        grads, peak, owned = vjp_peak(out, rng.standard_normal(out.shape))
        assert [a.shape for a in grads] == [x.shape, x.shape, w.shape]
        assert peak <= owned + 2 * self.block

    def test_outer_sum_distance_backward(self, level2):
        """The map's gradient and the factors' sums of it, with no negated
        copy of it."""
        rng, m = level2
        y, x = (Tensor(rng.standard_normal(s), requires_grad=True)
                for s in ((256, 64, 1), (256, 1, 64)))
        out = T.outer_sum_distance(Tensor(m.data, requires_grad=True), y, x)
        grads, peak, owned = vjp_peak(out, np.asarray(1.0))
        assert grads[0].shape == m.shape
        assert peak <= owned + self.block

    def test_outer_sum_mlp_backward(self, level2):
        """On a strided cotangent (the interior of a padded array), beside
        the gradients it allocates (the map's is the cotangent itself) and
        the factor side: four blocks of one slab, its pre, its GELU cdf
        (then, in place, its GELU output), its hidden cotangent and its
        GELU slope, never a (h*w, 4c) hidden-sized array."""
        rng, m = level2
        hw = m.shape[1]
        mlp, ln = T.Mlp(rng, 256), T.LayerNorm(256)
        y, x = (Tensor(rng.standard_normal((hw, 256)), requires_grad=True) for _ in range(2))
        out = mlp(T.OuterSum(Tensor(m.data, requires_grad=True), y, x, ln))
        g = np.pad(rng.standard_normal(out.shape), ((0, 0), (1, 1), (1, 1)))[:, 1:-1, 1:-1]
        grads, peak, _ = vjp_peak(out, g)
        assert grads[0] is g and grads[-2].shape == (1024, 256)
        owned = sum(a.nbytes for a in grads[1:])
        factor_side = (256 + hw + hw) * 1024 * 8
        assert peak <= owned + factor_side + 4 * self.block

    def test_square_backward(self, level2):
        """mul(d, d)'s two gradient shares are one array, so backward()
        allocates that share and the sum it adds it into, where separate
        shares and their sum took three map-sized arrays (24 MiB); the sum
        keeps its bits."""
        rng, x = level2
        d = Tensor(x.data, requires_grad=True)
        sq = T.mul(d, d)
        g = rng.standard_normal(sq.shape)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sq.backward(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(d.grad, g * x.data + g * x.data)
        assert peak <= 2 * x.data.nbytes + self.block

    def test_sub_backward_constant_subtrahend(self, level2):
        """sub(m, target) with a target that needs no gradient, as the toy
        loss's input map: the VJP hands the cotangent on as m's share and
        forms no negated map-sized (8 MiB) share for the target."""
        rng, x = level2
        diff = T.sub(Tensor(x.data, requires_grad=True), Tensor(rng.standard_normal(x.shape)))
        g = rng.standard_normal(diff.shape)
        grads, peak, _ = vjp_peak(diff, g)
        assert peak <= self.block
        assert grads[0] is g and grads[1] is None

    def test_resample_nearest_backward(self, level2):
        """Level 3 upsampled to level 2, on a strided cotangent (the
        interior of a padded array, as the smooth conv's VJP hands over):
        the gradient plus one block of channels' source indices, cotangent
        copy and sums, never a map-sized temporary."""
        rng, _ = level2
        x = Tensor(rng.standard_normal((256, 32, 32)), requires_grad=True)
        out = T.resample_nearest(x, (64, 64))
        g = np.pad(rng.standard_normal(out.shape), ((0, 0), (1, 1), (1, 1)))[:, 1:-1, 1:-1]
        grads, peak, owned = vjp_peak(out, g)
        assert grads[0].shape == x.shape
        assert peak <= owned + 3 * self.block


class TestOuterSumDistance:
    @pytest.mark.parametrize("dims", POOL_DIMS)
    def test_forward_bit_identical_to_chain(self, dims):
        rng = np.random.default_rng(sum(dims))
        c, h, w = dims
        arrays = [rng.standard_normal(dims), rng.standard_normal((c, h, 1)),
                  rng.standard_normal((c, 1, w))]
        got = T.outer_sum_distance(*map(Tensor, arrays)).data
        want = unfused_outer_sum_distance(*map(Tensor, arrays)).data
        assert got.shape == want.shape == ()
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dims", POOL_DIMS)
    def test_gradients_match_chain(self, dims):
        rng = np.random.default_rng(sum(dims) + 1)
        c, h, w = dims
        arrays = [rng.standard_normal(dims), rng.standard_normal((c, h, 1)),
                  rng.standard_normal((c, 1, w))]
        upstream = np.asarray(rng.standard_normal())
        fused = grads_of(T.outer_sum_distance, arrays, upstream)
        chain = grads_of(unfused_outer_sum_distance, arrays, upstream)
        for got, want in zip(fused, chain):
            assert_rel_close(got, want, 1e-12)

    def test_zero_distance_has_zero_gradient(self):
        """Where the map is the outer sum, the subgradient is 0, as for the
        Frobenius norm at the origin."""
        y, x = rand(2, 3, 1), rand(2, 1, 4)
        ts = [Tensor(a, requires_grad=True) for a in (y + x, y, x)]
        out = T.outer_sum_distance(*ts)
        assert float(out.data) == 0.0
        out.backward()
        for t in ts:
            assert np.array_equal(t.grad, np.zeros_like(t.data))

    def test_graph_keeps_no_map_sized_array(self):
        """Besides the map itself, the graph holds nothing of its size."""
        ts = [Tensor(a, requires_grad=True) for a in (rand(3, 5, 7), rand(3, 5, 1), rand(3, 1, 7))]
        held = T.tape_arrays(T.outer_sum_distance(*ts))
        assert all(a.size < ts[0].size for a in held if a is not ts[0].data)

    def test_contract(self):
        """Factors must be (c, h, 1) and (c, 1, w) for a (c, h, w) map."""
        m = Tensor(rand(3, 4, 5))
        with pytest.raises(ContractViolation):
            T.outer_sum_distance(m, Tensor(rand(3, 1, 5)), Tensor(rand(3, 4, 1)))
        with pytest.raises(ContractViolation):
            T.outer_sum_distance(m, Tensor(rand(2, 4, 1)), Tensor(rand(3, 1, 5)))



def _zeros(*shape):
    return Tensor(np.zeros(shape))


@pytest.mark.parametrize("call,match", [
    (lambda: T.matmul(_zeros(3), _zeros(3, 2)), r"rank-2 operands, got \(3,\) @ \(3, 2\)"),
    (lambda: T.concat([]), r"concat of an empty list"),
    (lambda: T.conv2d(_zeros(2, 3), _zeros(2, 2, 3, 3)), r"input must be .*got shape \(2, 3\)"),
    (lambda: T.conv2d(_zeros(2, 3, 3), _zeros(2, 2, 3)), r"kernel must be .*got shape \(2, 2, 3\)"),
    (lambda: T.conv2d(_zeros(2, 3, 3), _zeros(2, 3, 3, 3)), r"input has 2, kernel expects 3"),
    (lambda: T.layer_norm(_zeros(3), _zeros(3), _zeros(3)), r"layer_norm expects .*got shape \(3,\)"),
    (lambda: T.layer_norm(_zeros(2, 3), _zeros(2), _zeros(3)), r"gain/bias must be \(3,\), got \(2,\)"),
    (lambda: T.map_to_tokens(_zeros(2, 3)), r"map_to_tokens expects .*got shape \(2, 3\)"),
    (lambda: T.tokens_to_map(_zeros(5, 2), (2, 3)), r"\(5, 2\) does not match spatial dims \(2, 3\)"),
    (lambda: T.resample_nearest(_zeros(2, 3), (4, 6)), r"resample_nearest expects .*got shape \(2, 3\)"),
    (lambda: T.resample_nearest(_zeros(1, 2, 2), (0, 2)), r"target dims must be >= 1, got \(0, 2\)"),
    (lambda: T.Mlp(np.random.default_rng(0), 4, hidden_ratio=0), r"hidden_ratio must be positive, got 0"),
], ids=["matmul_rank", "concat_empty", "conv2d_input_rank", "conv2d_kernel_rank",
        "conv2d_channels", "layer_norm_rank", "layer_norm_gain", "map_to_tokens",
        "tokens_to_map", "resample_rank", "resample_target", "mlp_hidden_ratio"])
def test_contract_violations_name_the_argument(call, match):
    """Each shape or argument contract raises ContractViolation with a
    message naming what is wrong."""
    with pytest.raises(ContractViolation, match=match):
        call()


@pytest.mark.parametrize("in_hw,out_hw", [
    ((4, 4), (8, 8)), ((3, 5), (6, 10)), ((4, 4), (2, 2)), ((9, 7), (5, 4)),
    ((3, 4), (5, 7)), ((2, 3), (7, 10)), ((5, 5), (5, 5)), ((1, 1), (3, 4)),
    ((6, 2), (6, 7)), ((33, 17), (65, 33)), ((9, 4), (5, 8)), ((4, 9), (8, 5)),
])
def test_resample_nearest_vjp_matches_add_at(in_hw, out_hw, monkeypatch):
    """The VJP equals np.add.at over the index map bit for bit, for up,
    down, non-integer and identity ratios: every source sums its outputs
    in raster order.  So it does with the channels cut into three blocks,
    the last one partial, on a strided cotangent like the one the smooth
    conv's VJP hands over (the interior of a padded array), and the
    gradient has add.at's strides."""
    rng = np.random.default_rng(in_hw[0] * 100 + out_hw[1])
    ih = (np.arange(out_hw[0]) * in_hw[0]) // out_hw[0]
    iw = (np.arange(out_hw[1]) * in_hw[1]) // out_hw[1]

    def check(c, cotangent):
        x = Tensor(rng.standard_normal((c, *in_hw)), requires_grad=True)
        out = T.resample_nearest(x, out_hw)
        g = cotangent(out.shape)
        want = np.zeros_like(x.data)
        np.add.at(want, (slice(None), ih[:, None], iw[None, :]), g)
        (got,) = out._node._vjp(g)
        assert got.tobytes() == want.tobytes()
        assert got.strides == want.strides

    check(3, rng.standard_normal)
    monkeypatch.setattr(T, "_BLOCK_ELEMS", 8 * out_hw[0] * out_hw[1])
    assert [b.stop - b.start for b in T._blocks(21, out_hw[0] * out_hw[1], 1)] == [8, 8, 5]
    check(21, lambda shape: np.pad(rng.standard_normal(shape), 1)[1:-1, 1:-1, 1:-1])


@pytest.mark.filterwarnings("error")
class TestOverflowingSquares:
    """Rows whose sum of squares overflows float64, at inputs scaled by
    1e160, give the values of inputs scaled by 1e150 times the power of ten
    the op scales by, to rounding, and warn about nothing."""

    BIG, REF = 1e160, 1e150

    def test_layer_norm_rows(self):
        """Layer norm is scale-free: each huge row normalises as at 1e150,
        not to the bias alone."""
        rng = np.random.default_rng(0)
        x, gain, bias = rng.standard_normal((3, 5)), Tensor(rand(5)), Tensor(np.full(5, 0.5))
        big = T.layer_norm(Tensor(x * self.BIG), gain, bias).data
        ref = T.layer_norm(Tensor(x * self.REF), gain, bias).data
        np.testing.assert_allclose(big, ref, rtol=1e-13)

    def test_layer_norm_ordinary_rows_keep_their_bits(self):
        """A huge row beside ordinary ones leaves their outputs and
        gradients bit for bit as beside another ordinary row."""
        x, gain, bias, g = rand(3, 5), Tensor(rand(5)), Tensor(rand(5)), rand(3, 5)

        def run(last_row):
            t = Tensor(np.vstack([x[:2], last_row]), requires_grad=True)
            out = T.layer_norm(t, gain, bias)
            out.backward(g)
            return out.data[:2], t.grad[:2]

        for got, want in zip(run(x[2] * self.BIG), run(x[2])):
            np.testing.assert_array_equal(got, want)

    def test_layer_norm_gradient(self):
        """The input gradient of a huge row scales by 1e-10 against 1e150."""
        x, gain, bias, g = rand(2, 5), Tensor(rand(5)), Tensor(rand(5)), rand(2, 5)

        def grad(scale):
            t = Tensor(x * scale, requires_grad=True)
            T.layer_norm(t, gain, bias).backward(g)
            return t.grad

        np.testing.assert_allclose(grad(self.BIG), grad(self.REF) * 1e-10, rtol=1e-12)

    def test_outer_sum_ln_factors_inv(self):
        """The factored layer norm's inverse scale of each row y_i + x_j
        scales by 1e-10 against 1e150, not to 0."""
        rng = np.random.default_rng(1)
        y, x = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        rest = [Tensor(a) for a in (rand(4), rand(4), rand(4, 6), rand(6))]

        def inv(scale):
            return T._outer_sum_ln_factors(Tensor(y * scale), Tensor(x * scale), *rest)[2]

        np.testing.assert_allclose(inv(self.BIG), inv(self.REF) * 1e-10, rtol=1e-13)

    def test_outer_sum_mlp_pre_activation(self):
        """With m = -(y_i + x_j) the output is the MLP of the normalised
        outer sum alone, which is scale-free: the same at 1e160 as at
        1e150, not the MLP of the projected bias b'."""
        rng = np.random.default_rng(2)
        c, h, w, d = 4, 3, 5, 8
        y, x = rng.standard_normal((h, c)), rng.standard_normal((w, c))
        params = [Tensor(rng.standard_normal(s)) for s in ((c,), (c,), (c, d), (d,), (d, c), (c,))]

        def out(scale):
            ys, xs = y * scale, x * scale
            m = -(ys.T[:, :, None] + xs.T[:, None, :])
            return T.outer_sum_mlp(Tensor(m), Tensor(ys), Tensor(xs), *params).data

        big, ref = out(self.BIG), out(self.REF)
        np.testing.assert_allclose(big, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("scale", [1e110, 1e150, 1e160])
    def test_outer_sum_ln_factor_gradients(self, scale):
        """The y and x gradients of Linear(LayerNorm(y_i + x_j)) scale as
        1 / scale, so times the scale they agree with those at 1e100, where
        LAYER_NORM_EPS lies below rounding, rather than losing the
        variance term once its inv ** 3 underflows."""
        rng = np.random.default_rng(4)
        h, w, c, d = 3, 4, 5, 7
        y, x = rng.standard_normal((h, c)), rng.standard_normal((w, c))
        rest = [rng.standard_normal(s) for s in ((c,), (c,), (c, d), (d,))]
        g = rng.standard_normal((h * w, d))

        def grads(s):
            ty, tx = Tensor(y * s, requires_grad=True), Tensor(x * s, requires_grad=True)
            outer_sum_ln_linear(ty, tx, *map(Tensor, rest)).backward(g)
            return ty.grad * s, tx.grad * s

        for got, want in zip(grads(scale), grads(1e100)):
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err < 2e-15

    def test_outer_sum_distance(self):
        """The distance scales by 1e10 against 1e150, not to inf, and its
        gradients, each of the difference over the distance, are
        scale-free."""
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3, 1)),
                  rng.standard_normal((2, 1, 4))]

        def run(scale):
            ts = [Tensor(a * scale, requires_grad=True) for a in arrays]
            out = T.outer_sum_distance(*ts)
            out.backward()
            return float(out.data), [t.grad for t in ts]

        (big, big_grads), (ref, ref_grads) = run(self.BIG), run(self.REF)
        assert big == pytest.approx(ref * 1e10, rel=1e-13)
        for got, want in zip(big_grads, ref_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12)


class TestModule:
    def test_params_walk_in_assignment_order(self):
        """params() collects Tensors from attributes, nested Modules, lists,
        tuples and dict values, in the order the attributes were set."""
        def p(name):
            return Tensor(np.zeros(1), requires_grad=True, name=name)

        class Inner(T.Module):
            def __init__(self):
                self.c = p("c")
                self.d = p("d")

        class Holder:  # not a Module: its tensor is not a parameter
            def __init__(self):
                self.hidden = p("hidden")

        class Outer(T.Module):
            def __init__(self):
                self.width = 3
                self.a = p("a")
                self.items = [p("b"), Inner()]
                self.pair = (p("e"), None)
                self.table = {9: p("f"), 1: p("g")}
                self.holder = Holder()
                self.h = p("h")

        m = Outer()
        assert [t.name for t in m.params()] == ["a", "b", "c", "d", "e", "f", "g", "h"]
        assert m.params()[0] is m.a
        assert m.named_params() == [(t.name, t) for t in m.params()]


class TestDeterminism:
    def test_repeated_backward_is_bit_identical(self):
        """The same graph built twice yields byte-equal gradients."""
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
            w = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
            y = T.gelu(T.matmul(x, w))
            T.sum_all(T.mul(y, y)).backward()
            return x.grad.copy(), w.grad.copy()

        (xg1, wg1), (xg2, wg2) = run(), run()
        np.testing.assert_array_equal(xg1, xg2)
        np.testing.assert_array_equal(wg1, wg2)

    def test_uniform_param_seeded(self):
        """Same seed sequence gives the same initialisation."""
        a = T.uniform_param(np.random.default_rng(3), (4, 4), fan_in=4)
        b = T.uniform_param(np.random.default_rng(3), (4, 4), fan_in=4)
        np.testing.assert_array_equal(a.data, b.data)
        assert np.abs(a.data).max() <= 0.5  # 1/sqrt(4)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_softmax_rows_sum_to_one(n, d, seed):
    """Property: every softmax row sums to 1 and is strictly positive."""
    x = np.random.default_rng(seed).standard_normal((n, d)) * 10
    out = T.softmax_rows(Tensor(x)).data
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(n), rtol=0, atol=1e-12)
    assert np.all(out > 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 8), st.integers(1, 8),
       st.sampled_from([(1, 1), (3, 3), (3, 1), (1, 3)]),
       st.integers(0, 2 ** 31 - 1))
def test_conv2d_shape_preserving_property(c, h, w, kernel, seed):
    """Property: conv2d output spatial dims always equal input dims."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((c, h, w)))
    wt = Tensor(rng.standard_normal((c + 1, c, *kernel)))
    assert T.conv2d(x, wt).shape == (c + 1, h, w)
