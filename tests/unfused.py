"""The unfused op chains that the CDI block's three fused ops replace, and
conv2d without its row blocks.

softmax_pool, outer_sum_distance and outer_sum_mlp each promise values and
gradients equal, bit for bit, to a chain of small taped ops; the chains
below are those references.  Three links of them are not package ops, so
they are rebuilt here as taped ops: a sum along one axis, the Frobenius
norm, and the factored Linear(LayerNorm(y_i + x_j)).  Unlike oracles.py,
this module shares code with the package on purpose: the last one takes
outer_sum_mlp's factors from its private helpers and forms every row at
once, apart from the slab loop, which is the arithmetic the fused op must
reproduce slab by slab.  unblocked_conv2d is conv2d over the whole map at
once, the reference for its row blocks.
"""

import numpy as np

from sdtp import tensor as T
from sdtp.tensor import Tensor


def sum_axis(a, axis):
    """Sum along one axis, which is kept with length 1."""
    out, shape = a.data.sum(axis=axis, keepdims=True), a.shape
    return Tensor._from_op(out, (a,), lambda g: (np.broadcast_to(g, shape),))


def frobenius_norm(a):
    """sqrt of the sum of squared entries; subgradient 0 at the origin."""
    ad = a.data
    nrm = float(np.sqrt((ad ** 2).sum()))

    def vjp(g):
        return (g * ad / max(nrm, 1e-300),)

    return Tensor._from_op(np.asarray(nrm), (a,), vjp)


def outer_sum_ln_linear(y, x, gain, bias, w, b):
    """Linear(LayerNorm(y_i + x_j)) for every pair of rows of the (h, c) and
    (w, c) factors, as the (h*w, d) token matrix in map_to_tokens order.
    It is formed as inv_ij * (A_i + B_j) + b' on all rows at once: element
    for element the arithmetic of outer_sum_mlp's slabs, but not its loop."""
    factors = T._outer_sum_ln_factors(y, x, gain, bias, w, b)
    _, _, inv, _, a_f, b_f, b_out = factors
    out = (a_f[:, None, :] + b_f) * inv[:, :, None] + b_out
    # a copy, so the output owns its memory as a package op's output does
    out = out.reshape(-1, out.shape[2]).copy()
    gd, bd, wd = gain.data, bias.data, w.data
    return Tensor._from_op(out, (y, x, gain, bias, w, b),
                           lambda g: T._outer_sum_ln_finish(
                               factors, *T._outer_sum_ln_reduce(factors, slice(None), g),
                               gd, bd, wd))


def unfused_outer_sum_mlp(m, y, x, gain, bias, w1, b1, w2, b2):
    """The chain outer_sum_mlp fuses, one op at a time on the whole array:
    the map plus the recoupled factors plus the token MLP's output, as the
    CDI block's residual was built."""
    hidden = outer_sum_ln_linear(y, x, gain, bias, w1, b1)
    delta = T.add(T.matmul(T.gelu(hidden), w2), b2)
    (h, _), nw = y.shape, x.shape[0]
    recoupled = T.add(T.tokens_to_map(y, (h, 1)), T.tokens_to_map(x, (1, nw)))
    return T.add(T.add(m, recoupled), T.tokens_to_map(delta, (h, nw)))


def unfused_softmax_pool(x, w, axis):
    """The chain softmax_pool fuses: 1x1 logit conv, softmax along axis (for
    axis 1 through a transposed copy), product with x, sum along axis."""
    c, h, wd = x.shape
    logits = T.conv2d(x, w)
    if axis == 2:
        att = T.reshape(T.softmax_rows(T.reshape(logits, (c * h, wd))), (c, h, wd))
    else:
        flat = T.reshape(T.permute(logits, (0, 2, 1)), (c * wd, h))
        att = T.permute(T.reshape(T.softmax_rows(flat), (c, wd, h)), (0, 2, 1))
    return sum_axis(T.mul(att, x), axis=axis)


def unfused_outer_sum_distance(m, y, x):
    """The chain outer_sum_distance fuses."""
    return frobenius_norm(T.sub(m, T.add(y, x)))


def unblocked_conv2d(x, w, dilation=1):
    """conv2d in one pass over the whole map: x zero-padded all at once (not
    at all for a 1x1 kernel, whose product reads x's array as it is laid
    out), then one product per tap over every output position, the taps
    summed in order.  Its VJP runs the same per-tap products on the whole
    padded map."""
    xd, wt = x.data, w.data
    c_in, h, wd = xd.shape
    out_c, _, kh, kw = wt.shape
    ph, pw = (kh - 1) * dilation // 2, (kw - 1) * dilation // 2
    xp = np.pad(xd, ((0, 0), (ph, ph), (pw, pw))) if ph or pw else xd
    taps = [(a, b, np.ascontiguousarray(wt[:, :, a, b])) for a in range(kh) for b in range(kw)]

    def window(arr, a, b):
        return arr[:, a * dilation: a * dilation + h, b * dilation: b * dilation + wd]

    out = None
    for a, b, tap in taps:
        prod = tap @ window(xp, a, b).reshape(c_in, h * wd)
        out = prod if out is None else out + prod

    def vjp(g):
        gflat = np.ascontiguousarray(g.reshape(out_c, h * wd))
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(wt)
        for a, b, tap in taps:
            gw[:, :, a, b] = gflat @ window(xp, a, b).reshape(c_in, h * wd).T
            window(gxp, a, b)[...] += (tap.T @ gflat).reshape(c_in, h, wd)
        return gxp[:, ph: ph + h, pw: pw + wd], gw

    return Tensor._from_op(out.reshape(out_c, h, wd), (x, w), vjp)
