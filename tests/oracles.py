"""Independent reference implementations used as test oracles.

Everything here is written as plain loops over scalars, deliberately
sharing no code path with the package, so agreement is meaningful.
"""

import math

import numpy as np


def naive_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def naive_conv2d(x, w, dilation=1):
    """Direct convolution with zero same-padding, output dims = input dims."""
    c_in, h, wd = x.shape
    out_c, _, kh, kw = w.shape
    ph, pw = (kh - 1) * dilation // 2, (kw - 1) * dilation // 2
    out = np.zeros((out_c, h, wd))
    for o in range(out_c):
        for i in range(h):
            for j in range(wd):
                acc = 0.0
                for ci in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            ii = i + a * dilation - ph
                            jj = j + b * dilation - pw
                            if 0 <= ii < h and 0 <= jj < wd:
                                acc += w[o, ci, a, b] * x[ci, ii, jj]
                out[o, i, j] = acc
    return out


def naive_layer_norm(x, gain, bias, eps=1e-5):
    n, d = x.shape
    out = np.zeros_like(x)
    for i in range(n):
        mu = sum(x[i]) / d
        var = sum((v - mu) ** 2 for v in x[i]) / d
        sd = math.sqrt(var + eps)
        for j in range(d):
            out[i, j] = (x[i, j] - mu) / sd * gain[j] + bias[j]
    return out


def naive_softmax_row(row):
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    s = sum(exps)
    return np.array([e / s for e in exps])


def naive_softmax_attention(q, k, v):
    """Single-head attention with 1/sqrt(d) scaling and row softmax."""
    n_q, d = q.shape
    n_k = k.shape[0]
    out = np.zeros((n_q, v.shape[1]))
    for i in range(n_q):
        scores = [sum(q[i, t] * k[j, t] for t in range(d)) / math.sqrt(d) for j in range(n_k)]
        weights = naive_softmax_row(scores)
        for c in range(v.shape[1]):
            out[i, c] = sum(weights[j] * v[j, c] for j in range(n_k))
    return out


def naive_multi_head_attention(q_tokens, kv_tokens, wq, wk, wv, wo, n_heads,
                               activation=None):
    """Full multi-head attention: project, attend per head on column blocks,
    concatenate, project.  activation=None means row softmax."""
    c = q_tokens.shape[1]
    dh = c // n_heads
    qf = naive_matmul(q_tokens, wq)
    kf = naive_matmul(kv_tokens, wk)
    vf = naive_matmul(kv_tokens, wv)
    heads = []
    for hd in range(n_heads):
        sl = slice(hd * dh, (hd + 1) * dh)
        q, k, v = qf[:, sl], kf[:, sl], vf[:, sl]
        n_q, n_k = q.shape[0], k.shape[0]
        out = np.zeros((n_q, dh))
        for i in range(n_q):
            scores = [sum(q[i, t] * k[j, t] for t in range(dh)) / math.sqrt(dh)
                      for j in range(n_k)]
            if activation is None:
                weights = naive_softmax_row(scores)
            else:
                weights = np.array([activation(s) for s in scores])
            for t in range(dh):
                out[i, t] = sum(weights[j] * v[j, t] for j in range(n_k))
        heads.append(out)
    merged = np.concatenate(heads, axis=1)
    return naive_matmul(merged, wo)


def naive_recouple(y, x):
    """Outer-sum of (c, h, 1) and (c, 1, w) factors by explicit loops."""
    c, h, _ = y.shape
    w = x.shape[2]
    out = np.zeros((c, h, w))
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                out[ch, i, j] = y[ch, i, 0] + x[ch, 0, j]
    return out


def naive_fpn(levels, lateral_w, smooth_w):
    """Reference feature-pyramid network: per-level 1x1 lateral, top-down
    nearest-neighbour upsample + add, 3x3 smoothing.  levels/weights are
    dicts keyed by level index."""
    keys = sorted(levels, reverse=True)
    lat = {lvl: naive_conv2d(levels[lvl], lateral_w[lvl]) for lvl in keys}
    outs = {}
    prev = None
    for lvl in keys:
        x = lat[lvl]
        if prev is not None:
            x = x + naive_upsample_nearest(prev, x.shape[1:])
        outs[lvl] = naive_conv2d(x, smooth_w[lvl])
        prev = outs[lvl]
    return outs


def naive_upsample_nearest(x, out_hw):
    c, h, w = x.shape
    oh, ow = out_hw
    out = np.zeros((c, oh, ow))
    for i in range(oh):
        for j in range(ow):
            out[:, i, j] = x[:, (i * h) // oh, (j * w) // ow]
    return out

