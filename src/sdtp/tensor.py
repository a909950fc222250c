"""Dense-tensor kernels with reverse-mode differentiation.

Everything downstream (attention, decoupling, the pyramid pipeline) is built
from the operations in this module.  Arrays are float64.  Each operation is
a pure function that records a node in a dynamically built graph;
``backward`` runs the vector-Jacobian products in reverse topological order.
The accumulation order is fixed by construction order, so identical inputs
and seeds give bit-identical values and gradients.  Inside ``no_grad()``
operations record nothing, so inference holds no intermediate arrays.

What ops read besides their arguments is one observer state per thread,
held in a ContextVar: whether they record the graph, the name of the
scope they run in, and the active MAC counters, to which ``matmul``
reports m*k*n with the scope.  ``observe`` changes it for a with-block
and restores it on exit; ``no_grad()`` is observe(recording=False), and
complexity.MacCounter an observe that adds itself as a counter.  A scope
opened in one thread changes nothing in another.

The graph is kept apart from the values, as in PyTorch's autograd: a node
holds its VJP and its parents' nodes, never a Tensor, and every VJP closure
holds shapes and the arrays it reads.  So an op output's array is freed as
soon as its caller drops the Tensor, unless a VJP reads it.  ``backward``
consumes the graph, as PyTorch's does by default: once a node's VJP has
run, the node drops it and its parent links, so what only that VJP read is
freed while the pass goes on, and a second pass over the graph, or over a
graph that shares a consumed part, raises ContractViolation before it
changes any gradient.  ``tape_arrays`` lists what a graph keeps alive.

The ops over a (c, h, w) level map bound their working set: each forms its
temporaries one block at a time, so a no-grad call allocates its output
and one block's arrays.  conv2d walks blocks of output rows,
softmax_pool blocks of channels and outer_sum_mlp slabs of factor rows,
all cut by one rule, _blocks: about _BLOCK_ELEMS elements a block,
aligned so that every block starts at a multiple of 8 along the axis a
product cuts.  A conv2d whose stack of every tap's window fits one block
forms all its taps' products in one batched matmul instead: on the
gradcheck's tiny maps numpy's per-call overhead, not arithmetic, sets
the time, and the loop's copies, products and adds, four calls a tap,
cost about three times the batched product; on larger maps BLAS sets it,
and the loop keeps one block's temporaries.  So the path is chosen by
size.  The recorded VJPs, conv2d's on either path, walk the blocks:
each forms its input gradients block by block.  conv2d's and
softmax_pool's hold a map-sized temporary only where one product
reduces over every pixel (a weight gradient); outer_sum_mlp's holds
none, since it adds each slab's share into its weight gradients and its
factor-side sums over all token rows as it walks.  softmax_pool's graph keeps no softmax: its VJP
rebuilds each block's from x and w as the forward formed it, once for
the logit cotangent and once, in the gradient's own rows, for the pooled
gradient.  resample_nearest's VJP, too, walks _blocks of
channels, summing each block's outputs onto their sources in raster
order with np.bincount.  Every output element is summed in the same
order whatever the block size, and each gradient is laid out as the
whole map's was.  So values and gradients are the same bits as over the
whole map at once wherever BLAS forms a product's columns and rows the
same way in a block as in the whole: OpenBLAS on x86-64 does for blocks
that start at multiples of 8 columns and 4 rows, but not always for
others once a product sums 16 or more terms, and every block starts at
such a multiple.  The exception is outer_sum_mlp's gradients over more
than one slab: its slab-wise sums add in another order than one
reduction over all rows, so they agree with the whole map's to rounding,
not bit for bit.

The module imports numpy alone.  scipy.special, for GELU's erf, is
imported by the first _gelu_cdf, so a process that runs no GELU (the
flops tables, --help, a config error) never loads it.
"""

from __future__ import annotations

import itertools
import math
import weakref
from contextvars import ContextVar
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# spatial kernel footprints used anywhere in the pipeline
ALLOWED_KERNEL_SHAPES = {(1, 1), (3, 3), (3, 1), (1, 3)}

LAYER_NORM_EPS = 1e-5


class ContractViolation(ValueError):
    """An operation was called with arguments that violate its contract."""


class _Observer(NamedTuple):
    """What a thread's ops read as they run: whether they record the
    backward graph, the name of the scope they run in, and the counters
    that matmul reports its MACs to, each called as counter(scope, macs)."""

    recording: bool = True
    scope: str | None = None
    counters: tuple = ()


# each thread starts from the default state, and a scope changes only its own
_OBSERVER: ContextVar[_Observer] = ContextVar("sdtp_observer", default=_Observer())


class observe:
    """Context manager: run the enclosed operations with this thread's
    observer state changed.  recording and scope, where given, replace
    the current ones, and each positional counter joins the active
    counters.  The previous state is restored on exit, also on an
    exception, so scopes nest; other threads keep their own state."""

    def __init__(self, *counters, recording: bool | None = None, scope: str | None = None):
        self._counters, self._recording, self._scope = counters, recording, scope

    def __enter__(self):
        recording, scope, counters = _OBSERVER.get()
        self._token = _OBSERVER.set(_Observer(
            recording if self._recording is None else self._recording,
            scope if self._scope is None else self._scope, counters + self._counters))
        return self

    def __exit__(self, *exc) -> None:
        _OBSERVER.reset(self._token)


def no_grad():
    """Run the enclosed operations, in this thread only, without recording
    the backward graph.

    Outputs keep no parents and no VJP closure, so each intermediate array
    is freed once the next operation has consumed it.  Values are the same
    as with recording on.  It is observe(recording=False), so it nests and
    restores the previous state on exit.
    """
    return observe(recording=False)


class Tensor:
    """A numpy array plus its link into the backward graph.

    Leaf tensors created with ``requires_grad=True`` receive gradients, and
    each is its own graph node.  An op's output Tensor links to the op's
    node as its one parent (``_parents == (node,)``); the node does not
    link back, so the graph never keeps an output Tensor, nor through it
    the output's array.
    backward() writes into no array a VJP returned, only into the sums it
    formed itself, so views returned by cheap VJPs (reshape, transpose)
    and one array returned to two parents are safe to share.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents")

    # graph nodes carry the VJP; a Tensor never does
    _vjp = None

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = ()

    @classmethod
    def _from_op(cls, data: np.ndarray, parents, vjp) -> "Tensor":
        out = cls.__new__(cls)
        # an ndarray also where numpy returns a scalar (a ufunc on 0-d
        # arrays), since the node refers to it weakly and scalars take no
        # weak reference
        out.data = data = np.asarray(data)
        out.grad = None
        out.name = None
        out.requires_grad = _OBSERVER.get().recording and any(p.requires_grad for p in parents)
        out._parents = (_Node(data, parents, vjp),) if out.requires_grad else ()
        return out

    @property
    def _node(self):
        """This tensor's node in the backward graph: its op's node for an
        op output, the tensor itself for a leaf."""
        return self._parents[0] if self._parents else self

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Add this output's gradient, seeded with grad (1 for a scalar;
        else of the output's shape), into the .grad of every grad-requiring
        leaf it depends on, and consume the graph: a second pass over any
        part of it raises.

        Where a node receives several gradients, the first two are summed
        out of place and each later one is added into that sum in place:
        the same additions in the same order, so the same bits, with one
        array per node however many gradients it receives.  A leaf's .grad
        is rebound, never written into."""
        if not self.requires_grad:
            raise ContractViolation(
                "backward() on a tensor with no graph: no input requires grad, "
                "or it was computed under no_grad()")
        if grad is None:
            if self.data.size != 1:
                raise ContractViolation("backward() without a seed gradient needs a scalar output")
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.data.shape:  # refused before any gradient changes
            raise ContractViolation(f"backward() seed gradient of shape {np.shape(grad)} "
                                    f"for an output of shape {self.data.shape}")
        root = self._node
        topo: list = []
        seen: set[int] = set()
        stack: list[tuple] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._vjp is _consumed:  # refused before any VJP runs
                _consumed(None)
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        # this pass's gradients; each node's entry is dropped once its VJP
        # has run, and only leaves keep theirs, in .grad.  The pass consumes
        # the graph: each op node gives up its VJP closure and its parent
        # links as it is reached, so the arrays only that closure held are
        # freed as the pass goes, and a later pass through it is refused.
        # `owned` names the entries that are sums this pass formed itself,
        # the only arrays it adds into in place: a VJP may return one array
        # to two parents, or a view of its cotangent.
        grads = {id(root): np.asarray(grad, dtype=self.data.dtype)}
        owned: set[int] = set()
        for node in reversed(topo):
            g_node = grads.pop(id(node), None)
            owned.discard(id(node))
            if node._vjp is None:  # a leaf
                if g_node is not None:
                    node.grad = g_node if node.grad is None else node.grad + g_node
                continue
            vjp, parents = node._vjp, node._parents
            node._vjp, node._parents = _consumed, ()
            if g_node is None:
                continue
            pgrads = vjp(g_node)
            vjp = g_node = None  # frees the closure's arrays and the cotangent
            for p, g in zip(parents, pgrads):
                if not p.requires_grad or g is None:
                    continue
                if id(p) in owned:
                    grads[id(p)] += g
                elif id(p) in grads:
                    grads[id(p)] = grads[id(p)] + g
                    owned.add(id(p))
                else:
                    grads[id(p)] = g
            pgrads = g = None  # and the parent gradients summed into others

    def __repr__(self):
        tag = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad}{tag})"


def _consumed(g):
    """The VJP of every op node that an earlier backward() has reached."""
    raise ContractViolation("graph already consumed by an earlier backward()")


# stands in for every parent that needs no gradient, so that a graph keeps
# no such Tensor alive; read-only and empty
_CONSTANT = Tensor(np.empty(0))
_CONSTANT.data.flags.writeable = False


class _Node:
    """One recorded op: its VJP, its parents' nodes (a leaf Tensor is its
    own node, _CONSTANT stands in for a parent that needs no gradient) and
    a weak reference to its output array.  ``data`` is that array while
    the output Tensor or a VJP closure keeps it alive, and an empty array
    after it is freed.  Once a backward pass has run the VJP, the node
    holds _consumed in its place and no parents."""

    __slots__ = ("_parents", "_vjp", "_value")

    requires_grad = True

    def __init__(self, value: np.ndarray, parents, vjp):
        self._parents = tuple(p._node if p.requires_grad else _CONSTANT for p in parents)
        self._vjp = vjp
        self._value = weakref.ref(value)

    @property
    def data(self) -> np.ndarray:
        value = self._value()
        return _CONSTANT.data if value is None else value


def tape_arrays(*outputs: Tensor) -> list[np.ndarray]:
    """The distinct arrays the backward graph of outputs keeps alive: the
    live value of every node reachable from them (the outputs' own and the
    grad-requiring leaves' included) and every array a VJP closure holds,
    through cells, nested closures, tuples, lists and dict values.  A view
    counts as the array that owns its memory.  A consumed node keeps
    nothing, so after backward() the list is empty."""
    found: dict[int, np.ndarray] = {}
    seen: set[int] = set()
    stack: list = [t._node for t in outputs]
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            while isinstance(v.base, np.ndarray):
                v = v.base
            found[id(v)] = v
        elif isinstance(v, (Tensor, _Node)):
            if v._vjp is _consumed:  # a consumed graph keeps nothing alive
                continue
            if v.data is not _CONSTANT.data:  # not a freed node value
                stack.append(v.data)
            stack.extend(p for p in v._parents if p.requires_grad)
            if v._vjp is not None:
                stack.append(v._vjp)
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        elif isinstance(v, dict):
            stack.extend(v.values())
        elif callable(v) and getattr(v, "__closure__", None):
            for cell in v.__closure__:
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a cell not yet bound
                    pass
    return list(found.values())


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the shape of its source."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return Tensor._from_op(out, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    sa, sb = a.shape, b.shape
    need_gb = b.requires_grad  # a constant b's negated share is never formed

    def vjp(g):
        return _unbroadcast(g, sa), (-_unbroadcast(g, sb) if need_gb else None)

    return Tensor._from_op(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = ad * bd
    square = a is b

    def vjp(g):
        ga = _unbroadcast(g * bd, ad.shape)
        # a square's two shares are one array; backward() still adds both
        return ga, (ga if square else _unbroadcast(g * ad, bd.shape))

    return Tensor._from_op(out, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return Tensor._from_op(a.data * s, (a,), lambda g: (g * s,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ContractViolation(f"matmul expects rank-2 operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ContractViolation(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd
    for count in (state := _OBSERVER.get()).counters:
        count(state.scope, a.shape[0] * a.shape[1] * b.shape[1])

    def vjp(g):
        return g @ bd.T, ad.T @ g

    return Tensor._from_op(out, (a, b), vjp)


def permute(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = tuple(axes.index(k) for k in range(len(axes)))
    return Tensor._from_op(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    return Tensor._from_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ContractViolation("concat of an empty list")
    sizes = [t.data.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = list(itertools.accumulate(sizes, initial=0))

    def vjp(g):
        sl = [slice(None)] * g.ndim
        parts = []
        for k in range(len(sizes)):
            sl[axis] = slice(offsets[k], offsets[k + 1])
            parts.append(g[tuple(sl)])
        return tuple(parts)

    return Tensor._from_op(out, tuple(tensors), vjp)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    if start < 0 or length < 0 or start + length > a.shape[axis]:
        raise ContractViolation(f"narrow range {start}:{start + length} outside axis {axis} "
                                f"of length {a.shape[axis]}")
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape)
        full[sl] = g
        return (full,)

    return Tensor._from_op(a.data[sl], (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    return Tensor._from_op(a.data.sum(), (a,), lambda g: (np.broadcast_to(g, shape),))


def mean_all(a: Tensor) -> Tensor:
    shape, n = a.shape, a.size
    return Tensor._from_op(a.data.mean(), (a,), lambda g: (np.broadcast_to(g / n, shape),))


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal cdf; gelu(x) = x * _gelu_cdf(x).  The value of
    0.5 * (1 + erf(x / sqrt(2))), formed in place in one temporary.

    scipy.special, whose erf ufunc this is, is imported by the first call
    (later ones find it in sys.modules), not with this module: it takes
    longer to import than numpy and sdtp together, and only GELU reads
    it."""
    from scipy.special import erf

    t = x / np.sqrt(2.0)
    erf(t, out=t)
    t += 1.0
    t *= 0.5
    return t


def _gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d gelu / dx at x, given cdf = _gelu_cdf(x): the value of
    cdf + x * (exp(-0.5 * x * x) / sqrt(2 pi)), formed in place in one
    temporary (scaling x * x by -0.5 is exact)."""
    t = x * x
    t *= -0.5
    np.exp(t, out=t)
    t /= np.sqrt(2.0 * np.pi)
    t *= x
    t += cdf
    return t


def gelu(a: Tensor) -> Tensor:
    """Exact-erf gaussian error linear unit."""
    x = a.data
    cdf = _gelu_cdf(x)
    return Tensor._from_op(x * cdf, (a,), lambda g: (g * _gelu_slope(x, cdf),))


def tanh_t(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return Tensor._from_op(out, (a,), lambda g: (g * (1.0 - out * out),))


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilised by row-max subtraction."""
    out = _softmax_rows_into(a.data)
    # a copy of the cotangent, which may be shared with other gradients
    return Tensor._from_op(out, (a,), lambda g: (_softmax_rows_vjp(out, np.copy(g)),))


def _softmax_rows_into(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """softmax_rows's math on the array x, formed in out (x itself for in
    place) or, with out None, in a new array; returns it."""
    out = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _softmax_rows_vjp(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of softmax_rows's input for the cotangent g, given its
    output out: (g - dot) * out, formed in place in g, which it returns."""
    dot = (g * out).sum(axis=-1, keepdims=True)
    g -= dot
    g *= out
    return g


# the size, in float64 elements, that bounds each temporary of a blocked op
# (conv2d, softmax_pool, outer_sum_mlp and the resample_nearest VJP): they
# form their arrays about that many elements at a time
_BLOCK_ELEMS = 2 ** 18


def _blocks(n: int, row_elems: int, row_len: int) -> list[slice]:
    """Split range(n), rows of row_elems elements each that lie row_len
    apart along the axis a product cuts, into blocks of about
    _BLOCK_ELEMS // row_elems rows: rounded down to a multiple of
    step = 8 // gcd(row_len, 8), and at least step and 2 rows.  So every
    block starts at a multiple of 8 along that axis; OpenBLAS's x86-64
    double kernels step 8 columns, so a block's product columns then have
    the bits of the same columns of the whole product.  A lone last row
    joins the block before it: numpy multiplies a one-row matrix as a
    vector, which BLAS sums in another order than a matrix, so a product
    over a block of one row would not have the bits of the same row in a
    product over all rows."""
    step = 8 // math.gcd(row_len, 8)
    per = max(step, 2, _BLOCK_ELEMS // row_elems // step * step)
    starts = list(range(0, n, per))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _conv_pad(x: np.ndarray, ph: int, pw: int, r0: int, r1: int) -> np.ndarray:
    """Rows r0:r1 of x with ph rows more above and below them and pw
    columns more on each side, zero outside x.  np.pad's array for whole
    rows, without its per-call overhead (about 25 us on a 2-vCPU x86
    host), which dominates conv2d at gradcheck sizes."""
    c, h, w = x.shape
    xp = np.zeros((c, r1 - r0 + 2 * ph, w + 2 * pw), dtype=x.dtype)
    lo, hi = max(r0 - ph, 0), min(r1 + ph, h)
    xp[:, lo - r0 + ph: hi - r0 + ph, pw: pw + w] = x[:, lo:hi]
    return xp


def _conv_taps(w: np.ndarray, dilation: int, h: int, wd: int):
    """Yield (a, b, window, tap) for each kernel tap (a, b): the index of the
    (c_in, h, wd) window of the padded input it reads (and of the padded
    input gradient it adds into), and its (out_c, c_in) weight slice,
    copied because per-tap slices are strided and BLAS needs them
    contiguous.  Each tap is built when reached, so none outlives its
    step."""
    for a in range(w.shape[2]):
        for b in range(w.shape[3]):
            i, j = a * dilation, b * dilation
            win = (slice(None), slice(i, i + h), slice(j, j + wd))
            yield a, b, win, np.ascontiguousarray(w[:, :, a, b])


def _conv_stacked(xd: np.ndarray, wt: np.ndarray, dilation: int, out: np.ndarray) -> None:
    """Write into out, (out_c, h*w), conv2d's output for a map small enough
    that every tap's window fits one stack of _BLOCK_ELEMS elements: the
    map is padded once, every window gathered with one strided copy into a
    (taps, c_in, h*w) stack, every tap's product formed by one batched
    matmul against the kernel, copied once as (taps, out_c, c_in), and the
    products summed in tap order by one reduction.  numpy's batched matmul
    calls BLAS on each (out_c, c_in) @ (c_in, h*w) pair as the per-tap
    product does, and its reduction over the leading axis adds whole
    product rows in order, so the bits are those of the per-tap loop.  Not
    so for one output channel: numpy forms each product as a vector-matrix
    product, whose bits depend on how the window is laid out, and sums a
    one-element output's taps pairwise, so conv2d keeps the loop there."""
    c_in, h, wd = xd.shape
    out_c, _, kh, kw = wt.shape
    kernel = np.ascontiguousarray(wt.transpose(2, 3, 0, 1)).reshape(kh * kw, out_c, c_in)
    xp = _conv_pad(xd, (kh - 1) * dilation // 2, (kw - 1) * dilation // 2, 0, h)
    s0, s1, s2 = xp.strides
    stack = np.empty((kh * kw, c_in, h * wd))
    # every tap's window as one view of xp (the constructor checks that it
    # stays inside xp, and costs a sixth of as_strided's call)
    stack.reshape(kh, kw, c_in, h, wd)[...] = np.ndarray(
        (kh, kw, c_in, h, wd), xp.dtype, xp, 0, (dilation * s1, dilation * s2, s0, s1, s2))
    del xp  # freed before the products are formed
    np.add.reduce(np.matmul(kernel, stack), axis=0, out=out)


def conv2d(x: Tensor, w: Tensor, dilation: int = 1) -> Tensor:
    """2-D convolution with zero same-padding.

    x: (c_in, h, w) feature map.  w: (c_out, c_in, kh, kw) kernel whose
    spatial footprint must be one of ALLOWED_KERNEL_SHAPES.  The integer
    dilation spreads the taps along both axes; output spatial dims always
    equal the input's.
    A 1x1 kernel is one product over x's array as it is laid out, with no
    copy: a copy of a strided x (a permuted view) would change the low bits
    of the product.  A larger footprint on a map whose stack of every
    tap's window, kh*kw*max(c_in, c_out)*h*w elements, fits one block
    takes _conv_stacked: one padded copy, one gather, one batched product
    and one reduction, where the loop below makes a tap copy, a window
    copy, a product and an add for each tap.  At gradcheck sizes those
    numpy calls are most of the op's time (a 3x3 conv there takes 11 us
    stacked against 34 us looped); on larger maps the products are, and
    the loop holds one block's temporaries in place of the stacks.  A
    one-channel output keeps the loop (see _conv_stacked).  The loop
    walks blocks of output rows (see _blocks), about _BLOCK_ELEMS
    elements of the input or output wide and each starting at a multiple
    of 8 columns of the flattened map, and zero-pads only each block's
    rows plus the rows its taps reach above and below; each tap's patch
    and product are one block's size.  Every output column sums its taps'
    products in the same order on either path and over the whole map, so
    the values do not depend on the path or the block size.
    The recorded VJP holds only the arrays of x and w: it rebuilds each
    tap's window of the padded input and slices each tap again when it
    runs, so the graph keeps no padded copy of the input and no per-tap
    copies of the kernel.  It walks the same blocks of output rows for the
    input gradient, so beside its gradients it holds one block's product,
    and before the input gradient one map-sized patch for the weight
    gradient.  It forms no input gradient when x needed none as the op was
    recorded (a raw input map).
    """
    if x.ndim != 3:
        raise ContractViolation(f"conv2d input must be (c, h, w), got shape {x.shape}")
    if w.ndim != 4:
        raise ContractViolation(f"conv2d kernel must be (out_c, in_c, kh, kw), got shape {w.shape}")
    if not isinstance(dilation, (int, np.integer)) or dilation < 1:
        raise ContractViolation(f"conv2d dilation must be an integer >= 1, got {dilation!r}")
    c_in, h, wd = x.shape
    out_c, k_in, kh, kw = w.shape
    if k_in != c_in:
        raise ContractViolation(f"conv2d channel mismatch: input has {c_in}, kernel expects {k_in}")
    if (kh, kw) not in ALLOWED_KERNEL_SHAPES:
        raise ContractViolation(f"conv2d kernel footprint {(kh, kw)} not in {sorted(ALLOWED_KERNEL_SHAPES)}")

    xd, wt = x.data, w.data
    out = np.empty((out_c, h, wd), dtype=xd.dtype)
    if kh == kw == 1:
        np.matmul(np.ascontiguousarray(wt[:, :, 0, 0]), xd.reshape(c_in, h * wd),
                  out=out.reshape(out_c, h * wd))
    elif kh * kw * max(c_in, out_c) * h * wd <= _BLOCK_ELEMS and out_c > 1:
        _conv_stacked(xd, wt, dilation, out.reshape(out_c, h * wd))
    else:
        ph, pw = (kh - 1) * dilation // 2, (kw - 1) * dilation // 2
        for rows in _blocks(h, max(c_in, out_c) * wd, wd):
            n = rows.stop - rows.start
            xp = _conv_pad(xd, ph, pw, rows.start, rows.stop)
            out_rows = out[:, rows].reshape(out_c, n * wd)
            for a, b, win, tap in _conv_taps(wt, dilation, n, wd):
                patch = xp[win].reshape(c_in, -1)
                if a == b == 0:
                    np.matmul(tap, patch, out=out_rows)
                else:
                    out_rows += tap @ patch
    need_gx = x.requires_grad
    return Tensor._from_op(out, (x, w),
                           lambda g: _conv2d_vjp(xd, wt, dilation, g, need_gx))


def _conv_shift(xd: np.ndarray, s: int, t: int, out: np.ndarray) -> None:
    """Write into out the map whose (r, col) entry is xd's (r + s, col + t),
    zero where that lies outside xd: the window of the zero-padded input
    that one kernel tap reads."""
    _, h, wd = xd.shape
    out.fill(0.0)
    out[:, max(-s, 0): max(h - s, 0), max(-t, 0): max(wd - t, 0)] = \
        xd[:, max(s, 0): max(h + s, 0), max(t, 0): max(wd + t, 0)]


def _conv2d_vjp(xd: np.ndarray, wt: np.ndarray, dilation: int, g: np.ndarray,
                need_gx: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients (gx, gw) of conv2d(x, w, dilation) for the cotangent g,
    from the arrays of x and w; gx is None unless need_gx.

    Each tap's weight gradient is one product over every pixel, with the
    tap's window of the zero-padded input built in one map-sized patch (a
    1x1 kernel reads x's array itself).  The input gradient walks the
    forward's blocks of output rows, last block first, and adds each tap's
    product over the block's cotangent rows into its window: every element
    then sums its taps' products in tap order, as over the whole map at
    once.  It is the interior of a padded array, or for a 1x1 kernel an
    array laid out as x is, the layouts of the whole-map products, since
    reductions over it downstream sum in an order set by its layout."""
    c_in, h, wd = xd.shape
    out_c, _, kh, kw = wt.shape
    ph = (kh - 1) * dilation // 2
    pw = (kw - 1) * dilation // 2
    gflat = np.ascontiguousarray(g.reshape(out_c, h * wd))
    gw = np.zeros_like(wt)
    if kh == kw == 1:
        gw[:, :, 0, 0] = gflat @ xd.reshape(c_in, h * wd).T
    else:
        patch = np.empty((c_in, h, wd))
        for a in range(kh):
            for b in range(kw):
                _conv_shift(xd, a * dilation - ph, b * dilation - pw, patch)
                gw[:, :, a, b] = gflat @ patch.reshape(c_in, h * wd).T
        del patch  # freed before the input gradient is formed
    if not need_gx:
        return None, gw
    gxp = np.zeros_like(xd) if kh == kw == 1 else np.zeros((c_in, h + 2 * ph, wd + 2 * pw))
    for rows in reversed(_blocks(h, max(c_in, out_c) * wd, wd)):
        n = rows.stop - rows.start
        g_rows = gflat[:, rows.start * wd: rows.stop * wd]
        gx_rows = gxp[:, rows.start: rows.stop + 2 * ph]
        for _, _, win, tap in _conv_taps(wt, dilation, n, wd):
            gx_rows[win] += (tap.T @ g_rows).reshape(c_in, n, wd)
    return gxp[:, ph: ph + h, pw: pw + wd], gw


def _norms(r: np.ndarray) -> np.ndarray:
    """sqrt(sum(r**2)) over the last axis of r, kept as a length-1 axis,
    for rows whose sum of squares overflows float64: each row is scaled by
    the power of two that brings its largest magnitude into [0.5, 1) before
    it is squared, and its norm is scaled back.  Scaling by a power of two
    is exact, so the norm is right to rounding."""
    e = np.frexp(np.abs(r).max(axis=-1, keepdims=True))[1]
    rs = np.ldexp(r, -e)
    return np.ldexp(np.sqrt((rs * rs).sum(axis=-1, keepdims=True)), e)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalise each row of a token matrix to zero mean / unit variance,
    then apply a learned per-dimension affine.  A row whose sum of squares
    overflows takes its variance from _norms (LAYER_NORM_EPS lies below its
    rounding); every other row keeps its bits."""
    if x.ndim != 2:
        raise ContractViolation(f"layer_norm expects (n_tokens, d_embed), got shape {x.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ContractViolation(f"layer_norm gain/bias must be ({d},), got {gain.shape}, {bias.shape}")
    # sums over d then one division: ndarray.mean's arithmetic, with less
    # per-call overhead (the op also runs at tiny sizes in gradcheck)
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xc = x.data - mu
    with np.errstate(over="ignore"):
        var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    if not inv.all():  # 0 exactly in the rows whose sum of squares overflows
        big = inv[:, 0] == 0
        inv[big] = np.sqrt(d) / _norms(xc[big])
    xhat = xc * inv
    gd = gain.data
    out = xhat * gd + bias.data

    def vjp(g):
        dxhat = g * gd
        m1 = dxhat.sum(axis=-1, keepdims=True) / d
        m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / d
        gx = (dxhat - m1 - xhat * m2) * inv
        ggain = (g * xhat).sum(axis=0)
        gbias = g.sum(axis=0)
        return gx, ggain, gbias

    return Tensor._from_op(out, (x, gain, bias), vjp)


def _outer_sum_ln_factors(y: Tensor, x: Tensor, gain: Tensor, bias: Tensor,
                          w: Tensor, b: Tensor) -> tuple[np.ndarray, ...]:
    """Check the arguments of outer_sum_mlp's Linear(LayerNorm(y_i + x_j))
    and return its factor-side arrays (yc, xc, inv, A, B, b'), as
    outer_sum_mlp names them."""
    if y.ndim != 2 or x.ndim != 2 or y.shape[1] != x.shape[1]:
        raise ContractViolation(f"outer_sum_mlp factors must be (h, c) and (w, c), "
                                f"got {y.shape} and {x.shape}")
    h, c = y.shape
    nw = x.shape[0]
    if gain.shape != (c,) or bias.shape != (c,):
        raise ContractViolation("outer_sum_mlp gain/bias must have length c")
    if w.ndim != 2 or w.shape[0] != c or b.shape != (w.shape[1],):
        raise ContractViolation(f"outer_sum_mlp first weight must be ({c}, d) with a "
                                f"length-d bias, got {w.shape} and {b.shape}")
    # sums over c then one division: the same values as ndarray.mean, with
    # less per-call overhead (the op also runs at tiny sizes in gradcheck)
    yc = y.data - y.data.sum(axis=1, keepdims=True) / c
    xc = x.data - x.data.sum(axis=1, keepdims=True) / c
    var = np.empty((h, nw))
    with np.errstate(over="ignore"):
        for rows in _blocks(h, nw * w.shape[1], nw):
            sq = yc[rows, None, :] + xc
            sq *= sq
            sq.sum(axis=2, out=var[rows])
    var /= c
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    if not inv.all():  # rows whose sum of squares overflows, as in layer_norm
        i, j = np.nonzero(inv == 0)
        inv[i, j] = np.sqrt(c) / _norms(yc[i] + xc[j])[:, 0]
    gw = gain.data[:, None] * w.data
    return yc, xc, inv, yc @ gw, xc @ gw, bias.data @ w.data + b.data


def _outer_sum_slabs(factors: tuple[np.ndarray, ...]):
    """Yield (rows, pre) for each slab of factor rows, about _BLOCK_ELEMS
    elements of pre each and starting at a multiple of 8 token rows (see
    _blocks): the slice of factor rows and its (rows*w, d) block of
    Linear(LayerNorm(y_i + x_j)), which is inv_ij * (A_i + B_j) + b'.
    Every block is written into one reused buffer, so it is valid only
    until the next one is yielded."""
    _, _, inv, a_f, b_f, b_out = factors
    (h, nw), d = inv.shape, a_f.shape[1]
    slabs = _blocks(h, nw * d, nw)
    buf = np.empty((max(s.stop - s.start for s in slabs), nw, d))
    for rows in slabs:
        slab = buf[: rows.stop - rows.start]
        np.add(a_f[rows, None, :], b_f, out=slab)
        slab *= inv[rows, :, None]
        slab += b_out
        yield rows, slab.reshape(-1, d)


def _outer_sum_ln_reduce(factors: tuple[np.ndarray, ...], rows: slice,
                         g: np.ndarray) -> tuple[np.ndarray, ...]:
    """The factor-sized sums, over the (n*w, d) cotangent g of the token
    rows of factor rows `rows`, that the gradients of
    Linear(LayerNorm(y_i + x_j)) read: the weighted row sums ga and the
    cotangent of inv, ginv, for those factor rows, and these rows' shares
    of the sums over all rows, gb (by token) and gbf (by column j)."""
    _, _, inv, a_f, b_f, _ = factors
    inv, (nw, d) = inv[rows], b_f.shape
    g3 = g.reshape(-1, nw, d)
    # weighted row and column sums of the cotangent over the slab's grid
    ga = np.matmul(inv[:, None, :], g3)[:, 0, :]
    gbf = np.matmul(inv.T[:, None, :], g3.transpose(1, 0, 2))[:, 0, :]
    ginv = (np.matmul(g3, a_f[rows, :, None])[:, :, 0]
            + np.matmul(g3.transpose(1, 0, 2), b_f[:, :, None])[:, :, 0].T)
    return ga, ginv, g.sum(axis=0), gbf


def _outer_sum_ln_finish(factors: tuple[np.ndarray, ...], ga: np.ndarray, ginv: np.ndarray,
                         gb: np.ndarray, gbf: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                         w: np.ndarray) -> tuple[np.ndarray, ...]:
    """Gradients of Linear(LayerNorm(y_i + x_j)) with respect to its
    (y, x, gain, bias, w, b) from the sums _outer_sum_ln_reduce forms over
    all rows and from the arrays of gain, bias and w.  Every array here is
    factor-sized, apart from those of w's shape: w itself, gw = gain * w,
    rebuilt as _outer_sum_ln_factors formed it so that the tape keeps no
    copy, and w's gradient.

    gv, the cotangent of the variance, scales as 1 / rms**2, and its
    factor inv ** 3 leaves the normal range once a row's rms passes about
    1e102.  Those entries are left out of gv, and their shares
    gv_ij * (yc_i + xc_j) of gyc_i and gxc_j, which scale as 1 / rms, are
    formed in an order whose every factor stays in range.  Every other
    entry keeps its bits."""
    yc, xc, inv, _, _, _ = factors
    c = w.shape[0]
    gw = gain[:, None] * w
    gv = (-1.0 / c) * inv ** 3
    lost = np.abs(gv) < np.finfo(np.float64).tiny  # subnormal or 0
    gv *= ginv                              # (2 / c) * d(loss)/d(var)
    gv[lost] = 0.0
    gyc = gv.sum(axis=1)[:, None] * yc + gv @ xc + ga @ gw.T
    gxc = gv.sum(axis=0)[:, None] * xc + gv.T @ yc + gbf @ gw.T
    if lost.any():
        i, j = np.nonzero(lost)
        k = inv[i, j]
        # (inv * ginv) and inv * (yc_i + xc_j) are scale-free, and their
        # product with inv scales as 1 / rms: no factor leaves the range
        share = ((-1.0 / c) * (k * ginv[i, j]) * k)[:, None] * (k[:, None] * (yc[i] + xc[j]))
        np.add.at(gyc, i, share)
        np.add.at(gxc, j, share)
    # in place: the same sums as a + b, with one (c, d) temporary fewer
    ggw = yc.T @ ga
    ggw += xc.T @ gbf
    gy = gyc - gyc.mean(axis=1, keepdims=True)
    gx = gxc - gxc.mean(axis=1, keepdims=True)
    gw_full = gain[:, None] * ggw
    gw_full += np.outer(bias, gb)
    return gy, gx, (ggw * w).sum(axis=1), w @ gb, gw_full, gb


def outer_sum_mlp(m: Tensor, y: Tensor, x: Tensor, gain: Tensor, bias: Tensor, w1: Tensor,
                  b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """The CDI block's residual update of a (c, h, w) map m from the axis
    factors y: (h, c) and x: (w, c) of its refined outer sum r, with
    r[:, i, j] = y_i + x_j:

        pre = layer_norm(map_to_tokens(r), gain, bias) @ w1 + b1
        out = (m + r) + tokens_to_map(gelu(pre) @ w2 + b2)

    computed a few factor rows at a time.  Neither r, nor m + r, nor the
    (h*w, c) MLP output, nor the (h*w, d) hidden array is built.

    Row i*w + j of pre is Linear(LayerNorm(y_i + x_j)), formed from the
    factors without expanding the (h*w, c) outer sum.  The row mean of
    y_i + x_j is the sum of the factors' row means, so the centred row is
    yc_i + xc_j with centred factors yc, xc; its variance is the mean of
    its squares, formed a slab of factor rows at a time as in layer_norm.
    Rows whose squares overflow take it from _norms, as in layer_norm, all
    such rows at once: only there is the working set not bounded by a
    slab.  The projection is linear, so pre_ij = inv_ij * (A_i + B_j) + b'
    with A = yc @ gw, B = xc @ gw, gw = gain * w1 (row-scaled) and
    b' = bias @ w1 + b1.  Where the factors nearly cancel
    (|yc_i| + |xc_j| = kappa * |yc_i + xc_j| with kappa >> 1), A_i + B_j
    cancels too, and pre agrees with the dense layer_norm and matmul to
    about 1e-16 * kappa relative instead of to rounding.  Each slab of
    factor rows (see _outer_sum_slabs), a (rows*w, d) block of pre of at
    most about _BLOCK_ELEMS elements, goes through gelu and matmul under
    no_grad, and its rows of the sum are written straight into the
    (c, h, w) output.

    The VJP keeps only the factor-side arrays and the arrays of gain, bias,
    w1 and w2 (gradient checkpointing of one layer).  The residual needs
    none: the cotangent goes to m as it is, and its w- and h-sums to the
    factors.  The MLP's part walks the same slabs once more, rebuilding
    each block of pre and its GELU cdf, and never holds a hidden-sized
    array, as FlashAttention's backward recomputes each block.  Per slab
    it forms the hidden cotangent, (the slab's tokens of the cotangent @
    w2.T) times the GELU slope, and reduces it at once to factor-sized
    sums (_outer_sum_ln_reduce): the slab's own rows of the row sums, and
    its shares of the sums over all rows; then it overwrites the cdf with
    the GELU output and adds the slab's share of lin2's weight and bias
    gradients.  The factored layer norm and first projection take their
    gradients from those sums once the walk is done
    (_outer_sum_ln_finish).  Each factor is listed twice among the
    parents, residual use first.  Values equal, bit for bit, those of the
    unfused chain that forms all of pre at once and then runs gelu,
    matmul and the adds one op at a time.  So do the gradients where the
    map is one slab, as at the train: dims: each running sum starts as
    the first slab's share.  Over several slabs, lin2's weight and bias
    gradients and the sums over all rows add their slabs' shares, in
    another order than one reduction over every row, and the gradients
    agree with the chain's to rounding: at level 2 of the default config,
    within 4.4e-15 max-norm relative.
    """
    factors = _outer_sum_ln_factors(y, x, gain, bias, w1, b1)
    (h, c), nw, d = y.shape, x.shape[0], w1.shape[1]
    if w2.shape != (d, c) or b2.shape != (c,):
        raise ContractViolation(f"outer_sum_mlp second weight must be ({d}, {c}) with a "
                                f"length-{c} bias, got {w2.shape} and {b2.shape}")
    if m.shape != (c, h, nw):
        raise ContractViolation(f"outer_sum_mlp map must be ({c}, {h}, {nw}), got {m.shape}")
    out = np.empty((c, h, nw))
    yt, xt = y.data.T, x.data.T
    # the module-level gelu and matmul, so that a wrapper installed on them
    # (a MAC or element counter) sees every slab
    with no_grad():
        for rows, pre in _outer_sum_slabs(factors):
            o = out[:, rows]
            np.add(yt[:, rows, None], xt[:, None, :], out=o)
            o += m.data[:, rows]  # r + m: float addition commutes, so m + r's bits
            delta = matmul(gelu(Tensor(pre)), w2).data
            delta += b2.data
            o += delta.reshape(-1, nw, c).transpose(2, 0, 1)

    gd, bd, w1d, w2d = gain.data, bias.data, w1.data, w2.data

    def vjp(g):
        ga, ginv = np.empty((h, d)), np.empty((h, nw))
        sums = None  # gb, gbf, gw2, gb2: the first slab's shares, then the running sums
        for rows, pre in _outer_sum_slabs(factors):
            gslab = g[:, rows].transpose(1, 2, 0).reshape(-1, c)
            cdf = _gelu_cdf(pre)
            # the slab's hidden cotangent, reduced at once to factor-sized
            # sums: its own rows of ga and ginv, its shares of gb and gbf
            ghid = gslab @ w2d.T
            ghid *= _gelu_slope(pre, cdf)
            ga[rows], ginv[rows], *shares = _outer_sum_ln_reduce(factors, rows, ghid)
            del ghid
            act = np.multiply(pre, cdf, out=cdf)  # the GELU output, in place of its cdf
            shares += [act.T @ gslab, gslab.sum(axis=0)]
            if sums is None:
                sums = shares
            else:
                for acc, share in zip(sums, shares):
                    acc += share
            del act, cdf, shares  # freed before the next slab's
        del pre  # the slab buffer, freed before the finish
        gb, gbf, gw2, gb2 = sums
        ln_grads = _outer_sum_ln_finish(factors, ga, ginv, gb, gbf, gd, bd, w1d)
        gy = _unbroadcast(g, (c, h, 1)).transpose(1, 2, 0).reshape(h, c)
        gx = _unbroadcast(g, (c, 1, nw)).transpose(1, 2, 0).reshape(nw, c)
        return (g, gy, gx) + ln_grads + (gw2, gb2)

    return Tensor._from_op(out, (m, y, x, y, x, gain, bias, w1, b1, w2, b2), vjp)


def softmax_pool(x: Tensor, w: Tensor, axis: int) -> Tensor:
    """Collapse axis 1 or 2 of a (c, h, w) map by softmax pooling: weights
    softmax(conv2d(x, w)) along that axis (w a (c, c, 1, 1) logit kernel),
    then the weighted sum of x along it, kept with length 1.

    It walks blocks of channels (see _blocks), about _BLOCK_ELEMS elements
    of the map each and each starting at a multiple of 8 channels: a
    block's logits come from the module-level conv2d on the
    block's rows of w, its row softmax from the module-level softmax_rows
    (for axis 1 on a transposed copy), both under no_grad, and its weighted
    sum is written into the output; each row of every step depends on its
    own channel alone, so the values do not depend on the block size.
    The recorded VJP holds only the arrays of x and w, no softmax
    (gradient checkpointing of one op).  It walks the same blocks of
    channels twice, rebuilding each block's softmax with the same conv2d
    and softmax_rows's math, formed in place in an array of the block's
    rows.  The first walk forms it in a fresh block, then the weighted
    cotangent and, in place, its softmax VJP, one block each, writing the
    logit cotangent block by block into one map-sized array; the conv's
    VJP then walks blocks of rows, and the logit cotangent is freed.  The
    second walk forms each block's softmax in that block's rows of the
    pooled input's gradient and multiplies the cotangent in there.  x is
    listed twice among the parents, product use first, as the unfused
    chain conv2d -> softmax -> mul -> sum accumulates it, so values and
    gradients equal that chain's bit for bit.
    """
    if x.ndim != 3:
        raise ContractViolation(f"softmax_pool expects (c, h, w), got shape {x.shape}")
    if axis not in (1, 2):
        raise ContractViolation(f"softmax_pool axis must be 1 or 2, got {axis}")
    c, h, wd = x.shape
    if w.shape != (c, c, 1, 1):
        raise ContractViolation(f"softmax_pool logit kernel must be ({c}, {c}, 1, 1), "
                                f"got {w.shape}")
    xd, wt = x.data, w.data

    def pooling_weights(sm, n):
        """The (n, h, w) view of n channels' softmax output."""
        return sm.reshape(n, h, wd) if axis == 2 else sm.reshape(n, wd, h).transpose(0, 2, 1)

    # the softmax has one row of length h (axis 1) or w (axis 2) per pooled
    # entry, so a channel has `per` rows of length `n_row`
    per, n_row = (wd, h) if axis == 1 else (h, wd)
    out = np.empty((c, 1, wd) if axis == 1 else (c, h, 1))
    blocks = _blocks(c, h * wd, 1)
    with no_grad():
        for ch in blocks:
            logits = conv2d(x, Tensor(wt[ch])).data
            if axis == 1:
                logits = logits.transpose(0, 2, 1)
            block = softmax_rows(Tensor(logits.reshape(-1, n_row))).data
            del logits
            n = ch.stop - ch.start
            out[ch] = (pooling_weights(block, n) * xd[ch]).sum(axis=axis, keepdims=True)
            del block  # freed before the next block's logits

    def softmax_block(ch, rows):
        """Block ch's softmax, rebuilt with the forward's conv2d and
        softmax math in rows, an (n * per, n_row) array, which it
        returns.  No input requires grad, so nothing is recorded."""
        pooling_weights(rows, ch.stop - ch.start)[...] = conv2d(Tensor(xd), Tensor(wt[ch])).data
        return _softmax_rows_into(rows, rows)

    def vjp(g):
        gp = np.broadcast_to(g, xd.shape)
        glogits = np.empty((c, h, wd))
        for ch in blocks:
            n = ch.stop - ch.start
            sm = softmax_block(ch, np.empty((n * per, n_row)))
            # the block's weighted cotangent, laid out as its softmax rows
            # (for axis 1 in a transposed block), and then, in place, their
            # softmax VJP: the block's logit cotangent
            rows = glogits[ch] if axis == 2 else np.empty((n, wd, h))
            np.multiply(gp[ch], xd[ch], out=pooling_weights(rows, n))
            _softmax_rows_vjp(sm, rows.reshape(-1, n_row))
            if axis == 1:
                glogits[ch] = pooling_weights(rows, n)
            del sm, rows  # freed before the next block's
        gx_logits, gw = _conv2d_vjp(xd, wt, 1, glogits)
        del glogits  # freed before the pooled input's gradient is formed
        # the pooled input's gradient, laid out as the softmax rows; each
        # block's softmax is rebuilt in the block's own rows of it, and the
        # cotangent multiplied in there
        gx_rows = np.empty((c * per, n_row))
        for ch in blocks:
            sm = pooling_weights(softmax_block(ch, gx_rows[ch.start * per: ch.stop * per]),
                                 ch.stop - ch.start)
            np.multiply(gp[ch], sm, out=sm)
        return pooling_weights(gx_rows, c), gx_logits, gw

    return Tensor._from_op(out, (x, x, w), vjp)


def outer_sum_distance(m: Tensor, y: Tensor, x: Tensor) -> Tensor:
    """Frobenius distance between a (c, h, w) map m and the outer sum of its
    factors y: (c, h, 1) and x: (c, 1, w), sqrt(sum((m - (y + x))**2));
    subgradient 0 where they coincide.  Neither the outer sum nor the
    difference is kept: the VJP rebuilds the difference from m, y and x in
    one pass, so values and gradients equal, bit for bit, those of the
    unfused chain that takes the norm of sub(m, add(y, x)).  A map whose
    sum of squares overflows takes its norm from _norms."""
    if m.ndim != 3 or y.shape != (m.shape[0], m.shape[1], 1) \
            or x.shape != (m.shape[0], 1, m.shape[2]):
        raise ContractViolation(f"outer_sum_distance needs a (c, h, w) map with (c, h, 1) and "
                                f"(c, 1, w) factors, got {m.shape}, {y.shape} and {x.shape}")
    md, yd, xd = m.data, y.data, x.data
    d = yd + xd
    np.subtract(md, d, out=d)
    with np.errstate(over="ignore"):
        d *= d
        nrm = float(np.sqrt(d.sum()))
    if not math.isfinite(nrm):  # the squares overflow: rescaled, as in layer_norm
        nrm = float(_norms((md - (yd + xd)).ravel())[0])

    def vjp(g):
        gd = yd + xd
        np.subtract(md, gd, out=gd)
        gd *= g
        gd /= max(nrm, 1e-300)
        # the factors' cotangent is -gd; negation is exact, so negating
        # gd's sums gives the sums of its negation, without a copy of it
        return gd, -_unbroadcast(gd, yd.shape), -_unbroadcast(gd, xd.shape)

    return Tensor._from_op(np.asarray(nrm), (m, y, x), vjp)


def map_to_tokens(x: Tensor) -> Tensor:
    """(c, h, w) feature map -> (h*w, c) token matrix, row-major positions."""
    if x.ndim != 3:
        raise ContractViolation(f"map_to_tokens expects (c, h, w), got shape {x.shape}")
    c, h, w = x.shape
    return reshape(permute(x, (1, 2, 0)), (h * w, c))


def tokens_to_map(t: Tensor, hw: tuple[int, int]) -> Tensor:
    """(h*w, c) token matrix -> (c, h, w) feature map; inverse of map_to_tokens."""
    h, w = hw
    if t.ndim != 2 or t.shape[0] != h * w:
        raise ContractViolation(f"tokens_to_map: {t.shape} does not match spatial dims {hw}")
    return permute(reshape(t, (h, w, t.shape[1])), (2, 0, 1))


def resample_nearest(x: Tensor, out_hw: tuple[int, int]) -> Tensor:
    """Nearest-neighbour spatial resampling of a (c, h, w) map.

    Source index for output position j is (j * in_size) // out_size, which
    reduces to index doubling for 2x down and index halving for 2x up, the
    two cases the pyramid actually uses.
    """
    if x.ndim != 3:
        raise ContractViolation(f"resample_nearest expects (c, h, w), got shape {x.shape}")
    c, h, w = x.shape
    oh, ow = int(out_hw[0]), int(out_hw[1])
    if oh < 1 or ow < 1:
        raise ContractViolation(f"resample_nearest target dims must be >= 1, got {out_hw}")
    ih = (np.arange(oh) * h) // oh
    iw = (np.arange(ow) * w) // ow
    out = x.data[:, ih[:, None], iw[None, :]]

    def vjp(g):
        # np.add.at(gx, (:, ih, iw), g) without its per-element overhead, one
        # block of channels at a time: bincount adds each source's outputs
        # in raster order, as add.at does.  The flattened index map is built
        # once, for the largest block (a lone last channel joins the block
        # before it), and each block takes a prefix of it.
        blocks = _blocks(c, oh * ow, 1)
        src = (ih[:, None] * w + iw[None, :]).ravel()
        n_max = max(blk.stop - blk.start for blk in blocks)
        idx = (np.arange(n_max)[:, None] * (h * w) + src).ravel()
        gx = np.empty((c, h, w))
        for blk in blocks:
            n = blk.stop - blk.start
            gx[blk] = np.bincount(idx[: n * oh * ow], g[blk].reshape(-1),
                                  minlength=n * h * w).reshape(n, h, w)
        return (gx,)

    return Tensor._from_op(out, (x,), vjp)


def uniform_param(rng: np.random.Generator, shape, fan_in: int, name: str | None = None) -> Tensor:
    """Leaf parameter drawn from uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(float(fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True, name=name)


class Module:
    """Base of every layer that owns parameters.

    params() walks the instance's attributes in assignment order and
    collects each Tensor, descending into nested Modules and into the
    items of lists and tuples and the values of dicts; any other attribute
    (a width, a config, a mode string) is skipped.  The order is the order
    toy_train updates in and vjp_check draws directions in, so reordering
    attribute assignments changes reports.
    """

    def params(self) -> list[Tensor]:
        out: list[Tensor] = []
        _collect_params(vars(self).values(), out)
        return out

    def named_params(self) -> list[tuple[str, Tensor]]:
        return [(p.name, p) for p in self.params()]


def _collect_params(values, out: list[Tensor]) -> None:
    for v in values:
        if isinstance(v, Tensor):
            out.append(v)
        elif isinstance(v, Module):
            _collect_params(vars(v).values(), out)
        elif isinstance(v, (list, tuple)):
            _collect_params(v, out)
        elif isinstance(v, dict):
            _collect_params(v.values(), out)


class Linear(Module):
    """Affine map on token rows: y = x @ W + b."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int, name: str = "linear"):
        self.w = uniform_param(rng, (d_in, d_out), d_in, name=f"{name}.w")
        self.b = uniform_param(rng, (d_out,), d_in, name=f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(x, self.w), self.b)


class LayerNorm(Module):
    def __init__(self, d: int, name: str = "ln"):
        self.gain = Tensor(np.ones(d), requires_grad=True, name=f"{name}.gain")
        self.bias = Tensor(np.zeros(d), requires_grad=True, name=f"{name}.bias")

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias)


@dataclass
class OuterSum:
    """The residual update of a (c, h, w) map by the outer sum r of two
    axis factors, r[:, i, j] = y_i + x_j: an Mlp applied to it returns
    m + r + mlp(ln(r)), the MLP running on r's tokens in map_to_tokens
    order.  Kept as the map, the (h, c) and (w, c) factors and the
    LayerNorm to apply."""

    m: Tensor
    y: Tensor
    x: Tensor
    ln: LayerNorm


class Mlp(Module):
    """Two affine maps with a GELU between; hidden width = round(ratio * d).

    The input is a token matrix, or an OuterSum, which goes through
    outer_sum_mlp and yields the updated (c, h, w) map: the normalisation
    and first map come from its factors, the rest runs one slab of factor
    rows at a time, about _BLOCK_ELEMS hidden elements each, and is added,
    with the map and the outer sum, straight into the output.  The
    recorded VJP keeps only factor-sized arrays.  When it runs, it walks
    the slabs once more, rebuilding each block of the hidden array and
    reducing its cotangent to factor-sized sums before the next, so it
    never holds a hidden-sized array."""

    def __init__(self, rng: np.random.Generator, d: int, hidden_ratio: float = 4.0,
                 name: str = "mlp"):
        if hidden_ratio <= 0:
            raise ContractViolation(f"mlp hidden_ratio must be positive, got {hidden_ratio}")
        hidden = max(1, round(hidden_ratio * d))
        self.lin1 = Linear(rng, d, hidden, name=f"{name}.lin1")
        self.lin2 = Linear(rng, hidden, d, name=f"{name}.lin2")

    def __call__(self, x: Tensor | OuterSum) -> Tensor:
        if isinstance(x, OuterSum):
            return outer_sum_mlp(x.m, x.y, x.x, x.ln.gain, x.ln.bias, self.lin1.w,
                                 self.lin1.b, self.lin2.w, self.lin2.b)
        return self.lin2(gelu(self.lin1(x)))


def conv_param(rng: np.random.Generator, out_c: int, in_c: int, kh: int, kw: int,
               name: str | None = None) -> Tensor:
    return uniform_param(rng, (out_c, in_c, kh, kw), in_c * kh * kw, name=name)


def zero_(t: Tensor) -> None:
    """Rebind a parameter's value to zeros (used by structural degeneracy probes)."""
    t.data = np.zeros_like(t.data)
