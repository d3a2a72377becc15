"""Dense tensors with reverse-mode automatic differentiation on numpy.

The model and its training losses record the fused affine map ``linear``,
fused multi-head ``attention``, the stride-2 convolution and transpose
convolution and the pointwise convolution over token-major
``(tokens, channels)`` sequences, ``layer_norm``, ``gelu``,
``add``/``sub``/``mul``, ``reshape``/``transpose``/``narrow`` and
``mean_all``, all on Tensor operands. ``matmul``, ``softmax_lastdim``,
``neg``, ``sum_all`` and ``concat`` serve only the gradient suite (which
checks every op), ``patch_merge_naive`` and the benchmark's tracer and smoke
test. Scalars are 32-bit by default; build tensors with ``dtype=np.float64``
for gradient verification.

Every forward op validates that its output is finite and raises
``NumericError`` naming the op otherwise, so instabilities surface where
they happen instead of propagating. The test, :func:`all_finite`, takes one
dot product of the output with itself: a sum of squares is finite exactly
when every entry is, so only a non-finite sum pays for ``np.isfinite``.

Three kernels save memory passes and keep every bit. ``gelu`` runs its nine
in-place passes over cache-sized blocks of ``GELU_BLOCK`` elements.
``attention`` takes each score row's max from a key-major copy (numpy reduces
short contiguous rows slowly; a max is exact in any order) and keeps the
scores query-major, so their row sums keep their bits. The merge's forward
and the split's VJP pair rows by parity copies, not a transpose copy whose
inner loop is 2 elements long (``_pair_rows``).

Recording happens on an explicit :class:`GradTape`::

    with GradTape() as tape:
        loss = mean_all(mul(d, d))
    tape.backward(loss)     # sets .grad on each leaf the loss reaches

A leaf the loss does not reach gets no gradient, not zeros: its ``grad``
stays as it was. One tape records per thread and tapes do not nest;
``backward`` takes only a loss its own tape recorded. Tapes on different
threads are independent.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericError, UsageError

DEFAULT_DTYPE = np.float32
# layer_norm adds this to each slice's variance before the square root
LAYER_NORM_EPS = 1e-5
# gelu's forward runs its elementwise passes over blocks of this many elements
GELU_BLOCK = 32768

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A row-major array of real scalars, optionally tracked for gradients.

    ``GradTape.backward`` sets ``grad`` on a ``requires_grad`` leaf that its
    loss reaches; it accumulates additively until ``zero_grad``.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is not None:
            arr = np.asarray(data, dtype=dtype)
        else:
            arr = np.asarray(data)
            if arr.dtype not in _FLOAT_DTYPES:
                arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("name", "inputs", "output", "vjp")

    def __init__(self, name, inputs, output, vjp):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


_TLS = threading.local()


class GradTape:
    """Ordered record of forward operations with enough saved state for VJPs.

    Nodes are appended in execution order, which is a topological order of
    the data-flow graph; ``backward`` walks them exactly once in reverse.
    Gradients accumulate additively when a tensor feeds multiple consumers.
    Entering a tape while another records on the same thread raises
    ``UsageError``: tapes do not nest.

    ``backward`` consumes the tape: it pops each node as it runs the node's
    VJP, so saved activations and cotangents are freed as soon as they have
    been used, and ``len(tape)`` is 0 afterwards. A second ``backward`` on
    the same tape raises ``UsageError``; record a new tape instead.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._consumed = False

    def __enter__(self) -> "GradTape":
        if getattr(_TLS, "tape", None) is not None:
            raise UsageError("a GradTape is already recording on this thread; tapes do not nest")
        _TLS.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _TLS.tape = None
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Add the gradient of ``loss`` to ``grad`` on every requires_grad leaf
        it reaches on this tape; a leaf it does not reach keeps its ``grad`` as
        it was, None after ``zero_grad``. A loss that requires grad but that
        this tape did not record is a ``UsageError``.
        """
        if loss.size != 1:
            raise UsageError(f"backward requires a scalar loss, got shape {loss.shape}")
        if self._consumed:
            raise UsageError("this tape was consumed by an earlier backward; record a new one")
        nodes = self._nodes
        if loss.requires_grad and id(loss) not in {id(node.output) for node in nodes}:
            raise UsageError("backward got a loss this tape did not record; "
                             "run its forward inside this tape's 'with' block")
        self._consumed = True
        # (tensor, gradient) per id: each node pops its output's, leaving the reached leaves'
        grads = {id(loss): (loss, np.ones_like(loss.data))} if loss.requires_grad else {}
        while nodes:
            node = nodes.pop()
            pair = grads.pop(id(node.output), None)
            if pair is None:
                continue
            cotangents = node.vjp(pair[1])
            if len(cotangents) != len(node.inputs):
                raise UsageError(f"VJP of op '{node.name}' returned {len(cotangents)} cotangents "
                                 f"for {len(node.inputs)} inputs")
            for tensor, contrib in zip(node.inputs, cotangents):
                if contrib is not None and tensor.requires_grad:
                    held = grads.get(id(tensor))
                    grads[id(tensor)] = (tensor, contrib if held is None else held[1] + contrib)
        for tensor, g in grads.values():
            tensor.grad = g if tensor.grad is None else tensor.grad + g


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of the real array ``arr`` is finite.

    Exact, and for a contiguous array allocation-free: ``x·x`` sums
    non-negative squares, so NaN and ±inf cannot cancel and the sum is
    finite exactly when every entry is. Only a non-finite sum (a real NaN
    or inf, or finite entries whose squares overflow) falls back to
    ``np.isfinite``. Unlike ``np.dot``, ``np.vdot`` warns of no overflow.
    """
    flat = arr.ravel("K")
    return math.isfinite(np.vdot(flat, flat)) or bool(np.isfinite(arr).all())


def _ensure_finite(op: str, arr: np.ndarray) -> None:
    if not all_finite(arr):
        raise NumericError(f"non-finite value produced by op '{op}'")


def record_op(
    name: str,
    out_data: np.ndarray,
    inputs: Sequence[Tensor],
    vjp: Callable[[np.ndarray], tuple],
) -> Tensor:
    """Finish a forward op: validate, wrap, and record on the active tape.

    ``vjp(g)`` must return one cotangent (ndarray or None) per input, in
    order; ``backward`` raises ``UsageError`` naming the op otherwise.
    ``out_data`` must be an ndarray: it becomes the output's data as is.
    This is the extension point every built-in op goes through.
    """
    _ensure_finite(name, out_data)
    requires = False
    for t in inputs:
        if t.requires_grad:
            requires = True
            break
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = requires
    out.grad = None
    if requires:
        tape = getattr(_TLS, "tape", None)
        if tape is not None:
            tape._nodes.append(_Node(name, tuple(inputs), out, vjp))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast to produce it."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return record_op("add", out, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), -_unbroadcast(g, b.shape)

    return record_op("sub", out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * b_data, a.shape), _unbroadcast(g * a_data, b.shape)

    return record_op("mul", out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return record_op("neg", -a.data, (a,), lambda g: (-g,))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of 2-D tensors, or stacked 2-D with equal batch dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs 2-D or batched operands, got {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul batch dims differ: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    a_data, b_data = a.data, b.data

    def vjp(g):
        return g @ b_data.swapaxes(-1, -2), a_data.swapaxes(-1, -2) @ g

    return record_op("matmul", out, (a, b), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of row-stacked ``x[M, d_in]``: ``x @ w + b`` as one node."""
    if x.ndim != 2 or w.ndim != 2 or b.shape != (w.shape[1],) or x.shape[1] != w.shape[0]:
        raise DimensionError(f"linear expects x[M,d_in], w[d_in,d_out], b[d_out]; "
                             f"got {x.shape}, {w.shape}, {b.shape}")
    x_data, w_data = x.data, w.data
    out = x_data @ w_data
    out += b.data

    def vjp(g):
        return g @ w_data.T, x_data.T @ g, g.sum(axis=0)

    return record_op("linear", out, (x, w, b), vjp)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, windows: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention within each window, as one node.

    ``q``, ``k`` and ``v`` are ``(windows*N, d)`` row stacks of ``windows``
    sequences of N tokens; token i attends only to tokens of its own
    window. Each head takes a contiguous ``d/heads`` slice of the features.
    Returns the ``(windows*N, d)`` context and the softmax probabilities
    ``(windows, heads, N, N)``, which the VJP reuses rather than recomputes.
    """
    if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
        raise DimensionError(f"attention expects equal 2-D q, k, v; got {q.shape}, {k.shape}, {v.shape}")
    rows, d = q.shape
    if heads < 1 or d % heads or windows < 1 or rows % windows:
        raise DimensionError(f"attention: {rows}x{d} tokens do not split into {windows} windows "
                             f"of {heads} heads")
    n, dh = rows // windows, d // heads
    qh = q.data.reshape(windows, n, heads, dh).transpose(0, 2, 1, 3)   # (W, h, N, dh)
    kt = k.data.reshape(windows, n, heads, dh).transpose(0, 2, 3, 1)   # (W, h, dh, N)
    vh = v.data.reshape(windows, n, heads, dh).transpose(0, 2, 1, 3)
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=q.dtype)
    # scale, shift, exponentiate and normalize in one buffer
    probs = qh @ kt
    probs *= scale
    probs -= np.ascontiguousarray(probs.swapaxes(-1, -2)).max(axis=-2, keepdims=True).swapaxes(-1, -2)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = (probs @ vh).transpose(0, 2, 1, 3).reshape(rows, d)

    def vjp(g):
        gc = g.reshape(windows, n, heads, dh).transpose(0, 2, 1, 3)
        gp = gc @ vh.swapaxes(-1, -2)
        gv = probs.swapaxes(-1, -2) @ gc
        gs = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True)) * scale
        gq = gs @ kt.swapaxes(-1, -2)
        gk = qh.swapaxes(-1, -2) @ gs
        return (gq.transpose(0, 2, 1, 3).reshape(rows, d),
                gk.transpose(0, 3, 1, 2).reshape(rows, d),
                gv.transpose(0, 2, 1, 3).reshape(rows, d))

    return record_op("attention", out, (q, k, v), vjp), probs


def conv1d_k2s2(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Kernel-2 stride-2 convolution of ``x[P, C_in]`` to ``(P/2, C_out)``.

    ``out[t, j] = bias[j] + sum_r sum_k weight[j, k, r] * x[2t + r, k]``:
    one matmul over adjacent token pairs stacked as rows. P must be even.
    """
    if x.ndim != 2 or weight.ndim != 3 or bias.ndim != 1:
        raise DimensionError(
            f"conv1d_k2s2 expects x[P,C_in], weight[C_out,C_in,2], bias[C_out]; "
            f"got {x.shape}, {weight.shape}, {bias.shape}"
        )
    p, c_in = x.shape
    c_out = weight.shape[0]
    if weight.shape != (c_out, c_in, 2) or bias.shape != (c_out,):
        raise DimensionError(f"conv1d_k2s2 weight/bias mismatch: {x.shape}, {weight.shape}, {bias.shape}")
    if p < 2 or p % 2 != 0:
        raise DimensionError(f"conv1d_k2s2 needs an even token count >= 2, got {p}")
    pairs = _pair_rows(x.data)
    w2 = weight.data.reshape(c_out, 2 * c_in)
    out = pairs @ w2.T
    out += bias.data

    def vjp(g):
        dx = (g @ w2).reshape(p // 2, c_in, 2).transpose(0, 2, 1).reshape(p, c_in)
        return dx, (g.T @ pairs).reshape(weight.shape), g.sum(axis=0)

    return record_op("conv1d_k2s2", out, (x, weight, bias), vjp)


def conv_transpose1d_k2s2(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Adjoint (up to bias) of ``conv1d_k2s2``: ``x[P, C_in]`` to ``(2P, C_out)``.

    ``out[2t + r, j] = bias[j] + sum_k weight[k, j, r] * x[t, k]``: one
    matmul whose ``(P, 2*C_out)`` rows unfold into token pairs.
    """
    if x.ndim != 2 or weight.ndim != 3 or bias.ndim != 1:
        raise DimensionError(
            f"conv_transpose1d_k2s2 expects x[P,C_in], weight[C_in,C_out,2], bias[C_out]; "
            f"got {x.shape}, {weight.shape}, {bias.shape}"
        )
    p, c_in = x.shape
    c_out = weight.shape[1]
    if weight.shape != (c_in, c_out, 2) or bias.shape != (c_out,):
        raise DimensionError(f"conv_transpose1d_k2s2 weight/bias mismatch: {x.shape}, {weight.shape}, {bias.shape}")
    # row t of x @ w2 is [out[2t, j], out[2t + 1, j] for j]
    w2 = weight.data.reshape(c_in, 2 * c_out)
    x_data = x.data
    out = (x_data @ w2).reshape(p, c_out, 2).transpose(0, 2, 1).reshape(2 * p, c_out)
    out += bias.data

    def vjp(g):
        pairs = _pair_rows(g)
        return pairs @ w2.T, (x_data.T @ pairs).reshape(weight.shape), g.sum(axis=0)

    return record_op("conv_transpose1d_k2s2", out, (x, weight, bias), vjp)


def _pair_rows(x: np.ndarray) -> np.ndarray:
    """``x[P, C]`` as ``(P/2, 2C)`` rows ``[x[2t, k], x[2t + 1, k] for k]``, the
    layout of ``weight.reshape(C_out, 2*C_in)``, by one copy per parity."""
    p, c = x.shape
    out = np.empty((p // 2, c, 2), x.dtype)
    out[:, :, 0] = x[0::2]
    out[:, :, 1] = x[1::2]
    return out.reshape(p // 2, 2 * c)


def pointwise_conv(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Per-token channel projection of ``x[P, C_in]``: ``out[t] = weight @ x[t] + bias``."""
    if x.ndim != 2 or weight.ndim != 2 or bias.ndim != 1:
        raise DimensionError(
            f"pointwise_conv expects x[P,C_in], weight[C_out,C_in], bias[C_out]; "
            f"got {x.shape}, {weight.shape}, {bias.shape}"
        )
    if weight.shape[1] != x.shape[1] or bias.shape[0] != weight.shape[0]:
        raise DimensionError(f"pointwise_conv shape mismatch: {x.shape}, {weight.shape}, {bias.shape}")
    return linear(x, transpose(weight, (1, 0)), bias)


def adaptive_avg_pool1d(x: np.ndarray, out_len: int) -> np.ndarray:
    """Mean over bins [floor(t*L/out), ceil((t+1)*L/out)) per output position t.

    Bins may overlap by one element when lengths are incommensurate. Each
    bin's sum is a difference of float64 prefix sums, so it costs O(L + out)
    whatever the ratio of the lengths. Data preparation, not a tape op:
    takes and returns an ndarray ``[C, L]``, ``x`` itself when the lengths agree.
    """
    if x.ndim != 2:
        raise DimensionError(f"adaptive_avg_pool1d expects x[C,L], got {x.shape}")
    if out_len < 1 or x.shape[1] < 1:
        raise DimensionError(f"adaptive_avg_pool1d needs positive lengths, got L={x.shape[1]}, out={out_len}")
    if out_len == x.shape[1]:
        return x
    n_rows, l_in = x.shape
    t = np.arange(out_len, dtype=np.int64)
    starts = (t * l_in) // out_len
    ends = -((-(t + 1) * l_in) // out_len)  # ceil
    inv_counts = 1.0 / (ends - starts)
    prefix = np.zeros((n_rows, l_in + 1))
    np.cumsum(x, axis=1, dtype=np.float64, out=prefix[:, 1:])
    return ((prefix[:, ends] - prefix[:, starts]) * inv_counts).astype(x.dtype)


# ---------------------------------------------------------------------------
# normalization and activations


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max subtraction."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return record_op("softmax_lastdim", s, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each last-axis slice to mean 0 / population variance 1, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(f"layer_norm gain/bias must be ({d},), got {gain.shape}, {bias.shape}")
    # x is centered once; the mean and variance are formed as np.mean and
    # np.var form them (a pairwise sum divided by d), so the bits match theirs
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data
    gain_data = gain.data
    reduce_axes = tuple(range(x.ndim - 1))

    def vjp(g):
        dgain = (g * xhat).sum(axis=reduce_axes)
        dbias = g.sum(axis=reduce_axes)
        dxhat = g * gain_data
        dx = (dxhat - np.add.reduce(dxhat, axis=-1, keepdims=True) / d
              - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d)) * inv
        return dx, dgain, dbias

    return record_op("layer_norm", out, (x, gain, bias), vjp)


_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation."""
    x_data = x.data
    # x * x * x, not x**3: numpy's float32 power is about 100x slower. In place,
    # in the order of C * (x + A * (x * x * x)) and (0.5 * x) * (1 + t): the
    # products commute exactly, and one buffer holds u, then t. t and out are
    # fresh C-ordered arrays, so their flat views alias them
    xf = x_data.reshape(-1)
    t = np.empty(x_data.shape, x_data.dtype)
    out = np.empty_like(t)
    tf, of = t.reshape(-1), out.reshape(-1)
    for i in range(0, xf.size, GELU_BLOCK):
        xb, tb, ob = xf[i:i + GELU_BLOCK], tf[i:i + GELU_BLOCK], of[i:i + GELU_BLOCK]
        np.multiply(xb, xb, out=tb)
        tb *= xb
        tb *= _GELU_A
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        np.add(tb, 1.0, out=ob)
        ob *= 0.5 * xb

    def vjp(g):
        # g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * du) with
        # du = C * (1 + 3A * x * x): the same operations on the same operands
        # (products and sums commute exactly), in three buffers
        du = np.square(x_data)
        du *= 3.0 * _GELU_A
        du += 1.0
        du *= _GELU_C
        w = np.square(t)
        np.subtract(1.0, w, out=w)
        r = np.multiply(x_data, 0.5)
        r *= w
        r *= du
        np.add(t, 1.0, out=w)
        w *= 0.5
        r += w
        return (np.multiply(g, r, out=r if g.dtype == r.dtype else None),)

    return record_op("gelu", out, (x,), vjp)


# ---------------------------------------------------------------------------
# shape manipulation and reductions


def reshape(x: Tensor, shape) -> Tensor:
    in_shape = x.shape
    out = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(in_shape),)

    return record_op("reshape", out, (x,), vjp)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = x.data.transpose(axes)

    def vjp(g):
        return (g.transpose(inverse),)

    return record_op("transpose", out, (x,), vjp)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` elements from ``start`` along ``axis``."""
    if start < 0 or length < 1 or start + length > x.shape[axis]:
        raise DimensionError(f"narrow [{start}:{start + length}] out of range for axis {axis} of {x.shape}")
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = x.data[index]
    in_shape = x.shape

    def vjp(g):
        dx = np.zeros(in_shape, dtype=g.dtype)
        dx[index] = g
        return (dx,)

    return record_op("narrow", out, (x,), vjp)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise UsageError("concat of an empty sequence")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes[:-1])

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return record_op("concat", out, tuple(tensors), vjp)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.dtype)
    in_shape = x.shape

    def vjp(g):
        return (np.broadcast_to(g, in_shape).copy(),)

    return record_op("sum_all", out, (x,), vjp)


def mean_all(x: Tensor) -> Tensor:
    n = x.size
    out = np.asarray(x.data.mean(), dtype=x.dtype)
    in_shape = x.shape

    def vjp(g):
        return (np.broadcast_to(g / n, in_shape).copy(),)

    return record_op("mean_all", out, (x,), vjp)


# ---------------------------------------------------------------------------
# gradient verification


def finite_diff_check(
    fn: Callable[[dict], Tensor],
    inputs: dict[str, Tensor],
    max_entries: int | None = None,
    seed: int = 0,
) -> dict[str, float]:
    """Compare tape gradients of ``fn(inputs)`` against central differences
    and return each input's max relative error, keyed by its name.

    ``fn`` must be a pure function of the given tensors returning a scalar.
    The relative error per parameter is ``max|g_tape - g_fd|`` normalized by
    the larger of the two gradients' max magnitudes; parameters whose
    gradient is zero on both sides report 0. The step at a coordinate of
    value v is ``h * max(1, |v|)``, with h 1e-5 at float64 and 1e-2 at
    float32. ``max_entries`` caps how many
    coordinates per parameter are probed (seeded choice without replacement).
    """
    for name, t in inputs.items():
        if not all_finite(t.data):
            raise NumericError(f"finite_diff_check input '{name}' is not finite")
        t.zero_grad()
    with GradTape() as tape:
        loss = fn(inputs)
    if loss.size != 1:
        raise UsageError(f"finite_diff_check needs a scalar-valued fn, got shape {loss.shape}")
    tape.backward(loss)
    # an input the loss does not reach holds no gradient: its central difference is 0
    analytic = {name: np.zeros_like(t.data) if t.grad is None else t.grad.copy() for name, t in inputs.items()}

    rng = np.random.default_rng(seed)
    errors: dict[str, float] = {}
    for name, t in inputs.items():
        t.data = np.ascontiguousarray(t.data)  # the flat view below must alias t.data
        flat = t.data.reshape(-1)
        n = flat.size
        if max_entries is not None and max_entries < n:
            coords = rng.choice(n, size=max_entries, replace=False)
        else:
            coords = np.arange(n)
        h_base = 1e-5 if t.dtype == np.float64 else 1e-2
        a_flat = analytic[name].reshape(-1)
        num = np.zeros(len(coords), dtype=np.float64)
        for j, i in enumerate(coords):
            v = flat[i]
            h = h_base * max(1.0, abs(float(v)))
            try:
                flat[i] = v + h
                f_plus = fn(inputs).item()
                flat[i] = v - h
                f_minus = fn(inputs).item()
            finally:  # an fn that raises leaves no input perturbed
                flat[i] = v
            num[j] = (f_plus - f_minus) / (2.0 * h)
        ana = a_flat[coords].astype(np.float64)
        scale = max(np.abs(ana).max(initial=0.0), np.abs(num).max(initial=0.0))
        if scale < 1e-10:
            errors[name] = 0.0
        else:
            errors[name] = float(np.abs(ana - num).max() / scale)
    return errors
