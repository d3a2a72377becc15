"""Tensor op semantics, tape behavior, and gradient verification."""

import inspect
import re
import threading
import warnings

import numpy as np
import pytest

from utsf import tensor as T
from utsf.cli import run_gradient_suite
from utsf.errors import DimensionError, NumericError, UsageError
from utsf.tensor import GradTape, Tensor, finite_diff_check, record_op

F32, F64 = np.float32, np.float64


def t64(rng, *shape, grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=grad, dtype=F64)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(Tensor(np.eye(2, dtype=F32)), m)
    assert np.array_equal(out.data, m.data)


def test_matmul_hand_value():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
    assert np.array_equal(out.data, np.array([[17.0], [39.0]], dtype=F32))


def test_matmul_against_triple_loop():
    # naive O(mkn) oracle, independent of numpy's @
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        got = T.matmul(Tensor(a, dtype=F64), Tensor(b, dtype=F64)).data
        assert np.allclose(got, want, atol=1e-12)


def test_matmul_grad_of_sum_is_column_sums():
    rng = np.random.default_rng(0)
    a = t64(rng, 3, 4)
    b = t64(rng, 4, 2, grad=False)
    with GradTape() as tape:
        loss = T.sum_all(T.matmul(a, b))
    tape.backward(loss)
    # d sum(A@B) / dA[i,k] = sum_j B[k,j], independent of the row i
    want = np.broadcast_to(b.data.sum(axis=1), (3, 4))
    assert np.allclose(a.grad, want, atol=1e-12)


def test_matmul_shape_errors():
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 3, 2))))
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_linear_is_matmul_plus_bias_bit_for_bit():
    rng = np.random.default_rng(4)
    x, w, b = (t64(rng, *shape) for shape in ((6, 5), (5, 3), (3,)))
    fused = T.linear(x, w, b)
    assert fused.data.tobytes() == T.add(T.matmul(x, w), b).data.tobytes()
    with pytest.raises(DimensionError):
        T.linear(x, w, Tensor(np.zeros(4)))
    with pytest.raises(DimensionError):
        T.linear(x, Tensor(np.zeros((4, 3))), b)


# ---------------------------------------------------------------------------
# attention


def _attention_reference(q, k, v, heads):
    """Per-head softmax(q k^T / sqrt(dh)) v for one window, in float64 loops."""
    n, d = q.shape
    dh = d // heads
    out, probs = np.zeros((n, d)), np.zeros((heads, n, n))
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(dh)
        p = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs[h] = p / p.sum(axis=1, keepdims=True)
        out[:, cols] = probs[h] @ v[:, cols]
    return out, probs


def test_attention_matches_reference_and_keeps_windows_apart():
    rng = np.random.default_rng(8)
    windows, n, d, heads = 3, 5, 6, 3
    q, k, v = (rng.standard_normal((windows * n, d)) for _ in range(3))
    out, probs = T.attention(Tensor(q, dtype=F64), Tensor(k, dtype=F64), Tensor(v, dtype=F64), heads, windows)
    assert out.shape == (windows * n, d) and probs.shape == (windows, heads, n, n)
    for w in range(windows):
        rows = slice(w * n, (w + 1) * n)
        want, want_probs = _attention_reference(q[rows], k[rows], v[rows], heads)
        assert np.allclose(out.data[rows], want, atol=1e-12)
        assert np.allclose(probs[w], want_probs, atol=1e-12)
        # one window alone gives the same rows: no attention crosses windows
        alone, _ = T.attention(Tensor(q[rows], dtype=F64), Tensor(k[rows], dtype=F64),
                               Tensor(v[rows], dtype=F64), heads, 1)
        assert np.allclose(alone.data, out.data[rows], atol=1e-12)
    for bad in ((heads, 2), (4, windows), (0, windows)):  # 15 rows in 2 windows; 6 features in 4 heads
        with pytest.raises(DimensionError):
            T.attention(Tensor(q), Tensor(k), Tensor(v), *bad)
    with pytest.raises(DimensionError):
        T.attention(Tensor(q), Tensor(k[:5]), Tensor(v), heads, 1)


def test_attention_is_the_unfused_op_chain_bit_for_bit():
    # the fused op replays the float operations of the per-op chain it
    # replaced, in order, so training artifacts did not move with it
    rng = np.random.default_rng(9)
    n, d, heads = 6, 8, 2
    dh = d // heads
    qkv = [Tensor(rng.standard_normal((n, d)).astype(F32), requires_grad=True) for _ in range(3)]
    g = Tensor(rng.standard_normal((n, d)).astype(F32))

    def unfused(q, k, v):
        qh = T.transpose(T.reshape(q, (n, heads, dh)), (1, 0, 2))
        kt = T.transpose(T.reshape(k, (n, heads, dh)), (1, 2, 0))
        vh = T.transpose(T.reshape(v, (n, heads, dh)), (1, 0, 2))
        scale = Tensor(np.asarray(1.0 / np.sqrt(dh), dtype=F32))
        weights = T.softmax_lastdim(T.mul(T.matmul(qh, kt), scale))
        return T.reshape(T.transpose(T.matmul(weights, vh), (1, 0, 2)), (n, d)), weights.data

    results = []
    for fn in (unfused, lambda q, k, v: T.attention(q, k, v, heads, 1)):
        for t in qkv:
            t.zero_grad()
        with GradTape() as tape:
            out, probs = fn(*qkv)
            loss = T.sum_all(T.mul(out, g))
        tape.backward(loss)
        results.append([out.data, probs.reshape(heads, n, n)] + [t.grad for t in qkv])
    for want, got in zip(*results):
        assert want.tobytes() == got.tobytes()



def _grads_through_tape(op, inputs, g):
    """``op(*inputs)`` and the gradient of ``sum(op(...)[0] * g)`` for every input."""
    for t in inputs:
        t.zero_grad()
    with GradTape() as tape:
        out = op(*inputs)
        loss = T.sum_all(T.mul(out[0] if isinstance(out, tuple) else out, Tensor(g)))
    tape.backward(loss)
    return out, [t.grad for t in inputs]


def _layer_norm_numpy_formulas(x, gain, bias, g, eps=1e-5):
    """The np.mean / np.var forward and its VJP: what layer_norm must equal bit for bit."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    axes = tuple(range(x.ndim - 1))
    dxhat = g * gain
    dx = (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv
    return xhat * gain + bias, [dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)]


def _attention_out_of_place(q, k, v, heads, windows, g):
    """Scaled scores, shifted exponent and normalized probabilities as fresh
    arrays, and the VJP: what the in-place attention must equal bit for bit."""
    rows, d = q.shape
    n, dh = rows // windows, d // heads
    qh = q.reshape(windows, n, heads, dh).transpose(0, 2, 1, 3)
    kt = k.reshape(windows, n, heads, dh).transpose(0, 2, 3, 1)
    vh = v.reshape(windows, n, heads, dh).transpose(0, 2, 1, 3)
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=q.dtype)
    scores = (qh @ kt) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    out = (probs @ vh).transpose(0, 2, 1, 3).reshape(rows, d)
    gc = g.reshape(windows, n, heads, dh).transpose(0, 2, 1, 3)
    gp = gc @ vh.swapaxes(-1, -2)
    gs = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True)) * scale
    grads = [(gs @ kt.swapaxes(-1, -2)).transpose(0, 2, 1, 3).reshape(rows, d),
             (qh.swapaxes(-1, -2) @ gs).transpose(0, 3, 1, 2).reshape(rows, d),
             (probs.swapaxes(-1, -2) @ gc).transpose(0, 2, 1, 3).reshape(rows, d)]
    return out, probs, grads


def _gelu_out_of_place(x, g):
    """The tanh-approximation GELU and its VJP as fresh arrays: what the
    in-place forward and the three-buffer VJP must equal bit for bit."""
    t = np.tanh(T._GELU_C * (x + T._GELU_A * (x * x * x)))
    du = T._GELU_C * (1.0 + 3.0 * T._GELU_A * x**2)
    return (0.5 * x) * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du)


@pytest.mark.parametrize("dtype", [F32, F64])
def test_in_place_forwards_match_out_of_place_formulas_bit_for_bit(dtype):
    # layer_norm centers once, linear adds its bias in place, attention
    # normalizes its scores in place and gelu's VJP reuses three buffers;
    # none of that may move a bit of the outputs or the gradients, over
    # shapes and scales far from the model's
    rng = np.random.default_rng(17)

    def draw(*shape, scale=1.0, shift=0.0):
        return (scale * (rng.standard_normal(shape) + shift)).astype(dtype)

    for _ in range(12):
        scale, shift = 10.0 ** rng.uniform(-3, 3), rng.uniform(-4, 4)
        rows, d = int(rng.integers(1, 200)), int(rng.integers(1, 100))
        lead = (int(rng.integers(1, 4)),) if rng.random() < 0.3 else ()
        x, gain, bias, g = draw(*lead, rows, d, scale=scale, shift=shift), draw(d), draw(d), draw(*lead, rows, d)
        want_out, want_grads = _layer_norm_numpy_formulas(x, gain, bias, g)
        inputs = [Tensor(a, requires_grad=True, dtype=dtype) for a in (x, gain, bias)]
        out, grads = _grads_through_tape(T.layer_norm, inputs, g)
        assert out.data.tobytes() == want_out.tobytes()
        for got, want in zip(grads, want_grads):
            assert got.tobytes() == want.tobytes()

        d_out = int(rng.integers(1, 100))
        x, w, b, g = draw(rows, d, scale=scale), draw(d, d_out), draw(d_out, scale=scale), draw(rows, d_out)
        inputs = [Tensor(a, requires_grad=True, dtype=dtype) for a in (x, w, b)]
        out, grads = _grads_through_tape(T.linear, inputs, g)
        assert out.data.tobytes() == (x @ w + b).tobytes()
        for got, want in zip(grads, (g @ w.T, x.T @ g, g.sum(axis=0))):
            assert got.tobytes() == want.tobytes()

        windows, n, heads, dh = (int(rng.integers(1, m)) for m in (5, 40, 5, 17))
        rows, d = windows * n, heads * dh
        q, k, v, g = (draw(rows, d, scale=scale ** 0.5) for _ in range(4))
        want_out, want_probs, want_grads = _attention_out_of_place(q, k, v, heads, windows, g)
        inputs = [Tensor(a, requires_grad=True, dtype=dtype) for a in (q, k, v)]
        (out, probs), grads = _grads_through_tape(lambda *t: T.attention(*t, heads, windows), inputs, g)
        assert out.data.tobytes() == want_out.tobytes() and probs.tobytes() == want_probs.tobytes()
        for got, want in zip(grads, want_grads):
            assert got.tobytes() == want.tobytes()

        x, g = draw(rows, d, scale=scale, shift=shift), draw(rows, d)
        want_out, want_grad = _gelu_out_of_place(x, g)
        out, (grad,) = _grads_through_tape(T.gelu, [Tensor(x, requires_grad=True, dtype=dtype)], g)
        assert out.data.tobytes() == want_out.tobytes() and grad.tobytes() == want_grad.tobytes()


def _pairs_by_transpose(x):
    """Adjacent rows of ``x[P, C]`` interleaved per channel by one transpose copy."""
    p, c = x.shape
    return x.reshape(p // 2, 2, c).transpose(0, 2, 1).reshape(p // 2, 2 * c)


@pytest.mark.parametrize("dtype", [F32, F64])
def test_blocked_gelu_attention_row_max_and_parity_pairing_match_bit_for_bit(dtype):
    # gelu runs block by block, attention takes its row max from a key-major
    # copy and the merge pairs rows by parity copies; at sizes that span
    # several GELU blocks, an F-ordered input, 128-token windows and the
    # merge/split shapes of the model, no bit may move
    rng = np.random.default_rng(23)

    def draw(*shape, scale=1.0):
        return (scale * rng.standard_normal(shape)).astype(dtype)

    for x in (draw(3 * T.GELU_BLOCK + 1234, scale=3.0), draw(700, 211, scale=3.0).T, draw(1, scale=3.0)):
        g = draw(*x.shape)
        want_out, want_grad = _gelu_out_of_place(x, g)
        out, (grad,) = _grads_through_tape(T.gelu, [Tensor(x, requires_grad=True, dtype=dtype)], g)
        assert out.data.tobytes() == want_out.tobytes() and grad.tobytes() == want_grad.tobytes()

    for windows, n, heads, dh in ((3, 128, 4, 8), (32, 48, 4, 16), (2, 127, 1, 3)):
        rows, d = windows * n, heads * dh
        q, k, v, g = (draw(rows, d, scale=2.0) for _ in range(4))
        want_out, want_probs, want_grads = _attention_out_of_place(q, k, v, heads, windows, g)
        inputs = [Tensor(a, requires_grad=True, dtype=dtype) for a in (q, k, v)]
        (out, probs), grads = _grads_through_tape(lambda *t: T.attention(*t, heads, windows), inputs, g)
        assert out.data.tobytes() == want_out.tobytes() and probs.tobytes() == want_probs.tobytes()
        for got, want in zip(grads, want_grads):
            assert got.tobytes() == want.tobytes()

    for p, c_in, c_out in ((1536, 64, 128), (48, 64, 128), (2, 1, 3), (10, 7, 5)):
        x, w, b, g = draw(p, c_in), draw(c_out, c_in, 2), draw(c_out), draw(p // 2, c_out)
        w2, pairs = w.reshape(c_out, 2 * c_in), _pairs_by_transpose(x)
        out, grads = _grads_through_tape(T.conv1d_k2s2, [Tensor(a, requires_grad=True, dtype=dtype)
                                                         for a in (x, w, b)], g)
        assert out.data.tobytes() == (pairs @ w2.T + b).tobytes()
        assert grads[1].tobytes() == (g.T @ pairs).reshape(w.shape).tobytes()

        x, b, g = draw(p // 2, c_out), draw(c_in), draw(p, c_in)
        w2, pairs = w.reshape(c_out, 2 * c_in), _pairs_by_transpose(g)
        out, grads = _grads_through_tape(T.conv_transpose1d_k2s2, [Tensor(a, requires_grad=True, dtype=dtype)
                                                                   for a in (x, w, b)], g)
        unpaired = (x @ w2).reshape(p // 2, c_in, 2).transpose(0, 2, 1).reshape(p, c_in)
        assert out.data.tobytes() == (unpaired + b).tobytes()
        for got, want in zip(grads, (pairs @ w2.T, (x.T @ pairs).reshape(w.shape), g.sum(axis=0))):
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# convolutions


def test_conv_zero_weights_zero_output():
    x = Tensor(np.random.default_rng(0).standard_normal((6, 2)))
    out = T.conv1d_k2s2(x, Tensor(np.zeros((3, 2, 2))), Tensor(np.zeros(3)))
    assert out.shape == (3, 3)
    assert np.all(out.data == 0.0)


def test_conv_pairwise_sums():
    # C_in=1, kernel [1,1]: output is the sum of adjacent input pairs
    x = Tensor([[1.0], [2.0], [3.0], [4.0]])
    out = T.conv1d_k2s2(x, Tensor(np.ones((1, 1, 2))), Tensor(np.zeros(1)))
    assert np.array_equal(out.data, np.array([[3.0], [7.0]], dtype=F32))


def test_conv_shape_contract():
    x = Tensor(np.ones((48, 4)))
    out = T.conv1d_k2s2(x, Tensor(np.zeros((8, 4, 2))), Tensor(np.zeros(8)))
    assert out.shape == (24, 8)


def test_conv_odd_length_rejected():
    with pytest.raises(DimensionError, match="even token count"):
        T.conv1d_k2s2(Tensor(np.ones((5, 1))), Tensor(np.ones((1, 1, 2))), Tensor(np.zeros(1)))


def test_conv_matches_direct_computation():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 2))
    w = rng.standard_normal((3, 2, 2))
    b = rng.standard_normal(3)
    got = T.conv1d_k2s2(Tensor(x, dtype=F64), Tensor(w, dtype=F64), Tensor(b, dtype=F64)).data
    for t in range(4):
        for j in range(3):
            want = b[j] + sum(w[j, k, r] * x[2 * t + r, k] for k in range(2) for r in range(2))
            assert abs(got[t, j] - want) < 1e-12


def test_conv_transpose_shapes_and_zero_weight():
    x = Tensor(np.ones((24, 8)))
    out = T.conv_transpose1d_k2s2(x, Tensor(np.zeros((8, 4, 2))), Tensor(np.arange(4.0)))
    assert out.shape == (48, 4)
    # zero weight leaves only the bias, broadcast along tokens
    assert np.array_equal(out.data, np.broadcast_to(np.arange(4.0, dtype=F32), (48, 4)))


def test_conv_adjoint_identity():
    # <conv(x), y> == <x, conv_transpose(y)> with zero biases, same weight array
    rng = np.random.default_rng(11)
    for _ in range(20):
        c_in, c_out, p = int(rng.integers(1, 4)), int(rng.integers(1, 4)), 2 * int(rng.integers(1, 5))
        x = rng.standard_normal((p, c_in))
        y = rng.standard_normal((p // 2, c_out))
        w = rng.standard_normal((c_out, c_in, 2))
        zb_out = Tensor(np.zeros(c_out, dtype=F64))
        zb_in = Tensor(np.zeros(c_in, dtype=F64))
        lhs = float(np.sum(T.conv1d_k2s2(Tensor(x, dtype=F64), Tensor(w, dtype=F64), zb_out).data * y))
        rhs = float(np.sum(x * T.conv_transpose1d_k2s2(Tensor(y, dtype=F64), Tensor(w, dtype=F64), zb_in).data))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# pointwise conv and pooling


def test_pointwise_identity_and_zero():
    x = Tensor(np.random.default_rng(0).standard_normal((5, 3)))
    same = T.pointwise_conv(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
    assert np.allclose(same.data, x.data, atol=1e-7)
    bias = np.array([1.0, 2.0], dtype=F32)
    out = T.pointwise_conv(x, Tensor(np.zeros((2, 3))), Tensor(bias))
    assert np.array_equal(out.data, np.broadcast_to(bias, (5, 2)))


def test_pointwise_matches_per_column_matmul():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((7, 3))
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal(4)
    got = T.pointwise_conv(Tensor(x, dtype=F64), Tensor(w, dtype=F64), Tensor(b, dtype=F64)).data
    for p in range(7):
        assert np.allclose(got[p], w @ x[p] + b, atol=1e-12)


def test_pool_identity_and_equal_bins():
    x = np.array([[1.0, 2.0, 3.0, 4.0]], dtype=F32)
    assert T.adaptive_avg_pool1d(x, 4) is x
    out = T.adaptive_avg_pool1d(x, 2)
    assert np.array_equal(out, np.array([[1.5, 3.5]], dtype=F32))


def test_pool_constant_and_overlapping_bins():
    const = T.adaptive_avg_pool1d(np.full((2, 7), 3.25, dtype=F32), 3)
    assert const.dtype == F32 and np.allclose(const, 3.25, atol=1e-7)
    # 5 -> 3: bins [0,2), [1,4), [3,5) per the floor/ceil rule; middle bin overlaps both
    a = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
    out = T.adaptive_avg_pool1d(a, 3)
    want = [1.5, 3.0, 4.5]
    assert np.allclose(out[0], want, atol=1e-12)


def _dense_pool_matrix(l_in, out_len):
    """Reference: row t averages bin [floor(t*L/out), ceil((t+1)*L/out))."""
    m = np.zeros((out_len, l_in))
    for t in range(out_len):
        start = (t * l_in) // out_len
        end = -((-(t + 1) * l_in) // out_len)
        m[t, start:end] = 1.0 / (end - start)
    return m


@pytest.mark.parametrize("l_in,out_len", [(7, 3), (5, 3), (10, 4), (100, 9), (4096, 64),  # down
                                          (3, 7), (5, 8), (2, 9), (3524, 4096),           # up
                                          (1, 4), (6, 1)])
@pytest.mark.parametrize("dtype", [F32, F64])
def test_pool_matches_dense_averaging_matrix(l_in, out_len, dtype):
    rng = np.random.default_rng(l_in * 31 + out_len)
    x = rng.standard_normal((2, l_in)).astype(dtype)
    out = T.adaptive_avg_pool1d(x, out_len)
    assert out.dtype == dtype
    assert np.abs(out - x.astype(F64) @ _dense_pool_matrix(l_in, out_len).T).max() < 1e-6


# ---------------------------------------------------------------------------
# softmax / layer norm / gelu


def test_softmax_uniform_and_shift_invariance():
    out = T.softmax_lastdim(Tensor(np.zeros((2, 5))))
    assert np.allclose(out.data, 0.2, atol=1e-7)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 4))
    a = T.softmax_lastdim(Tensor(x, dtype=F64)).data
    b = T.softmax_lastdim(Tensor(x + 7.5, dtype=F64)).data
    assert np.allclose(a, b, atol=1e-12)


def test_softmax_closed_form_row():
    out = T.softmax_lastdim(Tensor([0.0, float(np.log(3.0))], dtype=F64))
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_rows_stochastic():
    rng = np.random.default_rng(2)
    out = T.softmax_lastdim(Tensor(5.0 * rng.standard_normal((6, 9)))).data
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-5)


def test_layer_norm_moments_and_constant_slice():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 16))
    g = Tensor(np.ones(16, dtype=F64))
    b = Tensor(np.zeros(16, dtype=F64))
    out = T.layer_norm(Tensor(x, dtype=F64), g, b).data
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-6)
    assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-4)
    flat = T.layer_norm(Tensor(np.full((2, 8), 5.0, dtype=F64)), Tensor(np.ones(8, dtype=F64)),
                        Tensor(np.zeros(8, dtype=F64))).data
    assert np.all(flat == 0.0)


def test_layer_norm_hand_values():
    out = T.layer_norm(Tensor([[1.0, 2.0, 3.0]], dtype=F64), Tensor(np.ones(3, dtype=F64)),
                       Tensor(np.zeros(3, dtype=F64))).data
    # population sigma = sqrt(2/3)
    assert np.allclose(out, [[-1.2247, 0.0, 1.2247]], atol=1e-3)


def test_gelu_matches_float64_tanh_reference():
    rng = np.random.default_rng(11)
    x32 = np.concatenate([np.linspace(-8.0, 8.0, 4001), 3.0 * rng.standard_normal(4000)]).astype(F32)
    x = x32.astype(F64)
    c = np.sqrt(2.0 / np.pi)
    th = np.tanh(c * (x + 0.044715 * x**3))
    want = 0.5 * x * (1.0 + th)
    dwant = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * c * (1.0 + 3 * 0.044715 * x**2)
    xt = Tensor(x32, requires_grad=True)
    with GradTape() as tape:
        out = T.gelu(xt)
        loss = T.sum_all(out)
    tape.backward(loss)
    assert out.dtype == F32
    # a few float32 roundings on values of order |x|
    tol = 4e-7 * np.maximum(1.0, np.abs(x))
    assert np.all(np.abs(out.data - want) <= tol)
    assert np.all(np.abs(xt.grad - dwant) <= tol)


def test_gelu_reference_points():
    # tanh-approximation fixed points: gelu(0)=0, near-linear for large positive x
    x = Tensor(np.array([0.0, 5.0, -5.0], dtype=F64))
    out = T.gelu(x).data
    assert out[0] == 0.0
    assert abs(out[1] - 5.0) < 1e-4
    assert abs(out[2]) < 1e-4


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_sum_of_squares():
    x = Tensor(np.array([1.0, -2.0, 3.0], dtype=F64), requires_grad=True)
    with GradTape() as tape:
        loss = T.sum_all(T.mul(x, x))
    tape.backward(loss)
    assert np.allclose(x.grad, 2.0 * x.data, atol=1e-12)


def test_backward_leaves_an_unreached_leaf_grad_as_it_was():
    x = Tensor(np.ones(3, dtype=F64), requires_grad=True)
    off_path = Tensor(np.ones(4, dtype=F64), requires_grad=True)
    held = Tensor(np.ones(2, dtype=F64), requires_grad=True)
    held.grad = np.full(2, 5.0)
    with GradTape() as tape:
        T.sum_all(off_path)  # recorded, but not part of the loss
        T.sum_all(held)
        loss = T.sum_all(x)
    tape.backward(loss)
    assert off_path.grad is None  # no gradient, not a gradient of zeros
    assert np.array_equal(held.grad, [5.0, 5.0])
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_accumulates_over_fanout():
    x = Tensor(np.array([2.0], dtype=F64), requires_grad=True)
    with GradTape() as tape:
        loss = T.sum_all(T.add(T.mul(x, x), T.mul(x, x)))  # 2x^2
    tape.backward(loss)
    assert np.allclose(x.grad, [8.0], atol=1e-12)


def test_backward_consumes_its_tape():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True, dtype=F64)
    with GradTape() as tape:
        loss = T.mean_all(T.mul(x, x))
    assert len(tape) == 2
    tape.backward(loss)
    assert len(tape) == 0
    assert np.allclose(x.grad, x.data / 3.0, rtol=0, atol=1e-15)
    first = x.grad.copy()
    # a second sweep would add every leaf gradient again
    with pytest.raises(UsageError, match="consumed"):
        tape.backward(loss)
    assert np.array_equal(x.grad, first)


def test_tapes_do_not_nest_and_threads_record_apart():
    # x^4 at x = 3: a nested tape would take the ops recorded while it is open
    # away from the outer one, which would then give x no gradient, not 108
    x = Tensor(np.array([3.0]), requires_grad=True, dtype=F64)
    z = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=F64)

    def on_another_thread():
        with GradTape() as tape:
            loss = T.sum_all(T.mul(z, z))
        tape.backward(loss)

    with GradTape() as outer:
        with pytest.raises(UsageError, match="already recording on this thread"):
            with GradTape():
                pass
        y = T.mul(x, x)
        worker = threading.Thread(target=on_another_thread)
        worker.start()
        worker.join(timeout=30)
        loss = T.sum_all(T.mul(y, y))
    assert not worker.is_alive()
    assert np.array_equal(z.grad, [2.0, 4.0])
    assert len(outer) == 3
    outer.backward(loss)
    assert np.array_equal(x.grad, [108.0])


def test_backward_refuses_a_loss_its_tape_did_not_record():
    # each mistake would otherwise leave every leaf silently without a gradient
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True, dtype=F64)
    untaped = T.sum_all(T.mul(x, x))
    with GradTape():
        recorded_elsewhere = T.sum_all(T.mul(x, x))
    with GradTape() as tape:
        loss = T.sum_all(x)
    for wrong in (untaped, recorded_elsewhere):
        with pytest.raises(UsageError, match="^backward got a loss this tape did not record"):
            tape.backward(wrong)
    assert x.grad is None
    tape.backward(loss)  # a refused loss leaves the tape unconsumed
    assert np.array_equal(x.grad, [1.0, 1.0])
    # a constant loss is not an error: it reaches no leaf, so none gets a gradient
    x.zero_grad()
    with GradTape() as tape:
        T.mul(x, x)
        constant = T.sum_all(Tensor(np.ones(2), dtype=F64))
    tape.backward(constant)
    assert x.grad is None


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with GradTape() as tape:
        y = T.mul(x, x)
    with pytest.raises(UsageError):
        tape.backward(y)


def test_backward_names_an_op_whose_vjp_returns_the_wrong_cotangent_count():
    # a VJP passed to record_op that drops a cotangent would otherwise leave
    # the inputs past the end of its tuple silently without a gradient
    x = Tensor(np.ones(3), requires_grad=True, dtype=F64)
    y = Tensor(np.ones(3), requires_grad=True, dtype=F64)
    for vjp, count in ((lambda g: (g,), 1), (lambda g: (g, g, g), 3)):
        with GradTape() as tape:
            loss = T.sum_all(record_op("my_add", x.data + y.data, (x, y), vjp))
        with pytest.raises(UsageError, match=f"^VJP of op 'my_add' returned {count} cotangents for 2 inputs$"):
            tape.backward(loss)


def test_non_finite_forward_names_the_op():
    big = Tensor(np.full(3, 1e30, dtype=F32), requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="mul"):
        T.mul(big, big)  # overflows float32 to inf


def test_forward_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((4, 6)), dtype=F32)
        w = Tensor(rng.standard_normal((6, 6)), dtype=F32)
        out = T.softmax_lastdim(T.matmul(T.gelu(x), w))
        return out.data.tobytes()

    assert run() == run()


# ---------------------------------------------------------------------------
# finite differences

# independent case table (deliberately not shared with the CLI suite)
def _fd_cases(rng, dtype):
    def t(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype)

    def sq(x):
        return T.mean_all(T.mul(x, x))

    w = t(3, 2, 2)
    return {
        "matmul": (lambda i: sq(T.matmul(i["a"], i["b"])), {"a": t(3, 4), "b": t(4, 2)}),
        "linear": (lambda i: sq(T.linear(i["x"], i["w"], i["b"])), {"x": t(5, 3), "w": t(3, 2), "b": t(2)}),
        # 2 windows x 3 tokens, 2 heads of 2 features
        "attention": (lambda i: sq(T.attention(i["q"], i["k"], i["v"], 2, 2)[0]),
                      {"q": t(6, 4), "k": t(6, 4), "v": t(6, 4)}),
        "conv": (lambda i: sq(T.conv1d_k2s2(i["x"], i["w"], i["b"])), {"x": t(6, 2), "w": w, "b": t(3)}),
        "convT": (lambda i: sq(T.conv_transpose1d_k2s2(i["x"], i["w"], i["b"])),
                  {"x": t(4, 3), "w": w, "b": t(2)}),
        "pointwise": (lambda i: sq(T.pointwise_conv(i["x"], i["w"], i["b"])),
                      {"x": t(5, 2), "w": t(4, 2), "b": t(4)}),
        "softmax": (lambda i: sq(T.softmax_lastdim(i["x"])), {"x": t(3, 5)}),
        "layer_norm": (lambda i: sq(T.layer_norm(i["x"], i["g"], i["b"])),
                       {"x": t(4, 6), "g": t(6), "b": t(6)}),
        "gelu": (lambda i: sq(T.gelu(i["x"])), {"x": t(3, 4)}),
        "add_bcast": (lambda i: sq(T.add(i["a"], i["b"])), {"a": t(3, 4), "b": t(4)}),
        "sub": (lambda i: sq(T.sub(i["a"], i["b"])), {"a": t(2, 3), "b": t(2, 3)}),
        "neg": (lambda i: sq(T.neg(i["x"])), {"x": t(2, 3)}),
        "sum_all": (lambda i: sq(T.mul(i["a"], T.sum_all(i["x"]))), {"a": t(4), "x": t(3, 2)}),
        "mul_bcast": (lambda i: sq(T.mul(i["a"], i["b"])), {"a": t(3, 4), "b": t(1, 4)}),
        "narrow": (lambda i: sq(T.narrow(i["x"], 1, 1, 3)), {"x": t(2, 5)}),
        "concat": (lambda i: sq(T.concat([i["a"], i["b"]], 0)), {"a": t(2, 3), "b": t(1, 3)}),
        "reshape_transpose": (lambda i: sq(T.transpose(T.reshape(i["x"], (2, 6)), (1, 0))),
                              {"x": t(3, 4)}),
    }


def test_every_op_passes_finite_differences_f64():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for name, (fn, inputs) in _fd_cases(rng, F64).items():
            errors = finite_diff_check(fn, inputs)
            assert all(e < 1e-6 for e in errors.values()), f"{name} seed {seed}: {errors}"


def test_every_op_passes_finite_differences_f32():
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        for name, (fn, inputs) in _fd_cases(rng, F32).items():
            errors = finite_diff_check(fn, inputs)
            assert all(e < 1e-3 for e in errors.values()), f"{name} seed {seed}: {errors}"


def test_the_gradient_suite_checks_every_tape_op(monkeypatch):
    # an op recorded under a name no case reaches is one whose VJP nothing checks
    defined = set(re.findall(r'record_op\(\s*"(\w+)"', inspect.getsource(T)))
    assert len(defined) >= 18, sorted(defined)
    checked = set()
    record = T.record_op

    def collecting_record_op(name, *args):
        checked.add(name)
        return record(name, *args)

    monkeypatch.setattr(T, "record_op", collecting_record_op)
    assert run_gradient_suite(n_seeds=1, log=lambda *_: None)
    assert not defined - checked, f"ops without a gradient case: {sorted(defined - checked)}"


def test_finite_diff_exact_for_linear_map():
    rng = np.random.default_rng(9)
    w = Tensor(rng.standard_normal((4, 4)), requires_grad=True, dtype=F64)
    x = Tensor(rng.standard_normal((4, 1)), dtype=F64)
    errors = finite_diff_check(lambda i: T.sum_all(T.matmul(i["w"], x)), {"w": w})
    assert errors["w"] < 1e-9


def test_finite_diff_catches_corrupted_gradient():
    # custom op through the public extension point, with its VJP scaled by 1.01
    def bad_double(x):
        return record_op("bad_double", 2.0 * x.data, (x,), lambda g: (2.0 * 1.01 * g,))

    x = Tensor(np.random.default_rng(1).standard_normal(5), requires_grad=True, dtype=F64)
    errors = finite_diff_check(lambda i: T.sum_all(bad_double(i["x"])), {"x": x})
    assert errors["x"] >= 1e-6


def test_finite_diff_rejects_non_finite_inputs():
    x = Tensor(np.array([1.0, np.inf]), requires_grad=True, dtype=F64)
    with pytest.raises(NumericError, match="x"):
        finite_diff_check(lambda i: T.sum_all(i["x"]), {"x": x})


def test_finite_diff_restores_every_input_when_fn_raises():
    # fn raises at x[0] - h, its second perturbed call: x[0] is put back all the same
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True, dtype=F64)
    y = Tensor(np.array([-1.0, 0.5]), requires_grad=True, dtype=F64)
    before = {name: t.data.tobytes() for name, t in (("x", x), ("y", y))}
    calls = []

    def fn(i):
        calls.append(None)
        if len(calls) == 3:
            raise NumericError("raised at a perturbed point")
        return T.add(T.sum_all(i["x"]), T.sum_all(i["y"]))

    with pytest.raises(NumericError, match="perturbed point"):
        finite_diff_check(fn, {"x": x, "y": y})
    assert {"x": x.data.tobytes(), "y": y.data.tobytes()} == before


# ---------------------------------------------------------------------------
# finiteness


def _layouts(dtype):
    """Fresh finite arrays in every layout an op output or a gradient takes."""
    return {"C-order": np.arange(1.0, 36.0, dtype=dtype).reshape(5, 7),
            "transposed": np.arange(1.0, 36.0, dtype=dtype).reshape(5, 7).T,
            "strided slice": np.arange(1.0, 141.0, dtype=dtype).reshape(10, 14)[::2, 1::3],
            "0-d": np.array(2.5, dtype=dtype)}


@pytest.mark.parametrize("dtype", [F32, F64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finite_check_finds_one_bad_entry_in_any_layout(dtype, bad):
    message = "^non-finite value produced by op 'probe'$"
    for layout, arr in _layouts(dtype).items():
        assert T.all_finite(arr), layout
        T._ensure_finite("probe", arr)
        for pos in {0, arr.size // 2, arr.size - 1}:
            poisoned = _layouts(dtype)[layout]
            poisoned[np.unravel_index(pos, arr.shape)] = bad
            assert not T.all_finite(poisoned), (layout, pos)
            with pytest.raises(NumericError, match=message):
                T._ensure_finite("probe", poisoned)
    for empty in (np.empty((0, 3), dtype=dtype), np.empty((3, 0), dtype=dtype).T):
        assert T.all_finite(empty)
        T._ensure_finite("probe", empty)


@pytest.mark.parametrize("dtype, big", [(F32, 1e20), (F64, 1e160)])
def test_finite_check_passes_entries_whose_squares_overflow(dtype, big):
    arr = np.full((4, 6), big, dtype=dtype)
    arr[1, ::2] = -big
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.add.reduce(arr * arr, axis=None))  # the dot product overflows too
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and says nothing about it
        for view in (arr, arr.T, arr[::2, 1::2]):
            assert T.all_finite(view)
            T._ensure_finite("probe", view)
    arr[3, 5] = np.inf
    with pytest.raises(NumericError, match="'probe'"):
        T._ensure_finite("probe", arr)
