import math
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from prefetchlab import lstm
from prefetchlab.errors import ConfigError, TraceFormatError
from prefetchlab.lstm import (
    adagrad_step,
    adam_step,
    clip_global_norm,
    load_checkpoint,
    lstm_backward,
    lstm_cell_forward,
    lstm_forward,
    lstm_layer_init,
    save_checkpoint,
    sigmoid,
    softmax_cross_entropy,
    topk_indices,
    zero_states,
)

from oracles import finite_difference_grads, relative_grad_error


def scalar_sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def scalar_cell_oracle(x, h_prev, c_prev, W, b):
    """Cell equations evaluated with explicit Python loops, no numpy."""
    B, D = x.shape
    H = h_prev.shape[1]
    h_out = np.zeros((B, H))
    c_out = np.zeros((B, H))
    for n in range(B):
        for j in range(H):
            z = [0.0, 0.0, 0.0, 0.0]  # i, f, g, o rows
            for g in range(4):
                row = g * H + j
                acc = b[row]
                for d in range(D):
                    acc += W[row, d] * x[n, d]
                for k in range(H):
                    acc += W[row, D + k] * h_prev[n, k]
                z[g] = acc
            i = scalar_sigmoid(z[0])
            f = scalar_sigmoid(z[1])
            g_ = math.tanh(z[2])
            o = scalar_sigmoid(z[3])
            c = f * c_prev[n, j] + i * g_
            c_out[n, j] = c
            h_out[n, j] = o * math.tanh(c)
    return h_out, c_out


def test_cell_forward_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        B = int(rng.integers(1, 4))
        D = int(rng.integers(1, 6))
        H = int(rng.integers(1, 8))
        W = rng.normal(size=(4 * H, D + H))
        b = rng.normal(size=4 * H)
        x = rng.normal(size=(B, D))
        h_prev = rng.normal(size=(B, H))
        c_prev = rng.normal(size=(B, H))
        h, c, _ = lstm_cell_forward(x, h_prev, c_prev, W, b)
        h_ref, c_ref = scalar_cell_oracle(x, h_prev, c_prev, W, b)
        assert np.max(np.abs(h - h_ref)) < 1e-12
        assert np.max(np.abs(c - c_ref)) < 1e-12


# Reference formulas of the split-sign implementation that the fused hot
# path replaced. The fused code must reproduce them bit for bit, so that
# checkpoints and reports recorded with the old code stay reproducible.


def split_sign_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def split_sign_cell_forward(x, h_prev, c_prev, W, b):
    H = h_prev.shape[1]
    xh = np.concatenate([x, h_prev], axis=1)
    z = xh @ W.T + b
    i = split_sign_sigmoid(z[:, :H])
    f = split_sign_sigmoid(z[:, H : 2 * H])
    g = np.tanh(z[:, 2 * H : 3 * H])
    o = split_sign_sigmoid(z[:, 3 * H :])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, (xh, i, f, g, o, c_prev, tc)


def assert_bit_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bit_equal_to_split_sign(dtype):
    rng = np.random.default_rng(11)
    info = np.finfo(dtype)
    special = np.array(
        [0.0, -0.0, 1e4, -1e4, np.inf, -np.inf, info.max, -info.max,
         info.smallest_subnormal, -info.smallest_subnormal,
         info.smallest_normal / 4, -info.smallest_normal / 4,
         info.smallest_normal, -info.smallest_normal, 1.0, -1.0],
        dtype=dtype,
    )
    for x in (
        special,
        (rng.normal(size=1001) * 4).astype(dtype),
        (rng.normal(size=(7, 33)) * 40).astype(dtype),
        rng.uniform(-1e-30, 1e-30, size=257).astype(dtype),
    ):
        assert_bit_equal(sigmoid(x), split_sign_sigmoid(x))
    # strided gate slices, as the split-sign cell passed them
    z = (rng.normal(size=(5, 4 * 13)) * 3).astype(dtype)
    assert_bit_equal(sigmoid(z)[:, 13:26], split_sign_sigmoid(z[:, 13:26]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B,D,H", [(1, 256, 128), (3, 4, 64), (64, 128, 128), (2, 5, 7)])
def test_cell_forward_bit_equal_to_split_sign(dtype, B, D, H):
    rng = np.random.default_rng(B * 1000 + H)
    W, b = lstm_layer_init(D, H, rng, dtype)
    x = (rng.normal(size=(B, D)) * 2).astype(dtype)
    h_prev = rng.uniform(-1, 1, size=(B, H)).astype(dtype)
    c_prev = (rng.normal(size=(B, H)) * 3).astype(dtype)
    h, c, cache = lstm_cell_forward(x, h_prev, c_prev, W, b)
    h_ref, c_ref, cache_ref = split_sign_cell_forward(x, h_prev, c_prev, W, b)
    assert_bit_equal(h, h_ref)
    assert_bit_equal(c, c_ref)
    assert len(cache) == len(cache_ref)
    for got, ref in zip(cache, cache_ref):
        assert_bit_equal(got, ref)


def where_form_sigmoid(x):
    """The one-pass sigmoid before its numerator became exp(minimum(x, 0))."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1, e) / (1 + e)


def test_sigmoid_bit_equal_to_where_form_on_float32_patterns():
    bits = np.arange(0, 1 << 32, 97, dtype=np.uint64).astype(np.uint32)
    edges = np.array([0, 1, 0x007FFFFF, 0x00800000, 0x7F7FFFFF, 0x7F800000, 0x7FC00000,
                      0x7FFFFFFF], dtype=np.uint32)  # +-0, subnormals, max, inf, NaNs
    bits = np.concatenate([bits, edges, edges | np.uint32(0x80000000)])
    with np.errstate(invalid="ignore"):  # exp of NaN
        for chunk in np.array_split(bits, 64):
            x = chunk.view(np.float32)
            assert_bit_equal(sigmoid(x), where_form_sigmoid(x))


def test_sigmoid_stable_at_extremes():
    x = np.array([-800.0, -50.0, 0.0, 50.0, 800.0])
    s = sigmoid(x)
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 or s[0] < 1e-300
    assert s[2] == 0.5
    assert s[4] == 1.0


def test_layer_init_shapes_and_forget_bias():
    rng = np.random.default_rng(1)
    W, b = lstm_layer_init(5, 8, rng)
    assert W.shape == (32, 13)
    assert np.all(np.abs(W) <= 1.0 / np.sqrt(8))
    assert np.all(b[8:16] == 1.0)
    assert np.all(b[:8] == 0.0) and np.all(b[16:] == 0.0)


# ---------------------------------------------------------------------------
# Window forward/backward
# ---------------------------------------------------------------------------


def make_stack(rng, layers, dims, hidden):
    Ws, bs = [], []
    dim = dims
    for _ in range(layers):
        W, b = lstm_layer_init(dim, hidden, rng)
        Ws.append(W)
        bs.append(b)
        dim = hidden
    return Ws, bs


def window_forward(X, states, Ws, bs, cache=True):
    """`lstm_forward` on a window buffer holding the (T, B, D) inputs X, as
    `models._LstmPrefetcher.run_lstm` builds it."""
    T, B, D = X.shape
    L, H = len(Ws), Ws[0].shape[0] // 4
    buf = np.empty((T + L, B, D + L * H), dtype=X.dtype)
    buf[:T, :, :D] = X
    return lstm_forward(buf, states, Ws, bs, cache=cache)


def test_forward_state_carry_equals_one_shot():
    # running two half windows with carried state == one full window
    rng = np.random.default_rng(2)
    Ws, bs = make_stack(rng, 2, 3, 5)
    X = rng.normal(size=(8, 2, 3))
    full, final_full, _ = window_forward(X, zero_states(2, 2, 5), Ws, bs)
    first, mid_states, _ = window_forward(X[:4], zero_states(2, 2, 5), Ws, bs)
    second, final_split, _ = window_forward(X[4:], mid_states, Ws, bs)
    assert np.allclose(np.concatenate([first, second]), full, atol=1e-14)
    for (h1, c1), (h2, c2) in zip(final_full, final_split):
        assert np.allclose(h1, h2, atol=1e-14)
        assert np.allclose(c1, c2, atol=1e-14)


def concatenating_lstm_forward(X, states, Ws, bs):
    """The window forward before the [x | h] buffers: it joins x and h
    with a fresh concatenate in every cell and copies each top-layer h."""
    T = X.shape[0]
    n_layers = len(Ws)
    h = [s[0] for s in states]
    c = [s[1] for s in states]
    caches = [[None] * n_layers for _ in range(T)]
    H_top = np.empty((T, X.shape[1], h[-1].shape[1]), dtype=X.dtype)
    for t in range(T):
        inp = X[t]
        for l in range(n_layers):
            H = h[l].shape[1]
            xh = np.concatenate([inp, h[l]], axis=1)
            z = xh @ Ws[l].T + bs[l]
            a = where_form_sigmoid(z)
            np.tanh(z[:, 2 * H : 3 * H], out=a[:, 2 * H : 3 * H])
            i, f, g, o = a[:, :H], a[:, H : 2 * H], a[:, 2 * H : 3 * H], a[:, 3 * H :]
            c_prev = c[l]
            c[l] = f * c_prev + i * g
            tc = np.tanh(c[l])
            h[l] = o * tc
            caches[t][l] = (xh, i, f, g, o, c_prev, tc)
            inp = h[l]
        H_top[t] = h[-1]
    return H_top, [(h[l], c[l]) for l in range(n_layers)], caches


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B,D,H,T", [(1, 256, 128, 9), (3, 4, 64, 12), (64, 128, 128, 5)])
def test_forward_bit_equal_to_concatenating_forward(dtype, B, D, H, T):
    rng = np.random.default_rng(B * 100 + D)
    Ws, bs = [], []
    for dim in (D, H):
        W, b = lstm_layer_init(dim, H, rng, dtype)
        Ws.append(W)
        bs.append((rng.normal(size=4 * H) * 0.5).astype(dtype))
    X = (rng.normal(size=(T, B, D)) * 2).astype(dtype)
    states = [(rng.uniform(-1, 1, size=(B, H)).astype(dtype),
               (rng.normal(size=(B, H)) * 2).astype(dtype)) for _ in Ws]
    saved = [(h.copy(), c.copy()) for h, c in states]
    out, finals, caches = window_forward(X, states, Ws, bs)
    out_ref, finals_ref, caches_ref = concatenating_lstm_forward(X, states, Ws, bs)
    assert_bit_equal(out, out_ref)
    for got, ref in zip(finals + saved, finals_ref + states):  # inputs not mutated
        assert_bit_equal(got[0], ref[0])
        assert_bit_equal(got[1], ref[1])
    # carried state must not keep the window's buffers alive
    assert all(h.base is None and c.base is None for h, c in finals)
    dH = rng.normal(size=(T, B, H)).astype(dtype)
    dX, dWs, dbs = lstm_backward(dH, caches, Ws)
    dX_ref, dWs_ref, dbs_ref = step_lstm_backward(dH, caches_ref, Ws)
    for got, ref in zip([dX, *dWs, *dbs], [dX_ref, *dWs_ref, *dbs_ref]):
        assert_bit_equal(got, ref)


# The step-by-step window forward and backward that the diagonal schedule
# replaced: one cell at a time, every layer of step t before step t+1.


def step_cell_forward(xh, c_prev, W, b, h=None):
    H = c_prev.shape[1]
    z = xh @ W.T
    z += b
    a = sigmoid(z)
    np.tanh(z[:, 2 * H : 3 * H], out=a[:, 2 * H : 3 * H])
    i, f, g, o = a[:, :H], a[:, H : 2 * H], a[:, 2 * H : 3 * H], a[:, 3 * H :]
    c = f * c_prev
    c += i * g
    tc = np.tanh(c)
    h = np.multiply(o, tc, out=h)
    return h, c, (xh, i, f, g, o, c_prev, tc)


def step_lstm_forward(X, states, Ws, bs):
    T, B, _ = X.shape
    n_layers = len(Ws)
    xhs, dims = [], []
    for l in range(n_layers):
        H = Ws[l].shape[0] // 4
        D = Ws[l].shape[1] - H
        xh = np.empty((T + 1, B, D + H), dtype=X.dtype)
        xh[0, :, D:] = states[l][0]
        xhs.append(xh)
        dims.append(D)
    xhs[0][:T, :, : dims[0]] = X
    c = [s[1] for s in states]
    caches = [[None] * n_layers for _ in range(T)]
    for t in range(T):
        for l in range(n_layers):
            xh, D = xhs[l], dims[l]
            h, c[l], caches[t][l] = step_cell_forward(xh[t], c[l], Ws[l], bs[l],
                                                      xh[t + 1, :, D:])
            if l + 1 < n_layers:
                xhs[l + 1][t, :, : dims[l + 1]] = h
    finals = [(xhs[l][T, :, dims[l] :].copy(), c[l]) for l in range(n_layers)]
    return xhs[-1][1:, :, dims[-1] :], finals, caches


def step_cell_backward(dh, dc_in, cache, W):
    xh, i, f, g, o, c_prev, tc = cache
    H = i.shape[1]
    D = xh.shape[1] - H
    do = dh * tc
    dc = dc_in + dh * o * (1.0 - tc * tc)
    di = dc * g
    df = dc * c_prev
    dg = dc * i
    dc_prev = dc * f
    dz = np.concatenate(
        [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g * g), do * o * (1.0 - o)],
        axis=1,
    )
    dW = dz.T @ xh
    db = dz.sum(axis=0)
    dxh = dz @ W
    return dxh[:, :D], dxh[:, D:], dc_prev, dW, db


def step_lstm_backward(dH_top, caches, Ws):
    T = len(caches)
    n_layers = len(Ws)
    B = dH_top.shape[1]
    hidden = [W.shape[0] // 4 for W in Ws]
    in_dims = [W.shape[1] - W.shape[0] // 4 for W in Ws]
    dWs = [np.zeros_like(W) for W in Ws]
    dbs = [np.zeros(4 * hd, dtype=dH_top.dtype) for hd in hidden]
    dh_next = [np.zeros((B, hd), dtype=dH_top.dtype) for hd in hidden]
    dc_next = [np.zeros((B, hd), dtype=dH_top.dtype) for hd in hidden]
    dX = np.empty((T, B, in_dims[0]), dtype=dH_top.dtype)
    for t in range(T - 1, -1, -1):
        d_from_above = dH_top[t]
        for l in range(n_layers - 1, -1, -1):
            dh = d_from_above + dh_next[l]
            dx, dh_prev, dc_prev, dW, db = step_cell_backward(dh, dc_next[l], caches[t][l], Ws[l])
            dWs[l] += dW
            dbs[l] += db
            dh_next[l] = dh_prev
            dc_next[l] = dc_prev
            d_from_above = dx
        dX[t] = d_from_above
    return dX, dWs, dbs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("B", [1, 3, 64])
@pytest.mark.parametrize("T", [1, 2, 9])
def test_diagonal_schedule_bit_equal_to_step_by_step(dtype, L, B, T):
    # T < L leaves diagonals on which only some layers are active
    rng = np.random.default_rng(L * 1000 + B * 10 + T)
    D, H = 5, 24
    Ws, bs = [], []
    for l in range(L):
        W, _ = lstm_layer_init(D if l == 0 else H, H, rng, dtype)
        Ws.append(W)
        bs.append((rng.normal(size=4 * H) * 0.5).astype(dtype))
    X = (rng.normal(size=(T, B, D)) * 2).astype(dtype)
    states = [(rng.uniform(-1, 1, size=(B, H)).astype(dtype),
               (rng.normal(size=(B, H)) * 2).astype(dtype)) for _ in Ws]
    out, finals, caches = window_forward(X, states, Ws, bs)
    out_ref, finals_ref, caches_ref = step_lstm_forward(X, states, Ws, bs)
    assert_bit_equal(out, out_ref)
    for got, ref in zip(finals, finals_ref):
        assert_bit_equal(got[0], ref[0])
        assert_bit_equal(got[1], ref[1])
    dH = rng.normal(size=(T, B, H)).astype(dtype)
    dX, dWs, dbs = lstm_backward(dH, caches, Ws)
    dX_ref, dWs_ref, dbs_ref = step_lstm_backward(dH, caches_ref, Ws)
    for got, ref in zip([dX, *dWs, *dbs], [dX_ref, *dWs_ref, *dbs_ref]):
        assert_bit_equal(got, ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("T", [1, 2, 9])
def test_uncached_forward_bit_equal_and_keeps_no_records(dtype, L, B, T):
    rng = np.random.default_rng(L * 100 + B * 10 + T)
    D, H = 5, 24
    Ws = [lstm_layer_init(D if l == 0 else H, H, rng, dtype)[0] for l in range(L)]
    bs = [(rng.normal(size=4 * H) * 0.5).astype(dtype) for _ in Ws]
    X = (rng.normal(size=(T, B, D)) * 2).astype(dtype)
    states = [(rng.uniform(-1, 1, size=(B, H)).astype(dtype),
               (rng.normal(size=(B, H)) * 2).astype(dtype)) for _ in Ws]
    out, finals, caches = window_forward(X, states, Ws, bs, cache=False)
    out_ref, finals_ref, caches_ref = window_forward(X, states, Ws, bs)
    assert caches is None and caches_ref is not None
    assert_bit_equal(out, out_ref)
    for got, ref in zip(finals, finals_ref):
        assert_bit_equal(got[0], ref[0])
        assert_bit_equal(got[1], ref[1])


def test_uncached_forward_peak_is_a_few_diagonals():
    """An uncached 512-step window at eval's cluster shape (B = 3, H = 64,
    two layers) allocates, beyond its window buffer, less than eight
    diagonals' activations and cell states (its scratch arrays and views
    take ~5.6): no per-window record of activations, cell states or
    diagonals is kept."""
    T, B, D, H, L = 512, 3, 4, 64, 2
    dtype = np.float32
    rng = np.random.default_rng(8)
    Ws = [lstm_layer_init(D if l == 0 else H, H, rng, dtype)[0] for l in range(L)]
    bs = [np.zeros(4 * H, dtype=dtype) for _ in Ws]
    states = zero_states(L, B, H, dtype)
    buf = np.empty((T + L, B, D + L * H), dtype=dtype)
    buf[:T, :, :D] = rng.normal(size=(T, B, D))
    tracemalloc.start()
    try:
        lstm_forward(buf, states, Ws, bs, cache=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    diagonal = L * B * (4 * H + H) * np.dtype(dtype).itemsize
    assert peak < 8 * diagonal


def test_training_cache_keeps_c_not_tanh_c():
    """The backward caches are the window buffer, the cell states and the
    gate activations, and nothing else: each h is stored once, in the
    buffer, each c once (with one row per layer of initial and unused
    slots), and tanh(c) is recomputed in backward, where a cached copy
    would cost another T*L*B*H floats."""
    T = B = 64
    D, H, L = 256, 128, 2
    dtype = np.float32
    rng = np.random.default_rng(4)
    Ws = [lstm_layer_init(D if l == 0 else H, H, rng, dtype)[0] for l in range(L)]
    bs = [np.zeros(4 * H, dtype=dtype) for _ in Ws]
    X = rng.normal(size=(T, B, D)).astype(dtype)
    _, _, caches = window_forward(X, zero_states(L, B, H, dtype), Ws, bs)
    buf, cs, acts = caches
    buffers = {}
    for arr in caches:
        while arr.base is not None:
            arr = arr.base
        buffers[id(arr)] = arr
    item = np.dtype(dtype).itemsize
    buf_bytes = (T + L) * B * (D + L * H) * item
    c_bytes = (T + L) * L * B * H * item
    a_bytes = T * L * B * 4 * H * item
    assert (buf.nbytes, cs.nbytes, acts.nbytes) == (buf_bytes, c_bytes, a_bytes)
    assert sum(a.nbytes for a in buffers.values()) == buf_bytes + c_bytes + a_bytes


def test_forward_rejects_mixed_hidden_sizes():
    rng = np.random.default_rng(9)
    (W0, b0), (W1, b1) = lstm_layer_init(3, 4, rng), lstm_layer_init(4, 6, rng)
    states = [(np.zeros((2, 4)), np.zeros((2, 4))), (np.zeros((2, 6)), np.zeros((2, 6)))]
    with pytest.raises(ConfigError):
        window_forward(np.zeros((5, 2, 3)), states, [W0, W1], [b0, b1])


# ---------------------------------------------------------------------------
# Two lanes
# ---------------------------------------------------------------------------


def lane_thread_started():
    return any(t.name == "lstm-lane" for t in threading.enumerate())


def multi_cpu():
    return lstm.cpus() > 1


@pytest.fixture
def one_blas_thread(monkeypatch):
    """Lanes as under a BLAS pinned to one thread, whatever this process's
    BLAS runs."""
    monkeypatch.setattr(lstm, "blas_threads", lambda: 1)


def lane_case(rng, L, dtype, T=64, B=64, D=256, H=128):
    Ws = [lstm_layer_init(D if l == 0 else H, H, rng, dtype)[0] for l in range(L)]
    bs = [(rng.normal(size=4 * H) * 0.5).astype(dtype) for _ in Ws]
    X = rng.normal(size=(T, B, D)).astype(dtype)
    states = [(rng.uniform(-1, 1, size=(B, H)).astype(dtype),
               rng.normal(size=(B, H)).astype(dtype)) for _ in Ws]
    dH = rng.normal(size=(T, B, H)).astype(dtype)
    return X, states, Ws, bs, dH


def forward_backward(X, states, Ws, bs, dH):
    """Every output of a window's forward and backward, in one list."""
    out, finals, caches = window_forward(X, states, Ws, bs)
    dX, dWs, dbs = lstm_backward(dH, caches, Ws)
    return [out, *(a for state in finals for a in state), dX, *dWs, *dbs]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_lanes_bit_equal_to_inline(monkeypatch, one_blas_thread, dtype, L):
    X, states, Ws, bs, dH = lane_case(np.random.default_rng(L), L, dtype)
    monkeypatch.setattr(lstm, "LANE_MIN_MACS", float("inf"))
    inline = forward_backward(X, states, Ws, bs, dH)
    monkeypatch.setattr(lstm, "LANE_MIN_MACS", 0)
    lanes = forward_backward(X, states, Ws, bs, dH)
    assert len(lanes) == 1 + 2 * L + 1 + 2 * L
    for got, ref in zip(lanes, inline):
        assert_bit_equal(got, ref)
    if L > 1 and multi_cpu():
        assert lane_thread_started()


def test_lane_worker_error_reraises_in_the_caller(one_blas_thread):
    def job(i, log):
        log.append(i)
        if i == 1:
            raise ValueError("lane job failed")
        return 2 * i

    log = []
    with pytest.raises(ValueError, match="lane job failed"):
        lstm.LANES.run(job, [(0, log), (1, log), (2, log)], lstm.LANE_MIN_MACS)
    assert sorted(log) == [0, 1]  # the failed lane stops at its error
    assert lstm.LANES.run(job, [(0, []), (2, []), (3, [])], lstm.LANE_MIN_MACS) == [0, 4, 6]


@pytest.mark.skipif(not multi_cpu(), reason="lanes need two CPUs")
def test_lane_caller_error_waits_for_the_worker(one_blas_thread):
    def job(i, log):
        if i == 0:
            raise KeyError("caller job failed")
        time.sleep(0.05)
        log.append(i)

    log = []
    with pytest.raises(KeyError):
        lstm.LANES.run(job, [(0, log), (1, log)], lstm.LANE_MIN_MACS)
    assert log == [1]


def test_lanes_keep_every_result_under_contention(one_blas_thread):
    """Four caller threads share the one worker, with thread switches forced
    every microsecond: each call gets back exactly its own results."""
    def job(caller, call, i, slots):
        slots[i] = (caller, call, i)
        return slots[i]

    failures = []

    def caller(c):
        for call in range(100):
            slots = [None] * 3
            got = lstm.LANES.run(job, [(c, call, i, slots) for i in range(3)],
                                 lstm.LANE_MIN_MACS)
            if got != slots or got != [(c, call, i) for i in range(3)]:
                failures.append((c, call, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


@pytest.mark.parametrize("cpus, threads", [(1, 1), (4, 2), (8, 4)])
def test_lanes_stay_off_on_one_cpu_or_beside_threaded_blas(monkeypatch, cpus, threads):
    """One CPU, or a BLAS that runs several threads per call, gets no
    second lane."""
    def no_worker():
        raise AssertionError("a lane was asked for")

    monkeypatch.setattr(lstm, "cpus", lambda: cpus)
    monkeypatch.setattr(lstm, "blas_threads", lambda: threads)
    monkeypatch.setattr(lstm.LANES, "_worker_jobs", no_worker)
    assert lstm.LANES.run(lambda i: 2 * i, [(1,), (2,)], lstm.LANE_MIN_MACS) == [2, 4]


@pytest.mark.parametrize(
    "env, expected",
    [
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1),
        ({"GOTO_NUM_THREADS": "3", "OMP_NUM_THREADS": "4"}, 3),
        ({"OMP_NUM_THREADS": "2,1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "many"}, None),
        ({}, None),
    ],
)
def test_blas_threads_read_as_openblas_reads_them(monkeypatch, env, expected):
    """The first positive count among the variables OpenBLAS reads; with
    none, one thread per CPU."""
    for name in lstm.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert lstm.blas_threads() == (lstm.cpus() if expected is None else expected)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_lanes(monkeypatch, one_blas_thread):
    """A child forked after the worker started gets its own worker."""
    monkeypatch.setattr(lstm, "LANE_MIN_MACS", 0)
    rng = np.random.default_rng(7)
    X, states, Ws, bs, dH = lane_case(rng, 2, np.float32, T=8, B=16, D=32, H=32)
    expected = forward_backward(X, states, Ws, bs, dH)
    with warnings.catch_warnings():  # forking a process with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            got = forward_backward(X, states, Ws, bs, dH)
            same = all(np.array_equal(g, e) for g, e in zip(got, expected))
            code = 0 if same and lane_thread_started() == multi_cpu() else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.02)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish its forward in 60 s")
    assert os.waitstatus_to_exitcode(status) == 0


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        layers, D, H, T, B = 2, 3, 4, 5, 2
        Ws, bs = make_stack(rng, layers, D, H)
        X = rng.normal(size=(T, B, D))
        target = rng.normal(size=(T, B, H))

        params = {}
        for l in range(layers):
            params[f"W{l}"] = Ws[l]
            params[f"b{l}"] = bs[l]
        params["X"] = X

        def loss_fn():
            out, _, _ = window_forward(X, zero_states(layers, B, H), Ws, bs)
            return 0.5 * float(np.sum((out - target) ** 2))

        out, _, caches = window_forward(X, zero_states(layers, B, H), Ws, bs)
        dX, dWs, dbs = lstm_backward(out - target, caches, Ws)
        analytic = {"X": dX}
        for l in range(layers):
            analytic[f"W{l}"] = dWs[l]
            analytic[f"b{l}"] = dbs[l]

        numeric = finite_difference_grads(loss_fn, params, eps=1e-6)
        for name in params:
            assert relative_grad_error(analytic[name], numeric[name]) < 1e-7, name


# ---------------------------------------------------------------------------
# Softmax cross entropy
# ---------------------------------------------------------------------------


def test_softmax_cross_entropy_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(6, 5)) * 3
    labels = rng.integers(0, 5, size=6)
    loss, dlogits, n = softmax_cross_entropy(logits.copy(), labels)
    assert n == 6
    # scalar reference with explicit max subtraction
    total = 0.0
    for i in range(6):
        m = max(logits[i])
        lse = m + math.log(sum(math.exp(v - m) for v in logits[i]))
        total += lse - logits[i, labels[i]]
    assert loss == pytest.approx(total / 6, abs=1e-12)


def test_softmax_cross_entropy_ignores_negative_labels():
    logits = np.array([[1.0, 2.0], [3.0, 0.0], [0.5, 0.5]])
    labels = np.array([0, -1, 1])
    loss, dlogits, n = softmax_cross_entropy(logits.copy(), labels)
    assert n == 2
    assert np.all(dlogits[1] == 0.0)
    loss2, _, _ = softmax_cross_entropy(logits[[0, 2]], labels[[0, 2]])
    assert loss == pytest.approx(loss2, abs=1e-12)


def test_softmax_cross_entropy_all_ignored():
    loss, dlogits, n = softmax_cross_entropy(np.ones((2, 3)), np.array([-1, -1]))
    assert (loss, n) == (0.0, 0)
    assert np.all(dlogits == 0.0)


def test_softmax_cross_entropy_gradient_fd():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(4, 6))
    labels = np.array([2, -1, 0, 5])
    _, dlogits, _ = softmax_cross_entropy(logits.copy(), labels)
    params = {"logits": logits}
    numeric = finite_difference_grads(
        lambda: softmax_cross_entropy(logits.copy(), labels)[0], params, eps=1e-6
    )
    assert relative_grad_error(dlogits, numeric["logits"]) < 1e-8


def test_softmax_cross_entropy_consumes_its_input():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(5, 7)).astype(np.float32)
    expected = softmax_cross_entropy(logits.copy(), np.array([1, -1, 6, 0, 3]))
    loss, dlogits, n = softmax_cross_entropy(logits, np.array([1, -1, 6, 0, 3]))
    assert np.shares_memory(dlogits, logits)
    assert (loss, n) == expected[::2]
    assert_bit_equal(dlogits, expected[1])
    ignored = np.ones((2, 3))
    _, dlogits, _ = softmax_cross_entropy(ignored, np.array([-1, -1]))
    assert dlogits is ignored and np.all(ignored == 0.0)


def test_softmax_cross_entropy_huge_logits_stable():
    loss, dlogits, _ = softmax_cross_entropy(np.array([[1000.0, 1000.0, -1000.0]]), np.array([0]))
    assert np.all(np.isfinite(dlogits))
    assert loss == pytest.approx(math.log(2.0))
    # dlogits = softmax - onehot
    assert dlogits[0] == pytest.approx([-0.5, 0.5, 0.0])


def two_pass_softmax_cross_entropy(logits, labels):
    """The former implementation: softmax and log-sum-exp exp'd separately."""
    labels = np.asarray(labels)
    valid = labels >= 0
    n_valid = int(valid.sum())
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    dlogits = (e / e.sum(axis=-1, keepdims=True)).copy()
    if n_valid == 0:
        return 0.0, np.zeros_like(logits), 0
    idx = np.nonzero(valid)[0]
    lab = labels[idx]
    z = logits - logits.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=-1))
    loss = float(np.sum(logsumexp[idx] - z[idx, lab]) / n_valid)
    dlogits[idx, lab] -= 1.0
    dlogits[~valid] = 0.0
    dlogits /= n_valid
    return loss, dlogits, n_valid


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_cross_entropy_bit_equal_to_two_pass(dtype):
    rng = np.random.default_rng(12)
    for n, v in ((1, 2), (64 * 64, 1001), (3 * 64, 17), (37, 513)):
        logits = (rng.normal(size=(n, v)) * 5).astype(dtype)
        labels = rng.integers(-1, v, size=n)
        # masked classes, as the cluster head adds them
        logits[: n // 2, v // 2 :] += dtype(-1e30)
        cases = [labels, np.full(n, -1), np.where(labels < 0, 0, labels)]
        for lab in cases:
            loss, dl, nv = softmax_cross_entropy(logits.copy(), lab)
            loss_ref, dl_ref, nv_ref = two_pass_softmax_cross_entropy(logits, lab)
            assert (loss, nv) == (loss_ref, nv_ref)
            assert type(loss) is type(loss_ref)
            assert_bit_equal(dl, dl_ref)


# ---------------------------------------------------------------------------
# Top-k
# ---------------------------------------------------------------------------


def test_topk_highest_first():
    scores = np.array([0.1, 0.9, 0.5, 0.7])
    assert topk_indices(scores, 3).tolist() == [1, 3, 2]


def test_topk_ties_break_to_lower_id():
    scores = np.array([0.5, 0.9, 0.5, 0.9])
    assert topk_indices(scores, 4).tolist() == [1, 3, 0, 2]


def test_topk_k_larger_than_classes():
    assert topk_indices(np.array([0.3, 0.1]), 10).tolist() == [0, 1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_topk_equals_stable_argsort(dtype):
    rng = np.random.default_rng(13)

    def check(scores, k):
        ref = np.argsort(-scores, axis=-1, kind="stable")[..., :k]
        got = topk_indices(scores, k)
        assert got.dtype == ref.dtype
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)

    n = 1000
    rows = (rng.normal(size=(64, n)) * 3).astype(dtype)
    rows[1] = 0.5  # all tied
    rows[2, 300:] = dtype(-1e30)  # masked tail; survivors fit before it
    rows[3, 5:] = dtype(-1e30)  # masked: k-th score ties outside the survivors
    rows[4, [3, 70, 500]] = np.nan
    rows[5] = np.nan
    rows[6] = rng.integers(0, 4, size=n)  # heavy ties across the k boundary
    rows[7, ::2] = -0.0
    rows[7, 1::2] = 0.0
    rows[8, :] = -np.inf
    rows[8, 17] = np.inf
    rows[9, 990:] = rows[9].max()  # ties at the top, high ids
    for k in (1, 2, 10, 999, 1000, 1001):
        check(rows, k)
        check(rows[:, :300], k)  # non-contiguous rows
    for r in range(10):
        check(rows[r], 10)  # 1-D input
    check(rows.reshape(8, 8, n), 10)  # leading dims are kept
    check(rows[:0], 10)  # no rows


def test_topk_batched():
    scores = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    out = topk_indices(scores, 2)
    assert out.tolist() == [[2, 1], [0, 1]]


# ---------------------------------------------------------------------------
# Optimizers and clipping
# ---------------------------------------------------------------------------


def test_clip_global_norm_oracle():
    grads = {"a": np.array([3.0, 4.0]), "b": np.array([[12.0]])}
    norm = clip_global_norm(grads, max_norm=5.0)
    assert norm == pytest.approx(13.0)
    assert np.allclose(grads["a"], np.array([3.0, 4.0]) * 5 / 13)
    assert np.allclose(grads["b"], np.array([[12.0]]) * 5 / 13)


def test_clip_noop_below_threshold():
    grads = {"a": np.array([0.3, 0.4])}
    norm = clip_global_norm(grads, max_norm=5.0)
    assert norm == pytest.approx(0.5)
    assert np.allclose(grads["a"], [0.3, 0.4])


def test_adam_first_step_oracle():
    # after one step from zero state the update is -lr * g/(|g| + eps-ish)
    p = np.array([1.0, -2.0])
    g = np.array([0.5, -0.25])
    params = {"p": p}
    state = {}
    adam_step(params, {"p": g.copy()}, state, lr=0.001)
    m_hat = g  # (1-b1)*g / (1-b1)
    v_hat = g * g
    expected = np.array([1.0, -2.0]) - 0.001 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(params["p"], expected, atol=1e-12)
    assert state["t"] == 1


def test_adam_two_steps_oracle():
    b1, b2, lr, eps = 0.9, 0.999, 0.001, 1e-8
    p = np.array([0.5])
    g1, g2 = np.array([0.2]), np.array([-0.4])
    params = {"p": p.copy()}
    state = {}
    adam_step(params, {"p": g1.copy()}, state, lr=lr)
    adam_step(params, {"p": g2.copy()}, state, lr=lr)

    m = (1 - b1) * g1
    v = (1 - b2) * g1**2
    ref = p - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2**2
    ref = ref - lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)
    assert np.allclose(params["p"], ref, atol=1e-14)


def test_adagrad_steps_oracle():
    lr, eps = 0.1, 1e-8
    params = {"p": np.array([1.0])}
    state = {}
    acc = 0.0
    ref = 1.0
    for g in [0.5, -1.5, 0.25]:
        adagrad_step(params, {"p": np.array([g])}, state, lr=lr)
        acc += g * g
        ref -= lr * g / (math.sqrt(acc) + eps)
    assert params["p"][0] == pytest.approx(ref, abs=1e-14)


def test_optimizers_keep_state_per_param():
    params = {"a": np.zeros(2), "b": np.zeros(3)}
    grads = {"a": np.ones(2), "b": np.ones(3)}
    state = {}
    adam_step(params, grads, state, lr=0.1)
    assert set(state) == {"t", "m_a", "v_a", "m_b", "v_b"}


def expression_adam_step(params, grads, state, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam written as plain expressions, each allocating its result."""
    state["t"] = state.get("t", 0) + 1
    t = state["t"]
    for name, p in params.items():
        g = grads[name]
        m = state.setdefault("m_" + name, np.zeros_like(p))
        v = state.setdefault("v_" + name, np.zeros_like(p))
        m += (1 - beta1) * (g - m)
        v += (1 - beta2) * (g * g - v)
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)


def expression_adagrad_step(params, grads, state, lr=0.1, eps=1e-8):
    for name, p in params.items():
        g = grads[name]
        acc = state.setdefault("acc_" + name, np.zeros_like(p))
        acc += g * g
        p -= lr * g / (np.sqrt(acc) + eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("step,oracle,lr", [(adam_step, expression_adam_step, 1e-3),
                                            (adagrad_step, expression_adagrad_step, 0.1)])
def test_in_place_optimizers_bit_equal_to_expressions(dtype, step, oracle, lr):
    rng = np.random.default_rng(21)
    shapes = {"W": (7, 5), "b": (5,), "emb": (11, 3)}
    params = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
    ref = {k: p.copy() for k, p in params.items()}
    state, ref_state = {}, {}
    for i in range(20):
        grads = {}
        for k, s in shapes.items():
            g = rng.normal(size=s) * (1e3 if i % 4 == 1 else 1.0)
            if i % 4 == 2:
                g[..., ::2] = 0  # rows and columns that saw no gradient
            grads[k] = g.astype(dtype)
        grads["b"] *= i % 5 != 3  # and whole steps of zeros
        kept = {k: g.copy() for k, g in grads.items()}
        step(params, grads, state, lr=lr)
        oracle(ref, grads, ref_state, lr=lr)
        for k in shapes:
            assert_bit_equal(params[k], ref[k])
            assert_bit_equal(grads[k], kept[k])  # the gradients are left alone
        assert state.keys() == ref_state.keys()
        for k in state:
            assert_bit_equal(np.asarray(state[k]), np.asarray(ref_state[k]))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    arrays = {
        "w": rng.normal(size=(7, 3)),
        "b": rng.normal(size=5).astype(np.float32),
        "ids": np.arange(4, dtype=np.int64),
        "scalar": np.float64(3.25),
    }
    meta = {"step": 12, "note": "x"}
    path = tmp_path / "ck.bin"
    save_checkpoint(path, arrays, meta)
    loaded, got_meta = load_checkpoint(path)
    assert got_meta == meta
    assert set(loaded) == set(arrays)
    for name in arrays:
        a = np.asarray(arrays[name])
        assert loaded[name].dtype == a.dtype
        assert loaded[name].shape == a.shape
        assert np.array_equal(loaded[name], a)
        # bit-exact, not just close
        assert loaded[name].tobytes() == a.tobytes()
        # where the heap would put a copy does not set a GEMV's speed
        assert loaded[name].ctypes.data % lstm.CKPT_ALIGN == 0
        assert loaded[name].flags.c_contiguous and loaded[name].flags.writeable


def test_checkpoint_bytes_deterministic(tmp_path):
    arrays = {"b": np.arange(6.0), "a": np.ones((2, 2), dtype=np.float32)}
    p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
    save_checkpoint(p1, arrays)
    save_checkpoint(p2, dict(reversed(list(arrays.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"BADMAGIC" + b"\x00" * 16)
    with pytest.raises(TraceFormatError):
        load_checkpoint(path)
