"""Plain-numpy LSTM building blocks.

Everything here is written against explicit parameter arrays so the whole
network stays finite-difference checkable: stacked LSTM layers with the
standard gate equations, softmax cross entropy with max subtraction,
global-norm gradient clipping, Adam and Adagrad steps, and a deterministic
binary checkpoint format.

Gate layout in the combined weight matrices is [i, f, g, o] where g is the
candidate cell value. Forget-gate biases initialize to 1.0.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Callable, Sequence

import numpy as np

from .errors import TraceFormatError, read_exact


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument cannot overflow; per sign this is
    # 1 / (1 + exp(-x)) or exp(x) / (1 + exp(x)), the split-sign formulas
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1
    out = np.minimum(x, 0)
    np.exp(out, out=out)
    out /= e
    return out


def uniform_init(shape, scale: float, rng: np.random.Generator, dtype=np.float64) -> np.ndarray:
    return rng.uniform(-scale, scale, size=shape).astype(dtype)


def lstm_layer_init(
    input_dim: int, hidden: int, rng: np.random.Generator, dtype=np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """Combined (4H, D+H) weight and (4H,) bias, forget slice at 1.0."""
    scale = 1.0 / np.sqrt(hidden)
    W = uniform_init((4 * hidden, input_dim + hidden), scale, rng, dtype)
    b = np.zeros(4 * hidden, dtype=dtype)
    b[hidden : 2 * hidden] = 1.0
    return W, b


def _cell_step(xh, c_prev, W, b, h=None):
    """Gate math of one step from the joined (B, D+H) rows [x | h_prev].

    Writes h into `h` when given. Returns (h, c, cache).
    """
    H = c_prev.shape[1]
    z = xh @ W.T
    z += b
    # one sigmoid pass over all four gates, then tanh over the g slice;
    # i, f, g, o are views of the one activation array
    a = sigmoid(z)
    np.tanh(z[:, 2 * H : 3 * H], out=a[:, 2 * H : 3 * H])
    i, f, g, o = a[:, :H], a[:, H : 2 * H], a[:, 2 * H : 3 * H], a[:, 3 * H :]
    c = f * c_prev
    c += i * g
    tc = np.tanh(c)
    h = np.multiply(o, tc, out=h)
    return h, c, (xh, i, f, g, o, c_prev, tc)


def lstm_cell_forward(x, h_prev, c_prev, W, b):
    """One step of one layer on a (B, D) batch. Returns (h, c, cache)."""
    return _cell_step(np.concatenate([x, h_prev], axis=1), c_prev, W, b)


def lstm_cell_backward(dh, dc_in, cache, W):
    """Backward of one cell step; returns (dx, dh_prev, dc_prev, dW, db)."""
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
        [
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ],
        axis=1,
    )
    dW = dz.T @ xh
    db = dz.sum(axis=0)
    dxh = dz @ W
    return dxh[:, :D], dxh[:, D:], dc_prev, dW, db


def zero_states(n_layers: int, batch: int, hidden: int, dtype=np.float64):
    return [
        (np.zeros((batch, hidden), dtype=dtype), np.zeros((batch, hidden), dtype=dtype))
        for _ in range(n_layers)
    ]


def lstm_forward(X, states, Ws, bs):
    """Run a (T, B, D) window through the stack.

    `states` is a list of (h, c) per layer and is not mutated. Returns the
    top-layer outputs (T, B, H), the final states, and caches for backward.

    Each layer works in one (T+1, B, D+H) buffer whose row t is the step's
    [x_t | h_{t-1}] input: a step writes its h into the recurrent slot of
    row t+1 and copies it into row t of the next layer's input slot. The
    outputs and the cached inputs are views of these buffers; the final h
    is a copy, so that carried state does not keep a finished window's
    buffers alive.
    """
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
            h, c[l], caches[t][l] = _cell_step(xh[t], c[l], Ws[l], bs[l], xh[t + 1, :, D:])
            if l + 1 < n_layers:
                xhs[l + 1][t, :, : dims[l + 1]] = h
    finals = [(xhs[l][T, :, dims[l] :].copy(), c[l]) for l in range(n_layers)]
    return xhs[-1][1:, :, dims[-1] :], finals, caches


def lstm_backward(dH_top, caches, Ws):
    """Backprop a window; gradients into the initial states are dropped.

    Returns (dX, dWs, dbs) matching the forward window.
    """
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
            dx, dh_prev, dc_prev, dW, db = lstm_cell_backward(dh, dc_next[l], caches[t][l], Ws[l])
            dWs[l] += dW
            dbs[l] += db
            dh_next[l] = dh_prev
            dc_next[l] = dc_prev
            d_from_above = dx
        dX[t] = d_from_above
    return dX, dWs, dbs


# ---------------------------------------------------------------------------
# Loss and prediction heads
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross entropy over valid positions; labels < 0 are ignored.

    Consumes `logits`, a float (N, C) array: it is overwritten in place
    and returned as dlogits, so a caller that needs the logits afterwards
    passes a copy. Returns (loss, dlogits, n_valid) where dlogits already
    carries the 1/n_valid factor.
    """
    labels = np.asarray(labels)
    valid = labels >= 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        logits.fill(0)
        return 0.0, logits, 0
    idx = np.nonzero(valid)[0]
    lab = labels[idx]
    # max-subtracted: exp(z) <= 1, and one row sum serves loss and softmax;
    # the label entries of z are read before exp overwrites them
    z = logits
    z -= z.max(axis=-1, keepdims=True)
    z_lab = z[idx, lab]
    dlogits = np.exp(z, out=z)
    sums = dlogits.sum(axis=-1, keepdims=True)
    logsumexp = np.log(sums[:, 0])
    loss = float(np.sum(logsumexp[idx] - z_lab) / n_valid)
    dlogits /= sums
    dlogits[idx, lab] -= 1.0
    dlogits[~valid] = 0.0
    dlogits /= n_valid
    return loss, dlogits, n_valid


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-k class ids, highest score first; ties break to the lower id.

    Equal to ``np.argsort(-scores, kind="stable")[..., :k]`` (NaN ranks
    last). argpartition picks k survivors per row, which are then ordered
    by (score desc, id asc). A row whose k-th score is NaN or is tied with
    a score outside the survivors takes the stable sort instead, since
    argpartition breaks such ties arbitrarily.
    """
    neg = -scores.reshape(math.prod(scores.shape[:-1]), scores.shape[-1])
    n = neg.shape[1]
    k = min(k, n)
    if not 0 < k < n:
        out = np.argsort(neg, axis=-1, kind="stable")[:, :k]
    else:
        part = np.argpartition(neg, k - 1, axis=-1)[:, :k]
        vals = np.take_along_axis(neg, part, axis=-1)
        out = np.take_along_axis(part, np.lexsort((part, vals), axis=-1), axis=-1)
        kth = vals.max(axis=-1, keepdims=True)
        redo = np.nonzero(np.isnan(kth[:, 0]) | (np.count_nonzero(neg <= kth, axis=-1) > k))[0]
        if len(redo):
            out[redo] = np.argsort(neg[redo], axis=-1, kind="stable")[:, :k]
    return out.reshape(scores.shape[:-1] + out.shape[-1:])


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


def clip_global_norm(grads: dict, max_norm: float = 5.0) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g, dtype=np.float64)))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def adam_step(
    params: dict,
    grads: dict,
    state: dict,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """In-place Adam update with bias correction. `state` persists per model."""
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


def adagrad_step(
    params: dict, grads: dict, state: dict, lr: float = 0.1, eps: float = 1e-8
) -> None:
    for name, p in params.items():
        g = grads[name]
        acc = state.setdefault("acc_" + name, np.zeros_like(p))
        acc += g * g
        p -= lr * g / (np.sqrt(acc) + eps)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def finite_difference_grads(
    loss_fn: Callable[[], float], params: dict, eps: float = 1e-5, names: Sequence[str] | None = None
) -> dict:
    """Central-difference gradients of loss_fn wrt every entry of params.

    loss_fn must read the arrays in `params` by reference; entries are
    perturbed in place and restored. Use float64 params.
    """
    out = {}
    for name in names if names is not None else params:
        p = params[name]
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            lp = loss_fn()
            flat[j] = orig - eps
            lm = loss_fn()
            flat[j] = orig
            gflat[j] = (lp - lm) / (2 * eps)
        out[name] = g
    return out


def relative_grad_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Norm-ratio error with a small-norm guard for near-zero tensors."""
    num = float(np.linalg.norm(analytic - numeric))
    den = max(float(np.linalg.norm(analytic)) + float(np.linalg.norm(numeric)), 1e-8)
    return num / den


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"PFCKPT01"
CKPT_VERSION = 1
# the dtype strings a checkpoint may store: little-endian floats and ints
CKPT_DTYPES = {
    dt.str.encode(): dt
    for dt in map(np.dtype, ("<f2", "<f4", "<f8", "<i1", "<i2", "<i4", "<i8",
                             "<u1", "<u2", "<u4", "<u8"))
}


def save_checkpoint(path, arrays: dict, meta: dict | None = None) -> None:
    """Deterministic binary dump of named arrays plus a JSON metadata blob.

    Arrays are written little-endian in sorted name order, so identical
    contents produce identical bytes.
    """
    meta_bytes = json.dumps(meta or {}, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<II", CKPT_VERSION, len(meta_bytes)))
        f.write(meta_bytes)
        f.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.asarray(arrays[name])
            le = arr.dtype.newbyteorder("<")
            data = np.ascontiguousarray(arr, dtype=le)
            nb = name.encode()
            dt = le.str.encode()
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(struct.pack("<H", len(dt)))
            f.write(dt)
            f.write(data.tobytes())


def load_checkpoint(path) -> tuple[dict, dict]:
    with open(path, "rb") as f:
        if f.read(len(CKPT_MAGIC)) != CKPT_MAGIC:
            raise TraceFormatError(f"{path}: not a checkpoint file")
        version, meta_len = struct.unpack("<II", read_exact(f, 8, path))
        if version != CKPT_VERSION:
            raise TraceFormatError(f"{path}: unsupported checkpoint version {version}")
        meta = json.loads(read_exact(f, meta_len, path).decode())
        (count,) = struct.unpack("<I", read_exact(f, 4, path))
        arrays = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", read_exact(f, 2, path))
            name = read_exact(f, nlen, path).decode()
            (ndim,) = struct.unpack("<B", read_exact(f, 1, path))
            shape = struct.unpack(f"<{ndim}Q", read_exact(f, 8 * ndim, path)) if ndim else ()
            (dlen,) = struct.unpack("<H", read_exact(f, 2, path))
            offset = f.tell()
            stored = read_exact(f, dlen, path)
            dtype = CKPT_DTYPES.get(stored)
            if dtype is None:
                raise TraceFormatError(
                    f"{path}: unsupported dtype {stored!r} at byte offset {offset}"
                )
            n_bytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if ndim else dtype.itemsize
            arr = np.frombuffer(read_exact(f, n_bytes, path), dtype=dtype).reshape(shape).copy()
            arrays[name] = arr
    return arrays, meta

