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

import numpy as np

from .errors import ConfigError, TraceFormatError, read_exact


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


def uniform_init(shape, scale: float, rng, dtype=np.float64) -> np.ndarray:
    """uniform(-scale, scale) draws from the Generator `rng`, or zeros if it is None."""
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    return rng.uniform(-scale, scale, size=shape).astype(dtype)


def lstm_layer_init(
    input_dim: int, hidden: int, rng: np.random.Generator | None, dtype=np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """Combined (4H, D+H) weight and (4H,) bias, forget slice at 1.0."""
    scale = 1.0 / np.sqrt(hidden)
    W = uniform_init((4 * hidden, input_dim + hidden), scale, rng, dtype)
    b = np.zeros(4 * hidden, dtype=dtype)
    b[hidden : 2 * hidden] = 1.0
    return W, b


def _gates(z, b, c_prev):
    """Gate math on pre-activations z = [x | h_prev] @ W.T of shape (..., 4H).

    Adds b to z in place. Returns the activations [i | f | g | o], c,
    tanh(c) and h.
    """
    H = c_prev.shape[-1]
    z += b
    # one sigmoid pass over all four gates, then tanh over the g slice
    a = sigmoid(z)
    np.tanh(z[..., 2 * H : 3 * H], out=a[..., 2 * H : 3 * H])
    i, f, g, o = _split(a)
    c = f * c_prev
    c += i * g
    tc = np.tanh(c)
    return a, c, tc, o * tc


def _split(a):
    """Views [i, f, g, o] of the gate slices of (..., 4H) activations."""
    H = a.shape[-1] // 4
    return [a[..., k * H : (k + 1) * H] for k in range(4)]


def lstm_cell_forward(x, h_prev, c_prev, W, b):
    """One step of one layer on a (B, D) batch. Returns (h, c, cache)."""
    xh = np.concatenate([x, h_prev], axis=1)
    a, c, tc, h = _gates(xh @ W.T, b, c_prev)
    return h, c, (xh, *_split(a), c_prev, tc)


def zero_states(n_layers: int, batch: int, hidden: int, dtype=np.float64):
    return [
        (np.zeros((batch, hidden), dtype=dtype), np.zeros((batch, hidden), dtype=dtype))
        for _ in range(n_layers)
    ]


def lstm_forward(buf, states, Ws, bs, cache=True):
    """Run a window through the stack in its (T+L, B, D+L*H) buffer `buf`.

    Row d of `buf` is [x_d | h_0(d-1) | ... | h_{L-1}(d-L)]; the caller
    writes the (T, B, D) inputs into `buf[:T, :, :D]`. `states` is a list
    of (h, c) per layer and is not mutated. Returns the top-layer outputs
    (T, B, H), a view of `buf`, the final states (copies), and caches for
    backward: `buf` and each diagonal's gate activations, c_prev and c
    (`lstm_backward` recomputes tanh(c), bit for bit). With `cache=False`
    they are None and each diagonal's activations are dropped once the next
    has read them, which is all inference needs; results are unchanged.

    The (time, layer) grid is walked by diagonals d = t + l, whose cells
    do not depend on each other: after each layer's own `[x | h] @ W.T`,
    their gate math runs once on (n, B, 4H) stacks. Each element sees the
    operations of a step-by-step walk in the same order, so results are
    bit-identical to it. All layers share one hidden size H. On diagonal d
    layer l's `[x | h]` is one slice of row d (columns [0, D+H) for l = 0,
    [D+(l-1)H, D+(l+1)H) above), and the diagonal's h stack is stored once,
    in row d+1, as both the next step's and the next layer's input.
    """
    L, H = len(Ws), Ws[0].shape[0] // 4
    if any(W.shape[0] != 4 * H for W in Ws):
        raise ConfigError("all LSTM layers must share one hidden size")
    T, B, D = len(buf) - L, buf.shape[1], Ws[0].shape[1] - H
    cols = [slice(D + (l - 1) * H if l else 0, D + (l + 1) * H) for l in range(L)]
    hs = buf[:, :, D:].reshape(T + L, B, L, H)  # hs[r, :, l] is h_l(r-l-1)
    for l, (h, _) in enumerate(states):
        hs[l, :, l] = h
    b = np.stack(bs)[:, None, :]
    c0 = np.stack([s[1] for s in states])
    c = c0[:0]  # the previous diagonal's c stack
    diagonals, c_final = [], []
    for d in range(T + L - 1):
        lo, hi = max(0, d - T + 1), min(L, d + 1)
        z = np.empty((hi - lo, B, 4 * H), dtype=buf.dtype)
        for l in range(lo, hi):
            np.matmul(buf[d, :, cols[l]], Ws[l].T, out=z[l - lo])
        # the layer that reached t = T-1 drops out (d >= T); layer d starts (d < L)
        c_prev = c[lo - max(0, d - T) :]
        if d < L:
            c_prev = np.concatenate((c_prev, c0[d : d + 1]))
        a, c, tc, h = _gates(z, b[lo:hi], c_prev)
        hs[d + 1, :, lo:hi] = h.swapaxes(0, 1)
        if cache:
            diagonals.append((lo, a, c_prev, c))
        if d >= T - 1:
            c_final.append(c[0].copy())
    finals = [(hs[T + l, :, l].copy(), cl) for l, cl in enumerate(c_final)]
    return hs[L:, :, L - 1], finals, (buf, diagonals) if cache else None


def lstm_backward(dH_top, caches, Ws):
    """Backprop a window; gradients into the initial states are dropped.

    Walks the forward's diagonals in reverse: cell (t, l) takes its
    gradients from (t, l+1) and (t+1, l), both on diagonal d+1, and its
    `[x | h]` from row t+l of the window buffer. Returns (dX, dWs, dbs).
    """
    buf, diagonals = caches
    T, B, H = dH_top.shape
    L, D = len(Ws), Ws[0].shape[1] - H
    cols = [slice(D + (l - 1) * H if l else 0, D + (l + 1) * H) for l in range(L)]
    dWs = [np.zeros_like(W) for W in Ws]
    dbs = [np.zeros(4 * H, dtype=dH_top.dtype) for _ in Ws]
    zero = np.zeros((1, B, H), dtype=dH_top.dtype)
    dh_next, d_above = [zero[0]] * L, [None] * L
    dc_next = zero[:0]  # dc * f of the diagonal after this one
    dX = np.empty((T, B, D), dtype=dH_top.dtype)

    for d in range(T + L - 2, -1, -1):
        lo, a, c_prev, c = diagonals[d]
        hi = lo + len(a)
        tc = np.tanh(c)
        dh = np.empty((hi - lo, B, H), dtype=dH_top.dtype)
        for l in range(lo, hi):
            above = dH_top[d - l] if l == L - 1 else d_above[l]
            np.add(above, dh_next[l], out=dh[l - lo])
        i, f, g, o = _split(a)
        dc = dh * o
        dc *= 1.0 - tc * tc
        # layer lo starts its walk back from t = T-1 when d >= T-1
        dc_in = dc_next[: hi - max(0, d + 2 - T)]
        dc += np.concatenate((zero, dc_in)) if d >= T - 1 else dc_in
        # dz = [di*i*(1-i) | df*f*(1-f) | dg*(1-g*g) | do*o*(1-o)], in this order
        dg = dc * i
        dz = np.concatenate((dc * g, dc * c_prev, dg, dh * tc), axis=-1)
        dg *= 1.0 - g * g
        dz *= a
        dz *= 1.0 - a
        dz[..., 2 * H : 3 * H] = dg
        db = dz.sum(axis=1)
        dc_next = dc * f
        for l in range(lo, hi):
            dWs[l] += dz[l - lo].T @ buf[d, :, cols[l]]
            dbs[l] += db[l - lo]
            dxh = dz[l - lo] @ Ws[l]
            dh_next[l] = dxh[:, -H:]
            if l:
                d_above[l - 1] = dxh[:, :-H]
            else:
                dX[d] = dxh[:, :-H]
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
    """In-place Adam update with bias correction. `state` persists per model.

    Evaluates m += (1-b1)(g-m), v += (1-b2)(g*g-v), then
    p -= lr * m/(1-b1^t) / (sqrt(v/(1-b2^t)) + eps), each operation on the
    same operands in the same order as written, through two temporaries
    per parameter; `grads` is left as it was.
    """
    state["t"] = state.get("t", 0) + 1
    t = state["t"]
    for name, p in params.items():
        g = grads[name]
        m = state.setdefault("m_" + name, np.zeros_like(p))
        v = state.setdefault("v_" + name, np.zeros_like(p))
        step = np.subtract(g, m)
        step *= 1 - beta1
        m += step
        np.multiply(g, g, out=step)
        step -= v
        step *= 1 - beta2
        v += step
        den = np.divide(v, 1 - beta2**t)
        np.sqrt(den, out=den)
        den += eps
        np.divide(m, 1 - beta1**t, out=step)
        step *= lr
        step /= den
        p -= step


def adagrad_step(
    params: dict, grads: dict, state: dict, lr: float = 0.1, eps: float = 1e-8
) -> None:
    """In-place Adagrad: acc += g*g, p -= lr*g / (sqrt(acc) + eps), in that
    operation order, through two temporaries per parameter."""
    for name, p in params.items():
        g = grads[name]
        acc = state.setdefault("acc_" + name, np.zeros_like(p))
        step = np.multiply(g, g)
        acc += step
        den = np.sqrt(acc)
        den += eps
        np.multiply(g, lr, out=step)
        step /= den
        p -= step


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"PFCKPT01"
CKPT_VERSION = 1
# the dtype strings a checkpoint may store: little-endian floats and ints
CKPT_DTYPES = {
    dt.str.encode(): dt
    for dt in map(np.dtype, ("<f4", "<f8", "<i1", "<i2", "<i4", "<i8",
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

