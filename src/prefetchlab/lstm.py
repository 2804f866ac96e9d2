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
import os
import struct

import numpy as np

from .errors import ConfigError, TraceFormatError, read_exact


def sigmoid(x: np.ndarray, out=None, e=None) -> np.ndarray:
    """Logistic sigmoid of x, into `out` if given; `e` is an optional
    scratch array shaped like x."""
    # exp of a non-positive argument cannot overflow; per sign this is
    # 1 / (1 + exp(-x)) or exp(x) / (1 + exp(x)), the split-sign formulas
    e = np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1
    out = np.minimum(x, 0, out=out)
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


def _gates(z, b, c_prev, a, c, h, e, ig, tc):
    """Gate math on pre-activations of shape (..., 4H), z = [x | h_prev] @ W.T.

    `z` and `a` come as `_gate_views` of the pre-activations and of the
    array that receives the activations [i | f | g | o]. Adds b to z in
    place and writes c, tanh(c) and h = o * tanh(c) into `c`, `tc` and `h`;
    `e` and `ig` are scratch arrays shaped like z and c.
    """
    (z, _, _, z_g, _), (a, i, f, g, o) = z, a
    z += b
    # one sigmoid pass over all four gates, then tanh over the g slice
    sigmoid(z, a, e)
    np.tanh(z_g, out=g)
    np.multiply(f, c_prev, out=c)
    c += np.multiply(i, g, out=ig)
    np.tanh(c, out=tc)
    np.multiply(o, tc, out=h)


def _gate_views(a):
    """(a, i, f, g, o): a (..., 4H) array and views of its gate slices."""
    H = a.shape[-1] // 4
    return a, a[..., :H], a[..., H : 2 * H], a[..., 2 * H : 3 * H], a[..., 3 * H :]


def lstm_cell_forward(x, h_prev, c_prev, W, b):
    """One step of one layer on a (B, D) batch. Returns (h, c, cache)."""
    xh = np.concatenate([x, h_prev], axis=1)
    z = xh @ W.T
    a = _gate_views(np.empty_like(z))
    c, h, ig, tc = (np.empty(c_prev.shape, dtype=z.dtype) for _ in range(4))
    _gates(_gate_views(z), b, c_prev, a, c, h, np.empty_like(z), ig, tc)
    return h, c, (xh, *a[1:], c_prev, tc)


# multiply-adds one job must do before it goes to the second lane: at batch 1
# the hand-off between threads costs more than the GEMV it moves
LANE_MIN_MACS = 1 << 20
# what OpenBLAS reads, in its order, for its thread count at load time
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_threads() -> int:
    """The threads each BLAS call uses: the first positive count among
    `BLAS_THREAD_VARS`, else one per CPU, as OpenBLAS starts them."""
    for name in BLAS_THREAD_VARS:
        value = os.environ.get(name, "").split(",")[0].strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus()


def _lane_worker(jobs):
    while True:
        _lane_job(*jobs.get()).release()


def _lane_job(fn, calls, out, errors, done):
    # returns before the caller is signalled, so the worker holds no array
    # of a finished call
    try:
        for i, args in calls:
            out[i] = fn(*args)
    except BaseException as e:  # re-raised by the caller
        errors.append(e)
    return done


class Lanes:
    """The calling thread plus one worker thread, for calls whose writes are
    disjoint.

    `run(fn, calls, macs)` returns `[fn(*args) for args in calls]`. When each
    call does at least `LANE_MIN_MACS` multiply-adds, the process may run on
    more than one CPU and BLAS runs one thread per call, the caller runs the
    first call and the worker the rest, in order; numpy releases the
    interpreter lock inside its GEMMs, so the two overlap. A BLAS that
    already spreads each GEMM over the CPUs gains nothing from a second
    lane, and lanes stay off. Every call does what it would do alone, so
    results are bit-identical to the inline loop, which runs otherwise:
    then no thread starts and nothing is imported. The worker starts on
    first use, and again in a forked child, which inherits no threads.
    """

    def __init__(self):
        self._pid = None
        self._jobs = None

    def _worker_jobs(self):
        """The worker's queue, started in this process if need be."""
        if self._pid != os.getpid():
            import queue
            import threading
            self._pid, self._jobs = os.getpid(), queue.SimpleQueue()
            threading.Thread(
                target=_lane_worker, args=(self._jobs,), name="lstm-lane", daemon=True
            ).start()
        return self._jobs

    def run(self, fn, calls, macs):
        if len(calls) < 2 or macs < LANE_MIN_MACS or cpus() < 2 or blas_threads() > 1:
            return [fn(*args) for args in calls]
        import threading
        out, errors, done = [None] * len(calls), [], threading.Lock()
        done.acquire()
        self._worker_jobs().put((fn, list(enumerate(calls))[1:], out, errors, done))
        try:
            out[0] = fn(*calls[0])
        finally:
            # this call's own signal: the worker is done with its arrays
            # before they are returned, freed or raised past
            done.acquire()
        if errors:
            raise errors[0]
        return out


LANES = Lanes()


def zero_states(n_layers: int, batch: int, hidden: int, dtype=np.float64):
    return [
        (np.zeros((batch, hidden), dtype=dtype), np.zeros((batch, hidden), dtype=dtype))
        for _ in range(n_layers)
    ]


def _layer_macs(B, D, H):
    """Multiply-adds of the smallest layer GEMM of a (B, D)-input, H-wide stack."""
    return B * 4 * H * (H + min(D, H))


def _diagonals(T, L, reverse=False):
    """(d, lo, hi) of each diagonal d = t + l of a T-step, L-layer window,
    in order or reversed: layers lo <= l < hi have a cell (d - l, l) on it."""
    ds = range(T + L - 2, -1, -1) if reverse else range(T + L - 1)
    return ((d, max(0, d - T + 1), min(L, d + 1)) for d in ds)


def _xh_views(buf, D, H, L):
    """Per layer l, its [x | h] columns of the window buffer: `views[l][d]`
    is its operand on diagonal d, columns [0, D+H) for l = 0 and
    [D+(l-1)H, D+(l+1)H) above."""
    return [buf[:, :, D + (l - 1) * H if l else 0 : D + (l + 1) * H] for l in range(L)]


def lstm_forward(buf, states, Ws, bs, cache=True):
    """Run a window through the stack in its (T+L, B, D+L*H) buffer `buf`.

    Row d of `buf` is [x_d | h_0(d-1) | ... | h_{L-1}(d-L)]; the caller
    writes the (T, B, D) inputs into `buf[:T, :, :D]`. `states` is a list
    of (h, c) per layer and is not mutated. Returns the top-layer outputs
    (T, B, H), a view of `buf`, the final states (copies), and caches for
    backward: `buf`, the (T+L, L, B, H) cell states, indexed like the h's
    of `buf` (row r, layer l holds c_l(r-l-1)), and the (T*L, B, 4H) gate
    activations, one diagonal's stack after the other (`lstm_backward`
    recomputes tanh(c), bit for bit). With `cache=False` they are None: the
    cell states are then a two-row ring and the activations one diagonal's
    scratch, which is all inference needs; results are unchanged.

    The (time, layer) grid is walked by diagonals d = t + l, whose cells
    do not depend on each other: after each layer's own `[x | h] @ W.T`
    (through `LANES`, which may run them on two threads), their gate math
    runs once on (n, B, 4H) stacks. Each element sees the operations of a
    step-by-step walk in the same order, so results are bit-identical to
    it. All layers share one hidden size H. The diagonal's h stack is
    written once, into row d+1, as both the next step's and the next
    layer's input. Views and scratch arrays are made once per window.
    """
    L, H = len(Ws), Ws[0].shape[0] // 4
    if any(W.shape[0] != 4 * H for W in Ws):
        raise ConfigError("all LSTM layers must share one hidden size")
    T, B, D = len(buf) - L, buf.shape[1], Ws[0].shape[1] - H
    dt, macs = buf.dtype, _layer_macs(B, D, H)
    xh, WT = _xh_views(buf, D, H, L), [W.T for W in Ws]
    hs = buf[:, :, D:].reshape(T + L, B, L, H).swapaxes(1, 2)  # hs[r, l] is h_l(r-l-1)
    cs = np.empty((T + L if cache else 2, L, B, H), dtype=dt)  # cs[r % R, l] is c_l(r-l-1)
    R = len(cs)
    for l, (h, c) in enumerate(states):
        hs[l, l] = h
        cs[l % R, l] = c
    b = np.stack(bs)[:, None, :]
    acts = np.empty((T * L if cache else L, B, 4 * H), dtype=dt)
    z, e = np.empty((2, L, B, 4 * H), dtype=dt)
    ig, tc = np.empty((2, L, B, H), dtype=dt)
    # an n-layer stack's scratch views and, without the cache, activations
    stacks = {n: (_gate_views(z[:n]), e[:n], ig[:n], tc[:n], _gate_views(acts[:n]))
              for n in range(1, L + 1)}
    off = 0  # the diagonal's first row of `acts`
    for d, lo, hi in _diagonals(T, L):
        n = hi - lo
        z_d, e_d, ig_d, tc_d, a_d = stacks[n]
        LANES.run(np.matmul, [(xh[l][d], WT[l], z[l - lo]) for l in range(lo, hi)], macs)
        if cache:
            a_d = _gate_views(acts[off : off + n])
            off += n
        _gates(z_d, b[lo:hi], cs[d % R, lo:hi], a_d, cs[(d + 1) % R, lo:hi],
               hs[d + 1, lo:hi], e_d, ig_d, tc_d)
    finals = [(hs[T + l, l].copy(), cs[(T + l) % R, l].copy()) for l in range(L)]
    return hs[L:, L - 1], finals, (buf, cs, acts) if cache else None


def lstm_backward(dH_top, caches, Ws):
    """Backprop a window; gradients into the initial states are dropped.

    Walks the forward's diagonals in reverse: cell (t, l) takes its
    gradients from (t, l+1) and (t+1, l), both on diagonal d+1, and its
    `[x | h]` from row t+l of the window buffer. The gate gradients of a
    diagonal are computed in one stack; each layer's GEMMs and writes then
    go through `LANES`. Returns (dX, dWs, dbs).
    """
    buf, cs, acts = caches
    T, B, H = dH_top.shape
    L, D = len(Ws), Ws[0].shape[1] - H
    dt, macs = dH_top.dtype, _layer_macs(B, D, H)
    xh = _xh_views(buf, D, H, L)
    dWs = [np.zeros_like(W) for W in Ws]
    dbs = [np.zeros(4 * H, dtype=dt) for _ in Ws]
    dX = np.empty((T, B, D), dtype=dt)
    # per layer, [dx | dh] and dc * f of its cell one step later; zero before
    # its first, t = T-1
    dxh = [np.zeros((B, W.shape[1]), dtype=dt) for W in Ws]
    dh_next = [g[:, -H:] for g in dxh]
    above = [g[:, :H] for g in dxh[1:]]  # dx of the layer above
    dcf = np.zeros((L, B, H), dtype=dt)
    dh, dc, tc, sq = np.empty((4, L, B, H), dtype=dt)
    dz, one_minus_a = np.empty((2, L, B, 4 * H), dtype=dt)
    db = np.empty((L, 4 * H), dtype=dt)
    stacks = {n: (dh[:n], dc[:n], tc[:n], sq[:n], _gate_views(dz[:n]), one_minus_a[:n], db[:n])
              for n in range(1, L + 1)}

    def layer(l, d, dz_l, db_l):
        # the layers of one diagonal write disjoint arrays
        dWs[l] += dz_l.T @ xh[l][d]
        dbs[l] += db_l
        np.matmul(dz_l, Ws[l], out=dxh[l])
        if not l:
            dX[d] = dxh[0][:, :D]

    off = len(acts)
    for d, lo, hi in _diagonals(T, L, reverse=True):
        n = hi - lo
        off -= n
        dh_d, dc_d, tc_d, sq_d, (dz_d, dz_i, dz_f, dz_g, dz_o), oma, db_d = stacks[n]
        a, i, f, g, o = _gate_views(acts[off : off + n])
        c_prev = cs[d, lo:hi]
        np.tanh(cs[d + 1, lo:hi], out=tc_d)
        for l in range(lo, hi):
            np.add(dH_top[d - l] if l == L - 1 else above[l], dh_next[l], out=dh[l - lo])
        np.multiply(dh_d, o, out=dc_d)
        np.multiply(tc_d, tc_d, out=sq_d)
        dc_d *= np.subtract(1.0, sq_d, out=sq_d)
        dc_d += dcf[lo:hi]
        # dz = [di*i*(1-i) | df*f*(1-f) | dg*(1-g*g) | do*o*(1-o)], in this order
        np.multiply(dc_d, g, out=dz_i)
        np.multiply(dc_d, c_prev, out=dz_f)
        np.multiply(dc_d, i, out=dz_g)
        np.multiply(dh_d, tc_d, out=dz_o)
        np.multiply(g, g, out=sq_d)
        np.subtract(1.0, sq_d, out=sq_d)
        sq_d *= dz_g  # dg * (1 - g*g)
        dz_d *= a
        dz_d *= np.subtract(1.0, a, out=oma)
        dz_g[...] = sq_d
        dz_d.sum(axis=1, out=db_d)
        np.multiply(dc_d, f, out=dcf[lo:hi])
        LANES.run(layer, [(l, d, dz[l - lo], db[l - lo]) for l in range(lo, hi)], macs)
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
# loaded tensors start on this byte boundary: OpenBLAS's batch-1 GEMVs run
# ~7% slower on a weight matrix at 16 than at 0 mod 32 bytes, so eval's
# speed would otherwise follow where the heap puts each copy
CKPT_ALIGN = 64


def _aligned_empty(shape, dtype):
    """An uninitialized array whose data starts on a `CKPT_ALIGN` boundary."""
    n_bytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(n_bytes + CKPT_ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % CKPT_ALIGN
    return raw[start : start + n_bytes].view(dtype).reshape(shape)


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
            # checked before anything is allocated: a garbled dimension
            # would otherwise ask for more memory than the file could hold
            n_bytes = math.prod(shape) * dtype.itemsize
            left = os.fstat(f.fileno()).st_size - f.tell()
            if n_bytes > left:
                raise TraceFormatError(f"{path}: tensor {name!r} of shape {shape} needs "
                                       f"{n_bytes} bytes, {left} left in the file")
            arr = _aligned_empty(shape, dtype)
            arr[...] = np.frombuffer(read_exact(f, n_bytes, path), dtype=dtype).reshape(shape)
            arrays[name] = arr
    return arrays, meta

