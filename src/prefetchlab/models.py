"""Neural prefetcher models over miss-delta streams.

Two model families share the numpy LSTM core:

- EmbeddingPrefetcher treats prediction as classification over a delta
  vocabulary. Inputs at each miss are the miss PC and the delta that led
  into it, each mapped through a learned embedding table; the label is the
  delta out of the miss. Ablations keep the input width fixed: the single
  remaining embedding widens to 2E.
- ClusterPrefetcher runs one weight-shared LSTM per address cluster with
  separate recurrent state per cluster: batch row c is cluster c's stream.
  Inputs are the normalized delta into the miss plus the one-hot of its
  row; the softmax head is shared across clusters (sized by the largest
  per-cluster vocabulary) and invalid classes are masked out per row.

Both models keep a trainable out-of-vocabulary output class that is never
emitted as a prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .eval import Predictions
from .lstm import (
    LANES,
    adagrad_step,
    adam_step,
    blas_threads,
    clip_global_norm,
    lstm_backward,
    lstm_forward,
    lstm_layer_init,
    softmax_cross_entropy,
    topk_indices,
    uniform_init,
    zero_states,
)
from .clustering import normalize_deltas, train_deltas
from .trace import MissStream
from .vocab import DeltaVocab, build_vocab

MASK_NEG = -1e30  # additive logit mask for classes a cluster cannot emit


def embedding_grad(table, ids, d_rows):
    """Dense gradient of `table` for the lookup `table[ids]` whose output
    gradient is `d_rows` (ids.shape + (E,), any strides).

    One 1-D `np.add.at` over element indices id * E + j: the same
    in-order accumulation per element as a row-wise `np.add.at(g, ids,
    rows)`, on numpy's 1-D fast path instead of one dispatch per row."""
    E = table.shape[1]
    g = np.zeros_like(table)
    flat_ids = (ids.reshape(-1, 1) * E + np.arange(E)).reshape(-1)
    np.add.at(g.reshape(-1), flat_ids, d_rows.reshape(-1))
    return g


class _LstmPrefetcher:
    """Stacked LSTM plus softmax head over per-position input vectors.

    Every method takes a window's (T, B) input arrays in `input_keys`
    order. Subclasses provide `_inputs(x, *inputs)`, which writes their
    encoding into `x`, the (T, B, D) input view of the window buffer that
    `run_lstm` allocates per call, and may override `_mask_logits`, whose
    mask the loss, training and prediction all see.
    They put their own input tables into `params` before calling
    `_init_core`, so RNG draws and parameter order follow that order (a
    `seed` of None draws nothing and leaves zeros for `load_weights` to
    fill). Only training keeps the LSTM's backward caches; other forwards
    run with `cache=False`. Each subclass also builds its own
    `training_batches` and `prediction_sets`.
    """

    def __init__(self, meta: dict, hidden: int, layers: int, dtype):
        self.hidden, self.layers, self.dtype = hidden, layers, np.dtype(dtype)
        # the constructor arguments, the record that save_model writes
        self.meta = {**meta, "hidden": hidden, "layers": layers, "dtype": self.dtype.name}

    def _init_core(self, params: dict, rng, input_dim: int, n_classes: int) -> None:
        dim = input_dim
        for l in range(self.layers):
            params[f"lstm{l}_W"], params[f"lstm{l}_b"] = lstm_layer_init(
                dim, self.hidden, rng, self.dtype
            )
            dim = self.hidden
        scale = 1.0 / np.sqrt(self.hidden)
        params["head_W"] = uniform_init((n_classes, self.hidden), scale, rng, self.dtype)
        params["head_b"] = np.zeros(n_classes, dtype=self.dtype)
        self.params = params
        self.oov_label = n_classes - 1  # the head's last class: trained, never predicted

    def zero_states(self, batch: int):
        return zero_states(self.layers, batch, self.hidden, self.dtype)

    def run_lstm(self, *args, cache=False):
        """(top-layer outputs, new states, caches) of the LSTM stack alone;
        `args` are the inputs, then the states."""
        *inputs, states = args
        Ws = [self.params[f"lstm{l}_W"] for l in range(self.layers)]
        bs = [self.params[f"lstm{l}_b"] for l in range(self.layers)]
        T, B = np.shape(inputs[0])
        L, D = self.layers, Ws[0].shape[1] - self.hidden
        buf = np.empty((T + L, B, D + L * self.hidden), dtype=self.dtype)
        self._inputs(buf[:T, :, :D], *inputs)
        return lstm_forward(buf, states, Ws, bs, cache=cache)

    def _forward(self, inputs, states, cache=False):
        H_top, new_states, caches = self.run_lstm(*inputs, states, cache=cache)
        T, B, H = H_top.shape
        flat = H_top.reshape(T * B, H)
        logits = flat @ self.params["head_W"].T
        logits += self.params["head_b"]
        self._mask_logits(logits)
        return logits, flat, new_states, caches

    def _mask_logits(self, logits):
        """Mask the (T*B, C) logits in place; no mask here."""

    def loss(self, *args):
        """(loss, new states) of the inputs, then the labels and the states."""
        *inputs, labels, states = args
        logits, _, new_states, _ = self._forward(inputs, states)
        return softmax_cross_entropy(logits, np.asarray(labels).reshape(-1))[0], new_states

    def _core_grads(self, inputs, labels, states):
        """Loss, grads keyed in `params` order (input tables left None), new
        states and dL/d(inputs) (T, B, D)."""
        # the one name on the (T*B, C) head buffer, which the loss turns into dlogits
        dlogits, flat, new_states, caches = self._forward(inputs, states, cache=True)
        loss, dlogits, _ = softmax_cross_entropy(dlogits, np.asarray(labels).reshape(-1))
        # in params order: clip_global_norm sums the squares in dict order
        grads = dict.fromkeys(self.params)
        # the head's two gradient GEMMs, on two lanes at a large head; no name
        # is bound to their operands, so `del dlogits` below frees the buffer
        grads["head_W"], dH = LANES.run(
            np.matmul, [(dlogits.T, flat), (dlogits, self.params["head_W"])],
            dlogits.size * self.hidden,
        )
        grads["head_b"] = dlogits.sum(axis=0)
        dH_top = dH.reshape(*np.shape(labels), self.hidden)
        # the (T*B, C) head buffer is freed before the LSTM backward runs
        del dlogits
        Ws = [self.params[f"lstm{l}_W"] for l in range(self.layers)]
        dX, dWs, dbs = lstm_backward(dH_top, caches, Ws)
        for l in range(self.layers):
            grads[f"lstm{l}_W"] = dWs[l]
            grads[f"lstm{l}_b"] = dbs[l]
        return loss, grads, new_states, dX

    def _topk(self, inputs, states, k):
        """(T, B, min(k, C - 1)) top-k class ids per position and the new
        states. The OOV class is never scored; a masked-out slot comes back -1."""
        logits, _, new_states, _ = self._forward(inputs, states)
        scores = logits[:, :-1]
        ids = topk_indices(scores, k)
        picked = np.take_along_axis(scores, ids, axis=-1)
        ids = np.where(picked > MASK_NEG / 2, ids, -1)
        return ids.reshape(*np.shape(inputs[0]), -1), new_states


class EmbeddingPrefetcher(_LstmPrefetcher):
    """Stacked LSTM over embedded (pc, input delta) pairs.

    `modality` is one of "both", "delta_only", "pc_only". Sizes passed in
    are dense class counts; one extra embedding row / output class is
    allocated for OOV. Weights init uniform(+-1/sqrt(hidden)).
    """

    input_keys = ("pc", "delta_in")

    def __init__(self, n_delta_inputs: int, n_pcs: int, n_outputs: int, hidden: int = 128,
                 embed: int = 64, layers: int = 2, modality: str = "both", dtype=np.float64,
                 seed: int | None = 0):
        if modality not in ("both", "delta_only", "pc_only"):
            raise ConfigError(f"unknown modality {modality!r}")
        super().__init__({"kind": "embedding", "n_delta_inputs": n_delta_inputs, "n_pcs": n_pcs,
                          "n_outputs": n_outputs, "embed": embed, "modality": modality},
                         hidden, layers, dtype)
        e_pc, e_delta = {
            "both": (embed, embed),
            "pc_only": (2 * embed, 0),
            "delta_only": (0, 2 * embed),
        }[modality]
        self.e_pc, self.e_delta = e_pc, e_delta

        rng = None if seed is None else np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(hidden)
        p: dict[str, np.ndarray] = {}
        if e_pc:
            p["emb_pc"] = uniform_init((n_pcs + 1, e_pc), scale, rng, self.dtype)
        if e_delta:
            p["emb_delta"] = uniform_init((n_delta_inputs + 1, e_delta), scale, rng, self.dtype)
        self._init_core(p, rng, e_pc + e_delta, n_outputs + 1)

    def training_batches(self, dataset: dict, n_train: int, batch: int) -> dict:
        """The events whose target miss is before `n_train`, in `batch` rows."""
        in_train = dataset["target_index"] < n_train
        return batchify({key: dataset[key][in_train] for key in (*self.input_keys, "label")}, batch)

    def prediction_sets(self, dataset: dict, vocab: DeltaVocab, test_start: int, k: int):
        return embedding_prediction_sets(self, dataset, vocab, test_start, k)

    def _inputs(self, x, pc_ids, delta_ids):
        if self.e_pc:
            np.take(self.params["emb_pc"], pc_ids, axis=0, out=x[..., : self.e_pc])
        if self.e_delta:
            np.take(self.params["emb_delta"], delta_ids, axis=0, out=x[..., self.e_pc :])

    def loss_and_grads(self, pc_ids, delta_ids, labels, states):
        loss, grads, new_states, dX = self._core_grads((pc_ids, delta_ids), labels, states)
        off = 0
        tables = (("emb_pc", pc_ids, self.e_pc), ("emb_delta", delta_ids, self.e_delta))
        for name, ids, width in tables:
            if width:
                grads[name] = embedding_grad(self.params[name], ids, dX[..., off : off + width])
                off += width
        return loss, grads, new_states

    def predict_topk(self, pc_ids, delta_ids, states, k: int = 10):
        """Top-k output class ids per position (`_topk`)."""
        return self._topk((pc_ids, delta_ids), states, k)


class ClusterPrefetcher(_LstmPrefetcher):
    """Weight-shared LSTM applied per address cluster.

    `vocab_sizes[c]` is the dense output count of cluster c (0 for a
    cluster whose vocabulary has no classes). A batch has k rows, row c
    being cluster c's stream. The shared head has max(vocab_sizes) + 1
    classes; the last one is the shared OOV label. A per-cluster additive
    mask hides classes outside a cluster's vocabulary.
    """

    input_keys = ("norm_delta",)

    def __init__(self, vocab_sizes: list[int], hidden: int = 128, layers: int = 2,
                 dtype=np.float64, seed: int | None = 0):
        if not vocab_sizes:
            raise ConfigError("need at least one cluster")
        self.k, self.vocab_sizes = len(vocab_sizes), list(vocab_sizes)
        super().__init__({"kind": "cluster", "vocab_sizes": self.vocab_sizes},
                         hidden, layers, dtype)
        self.head_size = max(vocab_sizes) + 1
        rng = None if seed is None else np.random.default_rng(seed)
        self._init_core({}, rng, 1 + self.k, self.head_size)

        # row c leaves cluster c's own classes and the shared OOV slot open
        self.mask = np.full((self.k, self.head_size), MASK_NEG, dtype=self.dtype)
        for c, n in enumerate(vocab_sizes):
            self.mask[c, :n] = 0.0
            self.mask[c, -1] = 0.0

    def shared_label(self, output_ids, cluster: int):
        """Map per-cluster vocab output ids into the shared head."""
        return np.where(output_ids < self.vocab_sizes[cluster], output_ids, self.oov_label)

    def training_batches(self, dataset: dict, n_train: int, batch: int) -> dict:
        """The dataset's k rows, one per cluster, as every cluster batch is
        (`batch` is unused); targets from `n_train` on carry no label."""
        batches = {key: dataset[key] for key in self.input_keys}
        batches["label"] = np.where(dataset["target_index"] < n_train, dataset["label"], -1)
        return batches

    def prediction_sets(self, dataset: dict, vocabs: list, test_start: int, k: int):
        return cluster_prediction_sets(self, dataset, vocabs, test_start, k)

    def _inputs(self, x, norm_delta):
        if x.shape[1] != self.k:
            raise DataError(f"a cluster batch has one row per cluster, k = {self.k}; "
                            f"got {x.shape[1]} rows")
        x[..., 0] = norm_delta
        x[..., 1:] = np.eye(self.k, dtype=self.dtype)

    def _mask_logits(self, logits):
        rows = logits.reshape(-1, self.k, self.head_size)
        rows += self.mask

    def loss_and_grads(self, norm_delta, labels, states):
        return self._core_grads((norm_delta,), labels, states)[:3]

    def predict_topk(self, norm_delta, states, k: int = 10):
        """Top-k shared-head ids per position (`_topk`)."""
        return self._topk((norm_delta,), states, k)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def embedding_dataset(misses: MissStream, delta_vocab: DeltaVocab, pc_vocab) -> dict:
    """Per-event arrays for the embedding model.

    Event t covers the transition miss t -> miss t+1: the input delta is
    the one leading into miss t (OOV start token for t=0), the label is
    the delta out of it. A stream of L misses yields L-1 events.
    """
    from .vocab import compute_deltas

    raw = compute_deltas(misses.line)
    delta_in = np.empty(len(raw), dtype=np.int64)
    delta_in[0] = delta_vocab.oov_input
    delta_in[1:] = delta_vocab.encode_input(raw[:-1])
    ts = np.arange(len(raw), dtype=np.int64)
    return {
        "pc": pc_vocab.encode(misses.pc[:-1]),
        "delta_in": delta_in,
        "label": delta_vocab.encode_output(raw),
        "delta_raw": raw,
        "timestep": ts,
        "target_index": ts + 1,
    }


def build_cluster_vocabs(per_cluster: list, train_len: int, max_output: int = 50_000,
                         min_input_count: int = 1) -> list[DeltaVocab]:
    """The vocabulary of each cluster's training deltas (`train_deltas`) in
    `clustering.cluster_deltas`' split; one with no classes where a cluster has none."""
    return [build_vocab(train_deltas(idx, deltas, train_len), max_output, min_input_count)
            for idx, deltas in per_cluster]


def cluster_dataset(per_cluster: list, vocabs: list[DeltaVocab],
                    norm_params: np.ndarray, model: ClusterPrefetcher) -> dict:
    """Padded (k, max_len) arrays, one row per cluster of `per_cluster`.

    Row c holds cluster c's within-cluster events in order; the cells past
    a cluster's last event carry label, target_index and timestep -1.
    """
    k = model.k
    max_len = max((len(raw) for _, raw in per_cluster), default=0)
    out = {
        "norm_delta": np.zeros((k, max_len), dtype=np.float64),
        "label": np.full((k, max_len), -1, dtype=np.int64),
        "delta_raw": np.zeros((k, max_len), dtype=np.int64),
        "target_index": np.full((k, max_len), -1, dtype=np.int64),
        "timestep": np.full((k, max_len), -1, dtype=np.int64),
    }
    for c, (idx, raw) in enumerate(per_cluster):
        n_ev = len(raw)
        # the first event's input is the start value 0
        out["norm_delta"][c, 1:n_ev] = normalize_deltas(raw[:-1], norm_params[c])
        out["label"][c, :n_ev] = model.shared_label(vocabs[c].encode_output(raw), c)
        out["delta_raw"][c, :n_ev] = raw
        out["target_index"][c, :n_ev] = idx[1:]
        out["timestep"][c, :n_ev] = idx[:-1]
    return out


def batchify(arrays: dict, batch: int) -> dict:
    """Cut each 1-D array into `batch` contiguous rows, trimming the tail."""
    n = len(next(iter(arrays.values())))
    if batch < 1 or batch > n:
        raise DataError(f"batch {batch} out of range for {n} events")
    cols = n // batch
    return {name: a[: batch * cols].reshape(batch, cols) for name, a in arrays.items()}


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    steps: int
    window: int = 64
    optimizer: str = "adam"
    lr: float | None = None
    clip: float = 5.0
    eval_every: int = 0

    def __post_init__(self):
        if self.optimizer not in ("adam", "adagrad"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.lr is None:
            self.lr = 1e-3 if self.optimizer == "adam" else 0.1


def train_model(model, batches: dict, cfg: TrainConfig, callback=None) -> list[dict]:
    """Truncated-BPTT training over (rows, cols) batched arrays.

    Windows advance along columns with recurrent state carried between
    them; state resets when the data wraps. `callback(step, model)` runs
    every `eval_every` steps and stops training by returning True.
    Returns per-step history entries {step, loss, grad_norm, n_labelled};
    a step with no labelled position has loss 0 and still moves Adam. Raises
    DataError at the first non-finite loss, before it reaches the weights.
    OpenBLAS runs one thread in the loop and gets the caller's count back after.
    """
    rows, cols = batches["label"].shape
    if cols < 1:
        raise DataError("no training events")
    window = min(cfg.window, cols)
    states = model.zero_states(rows)
    opt_state: dict = {}
    history = []
    pos = 0
    threads = blas_threads(set_to=1)
    try:
        for step in range(1, cfg.steps + 1):
            if pos + window > cols:
                pos = 0
                states = model.zero_states(rows)
            sl = slice(pos, pos + window)
            inputs = [batches[key][:, sl].T for key in model.input_keys]
            labels = batches["label"][:, sl].T
            loss, grads, states = model.loss_and_grads(*inputs, labels, states)
            if not math.isfinite(loss):
                raise DataError(f"non-finite training loss {loss} at step {step}")
            norm = clip_global_norm(grads, cfg.clip)
            if cfg.optimizer == "adam":
                adam_step(model.params, grads, opt_state, lr=cfg.lr)
            else:
                adagrad_step(model.params, grads, opt_state, lr=cfg.lr)
            # freed now, not when the next step rebinds them after its head,
            # where memory peaks
            del grads
            history.append({"step": step, "loss": loss, "grad_norm": norm,
                            "n_labelled": int(np.count_nonzero(labels >= 0))})
            pos += window
            if callback is not None and cfg.eval_every and step % cfg.eval_every == 0:
                if callback(step, model):
                    break
    finally:
        blas_threads(set_to=threads)
    return history


# ---------------------------------------------------------------------------
# Model checkpoints
# ---------------------------------------------------------------------------


def save_model(model, path, extra_meta: dict | None = None) -> None:
    """Write parameters plus the model's `meta` record, `extra_meta` merged over it."""
    from .lstm import save_checkpoint

    save_checkpoint(path, model.params, {**model.meta, **(extra_meta or {})})


def load_weights(model, path) -> dict:
    """Copy a checkpoint's tensors into `model`; returns its metadata.

    The model must be built exactly as the one that was saved: a tensor
    name, shape or dtype that differs raises ConfigError naming the file.
    """
    from .lstm import load_checkpoint

    arrays, meta = load_checkpoint(path)
    stored, built = set(arrays), set(model.params)
    if stored != built:
        raise ConfigError(
            f"{path}: checkpoint tensors do not match the model built from the config "
            f"(unexpected {sorted(stored - built)}, missing {sorted(built - stored)})"
        )
    for name, p in model.params.items():
        arr = arrays[name]
        if arr.shape != p.shape or arr.dtype != p.dtype:
            raise ConfigError(
                f"{path}: tensor {name} is {arr.dtype.name}{list(arr.shape)}, the model built "
                f"from the config has {p.dtype.name}{list(p.shape)}"
            )
    model.params.update(arrays)  # same names, so the order stays
    return meta


# ---------------------------------------------------------------------------
# Prediction set assembly
# ---------------------------------------------------------------------------


def _prediction_sets(model, rows: dict, tables: list, keep, k: int, window: int) -> Predictions:
    """The `keep` events of (rows, cols) streams run side by side as batch
    rows, row c's ids decoded through `tables[c]` by one `np.take` per
    window and the rows merged by a stable sort on the timestep. A window
    without a kept event only advances the state; windows are never cut,
    since BLAS rounds a GEMM's rows differently given a subset of them."""
    # all tables in one array, row c's from offset[c]; masked ids read the 0
    offset = np.cumsum([0] + [len(t) for t in tables[:-1]])
    table = np.concatenate(tables + [np.zeros(1, dtype=np.int64)])
    n = int(np.count_nonzero(keep))
    width = min(k, model.oov_label)  # every head class but OOV
    out = Predictions(*(np.empty(shape, dtype=np.int64) for shape in (n, (n, width), n, n)))
    states = model.zero_states(len(keep))
    at = 0
    for lo in range(0, keep.shape[1], window):
        inputs = [rows[key][:, lo : lo + window].T for key in model.input_keys]
        t, c = np.nonzero(keep[:, lo : lo + window].T)
        if not len(t):
            states = model.run_lstm(*inputs, states)[1]
            continue
        ids, states = model.predict_topk(*inputs, states, k)
        ids = ids[t, c]
        valid = ids >= 0
        kept = slice(at, at + len(t))
        out.timestep[kept] = rows["timestep"][c, lo + t]
        out.true_delta[kept] = rows["delta_raw"][c, lo + t]
        # topk orders the scores descending, so a row's masked slots (-1)
        # come after all of its valid ids
        out.n_predicted[kept] = np.count_nonzero(valid, axis=1)
        ids += offset[c, None]
        ids[~valid] = len(table) - 1
        np.take(table, ids, out=out.predicted[kept])
        at += len(t)
    return out[np.argsort(out.timestep, kind="stable")]


def embedding_prediction_sets(model: EmbeddingPrefetcher, dataset: dict, delta_vocab: DeltaVocab,
                              test_start: int, k: int = 10, window: int = 512) -> Predictions:
    """Stream the full event sequence (warm state) and keep events whose
    target miss index is >= test_start."""
    rows = {key: a.reshape(1, -1) for key, a in dataset.items()}
    table = delta_vocab.deltas[: delta_vocab.n_output]
    return _prediction_sets(model, rows, [table], rows["target_index"] >= test_start, k, window)


def cluster_prediction_sets(model: ClusterPrefetcher, dataset: dict,
                            vocabs: list[DeltaVocab], test_start: int, k: int = 10,
                            window: int = 512) -> Predictions:
    """Each cluster's stream from its start, events whose target miss
    index is >= test_start (>= 0) kept, merged in timestep order; padding
    cells carry target index -1."""
    keep = dataset["target_index"] >= test_start
    tables = [v.deltas[: v.n_output] for v in vocabs]
    return _prediction_sets(model, dataset, tables, keep, k, window)
