"""Neural prefetcher models over miss-delta streams.

Two model families share the numpy LSTM core:

- EmbeddingPrefetcher treats prediction as classification over a delta
  vocabulary. Inputs at each miss are the miss PC and the delta that led
  into it, each mapped through a learned embedding table; the label is the
  delta out of the miss. Ablations keep the input width fixed: the single
  remaining embedding widens to 2E.
- ClusterPrefetcher runs one weight-shared LSTM per address cluster with
  separate recurrent state per cluster. Inputs are the normalized delta
  into the miss plus a one-hot cluster id; the softmax head is shared
  across clusters (sized by the largest per-cluster vocabulary) and
  invalid classes are masked out per cluster.

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
MASK_BLOCK = 1 << 16  # elements of mask rows gathered at once


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

    Subclasses provide `_inputs(x, a, b)`, which writes the encoding of
    their two id arrays into `x`, the (T, B, D) input view of the window
    buffer that `run_lstm` allocates per call, and `_mask_loss_logits(logits,
    b)`, which masks the (T*B, C) logits in place or leaves them. They put
    their own input tables into `params` before calling `_init_core`, so
    RNG draws and parameter order follow that order (a `seed` of None draws
    nothing and leaves zeros for `load_weights` to fill). Only training
    keeps the LSTM's backward caches; other forwards run with `cache=False`.
    """

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

    def zero_states(self, batch: int):
        return zero_states(self.layers, batch, self.hidden, self.dtype)

    def run_lstm(self, a, b, states, cache=False):
        """(top-layer outputs, new states, caches) of the LSTM stack alone."""
        Ws = [self.params[f"lstm{l}_W"] for l in range(self.layers)]
        bs = [self.params[f"lstm{l}_b"] for l in range(self.layers)]
        T, B = np.shape(b)
        L, D = self.layers, Ws[0].shape[1] - self.hidden
        buf = np.empty((T + L, B, D + L * self.hidden), dtype=self.dtype)
        self._inputs(buf[:T, :, :D], a, b)
        return lstm_forward(buf, states, Ws, bs, cache=cache)

    def _forward(self, a, b, states, cache=False):
        H_top, new_states, caches = self.run_lstm(a, b, states, cache)
        T, B, H = H_top.shape
        flat = H_top.reshape(T * B, H)
        logits = flat @ self.params["head_W"].T
        logits += self.params["head_b"]
        return logits, flat, new_states, caches

    def _loss_terms(self, a, b, labels, states, cache=False):
        logits, flat, new_states, caches = self._forward(a, b, states, cache)
        self._mask_loss_logits(logits, b)
        # the logits buffer comes back as dlogits
        loss, dlogits, _ = softmax_cross_entropy(logits, np.asarray(labels).reshape(-1))
        return loss, dlogits, flat, new_states, caches

    def loss(self, a, b, labels, states):
        loss, _, _, new_states, _ = self._loss_terms(a, b, labels, states)
        return loss, new_states

    def _core_grads(self, a, b, labels, states):
        """Loss, grads keyed in `params` order (input tables left None),
        dL/d(inputs) (T, B, D) and new states."""
        loss, dlogits, flat, new_states, caches = self._loss_terms(a, b, labels, states, cache=True)
        # in params order: clip_global_norm sums the squares in dict order
        grads = dict.fromkeys(self.params)
        # the head's two gradient GEMMs, on two lanes at a large head; no name
        # is bound to their operands, so `del dlogits` below frees the buffer
        grads["head_W"], dH = LANES.run(
            np.matmul, [(dlogits.T, flat), (dlogits, self.params["head_W"])],
            dlogits.size * self.hidden,
        )
        grads["head_b"] = dlogits.sum(axis=0)
        T, B = np.shape(b)
        dH_top = dH.reshape(T, B, self.hidden)
        # the (T*B, C) head buffer is freed before the LSTM backward runs
        del dlogits
        Ws = [self.params[f"lstm{l}_W"] for l in range(self.layers)]
        dX, dWs, dbs = lstm_backward(dH_top, caches, Ws)
        for l in range(self.layers):
            grads[f"lstm{l}_W"] = dWs[l]
            grads[f"lstm{l}_b"] = dbs[l]
        return loss, grads, dX, new_states


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
        self.n_delta_inputs = n_delta_inputs
        self.n_pcs = n_pcs
        self.n_outputs = n_outputs
        self.hidden = hidden
        self.layers = layers
        self.modality = modality
        self.dtype = np.dtype(dtype)

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

    @property
    def oov_output(self) -> int:
        return self.n_outputs

    def _inputs(self, x, pc_ids, delta_ids):
        if self.e_pc:
            np.take(self.params["emb_pc"], pc_ids, axis=0, out=x[..., : self.e_pc])
        if self.e_delta:
            np.take(self.params["emb_delta"], delta_ids, axis=0, out=x[..., self.e_pc :])

    def _mask_loss_logits(self, logits, delta_ids):
        pass

    def loss_and_grads(self, pc_ids, delta_ids, labels, states):
        loss, grads, dX, new_states = self._core_grads(pc_ids, delta_ids, labels, states)
        off = 0
        tables = (("emb_pc", pc_ids, self.e_pc), ("emb_delta", delta_ids, self.e_delta))
        for name, ids, width in tables:
            if width:
                grads[name] = embedding_grad(self.params[name], ids, dX[..., off : off + width])
                off += width
        return loss, grads, new_states

    def predict_topk(self, pc_ids, delta_ids, states, k: int = 10):
        """Top-k output class ids per position; the OOV class never appears."""
        logits, _, new_states, _ = self._forward(pc_ids, delta_ids, states)
        scores = logits[:, : self.n_outputs]
        T, B = pc_ids.shape
        ids = topk_indices(scores, k).reshape(T, B, -1)
        return ids, new_states


class ClusterPrefetcher(_LstmPrefetcher):
    """Weight-shared LSTM applied per address cluster.

    `vocab_sizes[c]` is the dense output count of cluster c (0 for clusters
    with no training deltas). The shared head has max(vocab_sizes) + 1
    classes; the last one is the shared OOV label. Per-cluster additive
    masks hide classes outside a cluster's vocabulary.
    """

    input_keys = ("norm_delta", "cluster_id")

    def __init__(self, vocab_sizes: list[int], hidden: int = 128, layers: int = 2,
                 dtype=np.float64, seed: int | None = 0):
        if not vocab_sizes:
            raise ConfigError("need at least one cluster")
        self.k = len(vocab_sizes)
        self.vocab_sizes = list(vocab_sizes)
        self.hidden = hidden
        self.layers = layers
        self.dtype = np.dtype(dtype)
        self.head_size = max(vocab_sizes) + 1
        rng = None if seed is None else np.random.default_rng(seed)
        self._init_core({}, rng, 1 + self.k, self.head_size)

        # loss mask allows a cluster's own classes plus the shared OOV slot;
        # the prediction mask additionally hides OOV
        self.loss_mask = np.full((self.k, self.head_size), MASK_NEG, dtype=self.dtype)
        self.pred_mask = np.full((self.k, self.head_size), MASK_NEG, dtype=self.dtype)
        for c, n in enumerate(vocab_sizes):
            self.loss_mask[c, :n] = 0.0
            self.loss_mask[c, -1] = 0.0
            self.pred_mask[c, :n] = 0.0

    @property
    def oov_label(self) -> int:
        return self.head_size - 1

    def shared_label(self, output_ids, cluster: int):
        """Map per-cluster vocab output ids into the shared head."""
        return np.where(output_ids < self.vocab_sizes[cluster], output_ids, self.oov_label)

    def _inputs(self, x, norm_delta, cluster_ids):
        x[..., 0] = norm_delta
        x[..., 1:] = np.eye(self.k, dtype=self.dtype)[cluster_ids]

    @staticmethod
    def _add_mask(logits, mask, cluster_ids):
        """Add each position's row of a (k, C) mask to the (T*B, C) logits in
        place. The rows are gathered a block of time steps at a time, each
        block at most MASK_BLOCK elements or one (B, C) time step, so the
        gather never copies a large head whole; a small head takes one
        gather, where a loop over time steps would cost more than the add."""
        T, B = cluster_ids.shape
        blocks = logits.reshape(T, B, -1)
        step = max(1, MASK_BLOCK // blocks[0].size)
        for t in range(0, T, step):
            blocks[t : t + step] += mask[cluster_ids[t : t + step]]

    def _mask_loss_logits(self, logits, cluster_ids):
        self._add_mask(logits, self.loss_mask, cluster_ids)

    def loss_and_grads(self, norm_delta, cluster_ids, labels, states):
        loss, grads, _, new_states = self._core_grads(norm_delta, cluster_ids, labels, states)
        return loss, grads, new_states

    def predict_topk(self, norm_delta, cluster_ids, states, k: int = 10):
        """Top-k shared-head ids per position; masked-out slots come back -1."""
        scores, _, new_states, _ = self._forward(norm_delta, cluster_ids, states)
        self._add_mask(scores, self.pred_mask, cluster_ids)
        ids = topk_indices(scores, min(k, self.head_size))
        picked = np.take_along_axis(scores, ids, axis=-1)
        ids = np.where(picked > MASK_NEG / 2, ids, -1)
        T, B = cluster_ids.shape
        return ids.reshape(T, B, -1), new_states


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
                         min_input_count: int = 1) -> list[DeltaVocab | None]:
    """The vocabulary of each cluster's training deltas (`train_deltas`) in
    `clustering.cluster_deltas`' split; None where a cluster has none."""
    vocabs: list[DeltaVocab | None] = []
    for idx, deltas in per_cluster:
        ds = train_deltas(idx, deltas, train_len)
        vocabs.append(build_vocab(ds, max_output, min_input_count) if len(ds) else None)
    return vocabs


def cluster_dataset(per_cluster: list, vocabs: list[DeltaVocab | None],
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
        "cluster_id": np.tile(np.arange(k, dtype=np.int64)[:, None], (1, max_len)),
    }
    for c, (idx, raw) in enumerate(per_cluster):
        n_ev = len(raw)
        # the first event's input is the start value 0
        out["norm_delta"][c, 1:n_ev] = normalize_deltas(raw[:-1], norm_params[c])
        if vocabs[c] is not None:
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
    Returns per-step history entries {step, loss, grad_norm}. Raises
    DataError at the first non-finite loss, before it reaches the weights.
    """
    rows, cols = batches["label"].shape
    if cols < 1:
        raise DataError("no training events")
    window = min(cfg.window, cols)
    states = model.zero_states(rows)
    opt_state: dict = {}
    history = []
    pos = 0
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
        # freed now, not when the next step rebinds them after its head, where
        # memory peaks
        del grads
        history.append({"step": step, "loss": loss, "grad_norm": norm})
        pos += window
        if callback is not None and cfg.eval_every and step % cfg.eval_every == 0:
            if callback(step, model):
                break
    return history


# ---------------------------------------------------------------------------
# Model checkpoints
# ---------------------------------------------------------------------------


def save_model(model, path, extra_meta: dict | None = None) -> None:
    """Write parameters plus metadata describing the model's shape."""
    from .lstm import save_checkpoint

    if isinstance(model, EmbeddingPrefetcher):
        base = model.e_pc if model.modality == "both" else max(model.e_pc, model.e_delta) // 2
        meta = {
            "kind": "embedding",
            "n_delta_inputs": model.n_delta_inputs,
            "n_pcs": model.n_pcs,
            "n_outputs": model.n_outputs,
            "hidden": model.hidden,
            "embed": base,
            "layers": model.layers,
            "modality": model.modality,
            "dtype": model.dtype.name,
        }
    elif isinstance(model, ClusterPrefetcher):
        meta = {
            "kind": "cluster",
            "vocab_sizes": model.vocab_sizes,
            "hidden": model.hidden,
            "layers": model.layers,
            "dtype": model.dtype.name,
        }
    else:
        raise ConfigError(f"cannot checkpoint {type(model).__name__}")
    if extra_meta:
        meta.update(extra_meta)
    save_checkpoint(path, model.params, meta)


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


def _prediction_sets(model, rows: dict, tables: list, keep, width: int, k: int,
                     window: int) -> Predictions:
    """The `keep` events of (rows, cols) streams run side by side as batch
    rows, row c's ids decoded through `tables[c]` by one `np.take` per
    window and the rows merged by a stable sort on the timestep. A window
    without a kept event only advances the state; windows are never cut,
    since BLAS rounds a GEMM's rows differently given a subset of them."""
    # all tables in one array, row c's from offset[c]; masked ids read the 0
    offset = np.cumsum([0] + [len(t) for t in tables[:-1]])
    table = np.concatenate(tables + [np.zeros(1, dtype=np.int64)])
    n = int(np.count_nonzero(keep))
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
    return _prediction_sets(model, rows, [table], rows["target_index"] >= test_start,
                            min(k, model.n_outputs), k, window)


def cluster_prediction_sets(model: ClusterPrefetcher, dataset: dict,
                            vocabs: list[DeltaVocab | None], test_start: int, k: int = 10,
                            window: int = 512) -> Predictions:
    """Each cluster's stream from its start, events whose target miss
    index is >= test_start (>= 0) kept, merged in timestep order; padding
    cells carry target index -1."""
    keep = dataset["target_index"] >= test_start
    tables = [np.zeros(0, dtype=np.int64) if v is None else v.deltas[: v.n_output]
              for v in vocabs]
    return _prediction_sets(model, dataset, tables, keep, min(k, model.head_size), k, window)
