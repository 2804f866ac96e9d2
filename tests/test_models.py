import math
import tracemalloc
import weakref
from collections import namedtuple

import numpy as np
import pytest

from prefetchlab.clustering import cluster_deltas
from prefetchlab.errors import ConfigError, DataError
from prefetchlab import lstm, models
from prefetchlab.models import (
    ClusterPrefetcher,
    EmbeddingPrefetcher,
    TrainConfig,
    batchify,
    build_cluster_vocabs,
    cluster_dataset,
    cluster_prediction_sets,
    embedding_dataset,
    embedding_prediction_sets,
    load_weights,
    save_model,
    train_model,
)
from prefetchlab.trace import MissStream
from prefetchlab.vocab import build_pc_vocab, build_vocab, compute_deltas

from oracles import finite_difference_grads, relative_grad_error


Row = namedtuple("Row", "timestep predicted true_delta")


def rows_of(p):
    """A Predictions record's rows as (timestep, set, true delta) Python values."""
    return [Row(t, tuple(row[:n]), d) for t, row, n, d in zip(
        p.timestep.tolist(), p.predicted.tolist(), p.n_predicted.tolist(), p.true_delta.tolist())]


def misses_from_lines(lines, pcs=None):
    lines = np.array(lines, dtype=np.uint64)
    pcs = np.array([0x400000] * len(lines) if pcs is None else pcs, dtype=np.uint64)
    return MissStream(pc=pcs, addr=lines << np.uint64(6), line=lines)


def tiny_embedding_model(seed=0, modality="both", dtype=np.float64):
    return EmbeddingPrefetcher(
        n_delta_inputs=6,
        n_pcs=3,
        n_outputs=5,
        hidden=8,
        embed=4,
        layers=2,
        modality=modality,
        dtype=dtype,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def test_embedding_model_gradcheck():
    rng = np.random.default_rng(0)
    model = tiny_embedding_model(seed=1)
    T, B = 4, 2
    pc = rng.integers(0, 4, size=(T, B))
    din = rng.integers(0, 7, size=(T, B))
    labels = rng.integers(0, 6, size=(T, B))
    labels[1, 0] = -1  # masked position must not break anything
    states = model.zero_states(B)

    _, analytic, _ = model.loss_and_grads(pc, din, labels, states)
    numeric = finite_difference_grads(
        lambda: model.loss(pc, din, labels, model.zero_states(B))[0], model.params, eps=1e-5
    )
    for name in model.params:
        assert relative_grad_error(analytic[name], numeric[name]) < 1e-7, name


@pytest.mark.parametrize("modality", ["delta_only", "pc_only"])
def test_single_modality_gradcheck(modality):
    rng = np.random.default_rng(2)
    model = tiny_embedding_model(seed=3, modality=modality)
    T, B = 3, 2
    pc = rng.integers(0, 4, size=(T, B))
    din = rng.integers(0, 7, size=(T, B))
    labels = rng.integers(0, 6, size=(T, B))
    _, analytic, _ = model.loss_and_grads(pc, din, labels, model.zero_states(B))
    numeric = finite_difference_grads(
        lambda: model.loss(pc, din, labels, model.zero_states(B))[0], model.params, eps=1e-5
    )
    for name in model.params:
        assert relative_grad_error(analytic[name], numeric[name]) < 1e-7, name


def test_cluster_model_gradcheck():
    rng = np.random.default_rng(4)
    model = ClusterPrefetcher(vocab_sizes=[3, 5], hidden=6, layers=2, dtype=np.float64, seed=5)
    T, B = 4, 2  # one batch row per cluster
    nd = rng.normal(size=(T, B))
    labels = np.stack(
        [rng.integers(0, 3, size=T), rng.integers(0, 5, size=T)], axis=1
    )
    labels[2, 0] = model.oov_label  # shared OOV slot is trainable
    labels[3, 1] = -1
    _, analytic, _ = model.loss_and_grads(nd, labels, model.zero_states(B))
    numeric = finite_difference_grads(
        lambda: model.loss(nd, labels, model.zero_states(B))[0], model.params, eps=1e-5
    )
    for name in model.params:
        assert relative_grad_error(analytic[name], numeric[name]) < 1e-7, name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("modality", ["both", "delta_only", "pc_only"])
def test_embedding_grads_bit_equal_to_row_scatter(monkeypatch, dtype, modality):
    """Each table's gradient, one flat scatter of elements, equals the
    row-wise np.add.at of the input gradient's (strided) slice, with ids
    repeated many times in one window."""
    model = EmbeddingPrefetcher(n_delta_inputs=6, n_pcs=3, n_outputs=5, hidden=8, embed=4,
                                modality=modality, dtype=dtype, seed=2)
    rng = np.random.default_rng(7)
    T, B = 16, 8
    pc = rng.integers(0, 4, size=(B, T)).T  # transposed views, as training slices them
    din = rng.integers(0, 7, size=(B, T)).T
    labels = rng.integers(0, 6, size=(T, B))
    captured = []
    core_grads = model._core_grads

    def spy(*args):
        out = core_grads(*args)
        captured.append(out[2])
        return out

    monkeypatch.setattr(model, "_core_grads", spy)
    _, grads, _ = model.loss_and_grads(pc, din, labels, model.zero_states(B))
    (dX,) = captured
    off = 0
    for name, ids, width in (("emb_pc", pc, model.e_pc), ("emb_delta", din, model.e_delta)):
        if not width:
            assert name not in model.params
            continue
        rows = dX[..., off : off + width]
        if model.e_pc and model.e_delta:
            assert not rows.flags.c_contiguous
        ref = np.zeros_like(model.params[name])
        np.add.at(ref, ids.reshape(-1), rows.reshape(-1, width))
        assert grads[name].dtype == ref.dtype == dtype
        assert grads[name].tobytes() == ref.tobytes(), name
        off += width


def test_grads_come_in_params_order():
    # clip_global_norm sums squares in dict order, so the order is part of
    # the bit-exact training contract
    rng = np.random.default_rng(6)
    T, B = 3, 2
    labels = rng.integers(0, 3, size=(T, B))
    for modality in ("both", "delta_only", "pc_only"):
        model = tiny_embedding_model(modality=modality)
        pc = rng.integers(0, 4, size=(T, B))
        din = rng.integers(0, 7, size=(T, B))
        _, grads, _ = model.loss_and_grads(pc, din, labels, model.zero_states(B))
        assert list(grads) == list(model.params)
    model = ClusterPrefetcher(vocab_sizes=[3, 5], hidden=6, layers=2, seed=5)
    _, grads, _ = model.loss_and_grads(rng.normal(size=(T, B)), labels, model.zero_states(B))
    assert list(grads) == list(model.params)


# ---------------------------------------------------------------------------
# Model shapes and behavior
# ---------------------------------------------------------------------------


def embedding_step_case(n_classes, T, B, rng):
    model = EmbeddingPrefetcher(6, 3, n_classes - 1, hidden=8, embed=4, layers=1,
                                dtype=np.float32, seed=0)
    return model, (rng.integers(0, 4, size=(T, B)), rng.integers(0, 7, size=(T, B)))


def cluster_step_case(n_classes, T, B, rng):
    """B clusters, one per batch row."""
    model = ClusterPrefetcher([n_classes - 1] + [5] * (B - 1), hidden=8, layers=1,
                              dtype=np.float32, seed=0)
    return model, (rng.normal(size=(T, B)),)


def test_training_step_holds_one_head_buffer(monkeypatch):
    """Peak traced memory of a step grows by one (T*B, C) buffer per class
    added, not by one per softmax stage or logit mask, and that buffer is
    freed before the LSTM backward runs. Both cases hold T*B = 128 rows;
    the cluster case has one batch row per cluster."""
    small, large = 1001, 4001
    live_at_backward = []
    backward = models.lstm_backward

    def lstm_backward(*args):
        live_at_backward.append(tracemalloc.get_traced_memory()[0])
        return backward(*args)

    monkeypatch.setattr(models, "lstm_backward", lstm_backward)
    for make_case, T, B in ((embedding_step_case, 8, 16), (cluster_step_case, 32, 4)):
        buffer_growth = T * B * (large - small) * np.dtype(np.float32).itemsize
        peaks = []
        live_at_backward.clear()
        for n_classes in (small, large):
            rng = np.random.default_rng(3)
            model, inputs = make_case(n_classes, T, B, rng)
            labels = rng.integers(-1, small, size=(T, B))
            states = model.zero_states(B)
            tracemalloc.start()
            try:
                model.loss_and_grads(*inputs, labels, states)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1.3 * buffer_growth, make_case.__name__
        # only the (C, H) and (C,) head grads may grow with C by then
        assert live_at_backward[1] - live_at_backward[0] <= 0.3 * buffer_growth


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_step_on_lanes_bit_equal_to_inline(monkeypatch, one_blas_thread, dtype, layers):
    """A training step at T = B = 64, D = 256, H = 128, 1k classes gives the
    same loss, gradients (the head's included) and states on two lanes as
    inline."""
    T = B = 64
    model = EmbeddingPrefetcher(50, 4, 1000, hidden=128, embed=128, layers=layers,
                                dtype=dtype, seed=1)
    rng = np.random.default_rng(layers)
    inputs = rng.integers(0, 4, size=(T, B)), rng.integers(0, 50, size=(T, B))
    labels = rng.integers(-1, 1001, size=(T, B))
    steps = []
    for threshold in (float("inf"), 0):
        monkeypatch.setattr(lstm, "LANE_MIN_MACS", threshold)
        steps.append(model.loss_and_grads(*inputs, labels, model.zero_states(B)))
    (loss, grads, states), (loss_ref, grads_ref, states_ref) = steps
    assert loss == loss_ref and list(grads) == list(grads_ref)
    got = [*grads.values(), *(a for state in states for a in state)]
    ref = [*grads_ref.values(), *(a for state in states_ref for a in state)]
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and g.tobytes() == r.tobytes()


def test_lanes_stay_inline_at_cluster_and_eval_shapes(monkeypatch, one_blas_thread):
    """No job goes to the second lane, and so no thread starts, in a
    training step at the cluster workload's shape (3 clusters as batch
    rows, T = 64, H = 64, 21 classes) or in eval's batch-1 forward at
    `pc_table_1k`'s shape (H = E = 128, 1k classes, 512-step windows)."""
    def no_worker():
        raise AssertionError("a lane was asked for below the threshold")

    monkeypatch.setattr(lstm.LANES, "_worker_jobs", no_worker)
    rng = np.random.default_rng(8)
    model = ClusterPrefetcher([20, 20, 20], hidden=64, dtype=np.float32, seed=0)
    model.loss_and_grads(rng.normal(size=(64, 3)), rng.integers(-1, 21, size=(64, 3)),
                         model.zero_states(3))
    model = EmbeddingPrefetcher(1000, 4, 1000, hidden=128, embed=128, dtype=np.float32, seed=0)
    model.predict_topk(rng.integers(0, 4, size=(512, 1)), rng.integers(0, 1000, size=(512, 1)),
                       model.zero_states(1))


def test_modality_widths_are_preserved():
    both = tiny_embedding_model(modality="both")
    donly = tiny_embedding_model(modality="delta_only")
    ponly = tiny_embedding_model(modality="pc_only")
    assert both.params["emb_pc"].shape[1] + both.params["emb_delta"].shape[1] == 8
    assert donly.params["emb_delta"].shape[1] == 8
    assert "emb_pc" not in donly.params
    assert ponly.params["emb_pc"].shape[1] == 8
    assert "emb_delta" not in ponly.params
    # first layer sees the same input width either way
    for m in (both, donly, ponly):
        assert m.params["lstm0_W"].shape == (4 * 8, 8 + 8)


# ---------------------------------------------------------------------------
# Window inputs
# ---------------------------------------------------------------------------


def window_view(model, T, B):
    """The (T, B, D) input view of a NaN-filled window buffer, and the buffer."""
    D = model.params["lstm0_W"].shape[1] - model.hidden
    L, H = model.layers, model.hidden
    buf = np.full((T + L, B, D + L * H), np.nan, dtype=model.dtype)
    return buf[:T, :, :D], buf


@pytest.mark.parametrize("modality", ["both", "delta_only", "pc_only"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_inputs_in_place_equal_gather_and_concatenate(modality, dtype):
    rng = np.random.default_rng(11)
    model = tiny_embedding_model(seed=2, modality=modality, dtype=dtype)
    T, B = 7, 3
    pc = rng.integers(0, 4, size=(T, B))
    din = rng.integers(0, 7, size=(T, B))
    pc[1], din[2] = pc[0], din[0]  # repeated ids
    x, buf = window_view(model, T, B)
    model._inputs(x, pc, din)
    # the construction the in-place lookup replaced
    parts = []
    if model.e_pc:
        parts.append(model.params["emb_pc"][pc])
    if model.e_delta:
        parts.append(model.params["emb_delta"][din])
    want = np.concatenate(parts, axis=-1) if len(parts) > 1 else parts[0]
    assert x.dtype == want.dtype and x.tobytes() == want.tobytes()
    rest = np.ones(buf.shape, dtype=bool)
    rest[:T, :, : x.shape[-1]] = False
    assert np.isnan(buf[rest]).all()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cluster_inputs_in_place_equal_concatenation(k, dtype):
    rng = np.random.default_rng(k)
    model = ClusterPrefetcher([3] * k, hidden=8, layers=2, dtype=dtype, seed=0)
    T, B = 6, k
    norm_delta = rng.normal(size=(T, B)) / 3  # float64, as cluster_dataset builds it
    x, buf = window_view(model, T, B)
    model._inputs(x, norm_delta)
    # the one-hot of each position's cluster id, row b being cluster b
    cluster_ids = np.tile(np.arange(k), (T, 1))
    want = np.concatenate([norm_delta[..., None].astype(model.dtype),
                           np.eye(k, dtype=model.dtype)[cluster_ids]], axis=-1)
    assert x.dtype == want.dtype and x.tobytes() == want.tobytes()
    assert np.isnan(buf[T:]).all() and np.isnan(buf[:, :, 1 + k :]).all()


@pytest.mark.parametrize("table", ["pc", "delta"])
def test_embedding_id_past_its_table_raises(table):
    model = tiny_embedding_model()
    pc = np.zeros((3, 2), dtype=np.int64)
    din = np.zeros((3, 2), dtype=np.int64)
    if table == "pc":
        pc[2, 1] = model.meta["n_pcs"] + 1
    else:
        din[2, 1] = model.meta["n_delta_inputs"] + 1
    with pytest.raises(IndexError):
        model.run_lstm(pc, din, model.zero_states(2))


def test_embedding_step_gathers_inputs_into_the_window_buffer(monkeypatch):
    """Up to the end of the LSTM forward, a training step holds the
    backward caches (the window buffer and the per-diagonal gate and cell
    stacks) and less than one (T, B, D) array besides: the embeddings are
    gathered into the buffer, not into a separate input array."""
    T, B, E = 16, 4, 64
    model = EmbeddingPrefetcher(6, 3, 5, hidden=4, embed=E, layers=2, seed=0)
    rng = np.random.default_rng(5)
    pc, din = rng.integers(0, 4, size=(T, B)), rng.integers(0, 7, size=(T, B))
    labels = rng.integers(0, 6, size=(T, B))
    states = model.zero_states(B)
    forward, seen = models.lstm_forward, []

    def lstm_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        seen.append((tracemalloc.get_traced_memory()[1], out[2]))
        return out

    monkeypatch.setattr(models, "lstm_forward", lstm_forward)
    tracemalloc.start()
    try:
        model.loss_and_grads(pc, din, labels, states)
    finally:
        tracemalloc.stop()
    (peak, caches), = seen
    bases = {}
    stack = [caches]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, np.ndarray):
            while item.base is not None:
                item = item.base
            bases[id(item)] = item.nbytes
    input_bytes = T * B * 2 * E * np.dtype(model.dtype).itemsize
    assert peak - sum(bases.values()) < input_bytes


def test_unknown_modality_rejected():
    with pytest.raises(ConfigError):
        tiny_embedding_model(modality="neither")


def test_embedding_oov_rows_exist():
    model = tiny_embedding_model()
    assert model.params["emb_delta"].shape[0] == 7  # 6 + OOV
    assert model.params["emb_pc"].shape[0] == 4  # 3 + OOV
    assert model.params["head_W"].shape[0] == 6  # 5 + OOV


def test_predict_topk_never_emits_oov():
    model = tiny_embedding_model()
    # force the OOV logit to dominate
    model.params["head_b"][:] = 0.0
    model.params["head_b"][model.oov_output] = 100.0
    pc = np.zeros((3, 2), dtype=np.int64)
    din = np.zeros((3, 2), dtype=np.int64)
    ids, _ = model.predict_topk(pc, din, model.zero_states(2), k=10)
    assert ids.shape == (3, 2, 5)
    assert np.all(ids != model.oov_output)
    assert np.all(ids < model.n_outputs)


def test_cluster_predict_respects_masks():
    model = ClusterPrefetcher(vocab_sizes=[2, 5], hidden=6, layers=1, seed=0)
    nd = np.zeros((2, 2))
    ids, _ = model.predict_topk(nd, model.zero_states(2), k=10)
    # cluster 0 has only 2 valid classes; the rest of its top-10 is padded with -1
    row0 = ids[0, 0]
    assert set(row0[row0 >= 0].tolist()) == {0, 1}
    assert np.sum(row0 >= 0) == 2
    row1 = ids[0, 1]
    assert np.sum(row1 >= 0) == 5
    assert np.all(row1[row1 >= 0] < 5)
    # shared OOV slot never shows up
    assert model.oov_label not in ids


@pytest.mark.parametrize("rows", [1, 2, 4])
def test_cluster_batch_of_other_than_k_rows_raises(rows):
    """Row c of a cluster batch is cluster c, so a batch has k rows."""
    model = ClusterPrefetcher(vocab_sizes=[2, 5, 3], hidden=4, layers=1, seed=0)
    nd = np.zeros((5, rows))
    labels = np.zeros((5, rows), dtype=np.int64)
    with pytest.raises(DataError, match="k = 3; got %d rows" % rows):
        model.loss_and_grads(nd, labels, model.zero_states(rows))
    with pytest.raises(DataError, match="k = 3"):
        model.predict_topk(nd, model.zero_states(rows))
    with pytest.raises(DataError, match="k = 3"):
        train_model(model, {"norm_delta": np.zeros((rows, 8)), "label": np.zeros((rows, 8))},
                    TrainConfig(steps=1, window=4))


def test_cluster_shared_label_mapping():
    model = ClusterPrefetcher(vocab_sizes=[2, 5], hidden=4, layers=1)
    assert model.head_size == 6
    assert model.shared_label(1, 0) == 1
    assert model.shared_label(2, 0) == model.oov_label  # cluster-0 OOV id is 2
    assert model.shared_label(4, 1) == 4
    assert model.shared_label(5, 1) == model.oov_label
    assert model.shared_label(np.array([0, 1, 2]), 0).tolist() == [0, 1, model.oov_label]


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def test_embedding_dataset_construction():
    lines = [100, 101, 103, 104, 110]
    pcs = [0xA, 0xB, 0xA, 0xB, 0xA]
    misses = misses_from_lines(lines, pcs)
    deltas = compute_deltas(misses.line)  # 1, 2, 1, 6
    vocab = build_vocab(deltas, max_output=2, min_input_count=1)
    pc_vocab = build_pc_vocab(misses.pc)
    ds = embedding_dataset(misses, vocab, pc_vocab)

    assert len(ds["label"]) == 4
    assert ds["delta_raw"].tolist() == [1, 2, 1, 6]
    # event 0 starts with the OOV input token
    assert ds["delta_in"][0] == vocab.oov_input
    assert ds["delta_in"][1:].tolist() == vocab.encode_input([1, 2, 1]).tolist()
    assert ds["label"].tolist() == vocab.encode_output([1, 2, 1, 6]).tolist()
    assert ds["label"][3] == vocab.oov_output  # 6 fell outside max_output=2
    assert ds["pc"].tolist() == pc_vocab.encode([0xA, 0xB, 0xA, 0xB]).tolist()
    assert ds["timestep"].tolist() == [0, 1, 2, 3]
    assert ds["target_index"].tolist() == [1, 2, 3, 4]


def test_build_cluster_vocabs_train_only():
    lines = [0, 1, 3, 1000, 1002, 6]
    misses = misses_from_lines(lines)
    assignments = np.array([0, 0, 0, 1, 1, 0])
    vocabs = build_cluster_vocabs(cluster_deltas(misses.line, assignments, 2), train_len=5,
                                  min_input_count=1)
    # cluster 0 train deltas: 1, 2 (the delta 3->6 has its target at index 5)
    assert sorted(vocabs[0].deltas[: vocabs[0].n_input].tolist()) == [1, 2]
    assert sorted(vocabs[1].deltas[: vocabs[1].n_input].tolist()) == [2]


def test_build_cluster_vocabs_empty_cluster():
    misses = misses_from_lines([0, 1, 2])
    assignments = np.array([0, 0, 0])
    vocabs = build_cluster_vocabs(cluster_deltas(misses.line, assignments, 1), train_len=3,
                                  min_input_count=1)
    assert len(vocabs) == 1
    lone = build_cluster_vocabs(
        cluster_deltas(misses_from_lines([0, 1_000_000, 1]).line, np.array([0, 1, 0]), 2),
        train_len=3,
        min_input_count=1,
    )
    # single miss, no deltas: a vocabulary with no classes
    assert lone[1].n_input == lone[1].n_output == 0
    assert lone[1].encode_output(np.array([5, -1])).tolist() == [0, 0]


def test_cluster_dataset_construction():
    lines = [100, 5000, 102, 5003, 105]
    misses = misses_from_lines(lines)
    per_cluster = cluster_deltas(misses.line, np.array([0, 1, 0, 1, 0]), 2)
    vocabs = build_cluster_vocabs(per_cluster, train_len=5, min_input_count=1)
    model = ClusterPrefetcher(
        vocab_sizes=[v.n_output for v in vocabs], hidden=4, layers=1, seed=0
    )
    norms = np.array([[0.0, 1.0], [0.0, 1.0]])
    ds = cluster_dataset(per_cluster, vocabs, norms, model)

    assert ds["label"].shape == (2, 2)
    assert (ds["target_index"] >= 0).sum(axis=1).tolist() == [2, 1]
    # cluster 0: deltas 2 (100->102), 3 (102->105); first input is the start value 0
    assert ds["delta_raw"][0].tolist() == [2, 3]
    assert ds["norm_delta"][0].tolist() == [0.0, 2.0]
    assert ds["target_index"][0].tolist() == [2, 4]
    assert ds["timestep"][0].tolist() == [0, 2]
    # cluster 1 is shorter; padding carries label, target index and timestep -1
    assert ds["delta_raw"][1, 0] == 3
    assert ds["label"][1, 1] == ds["target_index"][1, 1] == ds["timestep"][1, 1] == -1
    # a row's cluster is its index, so no column names it
    assert sorted(ds) == ["delta_raw", "label", "norm_delta", "target_index", "timestep"]


def test_batchify_contiguous_rows():
    arrays = {"a": np.arange(10)}
    out = batchify(arrays, 3)
    assert out["a"].tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    with pytest.raises(DataError):
        batchify(arrays, 11)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def test_train_model_learns_constant_successor():
    # delta class 0 is always followed by class 1 and vice versa
    n = 4096
    din = np.tile(np.array([0, 1], dtype=np.int64), n // 2)
    labels = np.roll(din, -1)
    pcs = np.zeros(n, dtype=np.int64)
    model = EmbeddingPrefetcher(
        n_delta_inputs=2, n_pcs=1, n_outputs=2, hidden=8, embed=4, layers=1, seed=0
    )
    batches = batchify({"pc": pcs, "delta_in": din, "label": labels}, 8)
    history = train_model(model, batches, TrainConfig(steps=300, window=32, lr=3e-3))
    assert len(history) == 300
    assert history[-1]["loss"] < 0.05
    assert history[-1]["loss"] < history[0]["loss"] / 10


def test_history_counts_each_steps_labelled_positions():
    # two windows a pass: the first has 3 labels, the second none
    labels = np.full((2, 8), -1, dtype=np.int64)
    labels[0, :3] = 1
    batches = {"pc": np.zeros((2, 8), dtype=np.int64), "delta_in": np.zeros((2, 8), dtype=np.int64),
               "label": labels}
    model = EmbeddingPrefetcher(n_delta_inputs=2, n_pcs=1, n_outputs=2, hidden=4, embed=2,
                                layers=1, seed=0)
    params = []  # after each step
    history = train_model(
        model, batches, TrainConfig(steps=4, window=4, eval_every=1),
        callback=lambda step, m: params.append({n: p.copy() for n, p in m.params.items()}),
    )
    assert [entry["n_labelled"] for entry in history] == [3, 0, 3, 0]
    assert history[1]["loss"] == history[3]["loss"] == 0.0 < history[0]["loss"]
    # an unlabelled step's zero gradients still move Adam's weights
    assert any(not np.array_equal(p, params[0][name]) for name, p in params[1].items())


def test_train_model_stops_on_non_finite_loss():
    n = 256
    din = np.tile(np.array([0, 1], dtype=np.int64), n // 2)
    model = EmbeddingPrefetcher(
        n_delta_inputs=2, n_pcs=1, n_outputs=2, hidden=8, embed=4, layers=1, seed=0
    )
    model.params["head_b"][1] = np.nan
    before = {name: p.copy() for name, p in model.params.items()}
    batches = batchify({"pc": np.zeros(n, dtype=np.int64), "delta_in": din,
                        "label": np.roll(din, -1)}, 8)
    with pytest.raises(DataError, match="at step 1"):
        train_model(model, batches, TrainConfig(steps=5, window=16))
    for name, p in model.params.items():
        assert np.array_equal(p, before[name], equal_nan=True), name


@pytest.mark.skipif(lstm.blas_threads() is None, reason="numpy links no OpenBLAS")
def test_train_model_gives_back_the_callers_blas_threads():
    """Training runs at one OpenBLAS thread and gives the caller's count
    back after a normal run and after a non-finite loss."""
    din = np.tile(np.array([0, 1], dtype=np.int64), 128)
    model = EmbeddingPrefetcher(
        n_delta_inputs=2, n_pcs=1, n_outputs=2, hidden=8, embed=4, layers=1, seed=0
    )
    batches = batchify({"pc": np.zeros(256, dtype=np.int64), "delta_in": din,
                        "label": np.roll(din, -1)}, 8)
    seen = []
    callers = lstm.blas_threads(set_to=3)
    try:
        train_model(model, batches, TrainConfig(steps=2, window=16, eval_every=1),
                    callback=lambda step, m: seen.append(lstm.blas_threads()))
        assert seen == [1, 1]
        assert lstm.blas_threads() == 3
        model.params["head_b"][1] = np.nan
        with pytest.raises(DataError, match="non-finite training loss"):
            train_model(model, batches, TrainConfig(steps=2, window=16))
        assert lstm.blas_threads() == 3
    finally:
        lstm.blas_threads(set_to=callers)


def test_train_model_without_openblas_runs_inline_and_sets_no_threads(monkeypatch):
    """Where the lookup finds no OpenBLAS, a step large enough for two lanes
    (B = 64, D = H = 64, two layers, 201 classes) runs inline, and no thread
    count is set: inside the loop the library still runs the caller's two."""
    def no_worker():
        raise AssertionError("a lane was asked for")

    assert lstm._layer_macs(64, 64, 64) >= lstm.LANE_MIN_MACS
    rng = np.random.default_rng(4)
    model = EmbeddingPrefetcher(50, 4, 200, hidden=64, embed=32, layers=2, dtype=np.float32,
                                seed=0)
    batches = {"pc": rng.integers(0, 4, size=(64, 8)), "delta_in": rng.integers(0, 50, size=(64, 8)),
               "label": rng.integers(-1, 201, size=(64, 8))}
    real, seen = lstm._openblas(), []
    callers = lstm.blas_threads(set_to=2)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(lstm, "_openblas", lambda: None)
            patch.setattr(lstm.LANES, "_worker_jobs", no_worker)
            train_model(model, batches, TrainConfig(steps=2, window=8, eval_every=1),
                        callback=lambda step, m: seen.append(real and real[0]()))
    finally:
        lstm.blas_threads(set_to=callers)
    assert seen == ([2, 2] if real else [None, None])


def test_train_model_callback_stops_early():
    n = 512
    din = np.zeros(n, dtype=np.int64)
    labels = np.zeros(n, dtype=np.int64)
    pcs = np.zeros(n, dtype=np.int64)
    model = EmbeddingPrefetcher(
        n_delta_inputs=1, n_pcs=1, n_outputs=1, hidden=4, embed=2, layers=1, seed=0
    )
    batches = batchify({"pc": pcs, "delta_in": din, "label": labels}, 4)
    calls = []

    def cb(step, m):
        calls.append(step)
        return len(calls) >= 2

    history = train_model(
        model, batches, TrainConfig(steps=100, window=16, eval_every=5), callback=cb
    )
    assert calls == [5, 10]
    assert len(history) == 10


@pytest.mark.parametrize("optimizer", ["adam", "adagrad"])
def test_train_model_frees_gradients_before_the_next_step(optimizer):
    # weak references see the gradient arrays themselves, so the optimizer
    # state allocated in step 1, which lives on, does not count
    n = 256
    din = np.tile(np.array([0, 1], dtype=np.int64), n // 2)
    model = EmbeddingPrefetcher(
        n_delta_inputs=2, n_pcs=1, n_outputs=2, hidden=8, embed=4, layers=1, seed=0
    )
    batches = batchify({"pc": np.zeros(n, dtype=np.int64), "delta_in": din,
                        "label": np.roll(din, -1)}, 4)
    real, grads_of_step, alive_at_entry = model.loss_and_grads, [], []

    def tracked(*args):
        alive_at_entry.append([name for refs in grads_of_step for name, ref in refs.items()
                               if ref() is not None])
        loss, grads, states = real(*args)
        grads_of_step.append({name: weakref.ref(g) for name, g in grads.items()})
        return loss, grads, states

    model.loss_and_grads = tracked
    train_model(model, batches, TrainConfig(steps=3, window=16, optimizer=optimizer))
    assert len(grads_of_step) == 3 and len(grads_of_step[0]) == len(model.params)
    assert alive_at_entry == [[], [], []]


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(steps=1, optimizer="sgd")
    cfg = TrainConfig(steps=1, optimizer="adagrad")
    assert cfg.lr == 0.1
    assert TrainConfig(steps=1).lr == 1e-3


def test_train_adagrad_path_runs():
    n = 256
    din = np.zeros(n, dtype=np.int64)
    model = EmbeddingPrefetcher(
        n_delta_inputs=1, n_pcs=1, n_outputs=1, hidden=4, embed=2, layers=1, seed=0
    )
    batches = batchify(
        {"pc": din.copy(), "delta_in": din, "label": din.copy()}, 4
    )
    history = train_model(model, batches, TrainConfig(steps=5, window=16, optimizer="adagrad"))
    assert len(history) == 5
    assert np.isfinite(history[-1]["loss"])


# ---------------------------------------------------------------------------
# Prediction sets
# ---------------------------------------------------------------------------


def test_embedding_prediction_sets_cover_test_region():
    lines = list(range(100, 200))  # constant delta 1
    misses = misses_from_lines(lines)
    vocab = build_vocab(compute_deltas(misses.line), max_output=5, min_input_count=1)
    pc_vocab = build_pc_vocab(misses.pc)
    model = EmbeddingPrefetcher(
        n_delta_inputs=vocab.n_input,
        n_pcs=pc_vocab.n_pcs,
        n_outputs=vocab.n_output,
        hidden=4,
        embed=2,
        layers=1,
        seed=0,
    )
    ds = embedding_dataset(misses, vocab, pc_vocab)
    sets = rows_of(embedding_prediction_sets(model, ds, vocab, test_start=70, k=3))
    # events with target index 70..99
    assert len(sets) == 30
    assert sets[0].timestep == 69
    assert all(len(s.predicted) == 1 for s in sets)  # single-class vocab
    assert all(s.true_delta == 1 for s in sets)


def test_cluster_prediction_sets_respect_test_start_and_vocab():
    lines = [100, 5000, 102, 5003, 105, 5009, 107, 5013, 111, 5020]
    misses = misses_from_lines(lines)
    per_cluster = cluster_deltas(misses.line, np.array([0, 1] * 5), 2)
    vocabs = build_cluster_vocabs(per_cluster, train_len=len(misses), min_input_count=1)
    model = ClusterPrefetcher(
        vocab_sizes=[v.n_output for v in vocabs], hidden=4, layers=1, seed=0
    )
    norms = np.array([[0.0, 1.0], [0.0, 1.0]])
    ds = cluster_dataset(per_cluster, vocabs, norms, model)
    sets = rows_of(cluster_prediction_sets(model, ds, vocabs, test_start=0, k=10))
    assert len(sets) == 8  # 10 misses, 2 clusters -> 8 within-cluster events
    # all predicted deltas decode into the right cluster's vocabulary
    for s in sets:
        assert all(isinstance(p, int) for p in s.predicted)
    # restricting the test region drops early-target events
    late = rows_of(cluster_prediction_sets(model, ds, vocabs, test_start=7, k=10))
    assert 0 < len(late) < len(sets)
    assert sorted(s.timestep for s in late) == [s.timestep for s in late]


def per_event_prediction_sets(model, dataset, vocabs, test_start, k, window):
    """The decoding before lookup arrays: every event and id one at a time
    through a class-id -> delta dict, `vocabs` holding one vocab per row."""
    decode = [dict(enumerate(v.deltas[: v.n_output].tolist())) for v in vocabs]
    if isinstance(model, ClusterPrefetcher):
        ds = dataset
    else:  # one row holding the whole stream
        ds = {key: a.reshape(1, -1) for key, a in dataset.items()}
    rows, cols = ds["label"].shape
    states = model.zero_states(rows)
    out = []
    for lo in range(0, cols, window):
        hi = min(lo + window, cols)
        inputs = [ds[key][:, lo:hi].T for key in model.input_keys]
        ids, states = model.predict_topk(*inputs, states, k)
        for c in range(rows):
            for t in range(lo, hi):
                # padding cells of a cluster row carry target index -1
                if ds["target_index"][c, t] < test_start or ds["target_index"][c, t] < 0:
                    continue
                preds = tuple(decode[c][int(i)] for i in ids[t - lo, c] if i >= 0)
                out.append(Row(int(ds["timestep"][c, t]), preds, int(ds["delta_raw"][c, t])))
    out.sort(key=lambda s: s.timestep)
    return out


def test_prediction_sets_equal_per_event_decoding():
    rng = np.random.default_rng(21)
    lines = np.cumsum(rng.choice([1, 2, 5, -3, 40], size=300)) + 10_000
    # cluster 2 gets a single training miss and so a vocabulary with no classes
    assignments = np.array([0, 1] * 140 + [2] + [0, 1] * 9 + [2])
    misses = misses_from_lines(lines, pcs=rng.integers(0, 4, 300))
    per_cluster = cluster_deltas(misses.line, assignments, 3)
    vocabs = build_cluster_vocabs(per_cluster, train_len=281, min_input_count=1)
    assert vocabs[2].n_output == 0
    model = ClusterPrefetcher([v.n_output for v in vocabs], hidden=6, layers=2, seed=4)
    norms = np.array([[0.0, 4.0], [0.0, 4.0], [0.0, 1.0]])
    ds = cluster_dataset(per_cluster, vocabs, norms, model)
    for test_start, k, window in ((210, 10, 512), (0, 3, 7), (250, 2, 1)):
        got = rows_of(cluster_prediction_sets(model, ds, vocabs, test_start, k, window))
        assert got == per_event_prediction_sets(model, ds, vocabs, test_start, k, window)

    vocab = build_vocab(compute_deltas(misses.line[:210]), max_output=3, min_input_count=2)
    pc_vocab = build_pc_vocab(misses.pc[:210])
    model = EmbeddingPrefetcher(vocab.n_input, pc_vocab.n_pcs, vocab.n_output,
                                hidden=6, embed=3, layers=2, seed=5)
    ds = embedding_dataset(misses, vocab, pc_vocab)
    for test_start, k, window in ((210, 10, 512), (0, 2, 7)):
        got = rows_of(embedding_prediction_sets(model, ds, vocab, test_start, k, window))
        assert got == per_event_prediction_sets(model, ds, [vocab], test_start, k, window)


def test_warm_up_windows_skip_the_head(monkeypatch):
    # windows holding no kept event only advance the state; the sets must
    # equal a reference that runs predict_topk on every window
    rng = np.random.default_rng(22)
    lines = np.cumsum(rng.choice([1, 2, 5, -3, 40], size=300)) + 10_000
    misses = misses_from_lines(lines, pcs=rng.integers(0, 4, 300))
    vocab = build_vocab(compute_deltas(misses.line[:210]), max_output=4, min_input_count=2)
    pc_vocab = build_pc_vocab(misses.pc[:210])
    emb = EmbeddingPrefetcher(vocab.n_input, pc_vocab.n_pcs, vocab.n_output,
                              hidden=6, embed=3, layers=2, seed=6)
    emb_ds = embedding_dataset(misses, vocab, pc_vocab)
    per_cluster = cluster_deltas(misses.line, np.arange(300) % 3, 3)
    vocabs = build_cluster_vocabs(per_cluster, train_len=210, min_input_count=1)
    clu = ClusterPrefetcher([v.n_output for v in vocabs], hidden=6, layers=2, seed=7)
    clu_ds = cluster_dataset(per_cluster, vocabs, np.array([[0.0, 4.0]] * 3), clu)
    # the first kept column is 210 for the embedding model at test_start
    # 211 and 69 for the cluster model at 210: on a window boundary for
    # windows of 30 and 23, mid-window for windows of 40 and 30
    cases = [(emb, emb_ds, vocab, 211, 210, 30), (emb, emb_ds, vocab, 211, 210, 40),
             (clu, clu_ds, vocabs, 210, 69, 23), (clu, clu_ds, vocabs, 210, 69, 30)]
    for model, ds, vs, test_start, first, window in cases:
        rows = ds["label"].reshape(-1, ds["label"].shape[-1])
        kept = ds["target_index"].reshape(rows.shape) >= test_start
        assert np.nonzero(kept.any(axis=0))[0][0] == first
        real, calls = model.predict_topk, []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(model, "predict_topk", counted)
        sets_fn = embedding_prediction_sets if model is emb else cluster_prediction_sets
        got = rows_of(sets_fn(model, ds, vs, test_start, 3, window))
        monkeypatch.undo()
        assert len(calls) == math.ceil(rows.shape[1] / window) - first // window
        ref_vocabs = [vs] if model is emb else vs
        assert got == per_event_prediction_sets(model, ds, ref_vocabs, test_start, 3, window)


def test_prediction_sets_keep_no_backward_caches():
    """Inference drops each diagonal's activations: from window 64 to 512
    the traced peak grows by far less than the 448 extra diagonals' caches
    would take, (a, c_prev, tanh(c)) being 6H floats per row and layer."""
    rng = np.random.default_rng(5)
    n, H, L = 1537, 32, 2
    lines = np.cumsum(rng.choice([1, 2, 5, -3, 40], size=n)) + 10_000
    misses = misses_from_lines(lines, pcs=rng.integers(0, 4, n))
    vocab = build_vocab(compute_deltas(misses.line), max_output=5, min_input_count=1)
    pc_vocab = build_pc_vocab(misses.pc)
    emb = EmbeddingPrefetcher(vocab.n_input, pc_vocab.n_pcs, vocab.n_output, hidden=H,
                              embed=2, layers=L, seed=0)
    per_cluster = cluster_deltas(misses.line, np.arange(n) % 3, 3)
    vocabs = build_cluster_vocabs(per_cluster, train_len=n, min_input_count=1)
    clu = ClusterPrefetcher([v.n_output for v in vocabs], hidden=H, layers=L, seed=1)
    cases = [
        (embedding_prediction_sets, emb, embedding_dataset(misses, vocab, pc_vocab), vocab, 1),
        (cluster_prediction_sets, clu,
         cluster_dataset(per_cluster, vocabs, np.array([[0.0, 4.0]] * 3), clu), vocabs, 3),
    ]
    for sets_fn, model, ds, vs, rows in cases:
        peaks = []
        for window in (64, 512):
            tracemalloc.start()
            try:
                sets = sets_fn(model, ds, vs, 0, 3, window)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del sets
        cache_growth = (512 - 64) * L * rows * 6 * H * np.dtype(model.dtype).itemsize
        assert peaks[1] - peaks[0] <= 0.5 * cache_growth, sets_fn.__name__


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_embedding_model_checkpoint_roundtrip(tmp_path):
    model = tiny_embedding_model(seed=9, dtype=np.float32)
    path = tmp_path / "m.bin"
    save_model(model, path, {"note": "hi"})
    loaded = tiny_embedding_model(seed=10, dtype=np.float32)
    meta = load_weights(loaded, path)
    assert meta["kind"] == "embedding"
    assert meta["note"] == "hi"
    assert loaded.meta == model.meta
    assert list(loaded.params) == list(model.params)
    for name in model.params:
        assert np.array_equal(loaded.params[name], model.params[name])
    pc = np.zeros((2, 1), dtype=np.int64)
    din = np.ones((2, 1), dtype=np.int64)
    a, _ = model.predict_topk(pc, din, model.zero_states(1), k=3)
    b, _ = loaded.predict_topk(pc, din, loaded.zero_states(1), k=3)
    assert np.array_equal(a, b)


# the metadata block that save_model wrote before each model kept its own
# record: moving the record into the models must change no byte of model.bin
PINNED_META = {
    "both": b'{"config_hash":"ab","dtype":"float32","embed":4,"hidden":8,"kind":"embedding",'
            b'"layers":1,"modality":"both","n_delta_inputs":5,"n_outputs":4,"n_pcs":3,"n_train":7}',
    "delta_only": b'{"config_hash":"ab","dtype":"float32","embed":4,"hidden":8,'
                  b'"kind":"embedding","layers":1,"modality":"delta_only","n_delta_inputs":5,'
                  b'"n_outputs":4,"n_pcs":3,"n_train":7}',
    "pc_only": b'{"config_hash":"ab","dtype":"float32","embed":4,"hidden":8,"kind":"embedding",'
               b'"layers":1,"modality":"pc_only","n_delta_inputs":5,"n_outputs":4,"n_pcs":3,'
               b'"n_train":7}',
    "cluster": b'{"config_hash":"ab","dtype":"float64","hidden":8,"kind":"cluster","layers":2,'
               b'"n_train":7,"vocab_sizes":[3,0,2]}',
}


@pytest.mark.parametrize("kind", sorted(PINNED_META))
def test_checkpoint_meta_block_is_pinned(tmp_path, kind):
    if kind == "cluster":
        model = ClusterPrefetcher([3, 0, 2], hidden=8, layers=2, dtype=np.float64, seed=0)
    else:
        model = EmbeddingPrefetcher(5, 3, 4, hidden=8, embed=4, layers=1, modality=kind,
                                    dtype=np.float32, seed=0)
    path = tmp_path / "m.bin"
    save_model(model, path, {"config_hash": "ab", "n_train": 7})
    data = path.read_bytes()
    at = len(lstm.CKPT_MAGIC) + 8  # past the magic, the version and the meta length
    (meta_len,) = np.frombuffer(data, dtype="<u4", count=1, offset=at - 4)
    assert data[at : at + meta_len] == PINNED_META[kind]


@pytest.mark.parametrize("modality", ["delta_only", "pc_only"])
def test_single_modality_checkpoint_roundtrip(tmp_path, modality):
    model = tiny_embedding_model(seed=4, modality=modality)
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = tiny_embedding_model(seed=5, modality=modality)
    load_weights(loaded, path)
    assert loaded.meta["modality"] == modality
    assert loaded.e_pc == model.e_pc and loaded.e_delta == model.e_delta
    for name in model.params:
        assert np.array_equal(loaded.params[name], model.params[name])


def test_cluster_model_checkpoint_roundtrip(tmp_path):
    model = ClusterPrefetcher(vocab_sizes=[3, 7, 2], hidden=5, layers=2, seed=1)
    path = tmp_path / "c.bin"
    save_model(model, path)
    loaded = ClusterPrefetcher(vocab_sizes=[3, 7, 2], hidden=5, layers=2, seed=2)
    meta = load_weights(loaded, path)
    assert meta["kind"] == "cluster"
    assert loaded.vocab_sizes == [3, 7, 2]
    assert loaded.head_size == model.head_size
    for name in model.params:
        assert np.array_equal(loaded.params[name], model.params[name])


@pytest.mark.parametrize("build", [
    lambda seed: tiny_embedding_model(seed=seed, dtype=np.float32),
    lambda seed: ClusterPrefetcher(vocab_sizes=[3, 7, 2], hidden=5, layers=2, seed=seed),
])
def test_seed_none_builds_placeholders_for_load_weights(tmp_path, build):
    """seed=None draws nothing: each tensor has the seeded model's name,
    shape and dtype, holds only zeros (the forget biases aside), and
    load_weights fills it with the saved tensors."""
    model, placeholder = build(0), build(None)
    assert list(placeholder.params) == list(model.params)
    for name, p in placeholder.params.items():
        assert (p.shape, p.dtype) == (model.params[name].shape, model.params[name].dtype)
        assert not np.any(p) or name.endswith("_b"), name
    save_model(model, tmp_path / "m.bin")
    load_weights(placeholder, tmp_path / "m.bin")
    for name, p in model.params.items():
        assert np.array_equal(placeholder.params[name], p)


def test_load_weights_rejects_mismatched_checkpoints(tmp_path):
    def saved(name, params):
        model = tiny_embedding_model()
        model.params = params
        path = tmp_path / name
        save_model(model, path)
        return path

    good = tiny_embedding_model(seed=3).params
    extra = dict(good, emb_extra=np.zeros((2, 2)))
    missing = {name: p for name, p in good.items() if name != "emb_pc"}
    wrong_shape = dict(good, head_b=np.zeros(7))
    wrong_dtype = dict(good, head_W=good["head_W"].astype(np.float32))
    for name, params, match in (
        ("extra.bin", extra, r"unexpected \['emb_extra'\], missing \[\]"),
        ("missing.bin", missing, r"unexpected \[\], missing \['emb_pc'\]"),
        ("shape.bin", wrong_shape, r"head_b is float64\[7\].*float64\[6\]"),
        ("dtype.bin", wrong_dtype, r"head_W is float32\[6, 8\].*float64\[6, 8\]"),
    ):
        path = saved(name, params)
        model = tiny_embedding_model()
        before = {key: p.copy() for key, p in model.params.items()}
        with pytest.raises(ConfigError, match=match) as exc:
            load_weights(model, path)
        assert name in str(exc.value)
        for key, p in model.params.items():  # nothing half-loaded
            assert np.array_equal(p, before[key]), (name, key)
    load_weights(tiny_embedding_model(), saved("good.bin", good))
