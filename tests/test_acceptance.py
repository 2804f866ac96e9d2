"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s or check the captured
output on failure). The slow model-training checks share session fixtures
so the trace of the learnability test is reused by the ablation test.
"""

import math
import time

import numpy as np
import pytest

from prefetchlab import baselines, cachesim, clustering, models, trace, vocab as vocab_mod
from prefetchlab.eval import precision_at_k, recall_at_k, split_index
from prefetchlab.lstm import lstm_layer_init

from oracles import finite_difference_grads, one_cell_forward, relative_grad_error

BROADWELL = cachesim.default_broadwell_config()


def report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def misses_for(spec):
    misses, _ = cachesim.simulate(trace.generate_synthetic(spec), BROADWELL)
    return misses


# ---------------------------------------------------------------------------
# 1. analytic gradients vs central finite differences
# ---------------------------------------------------------------------------


def test_01_gradient_check():
    t0 = time.time()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        model = models.EmbeddingPrefetcher(
            n_delta_inputs=5, n_pcs=3, n_outputs=5, hidden=16, embed=4,
            layers=2, modality="both", dtype=np.float64, seed=seed,
        )
        T, B = 4, 2
        pc = rng.integers(0, 3, size=(T, B))
        din = rng.integers(0, 6, size=(T, B))  # includes the catch-all input id
        labels = rng.integers(0, 6, size=(T, B))  # includes the catch-all label
        states = model.zero_states(B)
        _, grads, _ = model.loss_and_grads(pc, din, labels, states)
        num = finite_difference_grads(
            lambda: model.loss(pc, din, labels, model.zero_states(B))[0],
            model.params,
            eps=1e-5,
        )
        for name in model.params:
            err = relative_grad_error(grads[name], num[name])
            worst = max(worst, err)
            assert err < 1e-4, f"seed {seed} tensor {name}: rel err {err:.2e}"
    dt = time.time() - t0
    report(
        "criterion 1 (gradient check)",
        worst < 1e-4 and dt < 60,
        f"worst rel err {worst:.2e} over 5 seeds, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. cell forward vs a scalar transcription of the recurrence
# ---------------------------------------------------------------------------


def scalar_cell(x, h_prev, c_prev, W, b):
    """Naive per-component transcription: gate preactivations from the
    concatenated input, cell update, then the gated output."""
    D = len(x)
    H = len(h_prev)
    xh = list(x) + list(h_prev)
    h = [0.0] * H
    c = [0.0] * H
    for u in range(H):
        acts = []
        for gate in range(4):
            row = gate * H + u
            s = b[row]
            for j in range(D + H):
                s += W[row][j] * xh[j]
            acts.append(s)
        i_g = 1.0 / (1.0 + math.exp(-acts[0]))
        f_g = 1.0 / (1.0 + math.exp(-acts[1]))
        g_g = math.tanh(acts[2])
        o_g = 1.0 / (1.0 + math.exp(-acts[3]))
        c[u] = f_g * c_prev[u] + i_g * g_g
        h[u] = o_g * math.tanh(c[u])
    return h, c


def test_02_cell_matches_scalar_oracle():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        D = int(rng.integers(1, 6))
        H = int(rng.integers(1, 8))
        W, b = lstm_layer_init(D, H, rng, np.float64)
        x = rng.normal(size=D)
        h_prev = rng.normal(size=H)
        c_prev = rng.normal(size=H)
        h, c, _ = one_cell_forward(
            x.reshape(1, -1), h_prev.reshape(1, -1), c_prev.reshape(1, -1), W, b
        )
        h_ref, c_ref = scalar_cell(x, h_prev, c_prev, W.tolist(), b.tolist())
        worst = max(
            worst,
            float(np.max(np.abs(h[0] - np.array(h_ref)))),
            float(np.max(np.abs(c[0] - np.array(c_ref)))),
        )
    report(
        "criterion 2 (cell equation fidelity)",
        worst <= 1e-12,
        f"max |diff| {worst:.2e} over 100 instances",
    )


# ---------------------------------------------------------------------------
# 3. cache simulator vs a brute-force recency-list oracle
# ---------------------------------------------------------------------------


def oracle_misses(addrs, sets, ways, line_size):
    lists = [[] for _ in range(sets)]
    out = []
    for t, addr in enumerate(addrs):
        line = addr // line_size
        s = line % sets
        bucket = lists[s]
        if line in bucket:
            bucket.remove(line)
            bucket.append(line)
        else:
            out.append((t, line))
            bucket.append(line)
            if len(bucket) > ways:
                bucket.pop(0)
    return out


def test_03_cache_simulator_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(1000):
        sets = int(2 ** rng.integers(0, 3))
        ways = int(rng.integers(1, 5))
        n_lines = int(rng.integers(1, 17))
        length = int(rng.integers(1, 1001))
        lines = rng.integers(0, n_lines, size=length)
        addrs = [int(l) * 64 for l in lines]
        pairs = np.array([(0x400, addr) for addr in addrs], dtype=np.uint64).reshape(-1, 2)
        cfg = cachesim.HierarchyConfig(
            levels=(
                cachesim.CacheLevelConfig(
                    capacity=sets * ways * 64, associativity=ways, line_size=64
                ),
            ),
            miss_emit_level=0,
        )
        misses, stats = cachesim.simulate(pairs, cfg)
        expect = oracle_misses(addrs, sets, ways, 64)
        got = misses.line.tolist()
        assert got == [line for _, line in expect], (
            f"sets={sets} ways={ways}: miss streams differ"
        )
        for lvl in stats.levels:
            assert lvl.accesses == lvl.hits + lvl.misses
        assert stats.levels[0].misses == len(expect)
        assert stats.levels[0].accesses == length
        checked += 1
    report(
        "criterion 3 (simulator oracle equivalence)",
        checked == 1000,
        f"{checked} random traces, miss-for-miss equal, accesses=hits+misses",
    )


# ---------------------------------------------------------------------------
# 4. stream prefetcher owns the stride regime
# ---------------------------------------------------------------------------


def test_04_stream_regime():
    t0 = time.time()
    misses = misses_for(trace.StrideSpec(length=100_000, stride=64))
    assert len(misses) == 100_000
    sets = baselines.baseline_prediction_sets(baselines.StreamPrefetcher(), misses)
    p = precision_at_k(sets[100:])  # past warmup
    dt = time.time() - t0
    report(
        "criterion 4 (stream regime)",
        p >= 0.99 and dt < 60,
        f"stream p@10 {p:.5f} on 1e5 stride misses, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. delta-correlation regime: GHB >= 0.95 while stream <= 0.5
# ---------------------------------------------------------------------------


def test_05_ghb_regime():
    c0 = tuple(64 * d for d in (1, 2, 3, 4, 5, 6, 7, 8))
    c1 = tuple(64 * d for d in (9, 10, 11, 12, 13, 14, 15, 16))
    spec = trace.PcCorrelatedSpec(length=20_000, cycles=(c0, c1), run_length=64, seed=11)
    misses = misses_for(spec)
    n_train = split_index(len(misses), 0.7)
    scores = {}
    for name, pf in (
        ("stream", baselines.StreamPrefetcher()),
        ("ghb", baselines.GhbPcDc()),
    ):
        sets = baselines.baseline_prediction_sets(pf, misses)
        scores[name] = precision_at_k(sets[sets.timestep + 1 >= n_train])
    report(
        "criterion 5 (GHB regime)",
        scores["ghb"] >= 0.95 and scores["stream"] <= 0.5,
        f"ghb p@10 {scores['ghb']:.4f} vs stream p@10 {scores['stream']:.4f}",
    )


# ---------------------------------------------------------------------------
# 6 + 8. learnability of a (PC, last delta) -> next delta trace, and the
# modality ablations on the same trace. The trace, dataset and trained
# both-modality model are shared through module-scoped fixtures.
# ---------------------------------------------------------------------------

# 1,000 distinct line deltas; the table index advances by a per-PC shift,
# so the next delta is a deterministic function of (PC, previous delta).
# Round-robin PC scheduling keeps the PC stream uninformative on its own:
# a pc_only model sees a period-4 input and its predictions collapse to a
# handful of sets, which is what the recall side of the ablation needs.
# The shift sum 1083 is coprime to 1000 so the index visits every residue.
TABLE_SPEC = trace.PcCorrelatedSpec(
    length=120_000,
    table=tuple(64 * (j + 1) for j in range(1000)),
    shifts=(1, 117, 353, 612),
    run_length=1,
    selection="round_robin",
    seed=7,
)


@pytest.fixture(scope="module")
def table_data():
    misses = misses_for(TABLE_SPEC)
    n_train = split_index(len(misses), 0.7)
    deltas = vocab_mod.compute_deltas(misses.line[:n_train])
    v = vocab_mod.build_vocab(deltas, max_output=50_000, min_input_count=10)
    pv = vocab_mod.build_pc_vocab(misses.pc[:n_train])
    dataset = models.embedding_dataset(misses, v, pv)
    mask = dataset["target_index"] < n_train
    train = {key: a[mask] for key, a in dataset.items()}
    return {
        "misses": misses,
        "n_train": n_train,
        "vocab": v,
        "pc_vocab": pv,
        "dataset": dataset,
        # validation slab: the last 4,096 training events in 64 rows; rows
        # start cold, so the first 32 columns are burn-in and only the
        # back half is scored (the model may legitimately lean on state)
        "val": {key: a[-64 * 64 :].reshape(64, 64) for key, a in train.items()},
    }


def _val_precision(model, val):
    ids, _ = model.predict_topk(val["pc"].T, val["delta_in"].T, model.zero_states(64), 10)
    hits = (ids == val["label"].T[:, :, None]).any(axis=2)
    return float(hits[32:].mean())


def _train_table_model(table_data, modality, steps, stop_at=None):
    model = models.EmbeddingPrefetcher(
        n_delta_inputs=table_data["vocab"].n_input,
        n_pcs=table_data["pc_vocab"].n_pcs,
        n_outputs=table_data["vocab"].n_output,
        hidden=128,
        embed=128,
        layers=2,
        modality=modality,
        dtype=np.float32,
        seed=7,
    )
    callback = None
    if stop_at is not None:
        val = table_data["val"]
        callback = lambda step, m: _val_precision(m, val) >= stop_at
    cfg = models.TrainConfig(steps=steps, window=64, optimizer="adam", lr=1e-3,
                             eval_every=200)
    batches = model.training_batches(table_data["dataset"], table_data["n_train"], 64)
    history = models.train_model(model, batches, cfg, callback=callback)
    return model, history


def _table_metrics(model, table_data):
    sets = model.prediction_sets(
        table_data["dataset"], table_data["vocab"], table_data["n_train"], 10
    )
    return precision_at_k(sets), recall_at_k(sets)


@pytest.fixture(scope="module")
def both_model(table_data):
    t0 = time.time()
    model, history = _train_table_model(table_data, "both", steps=6000, stop_at=0.96)
    p, r = _table_metrics(model, table_data)
    return {"model": model, "steps": len(history), "precision": p, "recall": r,
            "train_seconds": time.time() - t0}


def test_06_embedding_learnability(table_data, both_model):
    dt = both_model["train_seconds"]
    ok = (
        both_model["precision"] >= 0.95
        and both_model["steps"] <= 50_000
        and dt < 30 * 60
    )
    report(
        "criterion 6 (embedding learnability)",
        ok,
        f"held-out p@10 {both_model['precision']:.4f} after "
        f"{both_model['steps']} steps in {dt / 60:.1f} min",
    )


def test_08_modality_ablations(table_data, both_model):
    delta_model, _ = _train_table_model(table_data, "delta_only", steps=5000, stop_at=0.96)
    delta_p, _ = _table_metrics(delta_model, table_data)

    pc_model, _ = _train_table_model(table_data, "pc_only", steps=1200)
    _, pc_r = _table_metrics(pc_model, table_data)

    ok = (
        delta_p >= 0.8 * both_model["precision"]
        and pc_r < both_model["recall"]
    )
    report(
        "criterion 8 (modality ablations)",
        ok,
        f"delta_only p@10 {delta_p:.4f} vs 0.8*both {0.8 * both_model['precision']:.4f}; "
        f"pc_only r@10 {pc_r:.4f} < both r@10 {both_model['recall']:.4f}",
    )


# ---------------------------------------------------------------------------
# 7. clustering recall advantage on disjoint address regions
# ---------------------------------------------------------------------------


def test_07_clustering_recall_advantage():
    region_deltas = (
        tuple(64 * d for d in range(1, 9)),
        tuple(64 * d for d in range(9, 17)),
        tuple(64 * d for d in range(17, 25)),
    )
    spec = trace.RegionHoppingSpec(
        length=30_000, deltas=region_deltas, run_length=32, seed=5
    )
    misses = misses_for(spec)
    n_train = split_index(len(misses), 0.7)

    # embedding model with the output vocab capped below the 24-delta union
    dv = vocab_mod.compute_deltas(misses.line[:n_train])
    v = vocab_mod.build_vocab(dv, max_output=12, min_input_count=10)
    assert v.n_output < 24
    pv = vocab_mod.build_pc_vocab(misses.pc[:n_train])
    emb = models.EmbeddingPrefetcher(
        n_delta_inputs=v.n_input, n_pcs=pv.n_pcs, n_outputs=v.n_output,
        hidden=64, embed=32, layers=2, modality="both", dtype=np.float32, seed=5,
    )
    ds = models.embedding_dataset(misses, v, pv)
    models.train_model(emb, emb.training_batches(ds, n_train, 64),
                       models.TrainConfig(steps=400, window=64))
    emb_recall = recall_at_k(emb.prediction_sets(ds, v, n_train, 10))

    # clustering model: k-means regions, per-cluster vocabs, tied weights
    km = clustering.kmeans_fit(misses.line[:n_train], k=3, seed=5)
    norms = clustering.partition_stream(misses, km, n_train)
    per_cluster = clustering.cluster_deltas(misses.line, km.assign(misses.line), km.k)
    vocabs = models.build_cluster_vocabs(per_cluster, n_train, min_input_count=1)
    cm = models.ClusterPrefetcher(
        vocab_sizes=[vv.n_output if vv else 0 for vv in vocabs],
        hidden=64, layers=2, dtype=np.float32, seed=5,
    )
    cds = models.cluster_dataset(per_cluster, vocabs, norms, cm)
    models.train_model(cm, cm.training_batches(cds, n_train, 64),
                       models.TrainConfig(steps=400, window=64, optimizer="adagrad"))
    cl_recall = recall_at_k(cm.prediction_sets(cds, vocabs, n_train, 10))

    report(
        "criterion 7 (clustering recall advantage)",
        cl_recall > emb_recall,
        f"cluster r@10 {cl_recall:.4f} > capped-embedding r@10 {emb_recall:.4f}",
    )


# ---------------------------------------------------------------------------
# 9. vocabulary statistics on analytic distributions
# ---------------------------------------------------------------------------


def test_09_vocabulary_statistics():
    # uniform over 10 distinct deltas: 5 cover exactly half the mass
    line = 0
    lines = [0]
    for d in list(range(1, 11)) * 40:
        line += d
        lines.append(line)
    misses = trace.MissStream.from_pairs(np.array([(0x400, l * 64) for l in lines]), 64)
    stats = vocab_mod.coverage_stats(misses, vocab_mod.compute_deltas(misses.line))
    uniform_ok = stats.deltas_for_50pct_mass == 5 and stats.num_unique_deltas == 10

    # 50/50 point mass on two deltas: a single delta reaches half the mass
    line = 0
    lines = [0]
    for d in [3, 7] * 100:
        line += d
        lines.append(line)
    misses = trace.MissStream.from_pairs(np.array([(0x400, l * 64) for l in lines]), 64)
    stats = vocab_mod.coverage_stats(misses, vocab_mod.compute_deltas(misses.line))
    point_ok = stats.deltas_for_50pct_mass == 1 and stats.num_unique_deltas == 2

    report(
        "criterion 9 (vocabulary statistics)",
        uniform_ok and point_ok,
        "uniform-10 -> 5 deltas for 50% mass; 50/50 -> 1 delta",
    )


# ---------------------------------------------------------------------------
# 10. repeat runs of the full pipeline are byte-identical
# ---------------------------------------------------------------------------


def test_10_pipeline_determinism(tmp_path):
    import yaml

    from prefetchlab.cli import main

    config = {
        "seed": 13,
        "trace": {"kind": "pc_correlated", "length": 4000, "run_length": 1,
                  "selection": "random", "shifts": [1, 29, 67],
                  "table": [64 * (j + 1) for j in range(100)]},
        "model": {"type": "embedding", "hidden": 32, "embed": 16,
                  "dtype": "float32"},
        "train": {"steps": 1000, "batch": 32, "window": 32},
        "vocab": {"min_input_count": 2},
    }
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(config))

    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        for stage in ("simulate", "vocab", "train", "eval", "report"):
            code = main([stage, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0, f"stage {stage} exited {code}"
        digests.append({
            artifact: (out / artifact).read_bytes()
            for artifact in ("trace.bin", "misses.bin", "vocab.bin", "model.bin",
                             "metrics.json", "report.json")
        })
    same = all(digests[0][k] == digests[1][k] for k in digests[0])
    report(
        "criterion 10 (pipeline determinism)",
        same,
        "simulate->vocab->train(1k)->eval->report twice: all artifacts byte-identical",
    )
