import math
import random
import re

import numpy as np
import pytest

from prefetchlab.clustering import (
    KMEANS_MAGIC,
    ClusterModel,
    cluster_deltas,
    kmeans_fit,
    load_cluster_model,
    normalize_deltas,
    partition_stream,
    save_cluster_model,
    train_deltas,
)
from prefetchlab.errors import ConfigError, DataError, TraceFormatError
from prefetchlab.trace import MissStream

from oracles import signed_delta


def misses_from_lines(lines, pcs=None):
    lines = np.array(lines, dtype=np.uint64)
    pcs = np.array(pcs or [0x400000] * len(lines), dtype=np.uint64)
    return MissStream(pc=pcs, addr=lines << np.uint64(6), line=lines)


def blob_addresses(rng, centers, per_blob=200, spread=50):
    out = []
    for c in centers:
        out.extend(c + rng.randrange(-spread, spread + 1) for _ in range(per_blob))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def test_kmeans_recovers_separated_blobs():
    rng = random.Random(0)
    for seed in range(5):
        centers = [10_000, 500_000, 90_000_000]
        addrs = blob_addresses(rng, centers)
        model = kmeans_fit(addrs, k=3, seed=seed)
        assert list(model.centroids) == sorted(model.centroids)
        for c, got in zip(sorted(centers), model.centroids):
            assert abs(got - c) < 100
        # every point lands with its own blob
        assign = model.assign(addrs)
        for a, cl in zip(addrs, assign):
            assert abs(a - sorted(centers)[cl]) < 200


def test_kmeans_deterministic_per_seed():
    rng = random.Random(1)
    addrs = blob_addresses(rng, [100, 10_000], per_blob=50)
    a = kmeans_fit(addrs, k=2, seed=3)
    b = kmeans_fit(addrs, k=2, seed=3)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia
    assert a.n_iters == b.n_iters


def test_kmeans_inertia_reasonable():
    # k == number of distinct points -> perfect fit
    model = kmeans_fit([10, 20, 30, 10, 20, 30], k=3, seed=0)
    assert model.inertia == pytest.approx(0.0)
    assert list(model.centroids) == [10, 20, 30]


def test_kmeans_validation():
    with pytest.raises(ConfigError):
        kmeans_fit([1, 1, 1], k=2)
    with pytest.raises(ConfigError):
        kmeans_fit([1, 2, 3], k=0)


def test_kmeans_inertia_check_raises():
    # a NaN address makes the inertia NaN, which fails the no-increase check
    with pytest.raises(DataError, match="inertia rose"):
        kmeans_fit([0.0, 1.0, float("nan")], k=1)


def test_assignment_ties_go_to_lower_index():
    model = ClusterModel(k=2, centroids=np.array([0.0, 10.0]), n_iters=1, inertia=0.0)
    assert model.assign([5]).tolist() == [0]
    assert model.assign([4, 6]).tolist() == [0, 1]


def test_kmeans_weighted_by_frequency():
    # heavy mass on one value pulls a centroid onto it
    addrs = [100] * 1000 + [110] * 1000 + [9_000_000] * 10
    model = kmeans_fit(addrs, k=2, seed=0)
    assert abs(model.centroids[0] - 105) < 6
    assert abs(model.centroids[1] - 9_000_000) < 1


# ---------------------------------------------------------------------------
# Stream partitioning
# ---------------------------------------------------------------------------


def test_partition_stream_per_cluster_deltas():
    # two regions interleaved; within-cluster deltas skip the other cluster
    lines = [100, 5000, 102, 5003, 105, 5009]
    misses = misses_from_lines(lines)
    model = ClusterModel(k=2, centroids=np.array([102.0, 5004.0]), n_iters=1, inertia=0.0)
    norms = partition_stream(misses, model, len(misses))
    assignments = model.assign(misses.line)
    assert assignments.tolist() == [0, 1, 0, 1, 0, 1]
    (idx0, d0), (idx1, d1) = cluster_deltas(misses.line, assignments, 2)
    assert d0.tolist() == [2, 3]
    assert d1.tolist() == [3, 6]
    # deltas are indexed by the global miss numbers they run between
    assert idx0.tolist() == [0, 2, 4]
    assert idx1.tolist() == [1, 3, 5]
    assert norms.tolist() == [[2.5, 0.5], [4.5, 1.5]]


def test_partition_stream_merge_reproduces_assignment_order():
    rng = random.Random(9)
    lines = [rng.choice([100, 101, 102, 90_000, 90_001]) for _ in range(500)]
    # force line changes so deltas exist
    misses = misses_from_lines(lines)
    model = kmeans_fit(misses.line, k=2, seed=0)
    assert partition_stream(misses, model, len(misses)).shape == (2, 2)
    assignments = model.assign(misses.line)
    assert assignments.tolist() == model.assign(lines).tolist()
    per_cluster = cluster_deltas(misses.line, assignments, 2)
    merged = sorted((i, c) for c, (idx, _) in enumerate(per_cluster) for i in idx[:-1].tolist())
    # each cluster's last miss starts no delta; all others start one, in order
    expected = []
    last = {}
    for i, c in enumerate(assignments.tolist()):
        last[c] = i
    for i, c in enumerate(assignments.tolist()):
        if i != last[c]:
            expected.append((i, c))
    assert merged == expected
    n_nonempty = len(set(assignments.tolist()))
    assert sum(len(d) for _, d in per_cluster) == len(misses) - n_nonempty


def test_cluster_deltas_match_signed_delta():
    rng = np.random.default_rng(17)
    k = 5
    # line values span the whole 64-bit range, so deltas wrap both ways
    lines = [int(x) for x in rng.integers(0, 2**64, size=300, dtype=np.uint64)]
    lines[:3] = [2**64 - 1, 0, 2**63]
    assignments = rng.integers(0, 3, size=300)  # clusters 0..2 of k=5
    assignments[17] = 3  # cluster 3 has a single miss, cluster 4 none
    per_cluster = cluster_deltas(np.array(lines, dtype=np.uint64), assignments, k)
    assert len(per_cluster) == k
    n_negative = 0
    for c, (idx, deltas) in enumerate(per_cluster):
        assert idx.tolist() == [i for i in range(300) if assignments[i] == c]
        assert deltas.dtype == np.int64
        expected = [signed_delta(lines[a], lines[b]) for a, b in zip(idx[:-1], idx[1:])]
        assert deltas.tolist() == expected
        n_negative += sum(d < 0 for d in expected)
    assert n_negative > 100
    assert per_cluster[3][0].tolist() == [17] and len(per_cluster[3][1]) == 0
    assert len(per_cluster[4][0]) == 0 and len(per_cluster[4][1]) == 0


def test_norm_params_come_from_train_split_only():
    lines = [0, 10, 30, 60, 1000, 2000]  # deltas 10,20,30 then big test-only ones
    misses = misses_from_lines(lines)
    model = ClusterModel(k=1, centroids=np.array([0.0]), n_iters=1, inertia=0.0)
    mean, std = partition_stream(misses, model, train_len=4)[0]
    arr = np.array([10.0, 20.0, 30.0])
    assert mean == pytest.approx(arr.mean())
    assert std == pytest.approx(arr.std())


def test_norm_params_degenerate_std_clamped():
    misses = misses_from_lines([0, 5, 10, 15])
    model = ClusterModel(k=1, centroids=np.array([0.0]), n_iters=1, inertia=0.0)
    norms = partition_stream(misses, model, len(misses))
    assert norms[0][1] == 1.0  # constant deltas -> std clamped to 1


def test_empty_cluster_gets_default_norm():
    misses = misses_from_lines([0, 1, 2])
    model = ClusterModel(k=2, centroids=np.array([0.0, 10_000.0]), n_iters=1, inertia=0.0)
    norms = partition_stream(misses, model, len(misses))
    assert norms[1].tolist() == [0.0, 1.0]
    assert model.assign(misses.line).tolist() == [0, 0, 0]


def test_normalize_matches_single_pass_oracle():
    rng = random.Random(21)
    for _ in range(20):
        sample = [rng.randrange(-10_000, 10_000) for _ in range(500)]
        # independent single-pass mean/std
        n = len(sample)
        mean = sum(sample) / n
        var = sum((x - mean) ** 2 for x in sample) / n
        std = math.sqrt(var)
        normed = normalize_deltas(sample, (mean, std))
        assert abs(normed.mean()) < 1e-9
        assert abs(normed.std() - 1.0) < 1e-9


def test_train_deltas_match_boolean_mask():
    # oracle: the mask over delta targets this prefix slice replaced
    rng = np.random.default_rng(23)
    n = 400
    lines = rng.integers(0, 2**20, size=n, dtype=np.uint64)
    assignments = rng.integers(0, 3, size=n)  # clusters 0..2 of k=5
    assignments[77] = 3  # cluster 3 has a single miss, cluster 4 none
    per_cluster = cluster_deltas(lines, assignments, 5)
    for train_len in (0, 1, 2, 77, 78, n // 2, n - 1, n, n + 50):
        for idx, deltas in per_cluster:
            got = train_deltas(idx, deltas, train_len)
            want = deltas[idx[1:] < train_len]
            assert got.dtype == np.int64 and got.tolist() == want.tolist(), train_len
    assert len(train_deltas(*per_cluster[3], n)) == len(train_deltas(*per_cluster[4], n)) == 0


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_cluster_model_roundtrip(tmp_path):
    model = kmeans_fit([1, 2, 3, 1000, 2000, 3000], k=2, seed=1)
    norms = np.array([[1.5, 2.5], [-3.0, 0.5]])
    path = tmp_path / "c.bin"
    save_cluster_model(model, path, norms)
    loaded, got_norms = load_cluster_model(path)
    assert loaded.k == model.k
    assert np.array_equal(loaded.centroids, model.centroids)
    assert loaded.n_iters == model.n_iters
    assert loaded.inertia == model.inertia
    assert np.array_equal(got_norms, norms)


def test_save_cluster_model_requires_norms(tmp_path):
    model = kmeans_fit([1, 1000], k=2, seed=0)
    path = tmp_path / "c.bin"
    with pytest.raises(TypeError):
        save_cluster_model(model, path)
    with pytest.raises(ConfigError):
        save_cluster_model(model, path, np.ones((3, 2)))
    save_cluster_model(model, path, np.ones((2, 2)))
    data = bytearray(path.read_bytes())
    data[len(KMEANS_MAGIC) + 28] = 0  # the has-norms flag, last byte of the header
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match="has-norms flag is 0"):
        load_cluster_model(path)


def test_load_cluster_model_refuses_bad_values(tmp_path):
    model = kmeans_fit([1, 2, 3, 1000, 2000, 3000], k=2, seed=1)
    path = tmp_path / "c.bin"
    cases = {  # what is wrong -> (centroids, norms)
        "nan std": ([1.0, 2.0], [[0.0, 1.0], [0.0, math.nan]]),
        "zero std": ([1.0, 2.0], [[0.0, 0.0], [0.0, 1.0]]),
        "negative std": ([1.0, 2.0], [[0.0, 1.0], [0.0, -2.0]]),
        "inf mean": ([1.0, 2.0], [[-math.inf, 1.0], [0.0, 1.0]]),
        "inf centroid": ([1.0, math.inf], [[0.0, 1.0], [0.0, 1.0]]),
        "nan centroid": ([math.nan, 2.0], [[0.0, 1.0], [0.0, 1.0]]),
    }
    for centroids, norms in cases.values():
        model.centroids = np.array(centroids)
        save_cluster_model(model, path, np.array(norms))
        with pytest.raises(TraceFormatError, match=re.escape(str(path))):
            load_cluster_model(path)
    model.centroids = np.array([1.0, 2.0])
    save_cluster_model(model, path, np.array([[0.0, 1e-300], [-5.0, 3.0]]))
    assert load_cluster_model(path)[1].tolist() == [[0.0, 1e-300], [-5.0, 3.0]]


def test_cluster_model_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXXXXXX" + b"\x00" * 64)
    with pytest.raises(TraceFormatError):
        load_cluster_model(path)

