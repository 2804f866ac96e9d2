"""1-D k-means over miss line addresses and per-cluster delta streams.

Addresses are clustered at line granularity as a frequency-weighted
multiset. Fitting is standard Lloyd iteration with k-means++ seeding from
a fixed RNG seed; an empty cluster is reseeded to the point farthest from
its nearest centroid. A stage splits the miss stream into its clusters'
delta streams once (`cluster_deltas`) and passes the split on;
`train_deltas` picks each cluster's training deltas, whose mean/std
normalize that cluster's deltas and are checked when `clusters.bin` loads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, TraceFormatError, check_end, read_exact
from .trace import MissStream


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray  # sorted ascending, float64
    n_iters: int
    inertia: float

    def assign(self, addresses) -> np.ndarray:
        """Nearest-centroid assignment; ties go to the lower centroid index."""
        d = np.asarray(addresses, dtype=np.float64)[:, None] - self.centroids[None, :]
        return np.argmin(np.abs(d, out=d), axis=1)


def kmeans_fit(
    addresses: np.ndarray, k: int, max_iters: int = 100, seed: int = 0
) -> ClusterModel:
    """Lloyd's algorithm on scalar addresses; deterministic given seed."""
    x = np.asarray(addresses, dtype=np.float64)
    if k < 1:
        raise ConfigError("k must be >= 1")
    # with counts, np.unique does not import numpy.ma
    n_distinct = len(np.unique(x, return_counts=True)[1])
    if n_distinct < k:
        raise ConfigError(f"need at least {k} distinct addresses, got {n_distinct}")

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(x, k, rng)

    prev_assign = None
    prev_inertia = np.inf
    n_iters = 0
    dist = np.empty((len(x), k))  # |x - centroid|, one buffer for every iteration
    for n_iters in range(1, max_iters + 1):
        np.subtract(x[:, None], centroids[None, :], out=dist)
        assign = np.argmin(np.abs(dist, out=dist), axis=1)
        inertia = float(np.sum((x - centroids[assign]) ** 2))
        # Lloyd iterations never raise inertia; `not <=` also catches NaN
        if not inertia <= prev_inertia * (1 + 1e-12) + 1e-9:
            raise DataError(
                f"k-means inertia rose from {prev_inertia} to {inertia} at iteration {n_iters}"
            )
        prev_inertia = inertia
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        for j in range(k):
            members = x[assign == j]
            if len(members):
                centroids[j] = members.mean()
            else:
                # reseed to the point farthest from its nearest centroid
                nearest = np.min(np.abs(x[:, None] - centroids[None, :]), axis=1)
                centroids[j] = x[np.argmax(nearest)]

    order = np.argsort(centroids, kind="stable")
    centroids = centroids[order]
    return ClusterModel(k=k, centroids=centroids, n_iters=n_iters, inertia=prev_inertia)


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centroids = np.empty(k, dtype=np.float64)
    centroids[0] = x[rng.integers(len(x))]
    d2 = (x - centroids[0]) ** 2
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining mass sits on chosen points; pick any distinct value
            remaining = np.setdiff1d(x, centroids[:j])
            centroids[j] = remaining[0]
        else:
            centroids[j] = x[rng.choice(len(x), p=d2 / total)]
        d2 = np.minimum(d2, (x - centroids[j]) ** 2)
    return centroids


# ---------------------------------------------------------------------------
# Stream partitioning
# ---------------------------------------------------------------------------


def partition_stream(misses: MissStream, model: ClusterModel, train_len: int) -> np.ndarray:
    """(k, 2) mean and std of each cluster's training deltas: (0, 1) for a
    cluster with none, and a zero std taken as 1, so every std is > 0."""
    norm = np.tile([0.0, 1.0], (model.k, 1))
    per_cluster = cluster_deltas(misses.line, model.assign(misses.line), model.k)
    for c, (idx, deltas) in enumerate(per_cluster):
        train = train_deltas(idx, deltas, train_len).astype(np.float64)
        if len(train):
            std = float(train.std())
            norm[c] = (float(train.mean()), std if std > 0 else 1.0)
    return norm


def cluster_deltas(
    lines: np.ndarray, assignments: np.ndarray, k: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(miss indices, int64 deltas between them) of each cluster 0..k-1.

    Delta j runs from miss idx[j] to miss idx[j + 1], the next miss of the
    same cluster: the 64-bit two's-complement difference of their uint64
    `lines`, as `vocab.compute_deltas` defines a delta.
    """
    out = []
    for c in range(k):
        idx = np.nonzero(assignments == c)[0]
        out.append((idx, np.diff(lines[idx]).view(np.int64)))
    return out


def train_deltas(idx: np.ndarray, deltas: np.ndarray, train_len: int) -> np.ndarray:
    """The deltas of one cluster (`cluster_deltas`) that are training data:
    those whose both endpoint misses fall inside the first `train_len`.
    `idx` ascends, so they are a prefix."""
    return deltas[: np.searchsorted(idx[1:], train_len)]


def normalize_deltas(deltas: np.ndarray, params) -> np.ndarray:
    """(delta - mean) / std as float64; std > 0, as `load_cluster_model` checks."""
    mean, std = float(params[0]), float(params[1])
    return (np.asarray(deltas, dtype=np.float64) - mean) / std


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

KMEANS_MAGIC = b"PFKMEAN1"
_KM_HEADER = struct.Struct("<IQQdB")  # version, k, n_iters, inertia, has_norms
KMEANS_VERSION = 1


def save_cluster_model(model: ClusterModel, path, norm_params: np.ndarray) -> None:
    """Versioned file: k, centroids, per-cluster (mean, std) norm params."""
    if norm_params.shape != (model.k, 2):
        raise ConfigError("norm_params must have shape (k, 2)")
    with open(path, "wb") as f:
        f.write(KMEANS_MAGIC)
        f.write(_KM_HEADER.pack(KMEANS_VERSION, model.k, model.n_iters, model.inertia, 1))
        f.write(np.ascontiguousarray(model.centroids, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(norm_params, dtype="<f8").tobytes())


def load_cluster_model(path) -> tuple[ClusterModel, np.ndarray]:
    """The cluster model and its (k, 2) norm params. Raises TraceFormatError
    naming `path` unless the file is whole, its has-norms flag is 1, every
    centroid and norm param is finite and every std is > 0."""
    with open(path, "rb") as f:
        magic = f.read(len(KMEANS_MAGIC))
        if magic != KMEANS_MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        version, k, n_iters, inertia, has_norms = _KM_HEADER.unpack(
            read_exact(f, _KM_HEADER.size, path)
        )
        if version != KMEANS_VERSION:
            raise TraceFormatError(f"{path}: unsupported version {version}")
        if has_norms != 1:
            raise TraceFormatError(f"{path}: has-norms flag is {has_norms}, not 1")
        centroids = np.frombuffer(read_exact(f, 8 * k, path), dtype="<f8").copy()
        norms = np.frombuffer(read_exact(f, 16 * k, path), dtype="<f8").reshape(k, 2).copy()
        check_end(f, path)
    if not (np.isfinite(centroids).all() and np.isfinite(norms).all()):
        raise TraceFormatError(f"{path}: non-finite centroid or norm param")
    if not (norms[:, 1] > 0).all():
        raise TraceFormatError(f"{path}: norm std must be > 0, got {norms[:, 1].tolist()}")
    return ClusterModel(k=k, centroids=centroids, n_iters=n_iters, inertia=inertia), norms
