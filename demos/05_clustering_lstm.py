"""
Clustering the address space
============================

When a workload touches several far-apart regions, one global delta vocab
drowns in cross-region noise. k-means on the addresses splits the stream;
a single weight-tied LSTM then models every cluster's local deltas, with
the cluster id as an input feature: batch row c is cluster c's stream.
"""

import numpy as np

from prefetchlab import cachesim, clustering, models, trace
from prefetchlab.eval import metrics_summary, split_index

spec = trace.RegionHoppingSpec(length=30_000, run_length=32, seed=4)
records = trace.generate_synthetic(spec)
misses, _ = cachesim.simulate(records, cachesim.default_broadwell_config())
n_train = split_index(len(misses), 0.7)

km = clustering.kmeans_fit(misses.line[:n_train], k=3, seed=4)
print("centroids (line addrs):", [f"{c:.3e}" for c in km.centroids])
norms = clustering.partition_stream(misses, km, n_train)
per_cluster = clustering.cluster_deltas(misses.line, km.assign(misses.line), km.k)
for cid, (idx, _) in enumerate(per_cluster):
    print(f"  cluster {cid}: {len(idx)} misses")

vocabs = models.build_cluster_vocabs(per_cluster, n_train, min_input_count=1)
print("per-cluster output classes:", [v.n_output for v in vocabs])

model = models.ClusterPrefetcher(
    vocab_sizes=[v.n_output for v in vocabs],
    hidden=64, layers=2, dtype=np.float32, seed=4,
)
dataset = models.cluster_dataset(per_cluster, vocabs, norms, model)
# one row per cluster; positions past the split carry no label
batches = model.training_batches(dataset, n_train, batch=model.k)

cfg = models.TrainConfig(steps=600, window=64, optimizer="adagrad")
history = models.train_model(model, batches, cfg)
# a window wholly past the split has no label, and its loss reads 0
labelled = [entry["loss"] for entry in history if entry["n_labelled"]]
print("final loss:", round(labelled[-1], 4), f"({len(history) - len(labelled)} steps saw no label)")

sets = model.prediction_sets(dataset, vocabs, n_train, k=10)
print("held-out metrics:", metrics_summary(sets))
