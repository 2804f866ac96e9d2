"""
Clustering the address space
============================

When a workload touches several far-apart regions, one global delta vocab
drowns in cross-region noise. k-means on the addresses splits the stream;
a single weight-tied LSTM then models every cluster's local deltas, with
the cluster id as an input feature.
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
print("per-cluster output classes:", [v.n_output if v else None for v in vocabs])

model = models.ClusterPrefetcher(
    vocab_sizes=[v.n_output if v else 0 for v in vocabs],
    hidden=64, layers=2, dtype=np.float32, seed=4,
)
dataset = models.cluster_dataset(per_cluster, vocabs, norms, model)
batches = dict(dataset)
batches["label"] = np.where(dataset["target_index"] < n_train, dataset["label"], -1)

cfg = models.TrainConfig(steps=600, window=64, optimizer="adagrad")
history = models.train_model(model, batches, cfg)
print("final loss:", round(history[-1]["loss"], 4))

sets = models.cluster_prediction_sets(model, dataset, vocabs, n_train, k=10)
print("held-out metrics:", metrics_summary(sets))
