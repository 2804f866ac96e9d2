"""
Training the embedding LSTM
===========================

End-to-end on a small pc-correlated trace: extract the miss stream, build
the delta vocabulary, train for a few hundred steps, and score
precision@10 / recall@10 on the held-out 30%.
"""

import numpy as np

from prefetchlab import cachesim, models, trace, vocab
from prefetchlab.eval import metrics_summary, split_index

# next delta = f(PC, previous delta): 200 distinct deltas, 3 PCs
table = tuple(64 * (j + 1) for j in range(200))
spec = trace.PcCorrelatedSpec(
    length=30_000, table=table, shifts=(1, 53, 131), run_length=1,
    selection="random", seed=3,
)
records = trace.generate_synthetic(spec)
misses, _ = cachesim.simulate(records, cachesim.default_broadwell_config())
n_train = split_index(len(misses), 0.7)

deltas = vocab.compute_deltas(misses.line[:n_train])
v = vocab.build_vocab(deltas, min_input_count=10)
pv = vocab.build_pc_vocab(misses.pc[:n_train])
print("vocab:", v.n_input, "inputs,", v.n_output, "outputs,", pv.n_pcs, "pcs")

model = models.EmbeddingPrefetcher(
    n_delta_inputs=v.n_input, n_pcs=pv.n_pcs, n_outputs=v.n_output,
    hidden=64, embed=32, layers=2, modality="both",
    dtype=np.float32, seed=3,
)
dataset = models.embedding_dataset(misses, v, pv)
# the events before the split, cut into 64 rows trained side by side
batches = model.training_batches(dataset, n_train, batch=64)

cfg = models.TrainConfig(steps=1200, window=64, optimizer="adam")
history = models.train_model(model, batches, cfg)
for entry in history[:: len(history) // 8]:
    print(f"  step {entry['step']:5d}  loss {entry['loss']:.3f}")

sets = model.prediction_sets(dataset, v, n_train, k=10)
print("held-out metrics:", metrics_summary(sets))
