"""
Miss deltas as a vocabulary
===========================

The models treat prefetching as classification over line-address deltas.
This script builds that vocabulary for a region-hopping trace and prints
the frequency structure the classifier sees.
"""

from prefetchlab import cachesim, trace, vocab

spec = trace.RegionHoppingSpec(length=20_000, run_length=32, seed=1)
pairs = trace.generate_synthetic(spec)  # (n, 2) uint64 (pc, addr) rows
misses, _ = cachesim.simulate(pairs, cachesim.default_broadwell_config())

deltas = vocab.compute_deltas(misses.line)
stats = vocab.coverage_stats(misses, deltas)
print("misses:", stats.num_misses)
print("unique pcs:", stats.num_unique_pcs)
print("unique line addrs:", stats.num_unique_addrs)
print("unique deltas:", stats.num_unique_deltas)
print("addrs for 50% mass:", stats.addrs_for_50pct_mass)
print("deltas for 50% mass:", stats.deltas_for_50pct_mass)

# The head of the distribution is tiny (the per-region steps); the tail is
# a long list of one-off region-hop deltas that no classifier should chase.
v = vocab.build_vocab(deltas, max_output=50, min_input_count=10)
print("input classes:", v.n_input, " output classes:", v.n_output)
print("train-mass covered by output classes:", round(v.output_coverage(), 4))
print("most frequent deltas (lines):")
# class i is the i-th ranked delta; the rank continues below the threshold
for idx, delta in enumerate(v.deltas[: min(v.n_output, 8)].tolist()):
    print(f"  class {idx}: delta {delta} ({v.counts[idx]} times)")
