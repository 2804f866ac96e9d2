"""The benchmark's workloads: one generated config and stage list each.

The `--seed` of a run selects one of `N_VARIANTS` input variants
(`seed % N_VARIANTS`), and the variant is written into the config as its
seed. Reference outputs for every variant are kept in `reference.json`,
so every run, whatever its seed, is checked against recorded outputs.
All workloads use the default Broadwell cache hierarchy. Each config
spells out every key that `artifacts.facts` reads.
"""

from __future__ import annotations

N_VARIANTS = 8

EMBEDDING_STAGES = ("simulate", "vocab", "train", "eval", "report")
CLUSTER_STAGES = ("simulate", "cluster", "train", "eval", "report")


def _pc_table_1k(variant: int) -> dict:
    # The acceptance suite's table trace: 1,000 distinct line deltas, the
    # table index advanced by a per-PC shift, 4 PCs round-robin. Every
    # access is an LLC miss. Each delta occurs ~6 times in the training
    # split, so min_input_count 2 keeps all 1,000 classes. The trace does
    # not depend on the seed; the model initialization does.
    return {
        "seed": variant,
        "trace": {
            "kind": "pc_correlated",
            "length": 9_000,
            "table": [64 * (j + 1) for j in range(1000)],
            "shifts": [1, 117, 353, 612],
            "run_length": 1,
            "selection": "round_robin",
        },
        "vocab": {"max_output": 50_000, "min_input_count": 2},
        "model": {"type": "embedding", "hidden": 128, "embed": 128, "dtype": "float32"},
        "train": {"steps": 10, "batch": 64, "window": 64, "optimizer": "adam"},
        "eval": {"k": 10, "split": 0.7},
    }


def _regions_cluster(variant: int) -> dict:
    # Three regions visited in runs of 32. Each region draws its step from
    # 4 sub-line steps (8-32 B, so ~14% of accesses repeat the previous
    # line) and 16 multi-line strides, so top-10 is selective. The 100
    # training windows run ~6% past the training split of each cluster's
    # row, where positions carry no label.
    sub_line = [8, 16, 24, 32]
    return {
        "seed": variant,
        "trace": {
            "kind": "region_hopping",
            "length": 30_000,
            "run_length": 32,
            "deltas": [sub_line + [64 * (2 + m + 4 * r) for m in range(16)] for r in range(3)],
        },
        "vocab": {"max_output": 50_000},
        "cluster": {"k": 3, "min_input_count": 1},
        "model": {"type": "cluster", "hidden": 64, "dtype": "float32"},
        "train": {"steps": 100, "window": 64, "optimizer": "adagrad"},
        "eval": {"k": 10, "split": 0.7},
    }


WORKLOADS = {
    "pc_table_1k": (_pc_table_1k, EMBEDDING_STAGES),
    "regions_cluster": (_regions_cluster, CLUSTER_STAGES),
}


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def workload(name: str, seed: int) -> tuple[dict, tuple[str, ...]]:
    """(config, stages) of workload `name` for a run with `seed`."""
    make_config, stages = WORKLOADS[name]
    return make_config(variant_of(seed)), stages
