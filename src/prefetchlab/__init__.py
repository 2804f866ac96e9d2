"""Workbench for learned and table-driven cache prefetchers.

The pipeline goes: synthetic (or recorded) access traces -> set-associative
cache simulation -> miss delta streams -> delta vocabularies or address
clusters -> LSTM sequence models and hardware-style baselines, scored by
precision@10 / recall@10 over predicted delta sets.
"""

from .baselines import GhbPcDc, StreamPrefetcher, baseline_prediction_sets
from .cachesim import (
    CacheLevelConfig,
    HierarchyConfig,
    default_broadwell_config,
    simulate,
)
from .clustering import (
    ClusterModel,
    kmeans_fit,
    normalize_deltas,
    partition_stream,
)
from .errors import ConfigError, DataError, TraceFormatError
from .eval import (
    Predictions,
    geometric_mean,
    metrics_summary,
    precision_at_k,
    recall_at_k,
    split_index,
)
from .models import (
    ClusterPrefetcher,
    EmbeddingPrefetcher,
    TrainConfig,
    cluster_prediction_sets,
    embedding_dataset,
    embedding_prediction_sets,
    train_model,
)
from .trace import (
    LinkedListSpec,
    MissStream,
    MultiStrideSpec,
    PcCorrelatedSpec,
    RegionHoppingSpec,
    StrideSpec,
    generate_synthetic,
    read_miss_trace,
    read_trace,
    write_miss_trace,
    write_trace,
)
from .vocab import (
    CoverageStats,
    DeltaVocab,
    PcVocab,
    build_pc_vocab,
    build_vocab,
    compute_deltas,
    coverage_stats,
)

__version__ = "0.1.0"
