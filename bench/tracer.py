"""Span recording around calls into prefetchlab, installed from outside.

Each entry of `PATCHES` names a function or method by the name its caller
looks it up under, so the wrapper sees every call: `cli` and `models` import
functions by name, which is why `prefetchlab.cli.simulate` and
`prefetchlab.models.lstm_forward` are patched there and not in the modules
that define them. The CLI dispatches stages through `cli._STAGES`, whose
entries become `cli.<stage>` spans.

Spans are kept in memory and written once, at the end of the stage.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time


def _baseline_span(prefetcher, *args, **kwargs) -> str:
    """Name baseline spans after the prefetcher class they run."""
    names = {"StreamPrefetcher": "baselines.stream", "GhbPcDc": "baselines.ghb"}
    return names.get(type(prefetcher).__name__, "baselines.other")


# (module, class or None, attribute, span name or a function of the call's
# arguments that returns one)
PATCHES = (
    ("prefetchlab.trace", None, "generate_synthetic", "trace.generate"),
    ("prefetchlab.trace", None, "write_trace", "trace.write"),
    ("prefetchlab.trace", None, "read_miss_trace", "trace.read_misses"),
    ("prefetchlab.cli", None, "simulate", "cachesim.simulate"),
    ("prefetchlab.vocab", None, "compute_deltas", "vocab.compute_deltas"),
    ("prefetchlab.vocab", None, "build_vocab", "vocab.build_vocab"),
    ("prefetchlab.models", None, "build_vocab", "vocab.build_vocab"),
    ("prefetchlab.vocab", None, "build_pc_vocab", "vocab.build_pc_vocab"),
    ("prefetchlab.vocab", None, "coverage_stats", "vocab.coverage_stats"),
    ("prefetchlab.vocab", None, "load_vocab", "vocab.load_vocab"),
    ("prefetchlab.clustering", None, "kmeans_fit", "clustering.kmeans_fit"),
    ("prefetchlab.clustering", None, "partition_stream", "clustering.partition_stream"),
    ("prefetchlab.clustering", "ClusterModel", "assign", "clustering.assign"),
    ("prefetchlab.models", None, "embedding_dataset", "models.embedding_dataset"),
    ("prefetchlab.models", None, "build_cluster_vocabs", "models.build_cluster_vocabs"),
    ("prefetchlab.models", None, "cluster_dataset", "models.cluster_dataset"),
    ("prefetchlab.models", None, "train_model", "models.train_model"),
    ("prefetchlab.models", "EmbeddingPrefetcher", "loss_and_grads", "models.loss_and_grads"),
    ("prefetchlab.models", "ClusterPrefetcher", "loss_and_grads", "models.loss_and_grads"),
    ("prefetchlab.models", "EmbeddingPrefetcher", "predict_topk", "models.predict_topk"),
    ("prefetchlab.models", "ClusterPrefetcher", "predict_topk", "models.predict_topk"),
    ("prefetchlab.models", None, "embedding_prediction_sets", "models.prediction_sets"),
    ("prefetchlab.models", None, "cluster_prediction_sets", "models.prediction_sets"),
    ("prefetchlab.models", None, "lstm_forward", "lstm.forward"),
    ("prefetchlab.models", None, "lstm_backward", "lstm.backward"),
    ("prefetchlab.models", None, "softmax_cross_entropy", "lstm.softmax_xent"),
    ("prefetchlab.models", None, "clip_global_norm", "lstm.clip"),
    ("prefetchlab.models", None, "adam_step", "lstm.optimizer"),
    ("prefetchlab.models", None, "adagrad_step", "lstm.optimizer"),
    ("prefetchlab.models", None, "topk_indices", "lstm.topk"),
    ("prefetchlab.lstm", None, "save_checkpoint", "lstm.save_checkpoint"),
    ("prefetchlab.lstm", None, "load_checkpoint", "lstm.load_checkpoint"),
    ("prefetchlab.baselines", None, "baseline_prediction_sets", _baseline_span),
    ("prefetchlab.eval", None, "metrics_summary", "eval.metrics_summary"),
    ("prefetchlab.eval", None, "write_report", "eval.write_report"),
)


class Recorder:
    """Collects spans as [id, name, parent id, start, end] in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span = [len(self.spans), label, self._open[-1] if self._open else None,
                    time.perf_counter(), None]
            self.spans.append(span)
            self._open.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._open.pop()

        return traced

    def dump(self, path: str, stage: str) -> None:
        keys = ("id", "name", "parent", "start", "end")
        payload = {
            "run": self.run_id,
            "stage": stage,
            "spans": [dict(zip(keys, span)) for span in self.spans],
        }
        with open(path, "w") as f:
            json.dump(payload, f)


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Patch every `PATCHES` entry and the CLI stage table; restore on exit."""
    undo = []
    try:
        for module_name, class_name, attr, span in PATCHES:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, recorder.wrap(span, original))
            undo.append((owner, attr, original))
        stages = importlib.import_module("prefetchlab.cli")._STAGES
        saved_stages = dict(stages)
        for name, fn in saved_stages.items():
            stages[name] = recorder.wrap(f"cli.{name}", fn)
        undo.append((stages, None, saved_stages))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            if attr is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, attr, original)
