"""Per-layer metrics of one traced pipeline.

Spans come from `traced_stage.py`, one list per stage process, so the
stage a span ran in says whether a call was training or evaluation. A
span's self time is its duration minus the durations of its direct
children. A layer that a workload does not run reads 0.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

STAGES = ("simulate", "vocab", "cluster", "train", "eval", "report")
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)

UNITS = {
    "bench.tracing_overhead_s": "s",
    "cli.startup_s": "s",
    "cli.simulate_s": "s",
    "cli.vocab_s": "s",
    "cli.cluster_s": "s",
    "cli.report_s": "s",
    **{f"cli.{stage}.peak_rss_mb": "MB" for stage in STAGES},
    "trace.generate_s": "s",
    "trace.write_s": "s",
    "trace.read_misses_s": "s",
    "trace.read_misses_calls": "count",
    "trace.same_line_share": "ratio",
    "cachesim.simulate_s": "s",
    "cachesim.accesses_per_s": "1/s",
    "cachesim.l1_hits": "count",
    "cachesim.llc_misses": "count",
    "vocab.compute_deltas_s": "s",
    "vocab.build_vocab_s": "s",
    "vocab.build_pc_vocab_s": "s",
    "vocab.coverage_stats_s": "s",
    "vocab.load_vocab_s": "s",
    "vocab.n_input": "count",
    "vocab.n_output": "count",
    "vocab.test_oov_share": "ratio",
    "clustering.kmeans_fit_s": "s",
    "clustering.partition_stream_s": "s",
    "clustering.assign_s": "s",
    "models.embedding_dataset_s": "s",
    "models.build_cluster_vocabs_s": "s",
    "models.cluster_dataset_s": "s",
    "models.dataset_builds": "count",
    "models.train_model_s": "s",
    "models.train_events_per_s": "1/s",
    "models.train_steps": "count",
    "models.train_step_ms_p50": "ms",
    "models.train_step_ms_tail": "ms",
    "models.train_step_tail_pct": "%",
    "models.loss_and_grads_self_ms": "ms",
    "models.train_label_share": "ratio",
    "lstm.forward_ms_per_step": "ms",
    "lstm.backward_ms_per_step": "ms",
    "lstm.softmax_xent_ms_per_step": "ms",
    "lstm.clip_ms_per_step": "ms",
    "lstm.optimizer_ms_per_step": "ms",
    "lstm.eval_forward_s": "s",
    "lstm.topk_s": "s",
    "lstm.save_checkpoint_s": "s",
    "lstm.load_checkpoint_s": "s",
    "models.prediction_sets_s": "s",
    "models.eval_events_per_s": "1/s",
    "models.prediction_sets_self_s": "s",
    "models.precision_at_10": "ratio",
    "models.recall_at_10": "ratio",
    "baselines.stream_us_per_miss": "us",
    "baselines.ghb_us_per_miss": "us",
    "baselines.stream_precision_at_10": "ratio",
    "baselines.ghb_precision_at_10": "ratio",
    "eval.metrics_summary_s": "s",
    "eval.write_report_s": "s",
}


def duration(span: dict) -> float:
    return span["end"] - span["start"]


class Spans:
    """The spans of one stage process."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self._children = defaultdict(float)
        for span in spans:
            if span["parent"] is not None:
                self._children[span["parent"]] += duration(span)

    def named(self, name: str) -> list[dict]:
        return [span for span in self.spans if span["name"] == name]

    def total(self, name: str) -> float:
        return sum(duration(span) for span in self.named(name))

    def self_time(self, span: dict) -> float:
        return duration(span) - self._children[span["id"]]

    def self_total(self, name: str) -> float:
        return sum(self.self_time(span) for span in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))


def step_times(train: Spans) -> np.ndarray:
    """Seconds per training step: from one `loss_and_grads` call to the next,
    the last one ending with `train_model`."""
    starts = sorted(span["start"] for span in train.named("models.loss_and_grads"))
    end = max(span["end"] for span in train.named("models.train_model"))
    return np.diff(np.array(starts + [end]))


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (else the median)."""
    return next((p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10), 50.0)


def layer_metrics(walls: dict, rss: dict, spans: dict, facts: dict, metrics: dict,
                  overhead_s: float) -> dict:
    """Every metric of `UNITS` for one traced pipeline.

    `walls` and `rss` map stage -> wall seconds / peak RSS MB as the harness
    measured the stage process, `spans` maps stage -> span list, `facts`
    comes from `artifacts.facts` and `metrics` is metrics.json's "metrics".
    """
    by_stage = {stage: Spans(spans.get(stage, [])) for stage in STAGES}
    train, ev = by_stage["train"], by_stage["eval"]

    def every(name: str) -> float:
        return sum(s.total(name) for s in by_stage.values())

    def calls(name: str) -> int:
        return sum(s.count(name) for s in by_stage.values())

    steps = step_times(train)
    n_steps = len(steps)
    tail = tail_percentile(n_steps)
    train_s = train.total("models.train_model")
    simulate_s = every("cachesim.simulate")
    prediction_s = ev.total("models.prediction_sets")

    def per_step_ms(name: str) -> float:
        return train.total(name) / n_steps * 1e3

    values = {
        "bench.tracing_overhead_s": overhead_s,
        "cli.startup_s": sum(wall - by_stage[stage].total(f"cli.{stage}")
                             for stage, wall in walls.items()),
        "cli.simulate_s": walls["simulate"],
        "cli.vocab_s": walls.get("vocab", 0.0),
        "cli.cluster_s": walls.get("cluster", 0.0),
        "cli.report_s": walls.get("report", 0.0),
        **{f"cli.{stage}.peak_rss_mb": rss.get(stage, 0.0) for stage in STAGES},
        "trace.generate_s": every("trace.generate"),
        "trace.write_s": every("trace.write"),
        "trace.read_misses_s": every("trace.read_misses"),
        "trace.read_misses_calls": calls("trace.read_misses"),
        "trace.same_line_share": facts["same_line_share"],
        "cachesim.simulate_s": simulate_s,
        "cachesim.accesses_per_s": facts["n_accesses"] / simulate_s,
        "cachesim.l1_hits": facts["l1_hits"],
        "cachesim.llc_misses": facts["llc_misses"],
        "vocab.compute_deltas_s": every("vocab.compute_deltas"),
        "vocab.build_vocab_s": every("vocab.build_vocab"),
        "vocab.build_pc_vocab_s": every("vocab.build_pc_vocab"),
        "vocab.coverage_stats_s": every("vocab.coverage_stats"),
        "vocab.load_vocab_s": every("vocab.load_vocab"),
        "vocab.n_input": facts["n_input"],
        "vocab.n_output": facts["n_output"],
        "vocab.test_oov_share": facts["test_oov_share"],
        "clustering.kmeans_fit_s": every("clustering.kmeans_fit"),
        "clustering.partition_stream_s": every("clustering.partition_stream"),
        "clustering.assign_s": every("clustering.assign"),
        "models.embedding_dataset_s": every("models.embedding_dataset"),
        "models.build_cluster_vocabs_s": every("models.build_cluster_vocabs"),
        "models.cluster_dataset_s": every("models.cluster_dataset"),
        "models.dataset_builds": calls("models.embedding_dataset") + calls("models.cluster_dataset"),
        "models.train_model_s": train_s,
        "models.train_events_per_s":
            n_steps * facts["train_rows"] * facts["train_window"] / train_s,
        "models.train_steps": n_steps,
        "models.train_step_ms_p50": float(np.percentile(steps, 50)) * 1e3,
        "models.train_step_ms_tail": float(np.percentile(steps, tail)) * 1e3,
        "models.train_step_tail_pct": tail,
        "models.loss_and_grads_self_ms":
            train.self_total("models.loss_and_grads") / n_steps * 1e3,
        "models.train_label_share": facts["train_label_share"],
        "lstm.forward_ms_per_step": per_step_ms("lstm.forward"),
        "lstm.backward_ms_per_step": per_step_ms("lstm.backward"),
        "lstm.softmax_xent_ms_per_step": per_step_ms("lstm.softmax_xent"),
        "lstm.clip_ms_per_step": per_step_ms("lstm.clip"),
        "lstm.optimizer_ms_per_step": per_step_ms("lstm.optimizer"),
        "lstm.eval_forward_s": ev.total("lstm.forward"),
        "lstm.topk_s": ev.total("lstm.topk"),
        "lstm.save_checkpoint_s": every("lstm.save_checkpoint"),
        "lstm.load_checkpoint_s": every("lstm.load_checkpoint"),
        "models.prediction_sets_s": prediction_s,
        "models.eval_events_per_s": facts["eval_events"] / prediction_s,
        "models.prediction_sets_self_s": ev.self_total("models.prediction_sets"),
        "models.precision_at_10": metrics["model"]["precision_at_k"],
        "models.recall_at_10": metrics["model"]["recall_at_k"],
        "baselines.stream_us_per_miss": ev.total("baselines.stream") / facts["n_misses"] * 1e6,
        "baselines.ghb_us_per_miss": ev.total("baselines.ghb") / facts["n_misses"] * 1e6,
        "baselines.stream_precision_at_10": metrics["stream"]["precision_at_k"],
        "baselines.ghb_precision_at_10": metrics["ghb_pc_dc"]["precision_at_k"],
        "eval.metrics_summary_s": ev.total("eval.metrics_summary"),
        "eval.write_report_s": ev.total("eval.write_report"),
    }
    return {name: values[name] for name in UNITS}
