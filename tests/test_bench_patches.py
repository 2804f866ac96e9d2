"""The benchmark's tracer patches program functions by name; every name must
still resolve, or each traced benchmark run crashes, and every stage must
still call through the patched names, or a per-layer metric reads zero.

`bench/test_bench.py` runs outside the default test paths, so these checks
keep a rename in the program from passing the tests unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

import yaml

from prefetchlab import cli

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_patch_resolves():
    tracer = load_tracer()
    assert tracer.PATCHES
    for module_name, class_name, attr, _ in tracer.PATCHES:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = owner.__dict__[class_name]
        assert callable(owner.__dict__[attr]), (module_name, class_name, attr)
    assert importlib.import_module("prefetchlab.cli")._STAGES


EMBEDDING_CFG = {
    "seed": 3,
    "trace": {"kind": "stride", "length": 400, "stride": 64},
    "model": {"type": "embedding", "hidden": 16, "embed": 8, "layers": 2, "dtype": "float64"},
    "train": {"steps": 40, "batch": 16, "window": 16},
    "vocab": {"min_input_count": 2},
}
CLUSTER_CFG = {
    "seed": 3,
    "trace": {"kind": "region_hopping", "length": 400, "run_length": 25},
    "cluster": {"k": 3},
    "model": {"type": "cluster", "hidden": 16, "layers": 2, "dtype": "float64"},
    "train": {"steps": 40, "batch": 16, "window": 16},
}
SIMULATE = {"cli.simulate", "trace.generate", "trace.write", "cachesim.simulate",
            "eval.write_report"}
REPORT = {"cli.report", "trace.read_misses", "vocab.compute_deltas", "vocab.coverage_stats",
          "eval.write_report"}
TRAIN = {"cli.train", "trace.read_misses", "models.train_model", "models.loss_and_grads",
         "lstm.forward", "lstm.backward", "lstm.softmax_xent", "lstm.clip", "lstm.optimizer",
         "lstm.save_checkpoint"}
EVAL = {"cli.eval", "trace.read_misses", "lstm.load_checkpoint", "models.prediction_sets",
        "models.predict_topk", "lstm.forward", "lstm.topk", "baselines.stream",
        "baselines.ghb", "eval.metrics_summary", "eval.write_report"}
EMBEDDING_PREP = {"vocab.load_vocab", "vocab.build_pc_vocab", "vocab.compute_deltas",
                  "models.embedding_dataset"}
CLUSTER_PREP = {"clustering.assign", "models.build_cluster_vocabs", "vocab.build_vocab",
                "models.cluster_dataset"}
# the span names each stage records, as recorded before the models built
# their own training batches and prediction sets
STAGE_SPANS = {
    "embedding": {
        "simulate": SIMULATE,
        "vocab": {"cli.vocab", "trace.read_misses", "vocab.compute_deltas", "vocab.build_vocab"},
        "train": TRAIN | EMBEDDING_PREP,
        "eval": EVAL | EMBEDDING_PREP,
        "report": REPORT,
    },
    "cluster": {
        "simulate": SIMULATE,
        "cluster": {"cli.cluster", "trace.read_misses", "clustering.kmeans_fit",
                    "clustering.partition_stream", "clustering.assign"},
        "train": TRAIN | CLUSTER_PREP,
        "eval": EVAL | CLUSTER_PREP,
        "report": REPORT,
    },
}


def test_traced_stages_record_the_span_of_every_layer(tmp_path):
    tracer = load_tracer()
    for name, cfg in (("embedding", EMBEDDING_CFG), ("cluster", CLUSTER_CFG)):
        cfg_path = tmp_path / f"{name}.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        for stage, spans in STAGE_SPANS[name].items():
            recorder = tracer.Recorder(name)
            with tracer.installed(recorder):
                code = cli.main([stage, "--config", str(cfg_path), "--out", str(tmp_path / name)])
            assert code == 0, (name, stage)
            assert {span[1] for span in recorder.spans} == spans, (name, stage)
