"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q

They run tiny workloads through the real harness in a scratch checkout
whose `src/` links to this repository's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import artifacts  # noqa: E402
import layers  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "tiny_embedding": (
        lambda v: {
            "seed": v,
            "trace": {"kind": "pc_correlated", "length": 600, "run_length": 1,
                      "table": [64 * (j + 1) for j in range(20)], "shifts": [1, 7]},
            "vocab": {"max_output": 50_000, "min_input_count": 1},
            "model": {"type": "embedding", "hidden": 8, "embed": 4, "dtype": "float32"},
            "train": {"steps": 3, "batch": 4, "window": 8, "optimizer": "adam"},
            "eval": {"k": 10, "split": 0.7},
        },
        workloads.EMBEDDING_STAGES,
    ),
    "tiny_cluster": (
        lambda v: {
            "seed": v,
            "trace": {"kind": "region_hopping", "length": 900, "run_length": 8,
                      "deltas": [[8, 64, 128], [16, 192], [32, 320, 384]]},
            "vocab": {"max_output": 50_000},
            "cluster": {"k": 3, "min_input_count": 1},
            "model": {"type": "cluster", "hidden": 8, "dtype": "float32"},
            "train": {"steps": 3, "window": 8, "optimizer": "adagrad"},
            "eval": {"k": 10, "split": 0.7},
        },
        workloads.CLUSTER_STAGES,
    ),
}


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A checkout root holding only a link to src/, with the tiny workloads."""
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    monkeypatch.setattr(workloads, "WORKLOADS", {**workloads.WORKLOADS, **TINY})
    return str(tmp_path)


def declared_metrics(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_workload_emits_every_metric(checkout, workload):
    reference = make_reference.record(checkout, workload, 0)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, details = run.run(checkout, workload, 0, 0.1, trace, reference)
        assert details["failures"] == []
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == declared_metrics(kind)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert details["machine"]["blas_threads"] == run.BLAS_THREADS


def test_tracer_restores_originals_and_accounts_for_training(tmp_path):
    from prefetchlab import cli, models

    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(json.dumps(TINY["tiny_embedding"][0](0)))
    before = (cli.simulate, models.lstm_forward, models.EmbeddingPrefetcher.loss_and_grads,
              dict(cli._STAGES))
    recorder = tracer.Recorder("test")
    with tracer.installed(recorder):
        assert cli.simulate is not before[0] and models.lstm_forward is not before[1]
        for stage in ("simulate", "vocab", "train"):
            assert cli.main([stage, "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    after = (cli.simulate, models.lstm_forward, models.EmbeddingPrefetcher.loss_and_grads,
             dict(cli._STAGES))
    assert after == before

    keys = ("id", "name", "parent", "start", "end")
    spans = layers.Spans([dict(zip(keys, span)) for span in recorder.spans])
    (train,) = spans.named("models.train_model")
    inside, frontier = [], [train["id"]]
    while frontier:
        parent = frontier.pop()
        children = [s for s in spans.spans if s["parent"] == parent]
        inside += children
        frontier += [s["id"] for s in children]
    assert inside and all(s["name"].split(".")[0] in ("lstm", "models") for s in inside)
    accounted = spans.self_time(train) + sum(spans.self_time(s) for s in inside)
    assert accounted == pytest.approx(layers.duration(train), rel=1e-9)
    assert spans.count("models.loss_and_grads") == 3


def test_corrupted_misses_fail_the_check(checkout):
    cfg, stages = workloads.workload("tiny_embedding", 0)
    work = os.path.join(checkout, "work")
    os.makedirs(work)
    ctx = run.Context(checkout, work, os.path.join(work, "config.yaml"), stages,
                      run.stage_env(os.path.join(checkout, "src")), time.perf_counter() + 120)
    run.set_up(ctx, cfg)
    assert run.run_pipeline(ctx, "once").ran(stages)
    reference = artifacts.reference_entry(ctx.out, stages)
    _, failures = artifacts.check_outputs(ctx.out, stages, reference, None)
    assert failures == []

    path = os.path.join(ctx.out, "misses.bin")
    with open(path, "r+b") as f:
        f.seek(40)
        byte = f.read(1)
        f.seek(40)
        f.write(bytes([byte[0] ^ 1]))
    _, failures = artifacts.check_outputs(ctx.out, stages, reference, None)
    assert ("simulate", "misses.bin differs from the reference") in failures


def test_refuses_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "pc_table_1k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
