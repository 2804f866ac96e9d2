import csv
import functools
import gc
import json
import os
import pathlib
import shutil
import struct
import subprocess
import sys
import types
import weakref

import numpy as np
import pytest
import yaml

from prefetchlab import baselines, cli, clustering, lstm, models
from prefetchlab.cli import load_config, main

STRIDE_CFG = {
    "seed": 3,
    "trace": {"kind": "stride", "length": 400, "stride": 64},
    "model": {"type": "embedding", "hidden": 16, "embed": 8, "layers": 2, "dtype": "float64"},
    "train": {"steps": 40, "batch": 16, "window": 16},
    "vocab": {"min_input_count": 2},
}

REGION_CFG = {
    "seed": 3,
    "trace": {"kind": "region_hopping", "length": 400, "run_length": 25},
    "cluster": {"k": 3},
    "model": {"type": "cluster", "hidden": 16, "layers": 2, "dtype": "float64"},
    "train": {"steps": 40, "batch": 16, "window": 16},
}


def write_cfg(tmp_path, cfg, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def run(stage, cfg_path, out_dir, *extra):
    return main([stage, "--config", cfg_path, "--out", str(out_dir), *extra])


def test_load_config_merges_defaults(tmp_path):
    path = write_cfg(tmp_path, {"train": {"steps": 7}, "custom_key": 1})
    cfg = load_config(path)
    assert cfg["train"]["steps"] == 7
    assert cfg["train"]["batch"] == 64  # default retained
    assert cfg["vocab"]["max_output"] == 50_000
    assert cfg["custom_key"] == 1
    assert load_config(path, seed=5)["seed"] == 5


@pytest.mark.parametrize("text", ["", "null\n", "# nothing\n"])
def test_empty_config_document_means_defaults(tmp_path, text):
    path = tmp_path / "empty.yaml"
    path.write_text(text)
    assert load_config(path) == load_config(write_cfg(tmp_path, {}))


def test_load_config_same_with_either_yaml_loader(tmp_path, monkeypatch):
    table = [64 * (j + 1) for j in range(1000)]
    path = write_cfg(tmp_path, {
        "trace": {"kind": "pc_correlated", "length": 9000, "table": table,
                  "shifts": [1, 117, 353, 612], "selection": "round_robin"},
        "train": {"steps": 10, "lr": None, "clip": 2.5},
        "eval": {"baselines": False},
    })
    loaded = {}
    for loader in (getattr(yaml, "CSafeLoader", yaml.SafeLoader), yaml.SafeLoader):
        monkeypatch.setattr(cli, "YAML_LOADER", loader)
        loaded[loader] = load_config(path)
    first, second = loaded.values()
    assert first == second
    assert first["trace"]["table"] == table


@pytest.mark.parametrize(
    "text,names",
    [
        ("trace: {kind: stride\n", ("invalid YAML",)),
        ("trace: {kind: stride, length: 10}\nmodel: 3\n", ("model must be a mapping",)),
        ("trace: {kind: stride, length: 10}\ntrain: {setps: 5}\n", ("train.setps",)),
        ("train: {steps: 5, eval_every: 2}\n", ("train.eval_every",)),
        ("eval: {k: 0}\n", ("eval.k",)),
        ("eval: {k: true}\n", ("eval.k",)),
        ("model: {hidden: 0}\n", ("model.hidden",)),
        ("model: {embed: -3}\n", ("model.embed",)),
        ("model: {layers: 1.5}\n", ("model.layers",)),
        ("model: {dtype: int8}\n", ("model.dtype",)),
        ("model: {dtype: null}\n", ("model.dtype",)),
        ("model: {dtype: float16}\n", ("model.dtype", "float16")),
        ("train: {steps: x}\n", ("train.steps",)),
        ("train: {batch: '16'}\n", ("train.batch",)),
        ("train: {window: 0}\n", ("train.window",)),
        ("train: {clip: x}\n", ("train.clip",)),
        ("train: {lr: x}\n", ("train.lr",)),
        ("vocab: {max_output: x}\n", ("vocab.max_output",)),
        ("vocab: {min_input_count: 1.5}\n", ("vocab.min_input_count",)),
        ("cluster: {k: x}\n", ("cluster.k",)),
        ("cluster: {max_iters: x}\n", ("cluster.max_iters",)),
        ("cluster: {min_input_count: 0}\n", ("cluster.min_input_count",)),
        ("seed: x\n", ("seed",)),
        ("seed: true\n", ("seed",)),
        ("eval: {baselines: x}\n", ("eval.baselines",)),
        ("eval: {split: 1.0}\n", ("eval.split",)),
        ("eval: {split: x}\n", ("eval.split",)),
        ("model: {type: rnn}\n", ("model.type",)),
        ("model: {modality: pcs}\n", ("model.modality",)),
        ("train: {optimizer: sgd}\n", ("train.optimizer",)),
        ("trace: {kind: stride, length: x}\n", ("trace.length",)),
        ("trace: {kind: stride, length: 1000, stride: x}\n", ("trace.stride",)),
        ("trace: {kind: multi_stride, length: 1.5}\n", ("trace.length",)),
        ("trace: {kind: multi_stride, length: 10, strides: [64, x]}\n", ("trace.strides",)),
        ("trace: {kind: stride, length: 10, strid: 8}\n", ("trace.strid",)),
        ("trace: [stride, 10]\n", ("trace must be a mapping",)),
        ("cache: {levels: [{capacity: 32768, associativity: 8.0}]}\n",
         ("cache.levels[0].associativity", "8.0")),
        ("cache: {levels: [{capacity: 32768, associativity: 8}, "
         "{capacity: 262144, associativity: 8}], miss_emit_level: true}\n",
         ("cache.miss_emit_level", "True")),
        ("cache: {levels: [{capacity: 32768, associativity: 8}], miss_emit_level: 0.0}\n",
         ("cache.miss_emit_level", "0.0")),
        ("trace: {kind: stride, length: 200, pc: -1}\n", ("trace.pc", "-1")),
        ("trace: {kind: stride, length: 200, pc: 18446744073709551616}\n",
         ("trace.pc", "18446744073709551616")),
        ("trace: {kind: region_hopping, length: 200, pcs: [-4, 8, 12]}\n",
         ("trace.pcs", "[-4, 8, 12]")),
        ("trace: {kind: [stride], length: 400}\n", ("trace.kind", "['stride']")),
        ("note: 2020-01-01\n", ("note must be", "datetime.date(2020, 1, 1)")),
        ("note: !!binary aGVsbG8=\n", ("note must be", "b'hello'")),
        ("note: .nan\n", ("note must be", "nan")),
        ("1: x\n", ("key 1 must be a string",)),
        ("note: {1: x}\n", ("key note.1 must be a string",)),
        ("note: {a: {true: x}}\n", ("key note.a.True must be a string",)),
        ("note: [a, {b: 1, 2: x}]\n", ("key note[1].2 must be a string",)),
        ("0\n", ("config must be a mapping",)),
        ("false\n", ("config must be a mapping",)),
        ("[]\n", ("config must be a mapping",)),
        ("''\n", ("config must be a mapping",)),
    ],
    ids=["malformed_yaml", "section_not_a_mapping", "unknown_key", "removed_key",
         "k_zero", "k_bool", "hidden_zero", "embed_negative", "layers_float", "dtype_int8",
         "dtype_null", "dtype_float16", "steps_string", "batch_string", "window_zero",
         "clip_string",
         "lr_string", "max_output_string", "min_input_count_float", "cluster_k_string",
         "max_iters_string", "cluster_min_input_count_zero", "seed_string", "seed_bool",
         "baselines_string", "split_one", "split_string", "type_unknown", "modality_unknown",
         "optimizer_unknown", "trace_length_string", "trace_stride_string",
         "trace_length_float", "trace_strides_item_string", "trace_unknown_key",
         "trace_not_a_mapping", "cache_associativity_float", "cache_emit_level_bool",
         "cache_emit_level_float", "trace_pc_negative", "trace_pc_too_large",
         "trace_pcs_negative", "trace_kind_list", "top_level_date", "top_level_bytes",
         "top_level_nan", "top_level_int_key", "nested_int_key", "nested_bool_key",
         "key_in_list", "document_zero", "document_false", "document_empty_list",
         "document_empty_string"],
)
def test_bad_config_exits_1_with_one_error_line(tmp_path, capsys, text, names):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    for name in (str(path),) + names:
        assert name in lines[0]
    assert not (tmp_path / "run").exists()


def test_main_freezes_the_heap_at_exit_only_when_it_owns_the_process(tmp_path, monkeypatch):
    """`main()` with no argv, as the console script calls it, registers
    gc.freeze to run at exit; a caller that passes argv keeps the normal
    finalization of its objects."""
    registered = []
    monkeypatch.setattr(cli.atexit, "register", registered.append)
    missing = str(tmp_path / "missing.yaml")
    assert main(["simulate", "--config", missing]) == 1
    assert registered == []
    monkeypatch.setattr(sys, "argv", ["prefetchlab", "simulate", "--config", missing])
    assert main() == 1
    assert registered == [gc.freeze]


def fake_libc(*results):
    """A libc whose mallopt records its calls and answers from `results`."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return results[len(calls) - 1]

    return types.SimpleNamespace(mallopt=mallopt), calls


def test_keep_heap_sets_trim_threshold_only_after_mmap_threshold():
    libc, calls = fake_libc(1, 1)
    assert cli.keep_heap(libc)
    assert calls == [(cli.M_MMAP_THRESHOLD, 32 << 20), (cli.M_TRIM_THRESHOLD, 256 << 20)]
    # refused: the trim threshold alone would pin the mmap threshold
    libc, calls = fake_libc(0)
    assert not cli.keep_heap(libc)
    assert calls == [(cli.M_MMAP_THRESHOLD, 32 << 20)]


def test_keep_heap_without_mallopt_is_a_no_op():
    assert not cli.keep_heap(object())


def test_release_heap_trims_through_malloc_trim():
    pads = []
    libc = types.SimpleNamespace(malloc_trim=lambda pad: pads.append(pad) or 1)
    assert cli.release_heap(libc)
    assert pads == [0]


def test_release_heap_without_malloc_trim_is_a_no_op():
    assert not cli.release_heap(object())


def test_embedding_pipeline_stages(tmp_path):
    cfg_path = write_cfg(tmp_path, STRIDE_CFG)
    out = tmp_path / "run"
    assert run("simulate", cfg_path, out) == 0
    assert (out / "trace.bin").exists()
    assert (out / "misses.bin").exists()
    assert (out / "sim_stats.json").exists()
    assert run("vocab", cfg_path, out) == 0
    assert (out / "vocab.bin").exists()
    assert run("train", cfg_path, out) == 0
    assert (out / "model.bin").exists()
    assert run("eval", cfg_path, out) == 0
    assert (out / "metrics.json").exists()
    assert run("report", cfg_path, out) == 0
    assert (out / "report.json").exists()

    from prefetchlab.eval import read_report

    report = read_report(out / "report.json")
    assert set(report["evaluation"]["metrics"]) == {"model", "stream", "ghb_pc_dc"}
    # a pure stride trace is trivially predictable for the stream prefetcher
    assert report["evaluation"]["metrics"]["stream"]["precision_at_k"] > 0.99
    assert report["simulation"]["n_misses"] == 400


def test_export_embeddings_csv(tmp_path):
    cfg_path = write_cfg(tmp_path, STRIDE_CFG)
    out = tmp_path / "run"
    for stage in ("simulate", "vocab", "train"):
        assert run(stage, cfg_path, out) == 0
    assert run("export-embeddings", cfg_path, out) == 0
    with open(out / "embeddings.csv", newline="") as f:
        rows = list(csv.reader(f))
    header, data = rows[0], rows[1:]
    assert header[:2] == ["input_class_id", "delta"]
    assert len(header) == 2 + 8  # one column per delta-embedding dimension
    assert data[-1][1] == ""  # catch-all row has no delta value
    ids = [int(r[0]) for r in data]
    assert ids == sorted(ids)


def test_cluster_pipeline_stages(tmp_path):
    cfg_path = write_cfg(tmp_path, REGION_CFG)
    out = tmp_path / "run"
    for stage in ("simulate", "cluster", "train", "eval", "report"):
        assert run(stage, cfg_path, out) == 0
    assert (out / "clusters.bin").exists()
    from prefetchlab.eval import read_report

    metrics = read_report(out / "metrics.json")
    assert metrics["metrics"]["model"]["n_events"] > 0


@pytest.mark.parametrize("cfg,stages,sets_fn", [
    (STRIDE_CFG, ("simulate", "vocab", "train"), "embedding_prediction_sets"),
    (REGION_CFG, ("simulate", "cluster", "train"), "cluster_prediction_sets"),
])
def test_eval_holds_one_method_sets_at_a_time(tmp_path, monkeypatch, cfg, stages, sets_fn):
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "run"
    for stage in stages:
        assert run(stage, cfg_path, out) == 0
    made, alive_at_call = [], []

    def watched(fn, *args, **kwargs):
        alive_at_call.append([name for name, ref in made if ref() is not None])
        sets = fn(*args, **kwargs)
        made.append((fn.__name__, weakref.ref(sets)))
        return sets

    def model_sets(model, *args):
        made.append(("model", weakref.ref(model)))
        return watched(real_model_sets, model, *args)

    real_model_sets = getattr(models, sets_fn)
    real_baseline_sets = baselines.baseline_prediction_sets
    monkeypatch.setattr(models, sets_fn, model_sets)
    monkeypatch.setattr(baselines, "baseline_prediction_sets",
                        functools.partial(watched, real_baseline_sets))
    alive_at_release = []
    monkeypatch.setattr(cli, "release_heap", lambda: alive_at_release.append(
        [name for name, ref in made if ref() is not None]))
    assert run("eval", cfg_path, out) == 0
    # the model, and each method's sets once scored, are gone before the next method runs
    assert alive_at_call == [["model"], [], []]
    # the heap is released once, after the model and its sets are gone
    assert alive_at_release == [[]]


def fresh_env():
    """The environment of a fresh interpreter that imports this package."""
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    return env


def run_fresh(script, *args):
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=fresh_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


# Large enough that the LSTM layer GEMMs (B = 64, H = 64, D = 64) and the
# head's gradient GEMMs (T*B = 1024 rows, ~200 classes) run on two lanes
# where BLAS runs one thread
LANE_CFG = {
    "seed": 5,
    "trace": {"kind": "pc_correlated", "length": 4000, "table": [64 * (j + 1) for j in range(200)],
              "shifts": [1, 37, 91, 150], "run_length": 1, "selection": "round_robin"},
    "model": {"type": "embedding", "hidden": 64, "embed": 32, "dtype": "float32"},
    "train": {"steps": 2, "batch": 64, "window": 16},
    "vocab": {"min_input_count": 2},
}


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_training_is_deterministic_at_each_blas_thread_count(tmp_path, blas_threads):
    """Two fresh `train` processes at one BLAS thread count write the same
    model.bin: at one thread with the step's GEMMs on two lanes, at two
    with each GEMM spread by BLAS and lanes off."""
    assert lstm._layer_macs(64, 64, 64) >= lstm.LANE_MIN_MACS
    cfg_path = write_cfg(tmp_path, LANE_CFG)
    first = tmp_path / "first"
    for stage in ("simulate", "vocab"):
        assert run(stage, cfg_path, first) == 0
    second = tmp_path / "second"
    shutil.copytree(first, second)
    env = dict(fresh_env(), OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads)
    for out in (first, second):
        argv = [sys.executable, "-m", "prefetchlab.cli", "train", "--config", cfg_path,
                "--out", str(out)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
    assert (first / "model.bin").read_bytes() == (second / "model.bin").read_bytes()


# Runs one stage in a fresh interpreter and reports its exit code and which
# of these modules it left loaded: OpenSSL's _hashlib (as a module: the
# stage's block of it is a None entry), numpy.ma, numpy.random, the model
# code and fractions (with decimal, which it imports).
STAGE_PROBE = """
import json, sys
from prefetchlab.cli import main
code = main(sys.argv[1:])
names = ("_hashlib", "numpy.ma", "numpy.random", "prefetchlab.baselines",
         "prefetchlab.clustering", "prefetchlab.lstm", "prefetchlab.models", "fractions")
print(json.dumps([code, [m for m in names if sys.modules.get(m) is not None]]))
"""
MODEL_CODE = ["prefetchlab.clustering", "prefetchlab.lstm", "prefetchlab.models"]
TRAIN_LOADS = ["numpy.random", *MODEL_CODE, "fractions"]
EVAL_LOADS = ["prefetchlab.baselines", *MODEL_CODE, "fractions"]


def sys_modules_changes(before):
    """Entries of `before` that sys.modules no longer holds as they were,
    and the None entries (import blocks) added since."""
    return ([name for name, module in before.items() if sys.modules.get(name) is not module],
            [name for name, module in sys.modules.items() if module is None and name not in before])


@pytest.mark.parametrize("cfg,fresh,in_process", [
    (STRIDE_CFG, {"simulate": [], "vocab": ["fractions"], "train": TRAIN_LOADS,
                  "eval": EVAL_LOADS, "report": []}, ("train", "report")),
    (REGION_CFG, {"simulate": [], "cluster": ["numpy.random", "prefetchlab.clustering",
                                              "fractions"],
                  "train": TRAIN_LOADS, "eval": EVAL_LOADS, "report": []}, ("train", "report")),
])
def test_scoring_stages_load_no_openssl_or_numpy_random(tmp_path, cfg, fresh, in_process):
    """Each stage, run in a fresh interpreter, loads only what it runs: no
    stage loads OpenSSL, only cluster (k-means++ seeding) and train (weight
    init) import numpy.random, the model code is imported only by the
    stages that run it, and none imports numpy.ma (np.unique without counts
    does), and only the stages that split the stream import fractions. Run
    again in this process, `in_process` stages leave sys.modules as they
    found it."""
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "run"
    for stage, loads in fresh.items():
        proc = run_fresh(STAGE_PROBE, stage, "--config", cfg_path, "--out", out)
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, loads], stage
    for stage in in_process:
        before = dict(sys.modules)
        assert run(stage, cfg_path, out) == 0
        assert sys_modules_changes(before) == ([], []), stage


# Runs train in a fresh interpreter, with OpenSSL imported first if asked,
# and reports whether sys.modules kept its entries and gained no block,
# and whether hashlib, imported after the stage, builds sha256 from OpenSSL.
IN_PROCESS_PROBE = """
import json, sys
from prefetchlab.cli import main
if sys.argv[1] == "preloaded":
    import _hashlib
before = dict(sys.modules)
code = main(sys.argv[2:])
changed = [name for name, module in before.items() if sys.modules.get(name) is not module]
blocks = [name for name, module in sys.modules.items() if module is None and name not in before]
import _hashlib, hashlib
print(json.dumps([code, changed, blocks, hashlib.sha256 is _hashlib.openssl_sha256]))
"""


@pytest.mark.parametrize("openssl", ["absent", "preloaded"])
def test_in_process_main_leaves_sys_modules_as_it_found_it(tmp_path, openssl):
    """main() blocks OpenSSL only for the stage it runs: a caller in the
    same process that imports hashlib afterwards gets OpenSSL's hashes, and
    one that already had OpenSSL keeps its module."""
    cfg_path = write_cfg(tmp_path, STRIDE_CFG)
    out = tmp_path / "run"
    for stage in ("simulate", "vocab"):
        assert run(stage, cfg_path, out) == 0
    proc = run_fresh(IN_PROCESS_PROBE, openssl, "train", "--config", cfg_path, "--out", out)
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, [], [], True]


# Runs one stage in a fresh interpreter in which the builtin digest modules
# named by argv[1] cannot be imported, and reports its exit code and
# whether OpenSSL's _hashlib was loaded.
NO_BUILTIN_DIGESTS_PROBE = """
import json, sys
sys.modules.update(dict.fromkeys(json.loads(sys.argv[1]), None))
from prefetchlab.cli import main
code = main(sys.argv[2:])
print(json.dumps([code, sys.modules.get("_hashlib") is not None]))
"""


def test_stages_keep_openssl_without_builtin_digests(tmp_path):
    """Where hashlib's builtin digests are missing, the stages keep
    OpenSSL, print nothing extra and hash and report the same bytes as
    with them. _blake2 stays importable: hashlib takes blake2 from it even
    with OpenSSL, and logs an error at import without it either way."""
    cfg_path = write_cfg(tmp_path, STRIDE_CFG)
    with_builtins, without = tmp_path / "with_builtins", tmp_path / "without"
    for stage in ("simulate", "vocab"):
        assert run(stage, cfg_path, with_builtins) == 0
    shutil.copytree(with_builtins, without)
    missing = [m for m in cli.BUILTIN_DIGESTS if m != "_blake2"]
    for stage in ("train", "eval", "report"):
        for out, blocked in ((with_builtins, []), (without, missing)):
            proc = run_fresh(NO_BUILTIN_DIGESTS_PROBE, json.dumps(blocked), stage,
                             "--config", cfg_path, "--out", out)
            assert proc.stderr == "", (stage, blocked, proc.stderr)
            openssl = bool(blocked) and stage != "eval"
            assert json.loads(proc.stdout.splitlines()[-1]) == [0, openssl], (stage, blocked)
    for name in ("model.bin", "report.json"):
        assert (without / name).read_bytes() == (with_builtins / name).read_bytes(), name


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x.yaml"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # --config is required
    assert exc.value.code == 2


def test_runtime_errors_exit_1(tmp_path, capsys):
    out = tmp_path / "run"
    missing = str(tmp_path / "nope.yaml")
    assert main(["simulate", "--config", missing, "--out", str(out)]) == 1

    cfg_path = write_cfg(tmp_path, STRIDE_CFG)
    # stages out of order: eval needs a trained model
    assert run("eval", cfg_path, out) == 1

    bad = dict(STRIDE_CFG)
    bad["trace"] = {"kind": "mystery", "length": 10}
    bad_path = write_cfg(tmp_path, bad, "bad.yaml")
    assert run("simulate", bad_path, out) == 1

    for cache, name in [("skylake", "skylake"), ({"miss_emit_level": 0}, "levels"),
                        ({"levels": [{"capacity": 1024, "associativity": 2, "ways": 4}]}, "ways")]:
        capsys.readouterr()
        assert run("simulate", write_cfg(tmp_path, dict(STRIDE_CFG, cache=cache)), out) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0], lines


def tampered_clusters(data: bytes, k: int, case: str) -> bytes:
    """clusters.bin with its has-norms flag (the header's last byte) or one
    float changed; after the header come k centroids, then cluster c's
    mean and std at float k + 2c and k + 2c + 1."""
    header = len(clustering.KMEANS_MAGIC) + clustering._KM_HEADER.size
    if case == "has_norms_0":
        return data[: header - 1] + b"\x00" + data[header:]
    values = np.frombuffer(data, dtype="<f8", offset=header).copy()
    at, value = {"nan_std": (k + 1, np.nan), "zero_std": (k + 3, 0.0),
                 "negative_std": (k + 5, -1.0), "inf_centroid": (1, np.inf)}[case]
    values[at] = value
    return data[:header] + values.tobytes()


def garbled_first_dimension(data, dim):
    """A checkpoint's bytes with the first dimension of its first tensor set to `dim`."""
    (meta_len,) = struct.unpack_from("<I", data, len(lstm.CKPT_MAGIC) + 4)
    at = len(lstm.CKPT_MAGIC) + 8 + meta_len + 4  # the first tensor's name length
    (name_len,) = struct.unpack_from("<H", data, at)
    at += 2 + name_len + 1  # past the name and ndim
    return data[:at] + struct.pack("<Q", dim) + data[at + 8:]


@pytest.mark.parametrize(
    "cfg,stages,artifacts",
    [
        (STRIDE_CFG, ("simulate", "vocab", "train"), ("model.bin", "vocab.bin")),
        (REGION_CFG, ("simulate", "cluster", "train"), ("clusters.bin",)),
    ],
)
def test_truncated_artifacts_exit_1_with_one_error_line(tmp_path, capsys, cfg, stages, artifacts):
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "run"
    for stage in stages:
        assert run(stage, cfg_path, out) == 0
    for artifact in artifacts:
        path = out / artifact
        data = path.read_bytes()
        offsets = sorted({o for o in (0, 10, 40, 200, len(data) // 2, len(data) - 1) if o < len(data)})
        damaged = [(f"cut at {offset}", data[:offset]) for offset in offsets]
        if artifact == "model.bin":
            at = data.index(b"<f8")  # the first stored dtype, its kind garbled
            damaged.append(("dtype <Z8", data[:at + 1] + b"Z" + data[at + 2:]))
            damaged += [(f"first dimension 2^{bits}", garbled_first_dimension(data, 1 << bits))
                        for bits in (36, 60)]
        if artifact == "clusters.bin":  # whole, but a flag or value out of range
            damaged += [(case, tampered_clusters(data, cfg["cluster"]["k"], case)) for case in
                        ("nan_std", "zero_std", "negative_std", "inf_centroid", "has_norms_0")]
        for how, content in damaged:
            path.write_bytes(content)
            capsys.readouterr()
            assert run("eval", cfg_path, out) == 1, (artifact, how)
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (artifact, how, lines)
            assert artifact in lines[0]
        path.write_bytes(data)


def assert_eval_refuses_model(cfg_path, out, capsys):
    capsys.readouterr()
    assert run("eval", cfg_path, out) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "model.bin" in lines[0]


def test_eval_refuses_model_trained_on_another_vocabulary(tmp_path, capsys):
    cfg = dict(REGION_CFG, model=dict(STRIDE_CFG["model"]), vocab={"min_input_count": 1})
    out = tmp_path / "run"
    cfg_path = write_cfg(tmp_path, cfg)
    for stage in ("simulate", "vocab", "train", "eval"):
        assert run(stage, cfg_path, out) == 0
    smaller = write_cfg(tmp_path, dict(cfg, vocab={"min_input_count": 1, "max_output": 2}),
                        "smaller.yaml")
    assert run("vocab", smaller, out) == 0
    assert_eval_refuses_model(smaller, out, capsys)


def test_eval_refuses_model_of_another_type(tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = write_cfg(tmp_path, STRIDE_CFG)
    for stage in ("simulate", "vocab", "cluster", "train"):
        assert run(stage, cfg_path, out) == 0
    cluster = write_cfg(tmp_path, dict(STRIDE_CFG, model=dict(REGION_CFG["model"])),
                        "cluster.yaml")
    assert_eval_refuses_model(cluster, out, capsys)


def test_export_requires_delta_embeddings(tmp_path):
    cfg = dict(STRIDE_CFG)
    cfg["model"] = dict(STRIDE_CFG["model"], modality="pc_only")
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "run"
    for stage in ("simulate", "vocab", "train"):
        assert run(stage, cfg_path, out) == 0
    assert run("export-embeddings", cfg_path, out) == 1


def test_repeat_runs_byte_identical(tmp_path):
    cfg_path = write_cfg(tmp_path, STRIDE_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        for stage in ("simulate", "vocab", "train", "eval", "report"):
            assert run(stage, cfg_path, out) == 0
        outs.append(out)
    for artifact in ("trace.bin", "misses.bin", "vocab.bin", "model.bin",
                     "metrics.json", "report.json"):
        a = (outs[0] / artifact).read_bytes()
        b = (outs[1] / artifact).read_bytes()
        assert a == b, f"{artifact} differs between identical runs"


def test_seed_flag_changes_model(tmp_path):
    cfg_path = write_cfg(tmp_path, STRIDE_CFG)
    models = []
    for name, seed in (("s0", "3"), ("s1", "11")):
        out = tmp_path / name
        assert run("simulate", cfg_path, out, "--seed", seed) == 0
        assert run("vocab", cfg_path, out, "--seed", seed) == 0
        assert run("train", cfg_path, out, "--seed", seed) == 0
        models.append((out / "model.bin").read_bytes())
    assert models[0] != models[1]


def test_out_directory_created(tmp_path):
    cfg_path = write_cfg(tmp_path, STRIDE_CFG)
    nested = tmp_path / "deep" / "run"
    assert run("simulate", cfg_path, nested) == 0
    assert os.path.isdir(nested)
