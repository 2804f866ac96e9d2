"""Command line pipeline: simulate | vocab | cluster | train | eval | report.

Every subcommand reads one YAML config and an output directory and writes
its artifacts there, so a full run is a sequence of idempotent stages:

    prefetchlab simulate --config run.yaml --out run/
    prefetchlab vocab    --config run.yaml --out run/
    prefetchlab train    --config run.yaml --out run/
    prefetchlab eval     --config run.yaml --out run/
    prefetchlab report   --config run.yaml --out run/

Exit codes: 0 on success, 1 on runtime errors (bad data, missing
artifacts), 2 on usage errors. Runs are deterministic for a fixed config
and seed; reports are byte-identical across repeat runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import math
import os
import sys
import types
import typing

import numpy as np
import yaml

from . import eval as evaluation, trace, vocab as vocab_mod
from .cachesim import CacheLevelConfig, HierarchyConfig, default_broadwell_config, simulate
from .errors import ConfigError, DataError

TRACE_FILE = "trace.bin"
MISSES_FILE = "misses.bin"
SIM_STATS_FILE = "sim_stats.json"
VOCAB_FILE = "vocab.bin"
CLUSTER_FILE = "clusters.bin"
MODEL_FILE = "model.bin"
METRICS_FILE = "metrics.json"
REPORT_FILE = "report.json"


def _int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_int(value) -> bool:
    return _int(value) and value >= 1


def _positive_number(value) -> bool:
    return (_int(value) or isinstance(value, float)) and 0 < value < math.inf


def _one_of(*choices):
    return choices.__contains__, f"one of {', '.join(choices)}"


_POSITIVE_INT = (_positive_int, "an integer >= 1")
# section (None: the top level) -> key -> (default, check, what the value
# must be); the trace: and cache: sections are checked by building their specs
CONFIG_KEYS = {
    None: {"seed": (0, _int, "an integer")},
    "vocab": {"max_output": (50_000, *_POSITIVE_INT), "min_input_count": (10, *_POSITIVE_INT)},
    "cluster": {
        "k": (3, *_POSITIVE_INT),
        "max_iters": (100, *_POSITIVE_INT),
        "min_input_count": (1, *_POSITIVE_INT),
    },
    "model": {
        "type": ("embedding", *_one_of("embedding", "cluster")),
        "hidden": (128, *_POSITIVE_INT),
        "embed": (64, *_POSITIVE_INT),
        "layers": (2, *_POSITIVE_INT),
        "modality": ("both", *_one_of("both", "delta_only", "pc_only")),
        "dtype": ("float32", *_one_of("float32", "float64")),
    },
    "train": {
        "steps": (1000, *_POSITIVE_INT),
        "batch": (64, *_POSITIVE_INT),
        "window": (64, *_POSITIVE_INT),
        "optimizer": ("adam", *_one_of("adam", "adagrad")),
        "lr": (None, lambda v: v is None or _positive_number(v), "null or a number > 0"),
        "clip": (5.0, _positive_number, "a number > 0"),
    },
    "eval": {
        "k": (10, *_POSITIVE_INT),
        "split": (0.7, lambda v: _positive_number(v) and v < 1, "a number in (0, 1)"),
        "baselines": (True, lambda v: isinstance(v, bool), "true or false"),
    },
}

# libyaml's parser when PyYAML was built with it; both build the same dicts
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path, seed: int | None = None) -> dict:
    """Config file merged over the defaults of CONFIG_KEYS.

    Keys inside a CONFIG_KEYS section must be known, and every key of
    CONFIG_KEYS must pass its check; the trace: and cache: sections must
    build their specs. Other top-level keys pass through into the report
    and the config hash, so every key in them, at any depth, must be a
    string (JSON would make 1 and '1' one key) and every value plain JSON
    (no dates, binary, NaN or inf). Raises ConfigError naming the file and
    the key otherwise; the merged config holds only JSON values.
    """
    with open(path) as f:
        try:
            cfg = yaml.load(f, Loader=YAML_LOADER) or {}
        except yaml.YAMLError as e:
            raise ConfigError(f"{path}: invalid YAML: {' '.join(str(e).split())}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    if seed is not None:
        cfg["seed"] = seed
    merged = {}
    for section, keys in CONFIG_KEYS.items():
        if section is None:
            given, into, prefix = cfg, merged, ""
        else:
            given, into, prefix = cfg.get(section), merged.setdefault(section, {}), f"{section}."
            given = {} if given is None else given
            if not isinstance(given, dict):
                raise ConfigError(f"{path}: {section} must be a mapping, got {given!r}")
            unknown = sorted(set(given) - set(keys), key=str)
            if unknown:
                raise ConfigError(f"{path}: unknown key {section}.{unknown[0]}")
        for key, (default, ok, want) in keys.items():
            value = into[key] = given.get(key, default)
            if not ok(value):
                raise ConfigError(f"{path}: {prefix}{key} must be {want}, got {value!r}")
    try:
        hierarchy_from_config(cfg)
        if cfg.get("trace") is not None:
            trace_spec_from_config(cfg)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None
    passed = {key: value for key, value in cfg.items() if key not in merged}
    for where, key in _keys(passed):
        if not isinstance(key, str):
            raise ConfigError(f"{path}: key {where} must be a string")
    for key, value in passed.items():
        try:
            evaluation.canonical_json(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{path}: {key} must be plain JSON (no dates, binary, NaN "
                              f"or inf), got {value!r}") from None
        merged[key] = value
    return merged


def _keys(value, path: str | None = None):
    """(path, key) of every mapping key in `value`, at any depth and inside
    lists; `path` names `value`."""
    if isinstance(value, dict):
        for key, item in value.items():
            where = str(key) if path is None else f"{path}.{key}"
            yield where, key
            yield from _keys(item, where)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _keys(item, f"{path}[{i}]")


def _as_tuple(value):
    if isinstance(value, list):
        return tuple(_as_tuple(v) for v in value)
    return value


def _fits(value, hint) -> bool:
    """Whether a config value, its lists made tuples, fits a spec field's type."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_fits(value, arg) for arg in args)
    if typing.get_origin(hint) is tuple:  # every spec tuple is tuple[X, ...]
        return isinstance(value, tuple) and all(_fits(v, args[0]) for v in value)
    return _int(value) if hint is int else isinstance(value, hint)


def _checked(cls, section: dict, where: str, note: str = ""):
    """`cls(**section)`, each value (its lists made tuples) checked against
    the annotation of its field; `where` names the section in errors."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {section!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    for key, value in section.items():
        if key not in fields:
            raise ConfigError(f"unknown key {where}.{key}{note}")
        if not _fits(_as_tuple(value), hints[key]):
            raise ConfigError(f"{where}.{key} must be {fields[key].type}, got {value!r}")
    missing = [name for name, f in fields.items() if name not in section
               and f.default is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{where}.{missing[0]} is required{note}")
    return cls(**{key: _as_tuple(value) for key, value in section.items()})


def trace_spec_from_config(cfg: dict):
    """The trace spec of `cfg`'s trace: section, each value checked
    against its field's annotation and every PC in [0, 2**64)."""
    section = cfg.get("trace") or {}
    if not isinstance(section, dict):
        raise ConfigError(f"trace must be a mapping, got {section!r}")
    section = dict(section)
    kind = section.pop("kind", None)
    if not isinstance(kind, str) or kind not in trace.SPEC_KINDS:
        raise ConfigError(f"trace.kind must be one of {sorted(trace.SPEC_KINDS)}, got {kind!r}")
    section.setdefault("seed", cfg.get("seed", 0))
    spec = _checked(trace.SPEC_KINDS[kind][0], section, "trace", f" for kind {kind!r}")
    key = "pc" if hasattr(spec, "pc") else "pcs"
    pcs = (spec.pc,) if key == "pc" else spec.pcs or ()
    if not all(0 <= pc < 1 << 64 for pc in pcs):
        raise ConfigError(f"trace.{key} must be in [0, 2**64), got {section[key]!r}")
    return spec


def hierarchy_from_config(cfg: dict) -> HierarchyConfig:
    """`cache:` is broadwell (the default) or {levels: [...], miss_emit_level},
    each value checked against its field's annotation."""
    section = cfg.get("cache", "broadwell")
    if section in (None, "broadwell"):
        return default_broadwell_config()
    if not isinstance(section, dict) or not isinstance(section.get("levels"), list):
        raise ConfigError(f"cache must be broadwell or a mapping with a levels list, "
                          f"got {section!r}")
    levels = tuple(_checked(CacheLevelConfig, level, f"cache.levels[{i}]")
                   for i, level in enumerate(section["levels"]))
    return _checked(HierarchyConfig, {**section, "levels": levels}, "cache")


def _require(out_dir: str, name: str) -> str:
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        raise DataError(f"missing artifact {path}; run the earlier pipeline stages first")
    return path


def _n_train(misses, cfg) -> int:
    return evaluation.split_index(len(misses), cfg["eval"]["split"])


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def run_simulate(cfg: dict, out_dir: str) -> dict:
    spec = trace_spec_from_config(cfg)
    pairs = trace.generate_synthetic(spec)
    trace.write_trace(pairs, os.path.join(out_dir, TRACE_FILE))
    hierarchy = hierarchy_from_config(cfg)
    misses, stats = simulate(pairs, hierarchy)
    trace.write_miss_trace(misses, os.path.join(out_dir, MISSES_FILE))
    payload = {
        "n_accesses": len(pairs),
        "n_misses": len(misses),
        "levels": [
            {"accesses": s.accesses, "hits": s.hits, "misses": s.misses} for s in stats.levels
        ],
    }
    evaluation.write_report(os.path.join(out_dir, SIM_STATS_FILE), payload)
    return payload


def _load_misses(cfg: dict, out_dir: str):
    line_size = hierarchy_from_config(cfg).line_size
    return trace.read_miss_trace(_require(out_dir, MISSES_FILE), line_size=line_size)


def run_vocab(cfg: dict, out_dir: str) -> dict:
    misses = _load_misses(cfg, out_dir)
    n_train = _n_train(misses, cfg)
    deltas = vocab_mod.compute_deltas(misses.line[:n_train])
    v = vocab_mod.build_vocab(
        deltas,
        max_output=cfg["vocab"]["max_output"],
        min_input_count=cfg["vocab"]["min_input_count"],
    )
    vocab_mod.save_vocab(v, os.path.join(out_dir, VOCAB_FILE))
    return {"n_input": v.n_input, "n_output": v.n_output, "coverage": v.output_coverage()}


def run_cluster(cfg: dict, out_dir: str) -> dict:
    from . import clustering
    misses = _load_misses(cfg, out_dir)
    n_train = _n_train(misses, cfg)
    model = clustering.kmeans_fit(
        misses.line[:n_train],
        k=cfg["cluster"]["k"],
        max_iters=cfg["cluster"]["max_iters"],
        seed=cfg["seed"],
    )
    norms = clustering.partition_stream(misses, model, n_train)
    clustering.save_cluster_model(model, os.path.join(out_dir, CLUSTER_FILE), norms)
    return {"k": model.k, "inertia": model.inertia, "n_iters": model.n_iters}


def prepare(cfg: dict, out_dir: str, misses, n_train: int, seed: int | None):
    """(fresh model, full-stream dataset, output vocabularies) for `cfg`.

    The one place the model and its dataset are built, from the config
    and the vocab/cluster artifacts: train fits this model, seeded, and
    eval and export, seed None, load the trained weights into it.
    """
    from . import clustering, models
    mcfg = cfg["model"]
    dtype = np.dtype(mcfg["dtype"])
    if mcfg["type"] == "embedding":
        v = vocab_mod.load_vocab(_require(out_dir, VOCAB_FILE))
        pc_vocab = vocab_mod.build_pc_vocab(misses.pc[:n_train])
        model = models.EmbeddingPrefetcher(
            v.n_input, pc_vocab.n_pcs, v.n_output, hidden=mcfg["hidden"], embed=mcfg["embed"],
            layers=mcfg["layers"], modality=mcfg["modality"], dtype=dtype, seed=seed,
        )
        return model, models.embedding_dataset(misses, v, pc_vocab), v
    cmodel, norms = clustering.load_cluster_model(_require(out_dir, CLUSTER_FILE))
    per_cluster = clustering.cluster_deltas(misses.line, cmodel.assign(misses.line), cmodel.k)
    vocabs = models.build_cluster_vocabs(
        per_cluster, n_train, max_output=cfg["vocab"]["max_output"],
        min_input_count=cfg["cluster"]["min_input_count"],
    )
    model = models.ClusterPrefetcher(
        [v.n_output if v is not None else 0 for v in vocabs], hidden=mcfg["hidden"],
        layers=mcfg["layers"], dtype=dtype, seed=seed,
    )
    return model, models.cluster_dataset(per_cluster, vocabs, norms, model), vocabs


def _trained(cfg: dict, out_dir: str):
    """prepare() with model.bin's weights loaded into the model."""
    from . import models
    path = _require(out_dir, MODEL_FILE)
    misses = _load_misses(cfg, out_dir)
    n_train = _n_train(misses, cfg)
    model, dataset, vocabs = prepare(cfg, out_dir, misses, n_train, seed=None)
    models.load_weights(model, path)
    return misses, n_train, model, dataset, vocabs


# glibc mallopt parameters; 32 MiB is the largest mmap threshold every
# glibc accepts
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20


def keep_heap(libc=None) -> bool:
    """Stop glibc from giving freed heap back to the OS after every step.

    Training frees and reallocates the same ~16 MB of forward caches each
    step, and eval its window temporaries each window; trimmed or mapped
    afresh, they are faulted back in by the next one. Raises the mmap
    threshold to 32 MiB, so those blocks come from the heap, and only if
    that worked the trim threshold to 256 MiB: set alone, it would pin
    glibc's dynamic mmap threshold at 128 KiB, and every larger block would
    be mapped and faulted in afresh. Acts on this process only; without
    `mallopt` (musl, macOS) nothing is set. Returns whether both were set.
    """
    import ctypes
    mallopt = _libc_function(libc, "mallopt", (ctypes.c_int, ctypes.c_int))
    if mallopt is None:
        return False
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 and (
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    )


def release_heap(libc=None) -> bool:
    """Give the heap's free pages back to the OS now (glibc `malloc_trim(0)`).

    `keep_heap` stops glibc from trimming on its own, so eval calls this
    once the model and its dataset are freed, before the baselines run.
    Without `malloc_trim` nothing is done. Returns whether memory was
    released.
    """
    import ctypes
    malloc_trim = _libc_function(libc, "malloc_trim", (ctypes.c_size_t,))
    return malloc_trim is not None and malloc_trim(0) == 1


def _libc_function(libc, name, argtypes):
    """`name` from `libc` (this process's C library if None) returning an
    int, or None where the library has no such function."""
    import ctypes
    fn = getattr(ctypes.CDLL(None) if libc is None else libc, name, None)
    if fn is not None:
        fn.argtypes, fn.restype = argtypes, ctypes.c_int
    return fn


def run_train(cfg: dict, out_dir: str) -> dict:
    from . import models
    keep_heap()
    misses = _load_misses(cfg, out_dir)
    n_train = _n_train(misses, cfg)
    t = cfg["train"]
    tcfg = models.TrainConfig(
        steps=t["steps"], window=t["window"], optimizer=t["optimizer"], lr=t["lr"], clip=t["clip"]
    )
    model, dataset, _ = prepare(cfg, out_dir, misses, n_train, cfg["seed"])
    in_train = dataset["target_index"] < n_train
    # only what training reads: the other columns are freed before it runs
    batches = {key: dataset[key] for key in (*model.input_keys, "label")}
    del dataset
    if cfg["model"]["type"] == "embedding":
        batches = models.batchify({key: a[in_train] for key, a in batches.items()}, t["batch"])
    else:  # one row per cluster; positions past the split carry no label
        batches["label"] = np.where(in_train, batches["label"], -1)

    history = models.train_model(model, batches, tcfg)
    meta = {"config_hash": evaluation.config_hash(cfg), "n_train": n_train}
    models.save_model(model, os.path.join(out_dir, MODEL_FILE), meta)
    final = history[-1]["loss"] if history else None
    return {"steps": len(history), "final_loss": final}


def run_eval(cfg: dict, out_dir: str) -> dict:
    """Scores the model, then each baseline. Each method's prediction sets
    are freed once scored, and the model and its dataset (their heap pages
    given back) before the baselines run, so eval holds one method's sets
    at a time."""
    from . import baselines, models
    keep_heap()
    misses, n_train, model, dataset, vocabs = _trained(cfg, out_dir)
    k = cfg["eval"]["k"]
    if cfg["model"]["type"] == "embedding":
        prediction_sets = models.embedding_prediction_sets
    else:
        prediction_sets = models.cluster_prediction_sets
    sets = prediction_sets(model, dataset, vocabs, n_train, k)
    metrics = {"model": evaluation.metrics_summary(sets, k)}
    del sets, model, dataset, vocabs
    release_heap()
    if cfg["eval"]["baselines"]:
        for name, prefetcher in (
            ("stream", baselines.StreamPrefetcher),
            ("ghb_pc_dc", baselines.GhbPcDc),
        ):
            metrics[name] = evaluation.metrics_summary(
                baselines.baseline_prediction_sets(prefetcher(), misses, start=n_train), k
            )
    payload = {"n_train": n_train, "n_misses": len(misses), "metrics": metrics}
    evaluation.write_report(os.path.join(out_dir, METRICS_FILE), payload)
    return payload


def run_report(cfg: dict, out_dir: str) -> dict:
    misses = _load_misses(cfg, out_dir)
    deltas = vocab_mod.compute_deltas(misses.line)
    coverage = vocab_mod.coverage_stats(misses, deltas)
    metrics = evaluation.read_report(_require(out_dir, METRICS_FILE))
    sim_stats = evaluation.read_report(_require(out_dir, SIM_STATS_FILE))
    precisions = [m["precision_at_k"] for m in metrics["metrics"].values()]
    payload = {
        "config": cfg,
        "config_hash": evaluation.config_hash(cfg),
        "coverage": coverage.__dict__,
        "simulation": sim_stats,
        "evaluation": metrics,
        "geomean_precision": evaluation.geometric_mean(precisions),
    }
    evaluation.write_report(os.path.join(out_dir, REPORT_FILE), payload)
    return payload


def run_export_embeddings(cfg: dict, out_dir: str) -> dict:
    import csv
    _, _, model, _, v = _trained(cfg, out_dir)
    if "emb_delta" not in model.params:
        raise DataError("the configured model has no delta embedding table to export")
    table = model.params["emb_delta"]
    path = os.path.join(out_dir, "embeddings.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["input_class_id", "delta"] + [f"dim{i}" for i in range(table.shape[1])])
        for idx, delta in enumerate(v.deltas[: v.n_input].tolist()):
            w.writerow([idx, delta] + [repr(float(x)) for x in table[idx]])
        w.writerow([v.oov_input, ""] + [repr(float(x)) for x in table[v.oov_input]])
    return {"rows": v.n_input + 1, "path": path}


# hashlib's builtin digest modules; Python 3.12 merged _sha256 and _sha512
BUILTIN_DIGESTS = ("_md5", "_sha1", "_blake2", "_sha3") + (
    ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
)


def _block_openssl() -> tuple[str, ...]:
    """Keep OpenSSL's `_hashlib` out of this process, ~3.7 MB of RSS: hashlib
    then takes sha256 (same digest) from CPython's builtin digest modules,
    and hmac, secrets and so numpy.random import without it. Not done
    where `_hashlib` is already imported, or where a builtin module is
    missing (hashlib would log an error per hash). Returns the entries to
    drop from sys.modules after the stage: the block, and hashlib and hmac
    if they are imported under it (they would lack OpenSSL's hashes)."""
    if "_hashlib" in sys.modules or not all(map(importlib.util.find_spec, BUILTIN_DIGESTS)):
        return ()
    sys.modules["_hashlib"] = None
    return ("_hashlib", *(name for name in ("hashlib", "hmac") if name not in sys.modules))


_STAGES = {
    "simulate": run_simulate,
    "vocab": run_vocab,
    "cluster": run_cluster,
    "train": run_train,
    "eval": run_eval,
    "report": run_report,
    "export-embeddings": run_export_embeddings,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="prefetchlab",
        description="Cache miss prefetcher workbench: trace simulation, "
        "delta vocabularies, LSTM and table-driven prefetchers.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML config file")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", default="out", help="artifact directory (default: out)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _STAGES:
        sub.add_parser(name, parents=[common], help=f"run the {name} stage")

    args = parser.parse_args(argv)
    blocked = _block_openssl()
    try:
        cfg = load_config(args.config, seed=args.seed)
        os.makedirs(args.out, exist_ok=True)
        result = _STAGES[args.command](cfg, args.out)
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:  # callers of main() in the same process keep OpenSSL
        for name in blocked:
            sys.modules.pop(name, None)
    for key, value in (result or {}).items():
        print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
