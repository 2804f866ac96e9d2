"""Output check and the counters derived from a run's artifacts.

Everything here reads the files a pipeline leaves in its output directory
with numpy alone; nothing imports prefetchlab. The counters re-derive
workload properties (how many accesses repeat a line, how many test labels
fall outside the output vocabulary, how much of each training window
carries a label) independently of the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np

LINE_SHIFT = 6  # 64-byte lines in every level of the default Broadwell hierarchy
TRACE_MAGIC = b"PFTRACE1"
VOCAB_MAGIC = b"PFVOCAB1"
VOCAB_HEADER_BYTES = 28  # <IQQQ: version, max_output, min_input_count, n_entries
VOCAB_ENTRY = np.dtype([("delta", "<i8"), ("count", "<u8"), ("id", "<i8")])
KMEANS_MAGIC = b"PFKMEAN1"
KMEANS_HEADER_BYTES = 29  # <IQQdB: version, k, n_iters, inertia, has_norms

# Which stage writes each artifact; a failed check is charged to that stage.
PRODUCER = {
    "trace.bin": "simulate",
    "misses.bin": "simulate",
    "sim_stats.json": "simulate",
    "vocab.bin": "vocab",
    "clusters.bin": "cluster",
    "model.bin": "train",
    "metrics.json": "eval",
    "report.json": "report",
}
# Integer paths: byte-identical to the recorded reference.
REFERENCED = ("trace.bin", "misses.bin", "sim_stats.json", "vocab.bin", "clusters.bin")
# Float paths and reports: byte-identical across repeat runs of the same code.
REPEATABLE = ("model.bin", "metrics.json", "report.json")
BASELINES = ("stream", "ghb_pc_dc")
# Model precision and recall@10 come from float32 training, so a change that
# reorders float arithmetic may move them; they must stay this close
# (absolute) to the reference.
MODEL_TOLERANCE = 0.02


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(out_dir: str, stages) -> dict:
    """sha256 of every artifact the given stages write."""
    return {
        name: sha256(os.path.join(out_dir, name))
        for name, stage in PRODUCER.items()
        if stage in stages
    }


def reference_entry(out_dir: str, stages) -> dict:
    """What `check_outputs` compares later runs against."""
    found = digests(out_dir, stages)
    metrics = read_json(os.path.join(out_dir, "metrics.json"))["metrics"]
    return {
        "sha256": {name: found[name] for name in REFERENCED if name in found},
        "metrics": {name: metrics[name] for name in ("model",) + BASELINES},
    }


def check_outputs(out_dir: str, stages, reference: dict, first: dict | None) -> tuple[dict, list]:
    """Compare a finished pipeline's outputs with `reference` and with the
    digests of the first run of the same code (`first`, None for the first
    run itself). Returns (digests, [(stage, reason), ...])."""
    found, failures = {}, []
    for name, stage in PRODUCER.items():
        if stage in stages:
            try:
                found[name] = sha256(os.path.join(out_dir, name))
            except OSError:
                failures.append((stage, f"{name} is missing"))
    for name, want in reference["sha256"].items():
        if name in found and found[name] != want:
            failures.append((PRODUCER[name], f"{name} differs from the reference"))
    if first is not None:
        for name in REPEATABLE:
            if name in found and found[name] != first.get(name):
                failures.append((PRODUCER[name], f"{name} differs between repeat runs"))
    try:
        got = read_json(os.path.join(out_dir, "metrics.json"))["metrics"]
    except (OSError, ValueError, KeyError, TypeError):
        return found, failures + [("eval", "metrics.json has no readable metrics")]
    want = reference["metrics"]
    for name in BASELINES:
        if got.get(name) != want[name]:
            failures.append(("eval", f"{name} metrics differ from the reference"))
    model, ref = got.get("model", {}), want["model"]
    # written as `<=` so that a NaN or missing metric fails
    close = all(
        abs(model.get(key, math.nan) - ref[key]) <= MODEL_TOLERANCE
        for key in ("precision_at_k", "recall_at_k")
    )
    if model.get("n_events") != ref["n_events"] or not close:
        failures.append(("eval", f"model metrics {model} outside tolerance of the reference"))
    return found, failures


def read_json(path: str):
    with open(path) as f:
        return json.load(f)


def read_records(path: str) -> np.ndarray:
    """(n, 2) uint64 array of (pc, addr) records from a trace or miss file."""
    with open(path, "rb") as f:
        data = f.read()
    if data[: len(TRACE_MAGIC)] != TRACE_MAGIC or (len(data) - len(TRACE_MAGIC)) % 16:
        raise ValueError(f"{path}: not a whole trace file")
    return np.frombuffer(data, dtype="<u8", offset=len(TRACE_MAGIC)).reshape(-1, 2)


def read_vocab(path: str) -> tuple[int, np.ndarray]:
    """(max_output, entries) of a vocab.bin."""
    with open(path, "rb") as f:
        data = f.read()
    if data[: len(VOCAB_MAGIC)] != VOCAB_MAGIC:
        raise ValueError(f"{path}: not a vocabulary file")
    _, max_output, _, n = np.frombuffer(data, dtype="<u4,<u8,<u8,<u8", count=1, offset=8)[0]
    entries = np.frombuffer(data, dtype=VOCAB_ENTRY, count=n, offset=8 + VOCAB_HEADER_BYTES)
    return int(max_output), entries


def read_centroids(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if data[: len(KMEANS_MAGIC)] != KMEANS_MAGIC:
        raise ValueError(f"{path}: not a cluster model file")
    k = int(np.frombuffer(data, dtype="<u8", count=1, offset=12)[0])
    return np.frombuffer(data, dtype="<f8", count=k, offset=8 + KMEANS_HEADER_BYTES)


def line_deltas(lines: np.ndarray) -> np.ndarray:
    """64-bit two's-complement deltas between consecutive lines."""
    return (lines[1:] - lines[:-1]).view(np.int64)


def split_index(n: int, fraction) -> int:
    frac = Fraction(str(fraction))
    return (n * frac.numerator) // frac.denominator


def ranked_vocab(deltas: np.ndarray, max_output: int, min_count: int) -> tuple[int, np.ndarray]:
    """(n_input, output deltas): count desc then delta asc, as the program ranks."""
    values, counts = np.unique(deltas, return_counts=True)
    keep = counts >= min_count
    values, counts = values[keep], counts[keep]
    order = np.lexsort((values, -counts))
    return len(values), values[order][:max_output]


def train_label_share(labeled: np.ndarray, window: int, steps: int) -> float:
    """Share of the (rows x window) positions computed in training that carry
    a label, replaying the window schedule of `models.train_model`."""
    rows, cols = labeled.shape
    window = min(window, cols)
    pos = hits = 0
    for _ in range(steps):
        if pos + window > cols:
            pos = 0
        hits += int(labeled[:, pos : pos + window].sum())
        pos += window
    return hits / (steps * rows * window)


def facts(out_dir: str, cfg: dict) -> dict:
    """Workload properties and wasted-work counters, from the artifacts."""
    trace_lines = read_records(os.path.join(out_dir, "trace.bin"))[:, 1] >> LINE_SHIFT
    lines = read_records(os.path.join(out_dir, "misses.bin"))[:, 1] >> LINE_SHIFT
    sim = read_json(os.path.join(out_dir, "sim_stats.json"))
    n = len(lines)
    n_train = split_index(n, cfg["eval"]["split"])
    out = {
        "n_accesses": sim["n_accesses"],
        "n_misses": n,
        "l1_hits": sim["levels"][0]["hits"],
        "llc_misses": sim["levels"][-1]["misses"],
        "same_line_share": int(np.count_nonzero(trace_lines[1:] == trace_lines[:-1]))
        / len(trace_lines),
    }
    window, steps = cfg["train"]["window"], cfg["train"]["steps"]
    if cfg["model"]["type"] == "embedding":
        max_output, entries = read_vocab(os.path.join(out_dir, "vocab.bin"))
        ids = entries["id"]
        output = entries["delta"][(ids >= 0) & (ids < max_output)]
        test = line_deltas(lines)[n_train - 1 :]  # events whose target miss is >= n_train
        rows = cfg["train"]["batch"]
        labeled = np.ones((rows, (n_train - 1) // rows), dtype=bool)
        out.update(
            n_input=int(np.count_nonzero(ids >= 0)),
            n_output=len(output),
            test_oov_share=float(np.mean(~np.isin(test, output))),
            eval_events=n - 1,
        )
    else:
        out.update(_cluster_facts(out_dir, cfg, lines, n_train))
        labeled = out.pop("labeled")
        rows = labeled.shape[0]
    out["train_rows"] = rows
    out["train_window"] = min(window, labeled.shape[1])
    out["train_label_share"] = train_label_share(labeled, window, steps)
    return out


def _cluster_facts(out_dir: str, cfg: dict, lines: np.ndarray, n_train: int) -> dict:
    centroids = read_centroids(os.path.join(out_dir, "clusters.bin"))
    # nearest centroid, ties to the lower index
    assign = np.argmin(np.abs(lines.astype(np.float64)[:, None] - centroids[None, :]), axis=1)
    members = [np.nonzero(assign == c)[0] for c in range(len(centroids))]
    max_len = max(max(len(idx) - 1, 0) for idx in members)
    labeled = np.zeros((len(members), max_len), dtype=bool)
    n_input = n_output = oov = n_test = eval_events = 0
    for c, idx in enumerate(members):
        if len(idx) < 2:
            continue
        train_idx = idx[idx < n_train]
        deltas = line_deltas(lines[idx])
        targets = idx[1:]
        output = np.empty(0, dtype=np.int64)
        if len(train_idx) > 1:
            n_in, output = ranked_vocab(
                line_deltas(lines[train_idx]),
                cfg["vocab"]["max_output"],
                cfg["cluster"]["min_input_count"],
            )
            n_input += n_in
            n_output += len(output)
            labeled[c, : len(deltas)] = targets < n_train
        test = deltas[targets >= n_train]
        oov += int(np.count_nonzero(~np.isin(test, output)))
        n_test += len(test)
        eval_events += len(deltas)
    return {
        "n_input": n_input,
        "n_output": n_output,
        "test_oov_share": oov / n_test,
        "eval_events": eval_events,
        "labeled": labeled,
    }
