"""Delta streams, delta/PC vocabularies and corpus coverage statistics.

A delta stream is an int64 array of the 64-bit two's-complement
differences of successive cache-line addresses in a miss stream: element
t runs from miss t to miss t+1, and the PC of miss t is its context. Line
granularity (not bytes) is used throughout, since a prefetch only has to
land in the right line.

A vocabulary is a pair of ranked arrays: the distinct values seen in the
training corpus and their counts, ordered by descending count with ties
broken by ascending value, which makes it a pure function of the corpus.
Class ID i is the i-th ranked value, so IDs are dense and 0-based. The
input side keeps the prefix of values at or above a count threshold; the
output side is the top `max_output` slice of the input side, so output
classes are always a subset of input classes. Each side has one extra
reserved ID (`oov_input` / `oov_output`) for everything else.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, TraceFormatError, check_end, read_exact
from .trace import MissStream


def compute_deltas(lines: np.ndarray) -> np.ndarray:
    """int64 line deltas of a uint64 line array: element t runs from miss t
    to miss t + 1, the 64-bit two's-complement difference of their lines."""
    if len(lines) < 2:
        raise DataError("need at least 2 misses to form a delta stream")
    return np.diff(lines).view(np.int64)


def _rank(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct `values` and their counts, by count desc, then value asc."""
    values, counts = np.unique(values, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    return values[order], counts[order]


def _encode(classes: np.ndarray, values, oov: int) -> np.ndarray:
    """int64 ID of each value: its index in the distinct `classes`, or `oov`."""
    values = np.asarray(values, dtype=classes.dtype)
    if not len(classes):
        return np.full(len(values), oov, dtype=np.int64)
    order = np.argsort(classes)
    ids = order[np.searchsorted(classes, values, sorter=order).clip(max=len(classes) - 1)]
    return np.where(classes[ids] == values, ids, oov)


class DeltaVocab:
    """Delta <-> class-ID mapping: input ID i and output ID i are `deltas[i]`."""

    def __init__(self, deltas: np.ndarray, counts: np.ndarray, max_output: int,
                 min_input_count: int):
        if max_output < 1 or min_input_count < 1:
            raise DataError("max_output and min_input_count must be >= 1")
        self.deltas = deltas
        self.counts = counts
        self.max_output = max_output
        self.min_input_count = min_input_count
        self.n_input = int(np.count_nonzero(counts >= min_input_count))
        self.n_output = min(self.n_input, max_output)
        # reserved IDs sit one past the dense class ranges
        self.oov_input, self.oov_output = self.n_input, self.n_output

    def encode_input(self, deltas: np.ndarray) -> np.ndarray:
        return _encode(self.deltas[: self.n_input], deltas, self.oov_input)

    def encode_output(self, deltas: np.ndarray) -> np.ndarray:
        return _encode(self.deltas[: self.n_output], deltas, self.oov_output)

    def output_coverage(self) -> float:
        """Fraction of total delta mass representable by the output classes."""
        total = int(self.counts.sum())
        return int(self.counts[: self.n_output].sum()) / total if total else 0.0


def build_vocab(
    deltas: np.ndarray, max_output: int = 50_000, min_input_count: int = 10
) -> DeltaVocab:
    """Build input/output vocabularies from a delta stream; an empty
    stream gives one with no classes, which encodes every delta as OOV."""
    return DeltaVocab(*_rank(np.asarray(deltas, dtype=np.int64)), max_output, min_input_count)


class PcVocab:
    """Dense IDs for PCs seen in training, ranked like DeltaVocab: ID i is
    `pcs[i]`, and `oov` is one past the last."""

    def __init__(self, pcs: np.ndarray):
        self.pcs = pcs
        self.n_pcs = self.oov = len(pcs)

    def encode(self, pcs: np.ndarray) -> np.ndarray:
        return _encode(self.pcs, pcs, self.oov)


def build_pc_vocab(pcs: np.ndarray) -> PcVocab:
    """PC vocabulary over an array of PC values."""
    if len(pcs) == 0:
        raise DataError("cannot build a PC vocabulary from an empty stream")
    return PcVocab(_rank(np.asarray(pcs, dtype=np.uint64))[0])


# ---------------------------------------------------------------------------
# Coverage statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageStats:
    num_misses: int
    num_unique_pcs: int
    num_unique_addrs: int
    num_unique_deltas: int
    addrs_for_50pct_mass: int
    deltas_for_50pct_mass: int


def mass_prefix_length(counts, fraction: float = 0.5) -> int:
    """Minimum prefix of the frequency-sorted counts whose mass is
    >= fraction; ties cannot change its length."""
    mass = np.cumsum(np.sort(counts)[::-1])
    if len(mass) == 0 or mass[-1] == 0:
        return 0
    return min(int(np.searchsorted(mass, fraction * int(mass[-1]))) + 1, len(mass))


def coverage_stats(misses: MissStream, deltas: np.ndarray) -> CoverageStats:
    """Table-style dataset statistics (addresses counted at line granularity)."""
    if len(misses) == 0:
        raise DataError("empty miss stream")
    if len(deltas) == 0:
        raise DataError("empty delta stream")
    addr_counts = np.unique(misses.line, return_counts=True)[1]
    delta_counts = np.unique(deltas, return_counts=True)[1]
    return CoverageStats(
        num_misses=len(misses),
        # with counts, np.unique does not import numpy.ma (~17 ms)
        num_unique_pcs=len(np.unique(misses.pc, return_counts=True)[1]),
        num_unique_addrs=len(addr_counts),
        num_unique_deltas=len(delta_counts),
        addrs_for_50pct_mass=mass_prefix_length(addr_counts),
        deltas_for_50pct_mass=mass_prefix_length(delta_counts),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

VOCAB_MAGIC = b"PFVOCAB1"
_VOCAB_HEADER = struct.Struct("<IQQQ")  # version, max_output, min_input_count, n_entries
# delta, count, input class id (-1 below threshold)
_VOCAB_ENTRY = np.dtype([("delta", "<i8"), ("count", "<u8"), ("id", "<i8")])
VOCAB_VERSION = 1


def _entries(vocab: DeltaVocab) -> np.ndarray:
    entries = np.empty(len(vocab.deltas), dtype=_VOCAB_ENTRY)
    entries["delta"], entries["count"] = vocab.deltas, vocab.counts
    ids = np.arange(len(entries))
    entries["id"] = np.where(ids < vocab.n_input, ids, -1)
    return entries


def save_vocab(vocab: DeltaVocab, path) -> None:
    """Versioned flat file: header then ranked (delta, count, class_id) triples.

    All observed deltas are stored (sub-threshold ones with class_id -1) so
    that a reload rebuilds the identical vocabulary and full counts.
    """
    with open(path, "wb") as f:
        f.write(VOCAB_MAGIC)
        f.write(
            _VOCAB_HEADER.pack(
                VOCAB_VERSION, vocab.max_output, vocab.min_input_count, len(vocab.deltas)
            )
        )
        _entries(vocab).tofile(f)


def load_vocab(path) -> DeltaVocab:
    """The vocabulary of a file written by `save_vocab`. Entries are ranked
    again from their counts, and the stored class ids must match."""
    with open(path, "rb") as f:
        magic = f.read(len(VOCAB_MAGIC))
        if magic != VOCAB_MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        version, max_output, min_count, n = _VOCAB_HEADER.unpack(
            read_exact(f, _VOCAB_HEADER.size, path)
        )
        if version != VOCAB_VERSION:
            raise TraceFormatError(f"{path}: unsupported vocab version {version}")
        stored = np.frombuffer(read_exact(f, n * _VOCAB_ENTRY.itemsize, path), _VOCAB_ENTRY)
        check_end(f, path)
    deltas, counts = stored["delta"], stored["count"].astype(np.int64)
    ascending = np.sort(deltas)
    if np.any(ascending[1:] == ascending[:-1]):
        raise TraceFormatError(f"{path}: a delta is stored twice")
    order = np.lexsort((deltas, -counts))
    vocab = DeltaVocab(deltas[order], counts[order], max_output, min_count)
    if not np.array_equal(stored["id"][order], _entries(vocab)["id"]):
        raise TraceFormatError(f"{path}: stored class ids do not match counts")
    return vocab
