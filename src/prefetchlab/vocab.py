"""Delta streams, delta/PC vocabularies and corpus coverage statistics.

A delta stream is an int64 array of the 64-bit two's-complement
differences of successive cache-line addresses in a miss stream: element
t runs from miss t to miss t+1, and the PC of miss t is its context. Line
granularity (not bytes) is used throughout, since a prefetch only has to
land in the right line.

Class IDs are dense and 0-based. Ordering is by descending frequency with
ties broken by ascending delta value, which makes vocabularies a pure
function of the corpus. The input side keeps every delta above a count
threshold; the output side is the top `max_output` slice of the input
side, so output classes are always a subset of input classes. Each side
has one extra reserved ID (`oov_input` / `oov_output`) for everything else.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError, TraceFormatError, read_exact
from .trace import MissStream


def compute_deltas(lines: np.ndarray) -> np.ndarray:
    """int64 line deltas of a uint64 line array: element t runs from miss t
    to miss t + 1, as `trace.signed_delta` computes it."""
    if len(lines) < 2:
        raise DataError("need at least 2 misses to form a delta stream")
    return np.diff(lines).view(np.int64)


def _encode(ids: dict, values: np.ndarray, oov: int) -> np.ndarray:
    get = ids.get
    return np.array([get(v, oov) for v in np.asarray(values).tolist()], dtype=np.int64)


def _ranked(counts: Counter) -> list[tuple[int, int]]:
    """(delta, count) pairs sorted by count desc, then delta asc."""
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


class DeltaVocab:
    """Bidirectional delta <-> class-ID mapping with frequency counts."""

    def __init__(self, counts: Counter, max_output: int, min_input_count: int):
        if max_output < 1 or min_input_count < 1:
            raise DataError("max_output and min_input_count must be >= 1")
        self.counts = Counter(counts)
        self.max_output = max_output
        self.min_input_count = min_input_count

        eligible = [(d, c) for d, c in _ranked(self.counts) if c >= min_input_count]
        self.input_classes = [(d, i) for i, (d, _) in enumerate(eligible)]
        self.output_classes = self.input_classes[:max_output]
        self._input_id = {d: i for d, i in self.input_classes}
        self._output_id = {d: i for d, i in self.output_classes}

    # Reserved IDs sit one past the dense class ranges.
    @property
    def n_input(self) -> int:
        return len(self.input_classes)

    @property
    def n_output(self) -> int:
        return len(self.output_classes)

    @property
    def oov_input(self) -> int:
        return self.n_input

    @property
    def oov_output(self) -> int:
        return self.n_output

    def encode_input(self, deltas: np.ndarray) -> np.ndarray:
        return _encode(self._input_id, deltas, self.oov_input)

    def encode_output(self, deltas: np.ndarray) -> np.ndarray:
        return _encode(self._output_id, deltas, self.oov_output)

    def output_deltas(self) -> list[int]:
        """Lookup list from output class ID to delta."""
        return [d for d, _ in self.output_classes]

    def output_coverage(self) -> float:
        """Fraction of total delta mass representable by the output classes."""
        total = sum(self.counts.values())
        covered = sum(self.counts[d] for d, _ in self.output_classes)
        return covered / total if total else 0.0


def build_vocab(
    deltas: np.ndarray, max_output: int = 50_000, min_input_count: int = 10
) -> DeltaVocab:
    """Build input/output vocabularies from a delta stream."""
    if len(deltas) == 0:
        raise DataError("cannot build a vocabulary from an empty delta stream")
    return DeltaVocab(Counter(np.asarray(deltas).tolist()), max_output, min_input_count)


class PcVocab:
    """Dense IDs for PCs seen in training, ordered like DeltaVocab."""

    def __init__(self, counts: Counter):
        self.counts = Counter(counts)
        self._id = {pc: i for i, (pc, _) in enumerate(_ranked(self.counts))}

    @property
    def n_pcs(self) -> int:
        return len(self._id)

    @property
    def oov(self) -> int:
        return self.n_pcs

    def encode(self, pcs: np.ndarray) -> np.ndarray:
        return _encode(self._id, pcs, self.oov)


def build_pc_vocab(pcs: np.ndarray) -> PcVocab:
    """PC vocabulary over an array of PC values."""
    if len(pcs) == 0:
        raise DataError("cannot build a PC vocabulary from an empty stream")
    return PcVocab(Counter(np.asarray(pcs).tolist()))


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
    """Minimum prefix of the frequency-sorted counts (a Counter or an array)
    whose mass is >= fraction; ties cannot change its length."""
    if isinstance(counts, Counter):
        counts = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
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
        num_unique_pcs=len(np.unique(misses.pc)),
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
_VOCAB_ENTRY = struct.Struct("<qQq")  # delta, count, input class id (-1 below threshold)
VOCAB_VERSION = 1


def save_vocab(vocab: DeltaVocab, path) -> None:
    """Versioned flat file: header then (delta, count, class_id) triples.

    All observed deltas are stored (sub-threshold ones with class_id -1) so
    that a reload rebuilds the identical vocabulary and full counts.
    """
    with open(path, "wb") as f:
        f.write(VOCAB_MAGIC)
        f.write(
            _VOCAB_HEADER.pack(
                VOCAB_VERSION, vocab.max_output, vocab.min_input_count, len(vocab.counts)
            )
        )
        for delta, count in _ranked(vocab.counts):
            f.write(_VOCAB_ENTRY.pack(delta, count, vocab._input_id.get(delta, -1)))


def load_vocab(path) -> DeltaVocab:
    with open(path, "rb") as f:
        magic = f.read(len(VOCAB_MAGIC))
        if magic != VOCAB_MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        version, max_output, min_count, n = _VOCAB_HEADER.unpack(
            read_exact(f, _VOCAB_HEADER.size, path)
        )
        if version != VOCAB_VERSION:
            raise TraceFormatError(f"{path}: unsupported vocab version {version}")
        entries = read_exact(f, n * _VOCAB_ENTRY.size, path)
    counts = Counter()
    expected_ids = {}
    for delta, count, class_id in _VOCAB_ENTRY.iter_unpack(entries):
        counts[delta] = count
        if class_id >= 0:
            expected_ids[delta] = class_id
    vocab = DeltaVocab(counts, max_output, min_count)
    if vocab._input_id != expected_ids:
        raise TraceFormatError(f"{path}: stored class ids do not match counts")
    return vocab

