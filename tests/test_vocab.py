import random
from collections import Counter

import numpy as np
import pytest

from prefetchlab.errors import DataError, TraceFormatError
from prefetchlab.trace import MissStream, signed_delta
from prefetchlab.vocab import (
    DeltaVocab,
    build_pc_vocab,
    build_vocab,
    compute_deltas,
    coverage_stats,
    load_vocab,
    mass_prefix_length,
    save_vocab,
)


def misses_from_lines(lines, pcs=None):
    lines = np.array(lines, dtype=np.uint64)
    pcs = np.array(pcs or [0x400000] * len(lines), dtype=np.uint64)
    return MissStream(pc=pcs, addr=lines << np.uint64(6), line=lines)


# ---------------------------------------------------------------------------
# Delta streams
# ---------------------------------------------------------------------------


def test_compute_deltas_pairs_pc_with_outgoing_delta():
    misses = misses_from_lines([100, 101, 99, 150], pcs=[1, 2, 3, 4])
    deltas = compute_deltas(misses.line)
    assert deltas.dtype == np.int64
    # element t is the delta out of miss t, whose PC is misses.pc[t]
    assert deltas.tolist() == [1, -2, 51]

    # random 64-bit lines wrap both ways; the scalar oracle decides
    rng = np.random.default_rng(4)
    lines = rng.integers(0, 2**64, size=500, dtype=np.uint64)
    lines[:4] = [2**64 - 1, 0, 2**63, 2**63 - 1]
    expected = [signed_delta(a, b) for a, b in zip(lines.tolist(), lines[1:].tolist())]
    assert compute_deltas(lines).tolist() == expected
    assert expected[:3] == [1, -(2**63), -1]


def test_compute_deltas_too_short():
    for lines in ([1], []):
        with pytest.raises(DataError):
            compute_deltas(misses_from_lines(lines).line)


# ---------------------------------------------------------------------------
# Vocabulary construction
# ---------------------------------------------------------------------------


def test_vocab_ordering_count_desc_delta_asc():
    deltas = [5] * 3 + [-2] * 3 + [7] * 2 + [1] * 3
    v = build_vocab(deltas, max_output=10, min_input_count=1)
    # counts: -2:3, 1:3, 5:3, 7:2 -> ties by ascending delta
    assert v.input_classes == [(-2, 0), (1, 1), (5, 2), (7, 3)]


def test_vocab_output_is_prefix_of_input():
    rng = random.Random(7)
    deltas = [rng.randrange(-50, 50) for _ in range(5000)]
    v = build_vocab(deltas, max_output=10, min_input_count=3)
    assert v.output_classes == v.input_classes[:10]
    assert v.n_output == 10
    assert v.n_input >= v.n_output


def test_vocab_min_input_count_threshold():
    deltas = [1] * 10 + [2] * 9
    v = build_vocab(deltas, max_output=50, min_input_count=10)
    assert v.n_input == 1
    assert v.encode_input([2])[0] == v.oov_input


def test_vocab_oov_ids_one_past_dense_range():
    v = build_vocab([1, 1, 2, 2, 3], max_output=2, min_input_count=2)
    assert v.n_input == 2
    assert v.n_output == 2
    assert v.oov_input == 2
    assert v.oov_output == 2
    assert v.encode_input([3])[0] == v.oov_input
    assert v.encode_output([3])[0] == v.oov_output


def test_encode_decode_roundtrip():
    rng = random.Random(3)
    deltas = [rng.choice([-8, -1, 1, 2, 64, 1000]) for _ in range(2000)]
    v = build_vocab(deltas, max_output=6, min_input_count=1)
    ids = v.encode_output(deltas[:100])
    assert [v.output_deltas()[i] for i in ids] == deltas[:100]
    # an int64 delta array encodes like the list, and builds the same vocab
    array = np.array(deltas, dtype=np.int64)
    assert np.array_equal(v.encode_output(array[:100]), ids)
    assert np.array_equal(v.encode_input(array), v.encode_input(deltas))
    assert build_vocab(array, max_output=6, min_input_count=1).counts == v.counts


def test_empty_vocab_rejected():
    with pytest.raises(DataError):
        build_vocab([])
    with pytest.raises(DataError):
        DeltaVocab(Counter({1: 5}), max_output=0, min_input_count=1)


def test_output_coverage_fraction():
    v = build_vocab([1] * 6 + [2] * 3 + [3] * 1, max_output=1, min_input_count=1)
    assert v.output_coverage() == pytest.approx(0.6)


def test_pc_vocab():
    v = build_pc_vocab(misses_from_lines([1, 2, 3], pcs=[0xA, 0xB, 0xA]).pc)
    assert v.n_pcs == 2
    assert v.encode([0xA, 0xB, 0xC]).tolist() == [0, 1, v.oov]
    assert v.encode(np.array([0xC, 0xA], dtype=np.uint64)).tolist() == [v.oov, 0]
    with pytest.raises(DataError):
        build_pc_vocab(np.array([], dtype=np.uint64))


# ---------------------------------------------------------------------------
# Coverage statistics
# ---------------------------------------------------------------------------


def test_mass_prefix_uniform_ten():
    counts = Counter({i: 7 for i in range(10)})
    assert mass_prefix_length(counts) == 5


def test_mass_prefix_fifty_fifty():
    counts = Counter({1: 500, 2: 500})
    assert mass_prefix_length(counts) == 1


def test_mass_prefix_skewed():
    counts = Counter({1: 90, 2: 5, 3: 5})
    assert mass_prefix_length(counts) == 1
    assert mass_prefix_length(counts, fraction=0.95) == 2
    assert mass_prefix_length(counts, fraction=1.0) == 3
    assert mass_prefix_length(Counter()) == 0


def test_coverage_stats_small_example():
    lines = [10, 11, 10, 11, 20]
    misses = misses_from_lines(lines, pcs=[1, 1, 2, 2, 2])
    stats = coverage_stats(misses, compute_deltas(misses.line))
    assert stats.num_misses == 5
    assert stats.num_unique_pcs == 2
    assert stats.num_unique_addrs == 3
    # deltas: 1, -1, 1, 9 -> counts {1: 2, -1: 1, 9: 1}
    assert stats.num_unique_deltas == 3
    assert stats.deltas_for_50pct_mass == 1
    assert stats.addrs_for_50pct_mass == 2  # 10 and 11 carry 2/5 each

    # random streams against Counters of the plain Python values
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randrange(2, 300)
        lines = [rng.choice([rng.randrange(1 << 58), 7, 8, 9]) for _ in range(n)]
        pcs = [rng.randrange(5) for _ in range(n)]
        misses = misses_from_lines(lines, pcs)
        stats = coverage_stats(misses, compute_deltas(misses.line))
        line_counts = Counter(lines)
        delta_counts = Counter(signed_delta(a, b) for a, b in zip(lines, lines[1:]))
        assert stats.num_misses == n
        assert stats.num_unique_pcs == len(set(pcs))
        assert stats.num_unique_addrs == len(line_counts)
        assert stats.num_unique_deltas == len(delta_counts)
        assert stats.addrs_for_50pct_mass == mass_prefix_length(line_counts)
        assert stats.deltas_for_50pct_mass == mass_prefix_length(delta_counts)
        assert all(isinstance(x, int) for x in stats.__dict__.values())


def test_coverage_stats_empty_inputs():
    with pytest.raises(DataError):
        coverage_stats(misses_from_lines([]), np.array([1]))
    with pytest.raises(DataError):
        coverage_stats(misses_from_lines([1, 2]), np.array([], dtype=np.int64))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_vocab_file_roundtrip(tmp_path):
    rng = random.Random(17)
    deltas = [rng.randrange(-1000, 1000) for _ in range(20_000)]
    v = build_vocab(deltas, max_output=100, min_input_count=5)
    path = tmp_path / "v.bin"
    save_vocab(v, path)
    w = load_vocab(path)
    assert w.counts == v.counts
    assert w.input_classes == v.input_classes
    assert w.output_classes == v.output_classes
    assert w.max_output == v.max_output
    assert w.min_input_count == v.min_input_count


def test_vocab_file_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 64)
    with pytest.raises(TraceFormatError):
        load_vocab(path)


def test_save_vocab_deterministic_bytes(tmp_path):
    deltas = [random.Random(5).randrange(-20, 20) for _ in range(500)]
    v = build_vocab(deltas, max_output=8, min_input_count=2)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_vocab(v, p1)
    save_vocab(v, p2)
    assert p1.read_bytes() == p2.read_bytes()
