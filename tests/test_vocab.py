import os
import random
import struct
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import prefetchlab
from prefetchlab.errors import DataError, TraceFormatError
from prefetchlab.trace import MissStream
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

from oracles import signed_delta


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
    assert v.deltas[: v.n_input].tolist() == [-2, 1, 5, 7]
    assert v.counts.tolist() == [3, 3, 3, 2]


def test_vocab_output_is_prefix_of_input():
    rng = random.Random(7)
    deltas = [rng.randrange(-50, 50) for _ in range(5000)]
    v = build_vocab(deltas, max_output=10, min_input_count=3)
    assert v.deltas[: v.n_output].tolist() == v.deltas[: v.n_input].tolist()[:10]
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
    assert v.deltas[: v.n_output][ids].tolist() == deltas[:100]
    # an int64 delta array encodes like the list, and builds the same vocab
    array = np.array(deltas, dtype=np.int64)
    assert np.array_equal(v.encode_output(array[:100]), ids)
    assert np.array_equal(v.encode_input(array), v.encode_input(deltas))
    w = build_vocab(array, max_output=6, min_input_count=1)
    assert np.array_equal(w.deltas, v.deltas) and np.array_equal(w.counts, v.counts)


def test_empty_stream_gives_no_classes():
    v = build_vocab([], max_output=4, min_input_count=1)
    assert v.n_input == v.n_output == v.oov_input == v.oov_output == 0
    assert v.output_coverage() == 0.0
    assert v.encode_input([3, -2]).tolist() == v.encode_output([3, -2]).tolist() == [0, 0]
    with pytest.raises(DataError):
        DeltaVocab(np.array([1]), np.array([5]), max_output=0, min_input_count=1)


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
    assert mass_prefix_length([7] * 10) == 5


def test_mass_prefix_fifty_fifty():
    assert mass_prefix_length([500, 500]) == 1


def test_mass_prefix_skewed():
    counts = np.array([5, 90, 5])
    assert mass_prefix_length(counts) == 1
    assert mass_prefix_length(counts, fraction=0.95) == 2
    assert mass_prefix_length(counts, fraction=1.0) == 3
    assert mass_prefix_length(np.array([], dtype=np.int64)) == 0


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
        assert stats.addrs_for_50pct_mass == mass_prefix_length(list(line_counts.values()))
        assert stats.deltas_for_50pct_mass == mass_prefix_length(list(delta_counts.values()))
        assert all(isinstance(x, int) for x in stats.__dict__.values())


def test_coverage_stats_does_not_import_numpy_ma():
    """np.unique without counts imports numpy.ma (~17 ms in the report
    stage); a fresh interpreter shows whether coverage_stats pulls it in."""
    script = (
        "import sys, numpy as np\n"
        "from prefetchlab.trace import MissStream\n"
        "from prefetchlab.vocab import compute_deltas, coverage_stats\n"
        "lines = np.arange(50, dtype=np.uint64) * np.uint64(3)\n"
        "misses = MissStream(lines % np.uint64(4), lines << np.uint64(6), lines)\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "coverage_stats(misses, compute_deltas(misses.line))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(prefetchlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


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
    assert np.array_equal(w.deltas, v.deltas) and np.array_equal(w.counts, v.counts)
    assert (w.n_input, w.n_output) == (v.n_input, v.n_output)
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


# ---------------------------------------------------------------------------
# Ranked arrays against the Counter/dict vocabulary
# ---------------------------------------------------------------------------


class OracleVocab:
    """The vocabulary as a Counter and dicts of Python ints: the reference
    for the ranked arrays."""

    def __init__(self, counts, max_output, min_input_count):
        self.counts = Counter(counts)
        self.max_output, self.min_input_count = max_output, min_input_count
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        self.ranked = ranked
        eligible = [d for d, c in ranked if c >= min_input_count]
        self.input_id = {d: i for i, d in enumerate(eligible)}
        self.output_id = {d: i for i, d in enumerate(eligible[:max_output])}

    def encode(self, ids, values):
        return [ids.get(v, len(ids)) for v in values]

    def file_bytes(self):
        out = b"PFVOCAB1" + struct.pack("<IQQQ", 1, self.max_output, self.min_input_count,
                                        len(self.ranked))
        for delta, count in self.ranked:
            out += struct.pack("<qQq", delta, count, self.input_id.get(delta, -1))
        return out


def oracle_load(data):
    """What the Counter/dict loader made of a vocab file: the vocabulary,
    or None where it refused the stored class ids."""
    _, max_output, min_count, n = struct.unpack("<IQQQ", data[8:36])
    counts, expected = Counter(), {}
    for delta, count, class_id in struct.iter_unpack("<qQq", data[36 : 36 + 24 * n]):
        counts[delta] = count
        if class_id >= 0:
            expected[delta] = class_id
    vocab = OracleVocab(counts, max_output, min_count)
    return vocab if vocab.input_id == expected else None


def oracle_corpora():
    rng = random.Random(31)
    extremes = [-(2**63), 2**63 - 1, 0, -1, 1]
    for trial in range(12):
        n = rng.randrange(1, 3000)
        spread = rng.choice([3, 50, 2000])
        deltas = [rng.randrange(-spread, spread) for _ in range(n)]
        deltas += rng.sample(extremes, rng.randrange(0, 5)) * rng.randrange(1, 4)
        rng.shuffle(deltas)
        yield deltas, rng.choice([1, 2, 5, 50_000]), rng.choice([1, 2, 3, 10])


def test_vocab_matches_counter_oracle(tmp_path):
    rng = random.Random(8)
    for trial, (deltas, max_output, min_count) in enumerate(oracle_corpora()):
        v = build_vocab(np.array(deltas, dtype=np.int64), max_output, min_count)
        oracle = OracleVocab(Counter(deltas), max_output, min_count)
        assert (v.n_input, v.n_output) == (len(oracle.input_id), len(oracle.output_id))
        assert v.deltas[: v.n_output].tolist() == list(oracle.output_id)
        assert v.output_coverage() == (
            sum(oracle.counts[d] for d in oracle.output_id) / sum(oracle.counts.values()))
        probe = deltas + [rng.randrange(-(2**63), 2**63) for _ in range(100)]
        assert v.encode_input(probe).tolist() == oracle.encode(oracle.input_id, probe)
        assert v.encode_output(probe).tolist() == oracle.encode(oracle.output_id, probe)
        path = tmp_path / f"v{trial}.bin"
        save_vocab(v, path)
        assert path.read_bytes() == oracle.file_bytes()


def test_pc_vocab_matches_counter_oracle():
    rng = random.Random(9)
    for _ in range(10):
        pool = [rng.randrange(2**64) for _ in range(rng.randrange(1, 40))] + [0, 2**64 - 1]
        pcs = [rng.choice(pool) for _ in range(rng.randrange(1, 500))]
        v = build_pc_vocab(np.array(pcs, dtype=np.uint64))
        oracle = OracleVocab(Counter(pcs), max_output=2**40, min_input_count=1)
        assert v.n_pcs == len(oracle.input_id)
        assert v.encode(np.array(pool, dtype=np.uint64)).tolist() == oracle.encode(
            oracle.input_id, pool)


def test_tampered_vocab_file_refused_like_counter_oracle(tmp_path):
    rng = random.Random(4)
    deltas = [rng.randrange(-30, 30) for _ in range(2000)]
    path = tmp_path / "v.bin"
    save_vocab(build_vocab(deltas, max_output=10, min_input_count=40), path)
    data = path.read_bytes()
    n = (len(data) - 36) // 24
    entries = [list(e) for e in struct.iter_unpack("<qQq", data[36:])]
    assert 2 < n and entries[0][2] == 0 and entries[-1][2] == -1

    def tamper(change):
        rows = [list(e) for e in entries]
        change(rows)
        return data[:36] + b"".join(struct.pack("<qQq", *row) for row in rows)

    def swap_ids(rows):
        rows[0][2], rows[1][2] = rows[1][2], rows[0][2]

    def bump_last_count(rows):  # the rarest delta becomes the most frequent
        rows[-1][1] = rows[0][1] + 1

    def bump_first_count(rows):  # ranking unchanged
        rows[0][1] += 1

    def demote_first(rows):
        rows[0][1] = 1

    def shuffle(rows):
        random.Random(1).shuffle(rows)

    def reverse_deltas(rows):
        for row, delta in zip(rows, [row[0] for row in rows][::-1]):
            row[0] = delta

    cases = [swap_ids, bump_last_count, bump_first_count, demote_first, shuffle,
             reverse_deltas]
    verdicts = []
    for i, change in enumerate(cases):
        tampered = tamper(change)
        case = tmp_path / f"t{i}.bin"
        case.write_bytes(tampered)
        oracle = oracle_load(tampered)
        verdicts.append(oracle is not None)
        if oracle is None:
            with pytest.raises(TraceFormatError, match="stored class ids do not match"):
                load_vocab(case)
            continue
        v = load_vocab(case)
        assert v.deltas.tolist() == [d for d, _ in oracle.ranked]
        assert v.counts.tolist() == [c for _, c in oracle.ranked]
        assert v.deltas[: v.n_output].tolist() == list(oracle.output_id)
    assert True in verdicts and False in verdicts

    # a delta stored twice is refused (the dict loader kept the last entry)
    case = tmp_path / "dup.bin"
    case.write_bytes(tamper(lambda rows: rows[1].__setitem__(0, rows[0][0])))
    with pytest.raises(TraceFormatError, match="stored twice"):
        load_vocab(case)
