import random
from collections import OrderedDict, namedtuple

import numpy as np
import pytest

from prefetchlab.baselines import GhbPcDc, StreamPrefetcher, baseline_prediction_sets
from prefetchlab.errors import ConfigError
from prefetchlab.eval import precision_at_k
from prefetchlab.trace import MissStream

from oracles import signed_delta

Row = namedtuple("Row", "timestep predicted true_delta")


def misses_from_lines(lines, pcs=None):
    lines = np.array(lines, dtype=np.uint64)
    pcs = np.array(pcs or [0x400000] * len(lines), dtype=np.uint64)
    return MissStream(pc=pcs, addr=lines << np.uint64(6), line=lines)


def rows(p):
    """A Predictions record's rows as (timestep, set, true delta) Python values."""
    return [Row(t, tuple(row[:n]), d) for t, row, n, d in zip(
        p.timestep.tolist(), p.predicted.tolist(), p.n_predicted.tolist(), p.true_delta.tolist())]


# ---------------------------------------------------------------------------
# Stream prefetcher
# ---------------------------------------------------------------------------


def test_stream_two_hit_confirmation():
    pf = StreamPrefetcher()
    assert pf.observe(1, 100) == ()  # allocate
    assert pf.observe(1, 101) == ()  # first stride sighting
    assert pf.observe(1, 102) == tuple(range(1, 11))  # second identical stride confirms
    assert pf.observe(1, 103) == tuple(range(1, 11))


def test_stream_negative_stride():
    pf = StreamPrefetcher()
    pf.observe(1, 100)
    pf.observe(1, 98)
    assert pf.observe(1, 96) == tuple(-2 * i for i in range(1, 11))


def test_stream_changed_stride_must_reconfirm():
    pf = StreamPrefetcher()
    pf.observe(1, 0)
    pf.observe(1, 1)
    assert pf.observe(1, 2) == tuple(range(1, 11))
    assert pf.observe(1, 5) == ()  # stride changed to 3, not confirmed yet
    assert pf.observe(1, 8) == tuple(3 * i for i in range(1, 11))


def test_stream_distinct_consecutive_deltas_never_confirm():
    pf = StreamPrefetcher()
    line = 0
    for d in [1, 2, 3, 5] * 20:  # no two equal consecutive strides
        assert pf.observe(1, line) == ()
        line += d


def test_stream_window_split():
    pf = StreamPrefetcher(window=16)
    pf.observe(1, 0)
    assert pf.observe(1, 17) == ()  # too far: new stream, not a 17-stride
    pf.observe(1, 18)
    assert pf.observe(1, 19) == tuple(range(1, 11))  # second stream confirmed on its own


def test_stream_same_line_ignored():
    pf = StreamPrefetcher()
    pf.observe(1, 50)
    pf.observe(1, 51)
    assert pf.observe(1, 51) == ()  # zero delta neither confirms nor resets
    assert pf.observe(1, 52) == tuple(range(1, 11))


def test_stream_lru_eviction():
    pf = StreamPrefetcher(max_streams=10)
    pf.observe(1, 0)
    pf.observe(1, 1)
    assert pf.observe(1, 2) == tuple(range(1, 11))  # confirmed stream at ~2
    for base in range(1, 11):  # 10 new far-apart streams evict it
        pf.observe(1, base * 10_000)
    assert pf.observe(1, 3) == ()  # back near the old stream: it is gone


def test_stream_tracks_multiple_streams():
    pf = StreamPrefetcher()
    # interleave two strided streams far apart
    seq = []
    for i in range(6):
        seq.append(1000 + i)
        seq.append(90_000 + 2 * i)
    outs = [pf.observe(1, line) for line in seq]
    assert outs[4] == tuple(range(1, 11))  # third visit of stream A
    assert outs[5] == tuple(2 * i for i in range(1, 11))  # third visit of stream B


# ---------------------------------------------------------------------------
# GHB PC/DC
# ---------------------------------------------------------------------------


def test_ghb_single_pc_cycle_hand_trace():
    # delta cycle 1, 2, 3 starting at line 0: lines 0 1 3 6 7 9 12
    pf = GhbPcDc()
    assert pf.observe(5, 0) == ()
    assert pf.observe(5, 1) == ()
    assert pf.observe(5, 3) == ()
    assert pf.observe(5, 6) == ()
    assert pf.observe(5, 7) == ()  # pair (3,1) seen once, nothing earlier
    assert pf.observe(5, 9) == (3, 4)  # pair (1,2) matched; replay 3 then 3+1
    assert pf.observe(5, 12) == (1, 3)  # pair (2,3) matched; replay 1 then 1+2
    # first prediction element is the true next delta from here on
    line = 12
    for d in [1, 2, 3] * 5:
        line += d
        preds = pf.observe(5, line)
        assert preds and preds[0] in (1, 2, 3)


def test_ghb_predictions_track_cycle_truth():
    pf = GhbPcDc()
    line = 0
    lines = []
    for d in [2, 5, 9] * 30:
        lines.append(line)
        line += d
    hits = 0
    for i, ln in enumerate(lines[:-1]):
        preds = pf.observe(7, ln)
        if lines[i + 1] - ln in preds:
            hits += 1
    assert hits >= len(lines) - 1 - 6  # only warmup misses


def test_ghb_localizes_deltas_per_pc():
    # PC A strides by 2, PC B by 5, in runs of 4; within a run the global
    # delta equals the PC-local delta, so warm predictions hit
    pf = GhbPcDc()
    a_line, b_line = 0, 100_000
    lines, pcs = [], []
    for run in range(20):
        for _ in range(4):
            if run % 2 == 0:
                lines.append(a_line)
                pcs.append(0xA)
                a_line += 2
            else:
                lines.append(b_line)
                pcs.append(0xB)
                b_line += 5
    hits = 0
    scored = 0
    for i in range(len(lines) - 1):
        preds = pf.observe(pcs[i], lines[i])
        if i % 4 < 3 and i > 12:  # within-run transitions, past warmup
            scored += 1
            if lines[i + 1] - lines[i] in preds:
                hits += 1
    assert scored > 0
    assert hits == scored


def test_ghb_no_match_gives_empty_set():
    pf = GhbPcDc()
    line = 0
    for d in [1, 10, 100, 3, 77, 1234, 9, 55]:  # every delta pair unique
        assert pf.observe(1, line) == ()
        line += d


def test_ghb_buffer_overwrite_breaks_stale_chains():
    pf = GhbPcDc(buffer_size=4)
    for line in [0, 1, 3, 6, 7, 9]:
        pf.observe(5, line)
    # another PC floods the 4-entry buffer
    for i in range(8):
        pf.observe(9, 10_000 + i * 50)
    assert pf._chain_lines(5) == []  # PC 5's history is gone
    assert pf.observe(5, 12) == ()


def test_ghb_index_lru_eviction():
    pf = GhbPcDc(index_size=2)
    pf.observe(1, 10)
    pf.observe(2, 20)
    pf.observe(3, 30)  # evicts PC 1
    assert 1 not in pf._index
    assert set(pf._index) == {2, 3}


def test_ghb_replay_capped_at_degree():
    pf = GhbPcDc(degree=3)
    line = 0
    for d in [1, 2, 3, 4, 5, 6, 7] * 4:
        preds = pf.observe(1, line)
        assert len(preds) <= 3
        line += d


def test_ghb_cumulative_offsets():
    # after the cycle warms up, pred j equals the sum of the next j deltas
    pf = GhbPcDc()
    cycle = [4, 1, 7]
    line = 0
    seq = []
    for d in cycle * 10:
        seq.append(line)
        line += d
    for i, ln in enumerate(seq):
        preds = pf.observe(1, ln)
        if i >= 2 * len(cycle) + 1 and preds:
            future = [seq[i + 1 + j] - ln for j in range(len(preds)) if i + 1 + j < len(seq)]
            assert list(preds[: len(future)]) == future


class ChainWalkGhb:
    """The GHB before incremental histories: a circular buffer of
    (seq, line, prev_seq) nodes, each PC's chain walked on every miss."""

    def __init__(self, index_size=256, buffer_size=256, degree=10):
        self.index_size = index_size
        self.buffer_size = buffer_size
        self.degree = degree
        self._buf = [(-1, 0, -1)] * buffer_size
        self._index = OrderedDict()
        self._seq = 0

    def _chain_lines(self, pc):
        lines = []
        seq = self._index.get(pc, -1)
        while seq >= 0:
            entry = self._buf[seq % self.buffer_size]
            if entry[0] != seq:
                break
            lines.append(entry[1])
            seq = entry[2]
        return lines

    def observe(self, pc, line):
        hist = self._chain_lines(pc)
        preds = ()
        if len(hist) >= 2:
            d_cur = line - hist[0]
            d_prev = hist[0] - hist[1]
            deltas = [hist[i] - hist[i + 1] for i in range(len(hist) - 1)]
            for j in range(1, len(deltas)):
                if deltas[j] == d_cur and j + 1 < len(deltas) and deltas[j + 1] == d_prev:
                    out, total = [], 0
                    for i in range(j - 1, -1, -1):
                        total += deltas[i]
                        out.append(total)
                        if len(out) >= self.degree:
                            break
                    preds = tuple(out)
                    break
        prev = self._index.get(pc, -1)
        self._buf[self._seq % self.buffer_size] = (self._seq, line, prev)
        if pc in self._index:
            self._index.move_to_end(pc)
        elif len(self._index) >= self.index_size:
            self._index.popitem(last=False)
        self._index[pc] = self._seq
        self._seq += 1
        return preds


def random_miss_stream(rng, n, n_pcs):
    """Per-PC walks over a short repeating delta cycle with random breaks,
    so delta pairs recur within and across buffer lifetimes."""
    cycle = [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
    lines = {}
    for i in range(n):
        pc = rng.randrange(n_pcs) if rng.random() < 0.7 else rng.randrange(min(n_pcs, 3))
        line = lines.get(pc, rng.randrange(1 << 30))
        d = cycle[i % len(cycle)] if rng.random() < 0.85 else rng.randint(-3, 3)
        lines[pc] = line + d
        yield pc, line


def test_ghb_equals_chain_walk_on_random_streams():
    rng = random.Random(17)
    predicted = 0
    for _ in range(60):
        sizes = dict(index_size=rng.randint(2, 40), buffer_size=rng.randint(4, 64),
                     degree=rng.randint(1, 12))
        pf, ref = GhbPcDc(**sizes), ChainWalkGhb(**sizes)
        n_pcs = rng.randint(1, 60)
        for i, (pc, line) in enumerate(random_miss_stream(rng, 1500, n_pcs)):
            preds = pf.observe(pc, line)
            assert preds == ref.observe(pc, line), (sizes, i)
            predicted += bool(preds)
            if i % 50 == 0:
                assert list(pf._index) == list(ref._index)
                for q in range(n_pcs):
                    assert pf._chain_lines(q) == ref._chain_lines(q)
    assert predicted > 10_000  # the streams exercise the replay path


def test_ghb_history_bounded_by_buffer_size():
    pf = GhbPcDc(index_size=4, buffer_size=16)
    rng = random.Random(5)
    for i in range(10 * 16):
        pf.observe(i % 3, rng.randrange(1000))
        for hist in pf._index.values():
            assert len(hist.lines) == len(hist.seqs) <= 2 * 16 + 1
            assert len(hist.pairs) <= len(hist.lines)
    # one PC alone: every miss of it stays in the buffer for 16 misses
    pf = GhbPcDc(buffer_size=16)
    for i in range(10 * 16):
        pf.observe(7, (i * 3) % 11)
        assert len(pf._index[7].lines) <= 2 * 16 + 1
    assert len(pf._chain_lines(7)) == 16


def test_ghb_rejects_degree_below_one():
    with pytest.raises(ConfigError):
        GhbPcDc(degree=0)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def test_baseline_prediction_sets_shapes():
    misses = misses_from_lines(list(range(100, 150)))
    sets = rows(baseline_prediction_sets(StreamPrefetcher(), misses))
    assert len(sets) == 49
    assert [s.timestep for s in sets] == list(range(49))
    assert all(s.true_delta == 1 for s in sets)
    assert all(len(s.predicted) <= 10 for s in sets)
    # confirmed from the third miss onwards
    assert sets[0].predicted == ()
    assert sets[1].predicted == ()
    assert all(1 in s.predicted for s in sets[2:])
    # a descending run confirms a negative stride: line differences are
    # taken on Python ints, not on wrapping uint64 scalars
    sets = rows(baseline_prediction_sets(StreamPrefetcher(),
                                         misses_from_lines(range(150, 100, -1))))
    assert all(s.true_delta == -1 for s in sets)
    assert all(s.predicted == tuple(range(-1, -11, -1)) for s in sets[2:])


def test_baseline_prediction_sets_from_start():
    rng = random.Random(8)
    pcs, lines = zip(*random_miss_stream(rng, 400, 5))
    misses = misses_from_lines(list(lines), list(pcs))
    full = rows(baseline_prediction_sets(GhbPcDc(buffer_size=32), misses))
    # the driver equals feeding the prefetcher one Python-int miss at a time
    ref, expected = GhbPcDc(buffer_size=32), []
    for t, (pc, line) in enumerate(zip(pcs, lines)):
        preds = ref.observe(pc, line)
        if t + 1 < len(lines):
            expected.append(Row(t, preds[:10], signed_delta(line, lines[t + 1])))
    assert full == expected
    for start in (0, 1, 150, 399, 400, 401):
        sets = rows(baseline_prediction_sets(GhbPcDc(buffer_size=32), misses, start=start))
        assert sets == full[max(start - 1, 0):]
        assert all(s.timestep + 1 >= start for s in sets)


def test_stream_precision_on_long_stride_run():
    misses = misses_from_lines(list(range(2000)))
    sets = rows(baseline_prediction_sets(StreamPrefetcher(), misses))
    hits = sum(1 for s in sets if s.true_delta in s.predicted)
    assert hits / len(sets) > 0.99


def test_baseline_deltas_wrap_like_the_labels():
    """Line differences are 64-bit two's-complement, as the labels are: a
    stride of 2**63 + 5 lines is one delta, -(2**63 - 5), not two that
    alternate between 2**63 + 5 and 5 - 2**63 as unbounded ints would."""
    def ghb_sets(stride):
        addrs = [(i * stride) % (1 << 64) for i in range(400)]
        pairs = np.array([(0x400000, a) for a in addrs], dtype=np.uint64)
        return baseline_prediction_sets(GhbPcDc(), MissStream.from_pairs(pairs, line_size=1))

    ghb = ghb_sets((1 << 63) + 5)
    assert {s.true_delta for s in rows(ghb)} == {5 - (1 << 63)}
    # scored like a small stride: all but the warm-up misses hit
    assert precision_at_k(ghb, 10) == precision_at_k(ghb_sets(64), 10) > 0.98
    assert {s.predicted for s in rows(ghb) if s.predicted} == {(5 - (1 << 63),)}


def test_stream_follows_a_stride_across_the_top_of_the_line_space():
    top = (1 << 64) - 1
    lines = [(top - 6 + 3 * i) % (1 << 64) for i in range(8)]
    sets = rows(baseline_prediction_sets(StreamPrefetcher(), misses_from_lines(lines)))
    assert all(s.true_delta == 3 for s in sets)
    assert all(s.predicted == tuple(3 * i for i in range(1, 11)) for s in sets[2:])
    # confirmed strides so large that a multiple leaves int64 wrap as well
    pf = StreamPrefetcher(window=1 << 63)
    for line in (0, 1 << 62, 1 << 63):
        preds = pf.observe(1, line)
    assert preds == tuple(((i << 62) + (1 << 63)) % (1 << 64) - (1 << 63) for i in range(1, 11))
