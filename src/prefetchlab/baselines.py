"""Table-driven hardware prefetcher baselines.

Both prefetchers consume the miss stream one event at a time through
observe(pc, line) and return the delta set they would prefetch after that
miss, which makes them directly comparable to the sequence models: the
deltas returned at miss t are scored against the true delta t -> t+1;
`baseline_prediction_sets` writes the sets into the preallocated rows of
one `Predictions` record. All deltas are in line units and, like the
labels (`vocab.compute_deltas`), 64-bit two's-complement. A difference of
two uint64 lines lies in (-2**64, 2**64), so one compare-and-adjust
(`_wrap`) brings it into [-2**63, 2**63); the prefetchers skip it where
no difference can leave that range, so the common case costs a
comparison or two per miss.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict

import numpy as np

from .errors import ConfigError
from .eval import Predictions
from .trace import MissStream
from .vocab import compute_deltas

_HALF = 1 << 63
_WRAP = 1 << 64
SET_WIDTH = 10  # deltas kept per prediction set


def _wrap(d: int) -> int:
    """A difference of two uint64 values as a signed 64-bit value."""
    if d >= _HALF:
        return d - _WRAP
    if d < -_HALF:
        return d + _WRAP
    return d


class StreamPrefetcher:
    """Confirmation-based stream prefetcher.

    Tracks up to `max_streams` streams with LRU eviction. A miss joins
    the most recently used stream whose last line is within +-`window`
    lines; a stream is confirmed once the same stride repeats, and while
    confirmed it prefetches stride multiples 1..degree ahead.
    """

    def __init__(self, max_streams: int = 10, window: int = 16, degree: int = 10):
        self.max_streams = max_streams
        self.window = window
        self.degree = degree
        self._streams: OrderedDict[int, list] = OrderedDict()  # id -> [last, stride, confirmed]
        self._next_id = 0

    def observe(self, pc: int, line: int) -> tuple[int, ...]:
        match = None
        lo, hi = line - self.window, line + self.window
        # only a line this close to 0 or 2**64 has neighbours across the edge
        edge = lo < 0 or hi >= _WRAP
        for sid in reversed(self._streams):
            last = self._streams[sid][0]
            if lo <= last <= hi or edge and (lo <= last - _WRAP or last + _WRAP <= hi):
                match = sid
                break
        if match is None:
            if len(self._streams) >= self.max_streams:
                self._streams.popitem(last=False)
            self._streams[self._next_id] = [line, None, False]
            self._next_id += 1
            return ()

        s = self._streams[match]
        self._streams.move_to_end(match)
        d = _wrap(line - s[0]) if edge else line - s[0]
        if d == 0:
            return ()
        if s[1] == d:
            s[2] = True
        else:
            s[1] = d
            s[2] = False
        s[0] = line
        if s[2]:
            preds = tuple(d * i for i in range(1, self.degree + 1))
            # |d| <= window, so only a window * degree past 2**63 can overflow
            if self.window * self.degree >= _HALF:
                preds = tuple(_wrap(x % _WRAP) for x in preds)
            return preds
        return ()


class _PcHistory:
    """One PC's miss lines in arrival order, with the delta pairs among them.

    `lines[start:]` are the misses still inside the global history buffer;
    `seqs` holds their global miss numbers. `pairs` maps each wrapped delta
    pair (lines[p+1] - lines[p], lines[p+2] - lines[p+1]) to its last two
    positions p, most recent last.
    """

    __slots__ = ("lines", "seqs", "start", "pairs", "wide")

    def __init__(self, seq: int, line: int):
        self.lines = [line]
        self.seqs = [seq]
        self.start = 0
        self.pairs: dict[tuple[int, int], tuple[int | None, int]] = {}
        # whether a line >= 2**63 was stored: below that, no difference of
        # two lines leaves int64 and none needs wrapping
        self.wide = line >= _HALF

    def expire(self, oldest_seq: int, keep: int) -> None:
        """Drop misses older than `oldest_seq`; compact once more than
        `keep` of them pile up, so a history never outgrows 2*keep + 1."""
        self.start = bisect_left(self.seqs, oldest_seq, self.start)
        if self.start > keep:
            del self.lines[: self.start]
            del self.seqs[: self.start]
            self.start = 0
            self.pairs = {}
            lines = self.lines
            for p in range(len(lines) - 2):
                self._add_pair(p, lines[p + 1] - lines[p], lines[p + 2] - lines[p + 1])

    def _add_pair(self, p: int, d0: int, d1: int) -> None:
        if self.wide:
            d0, d1 = _wrap(d0), _wrap(d1)
        last = self.pairs.get((d0, d1))
        self.pairs[d0, d1] = (None if last is None else last[1], p)

    def append(self, seq: int, line: int) -> None:
        lines = self.lines
        lines.append(line)
        self.seqs.append(seq)
        if line >= _HALF:
            self.wide = True
        n = len(lines)
        if n >= 3:
            self._add_pair(n - 3, lines[n - 2] - lines[n - 3], line - lines[n - 2])

    def replay(self, line: int, degree: int) -> tuple[int, ...]:
        """Offsets that followed the most recent earlier occurrence of the
        delta pair that `line` completes, as cumulative sums of its
        successors, at most `degree` of them."""
        lines = self.lines
        n = len(lines)
        if n - self.start < 2:
            return ()
        last = lines[-1]
        d0, d1 = last - lines[-2], line - last
        wide = self.wide or line >= _HALF
        if wide:
            d0, d1 = _wrap(d0), _wrap(d1)
        found = self.pairs.get((d0, d1))
        if found is None:
            return ()
        p = found[1]
        # the pair ending at the newest stored delta is the current pair's
        # predecessor, not an earlier occurrence of it
        if p > n - 4:
            p = found[0]
            if p is None:
                return ()
        if p < self.start:
            return ()
        base = lines[p + 2]
        offsets = tuple(x - base for x in lines[p + 3 : min(n, p + 3 + degree)])
        return tuple(map(_wrap, offsets)) if wide else offsets


class GhbPcDc:
    """Global history buffer prefetcher with PC-localized delta correlation.

    A circular `buffer_size`-entry history buffer holds one node per miss,
    linked per PC; an LRU index table of `index_size` PCs points at each
    PC's most recent node. On a miss the current localized delta pair is
    looked up in that PC's delta history (most recent earlier occurrence
    wins) and up to `degree` following deltas are replayed as cumulative
    offsets. Prediction happens before the miss is inserted.

    Instead of walking each PC's chain through the buffer on every miss,
    the index keeps every PC's history incrementally (a `_PcHistory`):
    misses more than `buffer_size` misses old count as overwritten, and a
    PC evicted from the index loses its history, exactly as its chain
    would. Predictions equal the chain walk's.
    """

    def __init__(self, index_size: int = 256, buffer_size: int = 256, degree: int = 10):
        if degree < 1:
            raise ConfigError(f"GHB degree must be >= 1, got {degree}")
        self.index_size = index_size
        self.buffer_size = buffer_size
        self.degree = degree
        self._index: OrderedDict[int, _PcHistory] = OrderedDict()
        self._seq = 0

    def _chain_lines(self, pc: int) -> list[int]:
        """This PC's miss lines still in the buffer, most recent first."""
        hist = self._index.get(pc)
        if hist is None:
            return []
        first = bisect_left(hist.seqs, self._seq - self.buffer_size, hist.start)
        return hist.lines[first:][::-1]

    def observe(self, pc: int, line: int) -> tuple[int, ...]:
        seq = self._seq
        self._seq = seq + 1
        hist = self._index.get(pc)
        if hist is None:
            if len(self._index) >= self.index_size:
                self._index.popitem(last=False)
            self._index[pc] = _PcHistory(seq, line)
            return ()
        self._index.move_to_end(pc)
        hist.expire(seq - self.buffer_size, self.buffer_size)
        preds = hist.replay(line, self.degree)
        hist.append(seq, line)
        return preds


def baseline_prediction_sets(prefetcher, misses: MissStream, start: int = 0) -> Predictions:
    """Run a prefetcher over a miss stream; one row per transition t -> t+1
    with t + 1 >= `start`, holding the first SET_WIDTH deltas that the
    prefetcher returned at miss t. Every miss still updates the
    prefetcher's state."""
    first = max(start - 1, 0)
    deltas = compute_deltas(misses.line)[first:]
    n = len(deltas)
    out = Predictions(np.arange(first, first + n), np.zeros((n, SET_WIDTH), dtype=np.int64),
                      np.zeros(n, dtype=np.int64), deltas)
    observe = prefetcher.observe
    # Python ints: numpy scalars are slower here, and uint64 ones would
    # wrap the prefetchers' line differences modulo 2**64, not to int64
    for row, (pc, line) in enumerate(zip(misses.pc.tolist(), misses.line.tolist()), -first):
        preds = observe(pc, line)[:SET_WIDTH]
        if preds and 0 <= row < n:
            out.predicted[row, : len(preds)] = preds
            out.n_predicted[row] = len(preds)
    return out
