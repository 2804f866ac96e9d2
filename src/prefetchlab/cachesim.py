"""Set-associative multi-level cache simulation over access traces.

The hierarchy is non-inclusive with fill-on-miss into every level along the
miss path, LRU eviction per set, and no timing model. Loads and stores
are treated identically. The miss stream handed to the models is the
sequence of accesses that miss at `miss_emit_level` (LLC by default), in
trace order, each carrying the PC that generated it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .trace import MissStream


@dataclass(frozen=True)
class CacheLevelConfig:
    capacity: int
    associativity: int
    line_size: int = 64

    def __post_init__(self):
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ConfigError(f"line_size must be a power of two, got {self.line_size}")
        if self.associativity < 1:
            raise ConfigError("associativity must be >= 1")
        if self.capacity <= 0 or self.capacity % (self.associativity * self.line_size):
            raise ConfigError(
                f"capacity {self.capacity} not divisible by "
                f"associativity*line_size = {self.associativity * self.line_size}"
            )

    @property
    def num_sets(self) -> int:
        return self.capacity // (self.associativity * self.line_size)


@dataclass(frozen=True)
class HierarchyConfig:
    levels: tuple[CacheLevelConfig, ...]
    miss_emit_level: int = -1  # index into levels; -1 = last (LLC)

    def __post_init__(self):
        if not self.levels:
            raise ConfigError("hierarchy needs at least one level")
        line = self.levels[0].line_size
        if any(lv.line_size != line for lv in self.levels):
            raise ConfigError("line_size must be identical across levels")
        if not (-len(self.levels) <= self.miss_emit_level < len(self.levels)):
            raise ConfigError(f"miss_emit_level {self.miss_emit_level} out of range")

    @property
    def line_size(self) -> int:
        return self.levels[0].line_size

    @property
    def emit_index(self) -> int:
        return self.miss_emit_level % len(self.levels)


@dataclass
class LevelStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0


@dataclass
class SimStats:
    levels: list[LevelStats] = field(default_factory=list)

    def check(self) -> None:
        """Raise DataError unless the conservation invariants hold."""
        for i, lv in enumerate(self.levels):
            if lv.accesses != lv.hits + lv.misses:
                raise DataError(
                    f"level {i} counter mismatch: {lv.accesses} accesses != "
                    f"{lv.hits} hits + {lv.misses} misses"
                )
            if i + 1 < len(self.levels) and self.levels[i + 1].accesses != lv.misses:
                raise DataError(
                    f"level {i + 1} accesses {self.levels[i + 1].accesses} != "
                    f"level {i} misses {lv.misses}"
                )


def default_broadwell_config() -> HierarchyConfig:
    """Three-level hierarchy shaped like one Broadwell thread context.

    32 KiB L1 / 256 KiB L2 / 1.25 MiB LLC, 64-byte lines throughout,
    8/8/20-way, LRU, misses emitted at the LLC.
    """
    return HierarchyConfig(
        levels=(
            CacheLevelConfig(capacity=32 * 1024, associativity=8),
            CacheLevelConfig(capacity=256 * 1024, associativity=8),
            CacheLevelConfig(capacity=1_310_720, associativity=20),
        ),
        miss_emit_level=-1,
    )


class _Level:
    """One set-associative LRU level; each set is an OrderedDict of lines."""

    __slots__ = ("ways", "num_sets", "sets")

    def __init__(self, cfg: CacheLevelConfig):
        self.ways = cfg.associativity
        self.num_sets = cfg.num_sets
        self.sets = [OrderedDict() for _ in range(self.num_sets)]

    def access(self, line: int) -> bool:
        """Look up `line`; hit updates recency, miss fills (evicting LRU)."""
        s = self.sets[line % self.num_sets]
        if line in s:
            s.move_to_end(line)
            return True
        if len(s) >= self.ways:
            s.popitem(last=False)
        s[line] = None
        return False


def simulate(pairs: np.ndarray, config: HierarchyConfig) -> tuple[MissStream, SimStats]:
    """Replay the (n, 2) (pc, addr) trace `pairs` through the hierarchy;
    return (miss stream, stats).

    Deterministic: only a function of the trace and the configuration.
    """
    pairs = np.asarray(pairs, dtype=np.uint64)
    levels = [_Level(cfg) for cfg in config.levels]
    stats = SimStats([LevelStats() for _ in config.levels])
    emit = config.emit_index
    shift = np.uint64(config.line_size.bit_length() - 1)

    missed = bytearray(len(pairs))
    for t, line in enumerate((pairs[:, 1] >> shift).tolist()):
        for i, lv in enumerate(levels):
            st = stats.levels[i]
            st.accesses += 1
            if lv.access(line):
                st.hits += 1
                break
            st.misses += 1
            if i == emit:
                missed[t] = 1
    stats.check()
    misses = MissStream.from_pairs(pairs[np.frombuffer(missed, dtype=bool)], config.line_size)
    return misses, stats
