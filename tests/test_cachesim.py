import random

import numpy as np
import pytest

from prefetchlab.cachesim import (
    CacheLevelConfig,
    HierarchyConfig,
    default_broadwell_config,
    simulate,
)
from prefetchlab.cli import hierarchy_from_config
from prefetchlab.errors import ConfigError, DataError
from prefetchlab.trace import StrideSpec, generate_synthetic


class LruStackOracle:
    """Reference single-level cache: per-set recency list, no cleverness."""

    def __init__(self, capacity, associativity, line_size):
        self.ways = associativity
        self.num_sets = capacity // (associativity * line_size)
        self.line_size = line_size
        self.stacks = [[] for _ in range(self.num_sets)]

    def access(self, addr):
        line = addr // self.line_size
        stack = self.stacks[line % self.num_sets]
        if line in stack:
            stack.remove(line)
            stack.append(line)
            return True
        if len(stack) >= self.ways:
            stack.pop(0)
        stack.append(line)
        return False


def sweeps(n_lines, n_sweeps):
    """Trace of `n_sweeps` passes over lines 0..n_lines-1, one PC."""
    addr = np.tile(np.arange(n_lines, dtype=np.uint64) * np.uint64(64), n_sweeps)
    return np.column_stack((np.ones_like(addr), addr))


def test_single_level_matches_lru_oracle():
    # random traces over small caches; oracle decides hit/miss per access
    rng = random.Random(2024)
    for trial in range(300):
        ways = rng.choice([1, 2, 4])
        sets = rng.choice([1, 2, 4])
        line = rng.choice([16, 64])
        cfg = CacheLevelConfig(capacity=ways * sets * line, associativity=ways, line_size=line)
        hier = HierarchyConfig(levels=(cfg,))
        n_lines = rng.randrange(1, 17)
        trace = [
            (rng.randrange(8), rng.randrange(n_lines) * line + rng.randrange(line))
            for _ in range(rng.randrange(1, 400))
        ]
        oracle = LruStackOracle(cfg.capacity, ways, line)
        expected = [t for t, (_, addr) in enumerate(trace) if not oracle.access(addr)]
        misses, stats = simulate(np.array(trace, dtype=np.uint64), hier)
        assert len(misses) == len(expected)
        assert misses.pc.tolist() == [trace[t][0] for t in expected]
        assert misses.addr.tolist() == [trace[t][1] for t in expected]
        assert misses.line.tolist() == [trace[t][1] // line for t in expected]
        assert all(col.dtype == np.uint64 for col in (misses.pc, misses.addr, misses.line))
        assert stats.levels[0].accesses == len(trace)
        assert stats.levels[0].hits + stats.levels[0].misses == len(trace)
        assert stats.levels[0].misses == len(expected)


def test_multi_level_stats_chain():
    trace = generate_synthetic(StrideSpec(length=5000, stride=64))
    misses, stats = simulate(trace, default_broadwell_config())
    for upper, lower in zip(stats.levels, stats.levels[1:]):
        assert lower.accesses == upper.misses
    assert stats.levels[0].accesses == len(trace)
    # cold strided trace misses everywhere
    assert len(misses) == len(trace)


def test_stats_check_raises_on_doctored_counters():
    _, stats = simulate(generate_synthetic(StrideSpec(length=500, stride=64)),
                        default_broadwell_config())
    stats.check()
    stats.levels[0].hits += 1
    with pytest.raises(DataError, match="level 0 counter mismatch"):
        stats.check()
    stats.levels[0].hits -= 1
    stats.levels[2].accesses -= 1
    stats.levels[2].misses -= 1
    with pytest.raises(DataError, match="level 2 accesses"):
        stats.check()


def test_multi_level_small_working_set_hits_upper_levels():
    # 8 lines fit in L1, so after the first pass everything hits at level 0
    trace = sweeps(8, 50)
    misses, stats = simulate(trace, default_broadwell_config())
    assert len(misses) == 8
    assert stats.levels[0].hits == len(trace) - 8
    assert stats.levels[1].accesses == 8
    assert stats.levels[2].accesses == 8


def test_working_set_between_levels():
    # fits in L2 (4096 lines) but not L1 (512 lines): L1 thrashes, L2 absorbs
    n = 1024
    trace = sweeps(n, 4)
    misses, stats = simulate(trace, default_broadwell_config())
    assert len(misses) == n  # only cold misses reach the LLC
    assert stats.levels[0].hits == 0  # round-robin sweep defeats LRU at L1
    assert stats.levels[1].hits == stats.levels[0].misses - n


def test_miss_emit_level_selects_level():
    trace = sweeps(1024, 2)
    cfg = default_broadwell_config()
    l1_cfg = HierarchyConfig(levels=cfg.levels, miss_emit_level=0)
    misses_l1, _ = simulate(trace, l1_cfg)
    misses_llc, _ = simulate(trace, cfg)
    assert len(misses_l1) == 2048  # L1 thrashes on the second sweep too
    assert len(misses_llc) == 1024


def test_broadwell_shape():
    cfg = default_broadwell_config()
    caps = [lv.capacity for lv in cfg.levels]
    ways = [lv.associativity for lv in cfg.levels]
    assert caps == [32 * 1024, 256 * 1024, 1_310_720]
    assert ways == [8, 8, 20]
    assert all(lv.line_size == 64 for lv in cfg.levels)
    assert cfg.emit_index == 2
    assert [lv.num_sets for lv in cfg.levels] == [64, 512, 1024]


def test_level_config_validation():
    with pytest.raises(ConfigError):
        CacheLevelConfig(capacity=100, associativity=1, line_size=16)  # not divisible
    with pytest.raises(ConfigError):
        CacheLevelConfig(capacity=1024, associativity=1, line_size=48)  # not pow2
    with pytest.raises(ConfigError):
        CacheLevelConfig(capacity=1024, associativity=0)
    for cache, names in [
        ("skylake", ("skylake",)),
        ({"levels": [{"capacity": 1024, "associativity": 2, "ways": 4}]},
         ("cache.levels[0].ways",)),
        ({"miss_emit_level": 0}, ("levels",)),
        ({"levels": [{"capacity": "x", "associativity": 2}]},
         ("cache.levels[0].capacity", "'x'")),
        ({"levels": [{"capacity": 1024}]}, ("cache.levels[0].associativity",)),
        ({"levels": [], "miss_emit_level": 0}, ("at least one level",)),
        ({"levels": [{"capacity": 1024, "associativity": 2}], "emit": 0}, ("cache.emit",)),
        ({"levels": [{"capacity": 1024, "associativity": 2}], "miss_emit_level": "x"},
         ("cache.miss_emit_level", "'x'")),
        ({"levels": [{"capacity": 1024, "associativity": 8.0}]},
         ("cache.levels[0].associativity", "8.0")),
        ({"levels": [{"capacity": 1024, "associativity": 2}, 3]}, ("cache.levels[1]", "3")),
        ({"levels": [{"capacity": 1024, "associativity": 2}], "miss_emit_level": True},
         ("cache.miss_emit_level", "True")),
    ]:
        with pytest.raises(ConfigError) as err:
            hierarchy_from_config({"cache": cache})
        assert all(name in str(err.value) for name in names), (cache, err.value)
    levels = [{"capacity": 1024, "associativity": 2}, {"capacity": 4096, "associativity": 4}]
    hier = hierarchy_from_config({"cache": {"levels": levels, "miss_emit_level": 0}})
    assert hier == HierarchyConfig(
        levels=(CacheLevelConfig(1024, 2), CacheLevelConfig(4096, 4)), miss_emit_level=0
    )


def test_hierarchy_validation():
    lv = CacheLevelConfig(capacity=1024, associativity=2)
    with pytest.raises(ConfigError):
        HierarchyConfig(levels=())
    with pytest.raises(ConfigError):
        HierarchyConfig(levels=(lv, CacheLevelConfig(capacity=4096, associativity=2, line_size=128)))
    with pytest.raises(ConfigError):
        HierarchyConfig(levels=(lv,), miss_emit_level=3)


def test_simulate_deterministic():
    trace = generate_synthetic(StrideSpec(length=2000, stride=128))
    a = simulate(trace, default_broadwell_config())
    b = simulate(trace, default_broadwell_config())
    for column in ("pc", "addr", "line"):
        assert np.array_equal(getattr(a[0], column), getattr(b[0], column))
    assert a[1] == b[1]
