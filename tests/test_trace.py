import random
import struct
import tracemalloc

import numpy as np
import pytest

from prefetchlab.errors import ConfigError, TraceFormatError
from prefetchlab.trace import (
    LinkedListSpec,
    MissStream,
    MultiStrideSpec,
    PcCorrelatedSpec,
    RegionHoppingSpec,
    StrideSpec,
    generate_synthetic,
    read_miss_trace,
    read_trace,
    write_miss_trace,
    write_trace,
)

from oracles import signed_delta

MASK64 = (1 << 64) - 1


def random_pairs(rng, n):
    rows = [(rng.randrange(1 << 64), rng.randrange(1 << 64)) for _ in range(n)]
    return np.array(rows, dtype=np.uint64).reshape(-1, 2)


# ---------------------------------------------------------------------------
# signed_delta
# ---------------------------------------------------------------------------


def test_signed_delta_basic():
    assert signed_delta(10, 13) == 3
    assert signed_delta(13, 10) == -3
    assert signed_delta(5, 5) == 0


def test_signed_delta_wraparound():
    # crossing the 64-bit boundary must still give the short way around
    assert signed_delta(MASK64, 0) == 1
    assert signed_delta(0, MASK64) == -1
    assert signed_delta(0, 1 << 63) == -(1 << 63)


def test_signed_delta_random_consistency():
    rng = random.Random(99)
    for _ in range(1000):
        a = rng.randrange(1 << 64)
        b = rng.randrange(1 << 64)
        d = signed_delta(a, b)
        assert -(1 << 63) <= d < (1 << 63)
        assert (a + d) & MASK64 == b


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def reference_bytes(pairs):
    return b"PFTRACE1" + b"".join(struct.pack("<QQ", pc, addr) for pc, addr in pairs)


def test_trace_roundtrip(tmp_path):
    rng = random.Random(0)
    for trial in range(20):
        pairs = random_pairs(rng, rng.randrange(0, 200))
        if trial == 1:
            pairs = np.array([(MASK64, 0), (0, MASK64), (1 << 63, 1)], dtype=np.uint64)
        path = tmp_path / f"t{trial}.bin"
        write_trace(pairs, path)
        assert path.read_bytes() == reference_bytes(pairs.tolist())
        loaded = read_trace(path)
        assert loaded.dtype == np.uint64 and loaded.shape == pairs.shape
        assert np.array_equal(loaded, pairs)


def test_trace_roundtrip_large_binary(tmp_path):
    rng = random.Random(1)
    pairs = random_pairs(rng, 10_000)
    path = tmp_path / "big.bin"
    write_trace(pairs, path)
    assert np.array_equal(read_trace(path), pairs)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTATRCE" + b"\x00" * 32)
    with pytest.raises(TraceFormatError):
        read_trace(path)
    with pytest.raises(TraceFormatError, match="bad magic"):
        read_miss_trace(path)


def test_binary_truncated_record(tmp_path):
    path = tmp_path / "trunc.bin"
    write_trace(np.array([(1, 2), (3, 4)], dtype=np.uint64), path)
    data = path.read_bytes()
    # a partial third record of every length, and a cut inside the second
    for cut in [data + bytes(range(r)) for r in range(1, 16)] + [data[:-5]]:
        path.write_bytes(cut)
        message = f"truncated record at byte offset {8 + 16 * ((len(cut) - 8) // 16)}$"
        for read in (read_trace, read_miss_trace):
            with pytest.raises(TraceFormatError, match=message):
                read(path)


def test_miss_trace_roundtrip(tmp_path):
    rng = random.Random(2)
    for trial, n in enumerate((0, 1, 50, 333)):
        pairs = random_pairs(rng, n)
        if n:
            pairs[0] = (MASK64, MASK64)
        misses = MissStream.from_pairs(pairs, line_size=64)
        path = tmp_path / f"miss{trial}.bin"
        write_miss_trace(misses, path)
        assert path.read_bytes() == reference_bytes(pairs.tolist())
        loaded = read_miss_trace(path, line_size=64)
        assert len(loaded) == n
        for column in ("pc", "addr", "line"):
            assert getattr(loaded, column).dtype == np.uint64
            assert np.array_equal(getattr(loaded, column), getattr(misses, column))
        assert loaded.line.tolist() == [addr >> 6 for _, addr in pairs.tolist()]


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------


def test_stride_ground_truth():
    spec = StrideSpec(length=100, stride=192, start=0x8000, pc=0x77)
    trace = generate_synthetic(spec)
    assert trace.shape == (100, 2) and trace.dtype == np.uint64
    for i, (pc, addr) in enumerate(trace.tolist()):
        assert pc == 0x77
        assert addr == 0x8000 + i * 192


def test_multi_stride_ground_truth():
    spec = MultiStrideSpec(length=60, strides=(64, 128, 256))
    trace = generate_synthetic(spec)
    # per-stream addresses are strided by the stream's own stride
    for j in range(3):
        stream = trace[trace[:, 0] == 0x400000 + 4 * j, 1].tolist()
        assert len(stream) == 20
        diffs = {b - a for a, b in zip(stream, stream[1:])}
        assert diffs == {spec.strides[j]}


def test_pc_correlated_cycles_ground_truth():
    cycles = ((64, 128, 192), (256, 320))
    spec = PcCorrelatedSpec(length=200, cycles=cycles, run_length=5)
    trace = generate_synthetic(spec)
    # replay the documented dynamics independently
    addr = spec.start
    cursor = [0, 0]
    run = 0
    step = 0
    for pc, rec_addr in trace.tolist():
        p = run % 2
        assert pc == 0x400000 + 4 * p
        assert rec_addr == addr
        addr += cycles[p][cursor[p]]
        cursor[p] = (cursor[p] + 1) % len(cycles[p])
        step += 1
        if step % 5 == 0:
            run += 1


def test_pc_correlated_table_is_pair_deterministic():
    # next delta must be a function of (pc, previous delta)
    table = tuple(64 * (j + 1) for j in range(50))
    spec = PcCorrelatedSpec(
        length=5000, table=table, shifts=(1, 7, 13), selection="random", seed=3
    )
    pcs, addrs = generate_synthetic(spec).T.tolist()
    deltas = [b - a for a, b in zip(addrs, addrs[1:])]
    seen = {}
    for t in range(1, len(deltas)):
        key = (pcs[t], deltas[t - 1])
        if key in seen:
            assert seen[key] == deltas[t]
        seen[key] = deltas[t]
    assert all(d in table for d in deltas)


def test_pc_correlated_validation():
    with pytest.raises(ConfigError):
        generate_synthetic(PcCorrelatedSpec(length=10))  # neither mode
    with pytest.raises(ConfigError):
        generate_synthetic(
            PcCorrelatedSpec(length=10, cycles=((1,),), table=(1, 2), shifts=(1,))
        )
    with pytest.raises(ConfigError):
        generate_synthetic(PcCorrelatedSpec(length=10, table=(64, 64), shifts=(1,)))
    with pytest.raises(ConfigError):
        generate_synthetic(PcCorrelatedSpec(length=10, table=(64, 128), shifts=None))
    with pytest.raises(ConfigError):
        generate_synthetic(PcCorrelatedSpec(length=10, cycles=((64,), ())))


def test_region_hopping_structure():
    spec = RegionHoppingSpec(
        length=900,
        deltas=((64, 128), (192, 256), (320, 384)),
        run_length=30,
        seed=11,
    )
    trace = generate_synthetic(spec).tolist()
    bases = tuple(spec.base_spacing * (i + 1) for i in range(3))
    for start in range(0, 900, 30):
        run = trace[start : start + 30]
        r = (start // 30) % 3
        assert all(pc == 0x400000 + 4 * r for pc, _ in run)
        for _, addr in run:
            assert bases[r] <= addr < bases[r] + spec.base_spacing // 2
        for (_, a), (_, b) in zip(run, run[1:]):
            assert b - a in spec.deltas[r]


def test_region_hopping_pointers_persist_across_visits():
    spec = RegionHoppingSpec(length=300, run_length=10, seed=2)
    trace = generate_synthetic(spec)
    for r in range(3):
        addrs = trace[trace[:, 0] == 0x400000 + 4 * r, 1].tolist()
        assert addrs == sorted(addrs)
        assert len(set(addrs)) == len(addrs)


def test_region_hopping_drift_guard():
    with pytest.raises(ConfigError):
        generate_synthetic(
            RegionHoppingSpec(length=100, deltas=((1, 2), (3, 4)), bases=(0, 64))
        )


def test_linked_list_period_and_coverage():
    spec = LinkedListSpec(length=3 * 64, nodes=64, node_size=128, base=0x1000, seed=5)
    trace = generate_synthetic(spec)
    first = trace[:64, 1].tolist()
    assert sorted(first) == [0x1000 + i * 128 for i in range(64)]
    assert trace[64:128, 1].tolist() == first
    assert trace[128:, 1].tolist() == first
    # a different seed gives a different permutation
    other = generate_synthetic(LinkedListSpec(length=64, nodes=64, node_size=128, base=0x1000, seed=6))
    assert other[:, 1].tolist() != first


def test_generators_deterministic():
    specs = [
        StrideSpec(length=64),
        MultiStrideSpec(length=64),
        PcCorrelatedSpec(length=64, cycles=((64, 128), (192,)), selection="random", seed=4),
        RegionHoppingSpec(length=64, seed=4, selection="random"),
        LinkedListSpec(length=64, seed=4),
    ]
    for spec in specs:
        assert np.array_equal(generate_synthetic(spec), generate_synthetic(spec))


def test_negative_length_rejected():
    with pytest.raises(ConfigError):
        generate_synthetic(StrideSpec(length=-1))


# ---------------------------------------------------------------------------
# Columnar generators against per-record oracles
# ---------------------------------------------------------------------------


def oracle_schedule(n_choices, length, run_length, selection, seed):
    rng = random.Random(seed)
    step = run = 0
    while step < length:
        choice = run % n_choices if selection == "round_robin" else rng.randrange(n_choices)
        for _ in range(min(run_length, length - step)):
            yield choice
            step += 1
        run += 1


def default_pcs(spec, n):
    return spec.pcs if spec.pcs is not None else tuple(0x400000 + 4 * i for i in range(n))


def oracle_records(spec):
    """The trace of `spec` built one (pc, addr) tuple at a time, with
    Python ints masked to 64 bits: the generators' reference semantics."""
    out = []
    if isinstance(spec, StrideSpec):
        out = [(spec.pc, (spec.start + i * spec.stride) & MASK64) for i in range(spec.length)]
    elif isinstance(spec, MultiStrideSpec):
        n = len(spec.strides)
        pos = list(spec.starts if spec.starts is not None else [i << 40 for i in range(n)])
        pcs = default_pcs(spec, n)
        for i in range(spec.length):
            out.append((pcs[i % n], pos[i % n] & MASK64))
            pos[i % n] += spec.strides[i % n]
    elif isinstance(spec, PcCorrelatedSpec):
        n = len(spec.cycles) if spec.cycles is not None else len(spec.shifts)
        pcs, addr, cursor, j = default_pcs(spec, n), spec.start, [0] * n, 0
        for p in oracle_schedule(n, spec.length, spec.run_length, spec.selection, spec.seed):
            out.append((pcs[p], addr & MASK64))
            if spec.cycles is not None:
                addr += spec.cycles[p][cursor[p]]
                cursor[p] = (cursor[p] + 1) % len(spec.cycles[p])
            else:
                j = (j + spec.shifts[p]) % len(spec.table)
                addr += spec.table[j]
    elif isinstance(spec, RegionHoppingSpec):
        n = len(spec.deltas)
        pcs = default_pcs(spec, n)
        pos = list(spec.bases if spec.bases is not None
                   else [spec.base_spacing * (i + 1) for i in range(n)])
        rng = random.Random(spec.seed ^ 0x5EED)
        for r in oracle_schedule(n, spec.length, spec.run_length, spec.selection, spec.seed):
            out.append((pcs[r], pos[r] & MASK64))
            pos[r] += rng.choice(spec.deltas[r])
    else:
        order = list(range(spec.nodes))
        random.Random(spec.seed).shuffle(order)
        out = [(spec.pc, (spec.base + order[i % spec.nodes] * spec.node_size) & MASK64)
               for i in range(spec.length)]
    return out


TOP = 1 << 63
ORACLE_SPECS = {
    "stride_negative": StrideSpec(length=301, stride=-192, start=-5, pc=3),
    "stride_high": StrideSpec(length=97, stride=TOP + 64, start=MASK64 - 7, pc=MASK64),
    "multi_stride_negative_high": MultiStrideSpec(
        length=301, strides=(64, -128, TOP), starts=(-1, 5, TOP + 3), pcs=(1, MASK64, TOP)),
    "cycles_random_runs": PcCorrelatedSpec(
        length=777, cycles=((64, -128, 192), (TOP, 5)), run_length=7, selection="random",
        seed=3, start=-100),
    "table_random_runs": PcCorrelatedSpec(
        length=5003, table=(64, -64, TOP, 7), shifts=(-1, 5, 1 << 70), run_length=3,
        selection="random", seed=9, start=MASK64 - 2),
    "table_round_robin": PcCorrelatedSpec(
        length=2000, table=tuple(64 * (j + 1) for j in range(100)), shifts=(1, 17, 53)),
    "regions_round_robin": RegionHoppingSpec(length=3000, run_length=32, seed=5),
    "regions_random_high": RegionHoppingSpec(
        length=1001, run_length=7, selection="random", seed=7,
        bases=(-(1 << 50), TOP, MASK64 - (1 << 45)), deltas=((-64, 8), (128,), (1, 2, 3)),
        pcs=(TOP, 0, MASK64)),
    "linked_list_negative": LinkedListSpec(length=3000, nodes=100, node_size=-64, base=-5,
                                           seed=4),
    "linked_list_high": LinkedListSpec(length=200, nodes=3, node_size=TOP, base=TOP, pc=0),
}
for _length in (0, 1):
    ORACLE_SPECS.update({
        f"stride_{_length}": StrideSpec(length=_length),
        f"multi_stride_{_length}": MultiStrideSpec(length=_length),
        f"cycles_{_length}": PcCorrelatedSpec(length=_length, cycles=((64,),)),
        f"table_{_length}": PcCorrelatedSpec(length=_length, table=(64,), shifts=(1,)),
        f"regions_{_length}": RegionHoppingSpec(length=_length, selection="random"),
        f"linked_list_{_length}": LinkedListSpec(length=_length),
    })


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_generators_match_record_oracle(name):
    spec = ORACLE_SPECS[name]
    pairs = generate_synthetic(spec)
    assert pairs.dtype == np.uint64 and pairs.shape == (spec.length, 2)
    expected = np.array(oracle_records(spec), dtype=np.uint64).reshape(-1, 2)
    assert np.array_equal(pairs, expected)


def test_region_trace_memory_per_access():
    # 30k accesses as uint64 columns take 16 B each; per-access Python
    # objects would take ~100
    spec = RegionHoppingSpec(length=30_000, run_length=32, seed=1)
    tracemalloc.start()
    try:
        pairs = generate_synthetic(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 30_000
    assert peak <= 64 * 30_000, peak / 30_000
