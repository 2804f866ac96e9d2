import random
import struct

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
    TraceRecord,
    generate_synthetic,
    read_miss_trace,
    read_trace,
    signed_delta,
    write_miss_trace,
    write_trace,
)

MASK64 = (1 << 64) - 1


def random_records(rng, n):
    return [TraceRecord(rng.randrange(1 << 64), rng.randrange(1 << 64)) for _ in range(n)]


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
        records = random_records(rng, rng.randrange(0, 200))
        if trial == 1:
            records = [TraceRecord(MASK64, 0), TraceRecord(0, MASK64), TraceRecord(1 << 63, 1)]
        path = tmp_path / f"t{trial}.bin"
        write_trace(records, path)
        assert path.read_bytes() == reference_bytes(records)
        assert read_trace(path) == records


def test_trace_roundtrip_large_binary(tmp_path):
    rng = random.Random(1)
    records = random_records(rng, 10_000)
    path = tmp_path / "big.bin"
    write_trace(records, path)
    assert read_trace(path) == records


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTATRCE" + b"\x00" * 32)
    with pytest.raises(TraceFormatError):
        read_trace(path)
    with pytest.raises(TraceFormatError, match="bad magic"):
        read_miss_trace(path)


def test_binary_truncated_record(tmp_path):
    records = [TraceRecord(1, 2), TraceRecord(3, 4)]
    path = tmp_path / "trunc.bin"
    write_trace(records, path)
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
        pairs = np.array(random_records(rng, n), dtype=np.uint64).reshape(-1, 2)
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
    assert len(trace) == 100
    for i, rec in enumerate(trace):
        assert rec.pc == 0x77
        assert rec.addr == 0x8000 + i * 192


def test_multi_stride_ground_truth():
    spec = MultiStrideSpec(length=60, strides=(64, 128, 256))
    trace = generate_synthetic(spec)
    # per-stream addresses are strided by the stream's own stride
    for j in range(3):
        stream = [r.addr for r in trace if r.pc == 0x400000 + 4 * j]
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
    for rec in trace:
        p = run % 2
        assert rec.pc == 0x400000 + 4 * p
        assert rec.addr == addr
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
    trace = generate_synthetic(spec)
    deltas = [b.addr - a.addr for a, b in zip(trace, trace[1:])]
    seen = {}
    for t in range(1, len(deltas)):
        key = (trace[t].pc, deltas[t - 1])
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
    trace = generate_synthetic(spec)
    bases = tuple(spec.base_spacing * (i + 1) for i in range(3))
    for start in range(0, 900, 30):
        run = trace[start : start + 30]
        r = (start // 30) % 3
        assert all(rec.pc == 0x400000 + 4 * r for rec in run)
        for rec in run:
            assert bases[r] <= rec.addr < bases[r] + spec.base_spacing // 2
        for a, b in zip(run, run[1:]):
            assert b.addr - a.addr in spec.deltas[r]


def test_region_hopping_pointers_persist_across_visits():
    spec = RegionHoppingSpec(length=300, run_length=10, seed=2)
    trace = generate_synthetic(spec)
    for r in range(3):
        addrs = [rec.addr for rec in trace if rec.pc == 0x400000 + 4 * r]
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
    first = [r.addr for r in trace[:64]]
    assert sorted(first) == [0x1000 + i * 128 for i in range(64)]
    assert [r.addr for r in trace[64:128]] == first
    assert [r.addr for r in trace[128:]] == first
    # a different seed gives a different permutation
    other = generate_synthetic(LinkedListSpec(length=64, nodes=64, node_size=128, base=0x1000, seed=6))
    assert [r.addr for r in other] != first


def test_generators_deterministic():
    specs = [
        StrideSpec(length=64),
        MultiStrideSpec(length=64),
        PcCorrelatedSpec(length=64, cycles=((64, 128), (192,)), selection="random", seed=4),
        RegionHoppingSpec(length=64, seed=4, selection="random"),
        LinkedListSpec(length=64, seed=4),
    ]
    for spec in specs:
        assert generate_synthetic(spec) == generate_synthetic(spec)


def test_negative_length_rejected():
    with pytest.raises(ConfigError):
        generate_synthetic(StrideSpec(length=-1))
