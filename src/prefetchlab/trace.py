"""Memory access traces, miss streams and synthetic trace generators.

A trace is an (n, 2) uint64 array of (pc, addr) rows, one per access in
program order; a miss stream is the same data as columns, one row per
miss.

File format
-----------
8-byte magic ``PFTRACE1`` followed by fixed-width 16-byte records, each a
little-endian (pc: u64, addr: u64) pair. Seekable, no padding. Miss
streams use the same layout with one record per miss; the miss index is
the timestep, and the line address is recomputed on load.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TraceFormatError

TRACE_MAGIC = b"PFTRACE1"
_RECORD_BYTES = 16
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class MissStream:
    """A cache-miss stream as equal-length uint64 columns.

    Miss i happened at timestep i; `line` is `addr` at cache-line
    granularity.
    """

    pc: np.ndarray
    addr: np.ndarray
    line: np.ndarray

    def __len__(self) -> int:
        return len(self.pc)

    @classmethod
    def from_pairs(cls, pairs: np.ndarray, line_size: int) -> MissStream:
        """Stream of the (n, 2) (pc, addr) rows of `pairs`."""
        pc, addr = np.ascontiguousarray(pairs.T, dtype=np.uint64)
        return cls(pc, addr, addr >> np.uint64(_line_shift(line_size)))


# ---------------------------------------------------------------------------
# Reading / writing
# ---------------------------------------------------------------------------


def write_trace(pairs: np.ndarray, path) -> None:
    """Write the (n, 2) (pc, addr) rows of `pairs` after the magic."""
    with open(path, "wb") as f:
        f.write(TRACE_MAGIC)
        pairs.astype("<u8", copy=False).tofile(f)


def read_trace(path) -> np.ndarray:
    """The (n, 2) uint64 records of a file written by `write_trace`."""
    with open(path, "rb") as f:
        magic = f.read(len(TRACE_MAGIC))
        if magic != TRACE_MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}, expected {TRACE_MAGIC!r}")
        size = os.fstat(f.fileno()).st_size - len(TRACE_MAGIC)
        if size % _RECORD_BYTES:
            raise TraceFormatError(
                f"{path}: truncated record at byte offset "
                f"{len(TRACE_MAGIC) + size - size % _RECORD_BYTES}"
            )
        return np.fromfile(f, dtype="<u8").reshape(-1, 2)


def write_miss_trace(misses: MissStream, path) -> None:
    write_trace(np.column_stack((misses.pc, misses.addr)), path)


def read_miss_trace(path, line_size: int = 64) -> MissStream:
    """Load a miss stream written by `write_miss_trace`; `line_size` must
    match the simulation that produced the file."""
    return MissStream.from_pairs(read_trace(path), line_size)


def _line_shift(line_size: int) -> int:
    if line_size <= 0 or line_size & (line_size - 1):
        raise ConfigError(f"line_size must be a power of two, got {line_size}")
    return line_size.bit_length() - 1


# ---------------------------------------------------------------------------
# Synthetic trace specs
# ---------------------------------------------------------------------------
#
# Every generator is a pure function of its spec (the seed is a spec field),
# and each spec's docstring states the exact delta structure it produces so
# tests can check generated traces against ground truth.


@dataclass(frozen=True)
class StrideSpec:
    """Single strided stream: addr_i = start + i*stride, one PC.

    Produces a constant byte delta of `stride` at every step.
    """

    length: int
    stride: int = 64
    start: int = 0
    pc: int = 0x400000
    seed: int = 0


@dataclass(frozen=True)
class MultiStrideSpec:
    """Round-robin interleaving of independent strided streams.

    Stream j advances by strides[j] each time it is scheduled; accesses
    rotate over streams one at a time. Within stream j the (per-PC) delta
    is exactly strides[j]; the global delta alternates between streams'
    current positions.
    """

    length: int
    strides: tuple[int, ...] = (64, 128)
    starts: tuple[int, ...] | None = None
    pcs: tuple[int, ...] | None = None
    seed: int = 0


@dataclass(frozen=True)
class PcCorrelatedSpec:
    """Trace whose next byte delta is decided by the PC of the current access.

    A single address pointer is advanced by all PCs. PCs are scheduled in
    runs of `run_length` consecutive accesses (round-robin, or seeded-random
    run order when selection="random").

    Two dynamics are supported, exactly one of which must be configured:

    * cycles: cycles[p] is PC p's private delta cycle; each access by PC p
      advances the pointer by the next element of cycles[p]. The delta
      after an access is therefore a deterministic function of (PC, the
      PC's cycle position).
    * table + shifts: a global index j into `table` evolves as
      j' = (j + shifts[p]) mod len(table) at every access by PC p, and the
      pointer advances by table[j']. Since table values are distinct, the
      next delta is a deterministic function of (PC, previous delta).
    """

    length: int
    cycles: tuple[tuple[int, ...], ...] | None = None
    table: tuple[int, ...] | None = None
    shifts: tuple[int, ...] | None = None
    run_length: int = 1
    selection: str = "round_robin"
    start: int = 0x10000000
    pcs: tuple[int, ...] | None = None
    seed: int = 0


@dataclass(frozen=True)
class RegionHoppingSpec:
    """Several disjoint address regions, each walked with its own delta set.

    The trace visits regions in runs of `run_length` accesses (round-robin
    or seeded-random region order). Each region keeps a private pointer
    that persists across visits; every intra-region step advances it by a
    seeded-uniform draw from deltas[r]. Deltas across a region hop are the
    (irregular) differences between region pointers. Region r's accesses
    all use pcs[r].
    """

    length: int
    deltas: tuple[tuple[int, ...], ...] = ((64, 128), (192, 256), (320, 384))
    bases: tuple[int, ...] | None = None
    run_length: int = 32
    selection: str = "round_robin"
    pcs: tuple[int, ...] | None = None
    seed: int = 0

    base_spacing = 1 << 40


@dataclass(frozen=True)
class LinkedListSpec:
    """Pointer-chase over a fixed random permutation of `nodes` nodes.

    Node i lives at base + i*node_size; the walk repeatedly traverses the
    same seeded permutation, so the byte-delta sequence is irregular but
    periodic with period `nodes`.
    """

    length: int
    nodes: int = 1024
    node_size: int = 64
    base: int = 0x20000000
    pc: int = 0x400000
    seed: int = 0


def generate_synthetic(spec) -> np.ndarray:
    """Generate an (n, 2) uint64 (pc, addr) trace from `spec`, an instance
    of one of the SPEC_KINDS spec classes; bit-identical for identical
    specs. Addresses wrap modulo 2^64. Raises ConfigError for anything
    else or a negative length."""
    gen = next((gen for cls, gen in SPEC_KINDS.values() if isinstance(spec, cls)), None)
    if gen is None:
        raise ConfigError(f"unknown synthetic spec type: {type(spec).__name__}")
    if spec.length < 0:
        raise ConfigError("length must be non-negative")
    return gen(spec)


def _u64(values) -> np.ndarray:
    """uint64 array of Python ints taken modulo 2^64."""
    return np.array([v & _MASK64 for v in values], dtype=np.uint64)


def _pairs(pcs, which: np.ndarray, addr: np.ndarray) -> np.ndarray:
    """(n, 2) rows of (pcs[which[i]], addr[i])."""
    return np.column_stack((np.array(pcs, dtype=np.uint64)[which], addr))


def _gen_stride(spec: StrideSpec) -> np.ndarray:
    addr = np.arange(spec.length, dtype=np.uint64) * _u64([spec.stride]) + _u64([spec.start])
    return _pairs([spec.pc], np.zeros(spec.length, dtype=np.intp), addr)


def _gen_multi_stride(spec: MultiStrideSpec) -> np.ndarray:
    n = len(spec.strides)
    if n == 0:
        raise ConfigError("multi-stride needs at least one stream")
    starts = spec.starts if spec.starts is not None else tuple(i << 40 for i in range(n))
    pcs = spec.pcs if spec.pcs is not None else tuple(0x400000 + 4 * i for i in range(n))
    if len(starts) != n or len(pcs) != n:
        raise ConfigError("strides, starts and pcs must have equal lengths")
    # streams are scheduled one access at a time: access i is stream i % n's
    # (i // n)-th
    i = np.arange(spec.length, dtype=np.uint64)
    j = (i % np.uint64(n)).astype(np.intp)
    addr = _u64(starts)[j] + i // np.uint64(n) * _u64(spec.strides)[j]
    return _pairs(pcs, j, addr)


def _schedule_runs(
    n_choices: int, length: int, run_length: int, selection: str, seed: int
) -> np.ndarray:
    """A choice index per step, in runs of run_length consecutive steps."""
    if run_length < 1:
        raise ConfigError("run_length must be >= 1")
    if selection not in ("round_robin", "random"):
        raise ConfigError(f"unknown selection mode: {selection!r}")
    n_runs = -(-length // run_length)
    if selection == "round_robin":
        runs = np.arange(n_runs) % n_choices
    else:
        rng = random.Random(seed)
        runs = np.array([rng.randrange(n_choices) for _ in range(n_runs)], dtype=np.intp)
    # a run longer than the trace is one run (and keeps the divisor an int64)
    return runs[np.arange(length) // min(run_length, max(length, 1))]


def _gen_pc_correlated(spec: PcCorrelatedSpec) -> np.ndarray:
    if (spec.cycles is None) == (spec.table is None):
        raise ConfigError("configure exactly one of cycles or table+shifts")
    if spec.table is not None:
        if spec.shifts is None:
            raise ConfigError("table mode requires shifts")
        if len(set(spec.table)) != len(spec.table):
            raise ConfigError("table deltas must be distinct")
        n_pcs = len(spec.shifts)
    else:
        n_pcs = len(spec.cycles)
        if any(len(c) == 0 for c in spec.cycles):
            raise ConfigError("every PC needs a non-empty delta cycle")
    if n_pcs == 0:
        raise ConfigError("need at least one PC")
    pcs = spec.pcs if spec.pcs is not None else tuple(0x400000 + 4 * i for i in range(n_pcs))
    if len(pcs) != n_pcs:
        raise ConfigError("pcs length must match the number of configured PCs")

    which = _schedule_runs(n_pcs, spec.length, spec.run_length, spec.selection, spec.seed)
    if spec.table is not None:
        d = len(spec.table)
        steps = _u64(spec.table)[np.cumsum(np.array([s % d for s in spec.shifts])[which]) % d]
        # the address before each step: start plus the steps taken so far
        return _pairs(pcs, which, np.cumsum(steps) - steps + _u64([spec.start]))
    addr = np.empty(spec.length, dtype=np.uint64)
    a = spec.start
    cursor = [0] * n_pcs
    for t, p in enumerate(which.tolist()):
        addr[t] = a & _MASK64
        a += spec.cycles[p][cursor[p]]
        cursor[p] = (cursor[p] + 1) % len(spec.cycles[p])
    return _pairs(pcs, which, addr)


def _gen_region_hopping(spec: RegionHoppingSpec) -> np.ndarray:
    n = len(spec.deltas)
    if n == 0:
        raise ConfigError("need at least one region")
    if any(len(ds) == 0 for ds in spec.deltas):
        raise ConfigError("every region needs a non-empty delta set")
    bases = spec.bases if spec.bases is not None else tuple(
        spec.base_spacing * (i + 1) for i in range(n)
    )
    pcs = spec.pcs if spec.pcs is not None else tuple(0x400000 + 4 * i for i in range(n))
    if len(bases) != n or len(pcs) != n:
        raise ConfigError("deltas, bases and pcs must have equal lengths")
    # Regions must stay disjoint: bound the worst-case pointer drift.
    max_step = max(max(abs(d) for d in ds) for ds in spec.deltas)
    spacing = min(
        abs(a - b) for i, a in enumerate(bases) for b in bases[i + 1 :]
    ) if n > 1 else None
    if spacing is not None and spec.length * max_step >= spacing // 2:
        raise ConfigError(
            "trace could drift across regions: shrink length/deltas or spread bases"
        )

    which = _schedule_runs(n, spec.length, spec.run_length, spec.selection, spec.seed)
    rng = random.Random(spec.seed ^ 0x5EED)
    pos = list(bases)
    addr = np.empty(spec.length, dtype=np.uint64)
    for t, r in enumerate(which.tolist()):
        addr[t] = pos[r] & _MASK64
        pos[r] += rng.choice(spec.deltas[r])
    return _pairs(pcs, which, addr)


def _gen_linked_list(spec: LinkedListSpec) -> np.ndarray:
    if spec.nodes < 1:
        raise ConfigError("need at least one node")
    rng = random.Random(spec.seed)
    order = list(range(spec.nodes))
    rng.shuffle(order)
    nodes = np.resize(np.array(order, dtype=np.uint64), spec.length)
    addr = nodes * _u64([spec.node_size]) + _u64([spec.base])
    return _pairs([spec.pc], np.zeros(spec.length, dtype=np.intp), addr)


# config `trace.kind` -> (spec class, generator)
SPEC_KINDS = {
    "stride": (StrideSpec, _gen_stride),
    "multi_stride": (MultiStrideSpec, _gen_multi_stride),
    "pc_correlated": (PcCorrelatedSpec, _gen_pc_correlated),
    "region_hopping": (RegionHoppingSpec, _gen_region_hopping),
    "linked_list": (LinkedListSpec, _gen_linked_list),
}
