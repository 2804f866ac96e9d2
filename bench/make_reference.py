"""Record the reference outputs the benchmark checks every run against.

    python3 bench/make_reference.py [WORKLOAD ...]

Run from the root of a checkout whose outputs are known to be right. For
each named workload (default: all) and each input variant it runs the
pipeline once and stores, in `reference.json`, the sha256 of the integer-path
artifacts and the metrics of the model and both baselines. Entries of other
workloads are kept.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import artifacts
import run
import workloads


def record(root: str, workload: str, variant: int) -> dict:
    cfg, stages = workloads.workload(workload, variant)
    work = os.path.join(root, ".bench", f"reference-{workload}-{variant}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = run.Context(root, work, os.path.join(work, "config.yaml"), stages,
                      run.stage_env(os.path.join(root, "src")), time.perf_counter() + 600)
    run.set_up(ctx, cfg)
    pipeline = run.run_pipeline(ctx, "reference")
    if not pipeline.ran(stages):
        raise run.BenchError(f"{workload} variant {variant} failed: {pipeline.codes}")
    entry = artifacts.reference_entry(ctx.out, stages)
    shutil.rmtree(work)
    return entry


def main(argv: list[str]) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    table = {}
    if os.path.exists(run.REFERENCE_FILE):
        table = artifacts.read_json(run.REFERENCE_FILE)
    for name in names:
        table[name] = {
            str(v): record(os.getcwd(), name, v) for v in range(workloads.N_VARIANTS)
        }
        print(f"{name}: {workloads.N_VARIANTS} variants recorded")
    with open(run.REFERENCE_FILE, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
