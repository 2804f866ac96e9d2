"""Benchmark of the staged prefetchlab CLI.

    python3 bench/run.py --workload pc_table_1k --seed 3 --seconds 55 --trace 0

Run it from the root of a checkout: it imports prefetchlab from `src/` and
works in `.bench/` there. It runs the workload's stages (`simulate ->
vocab|cluster -> train -> eval -> report`) one process at a time, exactly as
a user would, with the BLAS thread count pinned. It repeats the whole
pipeline until `--seconds` are used up, checks every repetition's outputs
against `reference.json`, and reports medians.

With `--trace 0` it prints the end-to-end metrics. With `--trace 1` it also
runs the pipeline once with the tracer of `tracer.py` installed in every
stage process and prints the per-layer metrics of `layers.py` instead. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
where `attempted` counts stage processes and `failed` those that exited
non-zero or whose outputs failed the check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import artifacts
import layers
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(BENCH_DIR, "reference.json")
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS) for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUPS_PER_PASS = 2
# what the installed `prefetchlab` console script runs
CLI_ENTRY = "import sys; from prefetchlab.cli import main; sys.exit(main())"
HARD_LIMIT_S = 170.0  # every stage process is killed once a run is this old

E2E_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}

# Runs in a fresh interpreter during set-up: imports the CLI the way a stage
# does and reports the versions and the BLAS thread count it sees.
PROBE = r"""
import ctypes, json, platform
import numpy
import prefetchlab.cli
info = {
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas_build": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
    "prefetchlab": prefetchlab.cli.__file__,
    "blas_library": None, "blas_config": None, "blas_threads": None,
}
with open("/proc/self/maps") as maps:
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
for path in libs[:1]:
    lib = ctypes.CDLL(path)
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get_threads = getattr(lib, prefix + "_get_num_threads" + suffix, None)
        if get_threads is not None:
            get_threads.restype = ctypes.c_int
            get_config = getattr(lib, prefix + "_get_config" + suffix)
            get_config.restype = ctypes.c_char_p
            info.update(blas_library=path, blas_threads=get_threads(),
                        blas_config=get_config().decode())
            break
print(json.dumps(info))
"""


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


@dataclass
class Pipeline:
    """One pass over a workload's stages."""

    walls: dict = field(default_factory=dict)  # stage -> seconds
    rss: dict = field(default_factory=dict)  # stage -> peak RSS, MB
    codes: dict = field(default_factory=dict)  # stage -> exit code
    spans: dict = field(default_factory=dict)  # stage -> spans, traced runs only
    wall: float = 0.0

    def ran(self, stages) -> bool:
        return all(self.codes.get(stage) == 0 for stage in stages)


@dataclass
class Context:
    root: str
    work: str
    config: str
    stages: tuple
    env: dict
    deadline: float

    @property
    def out(self) -> str:
        return os.path.join(self.work, "out")


def stage_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.update(BLAS_ENV)
    return env


def run_stage(argv: list, env: dict, log_path: str, deadline: float) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS MB) of one stage process."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def run_pipeline(ctx: Context, label: str, run_id: str | None = None) -> Pipeline:
    """Run every stage into `ctx.out`, which `set_up` made fresh; stop at
    the first failure. With a `run_id` each stage runs under the tracer."""
    result = Pipeline()
    start = time.perf_counter()
    for stage in ctx.stages:
        cli_args = [stage, "--config", ctx.config, "--out", ctx.out]
        spans_path = os.path.join(ctx.work, f"spans-{stage}.json")
        if run_id is None:
            argv = [sys.executable, "-c", CLI_ENTRY, *cli_args]
        else:
            script = os.path.join(BENCH_DIR, "traced_stage.py")
            argv = [sys.executable, script, spans_path, run_id, *cli_args]
        log_path = os.path.join(ctx.work, f"{label}-{stage}.log")
        code, wall, rss = run_stage(argv, ctx.env, log_path, ctx.deadline)
        result.codes[stage], result.walls[stage], result.rss[stage] = code, wall, rss
        if code != 0:
            break
        if run_id is not None:
            result.spans[stage] = artifacts.read_json(spans_path)["spans"]
    result.wall = time.perf_counter() - start
    return result


def set_up(ctx: Context, cfg: dict) -> tuple[float, dict]:
    """Write the config, make a fresh output directory and import
    prefetchlab once in a fresh interpreter. Returns (seconds, what the
    import saw); refuses to go on unless the BLAS thread count is pinned."""
    start = time.perf_counter()
    with open(ctx.config, "w") as f:
        json.dump(cfg, f, indent=1)  # JSON is YAML
    shutil.rmtree(ctx.out, ignore_errors=True)
    os.makedirs(ctx.out)
    probe = subprocess.run([sys.executable, "-c", PROBE], env=ctx.env, capture_output=True,
                           text=True, timeout=max(ctx.deadline - start, 1.0))
    seconds = time.perf_counter() - start
    if probe.returncode != 0:
        raise BenchError(f"cannot import prefetchlab from {ctx.root}/src:\n{probe.stderr}")
    machine = json.loads(probe.stdout)
    check_machine(machine, os.path.join(ctx.root, "src"))
    return seconds, machine


def check_machine(machine: dict, src: str) -> None:
    if not os.path.realpath(machine["prefetchlab"]).startswith(os.path.realpath(src) + os.sep):
        raise BenchError(f"prefetchlab was imported from {machine['prefetchlab']}, not {src}")
    if machine["blas_threads"] != BLAS_THREADS:
        raise BenchError(
            f"BLAS thread count is {machine['blas_threads']}; refusing to measure "
            f"unless it is pinned to {BLAS_THREADS}"
        )


def describe_host() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "blas_pin": BLAS_ENV}


def end_to_end(setups: list, runs: list) -> dict:
    """Medians over the passes of one run."""
    return {
        "setup_s": statistics.median(setups),
        "pipeline_s": statistics.median(r.wall for r in runs),
        "train_s": statistics.median(r.walls["train"] for r in runs),
        "eval_s": statistics.median(r.walls["eval"] for r in runs),
        "peak_rss_mb": statistics.median(max(r.rss.values()) for r in runs),
    }


def load_reference(workload: str, seed: int) -> dict:
    with open(REFERENCE_FILE) as f:
        table = json.load(f)
    variant = str(workloads.variant_of(seed))
    try:
        return table[workload][variant]
    except KeyError:
        raise BenchError(f"{REFERENCE_FILE} has no reference for {workload} variant {variant}")


def run(root: str, workload: str, seed: int, seconds: float, trace: bool,
        reference: dict) -> tuple[dict, dict]:
    """Measure one workload. Returns (result, details)."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "prefetchlab", "cli.py")):
        raise BenchError(f"no prefetchlab sources in {src}; run from the root of a checkout")
    cfg, stages = workloads.workload(workload, seed)
    work = os.path.join(root, ".bench", f"{workload}-seed{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Context(root, work, os.path.join(work, "config.yaml"), stages, stage_env(src),
                  time.perf_counter() + HARD_LIMIT_S)

    setups, machine = [], {}
    attempted, failures, first = 0, [], None

    def measure(label: str, run_id: str | None = None) -> Pipeline:
        # Set-ups are spread over the run, so that their median does not
        # hang on one stretch of a busy machine.
        nonlocal attempted, first, machine
        for _ in range(SETUPS_PER_PASS):
            took, machine = set_up(ctx, cfg)
            setups.append(took)
        p = run_pipeline(ctx, label, run_id)
        attempted += len(p.codes)
        failures.extend((label, stage, f"exit code {code}")
                        for stage, code in p.codes.items() if code != 0)
        if p.ran(stages):
            found, bad = artifacts.check_outputs(ctx.out, stages, reference, first)
            first = first or found
            failures.extend((label, stage, reason) for stage, reason in bad)
        return p

    measure_end = time.perf_counter() + seconds
    runs = []
    while True:
        runs.append(measure(f"run{len(runs)}"))
        # leave room for one more untraced pass, and for the traced one
        one_pass = max(r.wall for r in runs) + SETUPS_PER_PASS * max(setups)
        need = one_pass * (2 if trace else 1)
        if not runs[-1].ran(stages) or time.perf_counter() + need > measure_end:
            break
    complete = [r for r in runs if r.ran(stages)]

    metrics, units = {}, E2E_UNITS
    if trace and complete:
        traced = measure("traced", f"{workload}-seed{seed}")
        if traced.ran(stages):
            facts = artifacts.facts(ctx.out, cfg)
            summary = artifacts.read_json(os.path.join(ctx.out, "metrics.json"))["metrics"]
            overhead = traced.wall - statistics.median(r.wall for r in complete)
            metrics = layers.layer_metrics(traced.walls, traced.rss, traced.spans, facts,
                                           summary, overhead)
        units = layers.UNITS
    elif complete:
        metrics = end_to_end(setups, complete)
    shutil.rmtree(ctx.out, ignore_errors=True)
    machine.update(describe_host())

    failed = len({(label, stage) for label, stage, _ in failures})
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "variant": workloads.variant_of(seed),
        "config": cfg,
        "machine": machine,
        "setups_s": setups,
        "runs": [vars(r) | {"spans": None} for r in runs],
        "failures": failures,
        "result": result,
    }
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump(details, f, indent=1)
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        reference = load_reference(args.workload, args.seed)
        result, details = run(os.getcwd(), args.workload, args.seed, args.seconds,
                              bool(args.trace), reference)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("machine:", json.dumps(details["machine"], sort_keys=True))
    for label, stage, reason in details["failures"]:
        print(f"FAILED {label} {stage}: {reason}")
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
