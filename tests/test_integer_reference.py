"""The integer stages reproduce the benchmark's recorded artifacts.

For every input variant of every workload in `bench/workloads.py`, the
`simulate` stage and the `vocab` or `cluster` stage run in-process, and the
sha256 of each integer-path artifact (trace, misses, simulation stats,
vocabulary, clusters) must equal the one in `bench/reference.json`. Only
`bench/` files are read; nothing there is written.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest
import yaml

from prefetchlab.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
INTEGER_STAGES = ("simulate", "vocab", "cluster")


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_integer_artifacts_match_reference(name, tmp_path):
    assert set(REFERENCE[name]) == {str(v) for v in range(WORKLOADS.N_VARIANTS)}
    for variant in range(WORKLOADS.N_VARIANTS):
        cfg, stages = WORKLOADS.workload(name, variant)
        out = tmp_path / str(variant)
        config = tmp_path / f"{variant}.yaml"
        config.write_text(yaml.safe_dump(cfg))
        for stage in stages:
            if stage in INTEGER_STAGES:
                assert main([stage, "--config", str(config), "--out", str(out)]) == 0
        want = REFERENCE[name][str(variant)]["sha256"]
        got = {artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
               for artifact in want}
        assert got == want, (name, variant)
