"""The benchmark's tracer patches program functions by name; every name must
still resolve, or each traced benchmark run crashes.

`bench/test_bench.py` runs outside the default test paths, so this check
keeps a rename in the program from passing the tests unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_tracer_patch_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PATCHES
    for module_name, class_name, attr, _ in tracer.PATCHES:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = owner.__dict__[class_name]
        assert callable(owner.__dict__[attr]), (module_name, class_name, attr)
    assert importlib.import_module("prefetchlab.cli")._STAGES
