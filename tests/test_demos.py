"""The demos run end to end against the current package.

Each demo runs in its own interpreter with BLAS pinned to one thread.
`04_embedding_lstm.py` trains for ~2 minutes, so it is only compiled.
"""

import os
import pathlib
import py_compile
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@pytest.mark.parametrize(
    "name",
    ["01_traces_and_cache", "02_delta_vocabulary", "03_table_prefetchers",
     "05_clustering_lstm", "06_cli_pipeline"],
)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout


def test_training_demo_compiles(tmp_path):
    py_compile.compile(str(DEMOS / "04_embedding_lstm.py"), cfile=str(tmp_path / "demo.pyc"),
                       doraise=True)
