"""Properties of the package as a whole: what importing one module loads,
and which statements its source may hold."""

import ast
import os
import pathlib
import subprocess
import sys

import prefetchlab

PACKAGE = pathlib.Path(prefetchlab.__file__).parent


def loaded_after_import(module, names):
    """Which of `names` a fresh interpreter holds after importing `module`."""
    script = (
        "import sys\n"
        f"import {module}\n"
        f"print(sorted(m for m in {tuple(names)!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.strip()


def test_importing_trace_loads_no_model_code():
    """The package root re-exports nothing, so importing one module loads
    only what that module imports; a fresh interpreter shows which."""
    names = ("prefetchlab.models", "prefetchlab.lstm", "prefetchlab.baselines", "prefetchlab.cli")
    assert loaded_after_import("prefetchlab.trace", names) == "[]"


def test_importing_cli_loads_no_model_code():
    """Every stage process imports the CLI; the model, baseline and
    clustering code is imported only by the stages that run it."""
    names = ("prefetchlab.models", "prefetchlab.lstm", "prefetchlab.baselines",
             "prefetchlab.clustering")
    assert loaded_after_import("prefetchlab.cli", names) == "[]"


def test_importing_cli_loads_no_fractions():
    """`fractions` and `decimal` (~4 ms) are imported when a stage first
    splits a stream, not with the CLI."""
    assert loaded_after_import("prefetchlab.cli", ("decimal", "fractions")) == "[]"


def test_no_assert_statements_in_package():
    """`python -O` strips asserts, so invariants must raise real exceptions."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
