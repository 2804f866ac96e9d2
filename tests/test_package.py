"""Properties of the package as a whole: what importing one module loads,
and which statements its source may hold."""

import ast
import os
import pathlib
import subprocess
import sys

import prefetchlab

PACKAGE = pathlib.Path(prefetchlab.__file__).parent


def test_importing_trace_loads_no_model_code():
    """The package root re-exports nothing, so importing one module loads
    only what that module imports; a fresh interpreter shows which."""
    script = (
        "import sys\n"
        "import prefetchlab.trace\n"
        "print(sorted(m for m in ('prefetchlab.models', 'prefetchlab.lstm',\n"
        "    'prefetchlab.baselines', 'prefetchlab.cli') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_no_assert_statements_in_package():
    """`python -O` strips asserts, so invariants must raise real exceptions."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
