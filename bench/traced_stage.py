"""Run one prefetchlab CLI stage with the bench tracer installed.

    python3 bench/traced_stage.py SPANS_JSON RUN_ID STAGE --config CFG --out DIR

Everything after RUN_ID is passed to `prefetchlab.cli.main` unchanged. The
spans of the stage are written to SPANS_JSON when it ends; the exit code is
the stage's own.
"""

from __future__ import annotations

import sys

from prefetchlab import cli
from tracer import Recorder, installed


def main(argv: list[str]) -> int:
    spans_path, run_id, *cli_argv = argv
    recorder = Recorder(run_id)
    with installed(recorder):
        code = cli.main(cli_argv)
    recorder.dump(spans_path, cli_argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
