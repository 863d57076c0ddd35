"""Run one ``ostflow.cli`` command with its layers traced.

    python3 perfbench/cli_shim.py TRACE_JSON <ostflow cli arguments...>

Behaves like ``python -m ostflow.cli`` (same arguments, same exit code)
and writes the tracer's sums to TRACE_JSON when the command returns.
The package must be importable, as ``perfbench/run.py`` arranges with
``PYTHONPATH``.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer

import ostflow.cli


def main() -> int:
    trace_path = Path(sys.argv[1])
    tracer = Tracer()
    with tracer.active():
        code = ostflow.cli.main(sys.argv[2:])
    trace_path.write_text(json.dumps(tracer.raw()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
