"""``repro serve`` with the layer tracer installed, for traced live runs.

Usage: ``python3 perfbench/serve_traced.py LEDGER.json serve --config ...``
with ``src`` on ``PYTHONPATH``.  Installs the same wrappers as the batch
worker, runs the ``repro`` CLI entry point with the remaining arguments, and
once the server has shut down (SIGTERM) writes the layer aggregates to
``LEDGER.json``.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv) -> int:
    ledger_path, cli_args = argv[1], argv[2:]
    tracer = Tracer().install()
    from repro.cli import main as repro_main

    try:
        code = repro_main(cli_args)
    finally:
        tracer.uninstall()
        ledger = {
            "layers": tracer.report(),
            "missing": tracer.missing,
            "unresolved_paths": tracer.unresolved_paths,
        }
        with open(ledger_path, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
