"""Run ``rip serve`` with the layer wrappers installed in the daemon process.

Usage::

    PYTHONPATH=src python3 perfbench/traced_daemon.py SPANS.jsonl serve --port 0

Everything after the span file is handed to the ``rip`` command line
unchanged.  The spans are written to ``SPANS.jsonl`` when the daemon exits
(SIGTERM stops it cleanly).
"""

from __future__ import annotations

import atexit
import sys
from pathlib import Path

from tracing import Tracer, install_program_wrappers


def main() -> int:
    spans_path = Path(sys.argv[1])
    tracer = Tracer()
    install_program_wrappers(tracer, service=True)
    atexit.register(tracer.dump, spans_path)
    from repro.cli.main import main as rip

    return rip(sys.argv[2:])


if __name__ == "__main__":
    raise SystemExit(main())
