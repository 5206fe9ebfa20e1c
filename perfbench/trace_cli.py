"""Run one `zetacomb` CLI request with spans, then write the spans to a file.

    PYTHONPATH=src python3 perfbench/trace_cli.py SPANS.json coeffs --m 40

Stdout and the exit code are those of `python -m zetacomb coeffs --m 40`.
"""
from __future__ import annotations

import sys

from tracing import Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from zetacomb import cli

    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
