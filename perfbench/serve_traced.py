"""Run ``repro serve`` with span recorders around the layers' callables.

Usage::

    python perfbench/serve_traced.py SPANS_JSON serve --snapshot DIR ...

Everything after the first argument is handed to ``repro.cli.main``
unchanged, so the traced gateway is the same server the untraced runs
start with ``python -m repro.cli``. The spans are written to SPANS_JSON
when the gateway exits (SIGTERM).
"""

from __future__ import annotations

import sys

from spans import SERVER_TARGETS, Recorder


def main() -> int:
    recorder = Recorder()
    recorder.install(SERVER_TARGETS)
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        recorder.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
