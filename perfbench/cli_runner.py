"""Runs one ``evmt`` CLI command with the tracer installed.

Usage: ``python3 cli_runner.py SPANS_JSON CLI_ARGS...``

Installs the tracer, calls ``evmt.cli.main(CLI_ARGS)``, writes the spans
to SPANS_JSON and exits with the command's exit code.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer().install()
    import evmt.cli

    try:
        return evmt.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
