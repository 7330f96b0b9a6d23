"""Run one `randers-lab` CLI call with the tracer installed.

Usage: python3 perfbench/cli_child.py SPANS_FILE VERB [ARGS...]

Imports the CLI under a `cli.import` span, wraps the layer boundaries,
runs the verb and writes the spans to SPANS_FILE with absolute
perf_counter times. The exit code is the CLI's own.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer()
    with tr.span("cli.import"):
        import randers_lab.cli as cli
    tr.install()
    try:
        rc = cli.main(argv)
    finally:
        tr.uninstall()
        tr.dump(spans_file, origin=0.0)
    return rc


if __name__ == "__main__":
    sys.exit(main())
