"""`ifd compute` with the benchmark's spans installed; used by traced rounds.

    python3 perfbench/traced_cli.py SPANS.json compute --a A --b B ...

Runs ``ifd.cli.main`` on the remaining arguments, writes the recorded
spans to SPANS.json and exits with the CLI's exit code.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import Tracer  # noqa: E402


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install("ifd")
    from ifd import cli

    with tracer.span("cli.main"):
        code = cli.main(argv)
    tracer.uninstall()
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.records(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
