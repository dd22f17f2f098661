"""Traced cold CLI op: a fresh interpreter that times ``import ospring`` as a
span, installs the layer wrappers and runs ``ospring.cli.main(argv)``.

    python perfbench/traced_cli.py --spawn-ns T --op ID --spans FILE -- <cli argv>

Spans are written to FILE as JSON lines; a last line carries the exit code,
the number of modules the import added and the warning counts.  The exit
code is the CLI's.
"""

from __future__ import annotations

import argparse
import json
import sys

from spans import Tracer, write_spans


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--op", type=int, required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    tracer = Tracer()
    tracer.op = args.op
    span = tracer.open("import", start_ns=args.spawn_ns)
    before = len(sys.modules)
    import ospring.cli

    tracer.close(span)
    modules = len(sys.modules) - before
    tracer.install()
    try:
        rc = ospring.cli.main(cli_argv)
    finally:
        tracer.uninstall()
        write_spans(args.spans, tracer.spans)
    with open(args.spans, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"exit": rc, "modules": modules, "counts": tracer.counts})
                     + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
