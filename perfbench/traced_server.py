"""Traced server launcher: the CLI ``serve`` entry with layer spans installed.

Usage: ``traced_server.py --spans-out PATH serve [serve options...]``.
Installs :class:`tracing.Tracer` wrappers, runs ``repro.cli.main`` with
the remaining arguments, and writes the spans to ``PATH`` when the
server stops (SIGINT shuts ``serve`` down cleanly).  Cluster worker
processes are not traced; their time is read from job stages and the
server's ``/v1/stats`` and ``/v1/metrics``.
"""

from __future__ import annotations

import sys

from tracing import Tracer


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--spans-out":
        print("usage: traced_server.py --spans-out PATH serve ...", file=sys.stderr)
        return 2
    spans_out, serve_argv = sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_argv)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main())
