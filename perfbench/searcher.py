"""Searcher entry point: optional span wrappers, then ``repro.cli serve-searcher``.

Usage: ``python searcher.py [--trace-out PATH] <serve-searcher arguments>``.

With ``--trace-out`` the same wrappers as the benchmark process are
installed before the server starts, and the span log is written to PATH
when the server stops.  SIGTERM stops the server the way Ctrl-C does, so
the log is written on an ordinary shutdown; the process also asks the
kernel to send it SIGTERM when its parent dies.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402

_PR_SET_PDEATHSIG = 1


def _stop_with_parent() -> None:
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            _PR_SET_PDEATHSIG, signal.SIGTERM
        )
    except (OSError, AttributeError):
        return
    if os.getppid() == 1:  # the parent died before prctl took effect
        sys.exit(1)


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    _stop_with_parent()
    tracer = None
    if trace_out is not None:
        tracer = tracing.Tracer(f"searcher{os.getpid()}")
        tracing.install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve-searcher", *argv])
    finally:
        if tracer is not None:
            tracing.write_records(trace_out, tracer.records())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
