"""Traced server host: ``neuroplan serve`` with the layers wrapped.

Run as ``python3 perfbench/serve_host.py TRACE_OUT serve ARGS...`` with
the checkout's ``src`` on ``PYTHONPATH``.  It installs the span wrappers
of ``tracing.py``, runs the program's own command line, and writes the
spans to ``TRACE_OUT`` once the server has drained.  Untraced runs start
the server as deployed (``python3 -m repro.cli serve ...``) instead.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
