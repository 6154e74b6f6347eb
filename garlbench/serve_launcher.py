"""Serve an artifact like ``repro serve`` does, with layer spans recorded.

Installs the layer wrappers of :mod:`garlbench.layers`, calls
``repro.serve.run_service`` at its defaults, and after the SIGTERM drain
writes every span once, as a Chrome trace_event file::

    PYTHONPATH=src:. python -m garlbench.serve_launcher ARTIFACT \\
        --spans spans.json --ready-file ready [--port 0]
"""

from __future__ import annotations

import argparse
import sys

from garlbench.layers import install
from garlbench.tracing import Patcher, SpanRecorder, write_chrome_trace


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact")
    parser.add_argument("--spans", required=True, help="trace file to write")
    parser.add_argument("--ready-file", required=True)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.serve import run_service

    recorder = SpanRecorder()
    engines: list = []
    with Patcher() as patcher:
        install(recorder, patcher, engines)
        rc = run_service(args.artifact, port=args.port,
                         ready_file=args.ready_file)
    engine = engines[0] if engines else None
    counts = {("" if k is None else k): list(v)
              for k, v in recorder.counts().items()}
    write_chrome_trace(args.spans, recorder.spans, process="repro serve", other={
        "counts": counts,
        "engine_stats": dict(engine.stats) if engine is not None else {},
        "max_wait_s": engine.max_wait_s if engine is not None else 0.0})
    return rc


if __name__ == "__main__":
    sys.exit(main())
