"""Start ``python -m repro serve`` with span hooks installed.

Usage: ``python perfbench/serve_traced.py SPANS.jsonl <repro CLI args...>``

Installs timing wrappers at the server's layer boundaries — HTTP parse,
dispatch, render and write; the engine's injection FIFO, ``Simulation.run``
and ``PacedEngine.serve``; the core's ``begin_read`` and ``put_object`` —
then hands the arguments to the CLI, so the server runs exactly as
``python -m repro`` would, in one process with its engine thread. When the
server shuts down (SIGTERM), the spans go to SPANS.jsonl and a per-layer
summary to the matching ``.summary.json``.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import import_repro  # noqa: E402
from spans import Recorder  # noqa: E402


class _FirstLineStamp:
    """Stream reader proxy noting when the first line of a request arrived."""

    def __init__(self, reader) -> None:
        self._reader = reader
        self.arrived = 0.0

    async def readline(self) -> bytes:
        line = await self._reader.readline()
        if not self.arrived:
            self.arrived = perf_counter()
        return line

    def __getattr__(self, name: str):
        return getattr(self._reader, name)


def install(rec: Recorder, fifo_waits: list) -> None:
    """Wrap the server's layer boundaries; ``rec.restore()`` undoes it."""
    import repro.serve.server as server_module
    from repro.core.events import PacedEngine, Simulation
    from repro.serve.core import ArchiveServerCore
    from repro.serve.server import ArchiveServer

    request_ids = itertools.count(1)
    # The request a connection task is serving: set when its request has
    # been parsed, read by the spans that follow on that connection.
    current = contextvars.ContextVar("request", default=None)
    read_request = server_module.read_request

    async def traced_read_request(reader, *args, **kwargs):
        # The parse span starts when the request line has arrived, so the
        # idle wait of a keep-alive connection is not charged to parsing.
        stamped = _FirstLineStamp(reader)
        request = await read_request(stamped, *args, **kwargs)
        if request is not None:
            op = f"http:{next(request_ids)}"
            current.set(op)
            rec.add("http.parse", stamped.arrived, perf_counter(), op=op)
        return request

    def this_request(_args, _kwargs):
        return current.get()

    rec.patch(server_module, "read_request", traced_read_request)
    rec.wrap(ArchiveServer, "_dispatch", "http.dispatch", op_of=this_request)
    rec.wrap(server_module, "json_response", "http.render")
    rec.wrap(ArchiveServer, "_send", "http.write", op_of=this_request)
    rec.wrap(ArchiveServerCore, "begin_read", "serve_core.begin_read")
    rec.wrap(ArchiveServerCore, "put_object", "serve_core.put")
    rec.wrap(Simulation, "run", "engine.run")
    rec.wrap(PacedEngine, "serve", "engine.serve", op_of=lambda _a, _k: "engine")

    inject = PacedEngine.inject

    def traced_inject(engine, callback):
        queued = perf_counter()
        op = rec.current_op()

        def run() -> None:
            fifo_waits.append(perf_counter() - queued)
            rec.call("engine.injection", callback, op=op)

        return inject(engine, run)

    rec.patch(PacedEngine, "inject", traced_inject)


def main(argv: list) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path = Path(argv[0])
    import_repro()
    from repro.cli import main as cli_main

    rec = Recorder()
    fifo_waits: list = []
    install(rec, fifo_waits)
    try:
        code = cli_main(argv[1:])
    finally:
        rec.restore()
        rec.spans = list(rec.spans)
        rec.write(spans_path)
        summary = {
            "spans": len(rec.spans),
            "table": rec.by_name(),
            "fifo_waits_s": list(fifo_waits),
        }
        spans_path.with_suffix(".summary.json").write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
