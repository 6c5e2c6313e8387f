"""Launch ``repro.server`` with the layer wrappers installed.

Usage: ``python trace_server.py --spans PATH -- <repro.server arguments>``

SIGUSR1 opens the timed window (db-hit counters and cache snapshots
start), SIGUSR2 closes it.  On a clean shutdown (SIGINT) the spans go to
PATH and the window's counters to PATH with the suffix ``.extra.json``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install, install_server  # noqa: E402


def main() -> int:
    separator = sys.argv.index("--")
    spans_path = Path(sys.argv[sys.argv.index("--spans") + 1])
    server_args = sys.argv[separator + 1:]

    from repro.server import __main__ as server_main
    from repro.server.service import GraphService

    tracer = Tracer()
    install(tracer)
    install_server(tracer)
    services: list[GraphService] = []
    original_init = GraphService.__init__

    def capture(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        services.append(self)

    GraphService.__init__ = capture
    state: dict = {}

    def open_window(signum, frame) -> None:
        from layers import WindowProbe

        service = services[0]
        state["probe"] = WindowProbe(service.graph.engine)
        state["waits"] = service.sessions.write_waits
        state["group"] = dict(service.committer.stats())
        tracer.phase = "window"

    def close_window(signum, frame) -> None:
        tracer.phase = None
        service = services[0]
        group = service.committer.stats()
        extra = state["probe"].finish()
        extra["write_waits"] = service.sessions.write_waits - state["waits"]
        extra["group_commit"] = {
            key: group[key] - state["group"][key]
            for key in ("batches", "synced_waiters")
        }
        state["extra"] = extra

    signal.signal(signal.SIGUSR1, open_window)
    signal.signal(signal.SIGUSR2, close_window)
    status = server_main.main(server_args)
    tracer.write(spans_path)
    with open(spans_path.with_suffix(".extra.json"), "w", encoding="utf-8") as handle:
        json.dump(state.get("extra", {}), handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
