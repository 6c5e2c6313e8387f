"""Spans and counts at the layer boundaries, installed from outside ``src/``.

:func:`install` replaces the public entry point of each layer with a
wrapper that records a span (name, start, end, parent span, statement
id) or bumps a counter.  Nothing inside the program changes: the
wrappers are set as attributes on the modules and classes that the
program looks the functions up on at call time.

Spans are kept in memory and written out once, when the workload ends
(:meth:`Tracer.write`).  A span's parent is the innermost open span of
the same task or thread; morsel worker threads do not inherit context
variables, so their spans fall back to the clause pipeline span that
dispatched them (the in-process workloads have a single caller).

Tracing is off until :attr:`Tracer.phase` is set, so the untraced run
never installs anything and pays nothing.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        #: (span_id, parent_id, stmt_id, name, start, end, phase)
        self.spans: list[tuple] = []
        #: (phase, name) -> value
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        #: "setup", "window", "reopen", ... ; None means tracing is off
        self.phase: str | None = None
        self._ids = itertools.count(1)
        #: parent for spans opened in threads without a context
        self._thread_parent = None
        self._in_restore = 0
        #: counts are bumped from morsel and fsync threads too
        self._count_lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        if self.phase is not None:
            with self._count_lock:
                self.counts[(self.phase, name)] += value

    def _open(self, name: str):
        parent = _current.get() or self._thread_parent
        span_id = next(self._ids)
        stmt_id = parent[1] if parent is not None else span_id
        frame = (span_id, stmt_id, name)
        token = _current.set(frame)
        return frame, parent, token

    def _close(self, frame, parent, token, start: float) -> None:
        end = time.perf_counter()
        try:
            _current.reset(token)
        except ValueError:  # closed in another context (thread hop)
            _current.set(parent)
        self.spans.append(
            (
                frame[0],
                parent[0] if parent is not None else None,
                frame[1],
                frame[2],
                start,
                end,
                self.phase,
            )
        )

    def span(self, name: str):
        """Context manager recording one span (a statement root if
        no span is open)."""
        return _SpanContext(self, name)

    def wrap(
        self, owner, attribute: str, name: str, *, dispatches: bool = False
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        With *dispatches*, spans opened by worker threads while the
        call runs get this span as their parent.
        """
        original = getattr(owner, attribute)
        tracer = self
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if tracer.phase is None:
                    return await original(*args, **kwargs)
                frame, parent, token = tracer._open(name)
                start = time.perf_counter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer._close(frame, parent, token, start)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if tracer.phase is None:
                    return original(*args, **kwargs)
                frame, parent, token = tracer._open(name)
                start = time.perf_counter()
                if dispatches:
                    saved, tracer._thread_parent = tracer._thread_parent, frame
                try:
                    return original(*args, **kwargs)
                finally:
                    if dispatches:
                        tracer._thread_parent = saved
                    tracer._close(frame, parent, token, start)

        setattr(owner, attribute, wrapper)

    def wrap_timed(self, owner, attribute: str, name: str, size=None):
        """Replace ``owner.attribute`` with a call counter and timer
        (no span: used on hot or threaded calls)."""
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return original(*args, **kwargs)
            start = time.perf_counter()
            result = original(*args, **kwargs)
            tracer.count(name + ".calls")
            tracer.count(name + ".s", time.perf_counter() - start)
            if size is not None:
                tracer.count(name + ".size", size(result))
            return result

        setattr(owner, attribute, wrapper)

    # -- output --------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write spans (one JSON array per line) and counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(
                json.dumps(
                    {
                        "counts": [
                            [phase, name, value]
                            for (phase, name), value in self.counts.items()
                        ]
                    }
                )
                + "\n"
            )


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        if self.tracer.phase is not None:
            self.frame, self.parent, self.token = self.tracer._open(self.name)
            self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        if self.tracer.phase is not None:
            self.tracer._close(self.frame, self.parent, self.token, self.start)
        return False


def read_spans(path: Path, id_offset: int = 0) -> tuple[list[tuple], dict]:
    """Inverse of :meth:`Tracer.write`; span ids are shifted by
    *id_offset* so spans of several processes can be merged."""
    spans: list[tuple] = []
    counts: dict[tuple[str, str], float] = defaultdict(float)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            item = json.loads(line)
            if isinstance(item, dict):
                for phase, name, value in item["counts"]:
                    counts[(phase, name)] += value
            else:
                span_id, parent, stmt = item[:3]
                spans.append(
                    (
                        span_id + id_offset,
                        None if parent is None else parent + id_offset,
                        stmt + id_offset,
                        *item[3:],
                    )
                )
    return spans, counts


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at.

    Functions that callers import by name are wrapped in the importing
    module's namespace; functions imported inside a call body are
    wrapped on their defining module.
    """
    from importlib import import_module

    # import_module, not ``import a.b as c``: packages re-export
    # functions under their submodules' names (repro.core.merge).
    (
        bulkload, create, delete, merge, set_, engine, manager, wal,
        pipeline, rewrite, scoping, invariants, registry,
    ) = (
        import_module(f"repro.{name}")
        for name in (
            "bulkload", "core.create", "core.delete", "core.merge",
            "core.set", "engine", "persistence.manager",
            "persistence.wal", "runtime.pipeline", "runtime.rewrite",
            "runtime.scoping", "testing.invariants", "views.registry",
        )
    )
    from repro.graph.store import GraphStore
    from repro.persistence.group_commit import GroupCommitter

    tracer.wrap(engine, "parse", "parser.parse")
    tracer.wrap(scoping, "check_statement", "runtime.scope_check")
    tracer.wrap(rewrite, "rewrite_statement", "runtime.rewrite")
    for module in (engine, registry):
        tracer.wrap(
            module, "execute_clauses", "runtime.execute_clauses",
            dispatches=True,
        )
    tracer.wrap(pipeline, "execute_match", "runtime.match")
    tracer.wrap(pipeline, "project_with", "runtime.project")
    tracer.wrap(pipeline, "project_return", "runtime.project")
    tracer.wrap(merge, "execute_merge", "core.merge")
    tracer.wrap(set_, "execute_set", "core.set")
    tracer.wrap(create, "execute_create", "core.create")
    tracer.wrap(delete, "execute_delete", "core.delete")
    tracer.wrap(GraphStore, "commit_statement", "graph.commit")
    tracer.wrap(manager.PersistenceManager, "log_commit", "persistence.log_commit")
    tracer.wrap(GroupCommitter, "wait_durable", "persistence.group_commit_wait")
    tracer.wrap(registry.ViewRegistry, "result", "views.result")
    tracer.wrap(bulkload, "load_store", "bulkload.load")
    tracer.wrap(bulkload, "emit_checkpoint", "bulkload.emit_checkpoint")
    tracer.wrap(manager, "write_checkpoint", "persistence.checkpoint_write")
    tracer.wrap(invariants, "check_invariants", "persistence.verify")

    tracer.wrap_timed(
        GraphStore, "nodes_with_label", "graph.label_probe", size=len
    )
    tracer.wrap_timed(wal, "encode_record", "persistence.wal_record", size=len)
    tracer.wrap_timed(os, "fsync", "persistence.fsync")

    # Checkpoint restore replays its rows through apply_redo too; only
    # WAL records count as replay.
    restore = manager.restore_checkpoint_file

    @functools.wraps(restore)
    def restore_wrapper(*args, **kwargs):
        tracer._in_restore += 1
        try:
            return restore(*args, **kwargs)
        finally:
            tracer._in_restore -= 1

    manager.restore_checkpoint_file = restore_wrapper
    tracer.wrap(manager, "restore_checkpoint_file", "persistence.restore")
    apply_redo = GraphStore.apply_redo

    @functools.wraps(apply_redo)
    def apply_redo_wrapper(self, op):
        if tracer.phase is None or tracer._in_restore:
            return apply_redo(self, op)
        start = time.perf_counter()
        result = apply_redo(self, op)
        tracer.count("persistence.replay.s", time.perf_counter() - start)
        tracer.count("persistence.replay.calls")
        return result

    GraphStore.apply_redo = apply_redo_wrapper


def install_server(tracer: Tracer) -> None:
    """The server-side boundaries, on top of :func:`install`."""
    from importlib import import_module

    from repro.server.sessions import SessionManager

    service = import_module("repro.server.service")

    tracer.wrap(service.GraphService, "handle", "server.handle")
    tracer.wrap(service, "result_to_wire", "server.wire_encode")
    tracer.wrap(SessionManager, "execute", "server.session")
