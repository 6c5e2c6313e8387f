"""Per-layer metrics from the spans and counts of a traced run.

Every metric of the layer table is computed here by its name.  A time
is a sum over the timed window divided by the number of timed
statements (the root spans of the window), unless its name says
otherwise; a self time is a span's duration minus the part of it that
its child spans cover.  Counts are exact for a single caller.
"""

from __future__ import annotations

import threading
from collections import defaultdict

from common import Metric
from repro.graph.counters import HitCounters

#: the per-layer metrics BENCHMARK.json records (``per_layer``): exact
#: counts and ratios, plus the times that are non-zero on every
#: workload.  The rest are printed by the traced run for the workloads
#: that exercise them.
RECORDED = (
    "runtime.scope_check_ms",
    "runtime.match_ms",
    "runtime.project_ms",
    "runtime.pipeline_self_ms",
    "graph.commit_ms",
    "bulkload.load_ms",
    "parser.ast_cache_hit_ratio",
    "runtime.compiler_hit_ratio",
    "graph.label_probes_per_stmt",
    "graph.label_entries_per_probe",
    "graph.db_hits.node",
    "graph.db_hits.rel",
    "graph.db_hits.prop",
    "graph.db_hits.idx",
    "graph.db_hits.write",
    "server.write_lock_waits",
    "persistence.wal_bytes_per_row",
    "persistence.fsyncs_per_write",
    "persistence.group_commit_batch",
    "persistence.checkpoint_bytes_per_entity",
    "views.delta_ratio",
    "views.skip_ratio",
)

#: metrics that are exact counts (repeat exactly for a single caller);
#: every other per-layer metric is a timing
EXACT = frozenset(
    name
    for name in RECORDED
    if not name.endswith("_ms")
)


class LockedCounters(HitCounters):
    """Db-hit counters safe under the morsel executor's threads."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def node_read(self, count: int = 1) -> None:
        with self._lock:
            self.node_reads += count

    def rel_read(self, count: int = 1) -> None:
        with self._lock:
            self.rel_reads += count

    def property_read(self, count: int = 1) -> None:
        with self._lock:
            self.property_reads += count

    def index_lookup(self, count: int = 1) -> None:
        with self._lock:
            self.index_lookups += count

    def write(self, count: int = 1) -> None:
        with self._lock:
            self.writes += count


class WindowProbe:
    """Counter snapshots taken around the timed window of one engine."""

    def __init__(self, engine) -> None:
        from repro.runtime.compiler import STATS

        self.engine = engine
        self.counters = LockedCounters()
        engine.store.install_counters(self.counters)
        self._compiler = STATS.snapshot()
        self._cache = engine.ast_cache_info()

    def finish(self) -> dict:
        from repro.runtime.compiler import STATS

        self.engine.store.reset_counters()
        compiler = STATS.snapshot()
        cache = self.engine.ast_cache_info()
        return {
            "db_hits": self.counters.snapshot().to_dict(),
            "compiler": {
                name: compiler[name] - self._compiler[name]
                for name in compiler
            },
            "ast_cache": {
                name: cache[name] - self._cache[name]
                for name in ("hits", "misses")
            },
        }


def _self_times(spans: list[tuple]) -> dict[int, float]:
    """span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)
    result = {}
    for span_id, __, __, __, start, end, __ in spans:
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span_id, ()), key=lambda s: s[4]):
            lo = max(child[4], cursor)
            hi = min(child[5], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(
    spans: list[tuple],
    counts: dict,
    extra: dict,
) -> dict[str, Metric]:
    """Every per-layer metric, by name.

    *extra* carries what the workload measured outside the spans:
    ``writes``, ``rows``, ``setups``, ``reopens``, the counter
    snapshots of :class:`WindowProbe` and workload-specific values.
    """
    window = [span for span in spans if span[6] == "window"]
    self_time = _self_times(spans)
    statements = sum(1 for span in window if span[1] is None)
    writes = extra.get("writes", 0)
    rows = extra.get("rows", writes)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    by_phase: dict[tuple[str, str], float] = defaultdict(float)
    for span in spans:
        duration = span[5] - span[4]
        by_phase[(span[6], span[3])] += duration
        if span[6] == "window":
            total[span[3]] += duration
            own[span[3]] += self_time[span[0]]

    def window_count(name: str) -> float:
        return counts.get(("window", name), 0.0)

    def per_stmt_ms(seconds: float) -> float:
        return _ratio(seconds * 1000, statements)

    metrics: dict[str, Metric] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = Metric(value, unit, statements)

    client_ms = extra.get("client_latency_ms_total")
    if client_ms is not None:
        handles = sum(1 for span in window if span[3] == "server.handle")
        put(
            "server.transport_ms",
            _ratio(client_ms, extra.get("client_requests", 0))
            - _ratio(total["server.handle"] * 1000, handles),
            "ms",
        )
    else:
        put("server.transport_ms", 0.0, "ms")
    put("server.handle_self_ms", per_stmt_ms(own["server.handle"]), "ms")
    put("server.wire_encode_ms", per_stmt_ms(total["server.wire_encode"]), "ms")
    put("server.session_self_ms", per_stmt_ms(own["server.session"]), "ms")
    put(
        "server.write_lock_waits",
        _ratio(extra.get("write_waits", 0), writes),
        "count",
    )
    put("parser.parse_ms", per_stmt_ms(total["parser.parse"]), "ms")
    cache = extra.get("ast_cache", {"hits": 0, "misses": 0})
    put(
        "parser.ast_cache_hit_ratio",
        _ratio(cache["hits"], cache["hits"] + cache["misses"]),
        "ratio",
    )
    put("runtime.scope_check_ms", per_stmt_ms(total["runtime.scope_check"]), "ms")
    put("runtime.rewrite_ms", per_stmt_ms(total["runtime.rewrite"]), "ms")
    put("runtime.match_ms", per_stmt_ms(own["runtime.match"]), "ms")
    put("runtime.project_ms", per_stmt_ms(total["runtime.project"]), "ms")
    put(
        "runtime.pipeline_self_ms",
        per_stmt_ms(own["runtime.execute_clauses"]),
        "ms",
    )
    compiler = extra.get("compiler", {})
    hits = compiler.get("cache_hits", 0)
    put(
        "runtime.compiler_hit_ratio",
        _ratio(hits, hits + compiler.get("expressions_compiled", 0)),
        "ratio",
    )
    for clause in ("merge", "set", "create", "delete"):
        put(f"core.{clause}_ms", per_stmt_ms(total[f"core.{clause}"]), "ms")
    probes = window_count("graph.label_probe.calls")
    put("graph.label_probes_per_stmt", _ratio(probes, statements), "count")
    put(
        "graph.label_entries_per_probe",
        _ratio(window_count("graph.label_probe.size"), probes),
        "count",
    )
    hits_by_kind = extra.get("db_hits", {})
    for short, key in (
        ("node", "node_reads"),
        ("rel", "rel_reads"),
        ("prop", "property_reads"),
        ("idx", "index_lookups"),
        ("write", "writes"),
    ):
        put(
            f"graph.db_hits.{short}",
            _ratio(hits_by_kind.get(key, 0), statements),
            "count",
        )
    put("graph.commit_ms", per_stmt_ms(own["graph.commit"]), "ms")
    put(
        "persistence.log_commit_ms",
        per_stmt_ms(total["persistence.log_commit"]),
        "ms",
    )
    put(
        "persistence.wal_bytes_per_row",
        _ratio(window_count("persistence.wal_record.size"), rows),
        "B",
    )
    put(
        "persistence.fsync_ms",
        per_stmt_ms(window_count("persistence.fsync.s")),
        "ms",
    )
    put(
        "persistence.fsyncs_per_write",
        _ratio(window_count("persistence.fsync.calls"), writes),
        "count",
    )
    put(
        "persistence.group_commit_wait_ms",
        per_stmt_ms(total["persistence.group_commit_wait"]),
        "ms",
    )
    group = extra.get("group_commit", {"batches": 0, "synced_waiters": 0})
    put(
        "persistence.group_commit_batch",
        _ratio(group["synced_waiters"], group["batches"]),
        "count",
    )
    checkpoints = extra.get("checkpoints", 0)
    put(
        "persistence.checkpoint_write_ms",
        _ratio(
            by_phase[("checkpoint", "persistence.checkpoint_write")] * 1000,
            checkpoints,
        ),
        "ms",
    )
    put(
        "persistence.checkpoint_bytes_per_entity",
        extra.get("checkpoint_bytes_per_entity", 0.0),
        "B",
    )
    reopens = extra.get("reopens", 0)
    put(
        "persistence.restore_ms",
        _ratio(by_phase[("reopen", "persistence.restore")] * 1000, reopens),
        "ms",
    )
    put(
        "persistence.replay_ms",
        _ratio(counts.get(("reopen", "persistence.replay.s"), 0) * 1000, reopens),
        "ms",
    )
    put(
        "persistence.verify_ms",
        _ratio(by_phase[("reopen", "persistence.verify")] * 1000, reopens),
        "ms",
    )
    views = extra.get("views", [])
    seen = sum(view["batches_seen"] for view in views)
    delta = sum(view["delta_refreshes"] for view in views)
    full = sum(view["full_refreshes"] for view in views)
    put(
        "views.maintenance_ms_per_commit",
        _ratio(sum(view["maintenance_s"] for view in views) * 1000, seen),
        "ms",
    )
    put("views.delta_ratio", _ratio(delta, delta + full), "ratio")
    put(
        "views.skip_ratio",
        _ratio(sum(view["batches_skipped"] for view in views), seen),
        "ratio",
    )
    reads = sum(1 for span in window if span[3] == "views.result")
    put("views.result_ms", _ratio(total["views.result"] * 1000, reads), "ms")
    setups = extra.get("setups", 0)
    put(
        "bulkload.load_ms",
        _ratio(by_phase[("setup", "bulkload.load")] * 1000, setups),
        "ms",
    )
    put(
        "bulkload.emit_checkpoint_ms",
        _ratio(by_phase[("setup", "bulkload.emit_checkpoint")] * 1000, setups),
        "ms",
    )
    return metrics
