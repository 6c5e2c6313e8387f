"""merge-import: filling a durable graph from order rows with MERGE SAME.

The paper's user survey found MERGE is mostly used to load graphs from
CSV exports; this workload is that job, run in-process on
``Graph.open(dir)`` (default ``fsync=batch``).  A product catalogue is
bulk-loaded first (``load_store`` -> ``emit_checkpoint`` -> ``Graph.open``)
with unique constraints on ``:User(id)`` and ``:Product(id)``.  Then a
fixed sequence of 500-row batches is streamed through::

    UNWIND $rows AS row
    MERGE SAME (u:User {id: row.cid})
    MERGE SAME (p:Product {id: row.pid})
    MERGE SAME (u)-[:ORDERED {date: row.date}]->(p)

Every 5th batch adds an ``UNWIND ... SET`` and every 10th an
``UNWIND ... DETACH DELETE`` of some users.  Two selective maintained
views (one user's orders, one product's buyers) are read by a
dashboard after every batch.  One *pass* is set-up plus the whole
batch sequence on a fresh directory; passes repeat until the run's
seconds are spent, so every sample comes from the same graph sizes.
After the last pass the graph is checkpointed, a WAL tail of further
batches is written, and the graph is closed and reopened (several
times; the median is reported).

Checks: after every pass each view equals re-running its query, and the ``(user, product, date)`` edges and the node counts
equal a set-based oracle kept from the generated rows (MERGE SAME
collapses duplicates, DETACH DELETE removes a user and its edges); the
reopened graph's ``canonical_graph_json`` equals the value before
close.  Parameterised statements always hit the AST cache, so neither
the server nor the parser is exercised.
"""

from __future__ import annotations

import gc
import random
import time
from collections import Counter

from common import (
    Metric,
    Outcome,
    Stopwatch,
    check,
    environment,
    fresh_dir,
    median,
    percentile,
    self_rss_mib,
    statement_span,
)

BATCH_ROWS = 500
BATCHES = 24
TAIL_BATCHES = 4
REOPENS = 9
USERS = 12000
PRODUCTS = 2000
DATES = 30
DELETES_PER_BATCH = 20
#: the users and the product the two dashboard views follow
HOT_USER = 1
HOT_PRODUCT = 7

MERGE = (
    "UNWIND $rows AS row "
    "MERGE SAME (u:User {id: row.cid}) "
    "MERGE SAME (p:Product {id: row.pid}) "
    "MERGE SAME (u)-[:ORDERED {date: row.date}]->(p)"
)
SET = (
    "UNWIND $rows AS row MATCH (u:User {id: row.cid}) "
    "SET u.last = row.date"
)
DELETE = "UNWIND $ids AS cid MATCH (u:User {id: cid}) DETACH DELETE u"
VIEWS = (
    (
        "MATCH (u:User {id: $cid})-[o:ORDERED]->(p:Product) "
        "RETURN p.id AS pid, o.date AS date",
        {"cid": HOT_USER},
    ),
    (
        "MATCH (p:Product {id: $pid})<-[o:ORDERED]-(u:User) "
        "RETURN u.id AS cid, o.date AS date",
        {"pid": HOT_PRODUCT},
    ),
)


def _batches(seed: int, count: int) -> list[list[dict]]:
    """Order rows shaped like ``order_table``: a fixed user and product
    space, a hot user and product, and repeated pairs (some with the
    same date, which MERGE SAME collapses)."""
    rng = random.Random(seed)
    previous: list[dict] = []
    batches = []
    for __ in range(count):
        rows = []
        for __ in range(BATCH_ROWS):
            draw = rng.random()
            if previous and draw < 0.15:
                row = dict(rng.choice(previous))
            elif previous and draw < 0.3:
                row = dict(rng.choice(previous))
                row["date"] = rng.randrange(DATES)
            else:
                row = {
                    "cid": HOT_USER if draw < 0.32 else rng.randrange(USERS),
                    "pid": HOT_PRODUCT if draw > 0.98 else rng.randrange(PRODUCTS),
                    "date": rng.randrange(DATES),
                }
            rows.append(row)
            previous.append(row)
        batches.append(rows)
    return batches


class _Oracle:
    """The graph the batches must produce, as sets."""

    def __init__(self) -> None:
        self.users: set[int] = set()
        self.edges: set[tuple[int, int, int]] = set()

    def merge(self, rows: list[dict]) -> None:
        for row in rows:
            self.users.add(row["cid"])
            self.edges.add((row["cid"], row["pid"], row["date"]))

    def delete(self, ids: list[int]) -> None:
        gone = set(ids)
        self.users -= gone
        self.edges = {edge for edge in self.edges if edge[0] not in gone}


def _bag(result) -> Counter:
    return Counter(tuple(record.values()) for record in result.records)


def _write_catalogue(directory):
    import csv
    import json

    path = directory / "products.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("id", "labels", "properties"))
        for pid in range(PRODUCTS):
            properties = {"id": pid, "name": f"product {pid}"}
            writer.writerow((pid, "Product", json.dumps(properties)))
    return path


def _warm_compiler() -> None:
    """Compile every statement shape once on a scratch graph (the
    expression compiler's cache is shared by equal ASTs)."""
    from repro.session import Graph

    scratch = Graph()
    rows = [{"cid": 0, "pid": 0, "date": 0}]
    scratch.run(MERGE, {"rows": rows})
    scratch.run(SET, {"rows": rows})
    for source, params in VIEWS:
        scratch.run(source, params)
    scratch.run(DELETE, {"ids": [0]})


def _setup(seed: int):
    """Data generation, catalogue bulk load, open, views, warm-up."""
    import repro.bulkload as bulkload
    from repro.session import Graph

    batches = _batches(seed, BATCHES + TAIL_BATCHES)
    directory = fresh_dir("merge-import")
    catalogue = _write_catalogue(directory)
    store = bulkload.load_store(
        bulkload.iter_nodes_csv(catalogue),
        None,
        constraints=[("User", "id"), ("Product", "id")],
    )
    bulkload.emit_checkpoint(directory / "db", store)
    del store
    graph = Graph.open(directory / "db")
    views = [graph.register_view(source, params) for source, params in VIEWS]
    for source in (MERGE, SET, DELETE):
        graph.engine.parse(source)
    _warm_compiler()
    return batches, directory, graph, views


def _check_views(graph, views) -> None:
    for view, (source, params) in zip(views, VIEWS):
        maintained = Counter(
            tuple(record.values()) for record in view.result().records
        )
        check(
            maintained == _bag(graph.run(source, params)),
            f"merge-import view {source!r} differs from re-running it",
        )


def _check_oracle(graph, oracle: _Oracle) -> None:
    edges = [
        tuple(record.values())
        for record in graph.run(
            "MATCH (u:User)-[o:ORDERED]->(p:Product) "
            "RETURN u.id AS cid, p.id AS pid, o.date AS date"
        ).records
    ]
    check(
        len(edges) == len(set(edges)) and set(edges) == oracle.edges,
        f"merge-import edges: {len(edges)} in the graph "
        f"({len(set(edges))} distinct), {len(oracle.edges)} expected",
    )
    counts = graph.run(
        "MATCH (u:User) WITH count(u) AS users "
        "MATCH (p:Product) RETURN users, count(p) AS products"
    ).single()
    check(
        counts["users"] == len(oracle.users)
        and counts["products"] == PRODUCTS,
        f"merge-import nodes: {counts}, expected {len(oracle.users)} "
        f"users and {PRODUCTS} products",
    )


def _import(graph, views, batches, rng, oracle, tracer, samples, watch):
    """Stream *batches*; returns the number of statements run."""
    statements = 0

    def timed(source, params, into):
        with watch, statement_span(tracer):
            start = time.perf_counter()
            graph.run(source, params)
            into.append((time.perf_counter() - start) * 1000)

    for number, rows in enumerate(batches, start=1):
        timed(MERGE, {"rows": rows}, samples["batch"])
        oracle.merge(rows)
        statements += 1
        if number % 5 == 0:
            # SET is atomic in the revised dialect: two values for one
            # user in a statement would conflict, so send one per user.
            latest: dict[int, int] = {}
            for row in rows:
                latest[row["cid"]] = max(latest.get(row["cid"], 0), row["date"])
            updates = [{"cid": cid, "date": date} for cid, date in latest.items()]
            timed(SET, {"rows": updates}, samples["other"])
            statements += 1
        if number % 10 == 0:
            candidates = sorted(oracle.users - {HOT_USER})
            ids = rng.sample(candidates, DELETES_PER_BATCH)
            timed(DELETE, {"ids": ids}, samples["other"])
            oracle.delete(ids)
            statements += 1
        for view in views:
            with watch, statement_span(tracer):
                start = time.perf_counter()
                view.result()
                samples["view"].append((time.perf_counter() - start) * 1000)
    return statements


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    from repro.session import Graph
    from repro.testing.invariants import canonical_graph_json

    outcome = Outcome()
    setups: list[float] = []
    import_s: list[float] = []
    samples: dict[str, list[float]] = {"batch": [], "view": [], "other": []}
    view_stats: list[dict] = []
    extra = outcome.layer_extra
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.phase = "setup"
        started = time.perf_counter()
        batches, directory, graph, views = _setup(seed)
        setups.append(time.perf_counter() - started)
        if tracer is not None:
            from layers import WindowProbe

            tracer.phase = "window"
            probe = WindowProbe(graph.engine)
        oracle = _Oracle()
        rng = random.Random(seed + 1)
        watch = Stopwatch()
        outcome.attempted += _import(
            graph, views, batches[:BATCHES], rng, oracle, tracer, samples, watch
        )
        import_s.append(watch.total)
        if tracer is not None:
            tracer.phase = None
            for key, value in probe.finish().items():
                if isinstance(value, dict):
                    merged = extra.setdefault(key, {})
                    for name, count in value.items():
                        merged[name] = merged.get(name, 0) + count
        _check_views(graph, views)
        _check_oracle(graph, oracle)
        if time.perf_counter() >= deadline:
            break
        view_stats.extend(graph.views())
        graph.close()

    # Checkpoint, WAL tail, close and reopen -- after the last pass.
    if tracer is not None:
        tracer.phase = "checkpoint"
    started = time.perf_counter()
    graph.checkpoint()
    checkpoint_s = time.perf_counter() - started
    checkpoint_bytes = sum(
        path.stat().st_size
        for path in (directory / "db").iterdir()
        if path.name != "wal.log"
    )
    entities = graph.store.node_count() + graph.store.relationship_count()
    if tracer is not None:
        tracer.phase = None
    tail = Stopwatch()
    outcome.attempted += _import(
        graph, views, batches[BATCHES:], rng, oracle, None,
        {"batch": [], "view": [], "other": []}, tail,
    )
    _check_views(graph, views)
    view_stats.extend(graph.views())
    before = canonical_graph_json(graph.store)
    graph.close()
    del graph, views
    reopens: list[float] = []
    for attempt in range(REOPENS):
        gc.collect()  # the passes' garbage is not the reopen's cost
        if tracer is not None:
            tracer.phase = "reopen"
        started = time.perf_counter()
        reopened = Graph.open(directory / "db")
        reopens.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.phase = None
        check(
            reopened.recovery.records_applied > 0,
            "merge-import: the reopen replayed no WAL tail",
        )
        if attempt == 0:
            check(
                canonical_graph_json(reopened.store) == before,
                "merge-import: reopened graph differs from the graph "
                "before close",
            )
            _check_oracle(reopened, oracle)
        reopened.close()

    outcome.env.update(
        environment(
            seed,
            "batch (Graph.open default, 32 records per fsync)",
            {
                "batch_rows": BATCH_ROWS,
                "batches_per_pass": BATCHES,
                "tail_batches": TAIL_BATCHES,
                "user_ids": USERS,
                "products": PRODUCTS,
                "passes": len(setups),
            },
        )
    )
    merge_rows = len(samples["batch"]) * BATCH_ROWS
    writes = len(samples["batch"]) + len(samples["other"])
    report = outcome.report
    batch, view = samples["batch"], samples["view"]
    report["setup_s"] = Metric(median(setups), "s", len(setups))
    # Median over passes: each pass imports the same fixed rows.
    rates = [BATCHES * BATCH_ROWS / elapsed for elapsed in import_s]
    report["import_rows_per_s"] = Metric(median(rates), "1/s", len(rates))
    report["batch_p50_ms"] = Metric(median(batch), "ms", len(batch))
    report["batch_p90_ms"] = Metric(percentile(batch, 90), "ms", len(batch))
    report["view_read_p50_ms"] = Metric(median(view), "ms", len(view))
    report["view_read_p90_ms"] = Metric(percentile(view, 90), "ms", len(view))
    report["checkpoint_s"] = Metric(checkpoint_s, "s")
    report["reopen_s"] = Metric(median(reopens), "s", len(reopens))
    report["rss_mib"] = Metric(self_rss_mib(), "MiB")
    outcome.end_to_end = {
        "setup_s": report["setup_s"],
        "throughput_per_s": report["import_rows_per_s"],
        "light_p50_ms": report["view_read_p50_ms"],
        "light_tail_ms": Metric(
            percentile(view, 90), "ms", len(view), "p90"
        ),
        "heavy_p50_ms": report["batch_p50_ms"],
        "heavy_tail_ms": Metric(
            percentile(batch, 90), "ms", len(batch), "p90"
        ),
        "reload_s": report["reopen_s"],
        "rss_mib": report["rss_mib"],
    }
    extra.update(
        rows=merge_rows,
        writes=writes,
        setups=len(setups),
        checkpoints=1,
        checkpoint_bytes_per_entity=checkpoint_bytes / entities,
        reopens=REOPENS,
        views=view_stats,
    )
    return outcome
