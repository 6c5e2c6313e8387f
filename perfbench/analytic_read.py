"""analytic-read: in-process analytic queries on a graph that fits every cache.

One caller runs a fixed seeded mix over a bulk-loaded in-memory graph
with the configuration ``docs/performance.md`` recommends for
analytics, ``Graph(use_planner=True, workers=2)`` (thread executor).
The window repeats a fixed seeded cycle of rounds; each round runs the
three query shapes once, in a seeded order:

* ``fof``  -- friend-of-friend count anchored on a ``city`` filter;
* ``join`` -- two-hop relationship-property join (``k2.since >=
  k1.since``) anchored the same way, with ``count(*)``;
* ``scan`` -- filtered label scan with ``count``/``avg`` and
  ``ORDER BY`` over every ``:Person``.

The anchored queries are the light class, the label scan the heavy
class.  The workload makes one label probe per query, never writes and
never touches persistence, the server or views: it measures the match
planner, rewrites, the expression compiler, aggregation and the morsel
executor.  Results for a fixed sample of parameters are compared with
the reference configuration (``Graph(store=...)`` defaults: naive
matcher, serial, no rewrites) outside the timed window, and every
timed result must equal the first result seen for its parameters.
"""

from __future__ import annotations

import csv
import gc
import json
import random
import time

from common import (
    Metric,
    Outcome,
    check,
    environment,
    fresh_dir,
    median,
    percentile,
    self_rss_mib,
    statement_span,
)

PERSONS = 5000
KNOWS_PER_PERSON = 4
CITIES = 50
SETUPS = 3
RELOADS = 9
#: rounds in one cycle of the fixed mix; the window runs whole cycles,
#: so per-statement counts repeat exactly whatever the machine's speed
CYCLE_ROUNDS = 20

QUERIES = {
    "fof": (
        "MATCH (a:Person {city: $city})-[:KNOWS]->(:Person)"
        "-[:KNOWS]->(c:Person) WHERE c.age < $age "
        "RETURN count(DISTINCT c) AS n"
    ),
    "join": (
        "MATCH (a:Person {city: $city})-[k1:KNOWS]->(:Person)"
        "-[k2:KNOWS]->(c:Person) WHERE k2.since >= k1.since "
        "RETURN count(*) AS n"
    ),
    "scan": (
        "MATCH (p:Person) WHERE p.age >= $lo AND p.age < $hi "
        "RETURN p.city AS city, count(*) AS n, avg(p.score) AS s "
        "ORDER BY city"
    ),
}
LIGHT = ("fof", "join")


def _parameters(rng: random.Random, kind: str) -> dict:
    if kind == "scan":
        lo = rng.randrange(18, 60, 6)
        return {"lo": lo, "hi": lo + 20}
    params = {"city": f"c{rng.randrange(CITIES)}"}
    if kind == "fof":
        params["age"] = rng.choice((30, 50, 70))
    return params


def _write_csv(directory, seed: int):
    """The graph as bulk-loader CSV files (nodes, relationships)."""
    rng = random.Random(seed)
    nodes_path = directory / "nodes.csv"
    rels_path = directory / "rels.csv"
    with open(nodes_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("id", "labels", "properties"))
        for node_id in range(PERSONS):
            properties = {
                "id": node_id,
                "city": f"c{rng.randrange(CITIES)}",
                "age": rng.randrange(18, 80),
                "score": rng.randrange(1000),
            }
            writer.writerow((node_id, "Person", json.dumps(properties)))
    with open(rels_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("id", "type", "start", "end", "properties"))
        rel_id = 0
        for node_id in range(PERSONS):
            for __ in range(KNOWS_PER_PERSON):
                since = {"since": rng.randrange(2000, 2021)}
                writer.writerow(
                    (
                        rel_id,
                        "KNOWS",
                        node_id,
                        rng.randrange(PERSONS),
                        json.dumps(since),
                    )
                )
                rel_id += 1
    return nodes_path, rels_path


def _rows(result) -> list[tuple]:
    return [tuple(record.values()) for record in result.records]


def _run_round(graph, mix, tracer, latencies, seen, rates) -> None:
    """One round of the mix: time and check each query."""
    round_s = 0.0
    for kind, params in mix:
        with statement_span(tracer):
            start = time.perf_counter()
            result = graph.run(QUERIES[kind], params)
            elapsed = time.perf_counter() - start
        latencies[kind].append(elapsed * 1000)
        round_s += elapsed
        rows = _rows(result)
        key = (kind, tuple(sorted(params.items())))
        first = seen.setdefault(key, rows)
        check(
            rows == first,
            f"analytic-read {kind} {params}: result changed "
            f"between runs of a read-only graph",
        )
    rates.append(len(mix) / round_s)


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    import repro.bulkload as bulkload
    from repro.session import Graph

    outcome = Outcome()
    setups: list[float] = []
    rng = random.Random(seed)
    warm = {kind: _parameters(rng, kind) for kind in QUERIES}
    graph = None
    for attempt in range(SETUPS):
        if tracer is not None:
            tracer.phase = "setup"
        graph = None
        started = time.perf_counter()
        directory = fresh_dir("analytic-read")
        nodes_path, rels_path = _write_csv(directory, seed)
        store = bulkload.load_store(
            bulkload.iter_nodes_csv(nodes_path),
            bulkload.iter_rels_csv(rels_path),
        )
        graph = Graph(store=store, use_planner=True, workers=2)
        for kind, source in QUERIES.items():
            graph.run(source, warm[kind])
        setups.append(time.perf_counter() - started)

    # Reload: the in-memory graph comes back by re-reading its CSV
    # files.  It takes a tenth of a second, so it is repeated and the
    # median kept.
    reloads: list[float] = []
    for attempt in range(RELOADS):
        gc.collect()
        started = time.perf_counter()
        bulkload.load_store(
            bulkload.iter_nodes_csv(nodes_path),
            bulkload.iter_rels_csv(rels_path),
        )
        reloads.append(time.perf_counter() - started)

    # Reference sample, outside every timed window.
    if tracer is not None:
        tracer.phase = None
    reference = Graph(store=graph.store)
    sample_rng = random.Random(seed + 1)
    for kind, source in QUERIES.items():
        for __ in range(3):
            params = _parameters(sample_rng, kind)
            expected = _rows(reference.run(source, params))
            got = _rows(graph.run(source, params))
            if kind != "scan":  # unordered results compare as multisets
                expected.sort()
                got.sort()
            check(
                got == expected,
                f"analytic-read {kind} {params}: optimised {got[:3]} "
                f"!= reference {expected[:3]}",
            )

    if tracer is not None:
        from layers import WindowProbe

        tracer.phase = "window"
        probe = WindowProbe(graph.engine)
    latencies: dict[str, list[float]] = {kind: [] for kind in QUERIES}
    seen: dict[tuple, list[tuple]] = {}
    rates: list[float] = []
    cycle = []
    for __ in range(CYCLE_ROUNDS):
        kinds = list(QUERIES)
        rng.shuffle(kinds)
        cycle.append([(kind, _parameters(rng, kind)) for kind in kinds])
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for mix in cycle:
            _run_round(graph, mix, tracer, latencies, seen, rates)
        outcome.attempted += len(QUERIES) * CYCLE_ROUNDS

    if tracer is not None:
        tracer.phase = None
        outcome.layer_extra = probe.finish()
        outcome.layer_extra["setups"] = SETUPS + RELOADS

    outcome.env.update(
        environment(
            seed,
            "none (in-memory)",
            {
                "persons": PERSONS,
                "knows": PERSONS * KNOWS_PER_PERSON,
                "cities": CITIES,
                "workers": 2,
                "executor": "thread",
            },
        )
    )
    every = [value for samples in latencies.values() for value in samples]
    light = [value for kind in LIGHT for value in latencies[kind]]
    heavy = latencies["scan"]
    report = outcome.report
    report["setup_s"] = Metric(median(setups), "s", len(setups))
    # Median over rounds of the mix, so a slow spell of the machine
    # moves it less than a mean over the window would.
    report["stmt_per_s"] = Metric(median(rates), "1/s", len(rates))
    report["rss_mib"] = Metric(self_rss_mib(), "MiB")
    report["bulkload_reload_s"] = Metric(median(reloads), "s", len(reloads))
    if every:
        report["query_p50_ms"] = Metric(median(every), "ms", len(every))
        report["query_p90_ms"] = Metric(percentile(every, 90), "ms", len(every))
        for kind, samples in latencies.items():
            report[f"{kind}_p50_ms"] = Metric(median(samples), "ms", len(samples))
        outcome.end_to_end = {
            "setup_s": report["setup_s"],
            "throughput_per_s": report["stmt_per_s"],
            "light_p50_ms": Metric(median(light), "ms", len(light)),
            "light_tail_ms": Metric(percentile(light, 90), "ms", len(light), "p90"),
            "heavy_p50_ms": Metric(median(heavy), "ms", len(heavy)),
            "heavy_tail_ms": Metric(percentile(heavy, 90), "ms", len(heavy), "p90"),
            "reload_s": report["bulkload_reload_s"],
            "rss_mib": report["rss_mib"],
        }
    return outcome
