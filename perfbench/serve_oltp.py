"""serve-oltp: point traffic against ``python -m repro.server``.

The server runs as its own process with its defaults (``fsync=always``
with group commit) over a directory bulk-loaded through
``repro.bulkload`` (``write_synthetic_csv`` -> ``load_store`` ->
``emit_checkpoint``, an index on ``:Person(id)``).  One client process
drives it in a closed loop on two keep-alive connections, one thread
each, every request waiting for its reply like an application worker.
Keys are uniform; the mix is:

* 50% indexed point reads -- one in ten with its key inlined as a
  literal, as ad-hoc clients send them, so the 1,024-entry AST cache
  meets a working set far larger than itself;
* 20% 1-hop reads over ``:KNOWS``;
* 20% point ``SET p.score = coalesce(p.score, 0) + 1``;
* 10% ``CREATE`` of a ``:TAGGED`` relationship between two indexed
  nodes, tagged with a unique request id.

Reads are the light class, acknowledged (fsynced) writes the heavy
class.  This is the only workload that exercises HTTP, wire encoding,
sessions, AST-cache misses, indexed probes on a large label, WAL
appends and group-commit fsyncs; it never touches views, aggregation,
the planner or the morsel executor.

Every read is checked against the generated data.  After the window
the server is killed with SIGKILL and the directory reopened: every
acknowledged ``SET`` and ``CREATE`` must be present (a key's score is
at least its acknowledged increments and at most those plus its
unacknowledged requests).  This checks that the WAL tail is complete
and replayable; it does not check that fsync reached the device,
because a killed process leaves the operating system's cache intact.
"""

from __future__ import annotations

import csv
import gc
import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from urllib.parse import urlsplit

from common import (
    ROOT,
    WORK,
    CheckFailed,
    Metric,
    Outcome,
    check,
    environment,
    fresh_dir,
    median,
    percentile,
    pid_rss_mib,
)

PERSONS = 20000
RELS_PER_PERSON = 3  # one :FOLLOWS ring edge + two :KNOWS
CLIENTS = 2
SETUPS = 3
REOPENS = 5
START_TIMEOUT_S = 120

POINT = "MATCH (p:Person {id: $id}) RETURN p.name AS name"
POINT_INLINE = "MATCH (p:Person {id: %d}) RETURN p.name AS name"
HOP = "MATCH (p:Person {id: $id})-[:KNOWS]->(f:Person) RETURN f.id AS fid"
SET = "MATCH (p:Person {id: $id}) SET p.score = coalesce(p.score, 0) + 1"
CREATE = (
    "MATCH (a:Person {id: $a}), (b:Person {id: $b}) "
    "CREATE (a)-[:TAGGED {req: $req}]->(b)"
)


class _Server:
    """One server process and a keep-alive connection factory."""

    def __init__(self, db, traced: bool, spans_path=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        if traced:
            command = [
                sys.executable, "-u", str(ROOT / "perfbench" / "trace_server.py"),
                "--spans", str(spans_path), "--",
            ]
        else:
            command = [sys.executable, "-u", "-m", "repro.server"]
        command += ["--path", str(db), "--port", "0"]
        self.log = open(WORK / "server.log", "ab")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self.log,
        )
        self.host, self.port = self._await_listening()

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        stream = self.process.stdout
        while time.monotonic() < deadline:
            ready, __, __ = select.select([stream], [], [], 1.0)
            if ready:
                line = stream.readline().decode()
                if "listening on" in line:
                    url = urlsplit(line.split("listening on", 1)[1].split()[0])
                    return url.hostname, url.port
                if not line:
                    break
            if self.process.poll() is not None:
                break
        self.kill()
        raise CheckFailed("serve-oltp: server did not start (see server.log)")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def send(self, number: int) -> None:
        self.process.send_signal(number)

    def stop(self) -> None:
        """Clean shutdown (SIGINT), waiting for the process to end."""
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()
        self.log.close()


def _query(connection, statement: str, parameters: dict | None = None):
    """POST one statement; returns ``(status, payload)``."""
    body = json.dumps({"statement": statement, "parameters": parameters or {}})
    connection.request(
        "POST", "/query", body=body,
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def _expected_knows(rels_path) -> dict[int, list[int]]:
    knows: dict[int, list[int]] = defaultdict(list)
    with open(rels_path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            if row["type"] == "KNOWS":
                knows[int(row["start"])].append(int(row["end"]))
    return {key: sorted(value) for key, value in knows.items()}


class _Ledger:
    """What the clients were told, for the durability check."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.acked = Counter()  # key -> acknowledged increments
        self.unsure = Counter()  # key -> increments without a reply
        self.tags: set[str] = set()
        self.unsure_tags: set[str] = set()


class _Client(threading.Thread):
    """One closed-loop connection: send, wait for the reply, repeat."""

    def __init__(self, number, server, seed, deadline, knows, ledger):
        super().__init__(name=f"client-{number}")
        self.number = number
        self.connection = server.connect()
        self.rng = random.Random(seed * 1000 + number)
        self.deadline = deadline
        self.knows = knows
        self.ledger = ledger
        self.reads: list[float] = []
        self.writes: list[float] = []
        #: perf_counter of every acknowledged reply
        self.acked_at: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            self._loop()
        except BaseException as error:  # noqa: BLE001 - reported by join
            self.error = error
        finally:
            self.connection.close()

    def _loop(self) -> None:
        rng = self.rng
        sequence = 0
        while time.perf_counter() < self.deadline:
            draw = rng.random()
            key = rng.randrange(PERSONS)
            sequence += 1
            if draw < 0.5:
                if rng.random() < 0.1:
                    statement, params = POINT_INLINE % key, {}
                else:
                    statement, params = POINT, {"id": key}
                kind, expected = "read", [[f"p{key}"]]
            elif draw < 0.7:
                statement, params = HOP, {"id": key}
                kind, expected = "read", sorted(self.knows.get(key, []))
            elif draw < 0.9:
                statement, params = SET, {"id": key}
                kind, expected = "set", key
            else:
                tag = f"{self.number}-{sequence}"
                statement = CREATE
                params = {"a": key, "b": rng.randrange(PERSONS), "req": tag}
                kind, expected = "create", tag
            self.attempted += 1
            start = time.perf_counter()
            try:
                status, payload = _query(self.connection, statement, params)
            except (OSError, http.client.HTTPException, ValueError):
                status, payload = None, None
                self.connection.close()
            done = time.perf_counter()
            elapsed = (done - start) * 1000
            if status != 200:
                self.failed += 1
                with self.ledger.lock:
                    if kind == "set":
                        self.ledger.unsure[expected] += 1
                    elif kind == "create":
                        self.ledger.unsure_tags.add(expected)
                continue
            self.acked_at.append(done)
            if kind == "read":
                self.reads.append(elapsed)
                records = payload["records"]
                got = records if statement != HOP else sorted(
                    row[0] for row in records
                )
                if got != expected:
                    self.wrong.append(f"{statement} {params}: {got}")
            else:
                self.writes.append(elapsed)
                with self.ledger.lock:
                    if kind == "set":
                        self.ledger.acked[expected] += 1
                    else:
                        self.ledger.tags.add(expected)


def _setup(seed: int, traced: bool, spans_path, ledger: _Ledger):
    """Generate, bulk-load, start the server, warm up."""
    import repro.bulkload as bulkload

    directory = fresh_dir("serve-oltp")
    nodes_path, rels_path = bulkload.write_synthetic_csv(
        directory / "csv", PERSONS, rels_per_node=RELS_PER_PERSON, seed=seed
    )
    store = bulkload.load_store(
        bulkload.iter_nodes_csv(nodes_path),
        bulkload.iter_rels_csv(rels_path),
        indexes=[("Person", "id")],
    )
    bulkload.emit_checkpoint(directory / "db", store)
    del store
    server = _Server(directory / "db", traced, spans_path)
    connection = server.connect()
    try:
        # Warm-up: fill the AST cache with every parameterised shape.
        warm = [(POINT, {"id": 0}), (HOP, {"id": 0}), (SET, {"id": 0}),
                (CREATE, {"a": 0, "b": 1, "req": "warm-up"})]
        for statement, params in warm:
            status, payload = _query(connection, statement, params)
            check(status == 200, f"serve-oltp warm-up failed: {payload}")
    except BaseException:
        server.kill()
        raise
    finally:
        connection.close()
    ledger.acked[0] += 1
    ledger.tags.add("warm-up")
    return directory, rels_path, server


def _median_rate(clients, started: float, seconds: float) -> float:
    """Acknowledged statements per second: the median over the whole
    one-second slices of the window, so a slow spell of the machine
    moves it less than a mean over the window would."""
    per_slice = Counter(
        int(done - started) for client in clients for done in client.acked_at
    )
    return median([per_slice[index] for index in range(max(1, int(seconds)))])


def _check_durable(graph, ledger: _Ledger) -> None:
    scores = {
        record["id"]: record["s"]
        for record in graph.run(
            "MATCH (p:Person) WHERE p.score IS NOT NULL "
            "RETURN p.id AS id, p.score AS s"
        ).records
    }
    for key in set(scores) | set(ledger.acked) | set(ledger.unsure):
        low = ledger.acked[key]
        high = low + ledger.unsure[key]
        check(
            low <= scores.get(key, 0) <= high,
            f"serve-oltp durability: key {key} has score "
            f"{scores.get(key, 0)}, acknowledged {low}, at most {high}",
        )
    tags = {
        record["req"]
        for record in graph.run(
            "MATCH ()-[t:TAGGED]->() RETURN t.req AS req"
        ).records
    }
    missing = ledger.tags - tags
    check(not missing, f"serve-oltp durability: lost CREATEs {sorted(missing)[:5]}")
    extra = tags - ledger.tags - ledger.unsure_tags
    check(not extra, f"serve-oltp durability: unknown CREATEs {sorted(extra)[:5]}")


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    from repro.session import Graph

    traced = tracer is not None
    spans_path = WORK / "trace" / f"serve-oltp-server-seed{seed}.jsonl"
    outcome = Outcome()
    setups: list[float] = []
    server = None
    for attempt in range(SETUPS):
        if server is not None:
            server.stop()
        if traced:
            tracer.phase = "setup"
        ledger = _Ledger()
        started = time.perf_counter()
        directory, rels_path, server = _setup(seed, traced, spans_path, ledger)
        setups.append(time.perf_counter() - started)
    if traced:
        tracer.phase = None
    try:
        knows = _expected_knows(rels_path)
        if traced:
            server.send(signal.SIGUSR1)  # the server's window starts
        window_start = time.perf_counter()
        deadline = window_start + seconds
        clients = [
            _Client(number, server, seed, deadline, knows, ledger)
            for number in range(CLIENTS)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=seconds + 120)
            check(not client.is_alive(), "serve-oltp: a client hung")
            if client.error is not None:
                raise client.error
        if traced:
            server.send(signal.SIGUSR2)
        rss = pid_rss_mib(server.process.pid)
        if traced:
            server.stop()  # clean shutdown writes the server's spans
        else:
            server.process.send_signal(signal.SIGKILL)
    finally:
        server.kill()
    for client in clients:
        check(not client.wrong, f"serve-oltp wrong reads: {client.wrong[:3]}")

    reopens: list[float] = []
    for attempt in range(REOPENS):
        gc.collect()  # the clients' garbage is not the reopen's cost
        if traced:
            tracer.phase = "reopen"
        started = time.perf_counter()
        graph = Graph.open(directory / "db")
        reopens.append(time.perf_counter() - started)
        if traced:
            tracer.phase = None
        if attempt == 0:
            _check_durable(graph, ledger)
        graph.close()

    reads = [value for client in clients for value in client.reads]
    writes = [value for client in clients for value in client.writes]
    outcome.attempted = sum(client.attempted for client in clients)
    outcome.failed = sum(client.failed for client in clients)
    acknowledged = len(reads) + len(writes)
    outcome.env.update(
        environment(
            seed,
            "always (server default, group commit)",
            {
                "persons": PERSONS,
                "relationships": PERSONS * RELS_PER_PERSON,
                "clients": CLIENTS,
                "loop": "closed, keep-alive",
                "acknowledged_writes": len(writes),
            },
        )
    )
    report = outcome.report
    report["setup_s"] = Metric(median(setups), "s", len(setups))
    report["stmt_per_s"] = Metric(
        _median_rate(clients, window_start, seconds), "1/s", acknowledged
    )
    report["read_p50_ms"] = Metric(median(reads), "ms", len(reads))
    report["read_p99_ms"] = Metric(percentile(reads, 99), "ms", len(reads))
    report["write_p50_ms"] = Metric(median(writes), "ms", len(writes))
    report["write_p99_ms"] = Metric(percentile(writes, 99), "ms", len(writes))
    # The recorded tails are p90: over ten seeds the p99s spread by a
    # third from run to run (they amplify the machine's slow spells),
    # p50 and p90 far less.
    read_p90 = Metric(percentile(reads, 90), "ms", len(reads), "p90")
    write_p90 = Metric(percentile(writes, 90), "ms", len(writes), "p90")
    report["read_p90_ms"] = read_p90
    report["write_p90_ms"] = write_p90
    report["reopen_s"] = Metric(median(reopens), "s", len(reopens))
    report["rss_mib"] = Metric(rss, "MiB")
    outcome.end_to_end = {
        "setup_s": report["setup_s"],
        "throughput_per_s": report["stmt_per_s"],
        "light_p50_ms": report["read_p50_ms"],
        "light_tail_ms": read_p90,
        "heavy_p50_ms": report["write_p50_ms"],
        "heavy_tail_ms": write_p90,
        "reload_s": report["reopen_s"],
        "rss_mib": report["rss_mib"],
    }
    if traced:
        with open(spans_path.with_suffix(".extra.json"), encoding="utf-8") as handle:
            outcome.layer_extra.update(json.load(handle))
        outcome.layer_extra.update(
            span_files=[spans_path],
            setups=SETUPS,
            reopens=REOPENS,
            writes=len(writes),
            rows=len(writes),
            client_latency_ms_total=sum(reads) + sum(writes),
            client_requests=acknowledged,
        )
    return outcome
