"""Shared helpers: percentiles, peak RSS, the work directory, results."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

#: the checkout the benchmark runs from (parent of ``perfbench/``)
ROOT = Path(__file__).resolve().parents[1]
#: everything a run writes lives here (listed in .gitignore)
WORK = ROOT / ".bench_work"


class CheckFailed(Exception):
    """A correctness or durability check found a wrong output."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile(samples: list[float], pct: int) -> float:
    """The *pct*-th percentile (inclusive method) of *samples*."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def median(samples: list[float]) -> float:
    return statistics.median(samples)


def self_rss_mib() -> float:
    """Peak resident set of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def pid_rss_mib(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise CheckFailed(f"no VmHWM for pid {pid}")


def fresh_dir(name: str) -> Path:
    """An empty directory under the work directory."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def environment(seed: int, fsync: str, sizes: dict) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "fsync": fsync,
        "sizes": sizes,
    }


@dataclass
class Metric:
    value: float
    unit: str
    #: samples behind the value (1 for a single measurement)
    samples: int = 1
    note: str = ""


@dataclass
class Outcome:
    """What one workload run measured.

    ``report`` holds every metric by its descriptive name (printed with
    unit and sample count); ``end_to_end`` the contract names that the
    last output line carries.
    """

    attempted: int = 0
    failed: int = 0
    report: dict[str, Metric] = field(default_factory=dict)
    end_to_end: dict[str, Metric] = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    #: traced runs: what the per-layer metrics need beyond the spans
    layer_extra: dict = field(default_factory=dict)


class Stopwatch:
    """Accumulates the wall time of the timed segments of a run."""

    def __init__(self) -> None:
        self.total = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.total += time.perf_counter() - self._start
        return False


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def statement_span(tracer):
    """The root span of one timed statement (a no-op when untraced)."""
    return tracer.span("statement") if tracer is not None else nullcontext()
