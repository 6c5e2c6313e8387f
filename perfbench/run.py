"""The repository benchmark: ``python3 perfbench/run.py``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-oltp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload merge-import --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --all --seed 1 --seconds 20

Each run builds its inputs from ``--seed``, sets up, measures for
``--seconds``, checks every output, prints every metric by name with
its unit and sample count, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` first runs
the same workload and seed untraced in a child process, then again
with spans at every layer boundary, and reports the per-layer metrics
together with the tracing overhead (traced minus untraced end-to-end
values).  A failed check exits with status 1, a missing program with
status 2.  ``perfbench/DESIGN.md`` records why each workload exists and
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import traceback

from common import ROOT, WORK, CheckFailed, Metric, log

WORKLOADS = ("serve-oltp", "merge-import", "analytic-read")

#: contract order of the end-to-end metrics
END_TO_END = (
    "setup_s",
    "throughput_per_s",
    "light_p50_ms",
    "light_tail_ms",
    "heavy_p50_ms",
    "heavy_tail_ms",
    "reload_s",
    "rss_mib",
)


def _workload_module(name: str):
    if name == "serve-oltp":
        import serve_oltp as module
    elif name == "merge-import":
        import merge_import as module
    else:
        import analytic_read as module
    return module


def _format(metric: Metric) -> str:
    note = f", {metric.note}" if metric.note else ""
    return f"{metric.value:.6g} {metric.unit} (n={metric.samples}{note})"


def _json_metrics(metrics: dict[str, Metric]) -> dict:
    return {
        name: {"value": metric.value, "unit": metric.unit}
        for name, metric in metrics.items()
    }


def _untraced_child(args) -> dict:
    """End-to-end metrics of the same run without tracing."""
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    if completed.returncode != 0:
        raise CheckFailed(
            f"untraced reference run failed:\n{completed.stderr[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]


def run_one(args) -> int:
    tracer = None
    untraced = None
    module = _workload_module(args.workload)
    try:
        if args.trace:
            from tracer import Tracer, install

            untraced = _untraced_child(args)
            tracer = Tracer()
            install(tracer)
        outcome = module.run(args.seed, args.seconds, tracer)
        missing = [name for name in END_TO_END if name not in outcome.end_to_end]
        if missing:
            raise CheckFailed(f"no samples for {', '.join(missing)}")
    except CheckFailed as failure:
        log(f"CHECK FAILED [{args.workload} seed {args.seed}]: {failure}")
        print(
            json.dumps(
                {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            )
        )
        return 1

    print(f"[{args.workload}] environment: {json.dumps(outcome.env)}")
    failed_ratio = outcome.failed / max(outcome.attempted, 1)
    print(f"[{args.workload}] failed_ratio = {failed_ratio:.6g} ratio "
          f"(n={outcome.attempted})")
    for name, metric in outcome.report.items():
        print(f"[{args.workload}] {name} = {_format(metric)}")
    for name in END_TO_END:
        print(f"[{args.workload}] e2e {name} = "
              f"{_format(outcome.end_to_end[name])}")
    metrics = {name: outcome.end_to_end[name] for name in END_TO_END}
    if tracer is not None:
        import layers

        spans_path = WORK / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        spans, counts = list(tracer.spans), dict(tracer.counts)
        files = [spans_path, *outcome.layer_extra.pop("span_files", ())]
        for path in files[1:]:
            from tracer import read_spans

            offset = max((span[0] for span in spans), default=0)
            more_spans, more_counts = read_spans(path, offset)
            spans.extend(more_spans)
            for key, value in more_counts.items():
                counts[key] = counts.get(key, 0) + value
        per_layer = layers.compute(spans, counts, outcome.layer_extra)
        print(f"[{args.workload}] {len(spans)} spans written to "
              f"{', '.join(str(path.relative_to(ROOT)) for path in files)}")
        for name, metric in per_layer.items():
            kind = "exact" if name in layers.EXACT else "timing"
            print(f"[{args.workload}] layer {name} = {_format(metric)} "
                  f"[{kind}]")
        for name in END_TO_END:
            delta = outcome.end_to_end[name].value - untraced[name]["value"]
            print(f"[{args.workload}] overhead {name} = {delta:+.6g} "
                  f"{untraced[name]['unit']} (traced "
                  f"{outcome.end_to_end[name].value:.6g}, untraced "
                  f"{untraced[name]['value']:.6g})")
        metrics = {name: per_layer[name] for name in layers.RECORDED}
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": _json_metrics(metrics),
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"perfbench: no program under {ROOT / 'src'}; run from the "
            f"root of a full checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.all:
        status = 0
        for name in WORKLOADS:
            child = [sys.executable, __file__, "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)]
            status |= subprocess.run(child, cwd=ROOT).returncode
        return status
    try:
        return run_one(args)
    except Exception:  # noqa: BLE001 - report, never print a result
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
