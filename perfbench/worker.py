"""One benchmark worker: a fresh interpreter that imports quadnmr, runs one
untimed warm-up operation, prints READY and waits for GO (or QUIT) on stdin.

After GO it runs the workload as a closed loop with one client and no
threads, then prints its measurements as one JSON line. run.py starts it and
reports the result; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from itertools import islice
from pathlib import Path
from time import perf_counter

import numpy as np

import quadnmr
from probe import WINDOW, SpeedMeter
from workloads import COUNTS, LAYERS, REPLAY_TOL, WORKLOADS, Tracer, read_importtime

IMPORT_SAMPLES = 3


def attempt(workload, op):
    """Run one operation untraced; return (output, seconds, problems)."""
    start = perf_counter()
    try:
        out = workload.run(op)
    except Exception as exc:
        return None, perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"]
    elapsed = perf_counter() - start
    try:
        problems = workload.check(op, out)
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return out, elapsed, problems


def min_samples(tail: float) -> int:
    """The fewest samples that leave ten beyond the tail percentile."""
    return math.ceil(10.0 / (1.0 - tail / 100.0) - 1e-9)


def latency_summary(latencies: list[float], tail: float) -> dict:
    n = len(latencies)
    return {"ops_per_s": n / sum(latencies),
            "latency_ms.p50": float(np.percentile(latencies, 50.0)) * 1e3,
            "latency_ms.tail": float(np.percentile(latencies, tail)) * 1e3,
            "tail_percentile": tail, "samples": n}


def untraced(workload, seconds: float) -> dict:
    """The closed loop. Speed probes between the operations scale each
    latency (probe.py); the wall-clock figures are kept too."""
    latencies, marks, problems = [], [], Counter()
    failed = 0
    ops = workload.ops()
    meter = SpeedMeter()
    meter.probe(WINDOW)
    end = perf_counter() + seconds
    while perf_counter() < end or len(latencies) < min_samples(workload.tail):
        marks.append(len(meter.samples))
        _, elapsed, found = attempt(workload, next(ops))
        latencies.append(elapsed)
        failed += bool(found)
        problems.update(found)
        meter.catch_up()
    meter.probe(WINDOW)
    scaled = [lat * meter.local_factor(mark) for lat, mark in zip(latencies, marks)]
    summary = latency_summary(scaled, workload.tail)
    wall = latency_summary(latencies, workload.tail)
    return {"attempted": len(latencies), "failed": failed,
            "problems": dict(problems.most_common(5)),
            "tail_percentile": summary.pop("tail_percentile"),
            "samples": summary.pop("samples"), "metrics": summary,
            "wall": {k: wall[k] for k in summary},
            "speed": {"factor": meter.factor(), "probes": len(meter.samples)}}


def import_times(samples: int) -> dict[str, float]:
    """Median cumulative import seconds from ``-X importtime`` in fresh
    interpreters."""
    runs = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import quadnmr"], capture_output=True, text=True,
                              stdin=subprocess.DEVNULL, timeout=60, check=True)
        runs.append(read_importtime(proc.stderr))
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


def traced(workload, spans_path: Path) -> dict:
    """Run the first trace_ops operations untraced, replaying each one traced."""
    tracer = Tracer()
    latencies, traced_latencies, problems = [], [], Counter()
    relax_latencies: dict[bool, list[float]] = {False: [], True: []}
    failed = 0
    max_dev = 0.0
    for op_id, op in enumerate(islice(workload.ops(), workload.trace_ops)):
        out, elapsed, found = attempt(workload, op)
        latencies.append(elapsed)
        if op.get("relax") is not None:
            relax_latencies[op["relax"]].append(elapsed)
        if out is not None:
            tracer.op_id = op_id
            start = perf_counter()
            try:
                with tracer.span("op"):
                    dev = workload.replay(op, out, tracer)
            except Exception as exc:
                found = found + [f"replay: {type(exc).__name__}: {exc}"]
                dev = float("inf")
            traced_latencies.append(perf_counter() - start)
            max_dev = max(max_dev, dev)
            if dev > REPLAY_TOL:
                found = found + [f"replay deviates by {dev:g}"]
        failed += bool(found)
        problems.update(found)

    with open(spans_path, "w") as fh:
        for name, start, end, parent, op_id, raised in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op_id,
                                 "error": raised}) + "\n")

    layers = tracer.layers()
    zero = {"calls": 0, "errors": 0, "busy_s": 0.0, "total_s": 0.0}
    metrics: dict[str, float] = {}
    for name, can_raise in LAYERS.items():
        agg = layers.get(name, zero)
        metrics[f"{name}.busy_s"] = agg["busy_s"]
        metrics[f"{name}.calls"] = agg["calls"]
        if can_raise:
            metrics[f"{name}.errors"] = agg["errors"]
    for name in COUNTS:
        metrics[name] = tracer.counts[name]
    imports = import_times(IMPORT_SAMPLES)
    metrics["import.quadnmr_s"] = imports["quadnmr"]
    metrics["import.scipy_s"] = imports["scipy"]
    process_s = layers.get("cli.process", zero)["total_s"]
    metrics["cli.import_share"] = tracer.counts["cli.import_s"] / process_s \
        if process_s else 0.0
    metrics["cli.compute_s"] = layers.get("cli.compute", zero)["total_s"]
    metrics["cli.csv_s"] = layers.get("cli.csv", zero)["total_s"]
    on, off = relax_latencies[True], relax_latencies[False]
    metrics["relaxation.extra_ms"] = \
        (statistics.median(on) - statistics.median(off)) * 1e3 if on and off else 0.0
    untraced_rate = len(latencies) / sum(latencies)
    traced_rate = len(traced_latencies) / sum(traced_latencies) \
        if traced_latencies else 0.0
    metrics["trace.ops"] = len(latencies)
    metrics["trace.ops_per_s_untraced"] = untraced_rate
    metrics["trace.ops_per_s_traced"] = traced_rate
    metrics["trace.overhead_ratio"] = traced_rate / untraced_rate
    metrics["trace.replay_max_dev"] = max_dev
    return {"attempted": len(latencies), "failed": failed,
            "problems": dict(problems.most_common(5)),
            "samples": len(latencies), "spans": len(tracer.spans),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    expected = (args.src / "quadnmr").resolve()
    if Path(quadnmr.__file__).resolve().parent != expected:
        print(f"quadnmr was imported from {quadnmr.__file__}, not {expected}",
              file=sys.stderr)
        return 1
    args.tmp.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.tmp)
    workload.warm_up()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 0

    try:
        result = traced(workload, args.spans) if args.trace \
            else untraced(workload, args.seconds)
    except Exception:
        traceback.print_exc()
        return 1
    # For cli-cold the memory that matters is the largest quadnmr process.
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" \
        else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    # read from package metadata: importing scipy here would add to setup_s
    # once quadnmr no longer imports it
    from importlib.metadata import version
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": version("numpy"), "scipy": version("scipy")}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
