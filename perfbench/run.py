"""quadnmr benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dj-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout that holds src/quadnmr; nothing needs to be
installed. The workloads are cli-cold, dj-sweep, shaped-dj and qseq-compile
(see perfbench/README.md). Every output is checked.

With --trace 0 the driver launches the worker interpreter several times to
time set-up, then lets the last one run the workload for --seconds and
reports the end-to-end metrics. Operation times are scaled by the
machine-speed factors of probe.py and set-up time by a reference import; the
unscaled wall-clock figures are in the run record.
With --trace 1 one worker replays a fixed number of operations through the
public layer functions, with a span around each call, and reports the
per-layer metrics; the spans go to .bench_out/trace-<workload>-<seed>.jsonl.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0 when
a result was printed and 1 when the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

WORKLOADS = ("cli-cold", "dj-sweep", "shaped-dj", "qseq-compile")
SETUP_LAUNCHES = 3
# Set-up time is mostly interpreter start and imports, which the CPU probe of
# probe.py does not follow. A fresh interpreter importing what quadnmr
# imports, but not quadnmr, follows it more closely: each set-up launch comes
# after one of these, and set-up time is scaled by NOMINAL_REFERENCE_S / their
# median.
REFERENCE_IMPORT = "import csv, dataclasses, fractions, re, numpy, scipy.optimize"
# Reference launch seconds on the machine of probe.NOMINAL_PROBE_S.
NOMINAL_REFERENCE_S = 0.5
DEADLINE_S = 170.0
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


class BenchError(RuntimeError):
    """The run could not be made; no result is printed."""


def remaining(deadline: float) -> float:
    left = deadline - monotonic()
    if left <= 0:
        raise BenchError("the run did not finish within its time limit")
    return left


def launch(argv: list[str], env: dict, deadline: float):
    """Start a worker; return it and the seconds until it printed READY."""
    start = perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], remaining(deadline))
        line = proc.stdout.readline() if ready else ""
    except BaseException:
        stop(proc)
        raise
    elapsed = perf_counter() - start
    if line.strip() != "READY":
        stop(proc)
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc, elapsed


def reference_launch(env: dict, deadline: float) -> float:
    start = perf_counter()
    try:
        subprocess.run([sys.executable, "-c", REFERENCE_IMPORT], env=env, cwd=ROOT,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       check=True, timeout=remaining(deadline))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"reference import failed: {exc}") from None
    return perf_counter() - start


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish(proc: subprocess.Popen, command: str, deadline: float) -> str:
    try:
        out, _ = proc.communicate(command + "\n", timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker did not finish within the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.joinpath("quadnmr").rglob("*")):
        if path.suffix in (".py", ".qseq"):
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run(args) -> dict:
    src = ROOT / "src"
    if not (src / "quadnmr" / "__init__.py").is_file():
        raise BenchError(f"{src / 'quadnmr'} is missing: run from a quadnmr checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = monotonic() + DEADLINE_S
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
    pythonpath = [str(src)] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--src", str(src), "--tmp", str(tmp),
            "--spans", str(spans)]
    setup, reference = [], []
    try:
        for i in range(1 if args.trace else SETUP_LAUNCHES):
            if not args.trace:
                reference.append(reference_launch(env, deadline))
            proc, elapsed = launch(argv, env, deadline)
            setup.append(elapsed)
            last = i == (0 if args.trace else SETUP_LAUNCHES - 1)
            out = finish(proc, "GO" if last else "QUIT", deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup) * NOMINAL_REFERENCE_S / \
            statistics.median(reference)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"the worker did not measure {missing}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "cpu": cpu_model(),
              "nproc": len(os.sched_getaffinity(0)), **result["versions"],
              "git_commit": git_commit(), "src_sha256": source_digest(src),
              "samples": {"setup_s": len(setup), "latency_ms": result["samples"],
                          "ops_per_s": result["samples"]},
              "fail_frac": result["failed"] / result["attempted"],
              "problems": result["problems"]}
    if args.trace:
        record["spans"] = result["spans"]
        record["spans_file"] = str(spans.relative_to(ROOT))
    else:
        record["tail_percentile"] = result["tail_percentile"]
        record["wall"] = {**result["wall"], "setup_s": statistics.median(setup)}
        record["speed"] = {**result["speed"],
                           "reference_import_s": statistics.median(reference)}

    print(f"quadnmr benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]!r:>24} {m['unit']}")
    print(f"  {'fail_frac':<40} {record['fail_frac']!r:>24} "
          f"({result['failed']} of {result['attempted']} operations)")
    for problem, count in result["problems"].items():
        print(f"  failed check ({count}x): {problem}")
    print("run record: " + json.dumps(record))
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
