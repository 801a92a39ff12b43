"""Host wall-clock benchmark of the simulator and its toolchain.

    python3 selfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Workloads (``selfbench/workloads.json`` says why each was chosen):

- ``paper-grid``: the 60-point Figs. 4-6 grid through a default
  ``SweepEngine``: a cold pass into a fresh cache, then warm passes.
- ``conformance-fuzz``: the ``ConformanceRunner`` fuzz phase at a pinned
  fuzz seed and budget, then warm re-checks of each fuzzed case.
- ``serve-burst``: an open-loop burst of interactive and heavy sweeps
  against an in-process ``BenchmarkServer``, then closed-loop replays
  against a server restarted over the filled cache.

Each phase runs in a fresh worker process: ``COLD_PROCESSES`` cold
phases, each over a fresh cache, then one warm phase over the first
cache, then ``SETUP_PROBES`` set-up probes.  ``--trace 1`` runs the
phases a second time with the call tracer installed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  End-to-end figures come only from untraced workers.

Exits 2 without a result when the program source is missing, and 1 when
a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calltrace import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src", "repro", "__init__.py")
SCRATCH_ROOT = os.path.join(ROOT, ".selfbench-tmp")

WORKLOADS = ("paper-grid", "conformance-fuzz", "serve-burst")

#: Fresh-process set-ups per run; the first extra one is discarded (it
#: pays for the file-system cache).
SETUP_PROBES = 3

#: Cold-phase worker processes per measurement, each with a fresh cache.
#: The paper grid's cold pass is one ~10 s sample, and host speed on a
#: shared machine drifts by ~20% over such a window: two processes
#: average two windows.  The warm phase runs once, over the first cache.
COLD_PROCESSES = {"paper-grid": 2, "conformance-fuzz": 1, "serve-burst": 1}

#: Seconds one worker may take before it is killed.
WORKER_TIMEOUT_S = 170.0

#: Serve-layer figures measured by the untraced workers; zero elsewhere.
SERVE_METRICS = (
    ("serve.heavy_job_s_p50", "s"),
    ("serve.lag_ms_p95", "ms"),
    ("serve.drain_s", "s"),
    ("serve.queue_wait_ms_p95", "ms"),
    ("serve.service_ms_p95", "ms"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.shardcache.evictions", "count"),
)


class WorkerError(RuntimeError):
    pass


def _worker(scratch: str, *extra, timeout=WORKER_TIMEOUT_S) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TBD_CACHE_DIR"] = os.path.join(scratch, "tbd-cache")
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        *extra,
        "--scratch",
        tempfile.mkdtemp(dir=scratch),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{' '.join(extra)}: no result in {timeout} s") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise WorkerError(f"{' '.join(extra)}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(args, scratch: str) -> float:
    """Median set-up time of fresh processes, from spawn to ready."""
    samples = []
    for index in range(SETUP_PROBES + 1):
        start = time.monotonic()
        ready = _worker(scratch, "probe", args.workload)["ready"]
        if index:
            samples.append(ready - start)
    return statistics.median(samples)


def _phase_args(args, phase: str, cache_dir: str, trace: int) -> list:
    extra = [
        phase, args.workload,
        "--cache-dir", cache_dir,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.fuzz_seed is not None:
        extra += ["--fuzz-seed", str(args.fuzz_seed)]
    return extra


def _workers(args, scratch: str, trace: int) -> list:
    """Cold phases, each over a fresh cache, then the warm phase."""
    caches = [
        os.path.join(tempfile.mkdtemp(dir=scratch), "cache")
        for _ in range(COLD_PROCESSES[args.workload])
    ]
    results = [
        _worker(scratch, *_phase_args(args, "cold", cache, trace))
        for cache in caches
    ]
    results.append(
        _worker(scratch, *_phase_args(args, "warm", caches[0], trace))
    )
    return results


def latencies(results: list) -> list:
    """Per-request latencies: the open-loop burst's where there is one,
    else every warm request's."""
    open_loop = [value for r in results for value in r.get("latency_s", ())]
    return open_loop or [elapsed for r in results for _, elapsed in r.get("warm", ())]


def _rate(samples) -> float:
    samples = list(samples)
    return sum(ops for ops, _ in samples) / sum(seconds for _, seconds in samples)


def pooled(results: list) -> dict:
    """End-to-end figures over every untraced worker of one run."""
    return {
        "peak_rss_mb": [max(r["peak_rss_mb"] for r in results), "MB"],
        "cold_ops_per_s": [_rate(r["cold"] for r in results if "cold" in r), "1/s"],
        "warm_ops_per_s": [
            _rate(sample for r in results for sample in r.get("warm", ())),
            "1/s",
        ],
    }


def declared_metrics(trace: int) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]


def measure(args, scratch: str) -> dict:
    untraced = _workers(args, scratch, 0)
    attempted = sum(r["attempted"] for r in untraced)
    failed = sum(r["failed"] for r in untraced)
    untraced_wall = sum(r["wall_s"] for r in untraced)
    if not args.trace:
        metrics = pooled(untraced)
        metrics["setup_s"] = [setup_seconds(args, scratch), "s"]
        metrics["ok_frac"] = [(attempted - failed) / attempted, "ratio"]
    else:
        traced = _workers(args, scratch, 1)
        attempted += sum(r["attempted"] for r in traced)
        failed += sum(r["failed"] for r in traced)
        kept = {
            key: sum(r["kept"][key] for r in traced) for key in traced[0]["kept"]
        }
        metrics = {
            name: list(value) for name, value in layer_metrics(kept).items()
        }
        # Per-request latency quantiles flip with a shared host's
        # contention (up to 1.6x for seconds at a time) too far to carry a
        # bound; they are reported here, from untraced workers, without one.
        request_s = latencies(untraced)
        p95 = statistics.quantiles(request_s, n=20, method="inclusive")[18]
        metrics["latency_ms_p50"] = [1e3 * statistics.median(request_s), "ms"]
        metrics["latency_ms_p95"] = [1e3 * p95, "ms"]
        serve = untraced[0].get("serve", {})  # the serve-burst cold phase
        for name, unit in SERVE_METRICS:
            metrics[name] = serve.get(name, [0, unit])
        metrics["trace.untraced_wall_s"] = [untraced_wall, "s"]
        metrics["trace.overhead_s"] = [
            sum(r["wall_s"] for r in traced) - untraced_wall, "s"
        ]
    declared = declared_metrics(args.trace)
    if sorted(metrics) != sorted(declared):
        raise WorkerError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(metrics))}, undeclared "
            f"{sorted(set(metrics) - set(declared))}"
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in declared
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fuzz-seed", type=int, default=None,
        help="conformance-fuzz only: override the pinned fuzz seed "
        "(e.g. with the hold-out seed of workloads.json)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(SOURCE):
        print(f"selfbench: program source {SOURCE} is missing", file=sys.stderr)
        return 2
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT)
    try:
        result = measure(args, scratch)
    except WorkerError as exc:
        print(f"selfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)
        except OSError:
            pass
    for name, metric in result["metrics"].items():
        print(f"{args.workload:18s} {name:44s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        f"{args.workload:18s} correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
