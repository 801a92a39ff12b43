"""One fresh process of the benchmark: a set-up probe or a workload run.

    python3 selfbench/worker.py probe <workload> --scratch DIR
    python3 selfbench/worker.py cold|warm <workload> --cache-dir DIR
        --seed N --seconds S --trace 0|1 --scratch DIR [--fuzz-seed N]

Both print one JSON object as their last line.  ``run.py`` starts them
with ``src`` on ``PYTHONPATH`` so each measures a cold interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def probe(workload: str, scratch: str) -> dict:
    """Set-up as a user of the workload pays it: imports, construction of
    the engine / runner / server, and the first code fingerprint (the
    first cache key).  Reports when it was ready on the system-wide
    monotonic clock, so the parent can measure from process start."""
    from repro.engine.keys import point_key

    if workload == "paper-grid":
        from repro.engine.cache import ResultCache
        from repro.engine.executor import SweepEngine, grid_for
        from repro.experiments.common import SWEEP_PANELS

        SweepEngine(jobs=1, cache=ResultCache(scratch))
        spec = grid_for(SWEEP_PANELS)[0]
    elif workload == "conformance-fuzz":
        from repro.conformance.generator import generate_cases
        from repro.conformance.runner import ConformanceRunner
        from repro.engine.cache import ResultCache

        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "workloads.json"), encoding="utf-8") as handle:
            fuzz = json.load(handle)["workloads"]["conformance-fuzz"]
        seed, budget = fuzz["default_seed"], fuzz["budget"]
        ConformanceRunner(seed=seed, budget=budget, include_grid=False, jobs=1,
                          cache=ResultCache(scratch))
        spec = generate_cases(seed, budget)[0].spec
    else:
        from repro.serve.jobs import JobRequest
        from repro.serve.service import BenchmarkServer

        BenchmarkServer(cache_dir=scratch)
        (spec,) = JobRequest("sweep", "a3c", "mxnet", batch_sizes=(8,)).point_specs()
    point_key(spec.model, spec.framework, spec.batch_size)
    return {"ready": time.monotonic()}


def run(args) -> dict:
    import resource

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    from calltrace import CallTracer, WallMeter
    from workloads import WORKLOADS

    meter = CallTracer().install() if args.trace else WallMeter()
    kwargs = {}
    if args.workload == "conformance-fuzz":
        kwargs["fuzz_seed"] = args.fuzz_seed
    result = WORKLOADS[args.workload](
        args.mode, args.seed, args.seconds, meter, args.cache_dir, args.scratch,
        **kwargs,
    )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["wall_s"] = meter.wall_s
    if args.trace:
        result["kept"] = meter.kept
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "cold", "warm"))
    parser.add_argument("workload")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--cache-dir")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fuzz-seed", type=int, default=None)
    args = parser.parse_args(argv)
    if args.mode == "probe":
        document = probe(args.workload, args.scratch)
    else:
        document = run(args)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
