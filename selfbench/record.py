"""Recompute the correctness references in ``selfbench/workloads.json``.

    PYTHONPATH=src python3 selfbench/record.py

Writes the paper grid's canonical-JSONL digests, the conformance report
digest for the default and hold-out fuzz seeds, and the environment
fingerprint (``repro.bench.store.environment_fingerprint``) they were
recorded under.  The simulator's outputs are deterministic, so a later
recording must reproduce every digest; only the fingerprint moves when
the code does.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from repro.bench.store import environment_fingerprint  # noqa: E402
from repro.conformance.runner import ConformanceRunner  # noqa: E402
from repro.engine.cache import ResultCache  # noqa: E402
from repro.engine.executor import SweepEngine, grid_for  # noqa: E402
from repro.engine.merge import write_grid_jsonl  # noqa: E402
from repro.experiments.common import SWEEP_PANELS  # noqa: E402

from workloads import WORKLOADS_FILE, grid_record_digests, sha256  # noqa: E402


def main() -> int:
    with open(WORKLOADS_FILE, encoding="utf-8") as handle:
        document = json.load(handle)
    workloads = document["workloads"]
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        specs = grid_for(SWEEP_PANELS)
        points = SweepEngine(jobs=1, cache=None, symbolic=False).run_grid(specs)
        path = os.path.join(scratch, "grid.jsonl")
        write_grid_jsonl(path, specs, points)
        with open(path, encoding="utf-8") as handle:
            workloads["paper-grid"]["jsonl_sha256"] = sha256(handle.read())
        workloads["paper-grid"]["record_sha256"] = grid_record_digests(specs, points)

        fuzz = workloads["conformance-fuzz"]
        digests = {}
        for seed in (fuzz["default_seed"], fuzz["holdout_seed"]):
            report = ConformanceRunner(
                seed=seed,
                budget=fuzz["budget"],
                include_grid=False,
                jobs=1,
                cache=ResultCache(os.path.join(scratch, f"fuzz-{seed}")),
            ).run()
            if not report.ok:
                raise SystemExit(f"conformance seed {seed}: {report.render()}")
            digests[str(seed)] = sha256(report.to_json())
        fuzz["report_sha256"] = digests
    document["environment"] = environment_fingerprint()
    with open(WORKLOADS_FILE, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
