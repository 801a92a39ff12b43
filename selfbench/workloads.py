"""The three benchmark workloads, each phase run in a fresh process.

Every workload has a *cold* phase (fresh process, fresh cache directory)
and a *warm* phase (a new process over the cache the cold phase filled,
as a user re-running the command meets it).  A phase times only host
wall clock inside ``meter.measure()`` blocks, checks the simulator's
outputs against references outside them, and returns raw measurements
for ``run.py`` to pool::

    {"attempted": int, "failed": int,
     "cold": [operations, seconds],             # the cold phase
     "warm": [[operations, seconds], ...],      # one per warm request
     "latency_s": [seconds, ...],     # serve-burst: open-loop latencies
     "serve": {name: [value, unit]}}  # serve-burst: serve-layer figures

``meter`` is a :class:`calltrace.WallMeter` (untraced) or an installed
:class:`calltrace.CallTracer` (traced).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import statistics
import time
from contextlib import contextmanager, nullcontext

from repro.conformance.generator import generate_cases
from repro.conformance.runner import ConformanceRunner
from repro.engine.cache import ResultCache
from repro.engine.executor import SweepEngine, grid_for
from repro.engine.keys import canonical_json
from repro.engine.merge import grid_record, write_grid_jsonl
from repro.experiments.common import SWEEP_PANELS
from repro.hardware.devices import get_gpu
from repro.models.registry import get_model
from repro.serve import service as serve_service
from repro.serve.admission import AdmissionError
from repro.serve.jobs import JobRequest
from repro.serve.service import BenchmarkServer

clock = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS_FILE = os.path.join(HERE, "workloads.json")

#: Share of ``--seconds`` a warm phase spends repeating its requests.
WARM_SHARE = 0.3


def load_workloads() -> dict:
    with open(WORKLOADS_FILE, encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def p50(values) -> float:
    return statistics.median(values)


def p95(values) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


# ----------------------------------------------------------------------
# paper-grid
# ----------------------------------------------------------------------


def cold_grid_order(seed: int) -> list:
    """The paper grid with its panels in seeded order; each panel keeps
    its batch ladder in paper order, so the traces a cold pass pays for
    do not depend on the seed."""
    panels = list(SWEEP_PANELS)
    random.Random(seed).shuffle(panels)
    return grid_for(panels)


def grid_record_digests(specs, points) -> list:
    """sha256 of each canonical JSONL line, in the order given."""
    return [
        sha256(canonical_json(grid_record(spec, point)))
        for spec, point in zip(specs, points)
    ]


def check_grid(specs, points, reference: dict, scratch: str) -> int:
    """Failed points of one pass: lines of the JSONL file that
    ``write_grid_jsonl`` writes (``specs`` in canonical grid order) that
    miss their reference digest; at least one when the whole file does."""
    path = os.path.join(scratch, "grid.jsonl")
    write_grid_jsonl(path, specs, points)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    lines = text.splitlines()
    failed = sum(
        1
        for got, want in zip(lines, reference["record_sha256"])
        if sha256(got) != want
    )
    failed += abs(len(lines) - len(reference["record_sha256"]))
    if sha256(text) != reference["jsonl_sha256"]:
        failed = max(failed, 1)
    return failed


def paper_grid(phase, seed, seconds, meter, cache_dir, scratch) -> dict:
    reference = load_workloads()["paper-grid"]
    canonical = grid_for(SWEEP_PANELS)
    result = {"attempted": 0, "failed": 0}

    def one_pass(order, cold: bool, measure) -> float:
        engine = SweepEngine(jobs=1, cache=ResultCache(cache_dir))
        with measure():
            start = clock()
            points = engine.run_grid(order)
            elapsed = clock() - start
        stats = engine.stats
        expected = (0, len(order)) if cold else (len(order), 0)
        if (stats.cache_hits, stats.points_computed) != expected:
            raise RuntimeError(
                f"a {phase} pass had {stats.cache_hits} cache hits and "
                f"{stats.points_computed} points computed, not {expected}"
            )
        by_spec = dict(zip(order, points))
        result["attempted"] += len(order)
        result["failed"] += check_grid(
            canonical, [by_spec[spec] for spec in canonical], reference, scratch
        )
        return elapsed

    if phase == "cold":
        cold_s = one_pass(cold_grid_order(seed), True, meter.measure)
        result["cold"] = [len(canonical), cold_s]
        return result
    # The first warm pass pays the code fingerprint, which set-up time
    # already reports; it is checked but not timed.
    one_pass(canonical, False, nullcontext)
    rng = random.Random(seed)
    warm_s = []
    phase_start = clock()
    while clock() - phase_start < WARM_SHARE * seconds:
        order = list(canonical)
        rng.shuffle(order)
        warm_s.append(one_pass(order, False, meter.measure))
    result["warm"] = [[len(canonical), elapsed] for elapsed in warm_s]
    return result


# ----------------------------------------------------------------------
# conformance-fuzz
# ----------------------------------------------------------------------


def report_failures(text: str, report, reference: dict, fuzz_seed: int) -> int:
    """Failed checks of one conformance run: its violations, or every
    check when the report's bytes miss the committed digest."""
    want = reference["report_sha256"].get(str(fuzz_seed))
    if want is not None and sha256(text) != want:
        return report.checked_total
    return len(report.violations)


def conformance_fuzz(phase, seed, seconds, meter, cache_dir, scratch,
                     fuzz_seed=None) -> dict:
    reference = load_workloads()["conformance-fuzz"]
    fuzz_seed = reference["default_seed"] if fuzz_seed is None else fuzz_seed
    budget = reference["budget"]
    runner = ConformanceRunner(
        seed=fuzz_seed,
        budget=budget,
        include_grid=False,
        jobs=1,
        cache=ResultCache(cache_dir),
    )
    if phase == "cold":
        with meter.measure():
            start = clock()
            report = runner.run()
            cold_s = clock() - start
        return {
            "attempted": report.checked_total,
            "failed": report_failures(report.to_json(), report, reference, fuzz_seed),
            "cold": [report.fuzz_cases, cold_s],
        }

    # Warm phase: re-check every fuzzed case against the filled cache, in
    # seeded order -- the unit operation the shrinker repeats.  The first
    # round is checked but not timed.
    cases = generate_cases(fuzz_seed, budget)
    rng = random.Random(seed)
    result = {"attempted": 0, "failed": 0}
    recheck_s = []

    def recheck(case) -> float:
        start = clock()
        try:
            fired = runner.violates(case.relation, case.spec, case.gpu)
        except Exception:
            fired = True
        elapsed = clock() - start
        result["attempted"] += 1
        result["failed"] += bool(fired)
        return elapsed

    for case in cases:
        recheck(case)
    with meter.measure():
        phase_start = clock()
        while clock() - phase_start < WARM_SHARE * seconds:
            order = list(cases)
            rng.shuffle(order)
            recheck_s.extend(recheck(case) for case in order)
    result["warm"] = [[1, elapsed] for elapsed in recheck_s]
    return result


# ----------------------------------------------------------------------
# serve-burst
# ----------------------------------------------------------------------

#: Light interactive configs, each a single point at the model's
#: reference batch, drawn with repeats: after the first second or so
#: every draw is a cache hit or coalesces with one in flight.
LIGHT_CONFIGS = (
    ("a3c", "mxnet"),
    ("wgan", "tensorflow"),
    ("transformer", "tensorflow"),
    ("resnet-50", "tensorflow"),
    ("resnet-50", "mxnet"),
    ("resnet-50", "cntk"),
)

#: Heavy batch-class sweeps: (share of the send window, request).
HEAVY_JOBS = (
    (0.20, JobRequest("sweep", "deep-speech-2", "mxnet")),
    (0.45, JobRequest("sweep", "nmt", "tensorflow")),
    (0.65, JobRequest("sweep", "inception-v3", "cntk")),
    (0.85, JobRequest("sweep", "resnet-50", "mxnet", gpu="titan xp")),
)


class DirectRecords:
    """Each request's records computed directly by an uncached engine:
    the reference every served result must equal byte for byte.  The
    cold phase saves them next to the cache for the warm phase."""

    def __init__(self, path=None):
        self.path = path
        self._records = {}
        if path is not None and os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                self._records = json.load(handle)

    def save(self) -> None:
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(self._records, handle)

    def expected(self, request) -> str:
        key = canonical_json(request.to_doc())
        if key not in self._records:
            specs = request.point_specs()
            engine = SweepEngine(jobs=1, cache=None, gpu=get_gpu(request.gpu))
            self._records[key] = canonical_json(
                [grid_record(s, p) for s, p in zip(specs, engine.run_grid(specs))]
            )
        return self._records[key]

    def matches(self, request, result) -> bool:
        """``result`` is a ``done`` document, or ``None`` for a job that
        was rejected or failed."""
        return result is not None and (
            canonical_json(result["records"]) == self.expected(request)
        )


class Sent:
    """One scheduled request and what the benchmark saw of it."""

    def __init__(self, due, request, tenant, priority):
        self.due = due
        self.request = request
        self.tenant = tenant
        self.priority = priority
        self.sent = None
        self.job_id = None
        self.rejected = False
        self.coalesced = False
        self.received = None
        self.terminal = None
        self.task = None


def serve_schedule(seed: int, seconds: float, rate: float, tenants: int) -> list:
    """The open-loop send schedule: light interactive requests at a fixed
    rate (config and tenant drawn from ``seed``) plus the heavy
    batch-class sweeps at fixed offsets."""
    rng = random.Random(seed)
    plan = []
    for index in range(int(rate * seconds)):
        model, framework = rng.choice(LIGHT_CONFIGS)
        batch = get_model(model).reference_batch
        request = JobRequest("sweep", model, framework, batch_sizes=(batch,))
        tenant = f"tenant-{rng.randrange(tenants)}"
        plan.append(Sent(index / rate, request, tenant, "interactive"))
    for share, request in HEAVY_JOBS:
        plan.append(Sent(share * seconds, request, "tenant-batch", "batch"))
    plan.sort(key=lambda item: item.due)
    return plan


@contextmanager
def stamped_events(published: dict):
    """Stamp each job event where the server publishes it, into
    ``published[job_id][kind]``.  A client receives events only when the
    loop is free, which a heavy point computed inline delays; queue wait
    and service time need the server-side instants."""
    publish = serve_service._Execution.publish

    def stamped(execution, event):
        published.setdefault(event.job_id, {}).setdefault(event.kind, clock())
        publish(execution, event)

    serve_service._Execution.publish = stamped
    try:
        yield
    finally:
        serve_service._Execution.publish = publish


async def _consume(handle, item: Sent) -> None:
    async for event in handle.events():
        if event.terminal:
            item.received = clock()
            item.terminal = event


async def _burst(server, plan, start: float) -> None:
    """Send every request on schedule, whatever the server is doing."""
    for item in plan:
        delay = start + item.due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        item.sent = clock()
        try:
            handle = await server.submit(
                item.request, tenant=item.tenant, priority=item.priority
            )
        except AdmissionError:
            item.rejected = True
            continue
        item.job_id = handle.job_id
        item.coalesced = handle.coalesced
        item.task = asyncio.create_task(_consume(handle, item))
    await asyncio.gather(*(item.task for item in plan if item.task is not None))


async def _replay(server, plan) -> list:
    """Closed-loop re-submission of every request."""
    results = []
    for item in plan:
        handle = await server.submit(
            item.request, tenant=item.tenant, priority=item.priority
        )
        try:
            results.append(await handle.result())
        except RuntimeError:  # the job ended ``failed``
            results.append(None)
    return results


def serve_burst(phase, seed, seconds, meter, cache_dir, scratch) -> dict:
    config = load_workloads()["serve-burst"]
    plan = serve_schedule(seed, seconds, config["rate_per_s"], config["tenants"])
    direct = DirectRecords(f"{cache_dir}.records.json")
    if phase == "cold":
        return _serve_cold(plan, meter, cache_dir, direct)

    # Warm phase: a restarted server over the filled cache, replaying the
    # burst's requests closed-loop; the first replay is checked, untimed.
    result = {"attempted": 0, "failed": 0, "warm": []}

    async def main():
        async with BenchmarkServer(cache_dir=cache_dir) as server:
            untimed = True
            phase_start = clock()
            while untimed or clock() - phase_start < WARM_SHARE * seconds:
                with nullcontext() if untimed else meter.measure():
                    start = clock()
                    results = await _replay(server, plan)
                    elapsed = clock() - start
                if not untimed:
                    result["warm"].append([len(plan), elapsed])
                untimed = False
                result["attempted"] += len(plan)
                result["failed"] += sum(
                    not direct.matches(item.request, served)
                    for item, served in zip(plan, results)
                )

    asyncio.run(main())
    return result


def _serve_cold(plan, meter, cache_dir, direct) -> dict:
    published = {}
    outcome = {}

    async def main():
        async with BenchmarkServer(cache_dir=cache_dir) as server:
            with meter.measure(), stamped_events(published):
                outcome["start"] = clock()
                await _burst(server, plan, outcome["start"])
            outcome["server"] = server

    asyncio.run(main())
    server, start = outcome["server"], outcome["start"]
    failed = 0
    for item in plan:
        event = item.terminal
        served = event.data if event is not None and event.kind == "done" else None
        failed += not direct.matches(item.request, served)
    direct.save()

    done = [item for item in plan if item.terminal is not None]
    last_terminal = max(item.received for item in done)

    def latencies(priority):
        return [
            item.received - (start + item.due)
            for item in done
            if item.priority == priority and item.terminal.kind == "done"
        ]

    primaries = [published[item.job_id] for item in done if not item.coalesced]
    queue_wait = [stamps["started"] - stamps["queued"] for stamps in primaries]
    service = [
        stamps.get("done", stamps.get("failed")) - stamps["started"]
        for stamps in primaries
    ]
    lag = [item.sent - (start + item.due) for item in plan]
    return {
        "attempted": len(plan),
        "failed": failed,
        "cold": [len(done), last_terminal - start],
        "latency_s": latencies("interactive"),
        "serve": {
            "serve.heavy_job_s_p50": [p50(latencies("batch")), "s"],
            "serve.lag_ms_p95": [1e3 * p95(lag), "ms"],
            "serve.drain_s": [last_terminal - (start + plan[-1].due), "s"],
            "serve.queue_wait_ms_p95": [1e3 * p95(queue_wait), "ms"],
            "serve.service_ms_p95": [1e3 * p95(service), "ms"],
            "serve.coalesced": [server.jobs_coalesced, "count"],
            "serve.rejected": [sum(item.rejected for item in plan), "count"],
            "serve.shardcache.evictions": [server.cache.evictions, "count"],
        },
    }


WORKLOADS = {
    "paper-grid": paper_grid,
    "conformance-fuzz": conformance_fuzz,
    "serve-burst": serve_burst,
}
