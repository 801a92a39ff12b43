"""Self-tests of the benchmark: its correctness checks catch a changed
output, and its call tracer charges time to the right layer.

    PYTHONPATH=src python3 -m pytest selfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calltrace import LAYER_NAMES, CallTracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    DirectRecords,
    check_grid,
    load_workloads,
    report_failures,
    sha256,
)

from repro.engine.cache import ResultCache  # noqa: E402
from repro.engine.executor import PointSpec, SweepEngine, grid_for  # noqa: E402
from repro.experiments.common import SWEEP_PANELS  # noqa: E402
from repro.hardware.roofline import RooflineModel  # noqa: E402
from repro.serve.jobs import JobRequest  # noqa: E402


def _perturbed(point):
    """The same point with one metric field moved by one part in 10^12."""
    metrics = dataclasses.replace(
        point.metrics, throughput=point.metrics.throughput * (1 + 1e-12)
    )
    return dataclasses.replace(point, metrics=metrics)


@pytest.fixture(scope="module")
def paper_grid_points():
    specs = grid_for(SWEEP_PANELS)
    return specs, SweepEngine(jobs=1, cache=None, symbolic=False).run_grid(specs)


def test_paper_grid_matches_its_reference(paper_grid_points, tmp_path):
    specs, points = paper_grid_points
    reference = load_workloads()["paper-grid"]
    assert check_grid(specs, points, reference, str(tmp_path)) == 0


def test_one_field_perturbation_of_a_grid_record_is_caught(paper_grid_points, tmp_path):
    specs, points = paper_grid_points
    reference = load_workloads()["paper-grid"]
    index = next(i for i, point in enumerate(points) if not point.oom)
    points = list(points)
    points[index] = _perturbed(points[index])
    assert check_grid(specs, points, reference, str(tmp_path)) == 1


def test_one_field_perturbation_of_a_served_record_is_caught():
    request = JobRequest("sweep", "a3c", "mxnet", batch_sizes=(8,))
    direct = DirectRecords()
    served = {"records": json.loads(direct.expected(request))}
    assert direct.matches(request, served)
    served["records"][0]["metrics"]["throughput"] *= 1 + 1e-12
    assert not direct.matches(request, served)
    assert not direct.matches(request, None)  # rejected or failed job


def test_a_changed_conformance_report_is_caught():
    reference = load_workloads()["conformance-fuzz"]
    seed = reference["default_seed"]

    class Report:
        checked_total = 48
        violations = []

    good = '{"budget":12}'
    reference = dict(reference, report_sha256={str(seed): sha256(good)})
    assert report_failures(good, Report, reference, seed) == 0
    assert report_failures(good.replace("12", "13"), Report, reference, seed) == 48


def test_every_caller_name_is_wrapped_and_restored():
    import repro.plan.compiler
    import repro.plan.executor
    import repro.plan.symbolic

    original = repro.plan.executor.replay
    tracer = CallTracer().install()
    try:
        wrapped = repro.plan.executor.replay
        assert wrapped is not original
        assert repro.plan.compiler.replay is wrapped
        assert repro.plan.symbolic.replay is wrapped
        assert wrapped.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert repro.plan.compiler.replay is original
    assert repro.plan.symbolic.replay is original


SMALL_GRID = [
    PointSpec("a3c", "mxnet", batch) for batch in (8, 16, 32)
] + [PointSpec("wgan", "tensorflow", batch) for batch in (4, 8)]


def _traced_cold_grid(tmp_path, name: str, symbolic: bool) -> dict:
    tracer = CallTracer().install()
    try:
        engine = SweepEngine(
            jobs=1, cache=ResultCache(str(tmp_path / name)), symbolic=symbolic
        )
        with tracer.measure():
            engine.run_grid(SMALL_GRID)
    finally:
        tracer.uninstall()
    return {key: value for key, (value, _unit) in layer_metrics(tracer.kept).items()}


def test_self_times_and_remainder_add_up_to_the_wall(tmp_path):
    metrics = _traced_cold_grid(tmp_path, "sum", symbolic=True)
    total = sum(metrics[f"{name}.self_s"] for name in LAYER_NAMES)
    total += metrics["trace.bookkeeping_s"] + metrics["trace.unwrapped_s"]
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["engine.executor.points_computed"] == len(SMALL_GRID)


def test_specialize_calls_match_the_plan_sets_own_count(tmp_path):
    from repro.plan import symbolic

    symbolic.shared_plan_sets_clear()
    metrics = _traced_cold_grid(tmp_path, "count", symbolic=True)
    counted = sum(s.specialize_count for s in symbolic._SHARED_SETS.values())
    assert metrics["plan.symbolic.specialize.calls"] == counted == len(SMALL_GRID)


def test_a_sleep_in_one_layer_is_charged_to_that_layer(tmp_path, monkeypatch):
    """DeepProf-style mutant: a fixed sleep inside the concrete path's
    ``time_kernels`` must show as that layer's self time, and its parent
    ``compile_graph`` must not grow."""
    baseline = _traced_cold_grid(tmp_path, "base", symbolic=False)
    sleep_s = 0.05
    fast = RooflineModel.time_kernels

    def slow_time_kernels(self, kernels):
        time.sleep(sleep_s)
        return fast(self, kernels)

    monkeypatch.setattr(RooflineModel, "time_kernels", slow_time_kernels)
    mutant = _traced_cold_grid(tmp_path, "mutant", symbolic=False)
    calls = mutant["hardware.roofline.time_kernels.calls"]
    assert calls == baseline["hardware.roofline.time_kernels.calls"] == len(SMALL_GRID)
    injected = calls * sleep_s
    grew = (
        mutant["hardware.roofline.time_kernels.self_s"]
        - baseline["hardware.roofline.time_kernels.self_s"]
    )
    assert injected * 0.9 < grew < injected * 1.5
    parent = "plan.compiler.compile_graph.self_s"
    assert mutant[parent] - baseline[parent] < 0.2 * injected
