"""Kernel interning: each repeated kernel is built, specialized and timed
once per plan.

Recurrent and attention layers launch the same kernels at every step, so
their lowering repeats one object per step kernel instead of building T
identical copies.  ``Framework.specialize_kernels`` and
``RooflineModel.time_kernels`` then do their work once per distinct
object.  This module checks both properties on the three step-heavy
models, through the concrete compiler and through symbolic
specialization, and checks the plans against a reference compile that
specializes and times every stream position on its own.
"""

from __future__ import annotations

import pytest

from repro.frameworks import get_framework
from repro.frameworks.base import Framework
from repro.hardware.devices import QUADRO_P4000
from repro.hardware.roofline import RooflineModel
from repro.models.registry import get_model
from repro.plan import compiler as plan_compiler
from repro.plan.symbolic import compile_symbolic, plan_difference

STEP_HEAVY = [("deep-speech-2", "mxnet"), ("nmt", "tensorflow"), ("sockeye", "mxnet")]

#: deep-speech-2's full iteration stream (per-step RNN kernels dominate).
DEEP_SPEECH_KERNELS = 32045


@pytest.fixture
def time_kernel_calls(monkeypatch):
    """Count ``RooflineModel.time_kernel`` calls by kernel object."""
    calls: list = []
    original = RooflineModel.time_kernel

    def counting(self, kernel):
        calls.append(id(kernel))
        return original(self, kernel)

    monkeypatch.setattr(RooflineModel, "time_kernel", counting)
    return calls


def _reference_compile(monkeypatch, spec, framework, batch):
    """The value oracle: specialize and time every position separately."""
    with monkeypatch.context() as patch:
        patch.setattr(
            Framework,
            "specialize_kernels",
            lambda self, kernels: [self.specialize_kernel(k) for k in kernels],
        )
        patch.setattr(
            RooflineModel,
            "time_kernels",
            lambda self, kernels: [self.time_kernel(k) for k in kernels],
        )
        return plan_compiler.compile_graph(spec.build(batch), framework, QUADRO_P4000)


def _assert_aligned(plan):
    assert len(plan.timings) == len(plan.kernels)
    for index, (timing, kernel) in enumerate(zip(plan.timings, plan.kernels)):
        assert timing.kernel is kernel, f"timing {index} is not its kernel's"


def _distinct(objects) -> int:
    return len({id(obj) for obj in objects})


@pytest.mark.parametrize("model,framework", STEP_HEAVY)
class TestKernelInterning:
    def test_concrete_compile(self, model, framework, monkeypatch, time_kernel_calls):
        spec = get_model(model)
        fw = get_framework(framework)
        batch = spec.reference_batch
        plan = plan_compiler.compile_graph(spec.build(batch), fw, QUADRO_P4000)
        _assert_aligned(plan)
        assert sorted(time_kernel_calls) == sorted({id(k) for k in plan.kernels})
        assert _distinct(plan.timings) == _distinct(plan.kernels)
        assert _distinct(plan.kernels) < len(plan.kernels)
        reference = _reference_compile(monkeypatch, spec, fw, batch)
        assert _distinct(reference.timings) == len(reference.timings)
        assert plan_difference(plan, reference) is None

    def test_symbolic_specialize(self, model, framework, monkeypatch, time_kernel_calls):
        spec = get_model(model)
        fw = get_framework(framework)
        symbolic = compile_symbolic(spec, fw, QUADRO_P4000)
        assert sorted(time_kernel_calls) == sorted({id(k) for k in symbolic.kernels})
        assert _distinct(symbolic.kernels) < len(symbolic.kernels)
        batch = spec.reference_batch
        plan = symbolic.specialize(batch)
        _assert_aligned(plan)
        assert _distinct(plan.kernels) == _distinct(symbolic.kernels)
        reference = _reference_compile(monkeypatch, spec, fw, batch)
        assert plan_difference(plan, reference) is None


def test_deep_speech_stream_is_interned():
    spec = get_model("deep-speech-2")
    plan = plan_compiler.compile_graph(
        spec.build(spec.reference_batch), get_framework("mxnet"), QUADRO_P4000
    )
    assert len(plan.kernels) == DEEP_SPEECH_KERNELS
    assert _distinct(plan.kernels) <= 100
