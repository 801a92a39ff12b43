"""Per-layer wall-clock attribution by wrapping public calls.

The benchmark never edits the program: it replaces selected public
functions and methods with timing wrappers *at every name their callers
look up* (a function imported with ``from x import f`` is a second name
for the same object, so ``replay`` is wrapped as
``repro.plan.executor.replay`` and as ``repro.plan.compiler.replay``,
``repro.plan.symbolic.replay`` ...).

A wrapped call's *self time* is its duration minus the spans of the
wrapped calls it made.  The wrapper's own bookkeeping is charged to
neither: it is kept apart in ``trace.bookkeeping_s``, so for any measured
interval

    sum(self_s) + bookkeeping_s + unwrapped_s == wall_s

holds exactly, where ``unwrapped_s`` is the interval's time outside every
top-level wrapped call.

Only time inside :meth:`CallTracer.measure` blocks is kept; calls made
outside them (correctness checks, reference computations) are dropped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from contextlib import contextmanager

clock = time.perf_counter


# ----------------------------------------------------------------------
# after-call hooks: counters taken where the work happens
# ----------------------------------------------------------------------


def _count_kernels(acc, args, result):
    """``RooflineModel.time_kernels(kernels)``: kernels timed, and how
    many were distinct values (symbolic kernels cannot be hashed and are
    counted as timed only)."""
    from repro.plan.symexpr import TraceEscape

    kernels = args[1]
    acc["hardware.roofline.kernels_timed"] += len(kernels)
    try:
        distinct = len(set(kernels))
    except TraceEscape:  # symbolic values refuse hashing
        return
    acc["hardware.roofline.concrete_kernels"] += len(kernels)
    acc["hardware.roofline.distinct_kernels"] += distinct


def _count_replayed(acc, args, result):
    acc["plan.executor.replay.kernels"] += len(args[0])


def _count_bytes_written(acc, args, result):
    acc["engine.cache.bytes_written"] += os.path.getsize(result)


def _plan_cache_probe(cache):
    stats = cache.stats
    return stats.hits, stats.misses


def _count_plan_cache(acc, args, result, before):
    hits, misses = _plan_cache_probe(args[0])
    acc["plan.cache.hits"] += hits - before[0]
    acc["plan.cache.misses"] += misses - before[1]


#: ``(layer name, module, attribute path, after hook, before probe)``.
#: The module attribute path names the defining object; every other
#: name bound to the same object in a ``repro`` module is wrapped too.
LAYERS = (
    ("plan.symbolic.compile_symbolic", "repro.plan.symbolic", "compile_symbolic", None, None),
    ("plan.symbolic.specialize", "repro.plan.symbolic", "SymbolicPlanSet.specialize", None, None),
    ("plan.cache.get", "repro.plan.cache", "PlanCache.get", _count_plan_cache, _plan_cache_probe),
    ("plan.compiler.compile_graph", "repro.plan.compiler", "compile_graph", None, None),
    ("plan.compiler.lower_kernels", "repro.plan.compiler", "lower_kernels", None, None),
    ("hardware.roofline.time_kernels", "repro.hardware.roofline", "RooflineModel.time_kernels", _count_kernels, None),
    ("plan.executor.replay", "repro.plan.executor", "replay", _count_replayed, None),
    ("training.session.run_iteration", "repro.training.session", "TrainingSession.run_iteration", None, None),
    ("training.session.execute_plan", "repro.training.session", "TrainingSession.execute_plan", None, None),
    ("engine.keys.point_key", "repro.engine.keys", "point_key", None, None),
    ("engine.cache.load", "repro.engine.cache", "ResultCache.load", None, None),
    ("engine.cache.store", "repro.engine.cache", "ResultCache.store", _count_bytes_written, None),
    ("engine.merge.point_to_payload", "repro.engine.merge", "point_to_payload", None, None),
    ("engine.merge.payload_to_point", "repro.engine.merge", "payload_to_point", None, None),
    ("faults.trainer.init", "repro.faults.trainer", "FaultTolerantTrainer.__init__", None, None),
    ("faults.trainer.run", "repro.faults.trainer", "FaultTolerantTrainer.run", None, None),
    ("distributed.data_parallel.run_iteration", "repro.distributed.data_parallel", "DataParallelTrainer.run_iteration", None, None),
    ("tune.rank", "repro.tune.search", "Autotuner.rank", None, None),
    ("serve.submit", "repro.serve.service", "BenchmarkServer.submit", None, None),
    ("serve.shardcache.load", "repro.serve.shardcache", "ShardedResultCache.load", None, None),
    ("serve.shardcache.store", "repro.serve.shardcache", "ShardedResultCache.store", None, None),
)

#: Layers wrapped by hand: each model's ``build`` field and each
#: invariant's ``check`` (both stored on registry objects, not modules).
SPECIAL_LAYERS = ("models.build", "conformance.invariants")

#: Counters filled by the hooks above.
HOOK_COUNTERS = (
    "hardware.roofline.kernels_timed",
    "hardware.roofline.concrete_kernels",
    "hardware.roofline.distinct_kernels",
    "plan.executor.replay.kernels",
    "engine.cache.bytes_written",
    "plan.cache.hits",
    "plan.cache.misses",
)

LAYER_NAMES = tuple(layer[0] for layer in LAYERS) + SPECIAL_LAYERS

#: ``SweepEngine.stats`` fields summed over every engine built.
ENGINE_STATS = ("cache_hits", "cache_misses", "points_computed")


class CallTracer:
    """Installs the wrappers and accumulates self time per layer."""

    def __init__(self):
        self.acc = {key: 0.0 for key in self._keys()}
        self.kept = {key: 0.0 for key in self.acc}
        self._stack = []
        self._undo = []
        self._engine_stats = []

    @staticmethod
    def _keys():
        keys = ["trace.top_s", "trace.bookkeeping_s", "trace.wall_s"]
        keys += [f"engine.{field}" for field in ENGINE_STATS]
        for name in LAYER_NAMES:
            keys += [f"{name}.self_s", f"{name}.calls"]
        return keys + list(HOOK_COUNTERS)

    # ------------------------------------------------------------------
    # wrappers

    def wrap(self, name, fn, after=None, before=None):
        """A timing wrapper around ``fn`` charged to layer ``name``."""
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(name, fn)
        acc, stack = self.acc, self._stack
        self_key, calls_key = f"{name}.self_s", f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            token = before(args[0]) if before is not None else None
            stack.append(0.0)
            ok = False
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t2 = clock()
                acc[self_key] += t2 - t1 - stack.pop()
                acc[calls_key] += 1
                if ok and after is not None:
                    if before is not None:
                        after(acc, args, result, token)
                    else:
                        after(acc, args, result)
                span = clock() - t0
                if stack:
                    stack[-1] += span
                else:
                    acc["trace.top_s"] += span
                acc["trace.bookkeeping_s"] += span - (t2 - t1)

        return wrapper

    def _wrap_async(self, name, fn):
        """Coroutine wrapper.  Other tasks may run while it is suspended;
        their top-level spans are subtracted so nothing counts twice.  It
        must be awaited outside any synchronous wrapped call (true of an
        event-loop task)."""
        acc = self.acc
        self_key, calls_key = f"{name}.self_s", f"{name}.calls"

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            top_before = acc["trace.top_s"]
            t0 = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                own = clock() - t0 - (acc["trace.top_s"] - top_before)
                acc[self_key] += own
                acc[calls_key] += 1
                acc["trace.top_s"] += own

        return wrapper

    # ------------------------------------------------------------------
    # install / uninstall

    def _replace_everywhere(self, original, wrapper):
        """Rebind every ``repro`` module global that names ``original``."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self):
        """Import every traced module, then wrap every layer."""
        for _, module_name, _, _, _ in LAYERS:
            importlib.import_module(module_name)
        importlib.import_module("repro.conformance.runner")
        importlib.import_module("repro.profiling.timeline")
        for name, module_name, path, after, before in LAYERS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, after, before)
            if parents:
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
            else:
                self._replace_everywhere(original, wrapper)
        self._install_models()
        self._install_invariants()
        self._install_engine_stats()
        return self

    def _install_models(self):
        from repro.models.registry import extension_catalog, model_catalog

        specs = list(model_catalog().values()) + list(extension_catalog().values())
        for spec in specs:
            original = spec.build
            # ModelSpec is frozen; the build field is what callers read.
            object.__setattr__(spec, "build", self.wrap("models.build", original))
            self._undo.append((spec, "build", original))

    def _install_invariants(self):
        from repro.conformance.invariants import invariant_registry

        for invariant in invariant_registry():
            original = invariant.check
            object.__setattr__(
                invariant,
                "check",
                self.wrap("conformance.invariants", original),
            )
            self._undo.append((invariant, "check", original))

    def _install_engine_stats(self):
        """Keep each new engine's live ``stats`` object (not the engine)."""
        from repro.engine.executor import SweepEngine

        original = SweepEngine.__dict__["__init__"]
        registry = self._engine_stats

        @functools.wraps(original)
        def __init__(engine, *args, **kwargs):
            original(engine, *args, **kwargs)
            registry.append(engine.stats)

        SweepEngine.__init__ = __init__
        self._undo.append((SweepEngine, "__init__", original))

    def _engine_totals(self) -> dict:
        return {
            field: sum(getattr(stats, field) for stats in self._engine_stats)
            for field in ENGINE_STATS
        }

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, type) or inspect.ismodule(owner):
                setattr(owner, attr, original)
            else:
                object.__setattr__(owner, attr, original)

    # ------------------------------------------------------------------
    # measurement

    @contextmanager
    def measure(self):
        """Keep what the wrapped calls accrue inside this block."""
        if self._stack:
            raise RuntimeError("measure() entered inside a wrapped call")
        before = dict(self.acc)
        engines_before = self._engine_totals()
        start = clock()
        try:
            yield
        finally:
            self.acc["trace.wall_s"] += clock() - start
            for field, value in self._engine_totals().items():
                self.acc[f"engine.{field}"] += value - engines_before[field]
            for key, value in self.acc.items():
                self.kept[key] += value - before[key]

    @property
    def wall_s(self) -> float:
        """Wall time of every measured block."""
        return self.kept["trace.wall_s"]


def layer_metrics(kept: dict) -> dict:
    """Per-layer metrics ``{name: (value, unit)}`` from the totals of
    one or more tracers' ``kept`` dicts."""
    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.self_s"] = (kept[f"{name}.self_s"], "s")
        out[f"{name}.calls"] = (int(kept[f"{name}.calls"]), "count")
    timed = kept["hardware.roofline.kernels_timed"]
    concrete = kept["hardware.roofline.concrete_kernels"]
    out["hardware.roofline.kernels_timed"] = (int(timed), "count")
    out["hardware.roofline.distinct_kernel_frac"] = (
        kept["hardware.roofline.distinct_kernels"] / concrete if concrete else 0.0,
        "ratio",
    )
    out["plan.executor.replay.kernels"] = (
        int(kept["plan.executor.replay.kernels"]),
        "count",
    )
    out["engine.cache.bytes_written"] = (
        int(kept["engine.cache.bytes_written"]),
        "bytes",
    )
    lookups = kept["plan.cache.hits"] + kept["plan.cache.misses"]
    out["plan.cache.hit_frac"] = (
        kept["plan.cache.hits"] / lookups if lookups else 0.0,
        "ratio",
    )
    hits = kept["engine.cache_hits"]
    probes = hits + kept["engine.cache_misses"]
    out["engine.cache.hit_frac"] = (hits / probes if probes else 0.0, "ratio")
    out["engine.executor.points_computed"] = (
        int(kept["engine.points_computed"]),
        "count",
    )
    wall = kept["trace.wall_s"]
    out["trace.wall_s"] = (wall, "s")
    out["trace.bookkeeping_s"] = (kept["trace.bookkeeping_s"], "s")
    out["trace.unwrapped_s"] = (wall - kept["trace.top_s"], "s")
    return out


class WallMeter:
    """The untraced counterpart of :class:`CallTracer`: ``measure``
    blocks only add up wall time."""

    def __init__(self):
        self.wall_s = 0.0

    @contextmanager
    def measure(self):
        start = clock()
        try:
            yield
        finally:
            self.wall_s += clock() - start
