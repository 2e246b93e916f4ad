"""Per-layer timing from outside the program.

The traced run wraps public methods of the program's layers at class
level, before any harness is built, so every instance created afterwards
calls through a wrapper.  Each wrapper counts its calls and adds its
inclusive time; a stack of child-time accumulators turns that into self
time (a span's duration minus the time of the wrapped calls nested in
it).  Per-simulation layers also keep their spans in memory so the run
can write them out and take percentiles.

Nothing under ``src/`` is changed.  A wrapped method that no longer
exists raises :class:`MissingLayer`, which fails the traced run instead
of letting the layer read zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (module, class, method, layer).  Several methods may feed one layer.
#: ``FaultScheduler.should_fail`` is absent on purpose: it runs about
#: nine times per step, so it is timed in a pass of its own
#: (:data:`HINJ_LAYERS`) and its wrapper cost does not land in the
#: layers around it.
MAIN_LAYERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sensors.suite", "SensorSuite", "read_all", "sensors.read_all"),
    ("repro.firmware.base", "ControlFirmware", "update", "firmware.update"),
    ("repro.firmware.estimator", "StateEstimator", "update", "firmware.estimator"),
    ("repro.firmware.navigation", "NavigationStack", "update", "firmware.navigation"),
    ("repro.firmware.effects", "BugEffectEngine", "corrupt_estimate", "firmware.effects"),
    ("repro.firmware.effects", "BugEffectEngine", "overrides", "firmware.effects"),
    ("repro.firmware.bugs", "BugRegistry", "match", "firmware.bugs.match"),
    ("repro.sim.simulator", "Simulator", "step_fleet", "sim.step_fleet"),
    ("repro.sim.planner", "StepPlanner", "plan", "sim.planner.plan"),
    ("repro.mavlink.link", "MavLink", "advance", "mavlink.link"),
    ("repro.mavlink.link", "MavLink", "gcs_send", "mavlink.link"),
    ("repro.mavlink.link", "MavLink", "gcs_receive", "mavlink.link"),
    ("repro.mavlink.link", "MavLink", "vehicle_send", "mavlink.link"),
    ("repro.mavlink.link", "MavLink", "vehicle_receive", "mavlink.link"),
    ("repro.mavlink.gcs", "GroundControlStation", "poll", "mavlink.gcs"),
    ("repro.mavlink.traffic", "TrafficChannel", "advance", "mavlink.traffic"),
    ("repro.mavlink.traffic", "TrafficChannel", "broadcast", "mavlink.traffic"),
    ("repro.mavlink.traffic", "TrafficChannel", "latest", "mavlink.traffic"),
    ("repro.workloads.framework", "Target", "run", "workloads.run"),
    ("repro.core.runner", "SimulationHarness", "step", "core.runner.step"),
    ("repro.core.runner", "SimulationHarness", "__init__", "core.runner.provision"),
    ("repro.core.runner", "TestRunner", "run", "core.runner.run"),
    ("repro.core.monitor", "InvariantMonitor", "evaluate", "core.monitor.evaluate"),
    ("repro.core.avis", "Avis", "profile", "core.avis.profile"),
    ("repro.core.strategies.avis_strategy", "AvisStrategy", "propose_batch", "core.search.propose"),
    ("repro.core.strategies.random_search", "RandomInjection", "propose_batch", "core.search.propose"),
    ("repro.core.strategies.bayesian", "BayesianFaultInjection", "propose_batch", "core.search.propose"),
    ("repro.core.strategies.stratified_bfi", "StratifiedBFI", "propose_batch", "core.search.propose"),
    ("repro.core.pruning", "RedundancyPruner", "can_prune", "core.search.can_prune"),
    ("repro.engine.cache", "ResultCache", "get", "engine.cache.get"),
    ("repro.engine.cache", "ResultCache", "put", "engine.cache.put"),
)

HINJ_LAYERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.hinj.scheduler", "FaultScheduler", "should_fail", "hinj.should_fail"),
)

#: Layers whose every span is kept (one per simulation or round), for
#: percentiles and the written-out trace.
SPAN_LAYERS = frozenset(
    {"core.runner.run", "core.monitor.evaluate", "core.avis.profile", "core.search.propose"}
)


class MissingLayer(RuntimeError):
    """A method the layer table names is gone from the program."""


class LayerStats:
    """Calls, inclusive seconds and self seconds of one layer."""

    __slots__ = ("calls", "inclusive_s", "self_s", "true_results")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive_s = 0.0
        self.self_s = 0.0
        self.true_results = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "calls": self.calls,
            "inclusive_s": self.inclusive_s,
            "self_s": self.self_s,
            "true_results": self.true_results,
        }


class LayerTracer:
    """Installs the wrappers of one layer table and aggregates them."""

    def __init__(self) -> None:
        self._stack: List[float] = []
        self._patches: List[Tuple[type, str, Callable]] = []
        self.stats: Dict[str, LayerStats] = {}
        #: (layer, start, end, depth) of every span of a SPAN_LAYERS layer.
        self.spans: List[Tuple[str, float, float, int]] = []

    def install(self, table) -> None:
        """Wrap every (module, class, method) of ``table``."""
        for module_name, class_name, method, layer in table:
            owner = getattr(importlib.import_module(module_name), class_name, None)
            if owner is None:
                raise MissingLayer(f"{module_name}.{class_name} no longer exists")
            original = owner.__dict__.get(method)
            if not callable(original):
                raise MissingLayer(
                    f"{module_name}.{class_name}.{method} no longer exists"
                )
            setattr(owner, method, self._wrapper(original, layer))
            self._patches.append((owner, method, original))

    def restore(self) -> None:
        """Put every wrapped method back."""
        for owner, method, original in reversed(self._patches):
            setattr(owner, method, original)
        self._patches.clear()

    def _wrapper(self, original: Callable, layer: str) -> Callable:
        stats = self.stats.setdefault(layer, LayerStats())
        stack = self._stack
        clock = time.perf_counter
        spans: Optional[list] = self.spans if layer in SPAN_LAYERS else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                children = stack.pop()
                stats.calls += 1
                stats.inclusive_s += elapsed
                stats.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
                if spans is not None:
                    spans.append((layer, start, end, len(stack)))
            if result is True:
                stats.true_results += 1
            return result

        return wrapper

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {layer: stats.as_dict() for layer, stats in sorted(self.stats.items())}

    def span_durations(self, layer: str) -> List[float]:
        return [end - start for name, start, end, _ in self.spans if name == layer]
