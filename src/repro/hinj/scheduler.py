"""The fault scheduler: decides, per sensor read, whether to inject.

This is the Python analogue of the paper's scheduler process.  The real
scheduler answers RPCs issued from ``libhinj`` calls embedded in the
driver ``read()`` procedures; here the scheduler object is handed to the
sensor suite as the fail-decision hook, so the query happens in-process
with identical semantics: the scheduler is consulted on every read, and
when the current scenario schedules a failure for that instance at or
before the current time, the read fails and the instance stays failed.

The scheduler also keeps the record of injections it actually performed
(the first read at which each fault took effect), which is what bug
replay uses to line injections up with mode transitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set

from repro.hinj.faults import EMPTY_SCENARIO, FaultScenario, FaultSpec
from repro.sensors.base import SensorId


@dataclass(frozen=True)
class InjectionRecord:
    """A fault the scheduler actually injected during a run.

    ``duration_s`` and ``recovered_time`` describe intermittent faults:
    the scheduled recovery window, and the first read at which the
    instance actually reported healthy again after having failed.  Both
    stay ``None`` for the paper's latched faults.
    """

    sensor_id: SensorId
    scheduled_time: float
    injected_time: float
    duration_s: Optional[float] = None
    recovered_time: Optional[float] = None

    @property
    def delay(self) -> float:
        """Latency between the scheduled time and the read that applied it."""
        return self.injected_time - self.scheduled_time

    @property
    def recovered(self) -> bool:
        """True once the fault's recovery has taken effect."""
        return self.recovered_time is not None


def injection_flight_events(records: List[InjectionRecord]) -> list:
    """Flight-recorder events for a run's sensor-fault injection log.

    One ``fault.injected`` event per applied fault, plus a
    ``fault.recovered`` event for every intermittent fault whose window
    actually closed during the run.
    """
    from repro.obs.recorder import FlightEvent

    events = []
    for record in records:
        detail = record.sensor_id.label
        if record.duration_s is not None:
            detail += f" (window {record.duration_s:g}s)"
        events.append(
            FlightEvent(record.injected_time, "fault.injected", detail)
        )
        if record.recovered_time is not None:
            events.append(
                FlightEvent(
                    record.recovered_time, "fault.recovered", record.sensor_id.label
                )
            )
    return events


class FaultScheduler:
    """Executes one :class:`FaultScenario` during a simulated run."""

    def __init__(self, scenario: FaultScenario = EMPTY_SCENARIO) -> None:
        self._scenario = scenario
        # Keyed by fault spec (not sensor id): a scenario can schedule
        # several disjoint recovery windows on one instance, and each
        # applied window gets its own record -- mirroring the traffic
        # channel's per-fault injection log, and keeping replay plans
        # complete for multi-window scenarios.
        self._injected: Dict[FaultSpec, InjectionRecord] = {}
        self._query_count = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def scenario(self) -> FaultScenario:
        """The scenario this scheduler is executing."""
        return self._scenario

    def load_scenario(self, scenario: FaultScenario) -> None:
        """Replace the scenario and clear the injection record.

        Avis provisions a new firmware + simulator instance per test, so
        in practice a fresh scheduler is created per run; ``load_scenario``
        exists for tests and for replay, which reuses one scheduler.
        """
        self._scenario = scenario
        self._injected = {}
        self._query_count = 0

    def adopt_scenario(self, scenario: FaultScenario) -> None:
        """Swap in ``scenario`` mid-run, keeping the query count.

        Used when a fault-free run is forked into a faulted one before
        any of ``scenario``'s faults could have been observed: every
        query answered so far would have been answered identically, so
        only the scenario changes.
        """
        self._scenario = scenario

    # ------------------------------------------------------------------
    # The libhinj query (Step 4 of Figure 7)
    # ------------------------------------------------------------------
    def should_fail(self, sensor_id: SensorId, time: float) -> bool:
        """Answer a driver's "should this read fail?" query.

        With latched faults the answer, once positive, stays positive
        for the rest of the run.  An intermittent fault's window can
        close, after which the answer reverts to False -- the driver
        recovers -- and that fault's injection record is stamped with
        the first read at or after the window closed (a latched fault
        never recovers, so its record never gains a recovery stamp).
        """
        self._query_count += 1
        self._stamp_recoveries(sensor_id, time)
        fault = self._scenario.active_fault_for(sensor_id, time)
        if fault is None:
            return False
        if fault not in self._injected:
            self._injected[fault] = InjectionRecord(
                sensor_id=sensor_id,
                scheduled_time=fault.start_time,
                injected_time=time,
                duration_s=fault.duration_s,
            )
        return True

    def _stamp_recoveries(self, sensor_id: SensorId, time: float) -> None:
        """Stamp applied faults of ``sensor_id`` whose window has closed."""
        for fault, record in list(self._injected.items()):
            if (
                record.sensor_id == sensor_id
                and record.recovered_time is None
                and fault.end_time is not None
                and time >= fault.end_time
            ):
                self._injected[fault] = replace(record, recovered_time=time)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def query_count(self) -> int:
        """Number of fail-decision queries answered so far."""
        return self._query_count

    @property
    def injections(self) -> List[InjectionRecord]:
        """Faults that have actually been applied, in injection order.

        One record per applied fault spec: a sensor with several
        disjoint recovery windows contributes one record per window
        that fired.
        """
        return sorted(
            self._injected.values(),
            key=lambda record: (record.injected_time, record.sensor_id),
        )

    @property
    def injected_sensor_ids(self) -> Set[SensorId]:
        """The sensor instances failed so far."""
        return {record.sensor_id for record in self._injected.values()}

    def pending_faults(self, time: float) -> List[SensorId]:
        """Sensor instances with scheduled faults not yet applied at ``time``."""
        pending = []
        for fault in self._scenario:
            if fault not in self._injected and fault.start_time > time:
                if fault.sensor_id not in pending:
                    pending.append(fault.sensor_id)
        return pending
