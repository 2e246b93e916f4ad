"""The fast simulation core: the adaptive stepper and its planner.

Pins the contracts the ``stepper`` knob rests on:

* **One kernel** -- every stepper integrates through
  :class:`QuadrotorPhysics` (dt edge cases below); the stepper
  vocabulary is ``reference`` / ``adaptive`` on every entry point.
* **Verdict equivalence** -- the quiescence-skipping adaptive stepper
  reaches the same safe/unsafe verdicts as the reference loop on the
  committed end-to-end scenarios (the convoy recovery-window hazard and
  the burst-vs-latched pair), while fusing most of its control periods.

Bit-for-bit behaviour of both steppers across refactors is pinned by
``tests/test_golden_digests.py``.
"""

from dataclasses import replace

import pytest

from repro.core.avis import Avis
from repro.core.config import RunConfiguration
from repro.core.monitor import UnsafeConditionKind
from repro.core.runner import TestRunner
from repro.engine.cache import config_fingerprint, scenario_key
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.hinj.faults import (
    FaultScenario,
    FaultSpec,
    TrafficFaultKind,
    TrafficFaultSpec,
)
from repro.obs import runtime as obs_runtime
from repro.obs.runtime import Observability, observed
from repro.sensors.base import SensorId, SensorType
from repro.sim.environment import default_environment
from repro.sim.physics import ActuatorCommand, QuadrotorPhysics
from repro.sim.planner import StepPlanner
from repro.sim.simulator import SimulationClock, Simulator
from repro.sim.vehicle import IRIS_QUADCOPTER
from repro.workloads.builtin import AutoWorkload
from repro.workloads.fleet import ConvoyFollowWorkload
from repro.workloads.framework import Target, WorkloadOutcome

GPS = SensorId(SensorType.GPS, 0)

DT = 0.01


class TestDtEdgeCases:
    def test_clock_non_default_dt(self):
        clock = SimulationClock(dt=0.05)
        for _ in range(7):
            clock.advance()
        assert clock.ticks == 7
        assert clock.time == 7 * 0.05

    def test_nonpositive_dt_rejected_everywhere(self):
        with pytest.raises(ValueError):
            SimulationClock(dt=0.0)
        with pytest.raises(ValueError):
            QuadrotorPhysics(
                airframe=IRIS_QUADCOPTER, environment=default_environment(), dt=-0.01
            )

    @pytest.mark.parametrize("dt", [0.15, 0.2])
    def test_attitude_alpha_clamps_when_dt_exceeds_time_constant(self, dt):
        """At dt >= the attitude time constant the first-order lag clamps
        at alpha = 1: the attitude snaps to the commanded target instead
        of overshooting past it."""
        engine = QuadrotorPhysics(
            airframe=IRIS_QUADCOPTER, environment=default_environment(), dt=dt
        )
        engine.teleport((0.0, 0.0, 30.0))
        command = ActuatorCommand(
            throttle=0.6, target_roll=0.3, target_pitch=-0.2, armed=True
        )
        state = engine.step(command)
        assert state.attitude.roll == command.target_roll
        assert state.attitude.pitch == command.target_pitch


class TestStepPlanner:
    def test_quiescent_far_from_boundaries(self):
        planner = StepPlanner(dt=0.02, event_times=[10.0])
        assert planner.quiescent(2.0, 2.1)
        assert planner.plan(2.0, 5) == 5
        assert planner.macro_steps == 1
        assert planner.micro_steps == 5

    def test_refines_ahead_of_a_boundary(self):
        planner = StepPlanner(dt=0.02, event_times=[10.0], horizon_s=0.3)
        assert not planner.quiescent(9.65, 9.75)
        assert planner.plan(9.65, 5) == 1
        assert planner.boundary_refinements == 1

    def test_refines_through_the_settle_window_after_a_boundary(self):
        planner = StepPlanner(dt=0.02, event_times=[10.0], settle_s=0.75)
        assert not planner.quiescent(10.3, 10.4)
        assert planner.quiescent(10.76, 10.86)

    def test_mode_transition_opens_a_settle_window(self):
        planner = StepPlanner(dt=0.02, settle_s=0.75)
        assert planner.plan(5.0, 5) == 5
        planner.note_transition(5.1)
        assert planner.plan(5.2, 5) == 1
        assert planner.plan(5.86, 5) == 5

    def test_caller_refine_forces_reference_cadence(self):
        planner = StepPlanner(dt=0.02)
        assert planner.plan(1.0, 5, refine=True) == 1
        assert planner.boundary_refinements == 1

    def test_requested_caps_the_stride(self):
        planner = StepPlanner(dt=0.02)
        assert planner.plan(0.0, 3) == 3
        assert planner.plan(0.0, 1) == 1
        # A requested single step is not a refinement, just a short window.
        assert planner.boundary_refinements == 0

    def test_add_events_keeps_boundaries_sorted(self):
        planner = StepPlanner(dt=0.02, event_times=[20.0])
        planner.add_events([5.0, None, 30.0])
        assert planner.event_times == [5.0, 20.0, 30.0]
        assert not planner.quiescent(4.9, 5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepPlanner(dt=0.0)
        with pytest.raises(ValueError):
            StepPlanner(dt=0.02, max_stride=0)


class TestSimulator:
    def test_teleport_vehicle_updates_snapshot(self):
        simulator = Simulator(dt=DT, fleet_size=2)
        simulator.teleport_vehicle(1, (3.0, 4.0, 25.0), velocity=(1.0, 0.0, 0.0))
        state = simulator.state_of(1)
        assert state.position == (3.0, 4.0, 25.0)
        assert state.velocity == (1.0, 0.0, 0.0)
        assert not state.on_ground


class TestRunConfigurationStepper:
    def test_default_and_validation(self):
        config = RunConfiguration(firmware_class=ArduPilotFirmware)
        assert config.stepper == "reference"
        with pytest.raises(ValueError):
            RunConfiguration(firmware_class=ArduPilotFirmware, stepper="warp")

    def test_with_noise_seed_preserves_stepper(self):
        config = RunConfiguration(firmware_class=ArduPilotFirmware, stepper="adaptive")
        assert config.with_noise_seed(7).stepper == "adaptive"

    def test_soa_is_rejected_on_every_entry_point(self):
        """The removed ``soa`` stepper has no alias: the run
        configuration and the campaign matrix both refuse it."""
        from repro.engine.api import CampaignRequest, build_cells

        assert RunConfiguration.STEPPERS == ("reference", "adaptive")
        with pytest.raises(ValueError):
            RunConfiguration(firmware_class=ArduPilotFirmware, stepper="soa")
        with pytest.raises(ValueError):
            build_cells(CampaignRequest(stepper="soa"))


class TestCacheKeys:
    def _config(self, stepper):
        return RunConfiguration(firmware_class=ArduPilotFirmware, stepper=stepper)

    def test_adaptive_gets_its_own_fingerprint_term(self):
        scenario = FaultScenario([FaultSpec(GPS, 2.0)])
        assert "stepper=adaptive" in config_fingerprint(
            self._config("adaptive"), "auto"
        )
        assert scenario_key(self._config("adaptive"), "auto", scenario) != scenario_key(
            self._config("reference"), "auto", scenario
        )


def auto_config(stepper="reference", **overrides):
    return RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: AutoWorkload(altitude=8.0, init_wait_ms=1000.0),
        max_sim_time_s=90.0,
        stepper=stepper,
        **overrides,
    )


class TestAdaptiveRun:
    def test_mission_passes_and_fuses_windows(self):
        with observed(Observability()) as obs:
            result = TestRunner(auto_config("adaptive")).run()
        assert result.workload_result.outcome == WorkloadOutcome.PASSED
        assert result.flight_log is not None
        assert result.flight_log.stepper == "adaptive"
        snapshot = obs.metrics.snapshot()["counters"]
        assert snapshot["sim.macro_steps"] > 0
        assert snapshot["sim.micro_steps"] >= result.steps
        assert "sim.boundary_refinements" in snapshot

    def test_reference_flight_log_labels_its_stepper(self):
        with observed(Observability()):
            result = TestRunner(auto_config("reference")).run()
        assert result.flight_log.stepper == "reference"
        assert obs_runtime.current() is None

    def test_burst_vs_latched_verdicts_match_reference(self):
        """The burst-vs-latched pair reaches the same verdicts adaptively."""
        for scenario in (
            FaultScenario([FaultSpec(GPS, 6.0, duration_s=4.0)]),
            FaultScenario([FaultSpec(GPS, 6.0)]),
        ):
            reference = TestRunner(auto_config("reference")).run(scenario)
            adaptive = TestRunner(auto_config("adaptive")).run(scenario)
            assert (
                adaptive.workload_result.outcome
                == reference.workload_result.outcome
            )
            assert bool(adaptive.collisions) == bool(reference.collisions)
            assert sorted(adaptive.triggered_bugs) == sorted(
                reference.triggered_bugs
            )
            assert [
                (record.sensor_id, record.scheduled_time, record.duration_s)
                for record in adaptive.injections
            ] == [
                (record.sensor_id, record.scheduled_time, record.duration_s)
                for record in reference.injections
            ]


@pytest.fixture(scope="module")
def hazard_config() -> RunConfiguration:
    """The canonical two-vehicle convoy (matches the committed hazard)."""
    return RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: ConvoyFollowWorkload(),
        fleet_size=2,
        max_sim_time_s=160.0,
    )


@pytest.fixture(scope="module")
def hazard_monitor(hazard_config):
    avis = Avis(hazard_config, profiling_runs=2, budget_units=20.0)
    avis.profile()
    return avis.monitor


class TestAdaptiveVerdictEquivalence:
    """The committed convoy recovery-window hazard, re-run adaptively.

    The adaptive stepper must reproduce both halves of the canonical
    verdict pair (``tests/test_intermittent_faults.py``): the recovering
    beacon dropout breaks separation, its latched equivalent does not.
    """

    DROPOUT_START_S = 16.3
    DROPOUT_DURATION_S = 20.0
    BATTERY_FAIL_S = 39.3

    def _scenario(self, duration_s):
        return FaultScenario(
            [
                TrafficFaultSpec(
                    0,
                    TrafficFaultKind.DROPOUT,
                    self.DROPOUT_START_S,
                    duration_s=duration_s,
                ),
                FaultSpec(
                    SensorId(SensorType.BATTERY, 0, vehicle=0), self.BATTERY_FAIL_S
                ),
            ]
        )

    def _run_adaptive(self, hazard_config, hazard_monitor, scenario):
        config = replace(hazard_config, stepper="adaptive")
        runner = TestRunner(config, monitor=hazard_monitor)
        hazard_monitor.begin_run(scenario)
        return runner.run(scenario)

    def test_recovering_dropout_still_breaks_separation(
        self, hazard_config, hazard_monitor
    ):
        result = self._run_adaptive(
            hazard_config, hazard_monitor, self._scenario(self.DROPOUT_DURATION_S)
        )
        kinds = {condition.kind for condition in result.unsafe_conditions}
        assert UnsafeConditionKind.SEPARATION in kinds
        assert result.min_separation_m < hazard_monitor.separation_threshold_m

    def test_latched_equivalent_still_stays_separated(
        self, hazard_config, hazard_monitor
    ):
        result = self._run_adaptive(
            hazard_config, hazard_monitor, self._scenario(None)
        )
        kinds = {condition.kind for condition in result.unsafe_conditions}
        assert UnsafeConditionKind.SEPARATION not in kinds
        assert result.min_separation_m > hazard_monitor.separation_threshold_m


class TestCliStepper:
    def test_stepper_threads_into_configs_and_cell_ids(self):
        from repro.engine.cli import build_cells, build_parser

        args = build_parser().parse_args(
            ["--workload", "auto", "convoy", "--fleet-size", "2",
             "--stepper", "adaptive"]
        )
        cells = build_cells(args)
        assert cells
        for cell in cells:
            assert cell.config.stepper == "adaptive"
            assert "+adaptive" in cell.cell_id

    def test_default_keeps_classic_cell_ids(self):
        from repro.engine.cli import build_cells, build_parser

        args = build_parser().parse_args(["--workload", "auto"])
        for cell in build_cells(args):
            assert cell.config.stepper == "reference"
            assert "+reference" not in cell.cell_id


class _StubHarness:
    """The minimal surface ``Target`` binds to, with planner hooks."""

    dt = 0.02

    def __init__(self, stride=4):
        self.time = 0.0
        self.planned = None
        self.strides = []
        self._stride = stride

    def add_planned_events(self, times):
        self.planned = tuple(times)

    def wait_stride(self):
        return self._stride

    def step(self, count=1):
        self.strides.append(count)
        self.time += count * self.dt

    def should_abort(self):
        return False


class _ScheduledWorkload(Target):
    def scheduled_event_times(self):
        return (12.5, 40.0)

    def test(self):  # pragma: no cover - never run here
        self.pass_test()


class TestWorkloadPlannerHooks:
    def test_bind_registers_scheduled_events(self):
        harness = _StubHarness()
        workload = _ScheduledWorkload()
        workload.bind(harness)
        assert harness.planned == (12.5, 40.0)

    def test_default_schedule_is_empty(self):
        assert Target().scheduled_event_times() == ()

    def test_wait_until_polls_at_the_harness_stride(self):
        harness = _StubHarness(stride=4)
        workload = _ScheduledWorkload()
        workload.bind(harness)
        workload.wait_until(lambda: harness.time >= 0.3, timeout_s=10.0)
        assert set(harness.strides) == {4}

    def test_wait_until_steps_singly_without_the_hook(self):
        harness = _StubHarness()
        del _StubHarness.wait_stride  # type: ignore[attr-defined]
        try:
            workload = _ScheduledWorkload()
            workload.bind(harness)
            workload.wait_until(lambda: harness.time >= 0.1, timeout_s=10.0)
            assert set(harness.strides) == {1}
        finally:
            _StubHarness.wait_stride = lambda self: self._stride
