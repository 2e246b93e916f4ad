"""Run configuration: everything needed to provision one test run.

The paper provisions "a new instance of the simulator and firmware" at
the start of each test; :class:`RunConfiguration` is the recipe for that
provisioning, shared by the profiling runs, the search strategies, and
bug replay so that every run of a campaign is built identically.

Fleet composition is a first-class, per-vehicle concept: a
:class:`VehicleSpec` names one fleet member's firmware flavour, airframe
and parameter overrides, and ``RunConfiguration.vehicles`` holds one
spec per fleet member so a single campaign can fly an ArduPilot Iris
lead with a PX4 Solo wing.  The classic scalar fields
(``firmware_class``, ``airframe``, ``firmware_params``) remain as
aliases for vehicle 0 -- every existing construction keeps working, and
``fleet_size=N`` with identical specs is bit-identical (including cache
keys) to the pre-spec fleet engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Type

from repro.firmware.ardupilot import ArduPilotFirmware
from repro.firmware.base import ControlFirmware
from repro.firmware.params import FirmwareParameters
from repro.sim.environment import Environment, default_environment
from repro.sim.planner import StepPlanner
from repro.sim.vehicle import IRIS_QUADCOPTER, AirframeParameters
from repro.workloads.builtin import AutoWorkload
from repro.workloads.framework import Target


@dataclass(frozen=True)
class VehicleSpec:
    """Everything vehicle-specific about one fleet member's provisioning.

    Attributes
    ----------
    firmware_class:
        The firmware flavour this vehicle runs (:class:`ArduPilotFirmware`
        or :class:`Px4Firmware`).
    airframe:
        The vehicle's airframe parameters.
    firmware_params:
        Optional firmware parameter overrides (None uses the flavour's
        defaults).
    """

    firmware_class: Type[ControlFirmware] = ArduPilotFirmware
    airframe: AirframeParameters = IRIS_QUADCOPTER
    firmware_params: Optional[FirmwareParameters] = None

    @property
    def firmware_name(self) -> str:
        """The flavour name of this vehicle's firmware class."""
        return self.firmware_class.name

    def describe(self) -> str:
        """Short human-readable description used in reports and cell ids."""
        extra = "+params" if self.firmware_params is not None else ""
        return f"{self.firmware_name}/{self.airframe.name}{extra}"


@dataclass
class RunConfiguration:
    """Recipe for provisioning one simulated test run.

    Attributes
    ----------
    firmware_class:
        The firmware flavour to check (:class:`ArduPilotFirmware` or
        :class:`Px4Firmware`).  Alias for vehicle 0's spec.
    workload_factory:
        Zero-argument callable returning a fresh workload instance.
    environment_factory:
        Zero-argument callable returning a fresh environment.
    airframe:
        Airframe parameters (the Iris in every paper experiment).  Alias
        for vehicle 0's spec.
    firmware_params:
        Optional firmware parameter overrides (None uses the flavour's
        defaults).  Alias for vehicle 0's spec.
    dt:
        Simulation time-step in seconds.  The paper steps at 1 ms; the
        pure-Python reproduction defaults to 20 ms, which is fast enough
        for the controllers and keeps campaigns tractable.
    max_sim_time_s:
        Hard cap on simulated time per run (fly-away runs would otherwise
        never terminate).
    sample_interval_steps:
        The trace (and the liveliness check) is sampled every this many
        steps.
    noise_seed:
        Seed for the deterministic sensor noise.  Profiling runs vary it
        to obtain the run-to-run spread the liveliness threshold needs.
    reinserted_bugs:
        Previously-known bug ids to re-insert (Table V experiments).
    disabled_bugs:
        Bug ids to disable (i.e. treat as fixed).
    stop_on_unsafe:
        Abort a run as soon as the invariant monitor reports a violation
        (saves simulation budget; the paper's runs likewise end once an
        unsafe condition has been recorded).
    fleet_size:
        Number of vehicles hosted by one simulation.  The default of 1
        is the classic Avis setup and is bit-identical to the
        pre-fleet engine; fleet workloads (:mod:`repro.workloads.fleet`)
        need 2 or more.
    fleet_pad_spacing_m:
        East spacing between fleet launch pads, in metres.
    vehicles:
        Optional per-vehicle :class:`VehicleSpec` sequence.  When given,
        it defines the fleet: ``fleet_size`` is derived from its length
        (an explicitly passed ``fleet_size`` must agree) and the scalar
        aliases above are synchronised to vehicle 0's spec.  When
        omitted, every fleet member uses the scalar fields -- the
        classic homogeneous fleet.
    traffic_beacon_interval_s:
        Period of each fleet member's position/velocity beacon broadcast
        over the inter-vehicle traffic channel (fleet runs only).
    traffic_latency_s:
        Nominal delivery latency of a traffic beacon, in seconds.
    stepper:
        Simulation stepping mode.  ``reference`` (default) is the
        lock-step loop that runs sensors, firmware and physics every
        time-step; ``adaptive`` fuses micro-steps into one control
        period while no fault window, workload checkpoint, mode
        transition or proximity hazard is near (same safety verdicts,
        distinct cache keys).
    """

    #: Stepping modes accepted by :attr:`stepper` -- the one definition
    #: the CLI, the campaign API and the cache keys all read.
    STEPPERS = ("reference", "adaptive")

    firmware_class: Type[ControlFirmware] = ArduPilotFirmware
    workload_factory: Callable[[], Target] = AutoWorkload
    environment_factory: Callable[[], Environment] = default_environment
    airframe: AirframeParameters = IRIS_QUADCOPTER
    firmware_params: Optional[FirmwareParameters] = None
    dt: float = 0.02
    max_sim_time_s: float = 160.0
    sample_interval_steps: int = 5
    noise_seed: int = 0
    reinserted_bugs: Tuple[str, ...] = ()
    disabled_bugs: Tuple[str, ...] = ()
    stop_on_unsafe: bool = True
    fleet_size: int = 1
    fleet_pad_spacing_m: float = 8.0
    vehicles: Optional[Tuple[VehicleSpec, ...]] = None
    traffic_beacon_interval_s: float = 0.2
    traffic_latency_s: float = 0.1
    stepper: str = "reference"

    def __post_init__(self) -> None:
        if self.vehicles is not None:
            self.vehicles = tuple(self.vehicles)
            if not self.vehicles:
                raise ValueError("vehicles, when given, needs at least one spec")
            if self.fleet_size == 1 and len(self.vehicles) != 1:
                self.fleet_size = len(self.vehicles)
            elif self.fleet_size != len(self.vehicles):
                raise ValueError(
                    f"fleet_size={self.fleet_size} disagrees with "
                    f"{len(self.vehicles)} vehicle spec(s)"
                )
            # The scalar fields are aliases for vehicle 0: keep them (and
            # everything that reads them -- reports, fingerprints, the
            # lead facades) pointing at the lead's spec.
            lead = self.vehicles[0]
            self.firmware_class = lead.firmware_class
            self.airframe = lead.airframe
            self.firmware_params = lead.firmware_params
        if self.fleet_size < 1:
            raise ValueError("fleet_size must be at least 1")
        if self.traffic_beacon_interval_s <= 0.0:
            raise ValueError("traffic_beacon_interval_s must be positive")
        if self.traffic_latency_s < 0.0:
            raise ValueError("traffic_latency_s cannot be negative")
        if self.stepper not in self.STEPPERS:
            raise ValueError(
                f"unknown stepper {self.stepper!r}; expected one of {self.STEPPERS}"
            )

    def with_noise_seed(self, noise_seed: int) -> "RunConfiguration":
        """Return a copy of the configuration with a different noise seed."""
        return RunConfiguration(
            firmware_class=self.firmware_class,
            workload_factory=self.workload_factory,
            environment_factory=self.environment_factory,
            airframe=self.airframe,
            firmware_params=self.firmware_params,
            dt=self.dt,
            max_sim_time_s=self.max_sim_time_s,
            sample_interval_steps=self.sample_interval_steps,
            noise_seed=noise_seed,
            reinserted_bugs=self.reinserted_bugs,
            disabled_bugs=self.disabled_bugs,
            stop_on_unsafe=self.stop_on_unsafe,
            fleet_size=self.fleet_size,
            fleet_pad_spacing_m=self.fleet_pad_spacing_m,
            vehicles=self.vehicles,
            traffic_beacon_interval_s=self.traffic_beacon_interval_s,
            traffic_latency_s=self.traffic_latency_s,
            stepper=self.stepper,
        )

    def step_planner(
        self, event_times: Sequence[float] = ()
    ) -> Optional[StepPlanner]:
        """The planner a run of this configuration steps with (None for
        the reference stepper), knowing the boundaries ``event_times``."""
        if self.stepper != "adaptive":
            return None
        return StepPlanner(dt=self.dt, event_times=event_times)

    # ------------------------------------------------------------------
    # Per-vehicle specs
    # ------------------------------------------------------------------
    @property
    def lead_spec(self) -> VehicleSpec:
        """Vehicle 0's spec (the scalar aliases, as one object)."""
        return VehicleSpec(
            firmware_class=self.firmware_class,
            airframe=self.airframe,
            firmware_params=self.firmware_params,
        )

    def vehicle_spec(self, vehicle: int) -> VehicleSpec:
        """The provisioning spec of fleet member ``vehicle``."""
        if not 0 <= vehicle < self.fleet_size:
            raise IndexError(
                f"no vehicle {vehicle} in a fleet of {self.fleet_size}"
            )
        if self.vehicles is not None:
            return self.vehicles[vehicle]
        return self.lead_spec

    @property
    def vehicle_specs(self) -> Tuple[VehicleSpec, ...]:
        """One spec per fleet member, in vehicle order."""
        if self.vehicles is not None:
            return self.vehicles
        return tuple(self.lead_spec for _ in range(self.fleet_size))

    @property
    def is_heterogeneous(self) -> bool:
        """True when at least one fleet member differs from the lead.

        Homogeneous configurations -- whether expressed through the
        scalar aliases or through an explicit ``vehicles`` tuple of
        identical specs -- are the classic fleet and must fingerprint
        (and therefore cache) identically.
        """
        if self.vehicles is None:
            return False
        lead = self.vehicles[0]
        return any(spec != lead for spec in self.vehicles[1:])

    @property
    def firmware_name(self) -> str:
        """The flavour name of the configured (lead) firmware class."""
        return self.firmware_class.name
