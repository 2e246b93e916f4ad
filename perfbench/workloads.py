"""The benchmark's three workloads and the findings each must report.

Every workload is a closed loop driven from one process: one campaign
(or one grid of campaigns) runs to budget exhaustion before the next
repetition starts.  Each is built only from the public API, with the
workload seed passed into the program's inputs:

* ``RunConfiguration.noise_seed = seed``;
* ``RandomInjection(rng_seed=11 + seed)`` and
  ``BayesianFaultInjection(rng_seed=7 + seed)``.

Seed 0 therefore gives the library defaults, and it is the seed whose
findings are gated (:data:`DEFAULT_SEED`).  The expected findings below
come from the paper's evaluation: the bugs Avis must report on each
firmware, and the Table III ordering of SABRE against the baselines.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, List, Sequence, Tuple

DEFAULT_SEED = 0

SABRE_AUTO = "sabre-auto"
CONVOY_TRAFFIC = "convoy-traffic"
PAPER_GRID = "paper-grid"
NAMES = (SABRE_AUTO, CONVOY_TRAFFIC, PAPER_GRID)

#: Simulation budget of each workload's campaign (per cell on the grid).
BUDGETS = {SABRE_AUTO: 30.0, CONVOY_TRAFFIC: 10.0, PAPER_GRID: 10.0}

#: sabre-auto at the default seed: the ArduPilot bugs SABRE reaches on
#: the AUTO takeoff-and-land mission within 30 simulations.
SABRE_AUTO_BUGS = frozenset({"APM-16021", "APM-16027", "APM-16682", "APM-16953"})

#: convoy-traffic at the default seed, reference stepper: the scenarios
#: that violate inter-vehicle separation.  The adaptive stepper reaches
#: separation violations through other scenarios, so a switch of the
#: default stepper that changes verdicts shows up as a miss here.
CONVOY_SEPARATION_UNSAFE = frozenset(
    {"battery[0] fails at t=46.04s", "battery[0] fails at t=47.04s"}
)

#: Result index at which the default seed's last expected finding is
#: ingested: APM-16953 on sabre-auto, ``battery[0] fails at t=47.04s``
#: on convoy-traffic.  ``time_to_findings_s`` of a seed whose campaign
#: reports no finding is read there.
REFERENCE_FINDING_INDEX = {SABRE_AUTO: 23, CONVOY_TRAFFIC: 6}

GRID_FIRMWARES = ("ardupilot", "px4")
GRID_STRATEGIES = ("avis", "stratified-bfi", "bfi", "random")

#: paper-grid at the default seed: each cell's root-cause bug set.
GRID_CELL_BUGS: Dict[str, FrozenSet[str]] = {
    "ardupilot/avis": frozenset({"APM-16027"}),
    "ardupilot/stratified-bfi": frozenset(),
    "ardupilot/bfi": frozenset(),
    "ardupilot/random": frozenset({"APM-16967"}),
    "px4/avis": frozenset({"PX4-17057", "PX4-17181", "PX4-17192"}),
    "px4/stratified-bfi": frozenset({"PX4-17057"}),
    "px4/bfi": frozenset(),
    "px4/random": frozenset({"PX4-17046"}),
}


def total_budget(workload: str) -> int:
    """Simulations one campaign of ``workload`` may run (the whole grid's)."""
    cells = len(GRID_FIRMWARES) * len(GRID_STRATEGIES) if workload == PAPER_GRID else 1
    return int(BUDGETS[workload]) * cells


#: Scenarios of the checked campaign replayed in the fault-hook pass.
HINJ_REPLAYS = {SABRE_AUTO: 8, CONVOY_TRAFFIC: 2, PAPER_GRID: 6}


# ----------------------------------------------------------------------
# Building the workloads
# ----------------------------------------------------------------------
def sabre_auto_avis(seed: int):
    """ArduPilot Iris, AUTO takeoff-and-land at 8 m, default SABRE."""
    from repro import Avis, RunConfiguration
    from repro.firmware.ardupilot import ArduPilotFirmware

    config = RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=_auto_workload,
        max_sim_time_s=90.0,
        noise_seed=seed,
    )
    return Avis(config, budget_units=BUDGETS[SABRE_AUTO], backend="serial")


def _auto_workload():
    from repro.workloads.builtin import AutoWorkload

    return AutoWorkload(altitude=8.0, init_wait_ms=1000.0)


def sabre_auto_strategy():
    from repro.core.strategies import AvisStrategy

    return AvisStrategy()


def convoy_traffic_avis(seed: int):
    """ArduPilot Iris lead and PX4 wing on the beacon-driven convoy."""
    from repro import Avis, RunConfiguration, VehicleSpec
    from repro.firmware.ardupilot import ArduPilotFirmware
    from repro.firmware.px4 import Px4Firmware
    from repro.workloads.fleet import ConvoyFollowWorkload

    config = RunConfiguration(
        workload_factory=ConvoyFollowWorkload,
        vehicles=(VehicleSpec(ArduPilotFirmware), VehicleSpec(Px4Firmware)),
        noise_seed=seed,
    )
    return Avis(
        config,
        budget_units=BUDGETS[CONVOY_TRAFFIC],
        backend="serial",
        traffic_faults=True,
    )


def convoy_traffic_strategy():
    from repro.core.strategies import AvisStrategy

    return AvisStrategy(
        include_traffic_faults=True,
        separation_aware=True,
        max_scenarios_per_dequeue=4,
    )


def grid_cells(seed: int, cache_dir: str):
    """The Table II-IV matrix, scaled down, as public ``GridCell`` values."""
    from repro import RunConfiguration
    from repro.core.strategies import (
        AvisStrategy,
        BayesianFaultInjection,
        RandomInjection,
        StratifiedBFI,
    )
    from repro.engine.grid import GridCell
    from repro.firmware.ardupilot import ArduPilotFirmware
    from repro.firmware.px4 import Px4Firmware

    firmwares = {"ardupilot": ArduPilotFirmware, "px4": Px4Firmware}
    strategies = {
        "avis": AvisStrategy,
        "stratified-bfi": StratifiedBFI,
        "bfi": lambda: BayesianFaultInjection(rng_seed=7 + seed),
        "random": lambda: RandomInjection(rng_seed=11 + seed),
    }
    cells = []
    for firmware in GRID_FIRMWARES:
        config = RunConfiguration(
            firmware_class=firmwares[firmware],
            workload_factory=_waypoint_workload,
            noise_seed=seed,
        )
        for strategy in GRID_STRATEGIES:
            cells.append(
                GridCell(
                    cell_id=f"{firmware}/{strategy}",
                    config=config,
                    strategy_factory=strategies[strategy],
                    budget_units=BUDGETS[PAPER_GRID],
                    cache_spec=cache_dir,
                )
            )
    return cells


def _waypoint_workload():
    from repro.workloads.builtin import WaypointFenceWorkload

    return WaypointFenceWorkload(altitude=15.0, box_side=15.0)


# ----------------------------------------------------------------------
# Findings, digests and the correctness check
# ----------------------------------------------------------------------
def result_line(result) -> str:
    """One run's scenario, verdict and bug ids, as the digest sees it."""
    kinds = ",".join(sorted({c.kind.value for c in result.unsafe_conditions}))
    bugs = ",".join(sorted(result.triggered_bugs))
    return (
        f"{result.scenario.describe()}|unsafe={result.found_unsafe_condition}"
        f"|{kinds}|{bugs}|steps={result.steps}"
    )


def digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def campaign_findings(workload: str, results) -> List[Tuple[int, str]]:
    """``(result index, finding)`` in the order the campaign ingested them.

    On sabre-auto a finding is a bug id, at the first unsafe run that
    implicates it.  On convoy-traffic it is an unsafe scenario that
    violates separation, named by its description.
    """
    findings: List[Tuple[int, str]] = []
    seen = set()
    for index, result in enumerate(results):
        if not result.found_unsafe_condition:
            continue
        if workload == SABRE_AUTO:
            for bug in sorted(result.triggered_bugs):
                if bug not in seen:
                    seen.add(bug)
                    findings.append((index, bug))
        elif any(c.kind.value == "separation" for c in result.unsafe_conditions):
            findings.append((index, result.scenario.describe()))
    return findings


def expected_findings(workload: str) -> FrozenSet[str]:
    """What the campaign must report at the default seed."""
    return SABRE_AUTO_BUGS if workload == SABRE_AUTO else CONVOY_SEPARATION_UNSAFE


def check_grid(cells: Dict[str, dict]) -> List[str]:
    """Gate paper-grid at the default seed; returns the misses.

    ``cells`` maps cell id to ``{"bugs": [...], "unsafe": n}``.
    """
    misses = []
    for cell_id, expected in GRID_CELL_BUGS.items():
        cell = cells.get(cell_id)
        if cell is None:
            misses.append(f"{cell_id}: no result")
            continue
        missing = sorted(expected - set(cell["bugs"]))
        if missing:
            misses.append(f"{cell_id}: missing {', '.join(missing)}")
    for firmware in GRID_FIRMWARES:
        avis = cells.get(f"{firmware}/avis")
        if avis is None:
            continue
        for strategy in GRID_STRATEGIES[1:]:
            baseline = cells.get(f"{firmware}/{strategy}")
            if baseline is not None and baseline["unsafe"] > avis["unsafe"]:
                misses.append(
                    f"{firmware}: avis found {avis['unsafe']} unsafe scenarios, "
                    f"fewer than {strategy}'s {baseline['unsafe']}"
                )
    return misses
