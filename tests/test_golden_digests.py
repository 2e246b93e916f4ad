"""Golden digests: every observable of a fixed scenario corpus, pinned.

Each corpus run is rendered canonically -- traces, per-vehicle traces,
mode transitions, collisions, fence breaches, proximity conflicts,
sensor and traffic injections, fail-safes, triggered bugs, workload
outcome, step count, duration, minimum separation and the invariant
monitor's verdict -- and hashed.  Both steppers are pinned: a refactor
of the stepping loop or the physics kernel must leave every digest
unchanged, so "behaviour preserved" is checked, not argued.

The corpus is the committed end-to-end scenarios (single-vehicle auto
mission, the homogeneous ArduPilot convoy and the ArduPilot+PX4 convoy)
plus a seeded random corpus.  The cache-key half pins ``scenario_key``
and ``config_fingerprint`` for both steppers, so a refactor cannot
silently invalidate (or alias) result-cache entries either.

A digest may only change with an intended behaviour change.  Print the
current table with ``PYTHONPATH=src python tests/test_golden_digests.py``.
"""

import dataclasses
import enum
import hashlib
import random
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.core.config import RunConfiguration, VehicleSpec
from repro.core.monitor import InvariantMonitor
from repro.core.runner import TestRunner
from repro.engine.cache import (
    config_fingerprint,
    scenario_key,
    workload_fingerprint,
)
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.firmware.px4 import Px4Firmware
from repro.hinj.faults import (
    EMPTY_SCENARIO,
    FaultScenario,
    FaultSpec,
    TrafficFaultKind,
    TrafficFaultSpec,
)
from repro.sensors.base import SensorId, SensorType
from repro.sim.environment import default_environment
from repro.workloads.builtin import AutoWorkload
from repro.workloads.fleet import ConvoyFollowWorkload

STEPPERS = ("reference", "adaptive")


def _auto(**overrides) -> RunConfiguration:
    return RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: AutoWorkload(altitude=8.0, init_wait_ms=1000.0),
        max_sim_time_s=90.0,
        **overrides,
    )


def _convoy() -> RunConfiguration:
    return RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=ConvoyFollowWorkload,
        fleet_size=2,
        max_sim_time_s=100.0,
    )


def _convoy_apm_px4() -> RunConfiguration:
    return RunConfiguration(
        workload_factory=ConvoyFollowWorkload,
        vehicles=(
            VehicleSpec(firmware_class=ArduPilotFirmware),
            VehicleSpec(firmware_class=Px4Firmware),
        ),
        max_sim_time_s=100.0,
    )


def _hilly_environment():
    return replace(default_environment(), ground_altitude=12.0)


FAMILIES = {
    "auto": _auto,
    "convoy": _convoy,
    "apm+px4": _convoy_apm_px4,
}


def _sensor(sensor_type, instance=0, vehicle=0) -> SensorId:
    return SensorId(sensor_type, instance, vehicle=vehicle)


GPS = _sensor(SensorType.GPS)

DROPOUT = TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 10.0, duration_s=5.0)

#: The committed end-to-end scenarios.
COMMITTED = {
    "auto/golden": ("auto", EMPTY_SCENARIO),
    "auto/gps-burst": ("auto", FaultScenario([FaultSpec(GPS, 6.0, duration_s=4.0)])),
    "auto/gps-latched": ("auto", FaultScenario([FaultSpec(GPS, 6.0)])),
    "auto/baro-12s": (
        "auto",
        FaultScenario([FaultSpec(_sensor(SensorType.BAROMETER), 12.0)]),
    ),
    "auto/accel-late": (
        "auto",
        FaultScenario([FaultSpec(_sensor(SensorType.ACCELEROMETER), 17.5)]),
    ),
    "convoy/golden": ("convoy", EMPTY_SCENARIO),
    "convoy/traffic-dropout": ("convoy", FaultScenario([DROPOUT])),
    "apm+px4/golden": ("apm+px4", EMPTY_SCENARIO),
    "apm+px4/traffic-dropout": ("apm+px4", FaultScenario([DROPOUT])),
}

#: Every sensor instance of the Iris suite, as (type, instance).
_SUITE = (
    (SensorType.GYROSCOPE, 0),
    (SensorType.GYROSCOPE, 1),
    (SensorType.ACCELEROMETER, 0),
    (SensorType.ACCELEROMETER, 1),
    (SensorType.COMPASS, 0),
    (SensorType.COMPASS, 1),
    (SensorType.GPS, 0),
    (SensorType.BAROMETER, 0),
    (SensorType.BATTERY, 0),
)


def _seeded_corpus(seed=2026, count=12):
    """Random auto/convoy scenarios: 1-3 sensor faults (about 30% with a
    recovery window) and, on convoys, one traffic fault."""
    rng = random.Random(seed)
    corpus = {}
    for index in range(count):
        family = rng.choice(("auto", "convoy"))
        horizon = 20.0 if family == "auto" else 70.0
        faults = []
        for _ in range(rng.randint(1, 3)):
            sensor_type, instance = rng.choice(_SUITE)
            vehicle = rng.randint(0, 1) if family == "convoy" else 0
            duration = (
                round(rng.uniform(1.0, 8.0), 1) if rng.random() < 0.3 else None
            )
            faults.append(
                FaultSpec(
                    _sensor(sensor_type, instance, vehicle),
                    round(rng.uniform(2.0, horizon), 1),
                    duration_s=duration,
                )
            )
        if family == "convoy":
            kind = rng.choice(list(TrafficFaultKind))
            duration = round(rng.uniform(2.0, 10.0), 1) if rng.random() < 0.3 else None
            faults.append(
                TrafficFaultSpec(
                    rng.randint(0, 1),
                    kind,
                    round(rng.uniform(5.0, horizon), 1),
                    duration_s=duration,
                )
            )
        corpus[f"seeded/{index:02d}-{family}"] = (family, FaultScenario(faults))
    return corpus


CORPUS = {**COMMITTED, **_seeded_corpus()}


# ----------------------------------------------------------------------
# Canonical rendering
# ----------------------------------------------------------------------
def _canonical(value) -> str:
    """Exact, process-independent rendering (floats as hex)."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        inner = ",".join(
            f"{item.name}={_canonical(getattr(value, item.name))}"
            for item in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({inner})"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{_canonical(key)}:{_canonical(item)}"
            for key, item in sorted(value.items())
        ) + "}"
    raise TypeError(f"no canonical rendering for {type(value).__qualname__}")


#: The pinned ``RunResult`` fields.
OBSERVABLES = (
    "trace",
    "vehicle_traces",
    "mode_transitions",
    "vehicle_mode_transitions",
    "collisions",
    "fence_breaches",
    "proximity_events",
    "injections",
    "traffic_injections",
    "failsafe_events",
    "triggered_bugs",
    "workload_result",
    "steps",
    "duration_s",
    "aborted_early",
    "min_separation_m",
    "firmware_process_alive",
    "vehicle_firmware_alive",
    "unsafe_conditions",
)


def result_digest(result) -> str:
    """SHA-256 (first 16 hex digits) over every pinned observable."""
    lines = [f"scenario={_canonical(list(result.scenario))}"]
    lines.extend(
        f"{name}={_canonical(getattr(result, name))}" for name in OBSERVABLES
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


@lru_cache(maxsize=None)
def _monitor(family: str) -> InvariantMonitor:
    """A monitor calibrated on the family's reference golden run."""
    golden = TestRunner(FAMILIES[family]()).run()
    assert golden.workload_passed
    return InvariantMonitor([golden])


def run_case(case: str, stepper: str):
    family, scenario = CORPUS[case]
    config = replace(FAMILIES[family](), stepper=stepper)
    return TestRunner(config, monitor=_monitor(family)).run(scenario)


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
KEY_CONFIGS = {
    "auto": _auto,
    "convoy": _convoy,
    "apm+px4": _convoy_apm_px4,
    "auto+hilly": lambda: _auto(environment_factory=_hilly_environment),
}

KEY_SCENARIO = FaultScenario(
    [FaultSpec(GPS, 6.0, duration_s=4.0), FaultSpec(_sensor(SensorType.BATTERY), 30.0)]
)


def key_pins(name: str, stepper: str):
    """(config fingerprint digest, empty-scenario key, faulted key)."""
    config = replace(KEY_CONFIGS[name](), stepper=stepper)
    workload = workload_fingerprint(config)
    fingerprint = config_fingerprint(config, workload)
    assert ("stepper=" in fingerprint) == (stepper != "reference")
    return (
        hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:16],
        scenario_key(config, workload, EMPTY_SCENARIO),
        scenario_key(config, workload, KEY_SCENARIO),
    )


# ----------------------------------------------------------------------
# Pinned values
# ----------------------------------------------------------------------
GOLDEN_DIGESTS = {
    ('apm+px4/golden', 'reference'): 'ed73828eae954841',
    ('apm+px4/golden', 'adaptive'): '7d496bf9b65c7b5a',
    ('apm+px4/traffic-dropout', 'reference'): 'f971d08aecd4df3c',
    ('apm+px4/traffic-dropout', 'adaptive'): '0cee5fc3cde42e03',
    ('auto/accel-late', 'reference'): '6c8bd40e7f32ad8a',
    ('auto/accel-late', 'adaptive'): '9148c7150910d3d8',
    ('auto/baro-12s', 'reference'): '2ac67b4d04b384f9',
    ('auto/baro-12s', 'adaptive'): '8724bc1bf5d2726a',
    ('auto/golden', 'reference'): 'a5e39d2215cbd74c',
    ('auto/golden', 'adaptive'): '7ee936b57a888985',
    ('auto/gps-burst', 'reference'): '4e360b8ed215f299',
    ('auto/gps-burst', 'adaptive'): 'bda3dee697fb2784',
    ('auto/gps-latched', 'reference'): '21f853aa6a73ffd7',
    ('auto/gps-latched', 'adaptive'): 'ebfcb551325bd8c1',
    ('convoy/golden', 'reference'): '4adc7bfc257e88cc',
    ('convoy/golden', 'adaptive'): 'bd4c2c6e66c22547',
    ('convoy/traffic-dropout', 'reference'): 'b70dad75a3dcd040',
    ('convoy/traffic-dropout', 'adaptive'): 'dfe5ded9fd419dd4',
    ('seeded/00-auto', 'reference'): '150094095ba07809',
    ('seeded/00-auto', 'adaptive'): '77895eb3d0e97dae',
    ('seeded/01-convoy', 'reference'): 'cd4cbf3d5758e925',
    ('seeded/01-convoy', 'adaptive'): '85297614defe5f81',
    ('seeded/02-auto', 'reference'): '43a27dc3af9c06dc',
    ('seeded/02-auto', 'adaptive'): '98a550811822bfa6',
    ('seeded/03-convoy', 'reference'): '993323b4ad8510fd',
    ('seeded/03-convoy', 'adaptive'): '2e8a82a164407683',
    ('seeded/04-convoy', 'reference'): '6b57ea78e0cce1d7',
    ('seeded/04-convoy', 'adaptive'): '978591aace214ce8',
    ('seeded/05-auto', 'reference'): '2da36e38bbbfabe1',
    ('seeded/05-auto', 'adaptive'): '13b0330ffefa105e',
    ('seeded/06-convoy', 'reference'): 'a8cfc76752d7e794',
    ('seeded/06-convoy', 'adaptive'): 'efd59d99ed7bcb8b',
    ('seeded/07-auto', 'reference'): 'd09a5b1195d06512',
    ('seeded/07-auto', 'adaptive'): '17615b743c47c5ac',
    ('seeded/08-convoy', 'reference'): '4ff60d550f157aed',
    ('seeded/08-convoy', 'adaptive'): 'c250c44c1ebd88b0',
    ('seeded/09-auto', 'reference'): 'b2b64073aa059e12',
    ('seeded/09-auto', 'adaptive'): 'cf975b436c0e9453',
    ('seeded/10-auto', 'reference'): '0d581f6e9db13630',
    ('seeded/10-auto', 'adaptive'): '183cab01c0c42c47',
    ('seeded/11-convoy', 'reference'): '9855d75d4ec8b221',
    ('seeded/11-convoy', 'adaptive'): '2b8917642cfd543d',
}

GOLDEN_KEYS = {
    ('apm+px4', 'reference'): (
        '1fa9561e5190b976',
        '21e145dd8142d83aebadba4ecc36acbc560bfbbcbc78fba3bf30af26764f6222',
        '1a6bec75c6bb5d9864ef7f9247a7b69a9f330e35ea0d9e4a82121e6675ab54ac',
    ),
    ('apm+px4', 'adaptive'): (
        'b923420b2edd4447',
        'ad49a5584e417e2d5741b1a578df202e038e3e846e23ebeba5f1275c6ba0d933',
        '288f347308479a946e567b9f237c746947821231ec666dab1084d1b8b6833ff4',
    ),
    ('auto', 'reference'): (
        '2169b7831ef688bf',
        'a66ace4581506ad0646eb49ee06f8dc82446b51b9d7051d816e5a3feccd4e3ff',
        'b22c359631408363887d1d42791185db9222ac7d3f43bce851aa3d7fc06f7b1f',
    ),
    ('auto', 'adaptive'): (
        '6b145d34deba9b34',
        'b157213cbdc44a9c448bf5d1ece5634906544661e9dbd49607b8da2c145183d1',
        '417e5a767d8695c2ce0a5c95f7ec02a3f7237fdc5e55272a50b177aca93071d6',
    ),
    ('auto+hilly', 'reference'): (
        '385eea94bafb4f4b',
        '25e09a373739561cd5e971e83405b2727612ec812c17862a1ee07ba28287bde9',
        '7532bdbb0debd3698b947431d3bb0b81a9e4178d3faf74e286774d8d428ea22a',
    ),
    ('auto+hilly', 'adaptive'): (
        '6493aeb24a3093c2',
        'f4df6b6bb579a0792aa58100789a03fd29d4d3d9604f632dd2b14510fa603f01',
        '666baf87c0cd94950e2bb47477c0fef7942c390a90ce4ea80c1274f06cd8f22c',
    ),
    ('convoy', 'reference'): (
        'e20f8c669f9b70ed',
        'f44777137bd3a35026f3f86120928c0d3e2247122eb90f3e30d912846e301587',
        '6f909c96ec43e9be518b9662078db23d5b8cacae063c4024d8634d8c747308a0',
    ),
    ('convoy', 'adaptive'): (
        'bf10dedf23b95a30',
        '27d33e6c0aa6b60bc847f94046cd8105098b86572b050b9162effec2aff31760',
        '7544846f13425e60a86041f932c9aa477ddf49348eb04485c6d1fba28fff9708',
    ),
}


@pytest.mark.parametrize("stepper", STEPPERS)
@pytest.mark.parametrize("case", sorted(CORPUS))
def test_run_digest_is_pinned(case, stepper):
    assert result_digest(run_case(case, stepper)) == GOLDEN_DIGESTS[(case, stepper)]


@pytest.mark.parametrize("stepper", STEPPERS)
@pytest.mark.parametrize("name", sorted(KEY_CONFIGS))
def test_cache_keys_are_pinned(name, stepper):
    assert key_pins(name, stepper) == GOLDEN_KEYS[(name, stepper)]


def test_corpus_shape():
    """The seeded corpus covers both families, windows and traffic."""
    seeded = [scenario for case, (_, scenario) in CORPUS.items() if "seeded" in case]
    assert len(seeded) == 12
    families = {CORPUS[case][0] for case in CORPUS if case.startswith("seeded")}
    assert families == {"auto", "convoy"}
    assert any(fault.duration_s is not None for s in seeded for fault in s)
    assert any(s.has_traffic_faults for s in seeded)


if __name__ == "__main__":
    print("GOLDEN_DIGESTS = {")
    for case in sorted(CORPUS):
        for stepper in STEPPERS:
            digest = result_digest(run_case(case, stepper))
            print(f"    ({case!r}, {stepper!r}): {digest!r},")
    print("}\n\nGOLDEN_KEYS = {")
    for name in sorted(KEY_CONFIGS):
        for stepper in STEPPERS:
            print(f"    ({name!r}, {stepper!r}): (")
            for value in key_pins(name, stepper):
                print(f"        {value!r},")
            print("    ),")
    print("}")
