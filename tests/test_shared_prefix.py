"""Shared fault-free prefix: forked runs are the runs in-process gives.

A batch flies its golden run once in a carrier process and forks it at
each scenario's first injection (:mod:`repro.core.prefix`).  These tests
push the whole golden-digest corpus through batches -- serial and pool,
both steppers -- and require every pinned digest unchanged, then cover
the edges (a fault at t=0, a fault after the flight, an empty scenario,
a carrier flying the last scenario itself, several forked runs at once,
an installed observability runtime) and the failure paths: a child that
raises, a child that dies, a carrier that dies.  No forked process may
outlive its batch.
"""

import math
import os
import pickle
import signal
from dataclasses import replace

import pytest

from repro.core import prefix
from repro.core.runner import TestRunner
from repro.engine.backends import ProcessPoolBackend, SerialBackend
from repro.hinj.faults import EMPTY_SCENARIO, FaultScenario, FaultSpec
from repro.obs import runtime as obs_runtime
from repro.sensors.base import SensorId, SensorType
from repro.sim.planner import StepPlanner
from repro.workloads.builtin import AutoWorkload

from test_golden_digests import (
    CORPUS,
    FAMILIES,
    GOLDEN_DIGESTS,
    STEPPERS,
    _auto,
    _monitor,
    result_digest,
)

GPS = SensorId(SensorType.GPS, 0)
BARO = SensorId(SensorType.BAROMETER, 0)

#: The reference-stepper auto cases the edge and failure tests batch.
AUTO_CASES = ("auto/gps-burst", "auto/baro-12s", "auto/accel-late", "auto/golden")


def _family_cases(family):
    return [case for case in sorted(CORPUS) if CORPUS[case][0] == family]


@pytest.fixture
def shared_log(tmp_path, monkeypatch):
    """Record how many runs each batch took from forks, across pool
    workers too (each process appends to a file)."""
    log = tmp_path / "shared.log"
    original = prefix.share_prefix

    def recording(runner, scenarios, concurrency=1):
        batch = original(runner, scenarios, concurrency)
        with open(log, "a", encoding="utf-8") as stream:
            stream.write(f"{len(batch.outcomes) if batch else 0}\n")
        return batch

    monkeypatch.setattr("repro.core.runner.share_prefix", recording)

    def total():
        if not log.exists():
            return 0
        return sum(int(line) for line in log.read_text().split())

    return total


# ----------------------------------------------------------------------
# Equivalence: the pinned corpus through batches
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stepper", STEPPERS)
@pytest.mark.parametrize("backend_name", ("serial", "pool2"))
def test_batched_corpus_matches_pinned_digests(backend_name, stepper, shared_log):
    backend = SerialBackend() if backend_name == "serial" else ProcessPoolBackend(2)
    expected_shared = 0
    try:
        for family in FAMILIES:
            cases = _family_cases(family)
            scenarios = [CORPUS[case][1] for case in cases]
            config = replace(FAMILIES[family](), stepper=stepper)
            results = backend.run_scenarios(config, _monitor(family), scenarios)
            digests = {case: result_digest(r) for case, r in zip(cases, results)}
            assert digests == {case: GOLDEN_DIGESTS[(case, stepper)] for case in cases}
            if len(scenarios) >= 2:
                expected_shared += len(scenarios)
    finally:
        backend.close()
    # Every batch of two or more really was forked, on the pool too.
    assert expected_shared > 0
    assert shared_log() == expected_shared


def test_fork_time_leads_the_adaptive_planner():
    scenario = FaultScenario([FaultSpec(SensorId(SensorType.GPS, 0), 6.0)])
    config = _auto()
    reference = prefix.fork_time(config, scenario)
    adaptive_config = _auto(stepper="adaptive")
    adaptive = prefix.fork_time(adaptive_config, scenario)
    assert reference == 6.0 - prefix.FORK_MARGIN_STEPS * config.dt
    assert adaptive == reference - adaptive_config.step_planner().reaction_lead_s
    assert prefix.fork_time(config, EMPTY_SCENARIO) == math.inf


def test_planner_reacts_no_earlier_than_its_reaction_lead():
    planner = StepPlanner(dt=0.02, event_times=[10.0])
    before = 10.0 - planner.reaction_lead_s - 0.01
    assert planner.plan(before, planner.max_stride) == planner.max_stride
    assert planner.plan(before + 0.02, planner.max_stride) == 1


def test_can_share_needs_two_prefixes_and_no_obs_runtime():
    config = _auto()
    late = [
        FaultScenario([FaultSpec(GPS, 6.0)]),
        FaultScenario([FaultSpec(BARO, 12.0)]),
    ]
    assert prefix.can_share(config, late)
    assert not prefix.can_share(config, late[:1])
    assert not prefix.can_share(config, [FaultScenario([FaultSpec(GPS, 0.0)])] * 2)
    with obs_runtime.observed():
        assert not prefix.can_share(config, late)


# ----------------------------------------------------------------------
# Edge cases: each batch must equal fresh in-process runs
# ----------------------------------------------------------------------
def _fresh_digests(config, scenarios):
    return [
        result_digest(TestRunner(config, monitor=_monitor("auto")).run(scenario))
        for scenario in scenarios
    ]


def _batch(config, scenarios):
    runner = TestRunner(config, monitor=_monitor("auto"))
    digests = [result_digest(result) for result in runner.run_batch(scenarios)]
    return runner, digests


@pytest.mark.parametrize("stepper", STEPPERS)
def test_fault_at_t0_runs_in_process(stepper):
    config = _auto(stepper=stepper)
    scenarios = [
        FaultScenario([FaultSpec(GPS, 0.0)]),
        FaultScenario([FaultSpec(GPS, 6.0)]),
        FaultScenario([FaultSpec(BARO, 12.0)]),
    ]
    runner, digests = _batch(config, scenarios)
    assert digests == _fresh_digests(config, scenarios)
    assert runner.shared_prefix_runs == 2


def test_fault_after_the_flight_ends_runs_in_process():
    config = _auto()
    scenarios = [
        FaultScenario([FaultSpec(GPS, 6.0)]),
        FaultScenario([FaultSpec(BARO, 12.0)]),
        FaultScenario([FaultSpec(BARO, 500.0)]),
    ]
    runner, digests = _batch(config, scenarios)
    assert digests == _fresh_digests(config, scenarios)
    assert runner.shared_prefix_runs == 2
    assert runner.lost_forks == 0


def test_empty_scenario_takes_the_carrier_golden_run():
    config = _auto()
    scenarios = [
        FaultScenario([FaultSpec(BARO, 12.0)]),
        EMPTY_SCENARIO,
        FaultScenario([FaultSpec(GPS, 6.0)]),
    ]
    runner, digests = _batch(config, scenarios)
    assert digests == _fresh_digests(config, scenarios)
    assert runner.shared_prefix_runs == 3
    assert runner.runs_executed == 3


@pytest.mark.parametrize("concurrency", (1, 3))
def test_carrier_flies_the_last_scenario_itself(concurrency):
    """Without an empty scenario nothing wants the rest of the golden
    flight, so the carrier adopts the last-forking scenario."""
    cases = [case for case in AUTO_CASES if case != "auto/golden"]
    scenarios = [CORPUS[case][1] for case in cases]

    def batch():
        runner = TestRunner(_auto(), monitor=_monitor("auto"))
        results = runner.run_batch(scenarios, concurrency=concurrency)
        return [result_digest(r) for r in results], runner.shared_prefix_runs

    _monitor("auto")
    digests, shared = _in_fresh_process(batch)
    assert digests == [GOLDEN_DIGESTS[(case, "reference")] for case in cases]
    assert shared == len(cases)


def test_pool_spreads_what_the_prefix_cannot_deliver():
    config = _auto()
    scenarios = [
        FaultScenario([FaultSpec(GPS, 6.0)]),
        FaultScenario([FaultSpec(BARO, 500.0)]),
        FaultScenario([FaultSpec(BARO, 12.0)]),
        FaultScenario([FaultSpec(GPS, 0.0)]),
    ]
    backend = ProcessPoolBackend(2)
    try:
        results = backend.run_scenarios(config, _monitor("auto"), scenarios)
    finally:
        backend.close()
    assert [result_digest(r) for r in results] == _fresh_digests(config, scenarios)


def test_installed_obs_runtime_keeps_runs_in_process():
    config = _auto()
    scenarios = [CORPUS[case][1] for case in AUTO_CASES]
    with obs_runtime.observed():
        runner = TestRunner(config, monitor=_monitor("auto"))
        results = list(runner.run_batch(scenarios))
    assert [result_digest(r) for r in results] == [
        GOLDEN_DIGESTS[(case, "reference")] for case in AUTO_CASES
    ]
    assert runner.shared_prefix_runs == 0
    assert all(result.flight_log is not None for result in results)


def test_results_come_back_through_run():
    """The monitor verdict, run accounting and the scenario object are
    the caller's, as for an in-process run."""
    config = _auto()
    scenarios = [CORPUS[case][1] for case in AUTO_CASES]
    runner = TestRunner(config, monitor=_monitor("auto"))
    results = list(runner.run_batch(scenarios))
    assert runner.shared_prefix_runs == len(scenarios)
    assert runner.runs_executed == len(scenarios)
    assert runner.simulated_seconds == sum(r.duration_s for r in results)
    assert all(r.scenario is s for r, s in zip(results, scenarios))


# ----------------------------------------------------------------------
# Failures degrade, never corrupt
# ----------------------------------------------------------------------
class _Sabotaged(AutoWorkload):
    """The auto mission, sabotaged only inside forked processes.

    ``action`` is ``raise`` or ``kill`` (in the child flying
    ``target``), or ``kill-carrier`` (in the carrier, once it is past
    ``after_s``).  In the batch's own process it flies normally, so the
    in-process fallback gives the pinned result.
    """

    def __init__(self, action, batch_pid, target=None, after_s=0.0):
        super().__init__(altitude=8.0, init_wait_ms=1000.0)
        self._action = action
        self._batch_pid = batch_pid
        self._target = target
        self._after_s = after_s

    def step(self, count=1):
        super().step(count)
        if os.getpid() == self._batch_pid:
            return
        scenario = self._harness._scenario
        if self._action == "kill-carrier":
            if scenario.is_empty and self._harness.time > self._after_s:
                os.kill(os.getpid(), signal.SIGKILL)
        elif scenario == self._target:
            if self._action == "raise":
                raise ValueError("sabotaged flight")
            os.kill(os.getpid(), signal.SIGKILL)


def _in_fresh_process(function):
    """Run ``function`` in a forked process that has no other children,
    check it leaves none behind, and return its (picklable) value."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            value = function()
            try:
                os.waitpid(-1, os.WNOHANG)
                leftover = True
            except ChildProcessError:
                leftover = False
            os.write(write_fd, pickle.dumps((value, leftover)))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as stream:
        payload = stream.read()
    _, status = os.waitpid(pid, 0)
    assert status == 0, "the batch process failed"
    value, leftover = pickle.loads(payload)
    assert not leftover, "a forked prefix process outlived its batch"
    return value


def _sabotaged_batch(action, cases=AUTO_CASES, **kwargs):
    scenarios = [CORPUS[case][1] for case in cases]
    config = replace(
        _auto(),
        workload_factory=lambda: _Sabotaged(action, batch_pid, **kwargs),
    )
    batch_pid = os.getpid()
    runner = TestRunner(config, monitor=_monitor("auto"))
    try:
        digests = [result_digest(result) for result in runner.run_batch(scenarios)]
    except Exception as error:  # reported to the test process
        return {"error": (type(error).__name__, str(error))}
    return {
        "digests": digests,
        "shared": runner.shared_prefix_runs,
        "lost": runner.lost_forks,
    }


PINNED_AUTO = [GOLDEN_DIGESTS[(case, "reference")] for case in AUTO_CASES]


def test_child_exception_reraises_with_child_traceback():
    _monitor("auto")  # calibrate before forking
    target = CORPUS["auto/baro-12s"][1]
    outcome = _in_fresh_process(lambda: _sabotaged_batch("raise", target=target))
    error_type, message = outcome["error"]
    assert error_type == "ValueError"
    assert "sabotaged flight" in message
    assert "Traceback (most recent call last)" in message
    assert "in step" in message


def test_dead_child_reruns_in_process():
    _monitor("auto")
    target = CORPUS["auto/baro-12s"][1]
    outcome = _in_fresh_process(lambda: _sabotaged_batch("kill", target=target))
    assert outcome["digests"] == PINNED_AUTO
    assert outcome["lost"] == 1
    assert outcome["shared"] == len(AUTO_CASES) - 1


def test_exception_in_the_carrier_flown_scenario_reraises():
    _monitor("auto")
    cases = [case for case in AUTO_CASES if case != "auto/golden"]
    target = CORPUS["auto/accel-late"][1]
    outcome = _in_fresh_process(
        lambda: _sabotaged_batch("raise", target=target, cases=cases)
    )
    error_type, message = outcome["error"]
    assert error_type == "ValueError"
    assert "Traceback (most recent call last)" in message


def test_killed_carrier_flying_the_last_scenario_reruns_it():
    _monitor("auto")
    cases = [case for case in AUTO_CASES if case != "auto/golden"]
    target = CORPUS["auto/accel-late"][1]
    outcome = _in_fresh_process(
        lambda: _sabotaged_batch("kill", target=target, cases=cases)
    )
    assert outcome["digests"] == [
        GOLDEN_DIGESTS[(case, "reference")] for case in cases
    ]
    assert outcome["lost"] == 1
    assert outcome["shared"] == len(cases) - 1


def test_killed_carrier_gives_in_process_results():
    _monitor("auto")
    # The carrier dies after forking the 6 s GPS burst, before the 12 s
    # barometer fault: the rest of the batch re-runs in-process.
    outcome = _in_fresh_process(
        lambda: _sabotaged_batch("kill-carrier", after_s=9.0)
    )
    assert outcome["digests"] == PINNED_AUTO
    assert outcome["lost"] == 1
    assert outcome["shared"] == 1
