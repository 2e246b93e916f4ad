"""Shared fault-free prefix: fly a batch's golden run once, fork per scenario.

Avis injects a fault when the firmware changes mode (Section IV), so
until a scenario's first fault can be observed its run *is* the
fault-free (golden) run: faults are consulted per sensor read and per
traffic beacon, the monitor's recovery-tolerance windows start at the
fault, and the adaptive planner reacts to a boundary only a bounded
lead ahead of it.  A batch therefore needs to fly that common prefix
once.

:func:`share_prefix` flies ``EMPTY_SCENARIO`` in the calling process
and, at the last window boundary before each scenario's
:func:`fork_time`, ``os.fork()``\\ s a child.  The child adopts the
scenario (:meth:`SimulationHarness.adopt_scenario`), finishes the
workload on the call stack it inherited, writes one ``_REPORT`` header
(kind, payload length) plus the pickled ``build_result`` output to a
pipe of its own, and exits.  With ``concurrency=1`` (the serial
backend) the caller waits for each child before it flies on, so only
one simulation runs at a time; with ``concurrency=N`` (a pool worker)
it flies on while up to ``N - 1`` children run.  The golden result goes
to the batch's empty scenarios and to every scenario whose fork point
the flight never reached (it ended or aborted first, so that scenario
flies the same flight); when nothing wants it, the caller flies the
batch's last-forking scenario itself instead of forking it.  The caller
then hands every result out through ``TestRunner.run``, so monitor
evaluation and run accounting happen exactly as for an in-process run.

Sharing never changes a result.  Whatever does not come back whole -- a
child died or wrote a torn report, or the golden flight raised before
the scenario's fork -- is simply run in-process by the caller.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import select
import signal
import struct
import threading
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.config import RunConfiguration
from repro.hinj.faults import EMPTY_SCENARIO, FaultScenario
from repro.obs import runtime as obs_runtime

if TYPE_CHECKING:
    from repro.core.runner import SimulationHarness, TestRunner

_REPORT = struct.Struct("!Bq")
_RESULT, _ERROR = range(2)

#: Safety margin, in time-steps, between a fork and the first moment a
#: scenario's fault could be observed (sensor reads happen at a window's
#: start, traffic beacons and trace samples one step later).
FORK_MARGIN_STEPS = 2


def fork_time(config: RunConfiguration, scenario: FaultScenario) -> float:
    """Simulated time from which a run of ``scenario`` may differ from
    the golden run (``math.inf`` for the empty scenario).

    A fork at any window boundary before this time is exact.  Under the
    adaptive stepper the fork also leads the planner's
    :attr:`~repro.sim.planner.StepPlanner.reaction_lead_s`.
    """
    first = scenario.earliest_time
    if first is None:
        return math.inf
    lead = FORK_MARGIN_STEPS * config.dt
    planner = config.step_planner()
    if planner is not None:
        lead += planner.reaction_lead_s
    return first - lead


def fork_plan(
    config: RunConfiguration, scenarios: Sequence[FaultScenario]
) -> List[Tuple[float, int]]:
    """``(fork time, index)`` of every scenario with a prefix to share
    (fork time above 0; empty scenarios at ``math.inf``), earliest first."""
    plan = []
    for index, scenario in enumerate(scenarios):
        at = fork_time(config, scenario)
        if at > 0.0:
            plan.append((at, index))
    plan.sort()
    return plan


def can_share(config: RunConfiguration, scenarios: Sequence[FaultScenario]) -> bool:
    """True when a single-threaded process would share this batch's
    prefix: ``os.fork`` exists, no ``repro.obs`` runtime is installed
    (phase timers and flight logs must stay whole), and at least two
    scenarios have a prefix."""
    return (
        hasattr(os, "fork")
        and obs_runtime.current() is None
        and len(fork_plan(config, scenarios)) >= 2
    )


@dataclass
class SharedBatch:
    """What a shared prefix delivered for one batch.

    ``outcomes`` maps a scenario index to its :class:`RunResult` or to
    the exception its run raised; indices without an entry must run
    in-process.  ``lost`` counts forked children that died before
    reporting whole.
    """

    outcomes: Dict[int, object] = field(default_factory=dict)
    lost: int = 0


def share_prefix(
    runner: "TestRunner", scenarios: Sequence[FaultScenario], concurrency: int = 1
) -> Optional[SharedBatch]:
    """Fly ``scenarios``' common golden prefix once in this process,
    with at most ``concurrency`` simulations running at a time.

    Returns None -- run everything in-process -- when :func:`can_share`
    says no or another thread is alive (forking it is unsafe).
    """
    if threading.active_count() > 1 or not can_share(runner.config, scenarios):
        return None
    flight = _PrefixFlight(runner, scenarios, max(1, concurrency))
    try:
        return flight.fly()
    except BaseException:
        # No forked run may outlive its batch.
        flight.kill()
        raise


def _rebuild_error(
    error_type: type, message: str, child_traceback: str
) -> Optional[BaseException]:
    """The child's exception, re-created with its traceback in the
    message (None when the type cannot be built from a message; the
    scenario then re-runs in-process and raises there)."""
    try:
        return error_type(
            f"{message}\n\nRaised in the forked run of this scenario:\n"
            f"{child_traceback}"
        )
    except Exception:
        return None


def _write_all(fd: int, data) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


class _PrefixFlight:
    """One batch's golden flight and the fork hook it installs.

    After a fork, the same object lives on in the child with
    ``adopted`` set and a report pipe; :meth:`fly` then reports the
    child's run and exits instead of returning.  The caller sets
    ``adopted`` when it flies the batch's last scenario itself.
    """

    def __init__(
        self,
        runner: "TestRunner",
        scenarios: Sequence[FaultScenario],
        concurrency: int,
    ) -> None:
        plan = fork_plan(runner.config, scenarios)
        self._runner = runner
        self._scenarios = scenarios
        self._forks = [(at, index) for at, index in plan if at != math.inf]
        self._next = 0
        self._golden = [index for at, index in plan if at == math.inf]
        self._concurrency = concurrency
        self._batch = SharedBatch()
        #: Scenario index this process runs (None while it flies golden).
        self.adopted: Optional[int] = None
        #: A forked child's report pipe (None in the caller).
        self._report_fd: Optional[int] = None
        #: Children still reporting: pid -> (index, report pipe, bytes).
        self._children: Dict[int, Tuple[int, int, bytearray]] = {}
        #: Children that reported and are still to be reaped.
        self._exited: List[int] = []

    def fly(self) -> SharedBatch:
        """Fly the golden run and collect what it and its forks ran."""
        try:
            outcome = self._outcome()
            if self._report_fd is not None:
                self._report(outcome)
        except BaseException:
            if self._report_fd is not None:
                # A forked child must never return into the caller's
                # stack (or run its exit handlers).
                os._exit(1)
            raise
        self._finish()
        if self.adopted is not None:
            self._batch.outcomes[self.adopted] = outcome
        elif not isinstance(outcome, Exception):
            # The empty scenarios and those whose fork point this flight
            # never reached: their runs are this flight.
            unreached = [index for _, index in self._forks[self._next:]]
            first, *others = self._golden + unreached
            self._batch.outcomes[first] = outcome
            if others:
                # Each scenario gets a result object of its own.
                payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
                for index in others:
                    self._batch.outcomes[index] = pickle.loads(payload)
        return self._batch

    def _outcome(self):
        """This process's run: its result, or the exception it raised."""
        try:
            harness, workload, workload_result = self._runner._fly(
                self._runner.config,
                EMPTY_SCENARIO,
                fork_hook=self,
                fork_at=self._forks[0][0] if self._forks else math.inf,
            )
            return harness.build_result(workload, workload_result)
        except Exception as error:
            return error

    def _report(self, outcome) -> None:
        """Write this child's report to its pipe and exit."""
        status = 1
        try:
            if isinstance(outcome, Exception):
                kind = _ERROR
                outcome = (
                    type(outcome),
                    str(outcome),
                    "".join(traceback.format_exception(outcome)),
                )
            else:
                kind = _RESULT
            payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            _write_all(self._report_fd, _REPORT.pack(kind, len(payload)))
            _write_all(self._report_fd, payload)
            # Closing first lets the caller fly on while this process is
            # torn down.
            os.close(self._report_fd)
            status = 0
        finally:
            os._exit(status)

    def __call__(self, harness: "SimulationHarness") -> None:
        """The fork hook: start every scenario due at this boundary."""
        forks = self._forks
        while self._next < len(forks) and harness.time >= forks[self._next][0]:
            index = forks[self._next][1]
            self._next += 1
            if self._next == len(forks) and not self._golden:
                # Nothing wants the rest of the golden flight: fly the
                # last scenario here rather than in one more fork.
                self._drain(self._concurrency - 1)
                self._adopt(harness, index)
                return
            if self._fork(harness, index):
                return
        if self._next < len(forks):
            harness.set_fork_hook(self, forks[self._next][0])
        else:
            harness.set_fork_hook(None, math.inf)

    def _adopt(self, harness: "SimulationHarness", index: int) -> None:
        self.adopted = index
        harness.set_fork_hook(None, math.inf)
        harness.adopt_scenario(self._scenarios[index])

    def _fork(self, harness: "SimulationHarness", index: int) -> bool:
        """Fork one child for scenario ``index``; True in the child."""
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            os.close(read_fd)
            for _, fd, _ in self._children.values():
                os.close(fd)
            self._children = {}
            self._exited = []
            self._report_fd = write_fd
            self._adopt(harness, index)
            return True
        os.close(write_fd)
        self._children[pid] = (index, read_fd, bytearray())
        self._drain(self._concurrency - 1)
        return False

    def _drain(self, limit: int) -> None:
        """Read children's reports until at most ``limit`` still run."""
        while len(self._children) > limit:
            fds = {fd: pid for pid, (_, fd, _) in self._children.items()}
            ready, _, _ = select.select(list(fds), [], [])
            for fd in ready:
                pid = fds[fd]
                index, _, data = self._children[pid]
                chunk = os.read(fd, 1 << 20)
                if chunk:
                    data += chunk
                    continue
                del self._children[pid]
                self._exited.append(pid)
                os.close(fd)
                self._receive(index, data)
        self._reap(block=False)

    def _receive(self, index: int, data: bytearray) -> None:
        """Take one child's report, or count the child lost unless the
        report arrived whole."""
        if len(data) >= _REPORT.size:
            kind, length = _REPORT.unpack_from(data)
            if len(data) == _REPORT.size + length:
                value = pickle.loads(memoryview(data)[_REPORT.size:])
                if kind == _RESULT:
                    self._batch.outcomes[index] = value
                else:
                    error = _rebuild_error(*value)
                    if error is not None:
                        self._batch.outcomes[index] = error
                return
        self._batch.lost += 1

    def _reap(self, block: bool) -> None:
        for pid in list(self._exited):
            done, _ = os.waitpid(pid, 0 if block else os.WNOHANG)
            if done:
                self._exited.remove(pid)

    def _finish(self) -> None:
        """Wait for every child: none may outlive the batch."""
        self._drain(0)
        self._reap(block=True)

    def kill(self) -> None:
        """Kill and reap every child (the caller is failing)."""
        for pid, (_, fd, _) in self._children.items():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.close(fd)
        for pid in [*self._children, *self._exited]:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
