"""Shared fault-free prefix: fly a batch's golden run once, fork per scenario.

Avis injects a fault when the firmware changes mode (Section IV), so
until a scenario's first fault can be observed its run *is* the
fault-free (golden) run: faults are consulted per sensor read and per
traffic beacon, the monitor's recovery-tolerance windows start at the
fault, and the adaptive planner reacts to a boundary only a bounded
lead ahead of it.  A batch therefore needs to fly that common prefix
once.

:func:`share_prefix` forks one **carrier** process per batch.  The
carrier flies ``EMPTY_SCENARIO`` and, at the last window boundary before
each scenario's :func:`fork_time`, ``os.fork()``\\ s a child.  The child
adopts the scenario (:meth:`SimulationHarness.adopt_scenario`), finishes
the workload on the call stack it inherited, and reports the pickled
``build_result`` output.  With ``concurrency=1`` (the serial backend)
the carrier waits for each child before it flies on, so only one
simulation runs at a time; with ``concurrency=N`` (the process pool) it
flies on while up to ``N - 1`` children run.  A batch's empty scenarios
take the carrier's own golden result; when none asks for it, the
carrier flies the batch's last-forking scenario itself instead of
forking it.  The caller then hands every result out through
``TestRunner.run``, so monitor evaluation and run accounting happen in
the calling process exactly as for an in-process run.

Wire format: the carrier writes frames (``_HEADER``: kind, scenario
index, payload length) to a pipe the caller reads.  ``_PID`` announces
a child about to run (payload: its pid) so the caller can kill it if
the carrier dies; ``_RESULT``/``_ERROR``/``_LOST`` close a scenario.  A
child writes one ``_REPORT`` header (kind, payload length) plus its
payload to a pipe of its own, which the carrier forwards only once it
arrived whole: a child that dies mid-write yields a ``_LOST`` frame,
never a torn one.

Sharing never changes a result.  Whatever does not come back as a
complete frame -- the carrier's golden flight ended or aborted first, a
child died, the carrier died -- is simply run in-process by the caller.
"""

from __future__ import annotations

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

_HEADER = struct.Struct("!Bqq")
_REPORT = struct.Struct("!Bq")
_PID_PAYLOAD = struct.Struct("!q")
_PID, _RESULT, _ERROR, _LOST = range(4)

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
    """What the carrier sent back for one batch.

    ``outcomes`` maps a scenario index to its :class:`RunResult` or to
    the exception its run raised; indices without an entry must run
    in-process.  ``lost`` counts forked processes (children and the
    carrier) that died before finishing their part.
    """

    outcomes: Dict[int, object] = field(default_factory=dict)
    lost: int = 0


def share_prefix(
    runner: "TestRunner", scenarios: Sequence[FaultScenario], concurrency: int = 1
) -> Optional[SharedBatch]:
    """Fly ``scenarios``' common golden prefix once in a carrier process,
    with at most ``concurrency`` simulations running at a time.

    Returns None -- run everything in-process -- when :func:`can_share`
    says no or another thread is alive (forking it is unsafe).
    """
    if threading.active_count() > 1 or not can_share(runner.config, scenarios):
        return None
    plan = fork_plan(runner.config, scenarios)
    forks = [(at, index) for at, index in plan if at != math.inf]
    golden = [index for at, index in plan if at == math.inf]

    read_fd, write_fd = os.pipe()
    try:
        carrier = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if carrier == 0:
        status = 1
        try:
            os.close(read_fd)
            _Carrier(
                runner, scenarios, forks, golden, write_fd, max(1, concurrency)
            ).fly()
            status = 0
        finally:
            # A forked process must never return into the caller's
            # stack (or run its exit handlers).
            os._exit(status)
    os.close(write_fd)
    return _collect(carrier, read_fd)


def _collect(carrier: int, read_fd: int) -> SharedBatch:
    """Read the carrier's frames until EOF, then reap it."""
    batch = SharedBatch()
    #: Scenario index -> pid of the child announced to be flying it.
    running: Dict[int, int] = {}
    finished = False
    with os.fdopen(read_fd, "rb") as stream:
        try:
            while True:
                header = stream.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    break
                kind, index, length = _HEADER.unpack(header)
                payload = stream.read(length)
                if len(payload) < length:
                    break
                if kind == _PID:
                    running[index] = _PID_PAYLOAD.unpack(payload)[0]
                    continue
                running.pop(index, None)
                if kind == _RESULT:
                    batch.outcomes[index] = pickle.loads(payload)
                elif kind == _ERROR:
                    error = _rebuild_error(*pickle.loads(payload))
                    if error is not None:
                        batch.outcomes[index] = error
                elif kind == _LOST:
                    batch.lost += 1
            finished = True
        finally:
            if not finished:
                _kill(carrier)
            for pid in running.values():
                # The carrier died while these children ran: they are
                # orphaned, and nobody will read their results.
                _kill(pid)
            _, status = os.waitpid(carrier, 0)
    if status != 0:
        batch.lost += 1
    return batch


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


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


def _write_frame(fd: int, kind: int, index: int, payload=b"") -> None:
    _write_all(fd, _HEADER.pack(kind, index, len(payload)))
    _write_all(fd, payload)


def _write_all(fd: int, data) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


class _Carrier:
    """The carrier's golden flight and the fork hook it installs.

    After a fork, the same object lives on in the child with
    ``adopted`` set; :meth:`fly` then reports the child's run instead
    of the carrier's.  The carrier itself sets ``adopted`` when it flies
    the batch's last scenario.
    """

    def __init__(
        self,
        runner: "TestRunner",
        scenarios: Sequence[FaultScenario],
        forks: List[Tuple[float, int]],
        golden: List[int],
        out_fd: int,
        concurrency: int,
    ) -> None:
        self._runner = runner
        self._scenarios = scenarios
        self._forks = forks
        self._next = 0
        self._golden = golden
        self._out_fd = out_fd
        self._concurrency = concurrency
        #: Scenario index this process runs (None while it flies golden).
        self.adopted: Optional[int] = None
        #: A forked child's report pipe (None in the carrier).
        self._report_fd: Optional[int] = None
        #: Children still reporting: pid -> (index, report pipe, bytes).
        self._children: Dict[int, Tuple[int, int, bytearray]] = {}
        #: Children that reported and are still to be reaped.
        self._exited: List[int] = []

    def fly(self) -> None:
        """Fly the golden run, then report whatever this process ran."""
        try:
            harness, workload, workload_result = self._runner._fly(
                self._runner.config,
                EMPTY_SCENARIO,
                fork_hook=self,
                fork_at=self._forks[0][0] if self._forks else math.inf,
            )
            if self.adopted is None:
                self._finish()
                if self._golden:
                    payload = pickle.dumps(
                        harness.build_result(workload, workload_result),
                        pickle.HIGHEST_PROTOCOL,
                    )
                    for index in self._golden:
                        _write_frame(self._out_fd, _RESULT, index, payload)
                return
            kind = _RESULT
            payload = pickle.dumps(
                harness.build_result(workload, workload_result),
                pickle.HIGHEST_PROTOCOL,
            )
        except Exception as error:
            if self.adopted is None:
                # Forked runs already under way are still exact.
                self._finish()
                raise
            kind = _ERROR
            payload = pickle.dumps(
                (type(error), str(error), traceback.format_exc()),
                pickle.HIGHEST_PROTOCOL,
            )
        if self._report_fd is None:
            self._finish()
            _write_frame(self._out_fd, kind, self.adopted, payload)
            return
        _write_all(self._report_fd, _REPORT.pack(kind, len(payload)))
        _write_all(self._report_fd, payload)
        # Closing first lets the carrier fly on while this process is
        # torn down.
        os.close(self._report_fd)
        os._exit(0)

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
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            os.close(self._out_fd)
            for _, fd, _ in self._children.values():
                os.close(fd)
            self._children = {}
            self._exited = []
            self._report_fd = write_fd
            self._adopt(harness, index)
            return True
        os.close(write_fd)
        self._children[pid] = (index, read_fd, bytearray())
        _write_frame(self._out_fd, _PID, index, _PID_PAYLOAD.pack(pid))
        self._drain(self._concurrency - 1)
        return False

    def _drain(self, limit: int) -> None:
        """Forward children's reports until at most ``limit`` still run."""
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
                os.close(fd)
                del self._children[pid]
                self._exited.append(pid)
                self._relay(index, data)
        self._reap(block=False)

    def _relay(self, index: int, data: bytearray) -> None:
        """Forward one child's report, or ``_LOST`` unless it is whole."""
        if len(data) >= _REPORT.size:
            kind, length = _REPORT.unpack_from(data)
            if len(data) == _REPORT.size + length:
                _write_frame(
                    self._out_fd, kind, index, memoryview(data)[_REPORT.size:]
                )
                return
        _write_frame(self._out_fd, _LOST, index)

    def _reap(self, block: bool) -> None:
        for pid in list(self._exited):
            done, _ = os.waitpid(pid, 0 if block else os.WNOHANG)
            if done:
                self._exited.remove(pid)

    def _finish(self) -> None:
        """Wait for every child: none may outlive the carrier."""
        self._drain(0)
        self._reap(block=True)
