"""Execution backends: where a batch of simulations actually runs.

The campaign engine hands a backend an ordered batch of fault scenarios
plus the shared run context (configuration and calibrated invariant
monitor); the backend returns one :class:`~repro.core.runner.RunResult`
per scenario, **in submission order**.  Because every run provisions a
fresh harness and the sensor noise is seeded from the configuration
(``iris_sensor_suite(noise_seed=config.noise_seed)``), a run's outcome
is a pure function of ``(config, scenario)`` -- which is what makes the
process-pool backend bit-identical to the serial one.  That holds for
adopted runs too: the serial and pool backends run batches through
:meth:`~repro.core.runner.TestRunner.run_batch`, which forks a golden
run into each scenario before any of its faults can be observed
(:mod:`repro.core.prefix`), so an adopted run equals a run provisioned
with its scenario from t=0.

Three backends ship with the engine:

* :class:`SerialBackend` -- runs the batch one scenario at a time,
  sharing its fault-free prefix.  The reference implementation and the
  fallback everywhere a process pool is unavailable.
* :class:`ProcessPoolBackend` -- fans the batch out over a
  ``multiprocessing`` pool using the ``fork`` start method.  A batch
  that shares its prefix goes to one worker, whose carrier keeps up to
  ``max_workers`` forked runs going; any other batch is spread one
  scenario per task.  Fork (not spawn) matters: run configurations
  carry workload factories that are frequently lambdas, which cannot be
  pickled; with fork the workers inherit the parent's context and only
  the scenarios and results cross the process boundary.  On platforms
  without ``fork`` the backend degrades to serial execution instead of
  failing.
* :class:`RemoteBackend` -- ships tasks to worker processes over TCP
  (length-prefixed JSON frames, see :mod:`repro.engine.remote`), either
  self-spawned loopback fork-workers or externally started endpoints.
  Worker loss mid-round requeues the lost tasks on the surviving
  workers, and results are reordered by submission index -- so a remote
  campaign is bit-identical to a serial one.

Backend selection is spec-string-first: :func:`parse_backend_spec` turns
``"serial"``, ``"pool:8"``, ``"remote:2"`` or ``"remote:host:port"``
into a backend, and :func:`resolve_backend` is the single shim through
which :class:`~repro.core.avis.Avis`, the campaign engine and the CLI
accept either a spec or a (deprecated) ready-made instance.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import queue
import threading
import time
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import RunConfiguration
from repro.core.prefix import can_share
from repro.core.runner import RunResult, TestRunner
from repro.hinj.faults import FaultScenario
from repro.obs import runtime as obs_runtime

#: Per-batch context inherited by forked workers (config, monitor).
_WORKER_CONTEXT: Optional[Tuple[RunConfiguration, object]] = None

#: Callback type invoked as each result is collected (scenario index, result).
ProgressCallback = Callable[[int, RunResult], None]


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _run_one(scenario: FaultScenario) -> RunResult:
    """Execute one scenario inside a forked worker."""
    assert _WORKER_CONTEXT is not None
    config, monitor = _WORKER_CONTEXT
    return TestRunner(config, monitor=monitor).run(scenario)


def _run_indexed(
    item: Tuple[int, FaultScenario]
) -> Tuple[int, RunResult, Optional[Tuple[int, float, float]]]:
    """Execute one (submission index, scenario) pair inside a worker.

    The index rides along so the parent can collect completions in
    whatever order the pool finishes them and still reorder the batch
    back into submission order.  When an observability runtime is
    installed (workers inherit it at fork), a ``(worker pid, start
    clock, execute seconds)`` triple rides along too -- ``perf_counter``
    is CLOCK_MONOTONIC-backed on Linux and therefore comparable across
    forked processes, which is what lets the parent split queue wait
    from execute time.
    """
    index, scenario = item
    if obs_runtime.current() is None:
        return index, _run_one(scenario), None
    start = time.perf_counter()
    result = _run_one(scenario)
    execute_s = time.perf_counter() - start
    return index, result, (os.getpid(), start, execute_s)


def _run_shared(
    scenarios: List[FaultScenario], concurrency: int
) -> Dict[int, RunResult]:
    """Run what a batch's shared fault-free prefix delivers, inside one
    forked worker, with up to ``concurrency`` simulations (the carrier's
    and its children's) running at a time."""
    assert _WORKER_CONTEXT is not None
    config, monitor = _WORKER_CONTEXT
    return TestRunner(config, monitor=monitor).run_shared(scenarios, concurrency)


class ExecutionBackend(abc.ABC):
    """Executes batches of independent simulations."""

    #: Human-readable backend name used in summaries and logs.
    name: str = "backend"

    @abc.abstractmethod
    def run_scenarios(
        self,
        config: RunConfiguration,
        monitor,
        scenarios: Sequence[FaultScenario],
        on_result: Optional[ProgressCallback] = None,
    ) -> List[RunResult]:
        """Simulate every scenario; results are in submission order."""

    def close(self) -> None:
        """Release any resources held by the backend."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} '{self.name}'>"


class SerialBackend(ExecutionBackend):
    """Run the batch in-process, one scenario after the other."""

    name = "serial"

    def run_scenarios(
        self,
        config: RunConfiguration,
        monitor,
        scenarios: Sequence[FaultScenario],
        on_result: Optional[ProgressCallback] = None,
    ) -> List[RunResult]:
        runner = TestRunner(config, monitor=monitor)
        obs = obs_runtime.current()
        results: List[RunResult] = []
        batch = runner.run_batch(scenarios)
        for index in range(len(scenarios)):
            if obs is not None:
                start = time.perf_counter()
            result = next(batch)
            if obs is not None:
                execute_s = time.perf_counter() - start
                obs.metrics.counter("backend.worker_tasks", worker="serial").inc()
                obs.metrics.counter(
                    "backend.worker_execute_seconds", worker="serial"
                ).inc(execute_s)
                obs.metrics.histogram("backend.task_seconds").observe(execute_s)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results


class ProcessPoolBackend(ExecutionBackend):
    """Fan a batch out over a forked ``multiprocessing`` pool.

    The pool persists across batches as long as the run context (the
    ``(config, monitor)`` pair, compared by identity) is unchanged --
    a campaign issues many small batches and must not pay a fork per
    batch.  A new context forks a fresh pool, since workers inherit the
    context at fork time.  Call :meth:`close` (or let the backend be
    garbage-collected) to release the workers.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the machine's CPU count capped at 4.
    """

    name = "process-pool"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = max(1, min(4, os.cpu_count() or 1))
        self._max_workers = max(1, max_workers)
        self._serial_fallback = SerialBackend()
        self._pool = None
        # Strong refs: identity comparison stays valid for the pool's
        # lifetime (an id() could be recycled after garbage collection).
        self._pool_context: Optional[Tuple[RunConfiguration, object]] = None

    @property
    def max_workers(self) -> int:
        """The configured pool size."""
        return self._max_workers

    def _ensure_pool(self, config: RunConfiguration, monitor):
        if self._pool is not None:
            held_config, held_monitor = self._pool_context
            if held_config is config and held_monitor is monitor:
                return self._pool
            self.close()
        global _WORKER_CONTEXT  # repro-lint: disable=FAB003 -- set immediately before the pool forks so workers inherit the run context
        _WORKER_CONTEXT = (config, monitor)
        try:
            # The pool is created while the context global is set, so
            # every forked worker inherits (config, monitor) without
            # pickling; only scenarios and results cross the process
            # boundary afterwards.
            self._pool = multiprocessing.get_context("fork").Pool(
                processes=self._max_workers
            )
        finally:
            _WORKER_CONTEXT = None
        self._pool_context = (config, monitor)
        return self._pool

    def run_scenarios(
        self,
        config: RunConfiguration,
        monitor,
        scenarios: Sequence[FaultScenario],
        on_result: Optional[ProgressCallback] = None,
    ) -> List[RunResult]:
        if (
            not scenarios
            or self._max_workers <= 1
            or not _fork_available()
            # Daemonic pool workers (e.g. inside a campaign-grid shard)
            # cannot spawn children; degrade to serial instead of failing.
            or multiprocessing.current_process().daemon
        ):
            return self._serial_fallback.run_scenarios(
                config, monitor, scenarios, on_result
            )

        pool = self._ensure_pool(config, monitor)
        slots: List[Optional[RunResult]] = [None] * len(scenarios)
        if can_share(config, scenarios):
            # One worker flies the batch's fault-free prefix once and
            # keeps up to max_workers simulations running, forked off it
            # (repro.core.prefix); splitting the batch over the workers
            # would fly the prefix once per worker.  What it cannot
            # deliver is spread over the pool below.
            shared = pool.apply(_run_shared, (list(scenarios), self._max_workers))
            for index, result in sorted(shared.items()):
                slots[index] = result
                if on_result is not None:
                    on_result(index, result)
        obs = obs_runtime.current()
        submit_clock = time.perf_counter() if obs is not None else 0.0
        # In-flight scheduling: collect completions as the workers finish
        # them (imap_unordered has no head-of-line blocking, so a slow
        # scenario never stalls the progress callback behind it) and
        # reorder into submission order via the indices that rode along.
        pending = [
            (index, scenario)
            for index, scenario in enumerate(scenarios)
            if slots[index] is None
        ]
        for index, result, timing in pool.imap_unordered(
            _run_indexed, pending, chunksize=1
        ):
            if obs is not None and timing is not None:
                worker_pid, start_clock, execute_s = timing
                worker = f"pid{worker_pid}"
                obs.metrics.counter("backend.worker_tasks", worker=worker).inc()
                obs.metrics.counter(
                    "backend.worker_execute_seconds", worker=worker
                ).inc(execute_s)
                obs.metrics.counter(
                    "backend.worker_queue_wait_seconds", worker=worker
                ).inc(max(start_clock - submit_clock, 0.0))
                obs.metrics.histogram("backend.task_seconds").observe(execute_s)
                # Per-run phase metrics recorded inside the worker died
                # with its registry; re-aggregate them from the flight
                # log that travelled back with the result.
                log = getattr(result, "flight_log", None)
                if log is not None:
                    for phase, seconds in log.phase_seconds.items():
                        obs.metrics.counter(
                            "run.phase_seconds", phase=phase
                        ).inc(seconds)
                    for event in log.events:
                        obs.metrics.counter(
                            "run.flight_events", kind=event.kind
                        ).inc()
            slots[index] = result
            if on_result is not None:
                on_result(index, result)
        assert all(result is not None for result in slots)
        return slots  # type: ignore[return-value]

    def close(self) -> None:
        """Terminate the worker pool (if one is running)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_context = None

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


class RemoteBackend(ExecutionBackend):
    """Fan a batch out to worker processes over TCP sockets.

    Two deployment shapes share one wire protocol
    (:mod:`repro.engine.remote`):

    * ``RemoteBackend(workers=N)`` forks N loopback worker processes on
      first use; the workers inherit the ``(config, monitor)`` context
      (compared by identity, exactly like the pool backend) and are
      respawned when the context changes.
    * ``RemoteBackend(addresses=[(host, port), ...])`` connects to
      externally started workers (``python -m repro.engine worker``).
      Each connection is handshaken against the campaign's context
      fingerprint; a worker serving a different context is rejected up
      front rather than contributing wrong results.

    Scheduling: one controller thread per worker connection pulls
    ``(index, scenario)`` tasks off a shared queue and blocks on the
    worker's reply, so every worker has exactly one task in flight and
    the fastest worker naturally takes the most tasks.  A worker that
    dies mid-task (connection loss or reply timeout) has its in-flight
    task requeued on the survivors; when every worker is gone the
    remainder of the batch finishes on the in-process serial fallback,
    so a round always converges.  Results are reordered by submission
    index, which keeps remote == pool == serial bit-identical.
    """

    name = "remote"

    def __init__(
        self,
        addresses: Optional[Sequence[Tuple[str, int]]] = None,
        workers: Optional[int] = None,
        connect_timeout: float = 10.0,
        task_timeout: Optional[float] = 600.0,
        retries: int = 3,
    ) -> None:
        if addresses is not None and workers is not None:
            raise ValueError("pass either addresses or workers, not both")
        if addresses is None and workers is None:
            workers = max(1, min(4, os.cpu_count() or 1))
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        self._addresses = [tuple(address) for address in addresses or []]
        self._worker_count = workers
        self._connect_timeout = connect_timeout
        self._task_timeout = task_timeout
        self._retries = max(1, retries)
        self._serial_fallback = SerialBackend()
        # Loopback fleet state, keyed (by identity) to the run context
        # the workers inherited at fork -- a new context respawns them.
        self._loopback: List[object] = []
        self._loopback_context: Optional[Tuple[RunConfiguration, object]] = None
        #: Tasks whose worker was lost and which ran elsewhere (stats).
        self.requeued = 0

    @property
    def max_workers(self) -> int:
        """Worker endpoints this backend fans out to."""
        if self._worker_count is not None:
            return self._worker_count
        return max(1, len(self._addresses))

    @property
    def loopback_workers(self) -> List[object]:
        """Live loopback worker handles (worker-loss tests kill these)."""
        return list(self._loopback)

    def _close_loopback(self) -> None:
        for worker in self._loopback:
            worker.close()
        self._loopback = []
        self._loopback_context = None

    def _worker_addresses(self, config, monitor) -> List[Tuple[str, int]]:
        """The endpoints to connect to, spawning loopback workers if
        this backend owns its fleet."""
        from repro.engine import remote

        if self._worker_count is None:
            return list(self._addresses)
        context = (config, monitor)
        if self._loopback and self._loopback_context is not None:
            held_config, held_monitor = self._loopback_context
            if held_config is config and held_monitor is monitor:
                alive = [worker for worker in self._loopback if worker.alive]
                if alive:
                    return [worker.address for worker in alive]
            self._close_loopback()
        self._loopback = remote.spawn_loopback_workers(
            config, monitor, self._worker_count
        )
        self._loopback_context = context
        return [worker.address for worker in self._loopback]

    def run_scenarios(
        self,
        config: RunConfiguration,
        monitor,
        scenarios: Sequence[FaultScenario],
        on_result: Optional[ProgressCallback] = None,
    ) -> List[RunResult]:
        from repro.engine import remote

        if not scenarios:
            return []
        if self._worker_count is not None and (
            not _fork_available() or multiprocessing.current_process().daemon
        ):
            # A self-spawned fleet needs fork and a non-daemonic parent
            # (grid shards are daemonic); degrade like the pool does.
            return self._serial_fallback.run_scenarios(
                config, monitor, scenarios, on_result
            )

        fingerprint = remote.context_fingerprint(config, monitor)
        addresses = self._worker_addresses(config, monitor)
        connections, failures = remote.connect_workers(
            addresses,
            fingerprint,
            connect_timeout=self._connect_timeout,
            task_timeout=self._task_timeout,
            retries=self._retries,
        )
        if failures and not connections:
            if self._addresses:
                reasons = "; ".join(
                    f"{remote.format_address(address)}: {reason}"
                    for address, reason in failures
                )
                raise ConnectionError(f"no remote worker reachable ({reasons})")
            return self._serial_fallback.run_scenarios(
                config, monitor, scenarios, on_result
            )

        obs = obs_runtime.current()
        tasks: "queue.Queue[Tuple[int, FaultScenario]]" = queue.Queue()
        for item in enumerate(scenarios):
            tasks.put(item)
        slots: List[Optional[RunResult]] = [None] * len(scenarios)
        lock = threading.Lock()
        collected = {"count": 0, "requeued": 0}
        poisoned: List[BaseException] = []

        def record(index: int, result: RunResult, label: str, seconds: float):
            with lock:
                slots[index] = result
                collected["count"] += 1
                if obs is not None:
                    obs.metrics.counter(
                        "backend.worker_tasks", worker=label
                    ).inc()
                    obs.metrics.counter(
                        "backend.worker_execute_seconds", worker=label
                    ).inc(seconds)
                    obs.metrics.histogram("backend.task_seconds").observe(
                        seconds
                    )
                if on_result is not None:
                    on_result(index, result)

        def drain(connection) -> None:
            while not poisoned:
                try:
                    index, scenario = tasks.get_nowait()
                except queue.Empty:
                    return
                started = time.perf_counter()
                try:
                    reply_index, result = connection.run_task(index, scenario)
                except remote.RemoteTaskError as error:
                    # The task itself failed on a healthy worker;
                    # requeueing it would fail identically everywhere.
                    with lock:
                        poisoned.append(RuntimeError(str(error)))
                    return
                except (ConnectionError, OSError):
                    # Worker lost mid-task: requeue for the survivors.
                    with lock:
                        collected["requeued"] += 1
                        if obs is not None:
                            obs.metrics.counter(
                                "backend.remote_requeued"
                            ).inc()
                    tasks.put((index, scenario))
                    return
                record(
                    reply_index,
                    result,
                    connection.label,
                    time.perf_counter() - started,
                )

        threads = []
        try:
            for connection in connections:
                thread = threading.Thread(
                    target=drain, args=(connection,), daemon=True
                )
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join()
        finally:
            for connection in connections:
                connection.close()
        self.requeued += collected["requeued"]
        if poisoned:
            raise poisoned[0]

        # Every worker may have died with tasks still queued (or have
        # been requeued onto nobody); the serial fallback finishes the
        # remainder in-process so the round always converges.
        remainder: List[Tuple[int, FaultScenario]] = []
        while True:
            try:
                remainder.append(tasks.get_nowait())
            except queue.Empty:
                break
        if remainder:
            remainder.sort()
            leftover = self._serial_fallback.run_scenarios(
                config, monitor, [scenario for _, scenario in remainder]
            )
            for (index, _), result in zip(remainder, leftover):
                record(index, result, "serial-fallback", 0.0)
        assert all(result is not None for result in slots)
        return slots  # type: ignore[return-value]

    def close(self) -> None:
        """Shut down self-spawned loopback workers (if any)."""
        self._close_loopback()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Backend specs
# ----------------------------------------------------------------------
#: The spec grammar, documented once for every error message.
BACKEND_SPEC_HELP = (
    "'serial', 'pool', 'pool:<workers>', 'remote:<workers>' "
    "(self-spawned loopback fleet) or 'remote:host:port[,host:port...]' "
    "(externally started workers)"
)


def parse_backend_spec(spec: str) -> ExecutionBackend:
    """Build an execution backend from its string spec.

    The spec grammar is the one surface shared by ``Avis(backend=...)``,
    :class:`~repro.engine.campaign.CampaignEngine` and the CLI
    ``--backend`` flag: ``"serial"``, ``"pool"``/``"pool:8"``,
    ``"remote:2"`` (two self-spawned loopback workers) or
    ``"remote:host:port[,host2:port2...]"`` (external workers).
    """
    from repro.engine import remote

    text = spec.strip()
    if text == "serial":
        return SerialBackend()
    if text == "pool":
        return ProcessPoolBackend()
    if text.startswith("pool:"):
        argument = text[len("pool:") :]
        try:
            workers = int(argument)
        except ValueError:
            raise ValueError(
                f"invalid pool spec '{spec}': expected pool:<workers>"
            ) from None
        if workers < 1:
            raise ValueError(f"invalid pool spec '{spec}': workers must be >= 1")
        return ProcessPoolBackend(max_workers=workers)
    if text == "remote":
        return RemoteBackend()
    if text.startswith("remote:"):
        argument = text[len("remote:") :]
        if not argument:
            raise ValueError(f"invalid remote spec '{spec}': {BACKEND_SPEC_HELP}")
        if argument.isdigit():
            workers = int(argument)
            if workers < 1:
                raise ValueError(
                    f"invalid remote spec '{spec}': workers must be >= 1"
                )
            return RemoteBackend(workers=workers)
        try:
            addresses = [
                remote.parse_address(part)
                for part in argument.split(",")
                if part.strip()
            ]
        except ValueError as error:
            raise ValueError(f"invalid remote spec '{spec}': {error}") from None
        if not addresses:
            raise ValueError(f"invalid remote spec '{spec}': {BACKEND_SPEC_HELP}")
        return RemoteBackend(addresses=addresses)
    raise ValueError(f"unknown backend spec '{spec}': {BACKEND_SPEC_HELP}")


def resolve_backend(backend) -> Optional[ExecutionBackend]:
    """Normalise a backend argument: None, a spec string, or an instance.

    Spec strings are the supported surface; passing a ready-made
    :class:`ExecutionBackend` instance still works but is deprecated
    (announced for removal in a future release -- see the README's
    deprecation timeline) because instances cannot cross the submission
    API's process and wire boundaries.
    """
    if backend is None:
        return None
    if isinstance(backend, str):
        return parse_backend_spec(backend)
    if isinstance(backend, ExecutionBackend):
        warnings.warn(
            "passing an ExecutionBackend instance is deprecated; pass a "
            f"backend spec string instead ({BACKEND_SPEC_HELP})",
            DeprecationWarning,
            stacklevel=3,
        )
        return backend
    raise TypeError(
        f"backend must be None, a spec string or an ExecutionBackend, "
        f"got {type(backend).__name__}"
    )
