"""One measurement of one workload, in a fresh interpreter.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/measure.py {setup|full|base|traced} WORKLOAD SEED

``setup`` times the set-up alone.  ``full`` times set-up and then the
checking phase with tracing off, and then, untimed, replays the
campaign's first finding to check determinism.  ``base`` is ``full`` as
the untraced half of a traced run; on paper-grid it adds the
parallel-capacity burn before the grid.  ``traced`` repeats the run with
the layer wrappers installed and then replays a few scenarios with only
the fault hook wrapped.  The result is one JSON object on the last line
of standard output; an exception anywhere gives an ``error`` payload
that counts the whole campaign as failed.
"""

import time

STARTED = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from layers import HINJ_LAYERS, MAIN_LAYERS, LayerTracer  # noqa: E402

#: Iterations of the pure-Python loop each burn process runs (~0.3 s),
#: and how many solo/together pairs the capacity is the median of.
BURN_LOOPS = 3_000_000
BURN_ROUNDS = 3


class SimLog:
    """Counts the simulations ``TestRunner.run`` completes.

    Grid cells run in forked workers, so each process appends one line
    per simulation to a file of its own under a fresh scratch directory;
    the parent sums the files afterwards.  A simulation that raises
    propagates out of the campaign, which the child reports as an
    ``error`` payload.
    """

    def __init__(self) -> None:
        self.directory = scratch_dir("sims-")
        self._original = None

    def install(self) -> None:
        from repro.core.runner import TestRunner

        original = self._original = TestRunner.__dict__["run"]
        directory = self.directory

        def run(runner, *args, **kwargs):
            result = original(runner, *args, **kwargs)
            path = os.path.join(directory, f"sims-{os.getpid()}.log")
            with open(path, "a", encoding="utf-8") as log:
                log.write(f"{result.duration_s!r}\n")
            return result

        TestRunner.run = run

    def totals(self):
        """Put ``TestRunner.run`` back, remove the logs, and return
        ``(simulations, simulated seconds)`` over every process."""
        from repro.core.runner import TestRunner

        TestRunner.run = self._original
        sims, seconds = 0, 0.0
        for name in sorted(os.listdir(self.directory)):
            if not name.startswith("sims-"):
                continue
            with open(os.path.join(self.directory, name), encoding="utf-8") as log:
                for line in log:
                    sims += 1
                    seconds += float(line)
        shutil.rmtree(self.directory)
        return sims, seconds


def install_ingest_clock(stamps: list) -> None:
    """Stamp the wall time at which the session ingests each result."""
    from repro.core.session import ExplorationSession

    for name in ("ingest_result", "run_scenario"):
        original = ExplorationSession.__dict__[name]

        def stamped(session, *args, _original=original, **kwargs):
            before = len(session.results)
            result = _original(session, *args, **kwargs)
            grown = len(session.results) - before
            if grown:
                stamps.extend([time.perf_counter()] * grown)
            return result

        setattr(ExplorationSession, name, stamped)


def peak_rss_mb() -> float:
    """Peak RSS of this process or any descendant it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def _burn(loops: int) -> None:
    total = 0
    for i in range(loops):
        total += i * i % 7


def parallel_capacity(workers: int) -> float:
    """How many processes' worth of CPU work ``workers`` processes get.

    ``workers * solo_wall / together_wall`` for the same pure-Python
    loop, medians over :data:`BURN_ROUNDS` alternating pairs.  Forked
    rather than spawned, so interpreter start-up stays out of the timed
    walls.
    """
    context = multiprocessing.get_context("fork")

    def wall(count: int) -> float:
        processes = [
            context.Process(target=_burn, args=(BURN_LOOPS,)) for _ in range(count)
        ]
        start = time.perf_counter()
        for process in processes:
            process.start()
        for process in processes:
            process.join()
        return time.perf_counter() - start

    solo, together = [], []
    for _ in range(BURN_ROUNDS):
        solo.append(wall(1))
        together.append(wall(workers))
    return workers * statistics.median(solo) / statistics.median(together)


def grid_workers() -> int:
    return len(os.sched_getaffinity(0))


def scratch_dir(prefix: str) -> str:
    return tempfile.mkdtemp(prefix=prefix, dir=os.environ.get("TMPDIR"))


def replay_misses(config, monitor, results) -> list:
    """Re-run the campaign's first unsafe result (else its first result).

    A fresh runner with the same configuration and monitor must give the
    same result line, so determinism is checked even when a run holds a
    single campaign.  This runs after the timed region.
    """
    from repro.core.runner import TestRunner

    if not results:
        return []
    chosen = next((r for r in results if r.found_unsafe_condition), results[0])
    replayed = TestRunner(config, monitor).run(chosen.scenario)
    if wl.result_line(replayed) == wl.result_line(chosen):
        return []
    return [
        f"replay of {chosen.scenario.describe()} differs: "
        f"{wl.result_line(replayed)} vs {wl.result_line(chosen)}"
    ]


# ----------------------------------------------------------------------
# SABRE workloads (sabre-auto, convoy-traffic)
# ----------------------------------------------------------------------
def _build_sabre(workload: str, seed: int):
    if workload == wl.SABRE_AUTO:
        return wl.sabre_auto_avis(seed), wl.sabre_auto_strategy
    return wl.convoy_traffic_avis(seed), wl.convoy_traffic_strategy


def _findings_time(workload, seed, results, stamps, check_start, check_wall):
    """Time to the last target finding, and the gated misses."""
    findings = wl.campaign_findings(workload, results)
    found = {label: index for index, label in findings}
    misses = []
    if seed == wl.DEFAULT_SEED:
        targets = wl.expected_findings(workload)
        misses = [f"missing {label}" for label in sorted(targets - set(found))]
    else:
        targets = set(found)
    if misses:
        return check_wall, findings, misses
    if targets:
        last = max(found[label] for label in targets)
    else:
        # A seed whose campaign finds nothing: read the clock where the
        # default seed's findings arrive, so such seeds measure the same
        # share of the campaign as seeds that do find something.
        last = min(wl.REFERENCE_FINDING_INDEX[workload], len(stamps) - 1)
    return stamps[last] - check_start, findings, misses


def sabre_setup(workload: str, seed: int) -> dict:
    avis, _ = _build_sabre(workload, seed)
    avis.profile()
    return {"setup_s": time.perf_counter() - STARTED}


def sabre_full(workload: str, seed: int) -> dict:
    avis, strategy = _build_sabre(workload, seed)
    avis.profile()
    setup_s = time.perf_counter() - STARTED
    simlog = SimLog()
    simlog.install()
    stamps: list = []
    install_ingest_clock(stamps)
    check_start = time.perf_counter()
    campaign = avis.check(strategy=strategy())
    check_wall = time.perf_counter() - check_start
    sims, sim_seconds = simlog.totals()
    ttf, findings, misses = _findings_time(
        workload, seed, campaign.results, stamps, check_start, check_wall
    )
    misses += replay_misses(avis.config, avis.monitor, campaign.results)
    stats = avis.engine.last_stats
    return {
        "setup_s": setup_s,
        "campaign_wall_s": check_wall,
        "sims": sims,
        "sim_seconds": sim_seconds,
        "sims_attempted": campaign.simulations,
        "sims_failed": campaign.simulations - len(campaign.results),
        "time_to_findings_s": ttf,
        "findings": [[index, label] for index, label in findings],
        "misses": misses,
        "unsafe": campaign.unsafe_scenario_count,
        "digest": wl.digest([wl.result_line(r) for r in campaign.results]),
        "engine": {key: stats[key] for key in ("rounds", "executed", "cache_hits")},
        "cache_bytes": 0,
        "result_bytes": len(pickle.dumps(campaign)),
        "cell_walls": [check_wall],
        "capacity": 1.0,
        "workers": 1,
        "peak_rss_mb": peak_rss_mb(),
    }


def sabre_traced(workload: str, seed: int) -> dict:
    tracer = LayerTracer()
    tracer.install(MAIN_LAYERS)
    avis, strategy = _build_sabre(workload, seed)
    region_start = time.perf_counter()
    avis.profile()
    check_start = time.perf_counter()
    campaign = avis.check(strategy=strategy())
    region_end = time.perf_counter()
    tracer.restore()
    scenarios = [r.scenario for r in campaign.results]
    return {
        "region_s": region_end - region_start,
        "check_s": region_end - check_start,
        "digest": wl.digest([wl.result_line(r) for r in campaign.results]),
        "unsafe": campaign.unsafe_scenario_count,
        "executed": avis.engine.last_stats["executed"],
        **_traced_payload(tracer, workload, seed),
        **_hinj_pass(avis.config, scenarios[: wl.HINJ_REPLAYS[workload]]),
    }


# ----------------------------------------------------------------------
# paper-grid
# ----------------------------------------------------------------------
def _build_grid(seed: int, workers: int):
    from repro.engine.grid import CampaignGrid

    cache_dir = scratch_dir("cache-")
    cells = wl.grid_cells(seed, cache_dir)
    return CampaignGrid(cells, max_workers=workers), cells, cache_dir


def _grid_lines(cells, results) -> list:
    lines = []
    for cell in cells:
        campaign = results.get(cell.cell_id)
        if campaign is None:
            continue
        lines.append(cell.cell_id)
        lines.extend(wl.result_line(r) for r in campaign.results)
    return lines


def _dir_bytes(directory: str) -> int:
    total = 0
    for base, _, files in os.walk(directory):
        total += sum(os.path.getsize(os.path.join(base, name)) for name in files)
    return total


def grid_setup(seed: int) -> dict:
    _, _, cache_dir = _build_grid(seed, grid_workers())
    setup_s = time.perf_counter() - STARTED
    shutil.rmtree(cache_dir)
    return {"setup_s": setup_s}


def grid_full(seed: int, burn: bool = False) -> dict:
    workers = grid_workers()
    grid, cells, cache_dir = _build_grid(seed, workers)
    setup_s = time.perf_counter() - STARTED
    capacity = parallel_capacity(workers) if burn else None
    simlog = SimLog()
    simlog.install()
    collected = {}
    grid_start = time.perf_counter()
    budget = {cell.cell_id: int(cell.budget_units) for cell in cells}
    try:
        outcome = grid.run(
            on_progress=lambda cell_id, _: collected.setdefault(
                cell_id, time.perf_counter()
            )
        )
    except Exception as error:  # a raising cell fails its whole budget
        lost = sum(n for cell_id, n in budget.items() if cell_id not in collected)
        return {
            "error": repr(error),
            "sims_attempted": sum(budget.values()),
            "sims_failed": lost,
        }
    wall = time.perf_counter() - grid_start
    sims, sim_seconds = simlog.totals()
    cache_bytes = _dir_bytes(cache_dir)
    shutil.rmtree(cache_dir)

    cell_results = {
        cell_id: {
            "bugs": sorted(campaign.triggered_bug_ids),
            "unsafe": campaign.unsafe_scenario_count,
        }
        for cell_id, campaign in outcome.results.items()
    }
    misses = []
    if seed == wl.DEFAULT_SEED:
        misses = wl.check_grid(cell_results)
    # The cells that hold expected findings, on every seed, so the target
    # does not depend on what one seed happened to find.
    targets = [c for c, bugs in wl.GRID_CELL_BUGS.items() if bugs]
    ttf = max(collected[c] - grid_start for c in targets)

    misses += _grid_replay_misses(cells, outcome.results)
    totals = outcome.engine_totals()
    # The bulk of what each cell's worker pickles back to the parent: its
    # campaign and its engine and cache counters.
    result_bytes = 0
    for cell in cells:
        summary = outcome.cell_summaries[cell.cell_id]
        counters = {"engine": summary["engine"], "cache": summary["cache"]}
        result_bytes += len(pickle.dumps((outcome.results[cell.cell_id], counters)))
    attempted = sum(c.simulations for c in outcome.results.values())
    return {
        "setup_s": setup_s,
        "campaign_wall_s": wall,
        "sims": sims,
        "sim_seconds": sim_seconds,
        "sims_attempted": attempted,
        "sims_failed": attempted - sum(len(c.results) for c in outcome.results.values()),
        "time_to_findings_s": ttf,
        "cells": cell_results,
        "misses": misses,
        "unsafe": sum(r["unsafe"] for r in cell_results.values()),
        "digest": wl.digest(_grid_lines(cells, outcome.results)),
        "engine": {key: totals[key] for key in ("rounds", "executed", "cache_hits")},
        "cache_bytes": cache_bytes,
        "result_bytes": result_bytes,
        "cell_walls": [outcome.cell_seconds[cell.cell_id] for cell in cells],
        "capacity": capacity,
        "workers": workers,
        "peak_rss_mb": peak_rss_mb(),
    }


def _grid_replay_misses(cells, results) -> list:
    """:func:`replay_misses` on the first cell that found something."""
    from repro import Avis

    cell = next(
        (c for c in cells if results[c.cell_id].unsafe_scenario_count), cells[0]
    )
    avis = Avis(
        cell.config,
        profiling_runs=cell.profiling_runs,
        traffic_faults=cell.traffic_faults,
    )
    avis.profile()
    return replay_misses(cell.config, avis.monitor, results[cell.cell_id].results)


def grid_traced(seed: int) -> dict:
    tracer = LayerTracer()
    tracer.install(MAIN_LAYERS)
    grid, cells, cache_dir = _build_grid(seed, 1)
    region_start = time.perf_counter()
    outcome = grid.run()
    region_end = time.perf_counter()
    tracer.restore()
    shutil.rmtree(cache_dir)
    first = outcome.results[cells[0].cell_id]
    scenarios = [r.scenario for r in first.results]
    return {
        "region_s": region_end - region_start,
        "check_s": region_end - region_start,
        "digest": wl.digest(_grid_lines(cells, outcome.results)),
        "unsafe": sum(c.unsafe_scenario_count for c in outcome.results.values()),
        "executed": sum(
            s["engine"]["executed"] for s in outcome.cell_summaries.values()
        ),
        **_traced_payload(tracer, wl.PAPER_GRID, seed),
        **_hinj_pass(cells[0].config, scenarios[: wl.HINJ_REPLAYS[wl.PAPER_GRID]]),
    }


# ----------------------------------------------------------------------
# Traced-run helpers
# ----------------------------------------------------------------------
def _traced_payload(tracer: LayerTracer, workload: str, seed: int) -> dict:
    """Layer totals and run percentiles; the spans are written to disk."""
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as out:
        json.dump({"layers": tracer.snapshot(), "spans": tracer.spans}, out)
    return {
        "layers": tracer.snapshot(),
        "run_ms": [d * 1e3 for d in tracer.span_durations("core.runner.run")],
    }


def _hinj_pass(config, scenarios) -> dict:
    """Replay ``scenarios`` with only the fault hook wrapped."""
    from repro.core.runner import TestRunner

    tracer = LayerTracer()
    tracer.install(HINJ_LAYERS)
    runner = TestRunner(config)
    steps = sum(runner.run(scenario).steps for scenario in scenarios)
    tracer.restore()
    return {"hinj": tracer.snapshot()["hinj.should_fail"], "hinj_steps": steps}


def main() -> int:
    mode, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if workload not in wl.NAMES or mode not in ("setup", "full", "base", "traced"):
        print(f"measure.py: unknown mode/workload {mode} {workload}", file=sys.stderr)
        return 2
    if workload == wl.PAPER_GRID:
        modes = {
            "setup": grid_setup,
            "full": grid_full,
            "base": functools.partial(grid_full, burn=True),
            "traced": grid_traced,
        }
        args = (seed,)
    else:
        modes = {
            "setup": sabre_setup,
            "full": sabre_full,
            "base": sabre_full,
            "traced": sabre_traced,
        }
        args = (workload, seed)
    try:
        payload = modes[mode](*args)
    except Exception as error:  # the whole campaign counts as failed
        budget = wl.total_budget(workload)
        payload = {"error": repr(error), "sims_attempted": budget, "sims_failed": budget}
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
