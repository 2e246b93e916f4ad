"""Avis campaign benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sabre-auto --seed 0 --seconds 40 --trace 0

``--trace 0`` repeats the workload's campaign, each time in a fresh
interpreter, for about ``--seconds`` seconds and reports the end-to-end
metrics (medians over the repetitions).  ``--trace 1`` runs the campaign
once untraced and once with the layer wrappers of ``layers.py``, and
reports the per-layer metrics.  Either way every campaign's findings
are checked, a digest of its scenarios, verdicts and bug ids is printed,
and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count simulations (``sims_attempted`` and
``sims_failed``); a missed expected finding adds one failure.  The
process exits non-zero when anything failed.  See README.md for the
metrics, the workloads and why each exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

#: Set-up samples per untraced run; extra set-up-only children make up
#: the difference when fewer campaigns fit in the run.
MIN_SETUPS = 3
#: Every child must have ended this many seconds after the run started,
#: so a run that hangs or slows down still prints its result in time.
RUN_DEADLINE_S = 170.0


class Children:
    """Starts ``measure.py`` children, one at a time, and stops them.

    Each child leads its own process group, so stopping it also stops
    the grid workers it forked.  :meth:`stop` runs on a timeout and on
    SIGTERM/SIGINT, so no child outlives the benchmark.
    """

    def __init__(self, workload: str, seed: int, env: dict, deadline: float) -> None:
        self._workload = workload
        self._seed = seed
        self._env = env
        self._deadline = deadline
        self._process = None

    def run(self, mode: str) -> dict:
        """Run one child in a fresh interpreter and return its result.

        A child that times out, exits non-zero or prints nothing gives an
        ``error`` payload that counts its whole campaign as failed, as a
        child whose campaign raised reports itself.
        """
        self._process = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "measure.py"),
                mode,
                self._workload,
                str(self._seed),
            ],
            stdout=subprocess.PIPE,
            env=self._env,
            cwd=str(ROOT),
            start_new_session=True,
        )
        timeout = max(self._deadline - time.perf_counter(), 1.0)
        try:
            stdout, _ = self._process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            return self._failed(f"{mode} child passed the {RUN_DEADLINE_S:.0f} s deadline")
        returncode = self._process.returncode
        self._process = None
        lines = stdout.decode("utf-8").strip().splitlines()
        if returncode != 0:
            return self._failed(f"{mode} child exited with {returncode}")
        if not lines:
            return self._failed(f"{mode} child printed nothing")
        return json.loads(lines[-1])

    def _failed(self, error: str) -> dict:
        budget = wl.total_budget(self._workload)
        return {"error": error, "sims_attempted": budget, "sims_failed": budget}

    def stop(self) -> None:
        """Kill the running child's process group and wait for the child."""
        process, self._process = self._process, None
        if process is None:
            return
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.communicate()


def per_step(layers: dict, layer: str, steps: int) -> float:
    return layers[layer]["self_s"] / steps * 1e6 if steps else 0.0


def per_call(layers: dict, layer: str, scale: float) -> float:
    stats = layers[layer]
    return stats["inclusive_s"] / stats["calls"] * scale if stats["calls"] else 0.0


def grid_numbers(rep: dict) -> dict:
    walls = rep["cell_walls"]
    return {
        "engine.grid.result_bytes": rep["result_bytes"],
        "engine.grid.cell_wall_max_s": max(walls),
        "engine.grid.cell_wall_sum_s": sum(walls),
        "engine.grid.parallel_capacity": rep["capacity"],
        "engine.grid.efficiency": sum(walls) / rep["campaign_wall_s"] / rep["capacity"],
    }


def layer_metrics(workload: str, base: dict, traced: dict) -> dict:
    """The per-layer ledger from one untraced and one traced run."""
    layers = traced["layers"]
    steps = layers["sim.step_fleet"]["calls"]
    sims = layers["core.runner.run"]["calls"]
    hinj, hinj_steps = traced["hinj"], traced["hinj_steps"]
    hinj_us = hinj["inclusive_s"] / hinj_steps * 1e6 if hinj_steps else 0.0
    attributed = sum(stats["self_s"] for stats in layers.values())
    if workload == wl.PAPER_GRID:
        # The traced grid runs its cells one after another; the untraced
        # one ran them on ``workers`` processes that together delivered
        # ``capacity`` processes' worth of CPU.
        untraced = sum(base["cell_walls"]) * base["capacity"] / base["workers"]
    else:
        untraced = base["campaign_wall_s"]
    can_prune = layers["core.search.can_prune"]
    run_ms = traced["run_ms"]
    return {
        # The fault hook runs inside read_all; its own pass times it.
        "sensors.read_all.self_us_per_step": per_step(layers, "sensors.read_all", steps)
        - hinj_us,
        "hinj.should_fail.calls_per_step": hinj["calls"] / hinj_steps if hinj_steps else 0.0,
        "hinj.should_fail.us_per_step": hinj_us,
        "firmware.update.self_us_per_step": per_step(layers, "firmware.update", steps),
        "firmware.estimator.us_per_step": per_step(layers, "firmware.estimator", steps),
        "firmware.navigation.us_per_step": per_step(layers, "firmware.navigation", steps),
        "firmware.effects.us_per_step": per_step(layers, "firmware.effects", steps),
        "firmware.bugs.match.calls": layers["firmware.bugs.match"]["calls"],
        "sim.step_fleet.us_per_step": per_step(layers, "sim.step_fleet", steps),
        "sim.micro_steps": steps,
        "sim.micro_steps_per_sim": steps / sims if sims else 0.0,
        "sim.planner.plan.calls": layers["sim.planner.plan"]["calls"],
        "mavlink.link.us_per_step": per_step(layers, "mavlink.link", steps),
        "mavlink.gcs.us_per_step": per_step(layers, "mavlink.gcs", steps),
        "mavlink.traffic.us_per_step": per_step(layers, "mavlink.traffic", steps),
        "workloads.run.self_us_per_step": per_step(layers, "workloads.run", steps),
        "core.runner.step.self_us_per_step": per_step(layers, "core.runner.step", steps),
        "core.runner.provision.ms_per_sim": per_call(layers, "core.runner.provision", 1e3),
        "core.runner.run.ms_per_sim.p50": statistics.median(run_ms),
        "core.runner.run.ms_per_sim.max": max(run_ms),
        "core.monitor.evaluate.ms_per_sim": per_call(layers, "core.monitor.evaluate", 1e3),
        "core.avis.profile_s": per_call(layers, "core.avis.profile", 1.0),
        "core.search.propose.ms_per_round": per_call(layers, "core.search.propose", 1e3),
        "core.search.prune_ratio": can_prune["true_results"] / can_prune["calls"]
        if can_prune["calls"]
        else 0.0,
        "core.search.unsafe_per_sim": traced["unsafe"] / traced["executed"],
        "engine.rounds": base["engine"]["rounds"],
        "engine.executed": base["engine"]["executed"],
        "engine.cache_hits": base["engine"]["cache_hits"],
        "engine.cache.get.us_per_call": per_call(layers, "engine.cache.get", 1e6),
        "engine.cache.put.us_per_call": per_call(layers, "engine.cache.put", 1e6),
        "engine.cache.bytes_written": base["cache_bytes"],
        **grid_numbers(base),
        "trace.overhead_ratio": traced["check_s"] / untraced,
        "trace.unattributed_ratio": (traced["region_s"] - attributed) / traced["region_s"],
    }


def end_to_end(reps: list, setups: list) -> dict:
    def median(key):
        return statistics.median(rep[key] for rep in reps)

    return {
        "setup_s": statistics.median(setups),
        "campaign_wall_s": median("campaign_wall_s"),
        "sims_per_s": statistics.median(r["sims"] / r["campaign_wall_s"] for r in reps),
        "sim_s_per_s": statistics.median(
            r["sim_seconds"] / r["campaign_wall_s"] for r in reps
        ),
        "time_to_findings_s": median("time_to_findings_s"),
        "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reps),
    }


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {ROOT / 'src' / 'repro'} is missing; run the benchmark "
            "from the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    units = load_units()
    scratch = ROOT / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    # Compile the package once so no timed set-up pays for byte-compiling.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    started = time.perf_counter()
    children = Children(
        args.workload,
        args.seed,
        dict(os.environ, TMPDIR=str(scratch)),
        deadline=deadline,
    )

    def interrupted(signum, _frame):
        children.stop()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)

    reps, setups, misses = [], [], []
    traced = None
    try:
        if args.trace:
            reps.append(children.run("base"))
            if "error" not in reps[0]:
                traced = children.run("traced")
                if "error" in traced:
                    reps.append(traced)
                    traced = None
        else:
            while True:
                reps.append(children.run("full"))
                if "error" in reps[-1]:
                    break
                elapsed = time.perf_counter() - started
                typical = statistics.median(
                    rep["setup_s"] + rep["campaign_wall_s"] for rep in reps
                )
                if elapsed + typical > args.seconds:
                    break
            setups = [rep["setup_s"] for rep in reps if "setup_s" in rep]
            while len(setups) < MIN_SETUPS and "error" not in reps[-1]:
                setup = children.run("setup")
                if "error" in setup:
                    reps.append(setup)
                else:
                    setups.append(setup["setup_s"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(rep["sims_attempted"] for rep in reps)
    failed = sum(rep["sims_failed"] for rep in reps)
    for index, rep in enumerate(reps):
        if "error" in rep:
            misses.append(f"repetition {index} failed: {rep['error']}")
            continue
        misses.extend(rep["misses"])
        print(
            f"{args.workload} seed={args.seed} repetition {index}: "
            f"digest {rep['digest']}, {rep['unsafe']} unsafe, "
            f"findings {rep.get('findings', rep.get('cells'))}"
        )
    # Each campaign's first finding was also replayed in a fresh runner
    # (``replay_misses``); on top of that, campaigns of one run must agree.
    digests = {rep["digest"] for rep in reps if "digest" in rep}
    if traced is not None:
        digests.add(traced["digest"])
    if len(digests) > 1:
        misses.append(f"campaign digests differ between runs: {sorted(digests)}")
    failed += len(misses)
    for miss in misses:
        print(f"{args.workload} seed={args.seed} MISS: {miss}")

    metrics = {}
    if not misses:
        if args.trace:
            metrics = layer_metrics(args.workload, reps[0], traced)
        else:
            metrics = end_to_end(reps, setups)
        for name, value in metrics.items():
            print(f"{args.workload} seed={args.seed} {name} = {value:.6g} {units[name]}")
        if not args.trace:
            print(f"{args.workload} seed={args.seed} sims_attempted = {attempted} count")
            print(f"{args.workload} seed={args.seed} sims_failed = {failed} count")
    print(
        json.dumps(
            {
                "correct": not misses and failed == 0,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if not misses and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
