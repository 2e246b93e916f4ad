"""Quiescence-skipping step planning for the adaptive stepper.

A simulated flight spends most of its wall-clock in stretches where
nothing discrete is about to happen: no fault window opens or closes, no
workload checkpoint fires, no vehicle is near another or mid mode
transition.  Inside such *quiescent* stretches the control loop can be
fused -- sensors sampled and the firmware stepped once for a window of N
physics micro-steps, the actuator command held in between -- without
changing which safety verdict the run reaches.  Near any *event
boundary* the loop must drop back to the reference cadence so
injections, recoveries and detector responses land on the exact step
they would land on anyway.

:class:`StepPlanner` makes that call.  It is constructed with every
statically known boundary time (fault-window starts and ends of both
fault families, the workload's scheduled checkpoints) and is kept
informed of the two dynamic hazards -- operating-mode transitions
(:meth:`note_transition`) and tight inter-vehicle proximity (the
``refine`` argument of :meth:`plan`).  ``plan()`` answers one question
per window: how many micro-steps may be fused *right now*?

The planner is pure bookkeeping -- it never touches the simulation -- so
its decisions are deterministic functions of the scenario and the
observed run, and two runs of the same scenario plan identically.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, List

#: Fuse at most this many micro-steps per macro-step.  Five reference
#: steps at the default dt=0.02 hold a command for 0.1 s, comfortably
#: under the 0.15 s attitude time constant, so a held command cannot
#: slew the vehicle further than the reference loop could between two
#: of its own command updates.
DEFAULT_MAX_STRIDE = 5

#: Refine this many seconds *before* a known boundary: sensors must be
#: sampling at the reference cadence when a fault window opens so the
#: injection lands on the same read it lands on under the reference
#: stepper.
DEFAULT_HORIZON_S = 0.3

#: Refine this many seconds *after* a boundary or mode transition: the
#: firmware's response (failsafe entry, recovery re-convergence) plays
#: out at full resolution before fusing resumes.
DEFAULT_SETTLE_S = 0.75


class StepPlanner:
    """Decides, window by window, how many micro-steps may be fused."""

    def __init__(
        self,
        dt: float,
        max_stride: int = DEFAULT_MAX_STRIDE,
        event_times: Iterable[float] = (),
        horizon_s: float = DEFAULT_HORIZON_S,
        settle_s: float = DEFAULT_SETTLE_S,
    ) -> None:
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if max_stride < 1:
            raise ValueError("max_stride must be at least 1")
        self.dt = dt
        self.max_stride = max_stride
        self.horizon_s = horizon_s
        self.settle_s = settle_s
        self._boundaries: List[float] = sorted(
            float(time) for time in event_times if time is not None
        )
        self._settle_until = float("-inf")

        #: Windows fused into one sensor/firmware update (stride > 1).
        self.macro_steps = 0
        #: Physics micro-steps planned in total, across all windows.
        self.micro_steps = 0
        #: Windows forced to stride 1 by a nearby boundary, an active
        #: settle period, or a caller-reported hazard.
        self.boundary_refinements = 0

    # ------------------------------------------------------------------
    # Boundary bookkeeping
    # ------------------------------------------------------------------
    @property
    def event_times(self) -> List[float]:
        """The known boundary times, sorted (a copy)."""
        return list(self._boundaries)

    def add_events(self, times: Iterable[float]) -> None:
        """Register further boundary times (workload checkpoints)."""
        for time in times:
            if time is not None:
                insort(self._boundaries, float(time))

    def note_transition(self, time: float) -> None:
        """Report an observed operating-mode transition at ``time``."""
        settle_end = time + self.settle_s
        if settle_end > self._settle_until:
            self._settle_until = settle_end

    @property
    def reaction_lead_s(self) -> float:
        """How far ahead of a boundary the planner first reacts to it.

        :meth:`plan` never asks about a window longer than
        ``max_stride`` steps, and :meth:`quiescent` looks ``horizon_s``
        past a window's end, so no decision taken at ``now`` depends on
        a boundary ``b`` with ``now + reaction_lead_s < b``.
        """
        return self.max_stride * self.dt + self.horizon_s

    def quiescent(self, now: float, window_end: float) -> bool:
        """True when no boundary affects the window ``[now, window_end]``.

        A boundary ``b`` affects the window when its guarded interval
        ``[b - horizon_s, b + settle_s]`` intersects it.
        """
        if now < self._settle_until:
            return False
        index = bisect_left(self._boundaries, now - self.settle_s)
        return not (
            index < len(self._boundaries)
            and self._boundaries[index] <= window_end + self.horizon_s
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, now: float, requested: int, refine: bool = False) -> int:
        """Micro-steps to fuse into the next window starting at ``now``.

        ``requested`` caps the window (the workload asked for exactly
        that many steps); ``refine`` forces the reference cadence for
        hazards only the caller can see (tight separation).  Returns at
        least 1.
        """
        limit = min(self.max_stride, requested)
        if limit < 1:
            limit = 1
        stride = limit
        if limit > 1:
            if refine or not self.quiescent(now, now + limit * self.dt):
                stride = 1
        if stride > 1:
            self.macro_steps += 1
        elif limit > 1:
            self.boundary_refinements += 1
        self.micro_steps += stride
        return stride
