"""Timeline extraction helpers for the Figures 5/6 reproduction.

Figures 5 and 6 in the paper are Jumpshot screenshots: per-processor activity
bars over time, before and after injecting the crash of two of the three
processors.  The simulator records the same information as ``worker`` spans
in the run's :class:`~repro.obs.trace.Tracer` (run with
``Scenario(telemetry=TelemetryConfig(trace=True))``); this module distils
them into the facts the figures are meant to convey — who was doing what
when, when the crashes happened, and that the surviving processor picked up
the lost work and terminated.
"""

from __future__ import annotations

from typing import Dict, List

from ..distributed.stats import RunResult
from ..obs.gantt import state_durations, state_intervals
from ..obs.trace import Tracer

__all__ = ["activity_summary", "recovery_evidence"]


def activity_summary(tracer: Tracer) -> List[Dict[str, object]]:
    """One row per process: time spent in each traced worker state."""
    rows: List[Dict[str, object]] = []
    for process, durations in sorted(state_durations(state_intervals(tracer)).items()):
        row: Dict[str, object] = {"process": process}
        for state in ("working", "idle", "load_balancing", "recovery", "crashed", "terminated"):
            row[f"{state}_s"] = round(durations.get(state, 0.0), 3)
        rows.append(row)
    return rows


def recovery_evidence(result: RunResult) -> Dict[str, object]:
    """The facts Figure 6 demonstrates, extracted from a failure run.

    Returns which workers crashed, which survived, whether a survivor
    performed recovery work (regenerated subproblems), whether termination was
    detected, and whether the final answer matches the workload's optimum.
    """
    survivors = [
        name for name, stats in result.workers.items() if not stats.crashed
    ]
    recovery_activations = sum(
        stats.recovery_activations for name, stats in result.workers.items() if name in survivors
    )
    detected = [
        name
        for name, stats in result.workers.items()
        if name in survivors and stats.terminated
    ]
    return {
        "crashed_workers": list(result.crashed_workers),
        "surviving_workers": survivors,
        "survivor_recovery_activations": recovery_activations,
        "survivors_terminated": sorted(detected),
        "all_survivors_terminated": result.all_terminated,
        "solved_correctly": result.solved_correctly,
        "makespan_s": round(result.makespan, 3),
    }
